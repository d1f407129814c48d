"""Experiment runner: KS statistic, persistence, determinism, budget."""

import dataclasses
import fractions
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from test_golden_json import GOLDEN, SIMULATE_CONFIG

import tensormax
from tensormax import (
    ONE_SIDED,
    BudgetError,
    CellConfig,
    ExperimentConfig,
    GumbelLimit,
    PopulationSpec,
    SeedSpec,
    hypotest,
    ks_distance,
    lab,
    load_report,
    normalize,
    persist,
    run_experiment,
    statcore,
)
from tensormax.populations import STANDARD_NORMAL, sample_matrix, sample_stack

NORMAL = PopulationSpec(STANDARD_NORMAL)


def small_config(tmpdir=None, reps=40, p=10, n=25, seed=99):
    return ExperimentConfig(
        grid=(CellConfig(n=n, p=p, m=2, spec=NORMAL),),
        reps=reps,
        master_seed=seed,
        output_path=None if tmpdir is None else str(tmpdir),
    )


def _numpy_has_avx512f() -> bool:
    """Whether numpy reports AVX512F, and so may dispatch AVX-512 kernels."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):  # numpy 2, numpy 1
        try:
            return bool(importlib.import_module(module).__cpu_features__.get("AVX512F"))
        except ImportError:
            pass
    return False


class TestKsDistance:
    def test_stratified_inverse_cdf_attains_half_spacing(self):
        lim = GumbelLimit(2)
        R = 1000
        samples = [lim.quantile((i - 0.5) / R) for i in range(1, R + 1)]
        assert ks_distance(samples, lim) == pytest.approx(0.0005, abs=1e-9)

    def test_single_sample_at_median(self):
        lim = GumbelLimit(2)
        assert ks_distance([lim.quantile(0.5)], lim) == pytest.approx(0.5, abs=1e-12)

    def test_two_large_draws_from_the_limit_itself(self):
        lim = GumbelLimit(2)
        rng = np.random.default_rng(0)
        for _ in range(2):
            u = rng.uniform(0.0, 1.0, size=2000)
            samples = [lim.quantile(q) for q in u]
            # Kolmogorov 99% quantile: 1.63 / sqrt(2000) ~ 0.036
            assert ks_distance(samples, lim) <= 0.04

    def test_matches_scipy_kstest(self):
        lim = GumbelLimit(3)
        rng = np.random.default_rng(1)
        samples = rng.uniform(-6, 12, size=257)
        ours = ks_distance(samples, lim)
        ref = scipy.stats.kstest(samples, np.vectorize(lim.cdf, otypes=[float])).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_cell_ks_is_the_scalar_cdf_ks_bit_for_bit(self):
        grid = (CellConfig(n=25, p=10, m=2, spec=NORMAL), CellConfig(n=20, p=6, m=3, spec=NORMAL),
                CellConfig(n=30, p=8, m=2, spec=NORMAL, sided=ONE_SIDED))
        report = run_experiment(ExperimentConfig(grid=grid, reps=200, master_seed=5))
        for cell in report.cells:
            lim = GumbelLimit(cell.cell.m, cell.cell.sided)
            t = sorted(rec.t_value for rec in report.records if rec.cell_id == cell.cell_id)
            r = len(t)
            ks = max(max(i / r - lim.cdf(z), lim.cdf(z) - (i - 1) / r) for i, z in enumerate(t, 1))
            assert cell.ks_distance == ks

    @pytest.mark.skipif(not _numpy_has_avx512f(), reason="numpy dispatches no AVX-512 kernels on this CPU")
    def test_cell_ks_does_not_follow_numpy_simd_dispatch(self):
        # Under numpy's AVX-512 kernels np.exp and math.exp differ in the last bit on about
        # 5% of inputs, which moved this cell's KS from ...684 to ...685.
        config = "ExperimentConfig((CellConfig(30, 6, 2, PopulationSpec('standard_normal')),), 25, 9)"
        code = ("from tensormax import CellConfig, ExperimentConfig, PopulationSpec, run_experiment; "
                f"print(repr(run_experiment({config}).cells[0].ks_distance))")
        path = [str(Path(tensormax.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        baseline = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        ks = run_experiment(ExperimentConfig((CellConfig(30, 6, 2, NORMAL),), 25, 9)).cells[0].ks_distance
        assert baseline.stdout == f"{ks!r}\n" == "0.2484387467902684\n"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ks_distance([], GumbelLimit(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ks_distance([bad, 1.0], GumbelLimit(2))

    @pytest.mark.parametrize("samples, shape", [([[1.0, 2.0], [3.0, 4.0]], (2, 2)), (1.0, ())])
    def test_array_that_is_not_flat_rejected(self, samples, shape):
        reason = f"samples must be a flat sequence, got an array of shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            ks_distance(samples, GumbelLimit(2))


class TestRunExperiment:
    def test_single_replicate_degenerate(self):
        cfg = ExperimentConfig(
            grid=(CellConfig(n=5, p=8, m=2, spec=NORMAL),), reps=1, master_seed=3
        )
        report = run_experiment(cfg)
        assert len(report.records) == 1
        t1 = report.records[0].t_value
        lim = GumbelLimit(2)
        expected = max(lim.cdf(t1), 1.0 - lim.cdf(t1))
        assert report.cells[0].ks_distance == pytest.approx(expected, abs=1e-12)

    def test_record_invariants(self):
        report = run_experiment(small_config())
        lp = math.log(10)
        for rec in report.records:
            assert rec.t_value == rec.w_abs**2 - 4.0 * lp + math.log(lp)
            assert rec.ratio == rec.w_abs / math.sqrt(lp)
            assert -rec.w_abs <= rec.w_signed <= rec.w_abs

    def test_total_record_count(self):
        cfg = ExperimentConfig(
            grid=(
                CellConfig(n=10, p=6, m=2, spec=NORMAL),
                CellConfig(n=10, p=6, m=3, spec=NORMAL),
            ),
            reps=7,
            master_seed=5,
        )
        report = run_experiment(cfg)
        assert len(report.records) == 14
        assert [c.reps for c in report.cells] == [7, 7]

    def test_reps_validation_names_parameter(self):
        with pytest.raises(ValueError, match="reps"):
            ExperimentConfig(grid=(CellConfig(n=5, p=8, m=2, spec=NORMAL),),
                             reps=0, master_seed=1)

    def test_budget_checked_before_work(self):
        cfg = ExperimentConfig(
            grid=(CellConfig(n=1000, p=300, m=3, spec=NORMAL),), reps=10**6, master_seed=1
        )
        with pytest.raises(BudgetError, match="budget"):
            run_experiment(cfg)

    def test_saturated_cell_refused_before_any_draw(self, monkeypatch):
        # n * sum_{s<=20} C(200, s) passes 2**63 - 1, where a cell's count
        # is clamped, so two replicates of it sum to far less than 1e30.
        drawn = []
        monkeypatch.setattr(lab, "sample_stack", lambda *args: drawn.append(args) or sample_stack(*args))
        cfg = ExperimentConfig(grid=(CellConfig(1, 200, 20, NORMAL),), reps=2, master_seed=1)
        with pytest.raises(BudgetError, match="more than 9.2e18"):
            run_experiment(cfg, budget=1e30)
        assert drawn == []

    def test_run_total_past_the_clamp_refused_whatever_the_budget(self, monkeypatch):
        # Each (10**6, 100, 2) matrix costs 5.05e9 multiply-adds, so 2e9
        # replicates total 1.01e19, past 2**63 - 1, where counts clamp.
        def refuse(*args):
            raise AssertionError("the run was cut into chunks or drawn before its budget was checked")

        monkeypatch.setattr(lab, "_chunks", refuse)
        monkeypatch.setattr(lab, "_philox_keys", refuse)
        monkeypatch.setattr(lab, "sample_stack", refuse)
        cfg = ExperimentConfig(grid=(CellConfig(10**6, 100, 2, NORMAL),), reps=2 * 10**9, master_seed=1)
        with pytest.raises(BudgetError, match="more than 9.2e18"):
            run_experiment(cfg, budget=1e30)

    def test_budget_holds_each_matrix(self, monkeypatch):
        # The run's budget, not the library's default ceiling, bounds a
        # single matrix: 150 multiply-adds each, against a ceiling of 100.
        cfg = ExperimentConfig(grid=(CellConfig(n=10, p=5, m=2, spec=NORMAL),), reps=3, master_seed=1)
        expected = run_experiment(cfg, budget=10**6).records
        monkeypatch.setattr(statcore, "DEFAULT_COST_CEILING", 100)
        assert run_experiment(cfg, budget=10**6).records == expected

    def test_worker_invariance_in_memory(self):
        base = run_experiment(small_config(reps=16))
        par = run_experiment(small_config(reps=16), workers=2)
        assert base.records == par.records
        assert base.cells[0].ks_distance == par.cells[0].ks_distance


def _edit_records(text, edit):
    """records.csv text with ``edit`` applied to every record's fields."""
    header, *rows = text.splitlines()
    return "\n".join([header, *(",".join(edit(row.split(","))) for row in rows)]) + "\n"


def _edit_summary(text, edit):
    """summary.json text after ``edit`` changed its decoded value in place."""
    summary = json.loads(text)
    edit(summary)
    return json.dumps(summary)


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        report = run_experiment(small_config(tmpdir=tmp_path))
        loaded = load_report(tmp_path)
        assert loaded.config == report.config
        assert loaded.records == report.records
        assert loaded.cells == report.cells

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda row: row.rsplit(b",", 1)[0], id="too_few_fields"),
        pytest.param(lambda row: row + b",0.5", id="extra_field"),
    ])
    def test_record_row_of_the_wrong_width_names_its_line(self, tmp_path, edit):
        run_experiment(small_config(tmpdir=tmp_path, reps=3))
        path = tmp_path / "records.csv"
        lines = path.read_bytes().split(b"\n")
        lines[2] = edit(lines[2])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match="records.csv line 3 has"):
            load_report(tmp_path)

    @pytest.mark.parametrize("column, text", [
        ("replicate", "1.5"), ("w_abs", "x"), ("ratio", ""),
        # persist never writes a non-finite float
        ("w_abs", "nan"), ("t_value", "-inf"), ("w_signed", "inf"),
        # nor a field other than its value in its own format, though int() and float() read these
        ("w_abs", "1_0"), ("replicate", " 0_0 "), ("ratio", " 0.5"), ("t_value", "1E3"), ("replicate", "+2"),
    ])
    def test_record_field_that_does_not_parse_names_its_line_and_column(self, tmp_path, column, text):
        run_experiment(small_config(tmpdir=tmp_path, reps=3))
        path = tmp_path / "records.csv"
        lines = path.read_text().split("\n")
        row = lines[3].split(",")
        row[lab.RECORD_COLUMNS.index(column)] = text
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"records.csv line 4 column {column} must be"):
            load_report(tmp_path)

    @pytest.mark.parametrize("text, reason", [
        ("{}", "is missing or mistypes a field: 'config'"),
        ("[]", "is missing or mistypes a field"),
        ("not json", "is not valid JSON"),
        ('{"config": {}, "cells": []}', "is missing or mistypes a field: .*'grid'"),
    ], ids=["empty-object", "list", "not-json", "empty-config"])
    def test_summary_that_does_not_read_names_the_directory(self, tmp_path, text, reason):
        run_experiment(small_config(tmpdir=tmp_path, reps=3))
        (tmp_path / "summary.json").write_text(text)
        with pytest.raises(ValueError, match=f"^report {re.escape(str(tmp_path))} {reason}"):
            load_report(tmp_path)

    @pytest.mark.parametrize("name, edit, reason", [
        # the codec refuses a fractional reps in the config, which comes before the cells
        ("summary.json", lambda text: text.replace('"reps": 3', '"reps": 2.5', 1),
         "ExperimentConfig.reps must be an integer, got 2.5"),
        # JSON holds integers of any size; float() of this one overflows
        ("summary.json", lambda text: _edit_summary(text, lambda s: s["cells"][0].update(runtime_seconds=10**400)),
         "CellReport.runtime_seconds must be a number in the float range, got about 10**400.0"),
        ("records.csv", lambda text: text.replace("w_abs", "w"), "records.csv header is 'cell_id,replicate,w,"),
        ("records.csv", lambda text: "", "records.csv header is '', not cell_id"),
        # cut to its header and first record, as an interrupted copy leaves it
        ("records.csv", lambda text: "".join(text.splitlines(keepends=True)[:2]),
         "records.csv holds 1 records, not reps x cells = 3 x 1"),
    ], ids=["fractional-reps", "float-overflow-runtime", "bad-header", "empty-records", "truncated-records"])
    def test_report_that_does_not_load_names_the_directory(self, tmp_path, name, edit, reason):
        run_experiment(small_config(tmpdir=tmp_path, reps=3))
        path = tmp_path / name
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=f"^report {re.escape(str(tmp_path))}: {re.escape(reason)}"):
            load_report(tmp_path)

    @pytest.mark.parametrize("name, edit, reason", [
        ("records.csv", lambda text: text.replace("c00_", "c07_"), "records.csv holds 6 records, not reps x cells"),
        ("records.csv", lambda text: _edit_records(text, lambda row: [row[0], "7", *row[2:]]),
         "records.csv holds 6 records, not reps x cells"),
        ("summary.json",
         lambda text: _edit_summary(
             text, lambda s: (s["cells"][0].update(reps=-5), s["cells"][0]["cell"].update(n=999))),
         "summary.json's cells are not one report of reps replicates per grid cell"),
        ("summary.json", lambda text: _edit_summary(text, lambda s: s["cells"].pop()),
         "summary.json's cells are not one report of reps replicates per grid cell"),
    ], ids=["cell-not-in-grid", "replicate-7", "cell-report-edited", "cells-cut"])
    def test_run_its_writer_could_not_have_made_names_the_directory(self, tmp_path, name, edit, reason):
        grid = (CellConfig(n=25, p=10, m=2, spec=NORMAL), CellConfig(n=20, p=6, m=3, spec=NORMAL))
        run_experiment(ExperimentConfig(grid=grid, reps=3, master_seed=99, output_path=str(tmp_path)))
        path = tmp_path / name
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=f"^report {re.escape(str(tmp_path))}: {re.escape(reason)}"):
            load_report(tmp_path)

    def test_record_columns_are_the_record_fields(self):
        assert lab.RECORD_COLUMNS == tuple(f.name for f in dataclasses.fields(lab.ReplicateRecord))

    def test_csv_schema_and_line_endings(self, tmp_path):
        run_experiment(small_config(tmpdir=tmp_path, reps=3))
        raw = (tmp_path / "records.csv").read_bytes()
        assert raw.startswith(b"cell_id,replicate,w_abs,w_signed,t_value,ratio\n")
        assert b"\r" not in raw
        assert raw.count(b"\n") == 4

    def test_byte_identical_across_worker_counts(self, tmp_path):
        d1, d8 = tmp_path / "w1", tmp_path / "w8"
        run_experiment(small_config(tmpdir=d1, reps=12), workers=1)
        run_experiment(small_config(tmpdir=d8, reps=12), workers=8)
        assert (d1 / "records.csv").read_bytes() == (d8 / "records.csv").read_bytes()
        # the summary agrees except for wall-clock runtime and the
        # deliberately different output directories
        s1 = json.loads((d1 / "summary.json").read_text())
        s8 = json.loads((d8 / "summary.json").read_text())
        for s in (s1, s8):
            s["config"]["output_path"] = None
            for cell in s["cells"]:
                cell["runtime_seconds"] = 0.0
        assert s1 == s8

    def test_persist_io_error_names_path(self, tmp_path):
        report = run_experiment(small_config())
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        with pytest.raises(OSError, match="blocked"):
            persist(report, target)

    def test_output_path_that_is_not_a_string_is_refused_when_built(self, tmp_path, monkeypatch):
        # summary.json holds the path, and the codec reads it back only as a string
        monkeypatch.chdir(tmp_path)
        out = Path("out")
        reason = f"ExperimentConfig.output_path must be a string, got {out!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            dataclasses.replace(small_config(reps=3), output_path=out)
        assert list(tmp_path.iterdir()) == []

    def test_summary_that_does_not_serialize_is_not_left_cut_short(self, tmp_path):
        report = run_experiment(small_config(reps=3))
        cell = dataclasses.replace(report.cells[0], runtime_seconds=fractions.Fraction(1, 3))
        with pytest.raises(ValueError, match="Fraction is not JSON serializable") as info:
            persist(dataclasses.replace(report, cells=(cell,)), tmp_path)
        assert str(info.value).startswith(f"failed to persist report under {tmp_path}: the summary does not serialize")
        assert "missing or mistypes" not in str(info.value)
        assert not (tmp_path / "summary.json").exists()

    def test_config_json_round_trip(self, tmp_path):
        cfg = small_config(tmpdir=tmp_path, reps=2)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


class TestOneSidedCell:
    """A one-sided cell reads w_signed clipped at 0, as test_independence does."""

    # at p = m = 3 there is one tuple, and about half of its signed sums are <= 0
    CELL = CellConfig(n=50, p=3, m=3, spec=NORMAL, sided="one_sided")

    def test_flag_counting_and_summary(self):
        report = run_experiment(ExperimentConfig(grid=(self.CELL,), reps=200, master_seed=5))
        cell = report.cells[0]
        lp = math.log(3)
        signed = [rec.w_signed for rec in report.records]
        assert cell.flagged_nonpositive == sum(w <= 0.0 for w in signed) > 0
        assert cell.reps == len(report.records) == 200
        for rec in report.records:
            w = max(rec.w_signed, 0.0)
            assert rec.t_value == w * w - 6.0 * lp + math.log(lp)
            assert rec.ratio == rec.w_abs / math.sqrt(lp)
        t = sorted(rec.t_value for rec in report.records)
        assert cell.ecdf == tuple((np.searchsorted(t, lab.DEFAULT_Z_GRID, side="right") / 200).tolist())
        assert cell.ks_distance == ks_distance(t, GumbelLimit(3, "one_sided"))

    def test_type1_is_the_mean_of_test_independence_decisions(self):
        reps, seed = 2000, 5
        report = run_experiment(ExperimentConfig(grid=(self.CELL,), reps=reps, master_seed=seed))
        results = [
            hypotest.test_independence(sample_matrix(NORMAL, 50, 3, SeedSpec(seed, r)), 3, sided="one_sided")
            for r in range(reps)
        ]
        assert [rec.t_value for rec in report.records] == [res.t_value for res in results]
        assert report.cells[0].flagged_nonpositive == sum(res.signed_nonpositive for res in results)
        for level, rate in report.cells[0].type1.items():
            assert rate == sum(res.decisions[level] for res in results) / reps

    def test_a_cell_of_clipped_replicates_summarizes_them(self):
        # replicate 0 of seed 1 has w_signed <= 0: the summary reads its
        # clipped statistic, 0 centred
        report = run_experiment(ExperimentConfig(grid=(self.CELL,), reps=1, master_seed=1))
        (rec,), cell = report.records, report.cells[0]
        assert rec.w_signed <= 0.0 and cell.flagged_nonpositive == 1
        limit = GumbelLimit(3, "one_sided")
        assert rec.t_value == normalize(0.0, 3, 3)
        assert cell.ks_distance == max(limit.cdf(rec.t_value), 1.0 - limit.cdf(rec.t_value))
        assert all(rate == 0.0 for rate in cell.type1.values())


class TestStackedChunks:
    """Replicates run in stacks; how they are cut never shows in the output."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_chunks_tile_the_replicates(self, workers):
        cell = CellConfig(n=200, p=20, m=2, spec=NORMAL)  # 32 replicates per stack
        for reps in (1, 3, 4, 31, 100, 1000):
            chunks = lab._chunks(cell, reps, workers)
            assert chunks[0][0] == 0 and chunks[-1][1] == reps
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            sizes = [hi - lo for lo, hi in chunks]
            assert 0 < min(sizes) and max(sizes) <= 32 and max(sizes) - min(sizes) <= 1
            assert len(chunks) >= min(reps, workers)
        assert lab._chunks(cell, 100, 1) == [(0, 25), (25, 50), (50, 75), (75, 100)]
        assert len(lab._chunks(cell, 100, 8)) == 8
        big = CellConfig(n=2000, p=400, m=2, spec=NORMAL)  # larger than a stack
        assert lab._chunks(big, 3, 1) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", ["one_value", "three_replicates", "default"])
    def test_persisted_bytes_match_the_goldens(self, cap, workers, tmp_path, monkeypatch):
        # The golden simulate run, persisted through run_experiment with
        # the stack cap at one value (one replicate per stack), at three
        # replicates of every cell (its cells hold 180 or 200 values), and
        # at its default.
        if cap != "default":
            monkeypatch.setattr(lab, "_STACK_VALUES", 1 if cap == "one_value" else 600)
        monkeypatch.setattr(lab, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        monkeypatch.chdir(tmp_path)
        run_experiment(ExperimentConfig.from_json(SIMULATE_CONFIG), workers=workers)
        for name in ("records.csv", "summary.json"):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (GOLDEN / f"simulate.{name}").read_bytes(), name
