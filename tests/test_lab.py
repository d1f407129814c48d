"""Experiment runner: KS statistic, persistence, determinism, budget."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from test_golden_json import GOLDEN, SIMULATE_CONFIG

from tensormax import (
    BudgetError,
    CellConfig,
    ExperimentConfig,
    GumbelLimit,
    PopulationSpec,
    ks_distance,
    lab,
    load_report,
    persist,
    run_experiment,
)
from tensormax.populations import STANDARD_NORMAL

NORMAL = PopulationSpec(STANDARD_NORMAL)


def small_config(tmpdir=None, reps=40, p=10, n=25, seed=99):
    return ExperimentConfig(
        grid=(CellConfig(n=n, p=p, m=2, spec=NORMAL),),
        reps=reps,
        master_seed=seed,
        output_path=None if tmpdir is None else str(tmpdir),
    )


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
        ref = scipy.stats.kstest(samples, lambda z: lim.cdf_array(z)).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ks_distance([], GumbelLimit(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ks_distance([bad, 1.0], GumbelLimit(2))


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

    def test_worker_invariance_in_memory(self):
        base = run_experiment(small_config(reps=16))
        par = run_experiment(small_config(reps=16), workers=2)
        assert base.records == par.records
        assert base.cells[0].ks_distance == par.cells[0].ks_distance


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

    def test_config_json_round_trip(self, tmp_path):
        cfg = small_config(tmpdir=tmp_path, reps=2)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


class TestOneSidedCell:
    def test_flag_counting_and_summary(self):
        cfg = ExperimentConfig(
            grid=(CellConfig(n=20, p=8, m=2, spec=NORMAL, sided="one_sided"),),
            reps=30,
            master_seed=11,
        )
        report = run_experiment(cfg)
        cell = report.cells[0]
        assert cell.flagged_nonpositive >= 0
        assert 0.0 <= cell.ks_distance <= 1.0
        # records always carry the two-sided centering of w_abs
        lp = math.log(8)
        for rec in report.records:
            assert rec.t_value == rec.w_abs**2 - 4.0 * lp + math.log(lp)


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
