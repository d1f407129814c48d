"""Tests of the benchmark itself: span arithmetic, output checks, inputs, tracer hygiene."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tensormax import cli, max_entry  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_child_spans():
    spans = [
        span("request", 0.0, 10.0, -1),
        span("cli.main", 1.0, 9.5, 0),
        span("statcore.load_matrix_csv", 2.0, 4.0, 1),
        span("statcore.max_entry", 5.0, 9.0, 1),
        span("statcore.max_entry", 6.0, 7.0, 3),  # nested call of the same name
    ]
    assert tracing.self_times(spans) == pytest.approx([1.5, 2.5, 2.0, 3.0, 1.0])
    busy = tracing.busy_times(spans)
    assert busy["statcore.max_entry"] == pytest.approx(4.0)
    assert tracing.layer_busy(spans, "statcore.") == pytest.approx(6.0)


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [span("a", 0.0, 10.0, -1), span("b", 2.0, 6.0, 0), span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def _test_stdout(X, m):
    return json.dumps({"stat": max_entry(X, m).to_json()})


@pytest.mark.parametrize("m", [2, 3, 4])
def test_checker_accepts_the_right_answer(m):
    X = np.random.default_rng(7).standard_normal((50, 9))
    assert workloads.check_test_output(X, m, 0, _test_stdout(X, m), None) == []


def test_checker_flags_one_ulp_in_w_abs():
    X = np.random.default_rng(8).standard_normal((60, 10))
    out = json.loads(_test_stdout(X, 3))
    golden = workloads.CliTest().golden_entry([workloads.Response("m3", 0, json.dumps(out), None)])["m3"]
    out["stat"]["w_abs"] = float(np.nextafter(out["stat"]["w_abs"], np.inf))
    errors = workloads.check_test_output(X, 3, 0, json.dumps(out), golden)
    assert any(e.startswith("w_abs") for e in errors)
    assert any("not w_abs" in e for e in errors)
    errors = workloads.check_test_output(X, 3, 0, json.dumps(out), None)
    assert any("not w_abs" in e for e in errors)


def test_checker_flags_a_wrong_argmax():
    X = np.random.default_rng(9).standard_normal((60, 10))
    out = json.loads(_test_stdout(X, 2))
    i, j = out["stat"]["argmax_abs"]
    out["stat"]["argmax_abs"] = [i, j + 1] if j < 10 else [i - 1, j]
    assert any("argmax_abs" in e for e in workloads.check_test_output(X, 2, 0, json.dumps(out), None))


def test_checker_flags_a_consistent_but_smaller_tuple():
    # Value and tuple agree with each other, but another tuple is larger:
    # only the BLAS pass can see it.
    X = np.random.default_rng(10).standard_normal((60, 10))
    out = json.loads(_test_stdout(X, 3))
    tup = [1, 2, 3] if out["stat"]["argmax_abs"] != [1, 2, 3] else [1, 2, 4]
    out["stat"]["argmax_abs"] = tup
    out["stat"]["w_abs"] = abs(workloads.tuple_entry(X, tup))
    errors = workloads.check_test_output(X, 3, 0, json.dumps(out), None)
    assert errors == ["a tuple exceeds w_abs by %.3g beyond the rounding bound"
                      % workloads.blas_excess(X, 3, out["stat"]["w_abs"], out["stat"]["w_signed"])[0]]


def test_checker_counts_a_failed_exit_code():
    X = np.zeros((5, 4))
    assert workloads.check_test_output(X, 2, 3, "", None) == ["exit code 3"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_the_same_seed(name, tmp_path):
    def make(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        requests, warmups = workloads.WORKLOADS[name]().prepare(seed, d)
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        text = json.dumps([[r.kind, r.argv, r.work] for r in requests] + [list(w) for w in warmups])
        return files, text.replace(str(d), "DIR")

    first, second, other = make(1, "a"), make(1, "b"), make(2, "c")
    assert first == second
    assert first != other


def test_goldens_cover_the_default_and_held_out_seeds():
    goldens = workloads.load_goldens()
    for name in workloads.WORKLOADS:
        assert {str(run.DEFAULT_SEED), str(run.HELD_OUT_SEED)} <= set(goldens[name])


def test_rademacher_tail_matches_direct_enumeration():
    n, x = 12, 0.5
    direct = sum(math.comb(n, b) for b in range(n + 1) if (2 * b - n) / math.sqrt(n) >= x) / 2**n
    assert workloads.rademacher_tail(n, x) == direct


def test_metric_names_match_benchmark_json():
    spec = json.loads(run.SPEC_PATH.read_text())
    assert set(tracing.layer_metrics([], 1, 0.0)) == {m["name"] for m in spec["per_layer"]}


def _originals():
    out = []
    for module_name, path, _, _ in tracing.TARGETS:
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        out.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
    return out


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _originals()
    requests, _ = workloads.DiagnoseMc().prepare(3, tmp_path)
    small = [workloads.Request(r.kind, tuple("100" if a == "50000" or a == "5000" else a for a in r.argv), r.work)
             for r in requests]
    tr = tracing.Tracer()
    measured = run.measure(cli, small, 0.0, tmp_path, run.SpeedProbe(lambda: None, 1.0), tr)
    assert measured.traced_cycles == {1} and len(measured.responses) == 2 * len(small)
    assert all(r.code == 0 for r in measured.responses)
    names = {s[0] for s in tr.spans}
    assert {"request", "cli.main", "populations.draw", "diagnostics.estimate_lambda"} <= names
    assert all(s[4] >= len(small) for s in tr.spans)  # only the second cycle was traced
    assert all(a is b for a, b in zip(_originals(), before))
    assert not tr._saved
