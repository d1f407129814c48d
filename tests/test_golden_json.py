"""Byte-for-byte goldens of the JSON the CLI prints and the run it persists.

Every report reaches users as JSON, so its keys, their order, the
spelling of level keys ("0.05") and numbers, and which optional keys
appear are part of the interface.  Each case runs the CLI in a scratch
directory holding the committed input CSVs, so that relative paths make
stdout and the stderr config line machine-independent, and compares
both streams with the files under ``tests/golden``.  The ``simulate``
case also compares ``summary.json`` and ``records.csv``; its wall-clock
``runtime_seconds`` is pinned to 0 by a frozen clock.

``python tests/test_golden_json.py`` rewrites the goldens from the
current code; a change to the format is then a reviewed diff of those
files.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from tensormax import lab
from tensormax.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = ("x_m2.csv", "x_m3.csv", "a.csv", "b.csv")

SIMULATE_CONFIG = {
    "grid": [
        {"n": 30, "p": 6, "m": 2, "spec": {"family": "standard_normal"}},
        {"n": 30, "p": 6, "m": 3, "spec": {"family": "rademacher"}, "sided": "one_sided"},
        {"n": 40, "p": 5, "m": 2, "spec": {"family": "student_t_standardized", "df": 5}},
    ],
    "reps": 25,
    "master_seed": 7,
    "output_path": "out",
}

CASES = {
    "test_m2": ["test", "--input", "x_m2.csv", "--m", "2"],
    "test_m3_one_sided": ["test", "--input", "x_m3.csv", "--m", "3", "--sided", "one"],
    "test_multi": ["test", "--input", "a.csv", "b.csv"],
    "diagnose_lambda": ["diagnose", "--what", "lambda", "--z", "0", "--n", "20", "--p", "10",
                        "--m", "2", "--reps", "20000", "--population", "rademacher"],
    "diagnose_b1": ["diagnose", "--what", "b1", "--p", "10", "--m", "2",
                    "--single-tail", "0.01"],
    "diagnose_pairtail": ["diagnose", "--what", "pairtail", "--s", "1", "--a", "0.5",
                          "--n", "20", "--p", "10", "--m", "2", "--reps", "5000",
                          "--population", "student_t_standardized", "--df", "5"],
    "diagnose_mdr": ["diagnose", "--what", "mdr", "--x", "1.5", "--n", "20", "--m", "2",
                     "--reps", "20000", "--population", "centered_exponential"],
    "simulate": ["simulate", "--config", "cfg.json"],
}

# Files the simulate case persists under its output_path.
ARTIFACTS = ("summary.json", "records.csv")


def run_case(name, workdir, capsys, monkeypatch):
    """Run one case in ``workdir``; return {golden file name: text}."""
    for fname in INPUTS:
        shutil.copy(GOLDEN / fname, workdir / fname)
    (workdir / "cfg.json").write_text(json.dumps(SIMULATE_CONFIG))
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(lab, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    texts = {f"{name}.out": captured.out, f"{name}.err": captured.err}
    if name == "simulate":
        for fname in ARTIFACTS:
            texts[f"simulate.{fname}"] = (workdir / "out" / fname).read_text(encoding="ascii")
    return texts


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys, monkeypatch):
    for fname, text in run_case(name, tmp_path, capsys, monkeypatch).items():
        expected = (GOLDEN / fname).read_text(encoding="ascii")
        assert text == expected, fname


def _regenerate():
    """Rewrite every golden from the current code (see the module docstring)."""
    for name in sorted(CASES):
        out, err = io.StringIO(), io.StringIO()
        capture = SimpleNamespace(
            readouterr=lambda: SimpleNamespace(out=out.getvalue(), err=err.getvalue()))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            texts = run_case(name, Path(tmp), capture, mp)
        for fname, text in texts.items():
            (GOLDEN / fname).write_text(text, encoding="ascii")
        print(f"wrote {name}")


if __name__ == "__main__":
    _regenerate()
