"""Command line surface: outputs, exit codes, idempotence."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tensormax.cli import main

X_M2 = str(Path(__file__).parent / "golden" / "x_m2.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, array):
    np.savetxt(path, np.asarray(array, dtype=float), delimiter=",")
    return str(path)


class TestQuantile:
    def test_q95_m2_twelve_significant_digits(self, capsys):
        code, out, err = run_cli(capsys, "quantile", "--m", "2", "--sided", "two", "--q", "0.95")
        assert code == 0
        assert out.strip() == "2.71621907056"
        assert "config" in err

    def test_cdf_mode(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--m", "2", "--sided", "two", "--z", "0")
        assert code == 0
        assert out.strip() == "0.819163861376"

    def test_idempotent(self, capsys):
        _, out1, _ = run_cli(capsys, "quantile", "--m", "3", "--q", "0.5")
        _, out2, _ = run_cli(capsys, "quantile", "--m", "3", "--q", "0.5")
        assert out1 == out2

    def test_bad_q_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "quantile", "--m", "2", "--q", "1.5")
        assert code == 2
        assert "q" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quantile", "--help"])
        assert exc.value.code == 0
        assert "--sided" in capsys.readouterr().out


class TestTest:
    def test_zero_matrix(self, tmp_path, capsys):
        path = write_csv(tmp_path / "zeros.csv", np.zeros((10, 5)))
        code, out, err = run_cli(capsys, "test", "--input", path, "--m", "2")
        assert code == 0
        result = json.loads(out)
        assert result["stat"]["w_abs"] == 0.0
        assert result["p_value"] > 0.9
        assert "config" in err

    def test_missing_m_usage_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "m.csv", np.eye(4))
        code, _, err = run_cli(capsys, "test", "--input", path)
        assert code == 2
        assert "--m" in err

    def test_multi_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = write_csv(tmp_path / "a.csv", rng.standard_normal((20, 6)))
        b = write_csv(tmp_path / "b.csv", rng.standard_normal((20, 6)))
        code, out, _ = run_cli(capsys, "test", "--input", a, b)
        assert code == 0
        assert json.loads(out)["stat"]["m"] == 2

    def test_budget_exit_code(self, tmp_path, capsys):
        path = write_csv(tmp_path / "wide.csv", np.ones((1, 50)))
        code, _, err = run_cli(capsys, "test", "--input", path, "--m", "25")
        assert code == 3
        assert "budget" in err

    def test_missing_file_io_error(self, capsys):
        code, _, err = run_cli(capsys, "test", "--input", "/nonexistent/x.csv", "--m", "2")
        assert code == 4

    def test_studentize_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((30, 5)) * 7.0 + 3.0
        path = write_csv(tmp_path / "s.csv", raw)
        code, out, _ = run_cli(capsys, "test", "--input", path, "--m", "2", "--studentize")
        assert code == 0
        assert 0.0 < json.loads(out)["p_value"] <= 1.0

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--frobnicate"])
        assert exc.value.code == 2


class TestDiagnose:
    def test_b1(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", "--what", "b1", "--p", "10", "--m", "2",
            "--single-tail", "0.001",
        )
        assert code == 0
        assert json.loads(out)["b1_bound"] == pytest.approx(1.8e-3, rel=1e-12)

    def test_lambda_smoke(self, capsys):
        code, out, err = run_cli(
            capsys, "diagnose", "--what", "lambda", "--z", "0", "--n", "50",
            "--p", "10", "--m", "2", "--reps", "2000",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda_limit"] == 1.0
        assert obj["lambda_hat"] >= 0.0
        assert "seed" in err

    def test_pairtail_reports_analytic_decay(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", "--what", "pairtail", "--s", "1", "--a", "0.5",
            "--n", "20", "--p", "10", "--m", "2", "--reps", "1000",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["analytic_decay"]["polynomial_exponent"] == -4.0
        assert obj["analytic_decay"]["subexponential_exponent"] == -0.25

    def test_mdr_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", "--what", "mdr", "--x", "0", "--n", "50",
            "--m", "2", "--reps", "4000",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["gaussian_tail"] == 0.5
        assert 0.9 <= obj["ratio"] <= 1.1

    def test_missing_parameter_named(self, capsys):
        code, _, err = run_cli(capsys, "diagnose", "--what", "lambda", "--n", "10")
        assert code == 2
        assert "--p" in err

    def test_deterministic_default_seed(self, capsys):
        args = ("diagnose", "--what", "mdr", "--x", "1", "--n", "30", "--m", "2",
                "--reps", "2000")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestSimulate:
    def config_obj(self, out_dir, reps=5):
        return {
            "grid": [{"n": 10, "p": 6, "m": 2, "spec": {"family": "standard_normal"}}],
            "reps": reps,
            "master_seed": 7,
            "output_path": str(out_dir),
        }

    def test_runs_and_persists(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        cfg.write_text(json.dumps(self.config_obj(out_dir)))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.json").exists()
        obj = json.loads(out)
        assert obj["records"] == 5
        assert "config" in err

    def test_invalid_reps_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(self.config_obj(tmp_path / "o", reps=0)))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "reps" in err

    def test_missing_config_io_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/nonexistent.json")
        assert code == 4

    def test_output_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.config_obj(tmp_path / "ignored")))
        override = tmp_path / "actual"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--output", str(override))
        assert code == 0
        assert (override / "records.csv").exists()
        assert not (tmp_path / "ignored").exists()


def test_tuple_sum_overflow_is_usage_error(tmp_path, capsys):
    # (1, 2) sums to inf - inf; the finite (1, 3) entry must not be reported.
    path = write_csv(tmp_path / "big.csv", [[1e200, 1e200, 1.0], [1e200, -1e200, 1.0]])
    code, out, err = run_cli(capsys, "test", "--input", path, "--m", "2")
    assert code == 2
    assert out == ""
    assert "tuple sums overflow float64" in err


def test_simulate_config_missing_reps_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": [{"n": 10, "p": 6, "m": 2,
                                         "spec": {"family": "standard_normal"}}],
                               "master_seed": 7}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "reps" in err


@pytest.mark.parametrize("argv", [
    ("diagnose", "--what", "mdr", "--x", "1", "--n", "10", "--m", "2", "--reps", "100"),
    ("diagnose", "--what", "lambda", "--n", "10", "--p", "5", "--m", "2", "--reps", "100"),
    ("test", "--input", X_M2, "--m", "2"),
])
def test_diagnose_zero_workers_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--workers", "0")
    assert code == 2
    assert out == ""
    assert "workers" in err


DIAGNOSE_MDR = ("diagnose", "--what", "mdr", "--n", "10", "--m", "2", "--reps", "100")
DIAGNOSE_LAMBDA = ("diagnose", "--what", "lambda", "--n", "10", "--p", "5", "--m", "2", "--reps", "100")
DIAGNOSE_PAIRTAIL = ("diagnose", "--what", "pairtail", "--s", "1", "--n", "10", "--p", "5", "--m", "2",
                     "--reps", "100")


@pytest.mark.parametrize("argv", [
    (*DIAGNOSE_MDR, "--x", "nan"),
    (*DIAGNOSE_MDR, "--x", "inf"),
    (*DIAGNOSE_LAMBDA, "--z", "nan"),
    (*DIAGNOSE_LAMBDA, "--z", "inf"),
    (*DIAGNOSE_PAIRTAIL, "--a", "nan"),
    (*DIAGNOSE_PAIRTAIL, "--a", "inf"),
    ("quantile", "--m", "2", "--z", "nan"),
    # C(p, 2) * 4 * p overflows float64: Infinity, NaN (0 * inf), then OverflowError after the draws
    ("diagnose", "--what", "b1", "--p", str(10**150), "--m", "2", "--single-tail", "1"),
    ("diagnose", "--what", "lambda", "--n", "10", "--p", str(10**150), "--m", "2", "--reps", "100"),
    ("diagnose", "--what", "lambda", "--n", "10", "--p", str(10**160), "--m", "2", "--reps", "100"),
    ("diagnose", "--what", "b1", "--p", str(10**200), "--m", "2", "--single-tail", "1"),
    # past the float range: read as inf, where it used to switch the guard off
    ("test", "--input", X_M2, "--m", "2", "--cost-ceiling", str(10**400)),
])
def test_non_finite_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and "Traceback" not in err


def test_mdr_x_past_the_gaussian_tail_is_usage_error(capsys):
    # 1 - Phi(40) underflows to 0, so the ratio has no denominator
    code, out, err = run_cli(capsys, *DIAGNOSE_MDR, "--x", "40")
    assert code == 2
    assert out == ""
    assert "tensormax: error: x must be finite" in err


def test_simulate_config_with_a_fractional_integer_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": [{"n": 30.9, "p": 6, "m": 2,
                                         "spec": {"family": "standard_normal"}}],
                               "reps": 2, "master_seed": 7, "output_path": str(tmp_path / "out")}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "CellConfig.n" in err
    assert not (tmp_path / "out").exists()


def test_simulate_config_with_a_non_finite_z_grid_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # json writes and reads NaN and Infinity
    cfg.write_text(json.dumps({"grid": [{"n": 10, "p": 6, "m": 2,
                                         "spec": {"family": "standard_normal"}}],
                               "reps": 2, "master_seed": 7, "z_grid": [math.nan, math.inf],
                               "output_path": str(tmp_path / "out")}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and "z_grid" in err
    assert not (tmp_path / "out").exists()


CELL = {"n": 10, "p": 6, "m": 2, "spec": {"family": "standard_normal"}}


@pytest.mark.parametrize("config, field", [
    ({"grid": [{**CELL, "n": "30"}], "reps": 4, "master_seed": 7}, "CellConfig.n"),
    ({"grid": [CELL], "reps": "4", "master_seed": 7}, "ExperimentConfig.reps"),
    ({"grid": [CELL], "reps": 4, "master_seed": 7, "z_grid": ["0", "1e3"]}, "ExperimentConfig.z_grid"),
    ({"grid": [CELL], "reps": 4, "master_seed": 7, "z_grid": [True, 2]}, "ExperimentConfig.z_grid"),
    ({"grid": [{**CELL, "m": False}], "reps": 4, "master_seed": 7}, "CellConfig.m"),
])
def test_simulate_config_with_a_string_or_bool_number_is_usage_error(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "output_path": str(tmp_path / "out")}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, field", [
    ({"grid": [CELL], "reps": 4, "master_seed": 7, "output_path": 5}, "ExperimentConfig.output_path"),
    ({"grid": [{**CELL, "sided": True}], "reps": 4, "master_seed": 7}, "CellConfig.sided"),
])
def test_simulate_config_with_a_number_or_bool_string_is_usage_error(tmp_path, capsys, monkeypatch,
                                                                      config, field):
    # str(5) used to name the output directory ./5
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and field in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
