"""Command line surface: outputs, exit codes, idempotence."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tensormax import diagnostics, lab, statcore
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

    @pytest.mark.parametrize("argv, config", [
        (("--m", "25", "--q", "0.5"), {"m": 25, "q": 0.5, "sided": "two"}),
        (("--m", "1", "--z", "0"), {"m": 1, "sided": "two", "z": 0.0}),
    ], ids=["m25-q", "m1-z"])
    def test_bad_m_is_logged_before_it_is_refused(self, capsys, argv, config):
        # the line holds only the one of --q and --z that is set
        code, out, err = run_cli(capsys, "quantile", *argv)
        assert (code, out) == (2, "")
        assert strict_config(err) == config
        assert err.splitlines()[1].startswith("tensormax: error: m must be")

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

    def test_budget_error_names_the_flag_that_raises_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "test", "--input", X_M2, "--m", "2", "--cost-ceiling", "10")
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            "tensormax: budget error: enumeration needs an estimated 2,200 multiply-adds, above the "
            "cost_ceiling of 10; pass a larger --cost-ceiling to allow more, up to 9.2e18"
        )

    def test_budget_refused_at_once_for_a_wide_input(self, tmp_path, capsys):
        # the cost estimate used to take 41 s here before the refusal
        path = write_csv(tmp_path / "wide.csv", np.ones((1, 20000)))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "test", "--input", path, "--m", "10000")
        assert code == 3 and "more than 9.2e18" in err
        assert time.perf_counter() - start < 5.0

    def test_statistic_past_the_square_range_is_usage_error(self, tmp_path, capsys):
        # w_abs is about 1.1e200, so w**2 overflows: no JSON (it would
        # read "Infinity") and no RuntimeWarning, a usage error instead.
        X = np.random.default_rng(0).standard_normal((50, 5)) * 1e100
        path = write_csv(tmp_path / "huge.csv", X)
        code, out, err = run_cli(capsys, "test", "--input", path, "--m", "2")
        assert (code, out) == (2, "")
        assert "w must be below" in err

    def test_missing_file_io_error(self, capsys):
        code, _, err = run_cli(capsys, "test", "--input", "/nonexistent/x.csv", "--m", "2")
        assert code == 4

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--m", "2", "--workers", "0"), "workers"),
            ((), "--m"),
            (("/nonexistent/y.csv", "--m", "3"), "conflicts"),
            (("--m", "2", "--cost-ceiling", "-1"), "cost_ceiling"),
            (("--m", "1"), "m must be >= 2"),
            (("--m", "0"), "m must be >= 2"),
        ],
        ids=["zero-workers", "missing-m", "conflicting-m", "negative-cost-ceiling", "m-1", "m-0"],
    )
    def test_flags_are_checked_before_any_input_is_read(self, flags, message, capsys, monkeypatch):
        # A bad flag exits 2 at once, even beside an unreadable input.
        def refuse(path):
            raise AssertionError(f"{path} was read before the flags were checked")

        monkeypatch.setattr(statcore, "load_matrix_csv", refuse)
        code, _, err = run_cli(capsys, "test", "--input", "/nonexistent/x.csv", *flags)
        assert code == 2 and message in err

    def test_studentize_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((30, 5)) * 7.0 + 3.0
        path = write_csv(tmp_path / "s.csv", raw)
        code, out, _ = run_cli(capsys, "test", "--input", path, "--m", "2", "--studentize")
        assert code == 0
        assert 0.0 < json.loads(out)["p_value"] <= 1.0

    def test_studentize_one_row_is_usage_error(self, tmp_path, capsys):
        # a one-row sample variance would leak two RuntimeWarnings
        path = write_csv(tmp_path / "row.csv", np.arange(1.0, 6.0)[None])
        code, out, err = run_cli(capsys, "test", "--input", path, "--m", "2", "--studentize")
        assert (code, out) == (2, "")
        assert "at least 2 rows" in err

    def test_studentize_constant_column_is_usage_error(self, tmp_path, capsys):
        X = np.random.default_rng(0).standard_normal((10, 4))
        X[:, 2] = 1.5
        path = write_csv(tmp_path / "flat.csv", X)
        code, out, err = run_cli(capsys, "test", "--input", path, "--m", "2", "--studentize")
        assert (code, out) == (2, "")
        assert "some column has zero sample variance" in err

    def test_empty_csv_is_usage_error_naming_the_file(self, tmp_path, capsys):
        # not numpy's "input contained no data" UserWarning, nor "p must be >= 3"
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, err = run_cli(capsys, "test", "--input", str(path), "--m", "2")
        assert (code, out) == (2, "")
        assert f"{path} holds no values" in err

    @pytest.mark.parametrize("inputs", [("ragged.csv",), ("good.csv", "ragged.csv")], ids=["single", "multi"])
    def test_ragged_csv_names_the_file_and_the_row(self, inputs, tmp_path, capsys):
        # every message comes from the file's own lines; none names numpy's ``usecols``, which the CLI has no flag for
        (tmp_path / "good.csv").write_text("1,2,3\n4,5,6\n")
        (tmp_path / "ragged.csv").write_text("1,2,3\n4,5\n")
        paths = [str(tmp_path / name) for name in inputs]
        code, out, err = run_cli(capsys, "test", "--input", *paths, *(("--m", "2") if len(paths) == 1 else ()))
        assert (code, out) == (2, "")
        assert f"{tmp_path / 'ragged.csv'} line 2: the number of columns changed from 3 to 2\n" in err
        assert "good.csv" not in err.splitlines()[-1]
        assert "usecols" not in err

    @pytest.mark.parametrize("text, where", [
        # numpy names "row 1, column 2", counting rows from 0
        ("1,2,3\n4,x,6\n", "line 2 column 2: 'x' is not a finite float"),
        # numpy names "row 3", skipping the blank line in its count
        ("1,2,3\n\n4,5,6\n7,8\n", "line 4: the number of columns changed from 3 to 2"),
        # np.loadtxt reads nan and inf; the engine's check would name no file
        ("# a comment\n1,2,3\n4,nan,6\n", "line 3 column 2: 'nan' is not a finite float"),
        ("1,2,3\n4,5,-inf\n", "line 2 column 3: '-inf' is not a finite float"),
        # float() reads non-ASCII digits; numpy's parser does not
        ("1,2,3\n\uff14,5,6\n", "line 2 column 1: '\uff14' is not a finite float"),
        ("1,2,3\n\u0665,5,6\n", "line 2 column 1: '\u0665' is not a finite float"),
    ], ids=["bad-field", "after-a-blank-line", "nan", "inf", "fullwidth-digit", "arabic-indic-digit"])
    @pytest.mark.parametrize("inputs", [("bad.csv",), ("good.csv", "bad.csv")], ids=["single", "multi"])
    def test_bad_csv_names_the_file_and_its_own_line(self, text, where, inputs, tmp_path, capsys):
        (tmp_path / "good.csv").write_text("1,2,3\n4,5,6\n")
        (tmp_path / "bad.csv").write_text(text)
        paths = [str(tmp_path / name) for name in inputs]
        code, out, err = run_cli(capsys, "test", "--input", *paths, *(("--m", "2") if len(paths) == 1 else ()))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"tensormax: error: {tmp_path / 'bad.csv'} {where}"

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
        assert json.loads(out)["b1_bound"] == pytest.approx(7.65e-4, rel=1e-12)

    def test_b1_overflow_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "diagnose", "--what", "b1", "--p", "1000000", "--m", "500000",
                               "--single-tail", "0.01")
        assert code == 2 and "overflows" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n,words", [("10000000000000", "an estimated 20,000,000,000,000 drawn values, above "
                                                        "the budget of 10,000,000,000"),
                                         ("100000000000000000000", "an estimated more than 9.2e18 drawn values, "
                                                                   "which no budget allows")])
    def test_draws_above_the_budget_exit_3(self, capsys, n, words):
        # numpy's MemoryError traceback (exit 1) at n = 1e13, before the budget
        code, out, err = run_cli(capsys, "diagnose", "--what", "mdr", "--x", "1", "--n", n, "--m", "2",
                                 "--population", "centered_exponential", "--reps", "1")
        assert (code, out) == (3, "")
        assert err.splitlines()[1:] == [
            f"tensormax: budget error: Monte Carlo sampling needs {words}; "
            "pass fewer --reps or a smaller --n or --m, as no flag raises this limit"
        ]

    def test_an_n_past_int64_exits_2(self, capsys):
        # a Rademacher sum is one binomial draw, so the budget let this n through to numpy (exit 1, a traceback)
        code, out, err = run_cli(capsys, "diagnose", "--what", "mdr", "--population", "rademacher", "--m", "3",
                                 "--x", "1", "--reps", "1", "--n", str(2**64))
        assert (code, out) == (2, "")
        assert err.splitlines()[1:] == ["tensormax: error: n must be <= 9223372036854775807, got 18446744073709551616"]

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

    def test_output_that_is_a_file_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matrix was drawn before the output directory was made")

        monkeypatch.setattr(lab, "sample_stack", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.config_obj(tmp_path / "ignored")))
        target = tmp_path / "afile"
        target.write_text("a file, not a directory")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--output", str(target))
        assert (code, out) == (4, "")
        assert f"tensormax: io error: failed to persist report under {target}" in err
        assert target.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_bad_seed_fails_before_the_output_is_made(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.config_obj(tmp_path / "ignored"), "master_seed": seed}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--output", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert "master_seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_bad_workers_fail_before_the_output_is_made(self, tmp_path, capsys, workers):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.config_obj(tmp_path / "ignored")))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--output", str(out_dir),
                                 "--workers", workers)
        assert (code, out) == (2, "")
        assert "workers must be >= 1" in err
        assert not out_dir.exists()

    def test_budget_error_says_what_the_config_can_change(self, tmp_path, capsys):
        # no flag raises simulate's limit; the library's name for it, budget, is no flag either
        cfg = tmp_path / "big.json"
        config = self.config_obj(tmp_path / "out", reps=10)
        config["grid"] = [{"n": 1000, "p": 200, "m": 4, "spec": {"family": "standard_normal"}}]
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            "tensormax: budget error: enumeration needs an estimated 660,184,500,000 multiply-adds, above the "
            "budget of 10,000,000,000; run fewer reps or a smaller grid, as no flag raises this limit"
        )
        assert not (tmp_path / "out").exists()

    def test_value_the_codec_refuses_names_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.config_obj(tmp_path / "out", reps=2.5)))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"tensormax: error: config {cfg}: ExperimentConfig.reps must be an integer, got 2.5"
        assert not (tmp_path / "out").exists()

    def test_integer_past_the_float_range_names_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.config_obj(tmp_path / "out"), "z_grid": [0, 10**400]}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (f"tensormax: error: config {cfg}: ExperimentConfig.z_grid must be a number "
                                        "in the float range, got about 10**400.0")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
    # b1 is closed form, and still refuses what every other mode refuses
    ("diagnose", "--what", "b1", "--p", "10", "--m", "2", "--single-tail", "0.1"),
])
def test_diagnose_zero_workers_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--workers", "0")
    assert code == 2
    assert out == ""
    assert "workers" in err


def test_diagnose_b1_zero_reps_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "diagnose", "--what", "b1", "--p", "10", "--m", "2",
                             "--single-tail", "0.1", "--reps", "0")
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and "reps" in err


def test_huge_student_t_df_is_usage_error(capsys):
    # past the float range, df / (df - 2.0) raises OverflowError in every draw
    code, out, err = run_cli(capsys, "diagnose", "--what", "mdr", "--n", "10", "--m", "2", "--x", "1",
                             "--reps", "100", "--population", "student_t_standardized", "--df", str(10**400))
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and "df" in err and "Traceback" not in err


def test_simulate_config_with_a_huge_student_t_df_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": [{"n": 10, "p": 6, "m": 2,
                                         "spec": {"family": "student_t_standardized", "df": 10**400}}],
                               "reps": 2, "master_seed": 7, "output_path": str(tmp_path / "out")}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and "df" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    # 1 - Phi(38.4) is subnormal, so one t(3) hit would make the ratio Infinity
    ("diagnose", "--what", "mdr", "--x", "38.4", "--n", "1", "--m", "2", "--reps", "100000",
     "--population", "student_t_standardized", "--df", "3"),
    # a_n**2 overflows in the analytic decay, which is reported after the draws
    (*DIAGNOSE_PAIRTAIL, "--a", "1e300"),
])
def test_non_finite_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and "Traceback" not in err
    strict_config(err)


@pytest.mark.parametrize("argv,population,seed", [
    (("diagnose", "--what", "b1", "--p", "10", "--m", "2", "--single-tail", "0.1", "--seed", "-1"),
     {"family": "standard_normal"}, {"master_seed": -1, "stream_id": 0}),
    ((*DIAGNOSE_MDR, "--x", "1", "--population", "student_t_standardized", "--df", "2"),
     {"family": "student_t_standardized", "df": 2}, {"master_seed": 12345, "stream_id": 0}),
    # --p is missing
    (("diagnose", "--what", "lambda", "--n", "10", "--m", "2", "--population", "rademacher"),
     {"family": "rademacher"}, {"master_seed": 12345, "stream_id": 0}),
], ids=["seed-1", "df2", "missing-p"])
def test_diagnose_logs_the_raw_flags_before_any_check(capsys, argv, population, seed):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("tensormax: error:") == 1
    config = strict_config(err)
    assert (config["population"], config["seed"]) == (population, seed)


def strict_config(err):
    """The logged config, read by a JSON parser that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"config line holds {name}")

    line = err.splitlines()[0]
    assert " config: " in line
    return json.loads(line.split(" config: ", 1)[1], parse_constant=refuse)


def test_infinite_z_is_logged_as_a_string(capsys):
    code, out, err = run_cli(capsys, "quantile", "--m", "2", "--z", "inf")
    assert code == 0
    assert out.strip() == "1"
    assert strict_config(err)["z"] == "inf"


def test_report_holding_infinity_prints_no_json(capsys, monkeypatch):
    monkeypatch.setattr(diagnostics, "b1_bound", lambda *args: math.inf)
    code, out, _ = run_cli(capsys, "diagnose", "--what", "b1", "--p", "10", "--m", "2", "--single-tail", "1")
    assert (code, out) == (2, "")


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


@pytest.mark.parametrize("config, field", [
    ({"grid": 5, "reps": 4, "master_seed": 7}, "ExperimentConfig.grid"),
    ({"grid": [{**CELL, "spec": "standard_normal"}], "reps": 4, "master_seed": 7}, "CellConfig.spec"),
])
def test_simulate_config_with_a_scalar_for_a_list_or_object_names_the_field(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "output_path": str(tmp_path / "out")}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("tensormax: error:") == 1 and f"{field} must be a JSON" in err
    assert not (tmp_path / "out").exists()
