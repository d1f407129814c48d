"""Independence test: p-value construction, decisions, degenerate cases."""

import math

import numpy as np
import pytest

from tensormax import LEVELS, ONE_SIDED, PopulationSpec, SeedSpec, hypotest, sample_matrix
from tensormax.populations import STANDARD_NORMAL, ULTRA_HIGH

NORMAL = PopulationSpec(STANDARD_NORMAL)


class TestTwoSided:
    def test_zero_statistic_gives_p_near_one(self):
        res = hypotest.test_independence(np.zeros((10, 20)), 2)
        assert res.stat.w_abs == 0.0
        assert res.t_value == pytest.approx(-4.0 * math.log(20) + math.log(math.log(20)))
        assert res.p_value > 0.999
        assert all(not rej for rej in res.decisions.values())

    def test_planted_dependence_rejects_hard(self):
        X = sample_matrix(NORMAL, 500, 100, SeedSpec(42, 0))
        X[:, 0] = X[:, 1]
        res = hypotest.test_independence(X, 2)
        # the duplicated pair alone contributes |sum x^2|/sqrt(n) ~ sqrt(n)
        assert res.stat.w_abs >= 0.8 * math.sqrt(500)
        assert res.p_value < 1e-6
        assert all(res.decisions.values())

    def test_p_value_decreasing_in_statistic(self):
        # same (n, p, m); statistic forced by a planted pair of scale s
        pvals = []
        for s in (1.0, 2.0, 3.0):
            X = np.zeros((4, 5))
            X[:, 0] = s
            X[:, 1] = s
            pvals.append(hypotest.test_independence(X, 2).p_value)
        assert pvals[0] > pvals[1] > pvals[2]

    def test_decisions_match_levels(self):
        X = sample_matrix(NORMAL, 200, 20, SeedSpec(7, 3))
        res = hypotest.test_independence(X, 2)
        assert 0.0 < res.p_value < 1.0
        for lvl in LEVELS:
            assert res.decisions[lvl] == (res.p_value < lvl)

    def test_regime_report_attached(self):
        res = hypotest.test_independence(sample_matrix(NORMAL, 500, 100, SeedSpec(1, 1)), 2)
        assert res.regime is not None
        assert res.regime.regime == ULTRA_HIGH

    def test_json_shape(self):
        res = hypotest.test_independence(np.zeros((5, 4)), 2)
        obj = res.to_json()
        assert set(obj) == {
            "stat", "t_value", "p_value", "decisions", "regime", "sided", "signed_nonpositive",
        }
        assert obj["decisions"].keys() == {"0.01", "0.05", "0.10"}


class TestOneSided:
    def test_signed_nonpositive_flagged(self):
        # centered identity: simplex-like columns with every pairwise
        # product sum equal to -1/9, so the signed maximum is negative
        X = np.eye(9) - 1.0 / 9.0
        res = hypotest.test_independence(X, 2, sided=ONE_SIDED)
        assert res.stat.w_signed < 0.0
        assert res.signed_nonpositive
        assert res.p_value > 0.9

    def test_one_sided_p_smaller_than_two_sided_at_same_w(self):
        # with w_signed == w_abs, the halved rate constant makes the
        # one-sided tail smaller at the same statistic value
        X = sample_matrix(NORMAL, 300, 30, SeedSpec(3, 9))
        X[:, 0] = X[:, 1]
        two = hypotest.test_independence(X, 2)
        one = hypotest.test_independence(X, 2, sided=ONE_SIDED)
        assert one.stat.w_signed == two.stat.w_abs
        assert one.p_value < two.p_value

    def test_invalid_sided(self):
        with pytest.raises(ValueError, match="sided"):
            hypotest.test_independence(np.zeros((3, 4)), 2, sided="both")


class TestMulti:
    def test_identical_matrices_reduce(self):
        X = sample_matrix(NORMAL, 50, 10, SeedSpec(5, 5))
        multi = hypotest.test_independence_multi([X, X])
        single = hypotest.test_independence(X, 2)
        assert multi.stat == single.stat
        assert multi.p_value == single.p_value

    def test_cross_population_duplicated_column_rejects(self):
        # planting X2[:, j] = X1[:, i] with i < j puts the squared-norm
        # signal on the off-diagonal entry (i, j); aligned duplication
        # (X2 = X1) only inflates the excluded diagonal and stays null
        X1 = sample_matrix(NORMAL, 500, 100, SeedSpec(6, 6))
        X2 = sample_matrix(NORMAL, 500, 100, SeedSpec(6, 7))
        X2[:, 50] = X1[:, 2]
        res = hypotest.test_independence_multi([X1, X2])
        assert res.stat.argmax_abs == (3, 51)
        assert res.p_value < 1e-6

    def test_aligned_duplication_stays_on_diagonal(self):
        # the generalized diagonal is excluded by construction, so a
        # fully aligned duplicate population is indistinguishable from
        # the single-sample null statistic
        X = sample_matrix(NORMAL, 200, 30, SeedSpec(6, 8))
        multi = hypotest.test_independence_multi([X, X.copy()])
        single = hypotest.test_independence(X, 2)
        assert multi.stat.w_abs == single.stat.w_abs

    def test_independent_populations_accept_typically(self):
        X1 = sample_matrix(NORMAL, 300, 30, SeedSpec(8, 0))
        X2 = sample_matrix(NORMAL, 300, 30, SeedSpec(8, 1))
        res = hypotest.test_independence_multi([X1, X2])
        assert res.p_value > 0.01


class TestValidateBeforeWork:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("statcore was called before validation")

        monkeypatch.setattr(hypotest.statcore, "max_entry", refuse)
        monkeypatch.setattr(hypotest.statcore, "max_entry_multi", refuse)

    def test_bad_sided_beats_budget(self):
        X = np.ones((2, 60))
        with pytest.raises(ValueError, match="sided"):
            hypotest.test_independence(X, 30, sided="bogus")
        with pytest.raises(ValueError, match="sided"):
            hypotest.test_independence_multi([X, X], sided="bogus", cost_ceiling=1)

    def test_narrow_matrix_rejected_first(self, no_enumeration):
        with pytest.raises(ValueError, match="p must be >= 3"):
            hypotest.test_independence(np.ones((5, 2)), 2)
        with pytest.raises(ValueError, match="p must be >= 3"):
            hypotest.test_independence_multi([np.ones((5, 2))] * 2)

    def test_order_above_factorial_guard_rejected_first(self, no_enumeration):
        # within budget (4.2e6 multiply-adds), so only the order check stops it
        with pytest.raises(ValueError, match="m must be <= 20"):
            hypotest.test_independence(np.ones((1, 22)), 21)
