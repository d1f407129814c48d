"""Closed-form limit law: constants, CDF/quantile, normalization, thresholds.

Frozen expected values were computed independently with 40-digit
arithmetic (mpmath) from the defining formulas and are asserted at
tolerances far below double-precision noise.
"""

import math

import numpy as np
import pytest

from tensormax import (
    GumbelLimit,
    ONE_SIDED,
    TWO_SIDED,
    lambda_limit,
    log_rate_constant,
    normalize,
    nu_p,
    ratio_target,
)
from tensormax.asymptotics import check_real

# mpmath, 40 digits: exp(-1/(2*sqrt(2*pi)))
CDF0_M2_TWO = 0.8191638613764112
# mpmath: exp(-1/(6*sqrt(3*pi)))
CDF0_M3_TWO = 0.9471581790720758
# mpmath: -2*log(-log(0.95) * 2*sqrt(2*pi))
Q95_M2_TWO = 2.716219070555093
# mpmath: -2*log(-log(0.95) * 4*sqrt(2*pi))
Q95_M2_ONE = 1.3299247094352024


class TestRateConstant:
    def test_m2_two_sided_matches_sqrt_8pi(self):
        assert abs(GumbelLimit(2).c - 1.0 / math.sqrt(8.0 * math.pi)) <= 1e-15

    def test_two_over_one_ratio_exactly_2(self):
        for m in range(2, 21):
            assert GumbelLimit(m, TWO_SIDED).c / GumbelLimit(m, ONE_SIDED).c == 2.0

    def test_log_rate_constant_matches_direct_product(self):
        for m in range(2, 11):
            direct = math.log(math.factorial(m) * math.sqrt(m * math.pi))
            assert log_rate_constant(m) == pytest.approx(direct, abs=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            GumbelLimit(1)
        with pytest.raises(ValueError):
            GumbelLimit(21)
        with pytest.raises(ValueError):
            GumbelLimit(2, "sideways")


class TestCdf:
    def test_frozen_values_at_zero(self):
        assert GumbelLimit(2).cdf(0.0) == pytest.approx(CDF0_M2_TWO, abs=1e-12)
        assert GumbelLimit(3).cdf(0.0) == pytest.approx(CDF0_M3_TWO, abs=1e-12)

    def test_limits(self):
        lim = GumbelLimit(2)
        assert lim.cdf(1e6) == 1.0
        assert lim.cdf(math.inf) == 1.0
        assert lim.cdf(-2000.0) == 0.0
        assert lim.sf(-2000.0) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="z"):
            GumbelLimit(2).cdf(math.nan)

    def test_strictly_increasing_where_representable(self):
        # Mathematically the CDF is strictly increasing on all of R; in
        # float64 it saturates at 0 and 1 outside roughly [-12, 30], so
        # strictness is asserted on the representable core.
        for m in (2, 4):
            for sided in (TWO_SIDED, ONE_SIDED):
                lim = GumbelLimit(m, sided)
                zs = np.linspace(-10, 25, 500)
                vals = np.array([lim.cdf(z) for z in zs])
                assert np.all(np.diff(vals) > 0)
                assert vals[0] > 0.0 and vals[-1] < 1.0

    def test_sf_complements_cdf(self):
        lim = GumbelLimit(3)
        for z in np.linspace(-6, 12, 50):
            assert lim.sf(z) + lim.cdf(z) == pytest.approx(1.0, abs=1e-14)

    def test_sf_accurate_in_far_tail(self):
        lim = GumbelLimit(2)
        # sf(z) ~ c * exp(-z/2) once the exponent is tiny
        z = 200.0
        assert lim.sf(z) == pytest.approx(lim.c * math.exp(-0.5 * z), rel=1e-10)


class TestQuantile:
    def test_frozen_values(self):
        assert GumbelLimit(2).quantile(0.95) == pytest.approx(Q95_M2_TWO, abs=1e-12)
        assert GumbelLimit(2, ONE_SIDED).quantile(0.95) == pytest.approx(Q95_M2_ONE, abs=1e-12)

    def test_round_trip_both_ways(self):
        for m in (2, 3, 6):
            for sided in (TWO_SIDED, ONE_SIDED):
                lim = GumbelLimit(m, sided)
                for z in np.linspace(-5, 10, 101):
                    assert abs(lim.quantile(lim.cdf(z)) - z) <= 1e-10
                for q in (0.001, 0.1, 0.5, 0.9, 0.999):
                    assert lim.cdf(lim.quantile(q)) == pytest.approx(q, abs=1e-12)

    def test_domain(self):
        lim = GumbelLimit(2)
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                lim.quantile(q)


class TestNormalize:
    def test_worked_values(self):
        assert normalize(3.0, 100, 2) == pytest.approx(-7.893502, abs=1e-6)
        assert normalize(0.0, 16, 2) == pytest.approx(-10.070574, abs=1e-6)

    def test_algebraic_zero(self):
        for m, p in ((2, 50), (3, 1000), (5, 17)):
            lp = math.log(p)
            w = math.sqrt(2 * m * lp - math.log(lp))
            assert abs(normalize(w, p, m)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            normalize(1.0, 2, 2)
        with pytest.raises(ValueError):
            normalize(-0.5, 10, 2)
        with pytest.raises(ValueError):
            normalize(1.0, 10, 1)

    def test_array_matches_the_scalar_formula_bit_for_bit(self):
        rng = np.random.default_rng(21)
        w = np.concatenate(([0.0, 1.0, 3.5], np.abs(rng.standard_normal(500)) * 5.0))
        for p, m in ((3, 2), (20, 2), (40, 3), (10**6, 4)):
            lp = math.log(p)
            expected = [x * x - 2.0 * m * lp + math.log(lp) for x in w.tolist()]
            assert normalize(w, p, m).tolist() == expected
            assert [normalize(x, p, m) for x in w.tolist()] == expected
            assert type(normalize(2.0, p, m)) is float

    def test_array_validation(self):
        for w in (np.array([1.0, -0.5]), np.array([np.nan]), np.array([1.0, np.inf])):
            with pytest.raises(ValueError, match="w"):
                normalize(w, 10, 2)
        with pytest.raises(ValueError, match="p"):
            normalize(np.ones(3), 2, 2)
        with pytest.raises(ValueError, match="m"):
            normalize(np.ones(3), 10, 1)


class TestNuP:
    def test_worked_value(self):
        # mpmath: sqrt(log 100 - (log log 100 + 2 log(2 sqrt(2 pi)))/4)
        assert nu_p(0.0, 100, 2) == pytest.approx(1.8486028298836414, abs=1e-12)

    def test_bracket_cancellation(self):
        for m, p in ((2, 100), (3, 10**6), (4, 50)):
            z = math.log(math.log(p)) + 2.0 * log_rate_constant(m)
            assert nu_p(z, p, m) == pytest.approx(math.sqrt(math.log(p)), abs=1e-12)

    def test_duality_with_offset(self):
        # Squaring the threshold and centering recovers z shifted by the
        # constant 2*log(m! sqrt(m pi)); this is the exact algebraic
        # identity linking nu_p to the normalization.
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = float(rng.uniform(-4, 4))
            p = int(rng.integers(10, 10**6))
            m = int(rng.integers(2, 7))
            w = math.sqrt(2.0 * m) * nu_p(z, p, m)
            t = normalize(w, p, m)
            assert abs(t - (z - 2.0 * log_rate_constant(m))) <= 1e-12

    def test_threshold_exceedance_probability_is_poisson_limit(self):
        # P(T <= t) at the nu_p threshold tends to exp(-exp(-z/2)):
        # F(t) with t = z - 2*log(m! sqrt(m pi)) equals exactly that.
        lim = GumbelLimit(3)
        for z in (-2.0, 0.0, 1.5):
            t = z - 2.0 * log_rate_constant(3)
            assert lim.cdf(t) == pytest.approx(math.exp(-math.exp(-0.5 * z)), abs=1e-14)

    def test_radicand_domain_error(self):
        with pytest.raises(ValueError, match="radicand"):
            nu_p(-50.0, 3, 2)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            nu_p(z, 100, 2)


class TestLambdaLimit:
    def test_values(self):
        assert lambda_limit(0.0) == 1.0
        assert lambda_limit(2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_bitwise_consistency_with_cdf(self):
        rng = np.random.default_rng(11)
        for m in (2, 5):
            lim = GumbelLimit(m)
            for z in rng.uniform(-10, 20, 100):
                assert math.exp(-lim.c * lambda_limit(z)) == lim.cdf(z)


class TestRatioTarget:
    def test_values(self):
        assert ratio_target(2) == 2.0
        assert ratio_target(3) == pytest.approx(2.4494897, abs=1e-7)
        assert ratio_target(8) == 4.0


class TestCheckReal:
    def test_python_and_numpy_reals_read_as_float(self):
        for value in (2, np.int64(2), np.float32(2.0), np.float64(2.0), 2.0):
            x = check_real("v", value)
            assert type(x) is float and x == 2.0

    def test_ends_as_written(self):
        assert check_real("q", 0.0, 0.0, 1.0) == 0.0
        assert check_real("alpha", 1.0, 0.0, 1.0, ends="(]") == 1.0
        with pytest.raises(ValueError, match=r"q must lie in \(0, 1\), got 1.0"):
            check_real("q", 1.0, 0.0, 1.0, ends="()")
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\], got 0.0"):
            check_real("alpha", 0.0, 0.0, 1.0, ends="(]")

    def test_infinities_only_when_not_finite(self):
        assert check_real("z", -math.inf, finite=False) == -math.inf
        with pytest.raises(ValueError, match="z must be finite, got inf"):
            check_real("z", math.inf)
        with pytest.raises(ValueError, match="z must not be NaN"):
            check_real("z", math.nan, finite=False)

    def test_an_int_past_the_float_range_is_infinite(self):
        assert check_real("z", 10**400, finite=False) == math.inf
        assert GumbelLimit(2).sf(10**400) == 0.0
        with pytest.raises(ValueError, match="z must be finite"):
            check_real("z", -(10**400))
