"""Monte Carlo diagnostics: tails, Poisson intensity, pair tails, ratios.

Statistical assertions use explicit independent oracles: the central
limit theorem with the erfc-based Gaussian tail for product sums, a
second independent simulation for the joint pair tail, and closed-form
arithmetic for the exact pieces.  Tolerances are 3 binomial standard
errors unless the quantity is deterministic.

The block kernels draw only what each family's product sums depend on.
The float sums must equal the plain draw-and-multiply path bit for bit
on the same sub-stream.  The Rademacher sums, one binomial draw each,
are held to their exact law: integers of n's parity, and counts within
4 standard errors of the binomial tail summed exactly.  The Gaussian
sums must match the plain path's law (two-sample KS, and plain
re-simulations of the joint pair tail).
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from tensormax import (
    PairTailSpec,
    PopulationSpec,
    SeedSpec,
    TailEstimate,
    b1_bound,
    estimate_lambda,
    estimate_pair_tail,
    estimate_single_tail,
    lambda_limit,
    moderate_deviation_ratio,
    normal_upper_tail,
    stein_chen_report,
)
from tensormax import diagnostics
from tensormax.asymptotics import ONE_SIDED, TWO_SIDED
from tensormax.populations import (
    RADEMACHER,
    STANDARD_NORMAL,
    STUDENT_T_STANDARDIZED,
    draw,
    make_generator,
)

NORMAL = PopulationSpec(STANDARD_NORMAL)
SEED = SeedSpec(2025, 0)
KERNEL_SEEDS = (SeedSpec(2025, 0), SeedSpec(7, 3), SeedSpec(2**64 - 1, 11))


def plain_product(spec, rng, shape, k):
    """Oracle: k factors drawn with ``draw`` and multiplied in float64."""
    out = draw(spec, rng, shape)
    for _ in range(k - 1):
        out *= draw(spec, rng, shape)
    return out


def plain_sums(spec, n, m, seed, index, count):
    """Oracle: one block's product sums drawn and multiplied in full."""
    rng = make_generator(seed, extra=(index,))
    return plain_product(spec, rng, (count, n), m).sum(axis=1)


def plain_pair_sums(spec, n, s, m, seed, index, count):
    """Oracle: one block's pair sums over shared xi and fresh eta, zeta."""
    rng = make_generator(seed, extra=(index,))
    xi = plain_product(spec, rng, (count, n), s)
    eta = plain_product(spec, rng, (count, n), m - s)
    zeta = plain_product(spec, rng, (count, n), m - s)
    return (xi * eta).sum(axis=1), (xi * zeta).sum(axis=1)


def rademacher_tail(n, hit):
    """Exact P(hit(S)) for S = n - 2 Bin(n, 1/2), the law of every Rademacher product sum.

    C(n, b + 1) comes from C(n, b) by one multiply and one exact division,
    and ``hit`` compares in floating point the way the kernels compare.
    """
    total, c = 0, 1
    for b in range(n + 1):
        if hit(n - 2 * b):
            total += c
        c = c * (n - b) // (b + 1)
    return total / 2**n


def assert_rademacher_sums(sums, n):
    """Every sum is an integer of n's parity with |S| <= n."""
    assert np.array_equal(sums, np.round(sums))
    assert np.all((sums - n) % 2 == 0) and np.all(np.abs(sums) <= n)


def assert_within_4_se(hits, count, q):
    assert abs(hits / count - q) <= 4.0 * math.sqrt(q * (1.0 - q) / count)


class TestBlockKernelsBitIdentical:
    """Float sums equal the plain path's bit for bit; Rademacher sums follow the exact binomial law."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_rademacher_tail_kernel(self, m, seed):
        spec, n, count = PopulationSpec(RADEMACHER), 37, 3000
        (sums,) = diagnostics._product_sums(spec, make_generator(seed, extra=(4,)), (count, n), 0, m, 1)
        assert_rademacher_sums(sums, n)
        root_n = math.sqrt(n)
        scaled = sums / root_n
        for t in (0.0, 0.5, 1.0, 1.5, 2.3):
            two = diagnostics._tail_kernel(make_generator(seed, extra=(4,)), count, spec, n, m, TWO_SIDED, t)
            one = diagnostics._tail_kernel(make_generator(seed, extra=(4,)), count, spec, n, m, ONE_SIDED, t)
            assert two == np.count_nonzero(np.abs(scaled) > t)
            assert one == np.count_nonzero(scaled >= t)
            assert_within_4_se(two, count, rademacher_tail(n, lambda x: abs(x / root_n) > t))
            assert_within_4_se(one, count, rademacher_tail(n, lambda x: x / root_n >= t))

    @pytest.mark.parametrize("m,s", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_rademacher_pair_kernel(self, m, s, seed):
        # given the shared product xi the two sums are independent, so the
        # joint tail is q**2 and each margin is q
        spec, n, count = PopulationSpec(RADEMACHER), 29, 3000
        s1, s2 = diagnostics._product_sums(spec, make_generator(seed, extra=(2,)), (count, n), s, m - s, 2)
        assert_rademacher_sums(s1, n)
        assert_rademacher_sums(s2, n)
        for a in (0.2, 0.6, 1.0):
            thr = a * math.sqrt(n * math.log(10))
            hits = diagnostics._pair_kernel(make_generator(seed, extra=(2,)), count, spec, n, s, m, thr)
            assert hits == np.count_nonzero((np.abs(s1) >= thr) & (np.abs(s2) >= thr))
            q = rademacher_tail(n, lambda x: abs(x) >= thr)
            assert_within_4_se(hits, count, q * q)
            for margin in (s1, s2):
                assert_within_4_se(np.count_nonzero(np.abs(margin) >= thr), count, q)

    @pytest.mark.parametrize("m,s", [(2, 1), (3, 1), (3, 2)])
    def test_float_path_unchanged(self, m, s):
        spec, n, count = PopulationSpec(STUDENT_T_STANDARDIZED, df=5), 23, 500
        (sums,) = diagnostics._product_sums(spec, make_generator(SEED, extra=(1,)), (count, n), 0, m, 1)
        assert np.array_equal(sums, plain_sums(spec, n, m, SEED, 1, count))
        pair = diagnostics._product_sums(spec, make_generator(SEED, extra=(1,)), (count, n), s, m - s, 2)
        for got, want in zip(pair, plain_pair_sums(spec, n, s, m, SEED, 1, count)):
            assert np.array_equal(got, want)


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(rng, *args)`` runs."""
    rng = make_generator(SEED, extra=(0,))
    tracemalloc.start()
    try:
        fn(rng, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_blocks_release_each_factor():
    # A block holds the running product and the factor being drawn, plus
    # xi in a pair block; a factor already multiplied in is released.
    spec, n, count = PopulationSpec(STUDENT_T_STANDARDIZED, df=8), 100, 2000
    array = count * n * 8
    tail = traced_peak(diagnostics._tail_kernel, count, spec, n, 4, TWO_SIDED, 1.0)
    assert tail < 2.5 * array
    pair = traced_peak(diagnostics._pair_kernel, count, spec, n, 1, 4, 1.0)
    assert pair < 3.5 * array


class TestManyBlocks:
    """With small blocks each estimate is the sum of its kernel over sub-streams (seed, i)."""

    BLOCK = 1000

    @staticmethod
    def kernel_sum(kernel, params, sizes, seed):
        return sum(kernel(make_generator(seed, extra=(i,)), c, *params) for i, c in enumerate(sizes))

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_BLOCK_SCALARS", self.BLOCK)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_tail(self, workers):
        n, m, reps, t = 10, 3, 200, 1.2
        sizes = [33] * 6 + [2]  # 1000 // (n * m) = 33 replicates per block
        est = estimate_single_tail(NORMAL, n, m, t, reps, SEED, workers=workers)
        want = self.kernel_sum(diagnostics._tail_kernel, (NORMAL, n, m, TWO_SIDED, t), sizes, SEED)
        assert est.hits == want and est.reps == reps and 0 < want < reps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_moderate_deviation_ratio(self, workers):
        spec, n, m, reps, x = PopulationSpec(RADEMACHER), 25, 2, 310, 0.5
        sizes = [20] * 15 + [10]  # 1000 // (n * m) = 20
        rep = moderate_deviation_ratio(spec, m, n, x, reps, SEED, workers=workers)
        want = self.kernel_sum(diagnostics._tail_kernel, (spec, n, m, ONE_SIDED, x), sizes, SEED)
        assert rep.hits == want and rep.reps == reps and 0 < want < reps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_tail(self, workers):
        spec = PopulationSpec(STUDENT_T_STANDARDIZED, df=5)
        pspec = PairTailSpec(s=1, a_n=0.2, n=12, p=10, m=3, spec=spec)
        reps = 150
        sizes = [16] * 9 + [6]  # 1000 // (n * (2m - s)) = 1000 // 60 = 16
        est = estimate_pair_tail(pspec, reps, SEED, workers=workers)
        thr = 0.2 * math.sqrt(12 * math.log(10))
        want = self.kernel_sum(diagnostics._pair_kernel, (spec, 12, 1, 3, thr), sizes, SEED)
        assert est.hits == want and est.reps == reps and 0 < want < reps


class TestGaussianReduction:
    """Gaussian sums are drawn as sqrt(V) * Z; their law must be the plain one."""

    @pytest.mark.parametrize(
        "shared,fresh,copies",
        [(0, 2, 1), (0, 3, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2)],
        ids=["m2", "m3", "pair-m2-s1", "pair-m3-s1", "pair-m3-s2"],
    )
    def test_ks_against_plain_sums(self, shared, fresh, copies):
        # m = 2 draws V as one chi2_n value, m = 3 as a sum of squared
        # products of drawn factors.  n = 5 keeps the m-fold products far
        # from Gaussian, so a sum with a factor too few or too many fails.
        n, count = 5, 20_000
        reduced = diagnostics._product_sums(NORMAL, make_generator(SEED), (count, n), shared, fresh, copies)
        rng = np.random.default_rng(424242)
        xi = np.prod([rng.standard_normal((count, n)) for _ in range(shared)], axis=0)
        for sums in reduced:
            eta = np.prod([rng.standard_normal((count, n)) for _ in range(fresh)], axis=0)
            plain = (xi * eta).sum(axis=1)
            assert scipy.stats.ks_2samp(sums, plain).pvalue > 0.01

    def test_pair_s1_m2_is_one_chi2_and_two_normals(self):
        # both sums integrate out their own last factor and share
        # V = sum xi**2 ~ chi2_n: three scalars per replicate, none of n
        n, count = 500, 1000
        s1, s2 = diagnostics._product_sums(NORMAL, make_generator(SEED), (count, n), 1, 1, 2)
        rng = make_generator(SEED)
        root_v = np.sqrt(rng.chisquare(n, count))
        assert np.array_equal(s1, root_v * rng.standard_normal(count))
        assert np.array_equal(s2, root_v * rng.standard_normal(count))

    @pytest.mark.parametrize("s", [1, 2])
    def test_pair_tail_m3_agrees_with_plain_resimulation(self, s):
        # n = 20 keeps the dependence through the shared factors visible:
        # P(joint) sits about 0.004 (s = 1) and 0.012 (s = 2) above
        # P(single)**2, and 3 combined SE come to about 0.003
        pspec = PairTailSpec(s=s, a_n=0.8, n=20, p=20, m=3, spec=NORMAL)
        reps = 10**5
        est = estimate_pair_tail(pspec, reps, SEED)
        rng = np.random.default_rng(20260 + s)
        thr = 0.8 * math.sqrt(20 * math.log(20))
        hits = 0
        for _ in range(10):
            shape = (reps // 10, 20)
            xi = np.prod([rng.standard_normal(shape) for _ in range(s)], axis=0)
            eta = np.prod([rng.standard_normal(shape) for _ in range(3 - s)], axis=0)
            zeta = np.prod([rng.standard_normal(shape) for _ in range(3 - s)], axis=0)
            s1 = np.abs((xi * eta).sum(axis=1))
            s2 = np.abs((xi * zeta).sum(axis=1))
            hits += int(np.count_nonzero((s1 >= thr) & (s2 >= thr)))
        oracle = hits / reps
        se_o = math.sqrt(oracle * (1 - oracle) / reps)
        assert abs(est.probability - oracle) <= 3.0 * (est.std_error + se_o)


class TestTailEstimateArithmetic:
    def test_probability_and_se_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            reps = int(rng.integers(1, 10**6))
            hits = int(rng.integers(0, reps + 1))
            est = TailEstimate.from_counts(hits, reps)
            assert est.probability == hits / reps
            assert est.std_error == math.sqrt(est.probability * (1 - est.probability) / reps)

    def test_zero_hits_honest(self):
        est = TailEstimate.from_counts(0, 1000)
        assert est.probability == 0.0 and est.std_error == 0.0


class TestNormalUpperTail:
    def test_against_scipy(self):
        for x in np.linspace(0.0, 8.0, 33):
            assert normal_upper_tail(x) == pytest.approx(scipy.stats.norm.sf(x), rel=1e-13)


class TestSingleTail:
    def test_zero_threshold_forced_to_one(self):
        est = estimate_single_tail(NORMAL, 10, 2, 0.0, 500, SEED)
        assert est.probability == 1.0 and est.hits == est.reps == 500

    def test_clt_oracle_m2(self):
        # products of two standard normals have mean 0 variance 1, so at
        # n = 500 the scaled sum is near-Gaussian at a bulk threshold
        reps = 10**5
        est = estimate_single_tail(NORMAL, 500, 2, 1.96, reps, SEED)
        target = 2.0 * normal_upper_tail(1.96)
        assert abs(est.probability - target) <= 3.0 * est.std_error + 3e-4

    def test_unreachable_threshold_gives_zero(self):
        est = estimate_single_tail(NORMAL, 500, 2, 10.0, 10**4, SEED)
        assert est.hits == 0 and est.probability == 0.0

    def test_monotone_in_threshold_common_seed(self):
        probs = [
            estimate_single_tail(NORMAL, 100, 2, thr, 20_000, SEED).probability
            for thr in (0.5, 1.0, 1.5, 2.5)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_deterministic_and_worker_invariant(self):
        a = estimate_single_tail(NORMAL, 50, 2, 1.0, 30_000, SeedSpec(1, 2))
        b = estimate_single_tail(NORMAL, 50, 2, 1.0, 30_000, SeedSpec(1, 2))
        c = estimate_single_tail(NORMAL, 50, 2, 1.0, 30_000, SeedSpec(1, 2), workers=2)
        assert a == b == c

    def test_validation(self):
        with pytest.raises(ValueError, match="m"):
            estimate_single_tail(NORMAL, 10, 1, 1.0, 10, SEED)
        with pytest.raises(ValueError, match="reps"):
            estimate_single_tail(NORMAL, 10, 2, 1.0, 0, SEED)


class TestLambda:
    def test_limit_field_closed_form(self):
        rep = estimate_lambda(2.0, 50, 20, 2, NORMAL, 1000, SEED)
        assert rep.lambda_limit == pytest.approx(0.3678794, abs=1e-7)
        assert rep.lambda_limit == lambda_limit(2.0)

    def test_lambda_hat_scales_single_tail(self):
        rep = estimate_lambda(0.0, 100, 10, 2, NORMAL, 5000, SEED)
        assert rep.lambda_hat == math.comb(10, 2) * rep.single_tail.probability
        assert rep.b1_bound == b1_bound(10, 2, rep.single_tail.probability)

    def test_monotone_in_z_common_random_numbers(self):
        lo = estimate_lambda(-2.0, 200, 10, 2, NORMAL, 50_000, SEED)
        hi = estimate_lambda(2.0, 200, 10, 2, NORMAL, 50_000, SEED)
        assert lo.lambda_hat > hi.lambda_hat
        assert lo.threshold < hi.threshold

    def test_advisory_on_small_reps(self):
        rep = estimate_lambda(0.0, 50, 40, 2, NORMAL, 100, SEED)
        assert rep.advisory and "hits" in rep.advisory[0]


class TestB1Bound:
    def test_worked_value(self):
        assert b1_bound(10, 2, 1e-3) == pytest.approx(1.8e-3, rel=1e-12)

    def test_zero_tail(self):
        assert b1_bound(10, 2, 0.0) == 0.0

    def test_asymptotic_tail_decay(self):
        # with the asymptotic single tail m!/p**m at z = 0 the bound is
        # C(p,m) * m^2 * p^(m-1) * (m!/p^m)^2, decaying like 1/p
        val = b1_bound(100, 2, 2.0 / 100**2)
        assert val == pytest.approx(4950 * 4 * 100 * (2e-4) ** 2, rel=1e-12)
        assert b1_bound(1000, 2, 2.0 / 1000**2) < val

    def test_quadratic_scaling(self):
        assert b1_bound(20, 3, 2e-4) == pytest.approx(4.0 * b1_bound(20, 3, 1e-4), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="single_tail"):
            b1_bound(10, 2, 1.5)


class TestPairTail:
    def test_vanishing_threshold_gives_one(self):
        pspec = PairTailSpec(s=1, a_n=1e-9, n=50, p=10, m=2, spec=NORMAL)
        est = estimate_pair_tail(pspec, 2000, SEED)
        assert est.probability == 1.0

    def test_agrees_with_independent_resimulation(self):
        # oracle: a from-scratch simulation of the same joint event with
        # a different seed; agreement within 3 combined standard errors
        pspec = PairTailSpec(s=1, a_n=1.0, n=200, p=20, m=2, spec=NORMAL)
        reps = 10**5
        est = estimate_pair_tail(pspec, reps, SEED)

        rng = np.random.default_rng(987654321)
        thr = 1.0 * math.sqrt(200 * math.log(20))
        hits = 0
        oracle_reps = 10**5
        for _ in range(10):
            block = oracle_reps // 10
            xi = rng.standard_normal((block, 200))
            eta = rng.standard_normal((block, 200))
            zeta = rng.standard_normal((block, 200))
            s1 = np.abs((xi * eta).sum(axis=1))
            s2 = np.abs((xi * zeta).sum(axis=1))
            hits += int(np.count_nonzero((s1 >= thr) & (s2 >= thr)))
        oracle = hits / oracle_reps
        se = math.sqrt(est.probability * (1 - est.probability) / reps)
        se_o = math.sqrt(oracle * (1 - oracle) / oracle_reps)
        assert abs(est.probability - oracle) <= 3.0 * (se + se_o)

    def test_monotone_in_threshold_common_seed(self):
        # common random numbers nest the exceedance events exactly
        probs = [
            estimate_pair_tail(
                PairTailSpec(s=1, a_n=a, n=100, p=10, m=2, spec=NORMAL), 20_000, SEED
            ).probability
            for a in (0.3, 0.6, 0.9, 1.2)
        ]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > probs[-1]

    def test_validation(self):
        with pytest.raises(ValueError, match="s"):
            PairTailSpec(s=2, a_n=1.0, n=10, p=10, m=2, spec=NORMAL)
        for a_n in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="a_n"):
                PairTailSpec(s=1, a_n=a_n, n=10, p=10, m=2, spec=NORMAL)


class TestModerateDeviationRatio:
    def test_symmetric_point(self):
        # at x = 0 the one-sided tail of the symmetric product sum is 1/2
        rep = moderate_deviation_ratio(NORMAL, 2, 100, 0.0, 10**6, SEED)
        assert rep.gaussian_tail == 0.5
        assert 0.99 <= rep.ratio <= 1.01

    def test_bulk_gaussian_equivalence(self):
        rep = moderate_deviation_ratio(NORMAL, 2, 2000, 2.0, 10**5, SEED)
        assert abs(rep.p_hat - rep.gaussian_tail) <= 3.0 * rep.std_error + 1e-3
        assert 0.8 <= rep.ratio <= 1.2

    def test_rademacher_products(self):
        spec = PopulationSpec(RADEMACHER)
        rep = moderate_deviation_ratio(spec, 2, 2000, 2.0, 10**5, SEED)
        assert 0.8 <= rep.ratio <= 1.2

    def test_rademacher_at_the_acceptance_size_matches_the_exact_tail(self):
        # S = n - 2 Bin(n, 1/2) exactly: P(S/100 >= 2) = 0.0232928 at n = 10**4
        n, x, reps = 10**4, 2.0, 10**6
        rep = moderate_deviation_ratio(PopulationSpec(RADEMACHER), 2, n, x, reps, SEED)
        q = rademacher_tail(n, lambda s: s / math.sqrt(n) >= x)
        assert abs(q - 0.0232928) < 1e-7
        assert_within_4_se(rep.hits, reps, q)

    def test_advisory_flag_for_rare_x(self):
        rep = moderate_deviation_ratio(NORMAL, 2, 100, 6.0, 1000, SEED)
        assert rep.advisory

    def test_validation(self, monkeypatch):
        # 40 is finite, but its Gaussian tail underflows to 0; no x here may draw
        monkeypatch.setattr(diagnostics, "_count", None)
        for x in (-1.0, math.nan, math.inf, 40.0):
            with pytest.raises(ValueError, match="x"):
                moderate_deviation_ratio(NORMAL, 2, 10, x, 10, SEED)

    def test_largest_x_with_a_gaussian_tail(self):
        rep = moderate_deviation_ratio(NORMAL, 2, 10, 38.4, 10, SEED)
        assert rep.gaussian_tail > 0.0 and rep.hits == 0 and rep.ratio == 0.0


class TestSteinChenReport:
    def test_full_report_contains_all_overlaps(self):
        rep = stein_chen_report(0.0, 30, 8, 3, NORMAL, 2000, SEED, a_n=0.5, pair_reps=2000)
        assert set(rep.psi_estimates) == {1, 2}
        assert rep.lambda_hat >= 0.0
        assert rep.b1_bound >= 0.0
        obj = rep.to_json()
        assert obj["psi_estimates"].keys() == {"1", "2"}
