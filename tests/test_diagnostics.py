"""Monte Carlo diagnostics: tails, Poisson intensity, pair tails, ratios.

Statistical assertions use explicit independent oracles: the central
limit theorem with the erfc-based Gaussian tail for product sums, a
second independent simulation for the joint pair tail, and closed-form
arithmetic for the exact pieces.  Tolerances are 3 binomial standard
errors unless the quantity is deterministic.

The block kernels draw only what each family's product sums depend on,
piece by piece.  The float sums (exponential and uniform families) must
equal a plain draw-and-multiply reference of the same piece order bit
for bit on the same sub-stream, at any piece size.  The
Rademacher sums, one binomial draw each, are held to their exact law:
integers of n's parity, and counts within 4 standard errors of the
binomial tail summed exactly.  The Gaussian and Student t sums, drawn
as normal scale mixtures, must match the plain path's law (two-sample
KS, and plain re-simulations of the joint pair tail).
"""

import functools
import hashlib
import itertools
import math
import sys
import time
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
    nu_p,
    stein_chen_report,
)
from tensormax import diagnostics
from tensormax.populations import (
    CENTERED_EXPONENTIAL,
    RADEMACHER,
    STANDARD_NORMAL,
    STUDENT_T_STANDARDIZED,
    UNIFORM_SCALED,
    draw,
    make_generator,
)

NORMAL = PopulationSpec(STANDARD_NORMAL)
T8 = PopulationSpec(STUDENT_T_STANDARDIZED, df=8)
SEED = SeedSpec(2025, 0)
KERNEL_SEEDS = (SeedSpec(2025, 0), SeedSpec(7, 3), SeedSpec(2**64 - 1, 11))
FLOAT_PATH_SPECS = (PopulationSpec(CENTERED_EXPONENTIAL), PopulationSpec(UNIFORM_SCALED))


def plain_product(spec, rng, shape, k):
    """Oracle: k factors drawn with ``draw`` and multiplied in float64."""
    out = draw(spec, rng, shape)
    for _ in range(k - 1):
        out *= draw(spec, rng, shape)
    return out


def plain_pieces(count, n):
    """Oracle: (first row, rows, width) of the pieces of a (count, n) block, in draw order.

    As many whole rows as fit in ``diagnostics._PIECE`` values, or, for
    a longer row, the row cut into consecutive chunks of that many.
    """
    piece = diagnostics._PIECE
    if n <= piece:
        step = piece // n
        return [(row, min(step, count - row), n) for row in range(0, count, step)]
    return [(row, 1, min(piece, n - start)) for row in range(count) for start in range(0, n, piece)]


def plain_block_sums(spec, n, shared, fresh, copies, seed, index, count):
    """Oracle: one block's sums of xi * eta_c in the kernels' piece order, nothing folded in place.

    For each piece, the shared factors and then each copy's fresh ones
    are drawn whole with ``draw``, multiplied left to right, and the
    product's row sums added to the copy's sums.
    """
    rng = diagnostics._block_generator(seed, index)
    sums = np.zeros((copies, count))
    for row, rows, width in plain_pieces(count, n):
        xi = [draw(spec, rng, (rows, width)) for _ in range(shared)]
        for c in range(copies):
            factors = xi + [draw(spec, rng, (rows, width)) for _ in range(fresh)]
            sums[c, row : row + rows] += functools.reduce(np.multiply, factors).sum(axis=1)
    return sums


def plain_sums(spec, n, m, seed, index, count):
    """Oracle: one block's product sums, in the kernels' piece order."""
    return plain_block_sums(spec, n, 0, m, 1, seed, index, count)[0]


def plain_pair_tail(pspec, reps, rng):
    """Oracle: (probability, SE) of the joint pair tail, every factor drawn and multiplied in full."""
    n, s, m = pspec.n, pspec.s, pspec.m
    thr = pspec.a_n * math.sqrt(n * math.log(pspec.p))
    hits = 0
    for _ in range(10):
        shape = (reps // 10, n)
        xi = plain_product(pspec.spec, rng, shape, s)
        s1 = np.abs((xi * plain_product(pspec.spec, rng, shape, m - s)).sum(axis=1))
        s2 = np.abs((xi * plain_product(pspec.spec, rng, shape, m - s)).sum(axis=1))
        hits += int(np.count_nonzero((s1 >= thr) & (s2 >= thr)))
    prob = hits / reps
    return prob, math.sqrt(prob * (1 - prob) / reps)


def plain_pair_sums(spec, n, s, m, seed, index, count):
    """Oracle: one block's pair sums over shared xi and fresh eta, zeta, in the kernels' piece order."""
    return tuple(plain_block_sums(spec, n, s, m - s, 2, seed, index, count))


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
        # count replicates make one block, drawn from sub-stream (seed, 0)
        spec, n, count = PopulationSpec(RADEMACHER), 37, 3000
        (sums,) = diagnostics._product_sums(spec, diagnostics._block_generator(seed, 0), (count, n), 0, m, 1)
        assert_rademacher_sums(sums, n)
        root_n = math.sqrt(n)
        scaled = sums / root_n
        for t in (0.0, 0.5, 1.0, 1.5, 2.3):
            two = estimate_single_tail(spec, n, m, t, count, seed).hits
            one = moderate_deviation_ratio(spec, m, n, t, count, seed).hits
            assert two == np.count_nonzero(np.abs(scaled) > t)
            assert one == np.count_nonzero(scaled >= t)
            assert_within_4_se(two, count, rademacher_tail(n, lambda x: abs(x / root_n) > t))
            assert_within_4_se(one, count, rademacher_tail(n, lambda x: x / root_n >= t))

    @pytest.mark.parametrize("m,s", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_rademacher_pair_kernel(self, m, s, seed):
        # given the shared product xi the two sums are independent, so the
        # joint tail is q**2 and each margin is q
        # count replicates make one block, drawn from sub-stream (seed, 0)
        spec, n, count = PopulationSpec(RADEMACHER), 29, 3000
        s1, s2 = diagnostics._product_sums(spec, diagnostics._block_generator(seed, 0), (count, n), s, m - s, 2)
        assert_rademacher_sums(s1, n)
        assert_rademacher_sums(s2, n)
        for a in (0.2, 0.6, 1.0):
            thr = a * math.sqrt(n * math.log(10))
            hits = estimate_pair_tail(PairTailSpec(s=s, a_n=a, n=n, p=10, m=m, spec=spec), count, seed).hits
            assert hits == np.count_nonzero((np.abs(s1) >= thr) & (np.abs(s2) >= thr))
            q = rademacher_tail(n, lambda x: abs(x) >= thr)
            assert_within_4_se(hits, count, q * q)
            for margin in (s1, s2):
                assert_within_4_se(np.count_nonzero(np.abs(margin) >= thr), count, q)

    @pytest.mark.parametrize("m,s", [(2, 1), (3, 1), (3, 2)])
    def test_float_path_unchanged(self, m, s, monkeypatch):
        # pieces of 1, 5 and 7 values cut each row of 23 into chunks;
        # the default piece holds 1424 whole rows, so 3000 rows take three
        n = 23
        for piece, count in ((1, 60), (5, 200), (7, 200), (diagnostics._PIECE, 3000)):
            monkeypatch.setattr(diagnostics, "_PIECE", piece)
            for spec in FLOAT_PATH_SPECS:
                (sums,) = diagnostics._product_sums(spec, diagnostics._block_generator(SEED, 1), (count, n), 0, m, 1)
                assert np.array_equal(sums, plain_sums(spec, n, m, SEED, 1, count)), (spec.family, piece)
                pair = diagnostics._product_sums(spec, diagnostics._block_generator(SEED, 1), (count, n), s, m - s, 2)
                for got, want in zip(pair, plain_pair_sums(spec, n, s, m, SEED, 1, count)):
                    assert np.array_equal(got, want), (spec.family, piece)


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_blocks_release_each_factor():
    # A block holds its (count,) sums and at most three piece buffers of
    # at most 2**15 values: the product a piece's factors fold into, one
    # reused draw buffer, and xi (or its squares) in a pair block.  A
    # piece here is 32 rows of 1000, which leaves room below the bound
    # for a few KB of interpreter objects and numpy iterators.  Each
    # request is one block of count replicates.
    n, count = 1000, 2000
    sums, pieces = count * 8, 3 * diagnostics._PIECE * 8
    for spec in (
        NORMAL,
        PopulationSpec(STUDENT_T_STANDARDIZED, df=8),
        PopulationSpec(CENTERED_EXPONENTIAL),
        PopulationSpec(UNIFORM_SCALED),
    ):
        tail = traced_peak(estimate_single_tail, spec, n, 4, 1.0, count, SEED)
        assert tail < sums + pieces, spec.family
        pair = traced_peak(estimate_pair_tail, PairTailSpec(s=1, a_n=0.5, n=n, p=10, m=4, spec=spec), count, SEED)
        assert pair < 2 * sums + pieces, spec.family


RATIO_SPECS = [*FLOAT_PATH_SPECS, NORMAL, PopulationSpec(STUDENT_T_STANDARDIZED, df=8)]


def ratio_peak(spec, n):
    """Peak traced bytes of one moderate deviation replicate of n three-fold products."""
    tracemalloc.start()
    try:
        moderate_deviation_ratio(spec, 3, n, 2.0, 1, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", RATIO_SPECS, ids=lambda s: s.family)
def test_ratio_replicate_holds_one_array(spec):
    # one replicate of n = 2**20 three-fold products, an 8 MB array per
    # factor if drawn whole, holds two pieces of 256 KB
    assert ratio_peak(spec, 2**20) < 2**20


@pytest.mark.parametrize("spec", RATIO_SPECS, ids=lambda s: s.family)
def test_ratio_replicate_peak_does_not_grow_with_n(spec):
    small, large = ratio_peak(spec, 2**16), ratio_peak(spec, 2**22)
    assert abs(large - small) <= 0.1 * small


class TestPieces:
    """A block is drawn piece by piece; at any piece size its sums follow the plain law."""

    @pytest.mark.parametrize("n", [9, 41])
    @pytest.mark.parametrize("piece", [1, 5, 7, diagnostics._PIECE])
    @pytest.mark.parametrize("case", [(0, 3, 1), (0, 4, 1), (1, 2, 2), (2, 1, 2)], ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize(
        "spec",
        [NORMAL, PopulationSpec(STUDENT_T_STANDARDIZED, df=5), pytest.param(T8, id="student_t8"), *FLOAT_PATH_SPECS],
        ids=lambda s: s.family,
    )
    def test_pieced_sums_follow_the_plain_law(self, spec, case, piece, n, monkeypatch):
        # Pieces of 1, 5 and 7 values cut the rows into chunks (the last
        # one partial: neither 9 nor 41 is a multiple of 5 or 7); the
        # default piece holds many whole rows.  Each copy's sums, and the
        # pair's min(|S1|, |S2|), which carries their dependence through
        # xi, must match the plain law (two-sample KS).  t(8) draws its
        # gammas as uniform products, half a piece at a time; a piece of
        # one value takes its uniforms through a buffer of its own.  Some
        # 500 KS tests run here, so each is held at the 0.001 level.
        monkeypatch.setattr(diagnostics, "_PIECE", piece)
        shared, fresh, copies = case
        count = 300 if piece == 1 else 1500
        pieced = diagnostics._product_sums(spec, diagnostics._block_generator(SEED, 5), (count, n), *case)
        rng = np.random.default_rng(464646)
        xi = plain_product(spec, rng, (count, n), shared) if shared else 1.0
        plain = [(xi * plain_product(spec, rng, (count, n), fresh)).sum(axis=1) for _ in range(copies)]
        if copies == 2:
            pieced.append(np.minimum(np.abs(pieced[0]), np.abs(pieced[1])))
            plain.append(np.minimum(np.abs(plain[0]), np.abs(plain[1])))
        for got, want in zip(pieced, plain):
            assert scipy.stats.ks_2samp(got, want).pvalue > 0.001

    @pytest.mark.parametrize("bit_generator", [np.random.SFC64, np.random.Philox])
    def test_numpy_fills_in_pieces_as_one_fill(self, bit_generator):
        # what the piece loop assumes of numpy: each value takes the
        # generator's next outputs whatever the call it falls in, and
        # gamma(a, s) is s * standard_gamma(a) value by value
        fills = {
            "standard_normal": lambda rng, buf: rng.standard_normal(buf.shape, out=buf),
            "standard_gamma": lambda rng, buf: rng.standard_gamma(2.5, buf.shape, out=buf),
            "standard_exponential": lambda rng, buf: rng.standard_exponential(buf.shape, out=buf),
            "uniform": lambda rng, buf: np.copyto(buf, rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), buf.shape)),
        }
        for name, fill in fills.items():
            whole, pieced = np.empty(369), np.empty(369)
            fill(np.random.Generator(bit_generator(17)), whole)
            rng = np.random.Generator(bit_generator(17))
            for start, stop in itertools.pairwise((0, 1, 8, 13, 113, 369)):
                fill(rng, pieced[start:stop])
            assert np.array_equal(pieced, whole), name
        scaled = np.random.Generator(bit_generator(17)).gamma(2.5, 0.4, 369)
        assert np.array_equal(scaled, 0.4 * np.random.Generator(bit_generator(17)).standard_gamma(2.5, 369))


class CountingGenerator:
    """Passes every call on to a generator and counts the values its draws return."""

    def __init__(self, rng):
        self.rng, self.values = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.values += np.size(out)
            return out

        return counted


@pytest.mark.parametrize("piece", [4, diagnostics._PIECE])
@pytest.mark.parametrize("case", [(0, 2, 1), (0, 3, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2)], ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize(
    "spec",
    [NORMAL, PopulationSpec(STUDENT_T_STANDARDIZED, df=5), PopulationSpec(RADEMACHER), *FLOAT_PATH_SPECS,
     pytest.param(T8, id="student_t8"), pytest.param(PopulationSpec(STUDENT_T_STANDARDIZED, df=10), id="student_t10")],
    ids=lambda s: s.family,
)
def test_the_budget_counts_every_drawn_value(spec, case, piece, monkeypatch):
    # the diagnose budget holds a request to _draws, so it must count what the
    # kernels draw: a t(8) gamma is 4 uniforms, a t(5) or t(10) one one value
    monkeypatch.setattr(diagnostics, "_PIECE", piece)
    count, n = 30, 11
    rng = CountingGenerator(diagnostics._block_generator(SEED, 0))
    diagnostics._product_sums(spec, rng, (count, n), *case)
    assert rng.values == count * diagnostics._draws(spec, n, *case)


class TestManyBlocks:
    """With small blocks each estimate is the sum of its hit test over the blocks' sub-streams (seed, i)."""

    BLOCK = 1000

    @staticmethod
    def kernel_sum(spec, n, layout, hit, sizes, seed, part=(), log=np.log):
        """Replicates whose (shared, fresh, copies) ``layout`` sums pass ``hit``, block i from (seed, i, *part)."""
        rngs = (diagnostics._block_generator(seed, i, part) for i in range(len(sizes)))
        return sum(
            int(np.count_nonzero(hit(*diagnostics._product_sums(spec, rng, (c, n), *layout, log=log))))
            for rng, c in zip(rngs, sizes)
        )

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_BLOCK_SCALARS", self.BLOCK)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_tail(self, workers):
        n, m, reps, t = 10, 3, 200, 1.2
        sizes = [33] * 6 + [2]  # 1000 // (n * m) = 33 replicates per block
        est = estimate_single_tail(NORMAL, n, m, t, reps, SEED, workers=workers)
        want = self.kernel_sum(NORMAL, n, (0, m, 1), lambda s: np.abs(s / math.sqrt(n)) > t, sizes, SEED)
        assert est.hits == want and est.reps == reps and 0 < want < reps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_moderate_deviation_ratio(self, workers):
        spec, n, m, reps, x = PopulationSpec(RADEMACHER), 25, 2, 310, 0.5
        sizes = [20] * 15 + [10]  # 1000 // (n * m) = 20
        rep = moderate_deviation_ratio(spec, m, n, x, reps, SEED, workers=workers)
        want = self.kernel_sum(spec, n, (0, m, 1), lambda s: s / math.sqrt(n) >= x, sizes, SEED)
        assert rep.hits == want and rep.reps == reps and 0 < want < reps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_tail(self, workers):
        spec = PopulationSpec(STUDENT_T_STANDARDIZED, df=5)
        pspec = PairTailSpec(s=1, a_n=0.2, n=12, p=10, m=3, spec=spec)
        reps = 150
        sizes = [16] * 9 + [6]  # 1000 // (n * (2m - s)) = 1000 // 60 = 16
        est = estimate_pair_tail(pspec, reps, SEED, workers=workers)
        thr = 0.2 * math.sqrt(12 * math.log(10))
        want = self.kernel_sum(spec, 12, (1, 2, 2), lambda s1, s2: (np.abs(s1) >= thr) & (np.abs(s2) >= thr), sizes,
                               SEED)
        assert est.hits == want and est.reps == reps and 0 < want < reps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_uniform_gamma_counts_are_math_log_counts(self, workers):
        # t(8) blocks are screened against math.log; the counts are those of the math.log sums
        n, m, reps, x = 10, 3, 200, 0.8
        sizes = [33] * 6 + [2]
        rep = moderate_deviation_ratio(T8, m, n, x, reps, SEED, workers=workers)
        want = self.kernel_sum(T8, n, (0, m, 1), lambda s: s / math.sqrt(n) >= x, sizes, SEED,
                               log=diagnostics._math_log)
        assert rep.hits == want and rep.reps == reps and 0 < want < reps
        pspec = PairTailSpec(s=2, a_n=0.2, n=n, p=10, m=m, spec=T8)
        est = estimate_pair_tail(pspec, 150, SEED, workers=workers)
        thr = 0.2 * math.sqrt(n * math.log(10))
        want = self.kernel_sum(T8, n, (2, 1, 2), lambda s1, s2: (np.abs(s1) >= thr) & (np.abs(s2) >= thr),
                               [25] * 6, SEED, log=diagnostics._math_log)  # 1000 // (n * (2m - s)) = 25
        assert est.hits == want and 0 < want < 150

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stein_chen_report(self, workers):
        # every part of the report cuts its own blocks: the lambda part draws
        # from sub-streams (seed, i), the pair part of overlap s from (seed, i, s)
        z, n, p, m, reps, a_n = -4.0, 10, 8, 3, 110, 0.3
        rep = stein_chen_report(z, n, p, m, NORMAL, reps, SEED, a_n=a_n, workers=workers)
        t = math.sqrt(2.0 * m) * nu_p(z, p, m)
        want = self.kernel_sum(NORMAL, n, (0, m, 1), lambda s: np.abs(s / math.sqrt(n)) > t, [33] * 3 + [11], SEED)
        assert rep.single_tail.hits == want and rep.single_tail.reps == reps and 0 < want < reps
        thr = a_n * math.sqrt(n * math.log(p))
        # 1000 // (n * (2m - s)): 20 replicates per block at s = 1, 25 at s = 2
        for s, sizes in ((1, [20] * 5 + [10]), (2, [25] * 4 + [10])):
            want = self.kernel_sum(NORMAL, n, (s, m - s, 2), lambda s1, s2: (np.abs(s1) >= thr) & (np.abs(s2) >= thr),
                                   sizes, SEED, part=(s,))
            psi = rep.psi_estimates[s]
            assert psi.hits == want and psi.reps == reps and 0 < want < reps, s


def test_report_parts_share_no_draws():
    # Rademacher sums are one binomial each: with every part on sub-streams
    # (seed, i), the pair parts at s = 1 and 2 drew the same binomials and
    # counted 442 hits each, and the lambda part's sums were the first copy
    # of every pair part's.
    spec, seed, n, m, t = PopulationSpec(RADEMACHER), SeedSpec(3, 0), 50, 3, 0.5 * math.sqrt(50 * math.log(10))
    rep = stein_chen_report(0.0, n, 10, m, spec, 2000, seed, a_n=0.5)
    assert rep.single_tail == estimate_single_tail(spec, n, m, rep.threshold, 2000, seed)
    assert rep.psi_estimates[1].hits != rep.psi_estimates[2].hits
    lam = diagnostics._product_sums(spec, diagnostics._block_generator(seed, 0), (2000, n), 0, m, 1)[0]
    pairs = {s: diagnostics._product_sums(spec, diagnostics._block_generator(seed, 0, (s,)), (2000, n), s, m - s, 2)
             for s in (1, 2)}
    for s, (s1, s2) in pairs.items():
        assert rep.psi_estimates[s].hits == np.count_nonzero((np.abs(s1) >= t) & (np.abs(s2) >= t))
        assert not np.array_equal(s1, lam)
    assert not np.array_equal(pairs[1][0], pairs[2][0])


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
        oracle, se_o = plain_pair_tail(pspec, reps, np.random.default_rng(20260 + s))
        assert abs(est.probability - oracle) <= 3.0 * (est.std_error + se_o)


# sha256 prefixes of the concatenated sum bytes at shape (40, 7) on SEED,
# for the normal family and t(5), at the default piece (None) and at
# pieces of 5 values, which cut each row into chunks of 5 and 2: a
# reordered, missing or extra draw changes them.  A normal sum at m = 2
# is one chi2 draw, which no piece cuts.
MIXTURE_DIGESTS = {
    (STANDARD_NORMAL, (0, 2, 1), None): "9666f3525ac8fe8d",
    (STANDARD_NORMAL, (0, 3, 1), None): "031cd779ff9cd5e4",
    (STANDARD_NORMAL, (1, 1, 2), None): "2bb10026a05b8f87",
    (STANDARD_NORMAL, (1, 2, 2), None): "758a65d19cbe80b9",
    (STANDARD_NORMAL, (2, 1, 2), None): "00928f70da1b2cb0",
    (STUDENT_T_STANDARDIZED, (0, 2, 1), None): "838075af76d6b7cd",
    (STUDENT_T_STANDARDIZED, (0, 3, 1), None): "7f4bbaab8eed9539",
    (STUDENT_T_STANDARDIZED, (1, 1, 2), None): "6c0a59386392fc38",
    (STUDENT_T_STANDARDIZED, (1, 2, 2), None): "8a872bfc38b94ab0",
    (STUDENT_T_STANDARDIZED, (2, 1, 2), None): "1459c1770d9b562f",
    (STANDARD_NORMAL, (0, 3, 1), 5): "0c6c272c37c7492d",
    (STANDARD_NORMAL, (1, 2, 2), 5): "b362a20a18701d0d",
    (STANDARD_NORMAL, (2, 1, 2), 5): "596d28d831bb8fd8",
    (STUDENT_T_STANDARDIZED, (0, 2, 1), 5): "eec7de9f9ef316a2",
    (STUDENT_T_STANDARDIZED, (0, 3, 1), 5): "2dcb8bb0c801a514",
    (STUDENT_T_STANDARDIZED, (1, 1, 2), 5): "dd1fd839f391542a",
    (STUDENT_T_STANDARDIZED, (1, 2, 2), 5): "bf514a403b60c243",
    (STUDENT_T_STANDARDIZED, (2, 1, 2), 5): "54aacb9bc8adbd2f",
}


@pytest.mark.parametrize(
    "family,case,piece",
    list(MIXTURE_DIGESTS),
    ids=["-".join(map(str, (f, *c))) + (f"-piece{p}" if p else "") for f, c, p in MIXTURE_DIGESTS],
)
def test_scale_mixture_streams_are_pinned(family, case, piece, monkeypatch):
    # n = 7 keeps each row sum a plain loop, so the bytes do not depend
    # on numpy's pairwise blocking.
    if piece:
        monkeypatch.setattr(diagnostics, "_PIECE", piece)
    spec = PopulationSpec(family, df=5 if family == STUDENT_T_STANDARDIZED else None)
    sums = diagnostics._product_sums(spec, make_generator(SEED), (40, 7), *case)
    digest = hashlib.sha256(b"".join(s.tobytes() for s in sums)).hexdigest()
    assert digest[:16] == MIXTURE_DIGESTS[family, case, piece]


# sha256 prefixes of the first 8 raw outputs of blocks 0 and 1 on SEED:
# SFC64 keyed by SeedSequence((2025, 0, block)).  Another bit generator
# or key moves them (Philox gives 761e6f64fb300c05 for block 0).
BLOCK_DIGESTS = {0: "ff19cd31b8ca6bf9", 1: "86d4a7b16140681b"}


@pytest.mark.parametrize("index", list(BLOCK_DIGESTS))
def test_block_streams_are_pinned(index):
    raw = diagnostics._block_generator(SEED, index).bit_generator.random_raw(8)
    assert hashlib.sha256(raw.tobytes()).hexdigest()[:16] == BLOCK_DIGESTS[index]


# sha256 prefixes of the concatenated sum bytes of t(8) at shape (40, 7) on
# SEED with every log taken by math.log: the uniform products, the half-piece
# layout and the sums are exact or correctly rounded, so these bits hold on
# any CPU.  Pieces of 5 values cut each row into chunks of 5 and 2, and a
# chunk of 5 into halves of 2, 2 and 1.
MATH_LOG_DIGESTS = {
    ((0, 2, 1), None): "85bc3f6bba9a806a",
    ((0, 3, 1), None): "dcf9df433dc71496",
    ((1, 1, 2), None): "a01eae4701e63ee1",
    ((1, 2, 2), None): "f44689cbb18ee963",
    ((2, 1, 2), None): "961e5148ea4a8899",
    ((0, 3, 1), 5): "cc29310c67857163",
    ((1, 2, 2), 5): "cc2ec4b8a03f48f9",
}


@pytest.mark.parametrize(
    "case,piece",
    list(MATH_LOG_DIGESTS),
    ids=["-".join(map(str, c)) + (f"-piece{p}" if p else "") for c, p in MATH_LOG_DIGESTS],
)
def test_uniform_gamma_streams_are_pinned(case, piece, monkeypatch):
    if piece:
        monkeypatch.setattr(diagnostics, "_PIECE", piece)
    sums = diagnostics._product_sums(T8, make_generator(SEED), (40, 7), *case, log=diagnostics._math_log)
    digest = hashlib.sha256(b"".join(s.tobytes() for s in sums)).hexdigest()
    assert digest[:16] == MATH_LOG_DIGESTS[case, piece]


def nudged_log(ulps):
    """np.log moved |ulps| ulps, up at even positions and down at odd ones (the other way if ulps < 0)."""

    def log(x, out):
        np.log(x, out=out)
        up, down = (out[0::2], out[1::2]) if ulps > 0 else (out[1::2], out[0::2])
        for _ in range(abs(ulps)):
            up[...] = np.nextafter(up, np.inf)
            down[...] = np.nextafter(down, -np.inf)
        return out

    return log


class TestLogRecheck:
    """Uniform-gamma blocks report the counts of their math.log sums, whatever np.log returns."""

    N, M, REPS = 10, 3, 400

    @pytest.fixture
    def fast_log(self, monkeypatch):
        """Set the log that ``_count``'s first draw of every block takes in place of np.log."""
        real = diagnostics._product_sums
        taken = {"log": np.log}

        def product_sums(*args, log=np.log):
            return real(*args, log=taken["log"] if log is np.log else log)

        monkeypatch.setattr(diagnostics, "_product_sums", product_sums)
        return taken

    def exact(self, layout, count, log=diagnostics._math_log):
        return diagnostics._product_sums(T8, diagnostics._block_generator(SEED, 0), (count, self.N), *layout, log=log)

    def test_a_log_a_few_ulps_off_leaves_every_count(self, fast_log):
        # Each threshold sits on one replicate's math.log sum or one ulp
        # above it (the pair's within an ulp, as the estimator computes it
        # from a_n), so a sum moved by the nudged logs can cross it either
        # way; the recheck redraws that block and counts what math.log
        # counts.
        n, m, reps = self.N, self.M, self.REPS
        (single,) = self.exact((0, m, 1), reps)
        s1, s2 = self.exact((1, m - 1, 2), reps)
        x_on = float(np.sort(single)[-20] / math.sqrt(n))
        a_on = float(np.sort(np.minimum(np.abs(s1), np.abs(s2)))[-30]) / math.sqrt(n * math.log(10))
        moved = 0
        for x, a_n in ((x_on, a_on), (np.nextafter(x_on, np.inf), np.nextafter(a_on, np.inf))):
            t = a_n * math.sqrt(n * math.log(10))  # the threshold the estimator computes
            want_mdr = np.count_nonzero(single / math.sqrt(n) >= x)
            want_pair = np.count_nonzero((np.abs(s1) >= t) & (np.abs(s2) >= t))
            pspec = PairTailSpec(s=1, a_n=float(a_n), n=n, p=10, m=m, spec=T8)
            for ulps in (0, 2, -2):
                fast_log["log"] = nudged_log(ulps) if ulps else np.log
                assert moderate_deviation_ratio(T8, m, n, float(x), reps, SEED).hits == want_mdr, (x, ulps)
                assert estimate_pair_tail(pspec, reps, SEED).hits == want_pair, (a_n, ulps)
                (unchecked,) = self.exact((0, m, 1), reps, log=fast_log["log"])
                moved += np.count_nonzero(unchecked / math.sqrt(n) >= x) != want_mdr
        assert moved  # without the recheck, a nudged log moves a count

    @pytest.mark.parametrize("delta", [0.99, math.inf])
    def test_a_band_over_every_replicate_redraws_every_block(self, delta, monkeypatch):
        # At _BLOCK_SCALARS = 1000, 396 replicates make 12 single-tail
        # blocks of 33 (n * m = 30 scalars each) and 16 pair blocks, 15 of
        # 25 and one of 21 (n * (2m - s) = 40).  A band of 0.99 holds every
        # replicate's math.log sum, and each block has a replicate whose
        # hit differs between 0.01 and 1.99 times its sum; a band of 1 or
        # more skips the screen.  Either way every block is drawn again.
        n, m, reps, x = self.N, self.M, 396, 0.5
        monkeypatch.setattr(diagnostics, "_BLOCK_SCALARS", 1000)
        pspec = PairTailSpec(s=2, a_n=0.2, n=n, p=10, m=m, spec=T8)
        want = moderate_deviation_ratio(T8, m, n, x, reps, SEED).hits
        want_pair = estimate_pair_tail(pspec, reps, SEED).hits
        logs = []
        real = diagnostics._product_sums
        monkeypatch.setattr(diagnostics, "_product_sums", lambda *args, log: logs.append(log) or real(*args, log=log))
        monkeypatch.setattr(diagnostics, "_band", lambda n, m: delta)
        assert moderate_deviation_ratio(T8, m, n, x, reps, SEED).hits == want
        assert logs == [np.log, diagnostics._math_log] * 12
        logs.clear()
        assert estimate_pair_tail(pspec, reps, SEED).hits == want_pair
        assert logs == [np.log, diagnostics._math_log] * 16
        assert 0 < want < reps and 0 < want_pair < reps


class TestStudentTMixture:
    """Student t sums are drawn as sqrt(V) * Z, each factor Z * sqrt(k/G); their law must be the plain one."""

    LAYOUTS = pytest.mark.parametrize(
        "shared,fresh,copies",
        [(0, 2, 1), (0, 3, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2)],
        ids=["m2", "m3", "pair-m2-s1", "pair-m3-s1", "pair-m3-s2"],
    )

    @staticmethod
    def ks_pvalues(df, shared, fresh, copies):
        """Two-sample KS p-values of each copy's sums against plain products of t(df) draws, at n = 5."""
        spec, n, count = PopulationSpec(STUDENT_T_STANDARDIZED, df=df), 5, 20_000
        mixed = diagnostics._product_sums(spec, make_generator(SEED), (count, n), shared, fresh, copies)
        rng = np.random.default_rng(434343)
        xi = plain_product(spec, rng, (count, n), shared) if shared else 1.0
        return [scipy.stats.ks_2samp(sums, (xi * plain_product(spec, rng, (count, n), fresh)).sum(axis=1)).pvalue
                for sums in mixed]

    @pytest.mark.parametrize("df", [3, 5])
    @LAYOUTS
    def test_ks_against_plain_sums(self, shared, fresh, copies, df):
        # At n = 5 a sum with a normal factor too many, a mixing weight too
        # few, or a shared weight divided by another copy's gamma fails.
        assert min(self.ks_pvalues(df, shared, fresh, copies)) > 0.01

    @pytest.mark.parametrize("df", [4, 6, 8, 10])
    @LAYOUTS
    def test_even_df_ks_against_plain_sums(self, shared, fresh, copies, df):
        # df 4, 6 and 8 draw each gamma as a product of df/2 uniforms, df 10
        # through standard_gamma.  A gamma of the wrong shape moves the
        # sums' law by far more than KS needs at n = 5.  These 20 layouts
        # add to the 10 above, so each is held at the 0.001 level.
        assert min(self.ks_pvalues(df, shared, fresh, copies)) > 0.001

    @pytest.mark.parametrize("m,s,a_n", [(2, 1, 1.0), (3, 1, 0.8), (3, 2, 0.8)])
    def test_pair_tail_agrees_with_plain_resimulation(self, m, s, a_n):
        # At m = 2, s = 1 both copies share the weight sum xi**2 and divide
        # it by gammas of their own: a weight divided in place by the first
        # copy's gamma moves P(joint) from about 0.0075 to 0.0105, some 5 SE.
        spec = PopulationSpec(STUDENT_T_STANDARDIZED, df=3)
        pspec = PairTailSpec(s=s, a_n=a_n, n=20, p=20, m=m, spec=spec)
        reps = 10**5
        est = estimate_pair_tail(pspec, reps, SEED)
        oracle, se_o = plain_pair_tail(pspec, reps, np.random.default_rng(30300 + 10 * m + s))
        assert abs(est.probability - oracle) <= 3.0 * (est.std_error + se_o)

    def test_huge_df_is_finite_and_near_normal(self):
        # k = (df - 2)/2 = 5e14 enters each factor through the gamma's
        # scale, so every sum is finite and, at this df, normal products.
        spec, n, count = PopulationSpec(STUDENT_T_STANDARDIZED, df=10**15), 5, 20_000
        rng = np.random.default_rng(454545)
        for shared, fresh, copies in ((0, 3, 1), (1, 1, 2), (2, 1, 2)):
            mixed = diagnostics._product_sums(spec, make_generator(SEED), (count, n), shared, fresh, copies)
            for sums in mixed:
                assert np.isfinite(sums).all()
                plain = plain_product(NORMAL, rng, (count, n), shared + fresh).sum(axis=1)
                assert scipy.stats.ks_2samp(sums, plain).pvalue > 0.01


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
    def test_zero_threshold_counts_every_nonzero_normal_sum(self):
        est = estimate_single_tail(NORMAL, 10, 2, 0.0, 500, SEED)
        assert est.probability == 1.0 and est.hits == est.reps == 500

    def test_zero_threshold_leaves_out_the_rademacher_sums_at_zero(self):
        # an even number of fair signs sums to 0 with probability C(n, n/2) / 2**n
        n, reps = 10, 20000
        exact = 1.0 - math.comb(n, n // 2) / 2**n  # 0.754
        est = estimate_single_tail(PopulationSpec(RADEMACHER), n, 3, 0.0, reps, SEED)
        assert abs(est.probability - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / reps)
        assert estimate_single_tail(PopulationSpec(RADEMACHER), n, 3, -1.0, reps, SEED).probability == 1.0

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
        # 45 pairs in p = 10, each sharing a coordinate with 45 - C(8, 2) = 17 of them
        assert b1_bound(10, 2, 1e-3) == pytest.approx(7.65e-4, rel=1e-12)

    def test_zero_tail(self):
        assert b1_bound(10, 2, 0.0) == 0.0

    def test_asymptotic_tail_decay(self):
        # with the asymptotic single tail m!/p**m at z = 0 the bound is
        # C(p,m) * (C(p,m) - C(p-m,m)) * (m!/p^m)^2, decaying like 1/p
        val = b1_bound(100, 2, 2.0 / 100**2)
        assert val == pytest.approx(4950 * (4950 - 4753) * (2e-4) ** 2, rel=1e-12)
        assert b1_bound(1000, 2, 2.0 / 1000**2) < val

    def test_quadratic_scaling(self):
        assert b1_bound(20, 3, 2e-4) == pytest.approx(4.0 * b1_bound(20, 3, 1e-4), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="single_tail"):
            b1_bound(10, 2, 1.5)

    def test_factor_is_exact_until_it_overflows(self):
        for p in range(2, 300, 7):
            for m in range(2, p + 1, 3):
                tuples = math.comb(p, m)
                try:
                    expected = float(tuples * (tuples - math.comb(p - m, m)))
                except OverflowError:
                    expected = math.inf
                if expected == math.inf:
                    with pytest.raises(ValueError, match="overflows"):
                        b1_bound(p, m, 0.5)
                else:
                    assert b1_bound(p, m, 1.0) == expected, (p, m)

    def test_neighbourhood_matches_brute_force(self):
        # every ordered pair of m-tuples that share a coordinate, a tuple with itself included
        for p in range(2, 13):
            for m in range(2, p + 1):
                masks = np.array([sum(1 << i for i in t) for t in itertools.combinations(range(p), m)])
                pairs = np.count_nonzero(masks[:, None] & masks[None, :])
                assert b1_bound(p, m, 1.0) == pairs, (p, m)

    def test_huge_binomial_refused_at_once(self):
        # math.comb(10**6, 5 * 10**5) alone takes seconds
        start = time.perf_counter()
        for p, m in ((10**6, 5 * 10**5), (20000, 10000)):
            with pytest.raises(ValueError, match="overflows"):
                b1_bound(p, m, 0.5)
        # C(p, m) = C(p, p - m) is small near m = p, and there every two tuples share a coordinate
        assert b1_bound(10**7, 10**7 - 2, 1.0) == float(math.comb(10**7, 2) ** 2)
        assert time.perf_counter() - start < 1.0


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

    def test_rademacher_at_the_largest_int64_n(self):
        # numpy's binomial takes n = 2**63 - 1; n - 2 * Bin(n, 1/2) wraps in int64 but ends in range
        n, reps = 2**63 - 1, 4000
        rep = moderate_deviation_ratio(PopulationSpec(RADEMACHER), 3, n, 1.0, reps, SEED)
        assert_within_4_se(rep.hits, reps, normal_upper_tail(1.0))

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
        # past x ~ 37.52 the tail is subnormal and x is refused
        rep = moderate_deviation_ratio(NORMAL, 2, 10, 37.5, 10, SEED)
        assert rep.gaussian_tail >= sys.float_info.min and rep.hits == 0 and rep.ratio == 0.0


class TestSteinChenReport:
    def test_full_report_contains_all_overlaps(self):
        rep = stein_chen_report(0.0, 30, 8, 3, NORMAL, 2000, SEED, a_n=0.5)
        assert set(rep.psi_estimates) == {1, 2}
        assert rep.lambda_hat >= 0.0
        assert rep.b1_bound >= 0.0
        obj = rep.to_json()
        assert obj["psi_estimates"].keys() == {"1", "2"}

    def test_default_threshold_multiplier_reaches_every_pair_tail(self, monkeypatch):
        # a pair tail this far out reads a hit or none, so the spy reads the multiplier it is given
        seen = []
        real = diagnostics._pair_tail

        def spy(pspec, *options):
            seen.append(pspec)
            return real(pspec, *options)

        monkeypatch.setattr(diagnostics, "_pair_tail", spy)
        z, n, p, m = 0.5, 30, 8, 3
        rep = stein_chen_report(z, n, p, m, NORMAL, 200, SEED)
        a_n = math.sqrt(2 * m / math.log(p)) * nu_p(z, p, m)
        assert [(ps.s, ps.a_n) for ps in seen] == [(1, a_n), (2, a_n)]
        assert set(rep.psi_estimates) == {1, 2}
