"""Monte Carlo estimation of the proof-level quantities behind the limit.

The limit law rests on a Poisson approximation for the number of index
tuples whose entry exceeds the threshold sqrt(2m) * nu_p(z): the
intensity lambda = C(p, m) * P(single tuple exceeds) tends to exp(-z/2),
the first clustering term b1 is C(p, m) * (C(p, m) - C(p - m, m)) *
tail**2 (each tuple times the tuples that share a coordinate with it,
itself included), and the second term b2 is driven by joint tails of
two tuple sums sharing s coordinates.  This module
estimates those pieces by counting threshold crossings of simulated
product sums, plus the moderate deviation ratio
P(S_n/sqrt(n) >= x) / (1 - Phi(x)) that links product-variable sums to
the Gaussian tail.

Each replicate simulates S = sum over n of an m-fold product of i.i.d.
draws (for a pair tail, two such sums sharing the s leading factors),
drawing only what the law of S depends on:

* standard normal and standardized Student t, both normal scale
  mixtures: a factor is Z * sqrt(W) with Z standard normal, W = 1 for
  the normal family and W = k/G for t, G ~ Gamma(df/2) and
  k = (df-2)/2 (Andrews and Mallows, *J. R. Statist. Soc. B* 36, 1974).
  Given every draw but the last factor's Z, a sum is exactly N(0, V),
  with V the row sum of Z**2 * W over the other factors times W of the
  last one.  So only those are drawn, and S = sqrt(V) * Z with one
  normal Z per sum: (m-1) * n normals, m * n gammas for t and none for
  the normal family, and where V is one squared normal factor, one
  chi2_n draw.  The sums of a pair tail start from the shared factors'
  product of Z**2 * W and multiply in draws of their own, never in
  place, which leaves them conditionally independent given V1, V2 (for
  normal sums at s = 1, m = 2 they share V ~ chi2_n: three scalars per
  replicate);
* Rademacher: a product of independent fair signs is a fair sign, so
  S = n - 2 * Bin(n, 1/2), and the copies of a pair tail are independent
  given xi (xi * eta and xi * zeta are independent fair signs).  So each
  sum is one binomial draw, an exact integer in float64.  The counts are
  binomial counts with the plain estimator's law, not bit-identical to
  it;
* centered exponential and scaled uniform: all the factors are drawn
  and multiplied in float64.

In every case each replicate's indicator is a Bernoulli variable with the
plain estimator's success probability, so ``hits`` is a binomial count
with the same law and the same standard error.

At the asymptotic thresholds the joint pair tails are of order
p**(-2m) and unobservable by sampling, so the pair tail estimator
takes an arbitrary user threshold and the analytic decay rates are
reported alongside instead of being "verified".

Every estimator counts through one driver, ``_count``: replicates are
cut into blocks of about ``_BLOCK_SCALARS`` nominal scalars, a layout
that depends only on (reps, n, factors per replicate), block i draws
from its own sub-stream (seed, i), and the blocks' hit counts are
merged by integer addition.  So every estimate is deterministic for a
given (seed, reps) at any worker count.  A block's sub-stream is an
SFC64 generator keyed by SeedSequence((master_seed, stream_id, i)),
built by ``_block_generator``: SFC64 draws normals and gammas about
1.45 times as fast as the Philox generator of the data streams
(``populations.make_generator``).

A block of count replicates holds one (count, n) float64 array per live
product: the running product (for the normal and t families, of
squares), and in a pair block also xi (or its squares).  A product's
first factor is drawn at full size as that array; every later factor is
drawn in flat pieces of at most ``_PIECE`` values through one reused
buffer and folded in place (``_fold``), in the draw order of whole
factors, so the sums keep their bits.  One replicate of n m-fold
products thus holds about 8.25 bytes per unit of n.  A Rademacher sum
is one binomial draw and never uses pieces: int8 ``integers`` drops its
leftover random bytes after each call, so int8 draws in pieces would
not be the values of one whole draw.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import ONE_SIDED, TWO_SIDED, check_int, check_real, lambda_limit, nu_p
from .populations import (
    RADEMACHER,
    STANDARD_NORMAL,
    STUDENT_T_STANDARDIZED,
    PopulationSpec,
    SeedSpec,
    draw,
    parallel_map,
)
from .serial import JsonRecord
from .statcore import comb_capped

# Nominal scalars per replicate block (see ``_count``).
_BLOCK_SCALARS = 2**24
# Values per piece of a factor folded into a block's product (see ``_fold``): 256 KB.
_PIECE = 2**15

_NORMAL = PopulationSpec(STANDARD_NORMAL)

MIN_EXPECTED_HITS_LAMBDA = 50
MIN_EXPECTED_HITS_RATIO = 10


@dataclass(frozen=True)
class TailEstimate(JsonRecord):
    """Binomial Monte Carlo estimate of a tail probability."""

    probability: float
    hits: int
    reps: int
    std_error: float

    @classmethod
    def from_counts(cls, hits: int, reps: int) -> "TailEstimate":
        reps = check_int("reps", reps, 1)
        prob = hits / reps
        return cls(
            probability=prob,
            hits=int(hits),
            reps=int(reps),
            std_error=math.sqrt(prob * (1.0 - prob) / reps),
        )


@dataclass(frozen=True)
class SteinChenReport(JsonRecord):
    """Estimated Poisson-approximation ingredients at a tail parameter z."""

    z: float
    n: int
    p: int
    m: int
    threshold: float
    single_tail: TailEstimate
    lambda_hat: float
    lambda_limit: float
    b1_bound: float
    psi_estimates: dict[int, TailEstimate] = field(default_factory=dict)
    advisory: tuple[str, ...] = ()


@dataclass(frozen=True)
class PairTailSpec:
    """Parameters of the joint pair-tail probability Psi^(s).

    Two tuple sums share the s leading coordinates: with
    xi_k = prod of the s shared draws, eta_k and zeta_k products of m-s
    fresh draws each (2m-s coordinate columns per observation in total),
    the estimated probability is

        P(|sum xi*eta| >= a_n*sqrt(n*log p), |sum xi*zeta| >= a_n*sqrt(n*log p)).
    """

    s: int
    a_n: float
    n: int
    p: int
    m: int
    spec: PopulationSpec

    def __post_init__(self):
        m = check_int("m", self.m, 2)
        check_int("s", self.s, 1, m - 1)
        # the analytic decay reads a_n**2, which overflows past about 1.34e154
        check_real("a_n", self.a_n, 0.0, math.sqrt(sys.float_info.max), ends="(]")
        check_int("n", self.n, 1)
        check_int("p", self.p, 3)


@dataclass(frozen=True)
class RatioReport(JsonRecord):
    """Moderate deviation check: one-sided tail over the Gaussian tail."""

    x: float
    n: int
    m: int
    p_hat: float
    std_error: float
    gaussian_tail: float
    ratio: float
    hits: int
    reps: int
    advisory: tuple[str, ...] = ()


def normal_upper_tail(x: float) -> float:
    """1 - Phi(x) through the complementary error function.

    Relative accuracy is a few ulps across the whole range of interest;
    never computed as one minus a CDF, which would cancel catastrophically
    past x ~ 8.
    """
    return 0.5 * math.erfc(check_real("x", x, finite=False) / math.sqrt(2.0))


def _b1_factor(p: int, m: int) -> float:
    """b1 / tail**2 = C(p, m) * (C(p, m) - C(p - m, m)) for integers 2 <= m <= p; ValueError if it overflows.

    C(p, m) - C(p - m, m) counts the tuples that share a coordinate with
    a given one, the tuple itself included.  For m = 2 the factor
    overflows for p above about 5.6e102.
    """
    p = check_int("p", p, 2)
    m = check_int("m", m, 2, p)
    tuples = comb_capped(p, m, 2**1024)
    if tuples <= 2**1024:  # exact, and so is C(p - m, m) <= C(p, m)
        disjoint = comb_capped(p - m, m, tuples) if p >= 2 * m else 0
        with contextlib.suppress(OverflowError):
            return float(tuples * (tuples - disjoint))
    raise ValueError(f"p={p} is too large for m={m}: C(p, m) * (C(p, m) - C(p - m, m)) overflows float64")


def b1_bound(p: int, m: int, single_tail: float) -> float:
    """First clustering bound C(p, m) * (C(p, m) - C(p - m, m)) * tail**2.

    C(p, m) counts the tuples and C(p, m) - C(p - m, m) the tuples that
    share at least one coordinate with a given one, itself included: the
    exact neighbourhood, about m**2 * p**(m-1) / m! for p much larger
    than m.  With tail ~ m!/p**m the bound decays like 1/p.  A (p, m)
    whose factor overflows float64 raises ValueError.
    """
    single_tail = check_real("single_tail", single_tail, 0.0, 1.0)
    return _b1_factor(p, m) * single_tail * single_tail


def _fold(shape, factors, out: np.ndarray | None = None) -> np.ndarray | None:
    """out op_1 f_1 op_2 f_2 ... over fresh factors, in draw order; ``out`` is not modified.

    ``factors`` lists (fill, op) pairs, op np.multiply or np.divide:
    fill(shape, buf) returns the factor's next draws in an array of
    that shape, written into the float64 array ``buf`` if given.  The
    first factor is drawn at full size and becomes the accumulator,
    op_1 applied to ``out`` if given (f_1 itself if not).  Every later
    factor is drawn in flat pieces of at most ``_PIECE`` values into one
    reused buffer, each folded into its slice of the flattened
    accumulator in place.  The pieces take the generator's values in the
    order of one whole-array draw, so the result has the bits of folding
    whole factors, and a block holds one (count, n) array per live
    product.  None if there is no factor and no ``out``.
    """
    if not factors:
        return out
    (fill, op), *later = factors
    acc = fill(shape)
    if out is not None:
        op(out, acc, out=acc)
    flat = acc.reshape(-1)
    buf = np.empty(min(_PIECE, flat.size))
    for fill, op in later:
        for start in range(0, flat.size, _PIECE):
            piece = flat[start : start + _PIECE]
            op(piece, fill(piece.shape, buf[: piece.size]), out=piece)
    return acc


def _squares(
    spec: PopulationSpec, rng: np.random.Generator, shape, normals: int, gammas: int, out: np.ndarray | None = None
) -> np.ndarray | None:
    """out * (Z_1 * ... * Z_normals)**2 * k/G_1 * ... * k/G_gammas over fresh draws; ``out`` is not modified.

    Each Z is drawn by ``draw``, as the float path's factors are.  G/k
    is drawn as Gamma(df/2, scale 1/k), with k = (df-2)/2: k enters
    factor by factor, and k**gammas, which overflows at a huge df, is
    never formed.  The normals come first, so a product that starts
    from no ``out`` starts from Z_1**2.
    """

    def square(size, buf=None):
        z = draw(_NORMAL, rng, size, out=buf)
        return np.square(z, out=z)

    def gamma(size, buf=None):
        # numpy's gamma(a, scale) is scale * standard_gamma(a), value by value
        g = rng.standard_gamma(spec.df / 2.0, size, out=buf)
        return np.multiply(g, 2.0 / (spec.df - 2.0), out=g)

    return _fold(shape, [(square, np.multiply)] * normals + [(gamma, np.divide)] * gammas, out)


def _product(spec: PopulationSpec, rng: np.random.Generator, shape, k: int) -> np.ndarray | None:
    """Product of k fresh float64 factors, None for k = 0."""
    return _fold(shape, [(lambda size, buf=None: draw(spec, rng, size, out=buf), np.multiply)] * k)


def _product_sums(
    spec: PopulationSpec, rng: np.random.Generator, shape, shared: int, fresh: int, copies: int
) -> list[np.ndarray]:
    """Row sums of xi * eta_c for c < copies, each unscaled with shape (count,).

    xi is the product of ``shared`` factors common to every copy and eta_c
    the product of ``fresh`` factors of its own; each factor is a
    (count, n) array of i.i.d. draws from ``spec``.  The sums are jointly
    distributed as the plain ones: a normal or Student t sum is
    sqrt(V) * Z given its conditional variance V, a Rademacher sum is
    one binomial draw, and the exponential and uniform factors are drawn
    and multiplied in float64.  The module docstring gives the details.
    """
    count, n = shape
    if spec.family == RADEMACHER:
        return [(n - 2 * rng.binomial(n, 0.5, count)).astype(np.float64) for _ in range(copies)]
    if spec.family in (STANDARD_NORMAL, STUDENT_T_STANDARDIZED):
        # gamma draws per factor: a normal factor is the mixture with none
        gammas = int(spec.family == STUDENT_T_STANDARDIZED)
        if shared + fresh == 2 and not gammas:
            # V is one squared normal factor: one chi2_n draw, common to the copies if shared
            chi2 = [rng.chisquare(n, count) for _ in range(1 if shared else copies)]
            variances = chi2 * (copies if shared else 1)
        else:
            weight = _squares(spec, rng, shape, shared, gammas * shared)
            variances = [
                _squares(spec, rng, shape, fresh - 1, gammas * fresh, weight).sum(axis=1) for _ in range(copies)
            ]
        return [np.sqrt(v) * rng.standard_normal(count) for v in variances]
    xi = _product(spec, rng, shape, shared)
    sums = []
    for _ in range(copies):
        eta = _product(spec, rng, shape, fresh)
        if xi is not None:
            eta *= xi
        sums.append(eta.sum(axis=1))
        del eta
    return sums


def _tail_kernel(rng, count: int, spec: PopulationSpec, n: int, m: int, sided: str, threshold: float) -> int:
    """Hits |S|/sqrt(n) > t (two-sided) or S/sqrt(n) >= x (one-sided) among ``count`` sums."""
    (sums,) = _product_sums(spec, rng, (count, n), 0, m, 1)
    scaled = sums / math.sqrt(n)
    if sided == TWO_SIDED:
        # IEEE division is sign-symmetric: this counts |S|/sqrt(n) > t exactly.
        return int(np.count_nonzero(np.abs(scaled) > threshold))
    return int(np.count_nonzero(scaled >= threshold))


def _pair_kernel(rng, count: int, spec: PopulationSpec, n: int, s: int, m: int, threshold: float) -> int:
    """Hits |S1| >= t and |S2| >= t among ``count`` unscaled pair sums sharing s factors."""
    s1, s2 = _product_sums(spec, rng, (count, n), s, m - s, 2)
    return int(np.count_nonzero((np.abs(s1) >= threshold) & (np.abs(s2) >= threshold)))


def _block_generator(seed: SeedSpec, block: int) -> np.random.Generator:
    """SFC64 generator of sub-stream (seed, block), keyed by SeedSequence((master_seed, stream_id, block))."""
    ss = np.random.SeedSequence((int(seed.master_seed), int(seed.stream_id), int(block)))
    return np.random.Generator(np.random.SFC64(ss))


def _count(kernel, params: tuple, reps: int, scalars_per_rep: int, seed: SeedSpec, workers: int) -> TailEstimate:
    """Sum ``kernel(rng, count, *params)`` over the blocks of ``reps`` >= 1 replicates.

    The layout depends only on (reps, scalars_per_rep) and block i draws
    from sub-stream (seed, i), so the count is the same at any worker count.
    A running block holds one (count, n) array per live product, later
    factors folded in through a fixed piece buffer (module docstring).
    """
    block = max(1, min(reps, _BLOCK_SCALARS // max(1, scalars_per_rep)))
    sizes = [block] * (reps // block) + ([reps % block] if reps % block else [])

    def run_block(i: int) -> int:
        return kernel(_block_generator(seed, i), sizes[i], *params)

    return TailEstimate.from_counts(sum(parallel_map(run_block, range(len(sizes)), workers)), reps)


def _single_tail(
    spec: PopulationSpec, n: int, m: int, sided: str, threshold: float, reps: int, seed: SeedSpec, workers: int
) -> TailEstimate:
    """The single-tail kernel's count over reps n-term sums of m-fold products."""
    m, n, reps = check_int("m", m, 2), check_int("n", n, 1), check_int("reps", reps, 1)
    threshold = check_real("threshold", threshold, finite=False)
    return _count(_tail_kernel, (spec, n, m, sided, threshold), reps, n * m, seed, workers)


def estimate_single_tail(
    spec: PopulationSpec,
    n: int,
    m: int,
    threshold: float,
    reps: int,
    seed: SeedSpec,
    workers: int = 1,
) -> TailEstimate:
    """Estimate P(|sum_k psi_k| / sqrt(n) > threshold) for m-fold products.

    psi_k is a product of m i.i.d. draws from the population, so the sum
    has mean 0 and variance n.  The threshold is in the units of the
    sqrt(n)-scaled statistic.  Every threshold is counted, 0 too: a
    Rademacher sum at an even n is 0, not above it, with positive probability.

    Deterministic for fixed (seed, reps) at any worker count: draws come
    in fixed-size blocks with one sub-stream each and the counts add up
    order-free.
    """
    return _single_tail(spec, n, m, TWO_SIDED, threshold, reps, seed, workers)


def estimate_lambda(
    z: float,
    n: int,
    p: int,
    m: int,
    spec: PopulationSpec,
    reps: int,
    seed: SeedSpec,
    workers: int = 1,
) -> SteinChenReport:
    """Estimate the Poisson intensity lambda at tail parameter z.

    lambda_hat = C(p, m) * P(|tuple sum|/sqrt(n) > sqrt(2m) * nu_p(z)),
    to be compared with the limit exp(-z/2).  The report also carries the
    induced b1 bound.  Because the draws depend only on
    (spec, n, m, seed, reps), estimates at different z on the same seed
    use common random numbers and are monotone in z.
    """
    nu = nu_p(z, p, m)
    # b1 and lambda_hat need C(p, m) as a float: checked before the draws
    _b1_factor(p, m)
    threshold = math.sqrt(2.0 * m) * nu
    tail = estimate_single_tail(spec, n, m, threshold, reps, seed, workers=workers)
    lam_hat = math.comb(p, m) * tail.probability
    advisory = []
    # Asymptotic single-tail m!/p**m * exp(-z/2) predicts the hit count.
    expected = reps * math.exp(math.lgamma(m + 1) - m * math.log(p) - 0.5 * z)
    if expected < MIN_EXPECTED_HITS_LAMBDA:
        advisory.append(
            f"expected hits ~{expected:.1f} < {MIN_EXPECTED_HITS_LAMBDA}; "
            f"increase reps for a meaningful standard error"
        )
    return SteinChenReport(
        z=float(z),
        n=int(n),
        p=int(p),
        m=int(m),
        threshold=threshold,
        single_tail=tail,
        lambda_hat=lam_hat,
        lambda_limit=lambda_limit(z),
        b1_bound=b1_bound(p, m, tail.probability),
        psi_estimates={},
        advisory=tuple(advisory),
    )


def estimate_pair_tail(
    pspec: PairTailSpec,
    reps: int,
    seed: SeedSpec,
    workers: int = 1,
) -> TailEstimate:
    """Joint tail of two tuple sums sharing the s leading coordinates.

    The shared xi columns induce the dependence; eta and zeta use fresh
    draws.  Thresholds are a_n * sqrt(n * log p) on the unscaled sums.
    """
    n, s, m = pspec.n, pspec.s, pspec.m
    threshold = pspec.a_n * math.sqrt(n * math.log(pspec.p))
    reps = check_int("reps", reps, 1)
    return _count(_pair_kernel, (pspec.spec, n, s, m, threshold), reps, n * (2 * m - s), seed, workers)


def pair_tail_decay_exponents(pspec: PairTailSpec) -> dict:
    """Analytic decay rates of the pair tail in p, reported not estimated.

    Under the sub-exponential moment condition the tail is
    o(p**(-a**2 + eps)) with a the limiting threshold multiplier; under
    the polynomial-growth moment condition it is O(p**(-2m + delta)).
    Plain Monte Carlo cannot observe probabilities at those scales, which
    is why the estimator accepts reduced thresholds instead.
    """
    return {
        "subexponential_exponent": -(pspec.a_n**2),
        "polynomial_exponent": -2.0 * pspec.m,
    }


def moderate_deviation_ratio(
    spec: PopulationSpec,
    m: int,
    n: int,
    x: float,
    reps: int,
    seed: SeedSpec,
    workers: int = 1,
) -> RatioReport:
    """Estimate P(S_n / sqrt(n) >= x) / (1 - Phi(x)) for product summands.

    S_n sums n i.i.d. m-fold products (one-sided tail, matching the
    moderate deviation statement).  A ratio near 1 is the Gaussian tail
    equivalence at work.  If the expected hit count falls below
    MIN_EXPECTED_HITS_RATIO the report carries an advisory flag rather
    than failing.
    """
    gauss = normal_upper_tail(check_real("x", x, 0.0))
    # The tail is subnormal past x ~ 37.5, where one hit overflows the ratio, and 0 past x ~ 38.5.
    if gauss < sys.float_info.min:
        raise ValueError(f"x must be finite with a Gaussian tail above 2.2e-308 (x below about 37.5), got {x}")
    est = _single_tail(spec, n, m, ONE_SIDED, x, reps, seed, workers)
    advisory = []
    if reps * gauss < MIN_EXPECTED_HITS_RATIO:
        advisory.append(
            f"expected hits ~{reps * gauss:.2f} < {MIN_EXPECTED_HITS_RATIO}; "
            f"the ratio estimate is unreliable at this x"
        )
    return RatioReport(
        x=float(x),
        n=int(n),
        m=int(m),
        p_hat=est.probability,
        std_error=est.std_error,
        gaussian_tail=gauss,
        ratio=est.probability / gauss,
        hits=est.hits,
        reps=int(reps),
        advisory=tuple(advisory),
    )


def stein_chen_report(
    z: float,
    n: int,
    p: int,
    m: int,
    spec: PopulationSpec,
    reps: int,
    seed: SeedSpec,
    a_n: float | None = None,
    workers: int = 1,
) -> SteinChenReport:
    """Full diagnostic: lambda, b1 bound and pair tails for every overlap s.

    The third clustering term of the Poisson bound vanishes identically
    here because a tuple's entry is independent of all entries sharing no
    coordinate with it, so lambda, b1 and the pair tails are the whole
    story.  Pair tails use ``reps`` replicates at threshold multiplier ``a_n``
    (default: the asymptotically exact sqrt(2m) * nu_p(z) / sqrt(log p),
    usually unobservable; pass a reduced value to see hits).
    """
    # Every argument is checked before the lambda draws: z, p and m here.
    nu = nu_p(z, p, m)
    if a_n is None:
        a_n = math.sqrt(2.0 * m / math.log(p)) * nu
    pspecs = [PairTailSpec(s=s, a_n=a_n, n=n, p=p, m=m, spec=spec) for s in range(1, m)]
    report = estimate_lambda(z, n, p, m, spec, reps, seed, workers=workers)
    psi = {ps.s: estimate_pair_tail(ps, reps, seed, workers=workers) for ps in pspecs}
    return replace(report, psi_estimates=psi)
