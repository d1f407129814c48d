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
  replicate).  At an even df <= 8, G is the sum of df/2 unit
  exponentials, -log((1 - U_1) * ... * (1 - U_df/2)) with U uniform,
  drawn in 0.4 to 0.9 of the time of numpy's Marsaglia-Tsang
  ``standard_gamma``, which every other df keeps;
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

Every estimator counts through one counter, ``_count``, and hands it
one sum layout and one hit test.  The layout is (shared factors, fresh
factors per copy, copies): (0, m, 1) for a single tail, (s, m - s, 2)
for a pair tail.  The hit test maps a block's unscaled sums to the
replicates that cross the threshold.  ``_count`` checks n (at most
2**63 - 1, numpy's binomial takes an int64) and reps, holds the
request to its budget of drawn values before any draw (``_draws``,
``statcore.check_budget``; 1e10 by default, the ceiling of ``test``
and ``simulate``; a uniform gamma counts its df/2 uniforms), and cuts
the replicates into blocks of about ``_BLOCK_SCALARS`` nominal
scalars, n * (shared + copies * fresh) per replicate.  Block i draws
from its own sub-stream (seed, i), and the blocks' hit counts are
merged by integer addition.  So every estimate is deterministic for a
given (seed, reps) at any worker count.  A block's sub-stream is an
SFC64 generator keyed by SeedSequence((master_seed, stream_id, i)),
built by ``_block_generator``: SFC64 draws normals and gammas about
1.45 times as fast as the Philox generator of the data streams
(``populations.make_generator``).  ``stein_chen_report`` draws its
pair part of overlap s from sub-streams (seed, i, s), so that it
shares no draw with the lambda part or another pair part.

The uniform gammas take np.log, whose float64 kernels follow numpy's
SIMD dispatch in the last bit.  So ``_count`` screens each such block,
as ``statcore`` screens an enumeration: the hit test runs on the sums
scaled by 1 - delta and 1 + delta, with delta (``_band``) a wide bound
on how far the logs' last bits can move a sum, and a block with a
replicate inside that band is drawn again from its sub-stream with
``math.log``.  Every count is then that of the math.log sums, on any
CPU.

A float block (exponential and uniform factors, every Student t sum,
and a normal sum unless it is one chi2 draw) is drawn piece by piece
(``_fold``).  The flattened (count, n) block is cut into pieces of at
most ``_PIECE`` values: whole rows when n <= ``_PIECE``, otherwise
consecutive chunks of one row.  For each piece, every factor of the
product is drawn in turn into a reused piece buffer and folded in
place, the shared factors first, then each copy's fresh ones (for the
normal and t families, the normals, then the scaled gammas; a uniform
gamma half a piece at a time inside the reused buffer, see
``_squares``), and the piece's row sums go into the block's (count,)
sums; the normals of sqrt(V) * Z are drawn after the pieces.  So a
block holds its sums and at most three piece buffers (768 KB),
whatever count and n are: memory is O(piece) per block, not
O(count * n).  The piece size is part of the stream layout, as
``_BLOCK_SCALARS`` is: another piece size draws the same laws with
other bits.  A Rademacher sum is one binomial draw and never uses
pieces.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import check_int, check_real, lambda_limit, nu_p
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
from .statcore import DEFAULT_COST_CEILING, Draws, check_budget, comb_capped

# Nominal scalars per replicate block (see ``_count``).
_BLOCK_SCALARS = 2**24
# Values per piece of a block, drawn and folded piece by piece (see ``_fold``): 256 KB.
_PIECE = 2**15
# Largest n: numpy's binomial takes an int64 number of trials.
_MAX_N = 2**63 - 1
# Largest even df whose gammas are uniform products (see ``_squares``).  Per
# gamma they took 0.37, 0.53 and 0.67 of standard_gamma's time at df 4, 6
# and 8 with numpy's AVX-512 kernels, and 0.58, 0.74 and 0.89 with its
# baseline ones; at df 10, 0.82 and 1.07 (Xeon, 2 vCPUs, numpy 2.4).
_UNIFORM_GAMMA_DF = 8
# ulps between numpy's float64 log and math.log: numpy validates its log
# within 1 ulp of the correctly rounded value, and glibc's is within 1 ulp.
_LOG_ULPS = 2

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
        # the threshold reads n * log(p) before ``_count`` checks it
        check_int("n", self.n, 1, _MAX_N)
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


def _pieces(count: int, n: int):
    """(first row, rows, width) of each piece of a (count, n) block, in draw order.

    A piece holds at most ``_PIECE`` values: as many whole rows as fit,
    or, for a row longer than that, consecutive chunks of the row.
    """
    rows = max(1, _PIECE // n)
    for row in range(0, count, rows):
        for start in range(0, n, _PIECE):
            yield row, min(rows, count - row), min(_PIECE, n - start)


def _fold(shape, shared: list, fresh: list, copies: int) -> list[np.ndarray]:
    """Row sums of xi * eta_c for c < copies over a (count, n) block, drawn piece by piece.

    ``shared`` and ``fresh`` list the factors of xi and of each eta_c as
    folds: fold(buf, spare, base) writes base times (or divided by) the
    factor's next draws into the piece buffer ``buf``, where ``base`` is
    None for a product's first factor (``buf`` then takes the factor
    itself), xi for a copy's first factor, or ``buf`` for a later one,
    and ``spare`` is a free piece buffer of the same shape.  For each
    piece in turn (``_pieces``), xi's factors are folded, then each
    copy's.  A copy with no factor of its own sums xi.  The piece's row
    sums then go into the copy's sums.  So a block holds its (count,)
    sums and at most three piece buffers (768 KB), whatever count and n
    are, and the piece size is part of the stream layout, as
    ``_BLOCK_SCALARS`` is.
    """
    count, n = shape
    sums = [np.zeros(count) for _ in range(copies)]
    size = min(count, max(1, _PIECE // n)) * min(n, _PIECE)
    scratch, acc, xi_buf = np.empty(size), np.empty(size), np.empty(size) if shared else None

    def product(factors, buf, spare, base):
        for fold in factors:
            fold(buf, spare, base)
            base = buf
        return base

    for row, rows, width in _pieces(count, n):

        def view(buf):  # C-contiguous, so a fold may also read it flat
            return buf[: rows * width].reshape(rows, width)

        xi = product(shared, view(xi_buf), view(scratch), None) if shared else None
        for total in sums:
            eta = product(fresh, view(acc), view(scratch), xi)
            if width == n:  # whole rows: each row sum is written once
                eta.sum(axis=1, out=total[row : row + rows])
            else:
                total[row] += eta.sum()
    return sums


def _drawn(fill, op):
    """The fold of a factor that fill(buf) draws whole into a piece buffer, applied by op (np.multiply or np.divide).

    A product's first factor is drawn into the product's buffer, op
    applied to xi if the copy has one; a later factor is drawn into the
    spare buffer and folded in place.
    """

    def fold(buf, spare, base):
        if base is buf:
            op(buf, fill(spare), out=buf)
        else:
            fill(buf)
            if base is not None:
                op(base, buf, out=buf)

    return fold


def _uniform_gamma_shape(spec: PopulationSpec) -> int:
    """df/2 for a Student t whose gammas are uniform products (even df <= ``_UNIFORM_GAMMA_DF``), else 0."""
    if spec.family == STUDENT_T_STANDARDIZED and spec.df % 2 == 0 and spec.df <= _UNIFORM_GAMMA_DF:
        return spec.df // 2
    return 0


def _math_log(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """math.log of each value of the flat ``x``, written into ``out``: the reference for numpy's log."""
    out[:] = np.fromiter(map(math.log, x.tolist()), np.float64, x.size)
    return out


def _squares(spec: PopulationSpec, rng: np.random.Generator, normals: int, gammas: int, log=np.log) -> list:
    """Folds of (Z_1 * ... * Z_normals)**2 * k/G_1 * ... * k/G_gammas, for ``_fold``.

    Each Z is drawn by ``draw``, as the float path's factors are.  The
    normals come first, so a product that starts from no xi starts from
    Z_1**2, and a gamma always divides a product that is already there.
    G/k is drawn as Gamma(df/2, scale 1/k), with k = (df-2)/2: k enters
    factor by factor, and k**gammas, which overflows at a huge df, is
    never formed.

    For an even df <= ``_UNIFORM_GAMMA_DF``, G = -log((1 - U_1) * ... *
    (1 - U_a)) with a = df/2 uniforms from ``rng.random``, a sum of a
    unit exponentials; otherwise G is numpy's ``standard_gamma``.  The
    uniform gammas are folded into the product half a piece at a time
    inside the spare buffer: its first half holds the running product of
    the 1 - U, its second half takes each next uniform, and the log
    (``log``, np.log or ``_math_log``) turns the first half into G/k.
    Every step but the log is exact or correctly rounded, so np.log's
    SIMD kernels move these sums by at most ``_band`` (see ``_count``).
    """

    def square(buf):
        z = draw(_NORMAL, rng, buf.shape, out=buf)
        return np.square(z, out=z)

    def gamma(buf):
        # numpy's gamma(a, scale) is scale * standard_gamma(a), value by value
        g = rng.standard_gamma(spec.df / 2.0, buf.shape, out=buf)
        return np.multiply(g, 2.0 / (spec.df - 2.0), out=g)

    shape = _uniform_gamma_shape(spec)

    def uniform_gamma(buf, spare, base):
        # G/k = -log(prod) * 2/(df-2), bit for bit log(prod) * scale
        scale = -2.0 / (spec.df - 2.0)
        out, base, work = buf.reshape(-1), base.reshape(-1), spare.reshape(-1)
        half = work.size // 2 or 1
        # a one-value piece has no second half: its uniforms take one value of their own
        uniforms = work[half : 2 * half] if work.size > 1 else np.empty(1)
        for start in range(0, out.size, half):
            stop = min(start + half, out.size)
            prod, u = work[: stop - start], uniforms[: stop - start]
            np.subtract(1.0, rng.random(out=prod), out=prod)
            for _ in range(shape - 1):
                np.multiply(prod, np.subtract(1.0, rng.random(out=u), out=u), out=prod)
            np.multiply(log(prod, out=prod), scale, out=prod)
            np.divide(base[start:stop], prod, out=out[start:stop])

    weight = uniform_gamma if shape else _drawn(gamma, np.divide)
    return [_drawn(square, np.multiply)] * normals + [weight] * gammas


def _product(spec: PopulationSpec, rng: np.random.Generator, k: int) -> list:
    """Folds of a product of k float64 draws from ``spec``, for ``_fold``."""
    return [_drawn(lambda buf: draw(spec, rng, buf.shape, out=buf), np.multiply)] * k


def _product_sums(
    spec: PopulationSpec, rng: np.random.Generator, shape, shared: int, fresh: int, copies: int, log=np.log
) -> list[np.ndarray]:
    """Row sums of xi * eta_c for c < copies, each unscaled with shape (count,).

    xi is the product of ``shared`` factors common to every copy and eta_c
    the product of ``fresh`` factors of its own; each factor is a
    (count, n) array of i.i.d. draws from ``spec``.  The sums are jointly
    distributed as the plain ones: a normal or Student t sum is
    sqrt(V) * Z given its conditional variance V, a Rademacher sum is
    one binomial draw, and the exponential and uniform factors are drawn
    and multiplied in float64.  ``log`` takes the logs of the uniform
    gammas (``_squares``).  The module docstring gives the details.
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
            xi = _squares(spec, rng, shared, gammas * shared, log)
            variances = _fold(shape, xi, _squares(spec, rng, fresh - 1, gammas * fresh, log), copies)
        # the last factor's normals, integrated out: one normal per sum, drawn after the pieces
        return [np.sqrt(v) * rng.standard_normal(count) for v in variances]
    return _fold(shape, _product(spec, rng, shared), _product(spec, rng, fresh), copies)


def _draws(spec: PopulationSpec, n: int, shared: int, fresh: int, copies: int) -> int:
    """Values that ``_product_sums`` draws for one replicate of these arguments."""
    if spec.family == RADEMACHER:
        return copies
    if spec.family in (STANDARD_NORMAL, STUDENT_T_STANDARDIZED):
        gammas = int(spec.family == STUDENT_T_STANDARDIZED)
        if shared + fresh == 2 and not gammas:
            return (1 if shared else copies) + copies
        # a uniform gamma draws df/2 uniforms
        per_gamma = gammas * (_uniform_gamma_shape(spec) or 1)
        return n * (shared + copies * (fresh - 1) + per_gamma * (shared + copies * fresh)) + copies
    return n * (shared + copies * fresh)


def _block_generator(seed: SeedSpec, block: int, part: tuple = ()) -> np.random.Generator:
    """SFC64 generator of sub-stream (seed, block, *part): SeedSequence((master_seed, stream_id, block, *part))."""
    ss = np.random.SeedSequence((int(seed.master_seed), int(seed.stream_id), int(block), *part))
    return np.random.Generator(np.random.SFC64(ss))


def _band(n: int, m: int) -> float:
    """Relative half-width of a band about a uniform-gamma sum that holds the sum's math.log value.

    With u = 2**-53, np.log and math.log differ by at most ``_LOG_ULPS``
    ulps, 2 * _LOG_ULPS * u relative.  Every later step is correctly
    rounded and adds at most 2u to the relative gap between the two
    paths: each of a term's m gammas its log, scale and division, and
    each of at most m multiplications.  The n positive terms are summed
    in one order on both paths, each sum within gamma_n = n u / (1 - n u)
    of its exact value, which adds 2 gamma_n.  sqrt(V) * Z and the
    scaled sums (S * (1 + delta), then that times
    (1 - delta) / (1 + delta)) add 8u.  The band is 16 times that
    first-order bound.
    """
    u = 2.0**-53
    gamma_n = n * u / (1.0 - n * u) if n * u < 0.5 else math.inf
    return 16.0 * (m * (2 * _LOG_ULPS + 6) * u + 2.0 * gamma_n + 8.0 * u)


def _count(spec: PopulationSpec, n: int, shared: int, fresh: int, copies: int, hit, reps: int, seed: SeedSpec,
           workers: int, budget: int, part: tuple = ()) -> TailEstimate:
    """Replicates among ``reps`` whose ``_product_sums`` of this layout pass ``hit``.

    ``hit(*sums)`` maps a block's unscaled (count,) sums to a boolean
    array, monotone in each sum's size.  The request is held to
    ``budget`` drawn values before any draw.  Replicates are cut into
    blocks of about ``_BLOCK_SCALARS`` nominal scalars,
    n * (shared + copies * fresh) per replicate, and block i draws from
    sub-stream (seed, i, *part), so the count is the same at any worker
    count.

    A block of uniform gammas (``_squares``) takes np.log, whose results
    follow numpy's SIMD dispatch in the last bit.  Its hit test is run
    on its sums scaled in place by 1 + delta and then by 1 - delta, with
    delta = ``_band(n, m)``.  The sums that math.log would give lie
    between the two, and hit is monotone, so where both count the same
    hits those sums pass the same test.  A block whose counts differ
    has a replicate inside the band and is drawn again from its
    sub-stream with ``_math_log``.  So the count is that of math.log on
    any CPU.  A redraw is not charged to the budget.
    """
    n, reps = check_int("n", n, 1), check_int("reps", reps, 1)
    check_budget([Draws(reps * _draws(spec, n, shared, fresh, copies))], budget, "budget")
    # A float sum past this n is over any budget; a binomial or chi2 sum draws O(1) values at any n.
    check_int("n", n, 1, _MAX_N)
    block = max(1, min(reps, _BLOCK_SCALARS // (n * (shared + copies * fresh))))
    sizes = [block] * (reps // block) + ([reps % block] if reps % block else [])
    screened, delta = _uniform_gamma_shape(spec) > 0, _band(n, shared + fresh)

    def run_block(i: int) -> int:
        def sums(log):
            return _product_sums(spec, _block_generator(seed, i, part), (sizes[i], n), shared, fresh, copies, log=log)

        drawn = sums(np.log)
        if not screened:
            return int(np.count_nonzero(hit(*drawn)))
        if delta < 1.0:
            # scaled in place, so the screen holds no copy of the sums; hit
            # is monotone, so the hits at 1 - delta are among those at 1 + delta
            for s in drawn:
                s *= 1.0 + delta
            high = np.count_nonzero(hit(*drawn))
            for s in drawn:
                s *= (1.0 - delta) / (1.0 + delta)
            if np.count_nonzero(hit(*drawn)) == high:
                return int(high)
        return int(np.count_nonzero(hit(*sums(_math_log))))

    return TailEstimate.from_counts(sum(parallel_map(run_block, range(len(sizes)), workers)), reps)


def estimate_single_tail(
    spec: PopulationSpec,
    n: int,
    m: int,
    threshold: float,
    reps: int,
    seed: SeedSpec,
    workers: int = 1,
    budget: int = DEFAULT_COST_CEILING,
) -> TailEstimate:
    """Estimate P(|sum_k psi_k| / sqrt(n) > threshold) for m-fold products.

    psi_k is a product of m i.i.d. draws from the population, so the sum
    has mean 0 and variance n.  The threshold is in the units of the
    sqrt(n)-scaled statistic.  Every threshold is counted, 0 too: a
    Rademacher sum at an even n is 0, not above it, with positive probability.

    Deterministic for fixed (seed, reps) at any worker count: draws come
    in fixed-size blocks with one sub-stream each and the counts add up
    order-free.  A request that would draw more than ``budget`` values
    raises BudgetError before any draw.
    """
    m = check_int("m", m, 2)
    t = check_real("threshold", threshold, finite=False)
    # IEEE division is sign-symmetric: this counts |S|/sqrt(n) > t exactly.
    return _count(spec, n, 0, m, 1, lambda s: np.abs(s / math.sqrt(n)) > t, reps, seed, workers, budget)


def estimate_lambda(
    z: float,
    n: int,
    p: int,
    m: int,
    spec: PopulationSpec,
    reps: int,
    seed: SeedSpec,
    workers: int = 1,
    budget: int = DEFAULT_COST_CEILING,
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
    tail = estimate_single_tail(spec, n, m, threshold, reps, seed, workers=workers, budget=budget)
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
    budget: int = DEFAULT_COST_CEILING,
) -> TailEstimate:
    """Joint tail of two tuple sums sharing the s leading coordinates.

    The shared xi columns induce the dependence; eta and zeta use fresh
    draws.  Thresholds are a_n * sqrt(n * log p) on the unscaled sums.
    A request that would draw more than ``budget`` values raises
    BudgetError before any draw.
    """
    return _pair_tail(pspec, reps, seed, workers, budget, ())


def _pair_tail(pspec: PairTailSpec, reps: int, seed: SeedSpec, workers: int, budget: int, part: tuple) -> TailEstimate:
    """``estimate_pair_tail`` with block i drawn from sub-stream (seed, i, *part)."""
    n, s, m = pspec.n, pspec.s, pspec.m
    t = pspec.a_n * math.sqrt(n * math.log(pspec.p))
    return _count(pspec.spec, n, s, m - s, 2, lambda s1, s2: (np.abs(s1) >= t) & (np.abs(s2) >= t),
                  reps, seed, workers, budget, part)


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
    budget: int = DEFAULT_COST_CEILING,
) -> RatioReport:
    """Estimate P(S_n / sqrt(n) >= x) / (1 - Phi(x)) for product summands.

    S_n sums n i.i.d. m-fold products (one-sided tail, matching the
    moderate deviation statement).  A ratio near 1 is the Gaussian tail
    equivalence at work.  If the expected hit count falls below
    MIN_EXPECTED_HITS_RATIO the report carries an advisory flag rather
    than failing.
    """
    x = check_real("x", x, 0.0)
    gauss = normal_upper_tail(x)
    # The tail is subnormal past x ~ 37.5, where one hit overflows the ratio, and 0 past x ~ 38.5.
    if gauss < sys.float_info.min:
        raise ValueError(f"x must be finite with a Gaussian tail above 2.2e-308 (x below about 37.5), got {x}")
    m = check_int("m", m, 2)
    est = _count(spec, n, 0, m, 1, lambda s: s / math.sqrt(n) >= x, reps, seed, workers, budget)
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
    budget: int = DEFAULT_COST_CEILING,
) -> SteinChenReport:
    """Full diagnostic: lambda, b1 bound and pair tails for every overlap s.

    The third clustering term of the Poisson bound vanishes identically
    here because a tuple's entry is independent of all entries sharing no
    coordinate with it, so lambda, b1 and the pair tails are the whole
    story.  Pair tails use ``reps`` replicates at threshold multiplier ``a_n``
    (default: the asymptotically exact sqrt(2m) * nu_p(z) / sqrt(log p),
    usually unobservable; pass a reduced value to see hits).  ``budget``
    bounds the values the whole report draws, checked before any draw.
    The lambda part draws from the sub-streams of ``estimate_lambda``,
    (seed, i), and the pair part of overlap s from sub-streams
    (seed, i, s) of its own, so no two parts share a draw.
    """
    # Every argument is checked before the lambda draws: z, p and m here.
    nu = nu_p(z, p, m)
    if a_n is None:
        a_n = math.sqrt(2.0 * m / math.log(p)) * nu
    pspecs = [PairTailSpec(s=s, a_n=a_n, n=n, p=p, m=m, spec=spec) for s in range(1, m)]
    reps = check_int("reps", reps, 1)
    parts = [(0, m, 1)] + [(s, m - s, 2) for s in range(1, m)]
    check_budget([Draws(reps * _draws(spec, n, *part)) for part in parts], budget, "budget")
    report = estimate_lambda(z, n, p, m, spec, reps, seed, workers=workers, budget=budget)
    psi = {ps.s: _pair_tail(ps, reps, seed, workers, budget, (ps.s,)) for ps in pspecs}
    return replace(report, psi_estimates=psi)
