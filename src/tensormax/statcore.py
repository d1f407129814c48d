"""Maximum off-diagonal entry of the order-m sample product tensor.

The statistic is the maximum over strictly increasing index m-tuples
(i_1 < ... < i_m) of

    | sum_k x[k, i_1] * ... * x[k, i_m] | / sqrt(n),

together with its signed counterpart (no absolute value) and the
multi-population variant where the factor at depth s comes from the s-th
matrix.  Tuples with repeated indices (the generalized diagonal) are
excluded by construction.

Two evaluation paths are provided and are required to agree bit for bit,
argmax tuples included:

* :func:`max_entry_bruteforce` is the reference.  It builds each tuple's
  product left to right in index order as a contiguous length-n vector,
  reduces it with numpy's deterministic pairwise ``np.sum`` and divides
  by sqrt(n).  That value is the *canonical* entry.
* :func:`max_entry` screens every tuple with BLAS and recomputes only a
  few candidates the canonical way.

**The screen.**  Prefixes of depth m-2 are walked depth-first, carrying
the left-to-right partial product q across shared prefixes.  For a
prefix whose last index is s-1, the last two tuple levels are one matrix
product, G = (q * X[:, s:])^T X[:, s:] / sqrt(n), whose strict upper
triangle holds every tuple (prefix, a, b) with s <= a < b.  For m = 2
there is no prefix and G = X^T X / sqrt(n).  Prefixes that end at the
same index share X[:, s:], so they are stacked into one GEMM, and rows
are tiled so that no tile holds more than about a million entries.

**The bound.**  A GEMM entry sums in its own order and may fuse
multiply-adds, so it can differ from the canonical entry in the last
bits.  Both are inner products of the same rounded vectors y = q * x_a
and x_b, so each lies within gamma_k * sum_i |y_i x_bi| of the exact sum,
with gamma_k = k u / (1 - k u) and u = 2**-53 (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.1).  Cauchy-Schwarz
bounds the sum by ||y|| ||x_b||, which needs only column norms, so

    slack = 2 gamma_{n+m+2} ||y|| ||x_b|| / sqrt(n) + 2 (sqrt(n) + 1) 2**-1074

bounds the distance from each screened entry both to the exact sum and
to the canonical entry.  The index n+m+2 rather than n covers the
division by sqrt(n) and the rounding of the norms and of the slack
itself.  The second term covers underflow: a product that lands among
the subnormals may lose up to 2**-1075 outright, which no relative bound
sees, and the squared norms get a floor of n * 2**-1074 for the same
reason.

**The recheck.**  Let L be the largest |G| - slack over all tuples.
Every canonical |entry| is at least its own |G| - slack, so the maximum
is at least L, and any tuple that attains it has |G| + slack >= L.  Only
those candidates, and the same set for the signed G, are recomputed the
canonical way, and the winner is chosen among the canonical values with
the smallest-tuple tie-break.  The screen thus decides only which tuples
to recompute, never which one wins, and the result is bit-identical to
the oracle for every finite input.  On continuous data the slack is
about 1e-13 of the entries, far below the gaps near the maximum, so a
call rechecks the winners and rarely more; exact ties and near ties all
become candidates.

**Overflow.**  The bound needs every partial sum to stay finite.  A
tuple whose G entry or slack is not finite, or whose ||y|| ||x_b|| comes
within a factor of four of the largest double, is recomputed the
canonical way at once.  A non-finite canonical entry raises ValueError
("tuple sums overflow float64"), exactly when the oracle raises.

:func:`enumeration_cost` counts n * sum_{s=1..m} C(p, s) multiply-adds,
the work of sharing prefixes down to single triangle entries, and stays
the budget unit.  The screen does that work at m = 2 (one symmetric
rank-n update) and at most twice it at the last level for m >= 3, where
each prefix's product is a full square.  Reported tuples are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .populations import check_workers
from .serial import JsonRecord

DEFAULT_COST_CEILING = 10**10
ORACLE_COST_CEILING = 10**7
_SATURATION = 2**63 - 1

_OVERFLOW_MESSAGE = "tuple sums overflow float64"

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
# Below this, ||y|| ||x_b|| * (1 + gamma_n) cannot reach the largest double.
_ENVELOPE_LIMIT = float(np.finfo(np.float64).max) / 4.0
# Entries per screened tile (8 MB per float64 array).
_TILE_ENTRIES = 2**20
# Candidates held before an early recheck; bounds memory on tie-heavy data.
_PENDING_LIMIT = 4096


class BudgetError(RuntimeError):
    """Raised before any work when the estimated cost exceeds the ceiling."""


@dataclass(frozen=True)
class EnumerationCost:
    """Predicted size of a full enumeration.

    ``multiply_adds`` counts the work of the prefix-sharing scheme,
    n * sum_{s=1..m} C(p, s).  Counts above 2**63 - 1 are clamped and
    flagged as saturated.
    """

    tuples: int
    multiply_adds: int
    saturated: bool


@dataclass(frozen=True)
class StatResult(JsonRecord):
    """Maximum entry statistics and their attaining index tuples.

    ``argmax_abs`` and ``argmax_signed`` are 1-based strictly increasing
    tuples.  ``w_abs >= w_signed`` always, and ``tuple_count`` is C(p, m).
    """

    w_abs: float
    w_signed: float
    argmax_abs: tuple[int, ...]
    argmax_signed: tuple[int, ...]
    n: int
    p: int
    m: int
    tuple_count: int


def enumeration_cost(p: int, m: int, n: int) -> EnumerationCost:
    """Closed-form cost estimate for enumerating all increasing m-tuples."""
    if p < 1 or m < 1 or n < 1:
        raise ValueError(f"invalid dimensions p={p}, m={m}, n={n}")
    if m > p:
        raise ValueError(f"m must be <= p, got m={m}, p={p}")
    tuples = math.comb(p, m)
    nodes = sum(math.comb(p, s) for s in range(1, m + 1))
    ops = n * nodes
    saturated = tuples > _SATURATION or ops > _SATURATION
    return EnumerationCost(
        tuples=min(tuples, _SATURATION),
        multiply_adds=min(ops, _SATURATION),
        saturated=saturated,
    )


def load_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV of decimal floats as an n-by-p matrix."""
    values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return np.ascontiguousarray(values)


def _as_matrix(X) -> np.ndarray:
    A = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if A.ndim != 2:
        raise ValueError(f"data matrix must be 2-dimensional, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"data matrix must be non-empty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("data matrix contains non-finite values")
    return A


def check_budget(p: int, m: int, n: int, ceiling: int) -> None:
    """Raise BudgetError when enumerating (p, m, n) needs more than ``ceiling`` multiply-adds."""
    cost = enumeration_cost(p, m, n)
    if cost.saturated or cost.multiply_adds > ceiling:
        ops = "more than 9.2e18" if cost.saturated else f"{cost.multiply_adds:,}"
        raise BudgetError(
            f"enumeration needs an estimated {ops} multiply-adds for "
            f"p={p}, m={m}, n={n}, above the ceiling of {ceiling:,}; "
            f"raise cost_ceiling to override"
        )


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _norm_bounds(squares: np.ndarray, n: int) -> np.ndarray:
    """Upper bounds on Euclidean norms of length-n vectors, from their computed squared sums.

    The sums are raised by their relative rounding bound and by an
    absolute floor for squares lost to underflow.
    """
    squares *= 1.0 + 2.0 * _gamma(n)
    squares += n * _SMALLEST_SUBNORMAL
    return np.sqrt(squares, out=squares)


def _heads(mats: list[np.ndarray], depth: int, stop: int, start: int = 0, partial=None, head=()):
    """Increasing ``depth``-tuples below ``stop``, lexicographic, with their products.

    The product is built left to right and shared depth-first between
    tuples with a common start; it is None for the empty tuple.
    """
    d = len(head)
    if d == depth:
        yield head, partial
        return
    for i in range(start, stop - depth + d + 1):
        col = mats[d][:, i]
        yield from _heads(mats, depth, stop, i + 1, col if partial is None else partial * col, head + (i,))


def _prefix_groups(mats: list[np.ndarray], p: int, n: int):
    """Prefixes of depth m-2 grouped by their last index, in screen-sized chunks.

    Yields ``(prefixes, s, Q)``: every prefix ends at index s-1 and
    ``Q[k]`` is the left-to-right product of the factors of
    ``prefixes[k]``.  For m = 2 the only prefix is empty and Q is None.
    """
    m = len(mats)
    if m == 2:
        yield [()], 0, None
        return
    for j in range(m - 3, p - 2):
        w = p - j - 1
        chunk = max(1, _TILE_ENTRIES // (w * max(w, n)))
        x_j = mats[m - 3][:, j]
        prefixes, rows = [], []
        for head, h in _heads(mats, m - 3, j):
            prefixes.append(head + (j,))
            rows.append(x_j if h is None else h * x_j)
            if len(prefixes) == chunk:
                yield prefixes, j + 1, np.array(rows)
                prefixes, rows = [], []
        if prefixes:
            yield prefixes, j + 1, np.array(rows)


class _Maxima(NamedTuple):
    w_abs: float
    argmax_abs: tuple[int, ...]
    w_signed: float
    argmax_signed: tuple[int, ...]
    rechecked: int  # tuples recomputed the canonical way


class _Screen:
    """Running state of one enumeration: screen bounds, candidates, exact maxima.

    Screened tiles have shape (prefixes, rows a, columns b).
    """

    def __init__(self, mats: list[np.ndarray], n: int):
        self.pen, self.last = mats[-2], mats[-1]
        self.n = n
        self.sqrt_n = math.sqrt(n)
        self.tiny = 2.0 * (self.sqrt_n + 1.0) * _SMALLEST_SUBNORMAL
        self.last_norms = _norm_bounds(np.einsum("ij,ij->j", self.last, self.last), n)
        if len(mats) == 2:
            self.pen_norms = self.last_norms if self.pen is self.last else _norm_bounds(
                np.einsum("ij,ij->j", self.pen, self.pen), n)
        else:
            # rows x_a, to build q * x_a for a whole group of prefixes at once
            self.pen_rows = np.ascontiguousarray(self.pen.T)
        # slack = ||y|| * last_scaled + tiny
        self.last_scaled = self.last_norms * (2.0 * _gamma(n + len(mats) + 2) / self.sqrt_n)
        # largest last-matrix norm from column r on, for the overflow guard
        self.last_max = np.maximum.accumulate(self.last_norms[::-1])[::-1]
        self.lo_abs = self.lo_sig = -math.inf
        self.w_abs, self.arg_abs = -1.0, None
        self.w_sig, self.arg_sig = -math.inf, None
        self.pending = []
        self.pending_count = 0
        self.rechecked = 0

    def block(self, prefixes: list[tuple[int, ...]], s: int, Q: np.ndarray | None) -> None:
        """Screen every tuple (prefix, a, b) of a group, tile by tile of rows a."""
        k, n = len(prefixes), self.n
        w = self.last.shape[1] - s
        tile_rows = max(1, _TILE_ENTRIES // (k * max(w, n)))
        for r0 in range(0, w - 1, tile_rows):
            # The last tile keeps row w-1, which holds no tuple, so that
            # for m = 2 its product is X^T X and BLAS takes the SYRK path.
            r1 = min(r0 + tile_rows, w)
            o = s + r0
            # Y holds the vectors y = q * x_a as rows
            if Q is None:
                Y, a_norms = self.pen[:, o:s + r1].T, self.pen_norms[o:s + r1]
            else:
                Y = (Q[:, None, :] * self.pen_rows[o:s + r1]).reshape(-1, n)
                a_norms = _norm_bounds(np.einsum("ij,ij->i", Y, Y), n)
            G = (Y @ self.last[:, o:]).reshape(k, r1 - r0, w - r0)
            G /= self.sqrt_n
            a_norms = a_norms.reshape(k, r1 - r0, 1)
            S = a_norms * self.last_scaled[o:]
            S += self.tiny
            # strict upper triangle: column b = o + j, row a = o + i, j > i
            mask = np.arange(w - r0)[None, :] > np.arange(r1 - r0)[:, None]
            self._tile(prefixes, Q, o, G, S, mask, a_norms)

    def _tile(self, prefixes, Q, o, G, S, mask, a_norms) -> None:
        absG = np.abs(G)
        hi_abs = absG + S
        top = hi_abs.max(where=mask, initial=-np.inf)
        if not (math.isfinite(top) and a_norms.max() * self.last_max[o] < _ENVELOPE_LIMIT):
            self._settle(Q, o, G, S, mask, a_norms)
            np.abs(G, out=absG)
            np.add(absG, S, out=hi_abs)
            top = hi_abs.max(where=mask, initial=-np.inf)
        hi_sig = G + S
        top_sig = hi_sig.max(where=mask, initial=-np.inf)
        # Lower bounds lie below upper ones, so a tile whose upper bounds
        # all fall short of L can neither raise L nor hold a candidate.
        if top >= self.lo_abs:
            lo = np.subtract(absG, S, out=absG)
            self.lo_abs = max(self.lo_abs, float(lo.max(where=mask, initial=-np.inf)))
        if top_sig >= self.lo_sig:
            lo = np.subtract(G, S, out=G)
            self.lo_sig = max(self.lo_sig, float(lo.max(where=mask, initial=-np.inf)))
        if top < self.lo_abs and top_sig < self.lo_sig:
            return
        keep = (hi_abs >= self.lo_abs) | (hi_sig >= self.lo_sig)
        keep &= mask
        idx = np.nonzero(keep)
        pi, rows, cols = idx
        self.pending.append((prefixes, Q, pi, o + rows, o + cols, hi_abs[idx], hi_sig[idx]))
        self.pending_count += pi.size
        if self.pending_count > _PENDING_LIMIT:
            self.recheck()

    def _settle(self, Q, o, G, S, mask, a_norms) -> None:
        """Replace the entries the bound does not cover by their canonical values."""
        covered = np.isfinite(G) & np.isfinite(S) & (a_norms * self.last_norms[o:] < _ENVELOPE_LIMIT)
        idx = np.nonzero(mask & ~covered)
        pi, rows, cols = idx
        G[idx] = self._canonical(Q, pi, o + rows, o + cols)
        S[idx] = 0.0
        G[:, ~mask] = 0.0
        S[:, ~mask] = 0.0

    def _canonical(self, Q, pi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Canonical entries of the tuples prefixes[pi[i]] + (a[i], b[i]).

        The tuples come sorted by (pi, a), so each run of equal (pi, a)
        shares its vector y = Q[pi] * x_a.
        """
        self.rechecked += a.size
        vals = np.empty(a.size)
        key = pi * self.last.shape[1] + a
        cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), a.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            y = self.pen[:, a[lo]] if Q is None else Q[pi[lo]] * self.pen[:, a[lo]]
            # one contiguous row per tuple, so np.sum takes the pairwise path
            prods = np.multiply(self.last[:, b[lo:hi]].T, y, out=np.empty((hi - lo, self.n)))
            vals[lo:hi] = np.sum(prods, axis=1) / self.sqrt_n
        if not np.isfinite(vals).all():
            raise ValueError(_OVERFLOW_MESSAGE)
        return vals

    def recheck(self) -> None:
        """Recompute the candidates that can still win; fold them into the maxima.

        Candidates of one tile come in lexicographic order, so argmax
        picks the smallest of equal tuples there; across tiles the
        tuples are compared.
        """
        for prefixes, Q, pi, a, b, hi_abs, hi_sig in self.pending:
            sel = (hi_abs >= self.lo_abs) | (hi_sig >= self.lo_sig)
            if not sel.any():
                continue
            pi, a, b = pi[sel], a[sel], b[sel]
            vals = self._canonical(Q, pi, a, b)
            mags = np.abs(vals)
            k = int(mags.argmax())
            t = prefixes[pi[k]] + (int(a[k]), int(b[k]))
            if mags[k] > self.w_abs or (mags[k] == self.w_abs and t < self.arg_abs):
                self.w_abs, self.arg_abs = float(mags[k]), t
            k = int(vals.argmax())
            t = prefixes[pi[k]] + (int(a[k]), int(b[k]))
            if vals[k] > self.w_sig or (vals[k] == self.w_sig and t < self.arg_sig):
                self.w_sig, self.arg_sig = float(vals[k]), t
        self.lo_abs = max(self.lo_abs, self.w_abs)
        self.lo_sig = max(self.lo_sig, self.w_sig)
        self.pending.clear()
        self.pending_count = 0


def _max_entry_core(mats: list[np.ndarray], n: int) -> _Maxima:
    """Screen all tuples by GEMM, prefix group by prefix group, and recheck the candidates.

    ``mats[d]`` is the n-by-p matrix supplying the factor at depth d.
    Tuples in the result are 0-based.
    """
    screen = _Screen(mats, n)
    # Overflow is detected from the values and reported by ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        for prefixes, s, Q in _prefix_groups(mats, mats[0].shape[1], n):
            screen.block(prefixes, s, Q)
        screen.recheck()
    return _Maxima(screen.w_abs, screen.arg_abs, screen.w_sig, screen.arg_sig, screen.rechecked)


def _result(best: _Maxima, n: int, p: int, m: int) -> StatResult:
    return StatResult(
        w_abs=best.w_abs,
        w_signed=best.w_signed,
        argmax_abs=tuple(i + 1 for i in best.argmax_abs),
        argmax_signed=tuple(i + 1 for i in best.argmax_signed),
        n=n,
        p=p,
        m=m,
        tuple_count=math.comb(p, m),
    )


def max_entry(X, m: int, workers: int = 1, cost_ceiling: int = DEFAULT_COST_CEILING) -> StatResult:
    """Maximum (absolute and signed) off-diagonal tensor entry.

    Parameters
    ----------
    X : array_like
        n-by-p data matrix; rows are observations.
    m : int
        Tensor order, 2 <= m <= p.
    workers : int
        Accepted for interface stability and validated as >= 1.  It
        changes neither the code path nor the result; BLAS threading is
        set by the environment.
    cost_ceiling : int
        Maximum multiply-adds allowed; a BudgetError is raised before
        any work when the enumeration would exceed it.

    Returns
    -------
    StatResult
        Bit-identical to :func:`max_entry_bruteforce` on the same input.

    Raises
    ------
    ValueError
        On invalid input, or when some tuple sum overflows float64.
    """
    A = _as_matrix(X)
    n, p = A.shape
    if not isinstance(m, (int, np.integer)) or m < 2 or m > p:
        raise ValueError(f"m must satisfy 2 <= m <= p={p}, got {m!r}")
    check_workers(workers)
    check_budget(p, m, n, cost_ceiling)
    return _result(_max_entry_core([A] * int(m), n), n, p, int(m))


def max_entry_multi(matrices, workers: int = 1, cost_ceiling: int = DEFAULT_COST_CEILING) -> StatResult:
    """Maximum entry of the multi-population product tensor.

    The factor at tuple depth s is drawn from ``matrices[s]``; all
    matrices must share the same (n, p).  The order m is the number of
    matrices.  With identical matrices this reduces exactly to
    :func:`max_entry`.  ``workers`` and ``cost_ceiling`` are as there.
    """
    mats = [_as_matrix(M) for M in matrices]
    m = len(mats)
    if m < 2:
        raise ValueError(f"need at least 2 matrices, got {m}")
    n, p = mats[0].shape
    for idx, M in enumerate(mats[1:], start=2):
        if M.shape != (n, p):
            raise ValueError(
                f"matrix {idx} has shape {M.shape}, expected {(n, p)} shared by all populations"
            )
    if m > p:
        raise ValueError(f"m must be <= p, got m={m}, p={p}")
    check_workers(workers)
    check_budget(p, m, n, cost_ceiling)
    return _result(_max_entry_core(mats, n), n, p, m)


def max_entry_bruteforce(X, m: int) -> StatResult:
    """Reference evaluation: every tuple product rebuilt from scratch.

    No partial products are shared between tuples and no matrix product
    is formed, so agreement with :func:`max_entry` genuinely exercises
    the screen and the recheck.  Guarded to small instances
    (C(p, m) * n <= 1e7).  Raises ValueError when a tuple sum overflows
    float64.
    """
    A = _as_matrix(X)
    n, p = A.shape
    if not isinstance(m, (int, np.integer)) or m < 2 or m > p:
        raise ValueError(f"m must satisfy 2 <= m <= p={p}, got {m!r}")
    cost = math.comb(p, m) * n
    if cost > ORACLE_COST_CEILING:
        raise BudgetError(
            f"bruteforce cost C(p,m)*n = {cost:,} exceeds the oracle ceiling "
            f"of {ORACLE_COST_CEILING:,}"
        )
    sqrt_n = math.sqrt(n)
    w_abs, arg_abs = -1.0, None
    w_sig, arg_sig = -math.inf, None
    with np.errstate(over="ignore", invalid="ignore"):
        for combo in itertools.combinations(range(p), int(m)):
            prod = A[:, combo[0]].copy()
            for j in combo[1:]:
                prod = prod * A[:, j]
            val = float(np.sum(prod) / sqrt_n)
            if not math.isfinite(val):
                raise ValueError(_OVERFLOW_MESSAGE)
            if abs(val) > w_abs:
                w_abs, arg_abs = abs(val), combo
            if val > w_sig:
                w_sig, arg_sig = val, combo
    return _result(_Maxima(w_abs, arg_abs, w_sig, arg_sig, 0), n, p, int(m))
