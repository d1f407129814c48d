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

**The screen.**  Prefixes of depth m-2 are grouped by their last index
s-1, in chunks; each group gathers the columns of its prefixes and
multiplies them left to right into the partial products q.  The last two
tuple levels are then one matrix product,
G = (q * X[:, s:])^T X[:, s:] / sqrt(n), whose strict upper triangle
holds every tuple (prefix, a, b) with s <= a < b.  For m = 2 there is no
prefix and G = X^T X / sqrt(n).  Prefixes that end at the same index
share X[:, s:], so they are stacked into one GEMM, and rows are tiled so
that no tile holds more than about a million entries.

**Stacks of replicates.**  :func:`_screen` screens an (R, n, p) stack of
independent matrices at once, as ``lab`` does for each chunk of
replicates.  Partial products have shape (R, n), each prefix group is
one batched ``np.matmul`` over the stack, and the slack, the lower
bound L, the candidates, the overflow guard and the recheck below are
all kept per replicate, so every replicate gets exactly the answer it
gets alone.  :func:`max_entry` and :func:`max_entry_multi` are the
R = 1 case, entered through one validated route and budget check.  The
tile limit counts entries across the replicate axis, so a stack's tiles
are no larger than one matrix's; the caller bounds R itself (``lab``
caps a stack at 2**17 values, 1 MB).

**The bound.**  A GEMM entry sums in its own order and may fuse
multiply-adds, so it can differ from the canonical entry in the last
bits.  Both are inner products of the same rounded vectors y = q * x_a
and x_b, so each lies within gamma_n * sum_i |y_i x_bi| of the exact sum,
with gamma_k = k u / (1 - k u) and u = 2**-53 (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.1).  As
|y_i| <= (1 + u) |q_i x_ai| + 2**-1075, Holder and Cauchy-Schwarz bound
the sum by (1 + u) (max|q| + 2**-538) ||x_a|| ||x_b||, the norm floor
below keeping ||x_a|| >= sqrt(n) 2**-537.  With max|q| over a tile's
prefixes (1 for m = 2) and A, B the largest norms over its rows a and
columns b, one number per tile and replicate,

    slack = 2 gamma_{n+13} (max|q| + 2**-538) A B / sqrt(n) + 2 (sqrt(n) + 1) 2**-1074,

bounds the distance from each screened entry of the tile both to the
exact sum and to the canonical entry.  The 13 count one rounding each
for the division by sqrt(n), the factor 1 + u, the nine operations that
compute the slack and the two subtractions that form L and the
candidate threshold below.  The second term covers underflow: a product
that lands among the subnormals may lose up to 2**-1075 outright, which
no relative bound sees, and the squared norms get a floor of
n * 2**-1074 for the same reason.

**The float32 screen.**  For m >= 3, the row copies of the prefix
depths and one copy of the last stack are made in float32, so Q,
y = q * x_a and the GEMMs run in float32, at about twice the float64
rate.  The norms, the envelope, the slack, L, the candidate bounds and
the recheck stay in float64 and read only the float64 data.  The two
entries are no longer inner products of the same vectors, so both are
held to the exact tuple sum T = sum_i t_i, t_i = x_1i ... x_mi, with
E = sum_i |t_i| and u = 2**-24 (Higham and Mary, "Mixed precision
algorithms in numerical linear algebra", *Acta Numerica* 31, 2022).
Each of the m factors is rounded once by its cast, and each of the m-2
float32 multiplies that form y rounds once more, so every term
y_i x_bi is t_i (1 + theta_{2m-2}).  The GEMM adds gamma_n times the
terms' absolute sum, plus at most 2**-150 for each of its n steps whose
result falls among the float32 subnormals (a fused multiply-add after
cancellation).  The canonical entry lies within gamma_{n+m+1} E / sqrt(n)
of T / sqrt(n) in float64, less than one float32 rounding while
n < 2**28.  Last, E <= max|q| ||x_a|| ||x_b||, and the exact prefix
product q is at most (1 + gamma_{2m-5}) times the float32 one (m-2
casts, m-3 multiplies), over which max|q| is taken.  With the 13
float64 roundings above,

    slack = 2 gamma_{n+4m+13} (max|q| + 2**-538) A B / sqrt(n) + 2 (sqrt(n) + 1) 2**-149

bounds the distance from each screened entry of the tile to the
canonical entry.  It grows like 2**-23 n**1.5 max|q| times the squared
spread of the data, against entries whose spread does not grow with n:
on standard normal data, m = 3, p = 40, it is about 2.4e-3 at n = 300,
0.08 at n = 3000 and 3 at n = 30000, where every tuple lies within it
of the top and the recheck would rebuild all of them.  So the float32
screen is taken only while the slack predicted for the stack's first
tile, 2 gamma_{n+4m+13} max|x_1| ... max|x_{m-2}| A B / sqrt(n) with
the largest column norms A, B, is at most a quarter of s_1 ... s_m, the
standard deviation of an entry of independent data whose columns have
the pooled standard deviations s_d; later tiles have smaller norms.  As
max|x_d| >= s_d and A B >= n s_{m-1} s_m, the share is at least 2
gamma_{n+4m+13} sqrt(n), so from about n = 16400 on every stack stays
in float64 without a look at its values.  A quarter leaves a handful of
rechecks per replicate (standard normal, m = 3, p = 40: 2 at a
predicted share of 0.2, 8 at 0.33, and 5623 of the 9880 tuples at 3).
Heavy tails raise max|x| against s and uncentered data lower s against
the entries' size, so both leave the float32 screen sooner, at no cost
to the answer.

The terms above hold only if no float32 cast, product or partial sum
overflows and no cast or product of nonzero factors falls below
2**-126.  A range guard checks that per stack, from the float64 data,
before any copy is made: every nonzero |x| is at least 2**(-125/m), so
every product of at most m nonzero factors stays normal (zeros stay
exact), and n max|x|**m is at most 2**126, a quarter of the float32
range, which bounds every partial product and partial sum.  Besides,
(n + 4m + 13) u <= 1/2 keeps gamma finite.  A stack with any replicate
outside the window (n = 130, m = 3: 2.9e-13 <= |x| <= 8.7e11), or past
the slack share above, is screened in float64 as before, so one stack
has one dtype.  On standard normal stacks of 2**17 values the low edge
is met with probability about 1 - 4e-5 at m = 4.  m = 2 stays in float64: its one
product is a symmetric rank-n update of X itself, and a float32 copy of
each stack costs more than the faster update saves.

**The recheck.**  Let L be the largest |G| - slack over all tuples, the
top |G| of a tile less its slack.  Every canonical |entry| is at least
its own |G| - slack, so the maximum is at least L, and any tuple that
attains it has |G| >= L - slack.  Only those candidates, and the same
set for the signed G, are held, each as its replicate, index tuple and
upper bounds, and recomputed from the input stacks alone, as the oracle
builds them: no screen product enters a canonical value.  The winner is
chosen among the canonical values with the smallest-tuple tie-break, so
the screen decides only which tuples to recompute, never which one
wins, and the result is bit-identical to the oracle for every finite
input, replicate by replicate.  On standardized continuous data the
float64 slack is about 2 u n**1.5 max|q| (2.5e-12 at n = 500, m = 2),
the float32 one as above, both far below the gaps near the maximum, so
a call rechecks the winners and rarely more.  Exact ties, near ties,
and tiles that hold a few huge columns nearly orthogonal to the rest
make many candidates.

**Overflow.**  The bound needs every partial sum to stay finite.  A
replicate whose envelope (max|q| + 2**-538) A B plus top |G| is not
below a quarter of the largest double, NaN and inf included, gets no
bound from that tile: the tile's tuples are recomputed and folded at
once, before the rest of the tile is screened, and their exact values
raise L.  A non-finite canonical entry raises ValueError ("tuple sums
overflow float64"), exactly when the oracle raises.  A float32 screen
never gets there: its range guard keeps every envelope far below the
limit.

:func:`enumeration_cost` counts n * sum_{s=1..m} C(p, s) multiply-adds,
the work of sharing prefixes down to single triangle entries, and stays
the budget unit.  The screen does that work at m = 2 (one symmetric
rank-n update) and at most twice it at the last level for m >= 3, where
each prefix's product is a full square.  The prefix products add
n * (m-3) multiplies for each of the C(p, m-2) prefixes, far below the
n * (p-s)**2 of the prefix's own GEMM.  Reported tuples are 1-based.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotics import check_int, check_real, check_real_array
from .serial import JsonRecord

DEFAULT_COST_CEILING = 10**10
ORACLE_COST_CEILING = 10**7
_SATURATION = 2**63 - 1

_OVERFLOW_MESSAGE = "tuple sums overflow float64"

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_FLOAT32_ROUNDOFF = 2.0**-24
_FLOAT32_SUBNORMAL = 2.0**-149
# Largest predicted float32 slack, as a share of an entry's standard deviation,
# that still leaves a handful of candidates near the maximum.
_FLOAT32_SLACK_SHARE = 0.25
# Below this, a tile's envelope times (1 + gamma_n) cannot reach the largest double.
_ENVELOPE_LIMIT = float(np.finfo(np.float64).max) / 4.0
# Entries per screened tile, counted across the replicate axis (8 MB per
# float64 array; the |G| and G screens side by side take two).
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


def comb_capped(p: int, k: int, cap: int) -> int:
    """C(p, k) for 0 <= k <= p if it is at most ``cap``, else some integer above ``cap``.

    Exact recurrence over s <= min(k, p-k), where C(p, s) >= 2**s grows:
    it stops past the cap, after at most log2(cap) steps for any p.
    """
    c = 1
    for s in range(1, min(k, p - k) + 1):
        c = c * (p - s + 1) // s
        if c > cap:
            break
    return c


def enumeration_cost(p: int, m: int, n: int) -> EnumerationCost:
    """Closed-form cost estimate for enumerating all increasing m-tuples."""
    p = check_int("p", p, 1)
    m = check_int("m", m, 1, p)
    n = check_int("n", n, 1)
    tuples = comb_capped(p, m, _SATURATION)
    # n * sum_{s<=m} C(p, s) by the same recurrence, stopped once it is clamped
    ops, c = 0, 1
    for s in range(1, m + 1):
        c = c * (p - s + 1) // s
        ops += n * c
        if ops > _SATURATION:
            break
    return EnumerationCost(min(tuples, _SATURATION), min(ops, _SATURATION), max(tuples, ops) > _SATURATION)


def load_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV of finite decimal floats as an n-by-p matrix.

    A ValueError names the file: one that holds no values, or the first
    line, numbered as in the file, that is not a row of finite floats as
    wide as the first row.
    """
    with warnings.catch_warnings():
        # numpy warns on input with no data, which _as_matrix refuses
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return _as_matrix(np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2))
        except ValueError:
            raise ValueError(_refusal(path)) from None


def _refusal(path) -> str:
    """Why a CSV that ``load_matrix_csv`` refused is refused, from the file's own lines.

    numpy counts rows differently by error and without the blank and
    comment lines it skips, so the file is read again here, by numpy's
    rules: those lines are skipped the same way but counted, and a field
    is a float only if its text, stripped of whitespace, is ASCII
    without ``_`` and Python reads it (numpy's parser, unlike float(),
    refuses digit separators and non-ASCII digits).
    """
    width = None
    with open(path, errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].rstrip("\n")
            if not text:
                continue
            fields = text.split(",")
            width = width or len(fields)
            if len(fields) != width:
                return f"{path} line {line_no}: the number of columns changed from {width} to {len(fields)}"
            for col, field in enumerate(map(str.strip, fields), 1):
                try:
                    value = float(field) if field.isascii() and "_" not in field else math.nan
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    return f"{path} line {line_no} column {col}: {field!r} is not a finite float"
    return f"{path} holds no values" if width is None else f"{path} is not a matrix of finite floats"


def _as_matrix(X) -> np.ndarray:
    """An n-by-p matrix: C-contiguous float64, non-empty, its values held to ``check_real_array``."""
    A = np.ascontiguousarray(check_real_array("data matrix", X))
    if A.ndim != 2:
        raise ValueError(f"data matrix must be 2-dimensional, got shape {A.shape}")
    if 0 in A.shape:
        raise ValueError(f"data matrix must be non-empty, got shape {A.shape}")
    return A


class Draws(NamedTuple):
    """A budget item: a Monte Carlo request that draws ``values`` scalars."""

    values: int


def check_budget(work, ceiling, name: str = "cost_ceiling") -> None:
    """Raise BudgetError when ``work`` needs more than ``ceiling`` units, or at least 2**63 - 1.

    ``work`` holds items of one kind: (p, m, n, count), ``count``
    enumerations of (p, m, n) each, a unit per multiply-add; or
    ``Draws(values)``, a unit per value a Monte Carlo request draws.
    """
    check_real(name, ceiling, 0.0)
    if all(isinstance(item, Draws) for item in work):
        what, unit = "Monte Carlo sampling", "drawn values"
        total = sum(item.values for item in work)
    else:
        what, unit = "enumeration", "multiply-adds"
        total = sum(count * enumeration_cost(p, m, n).multiply_adds for p, m, n, count in work)
    if total >= _SATURATION:
        raise BudgetError(f"{what} needs an estimated more than 9.2e18 {unit}, which no {name} allows")
    if total > ceiling:
        raise BudgetError(f"{what} needs an estimated {total:,} {unit}, above the {name} of {ceiling:,}")


def _gamma(k: int, u: float = _UNIT_ROUNDOFF) -> float:
    return k * u / (1.0 - k * u)


def _suffix_norms(M: np.ndarray, n: int) -> np.ndarray:
    """Upper bounds on max(||x_j||, ||x_j+1||, ...) for each column j of each matrix of an (R, n, p) stack.

    The computed squared sums are raised by their relative rounding
    bound and by an absolute floor for squares lost to underflow, which
    keeps every bound at least sqrt(n) 2**-537.
    """
    squares = np.einsum("rij,rij->rj", M, M)
    squares *= 1.0 + 2.0 * _gamma(n)
    squares += n * _SMALLEST_SUBNORMAL
    norms = np.sqrt(squares, out=squares)
    return np.maximum.accumulate(norms[:, ::-1], axis=1)[:, ::-1]


def _prefix_groups(rows: list[np.ndarray], p: int, n: int):
    """Prefixes of depth m-2 grouped by their last index, in screen-sized chunks.

    ``rows[d]`` is the (R, p, n) stack of depth d < m-2.  Yields
    ``(prefixes, s, Q)``: ``prefixes`` is a (k, m-2) integer array of
    prefixes that all end at index s-1, and ``Q[r, i]`` is the
    left-to-right product of the factors of ``prefixes[i]`` in replicate
    r.  For m = 2 the only prefix is empty and Q is None.
    """
    if not rows:
        yield np.zeros((1, 0), dtype=np.intp), 0, None
        return
    depth, R = len(rows), rows[0].shape[0]
    for j in range(depth - 1, p - 2):
        w = p - j - 1
        chunk = max(1, _TILE_ENTRIES // (R * w * max(w, n)))
        heads = itertools.combinations(range(j), depth - 1)
        while group := [head + (j,) for head in itertools.islice(heads, chunk)]:
            g = np.array(group, dtype=np.intp)
            Q = rows[0][:, g[:, 0]]
            for d in range(1, depth):
                Q *= rows[d][:, g[:, d]]
            yield g, j + 1, Q


def _fold(best_w: np.ndarray, best_arg: np.ndarray, g: np.ndarray, tuples: np.ndarray, vals: np.ndarray) -> None:
    """Fold candidates into the maximum of each group, in place.

    ``vals[i]`` is the value of ``tuples[i]`` in group ``g[i]``, and
    group j holds ``best_w[j]`` at ``best_arg[j]``.  Each group keeps the
    largest value; equal values go to the smallest tuple, and the held
    maximum competes on the same terms.
    """
    groups = np.arange(best_w.size)
    g = np.concatenate((groups, g))
    tuples = np.concatenate((best_arg, tuples))
    vals = np.concatenate((best_w, vals))
    # lexsort's last key is its primary one: group, then -value, then the tuple
    order = np.lexsort((*tuples.T[::-1], -vals, g))
    first = order[np.searchsorted(g[order], groups)]
    best_w[:] = vals[first]
    best_arg[:] = tuples[first]


class _Screen:
    """Running state of one enumeration over a stack of R replicates.

    The absolute and the signed screen run side by side: index 0 of the
    leading axis of a screened tile and of ``lo``, ``w`` and ``arg`` is
    for |G|, index 1 for G.  The slack is one number per tile and
    replicate; bounds, candidates and exact maxima are kept per
    replicate.  Screened tiles have shape
    (2, replicates, prefixes, rows a, columns b).  The GEMMs read
    ``pen_rows`` and ``right`` in the screen's dtype, float32 or float64;
    everything else is float64.
    """

    def __init__(self, mats: list[np.ndarray], pen_rows: np.ndarray | None, dtype: type):
        self.mats = mats
        self.pen, self.last = mats[-2], mats[-1]
        R, n, _ = self.last.shape
        self.n = n
        self.sqrt_n = math.sqrt(n)
        # slack = envelope * scale + tiny, in the rounding of the screen's dtype
        if dtype == np.float32:
            k, u, subnormal = n + 4 * len(mats) + 13, _FLOAT32_ROUNDOFF, _FLOAT32_SUBNORMAL
        else:
            k, u, subnormal = n + 13, _UNIT_ROUNDOFF, _SMALLEST_SUBNORMAL
        self.scale = 2.0 * _gamma(k, u) / self.sqrt_n
        self.tiny = 2.0 * (self.sqrt_n + 1.0) * subnormal
        # the columns b as the GEMMs read them: ``last`` itself or its float32 copy
        self.right = np.asarray(self.last, dtype=dtype)
        # largest column norm from column j on, of the columns b and of the rows a
        self.last_max = _suffix_norms(self.last, n)
        self.pen_max = self.last_max if self.pen is self.last else _suffix_norms(self.pen, n)
        # rows x_a, to build q * x_a for a whole group of prefixes at once
        self.pen_rows = pen_rows
        self.pad = np.empty((0, 0))
        self.lo = np.full((2, R), -math.inf)
        # Held maxima start below every finite value, with placeholder tuples.
        self.w = np.repeat([[-1.0], [-math.inf]], R, axis=1)
        self.arg = np.zeros((2, R, len(mats)), dtype=np.intp)
        self.pending = []
        self.pending_count = 0
        self.rechecked = np.zeros(R, dtype=np.int64)

    def block(self, prefixes: np.ndarray, s: int, Q: np.ndarray | None) -> None:
        """Screen every tuple (prefix, a, b) of a group, tile by tile of rows a."""
        R, _, p = self.last.shape
        k, n = len(prefixes), self.n
        w = p - s
        # max|q| + 2**-538 over each replicate's group (see "The bound")
        q_max = 1.0 if Q is None else np.maximum.reduce(np.abs(Q), axis=(1, 2)).astype(np.float64) + 2.0**-538
        tile_rows = max(1, _TILE_ENTRIES // (R * k * max(w, n)))
        for r0 in range(0, w - 1, tile_rows):
            # The last tile keeps row w-1, which holds no tuple, so that
            # for m = 2 its product is X^T X and BLAS takes the SYRK path.
            r1 = min(r0 + tile_rows, w)
            o = s + r0
            # Y holds the vectors y = q * x_a as rows
            if Q is None:
                Y = self.pen[:, :, o:s + r1].transpose(0, 2, 1)
            else:
                Y = (Q[:, :, None, :] * self.pen_rows[:, None, o:s + r1]).reshape(R, -1, n)
            GG = np.empty((2, R, k, r1 - r0, w - r0))
            np.matmul(Y, self.right[:, :, o:], out=GG[1].reshape(R, -1, w - r0))
            GG[1] /= self.sqrt_n
            np.abs(GG[1], out=GG[0])
            self._tile(prefixes, o, GG, q_max * self.pen_max[:, o] * self.last_max[:, o])

    def _pad(self, rows: int, cols: int) -> np.ndarray:
        """0 where column b = o + j lies past row a = o + i (j > i), -inf elsewhere.

        Adding it leaves the tuples of a tile and sends the other entries
        to -inf, so plain maxima skip them: a reduction with a ``where``
        mask is many times slower.  Every tile's pad is the top-left
        corner of the largest one built so far.
        """
        if rows > self.pad.shape[0] or cols > self.pad.shape[1]:
            i = np.arange(max(rows, self.pad.shape[0]))
            j = np.arange(max(cols, self.pad.shape[1]))
            self.pad = np.where(j[None, :] > i[:, None], 0.0, -np.inf)
        return self.pad[:rows, :cols]

    def _tile(self, prefixes, o, GG, envelope) -> None:
        def tuples(ri, pi, rows, cols):
            return ri, np.column_stack((prefixes[pi], o + rows, o + cols))

        pad = self._pad(*GG.shape[3:])
        GG += pad
        top = np.maximum.reduce(GG, axis=(2, 3, 4))
        # A non-finite entry anywhere in the tile, off the triangle too
        # (inf - inf is NaN), makes the top NaN or inf, and the envelope
        # must stay below the limit.  Adding the two can only send more
        # replicates over.  Past this test the others' entries are finite.
        over = ~(envelope + top[0] < _ENVELOPE_LIMIT)
        S = envelope * self.scale + self.tiny
        if np.count_nonzero(over):
            # Such a replicate's tile gives no bound: every tuple of it is
            # folded exactly now, which leaves its L finite, and the tile
            # is then screened as NaN, which fails every test below.
            mask = np.broadcast_to(over[:, None, None, None] & (pad == 0.0), GG.shape[1:])
            self._exact(*tuples(*np.nonzero(mask)))
            GG[:, over] = np.nan
            top[:, over] = -np.inf
            S[over] = 0.0
        # Lower bounds lie below upper ones, so a replicate whose upper
        # bounds all fall short of its L can neither raise L nor hold a
        # candidate here.
        if not np.count_nonzero(top + S >= self.lo):
            return
        np.maximum(self.lo, top - S, out=self.lo)
        # Every L is finite now, so the -inf entries off the triangle fail.
        keep = GG >= (self.lo - S)[:, :, None, None, None]
        idx = np.nonzero(keep[0] | keep[1])
        self.pending.append((*tuples(*idx), GG[(slice(None), *idx)] + S[idx[0]]))
        self.pending_count += idx[0].size
        if self.pending_count > _PENDING_LIMIT:
            self.recheck()

    def _exact(self, ri: np.ndarray, tuples: np.ndarray) -> None:
        """Fold the canonical entries of ``tuples[i]`` in replicates ``ri[i]`` into the maxima; raise L to them.

        Each entry is rebuilt from the input stacks alone, as in :func:`max_entry_bruteforce`.
        """
        R = self.rechecked.size
        self.rechecked += np.bincount(ri, minlength=R)
        vals = np.empty(ri.size)
        step = max(1, _TILE_ENTRIES // self.n)
        for lo in range(0, ri.size, step):
            c = slice(lo, lo + step)
            # one contiguous row per tuple, so np.sum takes the pairwise path
            prods = np.ascontiguousarray(self.mats[0][ri[c], :, tuples[c, 0]])
            for d in range(1, len(self.mats)):
                prods *= self.mats[d][ri[c], :, tuples[c, d]]
            vals[c] = np.sum(prods, axis=1) / self.sqrt_n
        if not np.isfinite(vals).all():
            raise ValueError(_OVERFLOW_MESSAGE)
        # group r is replicate r's |entry|, group R + r its signed entry
        _fold(self.w.reshape(-1), self.arg.reshape(2 * R, -1), np.concatenate((ri, ri + R)),
              np.concatenate((tuples, tuples)), np.concatenate((np.abs(vals), vals)))
        np.maximum(self.lo, self.w, out=self.lo)

    def recheck(self) -> None:
        """Recompute, in one pass, the held candidates whose upper bounds still reach L."""
        if self.pending:
            ri, tuples, hi = zip(*self.pending)
            ri, tuples, hi = np.concatenate(ri), np.concatenate(tuples), np.concatenate(hi, axis=1)
            sel = np.logical_or.reduce(hi >= self.lo[:, ri])
            self._exact(ri[sel], tuples[sel])
        self.pending.clear()
        self.pending_count = 0


def _fits_float32(stacks: list[np.ndarray]) -> bool:
    """Whether an order m >= 3 screen of ``stacks`` stays in the window of "The float32 screen".

    Every nonzero |x| is at least 2**(-125/m) and n * max|x|**m at most
    2**126, so no float32 cast, product or partial sum overflows and no
    product of nonzero factors falls below the normal range, and
    (n + 4m + 13) 2**-24 <= 1/2 keeps gamma finite.  Last, the float32
    slack predicted from max|x| and the largest column norms is at most
    ``_FLOAT32_SLACK_SHARE`` of the product of the stacks' pooled column
    standard deviations, in every replicate.  As max|x| is at least the
    standard deviation and a largest column norm at least sqrt(n) times
    it, the share is at least 2 gamma_{n+4m+13} sqrt(n), past the limit
    from about n = 16400 on whatever the data.
    """
    m = len(stacks)
    n = stacks[0].shape[1]
    k = n + 4 * m + 13
    if m < 3 or k * _FLOAT32_ROUNDOFF > 0.5:
        return False
    scale = 2.0 * _gamma(k, _FLOAT32_ROUNDOFF) / math.sqrt(n)
    if scale * n > _FLOAT32_SLACK_SHARE:
        return False
    low, high = 2.0 ** (-125 / m), (2.0**126 / n) ** (1 / m)
    # per replicate: max|x|, pooled column standard deviation, largest column norm
    summary = {}
    for M in stacks:
        if id(M) not in summary:
            a = np.abs(M)
            top = a.max(axis=(1, 2))
            if top.max() > high or (a.min() < low and np.count_nonzero((a < low) & (a > 0.0))):
                return False
            squares = np.einsum("rij,rij->rj", M, M)
            # column sums through BLAS, several times faster than M.sum(axis=1)
            spread = squares / n - np.square(np.ones(n) @ M / n)
            summary[id(M)] = top, np.sqrt(np.maximum(spread, 0.0).mean(axis=1)), np.sqrt(squares.max(axis=1))
    tops, spreads, norms = zip(*(summary[id(M)] for M in stacks))
    slack = scale * np.prod(tops[:-2], axis=0) * norms[-2] * norms[-1]
    return bool(np.all(slack <= _FLOAT32_SLACK_SHARE * np.prod(spreads, axis=0)))


def _screen(stacks: list[np.ndarray]) -> _Screen:
    """Screen all tuples by GEMM, prefix group by prefix group, and recheck the candidates.

    ``stacks[d]`` is the valid (R, n, p) stack supplying the factor at depth d; no budget is checked.
    The finished screen holds each replicate's maxima, 0-based tuples and ``rechecked`` count.
    """
    # Depths below m-1 need a row-major (R, p, n) copy, in which column i
    # of every replicate is ``rows[:, i]``, and the last depth one copy, in
    # the screen's dtype.  A stack repeated at several depths is one
    # object, so it is transposed once; for m = 2 it stays one float64
    # array and its product is X^T X.
    dtype = np.float32 if _fits_float32(stacks) else np.float64
    copies = {}
    if len(stacks) > 2:
        for M in stacks[:-1]:
            if id(M) not in copies:
                copies[id(M)] = np.ascontiguousarray(M.transpose(0, 2, 1), dtype=dtype)
    rows = [copies.get(id(M)) for M in stacks]
    screen = _Screen(stacks, rows[-2], dtype)
    # Overflow is detected from the values and reported by ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        for prefixes, s, Q in _prefix_groups(rows[:-2], stacks[0].shape[2], screen.n):
            screen.block(prefixes, s, Q)
        screen.recheck()
    return screen


def _enumerate(mats: list[np.ndarray], cost_ceiling: int) -> StatResult:
    """The maximum of one tensor, ``mats[d]`` the valid n-by-p matrix supplying depth d.

    The budget is checked before any work.
    """
    n, p = mats[0].shape
    m = len(mats)
    check_budget([(p, m, n, 1)], cost_ceiling)
    # One (1, n, p) stack per distinct matrix, so that a matrix repeated
    # at several depths is one array to the screen.
    stacks = {id(M): M[None] for M in mats}
    screen = _screen([stacks[id(M)] for M in mats])
    (w_abs, w_sig), (arg_abs, arg_sig) = screen.w[:, 0].tolist(), (screen.arg[:, 0] + 1).tolist()
    return StatResult(w_abs, w_sig, tuple(arg_abs), tuple(arg_sig), n, p, m, math.comb(p, m))


def max_entry(X, m: int, *, cost_ceiling: int = DEFAULT_COST_CEILING) -> StatResult:
    """Maximum (absolute and signed) off-diagonal tensor entry.

    Parameters
    ----------
    X : array_like
        n-by-p data matrix; rows are observations.
    m : int
        Tensor order, 2 <= m <= p.
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
    return _enumerate([A] * check_int("m", m, 2, A.shape[1]), cost_ceiling)


def max_entry_multi(matrices, *, cost_ceiling: int = DEFAULT_COST_CEILING) -> StatResult:
    """Maximum entry of the multi-population product tensor.

    The factor at tuple depth s is drawn from ``matrices[s]``; all
    matrices must share the same (n, p).  The order m is the number of
    matrices.  With identical matrices this reduces exactly to
    :func:`max_entry`.  ``cost_ceiling`` is as there.
    """
    mats = [_as_matrix(M) for M in matrices]
    n, p = mats[0].shape if mats else (0, 0)
    for idx, M in enumerate(mats[1:], start=2):
        if M.shape != (n, p):
            raise ValueError(
                f"matrix {idx} has shape {M.shape}, expected {(n, p)} shared by all populations"
            )
    # the order is the number of matrices
    check_int("m", len(mats), 2, p)
    return _enumerate(mats, cost_ceiling)


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
    m = check_int("m", m, 2, p)
    if comb_capped(p, m, ORACLE_COST_CEILING) * n > ORACLE_COST_CEILING:
        raise BudgetError(
            f"bruteforce cost C(p,m)*n for p={p}, m={m}, n={n} exceeds the oracle ceiling "
            f"of {ORACLE_COST_CEILING:,}"
        )
    sqrt_n = math.sqrt(n)
    w_abs, arg_abs = -1.0, None
    w_sig, arg_sig = -math.inf, None
    with np.errstate(over="ignore", invalid="ignore"):
        for combo in itertools.combinations(range(p), m):
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
    return StatResult(w_abs, w_sig, tuple(i + 1 for i in arg_abs), tuple(i + 1 for i in arg_sig),
                      n, p, m, math.comb(p, m))
