"""Gumbel-type limit law for the largest off-diagonal entry statistic.

For an order-m sample product tensor built from n observations of p
standardized i.i.d. coordinates, the squared maximum entry statistic,
centered as

    T = W**2 - 2*m*log(p) + log(log(p)),

converges in distribution to a Gumbel-type law with CDF

    F(z) = exp(-c * exp(-z / 2)),

where the rate constant is c = 1/(m! * sqrt(m*pi)) when W is the maximum
of absolute entries (two-sided) and half that when W is the signed
maximum (one-sided).  For m = 2 the two-sided constant reduces to
1/sqrt(8*pi), the classical sample covariance coherence constant.

All logarithms are natural.  Everything here is closed form; the module
has no random state and every function is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_SIDED = "two_sided"
ONE_SIDED = "one_sided"

# m! enters the rate constant; beyond this order the double-precision
# factorial is useless anyway.
MAX_ORDER = 20

# exp(-0.5 * z) overflows double precision below this z.
_Z_UNDERFLOW = -1419.0


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``int(value)`` for an integer lo <= value <= hi, else a ValueError naming ``name``.

    Python and numpy integers pass; bool, float, str and None do not.
    ``hi=None`` leaves the range open above.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {_short(lo)}, got {_short(value)}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {_short(hi)}, got {_short(value)}")
    return int(value)


def _short(value: int) -> str:
    """An integer for a message: in full up to 20 digits, past that as the power of ten it is near."""
    if abs(value) < 10**20:
        return f"{value}"
    return f"about {'-' if value < 0 else ''}10**{math.log10(abs(value)):.1f}"


def check_real(name: str, value, lo=-math.inf, hi=math.inf, finite=True, ends="[]") -> float:
    """``float(value)`` for a real value from lo to hi, else a ValueError naming ``name``.

    Python and numpy integers and floats pass; bool, str, None, NaN and, if ``finite``, +-inf do not.
    ``ends`` writes the interval as in mathematics: ``"[]"``, ``"(]"``, ``"[)"`` or ``"()"``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf if value > 0 else -math.inf
    if math.isnan(x) or (finite and math.isinf(x)):
        raise ValueError(f"{name} must be finite, got {x}" if finite else f"{name} must not be NaN")
    if x < lo or x > hi or (x == lo and ends[0] == "(") or (x == hi and ends[1] == ")"):
        raise ValueError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {x!r}")
    return x


def check_real_array(name: str, values, lo=-math.inf) -> np.ndarray:
    """float64 array of ``values``, each held to ``check_real``'s rules with the range [lo, +inf].

    A numpy array needs an integer or float dtype; anything else is checked
    value by value, so a bool, str or None inside a list fails as well.
    Every refusal is worded by ``check_real``, as for a scalar, and names
    a refused array by its dtype, never by its values.  An accepted array
    costs one finite pass, and one comparison pass if ``lo`` is finite;
    the first bad value is looked for only when there is one.
    """
    if not isinstance(values, np.ndarray):
        cells = np.asarray(values, dtype=object)
        return np.array([check_real(name, v, lo) for v in cells.flat]).reshape(cells.shape)
    if values.dtype.kind not in "iuf":
        check_real(name, values.dtype)  # an array of any other dtype is not a real number
    xs = values.astype(np.float64, copy=False)
    if not (np.isfinite(xs).all() and (lo == -math.inf or (xs >= lo).all())):
        check_real(name, xs[~np.isfinite(xs) | (xs < lo)][0], lo)
    return xs


def check_sided(sided: str) -> str:
    """``sided`` if it names one of the two limit laws, else ValueError."""
    if sided not in (TWO_SIDED, ONE_SIDED):
        raise ValueError(f"sided must be {TWO_SIDED!r} or {ONE_SIDED!r}, got {sided!r}")
    return sided


def log_rate_constant(m: int) -> float:
    """log(m! * sqrt(m*pi)), evaluated through log-gamma.

    This is the quantity whose exponential scales the Gumbel exponent;
    keeping it in log space avoids factorial overflow for larger m.
    """
    m = check_int("m", m, 2, MAX_ORDER)
    return math.lgamma(m + 1) + 0.5 * math.log(m * math.pi)


@dataclass(frozen=True)
class GumbelLimit:
    """The limit law exp(-c * exp(-z/2)) for a given order and sidedness.

    Parameters
    ----------
    m : int
        Tensor order, 2 <= m <= 20.
    sided : str
        ``"two_sided"`` for the absolute maximum, ``"one_sided"`` for the
        signed maximum.  The one-sided rate constant is exactly half the
        two-sided one.
    """

    m: int
    sided: str = TWO_SIDED
    c: float = field(init=False)

    def __post_init__(self):
        check_int("m", self.m, 2, MAX_ORDER)
        check_sided(self.sided)
        c_two = math.exp(-log_rate_constant(self.m))
        # Halving is exact in binary floating point, so the two/one ratio
        # is exactly 2 for every m.
        object.__setattr__(self, "c", 0.5 * c_two if self.sided == ONE_SIDED else c_two)

    def cdf(self, z: float) -> float:
        """F(z) = exp(-c * exp(-z/2)) for scalar z, with F(-inf) = 0 and F(+inf) = 1."""
        if check_real("z", z, finite=False) < _Z_UNDERFLOW:
            return 0.0
        return math.exp(-self.c * lambda_limit(z))

    def sf(self, z: float) -> float:
        """Upper tail 1 - F(z), computed without cancellation.

        Uses expm1 so that p-values far in the right tail keep full
        relative accuracy (1 - F(z) ~ c * exp(-z/2) there).
        """
        if check_real("z", z, finite=False) < _Z_UNDERFLOW:
            return 1.0
        return -math.expm1(-self.c * lambda_limit(z))

    def quantile(self, q: float) -> float:
        """Closed-form inverse of the CDF: z = -2 * log(-log(q) / c)."""
        q = check_real("q", q, 0.0, 1.0, ends="()")
        return -2.0 * math.log(-math.log(q) / self.c)


def normalize(w, p: int, m: int) -> float | np.ndarray:
    """Center the maximum entry statistic: T = w**2 - 2*m*log(p) + log(log(p)).

    Parameters
    ----------
    w : float or array_like
        The maximum entry statistic, or an array of them, each finite,
        >= 0 and with a finite square (below about 1.34e154).  A signed
        maximum must be clipped by the caller first; see
        :func:`tensormax.hypotest.sided_statistic`.
    p : int
        Number of coordinates, >= 3.
    m : int
        Tensor order.

    Returns
    -------
    float or numpy.ndarray
        T as a float for a float w, an array for an array, an entry of
        which has the bits of the scalar result for its value.
    """
    m, p = check_int("m", m, 2, MAX_ORDER), check_int("p", p, 3)
    ws = check_real_array("w", w, 0.0)
    with np.errstate(over="ignore"):
        squares = ws * ws
    overflow = np.isinf(squares)
    if overflow.any():
        raise ValueError(f"w must be below about 1.34e154, where w**2 overflows, got {float(ws[overflow][0])!r}")
    lp = math.log(p)
    t = squares - 2.0 * m * lp + math.log(lp)
    return t if ws.ndim else float(t)


def nu_p(z: float, p: int, m: int) -> float:
    """Threshold level linking a tail parameter z to the statistic scale.

    nu_p = sqrt(log p - (log log p + 2*log(m! sqrt(m pi)) - z) / (2m)).

    The count of index tuples whose entry exceeds sqrt(2m)*nu_p has
    Poisson intensity tending to exp(-z/2); see
    :func:`tensormax.diagnostics.estimate_lambda`.

    Raises
    ------
    ValueError
        If z is not finite or the radicand is not positive (p too small
        for the given z).
    """
    check_int("m", m, 2, MAX_ORDER)
    check_int("p", p, 3)
    z = check_real("z", z)
    lp = math.log(p)
    radicand = lp - (math.log(lp) + 2.0 * log_rate_constant(m) - z) / (2.0 * m)
    if radicand <= 0.0:
        raise ValueError(
            f"nu_p radicand must be positive, got {radicand} for z={z}, p={p}, m={m}"
        )
    return math.sqrt(radicand)


def lambda_limit(z: float) -> float:
    """Limiting Poisson intensity exp(-z/2) of threshold exceedances, for z >= -1419.

    Below that z the intensity overflows double precision.  Consistency
    with the limit law: cdf(z) == exp(-c * lambda_limit(z)) holds bit for
    bit because ``GumbelLimit.cdf`` computes it that way.
    """
    return math.exp(-0.5 * check_real("z", z, _Z_UNDERFLOW, finite=False))


def ratio_target(m: int) -> float:
    """Limit in probability of W / sqrt(log p), namely sqrt(2m)."""
    check_int("m", m, 2, MAX_ORDER)
    return math.sqrt(2.0 * m)
