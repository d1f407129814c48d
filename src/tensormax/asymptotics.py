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


def log_rate_constant(m: int) -> float:
    """log(m! * sqrt(m*pi)), evaluated through log-gamma.

    This is the quantity whose exponential scales the Gumbel exponent;
    keeping it in log space avoids factorial overflow for larger m.
    """
    _check_order(m)
    return math.lgamma(m + 1) + 0.5 * math.log(m * math.pi)


def _check_order(m: int) -> None:
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if m > MAX_ORDER:
        raise ValueError(f"m must be <= {MAX_ORDER} (factorial guard), got {m}")


def _check_p(p: int) -> None:
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 3:
        raise ValueError(f"p must be >= 3 so that log(log(p)) > 0, got {p}")


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
        _check_order(self.m)
        if self.sided not in (TWO_SIDED, ONE_SIDED):
            raise ValueError(f"sided must be {TWO_SIDED!r} or {ONE_SIDED!r}, got {self.sided!r}")
        c_two = math.exp(-log_rate_constant(self.m))
        # Halving is exact in binary floating point, so the two/one ratio
        # is exactly 2 for every m.
        object.__setattr__(self, "c", 0.5 * c_two if self.sided == ONE_SIDED else c_two)

    def cdf(self, z: float) -> float:
        """F(z) = exp(-c * exp(-z/2)) for scalar z, with F(+inf) = 1."""
        z = float(z)
        if math.isnan(z):
            raise ValueError("z must not be NaN")
        if z < _Z_UNDERFLOW:
            return 0.0
        return math.exp(-self.c * math.exp(-0.5 * z))

    def sf(self, z: float) -> float:
        """Upper tail 1 - F(z), computed without cancellation.

        Uses expm1 so that p-values far in the right tail keep full
        relative accuracy (1 - F(z) ~ c * exp(-z/2) there).
        """
        z = float(z)
        if z < _Z_UNDERFLOW:
            return 1.0
        return -math.expm1(-self.c * math.exp(-0.5 * z))

    def quantile(self, q: float) -> float:
        """Closed-form inverse of the CDF: z = -2 * log(-log(q) / c)."""
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        return -2.0 * math.log(-math.log(q) / self.c)

    def cdf_array(self, z) -> np.ndarray:
        """Vectorized CDF over an array of z values."""
        z = np.asarray(z, dtype=np.float64)
        with np.errstate(over="ignore"):
            return np.exp(-self.c * np.exp(-0.5 * z))


@dataclass(frozen=True)
class NormalizedStat:
    """A statistic value together with its centered form T."""

    t_value: float
    w: float
    n: int
    p: int
    m: int


def normalize(w: float, n: int, p: int, m: int) -> NormalizedStat:
    """Center the maximum entry statistic: T = w**2 - 2*m*log(p) + log(log(p)).

    Parameters
    ----------
    w : float
        The maximum entry statistic, >= 0.  A signed maximum must be
        clipped (or flagged) by the caller before normalizing.
    n : int
        Sample size; carried along for reporting, not used in the formula.
    p : int
        Number of coordinates, >= 3.
    m : int
        Tensor order.

    Returns
    -------
    NormalizedStat
    """
    w = float(w)
    return NormalizedStat(t_value=center(w, p, m), w=w, n=int(n), p=int(p), m=int(m))


def center(w, p: int, m: int):
    """T = w**2 - 2*m*log(p) + log(log(p)) for one statistic or an array of them.

    A float gives a float and an array an array.  The operations and
    their order are the same either way, so an array entry has the same
    bits as the scalar result for that value.  Every w must be finite and
    >= 0.
    """
    _check_order(m)
    _check_p(p)
    ws = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(ws) & (ws >= 0.0)):
        raise ValueError(f"w must be finite and >= 0, got {w}")
    lp = math.log(p)
    return w * w - 2.0 * m * lp + math.log(lp)


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
    _check_order(m)
    _check_p(p)
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    lp = math.log(p)
    radicand = lp - (math.log(lp) + 2.0 * log_rate_constant(m) - z) / (2.0 * m)
    if radicand <= 0.0:
        raise ValueError(
            f"nu_p radicand must be positive, got {radicand} for z={z}, p={p}, m={m}"
        )
    return math.sqrt(radicand)


def lambda_limit(z: float) -> float:
    """Limiting Poisson intensity exp(-z/2) of threshold exceedances.

    Consistency with the limit law: cdf(z) == exp(-c * lambda_limit(z))
    holds bit for bit because both sides evaluate the same expression.
    """
    return math.exp(-0.5 * float(z))


def ratio_target(m: int) -> float:
    """Limit in probability of W / sqrt(log p), namely sqrt(2m)."""
    _check_order(m)
    return math.sqrt(2.0 * m)
