"""Asymptotic independence test built on the maximum entry statistic.

Under the null of i.i.d. standardized coordinates the centered statistic
T follows the Gumbel-type limit, so the upper tail 1 - F(T) serves as an
asymptotic p-value.  Inputs are assumed variance-1; the test does not
studentize internally because empirical rescaling changes the law of the
statistic.  The CLI offers an explicit opt-in studentize flag, clearly a
heuristic outside the theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import statcore
from .asymptotics import TWO_SIDED, GumbelLimit, check_int, check_sided, normalize
from .populations import RegimeReport, check_regime
from .serial import JsonRecord
from .statcore import StatResult

LEVELS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class TestResult(JsonRecord):
    """Statistic, normalized value, p-value and fixed-level decisions.

    ``signed_nonpositive`` marks the degenerate one-sided case where the
    signed maximum is <= 0; :func:`sided_statistic` then clips the
    statistic to 0 before normalization.
    """

    stat: StatResult
    t_value: float
    p_value: float
    decisions: dict[float, bool] = field(default_factory=dict)
    regime: RegimeReport | None = None
    sided: str = TWO_SIDED
    signed_nonpositive: bool = False


def _limit_for(shape: tuple, m, sided: str, cost_ceiling: int) -> GumbelLimit:
    """The limit law of a request, checked before any enumeration work.

    Sidedness, width (p >= 3) and the order (2 <= m <= p) come first.
    The budget is checked before the order's factorial guard (m <= 20),
    as statcore checks it before it enumerates, so an oversized request
    still reports its cost.  A malformed matrix is left to statcore,
    which names it.
    """
    check_sided(sided)
    if len(shape) == 2:
        n, p = shape
        check_int("p", p, 3)
        statcore.check_budget([(p, check_int("m", m, 2, p), n, 1)], cost_ceiling)
    return GumbelLimit(m, sided)


def sided_statistic(w_abs, w_signed, sided: str):
    """(statistic, count clipped) of a ``sided`` test, for one pair of maxima or arrays of them.

    Two-sided: w_abs.  One-sided: w_signed clipped at 0, counting each
    w_signed <= 0 (asymptotically negligible under the null).
    """
    if sided == TWO_SIDED:
        return w_abs, 0
    return np.maximum(w_signed, 0.0), int(np.count_nonzero(np.less_equal(w_signed, 0.0)))


def _finish(stat: StatResult, limit: GumbelLimit) -> TestResult:
    w, flagged = sided_statistic(stat.w_abs, stat.w_signed, limit.sided)
    t_value = normalize(w, stat.p, stat.m)
    p_value = limit.sf(t_value)
    return TestResult(
        stat=stat,
        t_value=t_value,
        p_value=p_value,
        decisions={lvl: p_value < lvl for lvl in LEVELS},
        regime=check_regime(stat.n, stat.p, stat.m),
        sided=limit.sided,
        signed_nonpositive=bool(flagged),
    )


def test_independence(
    X,
    m: int,
    sided: str = TWO_SIDED,
    *,
    cost_ceiling: int = statcore.DEFAULT_COST_CEILING,
) -> TestResult:
    """Test coordinate independence from a single n-by-p sample.

    Parameters
    ----------
    X : array_like
        Data matrix with variance-1 coordinates (not checked).
    m : int
        Tensor order of the statistic.
    sided : str
        ``"two_sided"`` uses the absolute maximum and its limit law;
        ``"one_sided"`` uses the signed maximum with the halved rate
        constant.

    Returns
    -------
    TestResult
        p_value is strictly decreasing in the statistic for fixed
        (n, p, m); decisions compare it against levels 0.01/0.05/0.10.
    """
    limit = _limit_for(np.shape(X), m, sided, cost_ceiling)
    stat = statcore.max_entry(X, m, cost_ceiling=cost_ceiling)
    return _finish(stat, limit)


def test_independence_multi(
    matrices,
    sided: str = TWO_SIDED,
    *,
    cost_ceiling: int = statcore.DEFAULT_COST_CEILING,
) -> TestResult:
    """Independence test for the multi-population product tensor."""
    matrices = list(matrices)
    limit = _limit_for(np.shape(matrices[0]) if matrices else (), len(matrices), sided, cost_ceiling)
    stat = statcore.max_entry_multi(matrices, cost_ceiling=cost_ceiling)
    return _finish(stat, limit)
