"""Seeded generation of standardized i.i.d. data matrices.

Every population family is standardized analytically, never empirically:
the centered exponential is Exp(1) - 1, the scaled uniform is
sqrt(3)*U(-1, 1), and the standardized Student t is t_df/sqrt(df/(df-2)).
Each family therefore has exact mean 0 and variance 1.

The Student t family (polynomial tails) deliberately violates the
sub-exponential moment condition under which the ultra-high-dimension
limit theorem holds; it is included so experiments can probe regime
sensitivity, not because the limit law is claimed for it.

Randomness is counter-based: every value stream is a pure function of
(master_seed, stream_id), realized as a Philox generator keyed through a
SeedSequence.  Distinct stream ids give independent streams, and a
generated matrix is byte-identical across runs and worker counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import check_int, check_real, nu_p
from .serial import WRITE_IF_SET, JsonRecord

STANDARD_NORMAL = "standard_normal"
RADEMACHER = "rademacher"
UNIFORM_SCALED = "uniform_scaled"
CENTERED_EXPONENTIAL = "centered_exponential"
STUDENT_T_STANDARDIZED = "student_t_standardized"

FAMILIES = (
    STANDARD_NORMAL,
    RADEMACHER,
    UNIFORM_SCALED,
    CENTERED_EXPONENTIAL,
    STUDENT_T_STANDARDIZED,
)

_UINT64_MAX = 2**64 - 1
_SQRT3 = math.sqrt(3.0)

ULTRA_HIGH = "ultra_high"
POLYNOMIAL = "polynomial"
OUTSIDE = "outside"


@dataclass(frozen=True)
class SeedSpec(JsonRecord):
    """Deterministic stream address: (master_seed, stream_id).

    Both components are 64-bit unsigned integers.  The stream_id is
    conventionally the replicate index, so any replicate can be
    regenerated in isolation.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            check_int(name, getattr(self, name), 0, _UINT64_MAX)


@dataclass(frozen=True)
class PopulationSpec(JsonRecord):
    """A standardized population family, with the df of the Student t."""

    family: str
    df: int | None = field(default=None, metadata=WRITE_IF_SET)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose one of {FAMILIES}")
        if self.family == STUDENT_T_STANDARDIZED:
            # the variance df/(df-2) needs df > 2
            check_int("df", self.df, 3)
        elif self.df is not None:
            raise ValueError(f"df only applies to {STUDENT_T_STANDARDIZED}, got family {self.family!r}")

    @property
    def label(self) -> str:
        """Display name: the family, with its df when set."""
        return self.family if self.df is None else f"{self.family}(df={self.df})"


@dataclass(frozen=True)
class RegimeReport(JsonRecord):
    """Advisory classification of (n, p) against the two growth regimes."""

    regime: str
    ultra_high: bool
    polynomial: bool
    alpha: float
    beta: float
    tau1: float
    tau2: float
    log_p: float
    n_pow_beta: float
    n_pow_alpha: float
    c_n: float | None


def make_generator(seed: SeedSpec, extra: tuple[int, ...] = ()) -> np.random.Generator:
    """Philox generator keyed purely by (master_seed, stream_id, *extra).

    The optional extra components let estimators shard a stream into
    deterministic sub-streams (for example one per replicate block)
    without ever depending on worker count or scheduling.
    """
    ss = np.random.SeedSequence((int(seed.master_seed), int(seed.stream_id), *map(int, extra)))
    return np.random.Generator(np.random.Philox(ss))


def draw(spec: PopulationSpec, rng: np.random.Generator, shape) -> np.ndarray:
    """Fill an array of the given shape with i.i.d. standardized draws."""
    if spec.family == STANDARD_NORMAL:
        return rng.standard_normal(shape)
    if spec.family == RADEMACHER:
        # int8 draws consume a quarter of the bit stream of the default
        # int64 path and convert exactly to +/-1.0
        bits = rng.integers(0, 2, size=shape, dtype=np.int8)
        return bits.astype(np.float64) * 2.0 - 1.0
    if spec.family == UNIFORM_SCALED:
        return rng.uniform(-_SQRT3, _SQRT3, size=shape)
    if spec.family == CENTERED_EXPONENTIAL:
        return rng.standard_exponential(shape) - 1.0
    if spec.family == STUDENT_T_STANDARDIZED:
        scale = math.sqrt(spec.df / (spec.df - 2.0))
        return rng.standard_t(spec.df, size=shape) / scale
    raise ValueError(f"unknown family {spec.family!r}")  # unreachable after validation


def sample_values(spec: PopulationSpec, shape, seed: SeedSpec) -> np.ndarray:
    """Draw an i.i.d. array of arbitrary shape from one stream."""
    return draw(spec, make_generator(seed), shape)


def sample_matrix(spec: PopulationSpec, n: int, p: int, seed: SeedSpec) -> np.ndarray:
    """Generate an n-by-p data matrix of i.i.d. standardized draws.

    Parameters
    ----------
    spec : PopulationSpec
        Population family.
    n : int
        Number of observations (rows), >= 1.
    p : int
        Number of coordinates (columns), >= 3 so that the downstream
        normalization log(log(p)) is positive.
    seed : SeedSpec
        Stream address; fixing it fixes every value in the matrix.

    Returns
    -------
    numpy.ndarray
        C-contiguous float64 array of shape (n, p), filled in row-major
        order from a single stream.
    """
    return sample_values(spec, (check_int("n", n, 1), check_int("p", p, 3)), seed)


def usable_workers(workers: int) -> int:
    """min(workers, CPUs available to the process), for an integer ``workers`` >= 1."""
    workers = check_int("workers", workers, 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def parallel_map(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, on up to ``workers`` processes.

    ``workers`` must be an integer >= 1.  At most
    min(workers, len(tasks), available CPUs) processes start, and none
    when that is 1.  Tasks carry their own stream addresses, so the
    result does not depend on the worker count.
    """
    tasks = list(tasks)
    procs = min(usable_workers(workers), len(tasks))
    if procs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * procs))))


def check_regime(n: int, p: int, m: int, alpha: float = 1.0) -> RegimeReport:
    """Classify (n, p, m) against the two asymptotic growth regimes.

    alpha in (0, 1] is the sub-exponential moment exponent of the
    ultra-high dimension condition E exp(t0 |x|^alpha) < infinity, and
    doubles as the polynomial growth exponent.  The ultra-high-dimension
    regime asks log(p) <= n**beta with beta = alpha/(2m - alpha); the
    polynomial regime asks p <= n**alpha.  The report also carries the
    moment thresholds tau1 = 4*m*alpha + 2 and tau2 = 2*m*alpha + 3/2.
    It is advisory only and never blocks a computation: finite (n, p)
    can only ever be checked against the shape of the conditions, not
    their limits.
    """
    n, p = check_int("n", n, 1), check_int("p", p, 3)
    m = check_int("m", m, 2, p)
    alpha = check_real("alpha", alpha, 0.0, 1.0, ends="(]")
    beta = alpha / (2.0 * m - alpha)
    log_p = math.log(p)
    n_pow_beta = float(n) ** beta
    n_pow_alpha = float(n) ** alpha
    ultra = log_p <= n_pow_beta
    poly = float(p) <= n_pow_alpha
    regime = ULTRA_HIGH if ultra else (POLYNOMIAL if poly else OUTSIDE)
    # Threshold growth constant sqrt(2m/log n) * nu_p at z = 0; only
    # defined once p is large enough for nu_p and n > 1 for log n.
    c_n = None
    if n > 1:
        try:
            c_n = math.sqrt(2.0 * m / math.log(n)) * nu_p(0.0, p, m)
        except ValueError:
            c_n = None
    return RegimeReport(
        regime=regime,
        ultra_high=ultra,
        polynomial=poly,
        alpha=alpha,
        beta=beta,
        tau1=4.0 * m * alpha + 2.0,
        tau2=2.0 * m * alpha + 1.5,
        log_p=log_p,
        n_pow_beta=n_pow_beta,
        n_pow_alpha=n_pow_alpha,
        c_n=c_n,
    )
