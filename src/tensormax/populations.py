"""Seeded generation of standardized i.i.d. data matrices.

Every population family is standardized analytically, never empirically:
the centered exponential is Exp(1) - 1, the scaled uniform is
sqrt(3)*U(-1, 1), and the standardized Student t is t_df/sqrt(df/(df-2)).
Each family therefore has exact mean 0 and variance 1.

The Student t family (polynomial tails) deliberately violates the
sub-exponential moment condition under which the ultra-high-dimension
limit theorem holds; it is included so experiments can probe regime
sensitivity, not because the limit law is claimed for it.

Randomness is seeded: every data stream is a pure function of
(master_seed, stream_id), realized as a Philox generator keyed through a
SeedSequence (``make_generator``, the definition of a stream).  Distinct
stream ids give independent streams, and a generated matrix is
byte-identical across runs and worker counts.  A stack of replicates
takes the same streams by a cheaper route: ``_philox_keys`` computes the
SeedSequence keys of all its streams in one vectorized pass, and
``sample_stack`` re-keys one Philox generator per matrix, byte-identical
to ``make_generator``.  The Monte Carlo blocks of ``diagnostics`` draw
from SFC64, which is faster; data matrices stay on Philox until the
benchmark's pinned record digests are regenerated, when both will share
one generator.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import MAX_ORDER, check_int, check_real, nu_p
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
_MASK32 = 2**32 - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SQRT3 = math.sqrt(3.0)
# The largest integer that float() rounds to a finite value: halfway to
# 2**1024 and above, it rounds up and raises OverflowError.
_FLOAT_INT_MAX = 2**1024 - 2**970 - 1

# held for the span of each threaded map, which cuts the process-wide BLAS thread count
_ONE_MAP = threading.Lock()

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
            # the variance df/(df-2) needs df > 2, and a df that float() can hold
            check_int("df", self.df, 3, _FLOAT_INT_MAX)
        elif self.df is not None:
            raise ValueError(f"df only applies to {STUDENT_T_STANDARDIZED}, got family {self.family!r}")


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


def make_generator(seed: SeedSpec) -> np.random.Generator:
    """Philox generator keyed purely by (master_seed, stream_id): the data streams.

    Every data matrix and ``sample_values`` array draws from it, so
    ``simulate`` records keep their bytes.  The Monte Carlo blocks use
    ``diagnostics._block_generator`` (SFC64) instead.
    """
    ss = np.random.SeedSequence((int(seed.master_seed), int(seed.stream_id)))
    return np.random.Generator(np.random.Philox(ss))


def _philox_keys(master_seed: int, streams) -> np.ndarray:
    """The (R, 2) uint64 Philox keys of streams (master_seed, s) for s in ``streams``.

    Row i is ``SeedSequence((master_seed, streams[i])).generate_state(2,
    np.uint64)``, the key ``make_generator`` gives, computed for every
    stream in one pass.  SeedSequence's entropy here is master_seed's one
    or two 32-bit words, then the stream's low and high words, within its
    pool of 4 words: a high word of 0 hashes as the pool's padding does,
    and no word is left over for its extra-entropy loop.  Both seed
    components are integers from 0 to 2**64 - 1.
    """
    master_seed = int(master_seed)
    streams = np.asarray(streams, dtype=np.uint64)
    words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = [np.full(streams.shape, word, dtype=np.uint32) for word in words]
    entropy += [(streams & np.uint64(_MASK32)).astype(np.uint32), (streams >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros(streams.shape, dtype=np.uint32)] * (4 - len(entropy))
    hashmix, output = _seed_hash(_INIT_A, _MULT_A), _seed_hash(_INIT_B, _MULT_B)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * np.uint32(_MIX_MULT_L) - hashmix(pool[src]) * np.uint32(_MIX_MULT_R)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = [output(word).astype(np.uint64) for word in pool]
    # generate_state pairs the words little-endian into uint64s
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=-1)


def _seed_hash(hash_const: int, mult: int):
    """SeedSequence's running hash of uint32 arrays; its constant steps by ``mult`` per call.

    uint32 array arithmetic wraps modulo 2**32, as SeedSequence's does.
    """

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hash_


def draw(spec: PopulationSpec, rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Fill an array of the given shape with i.i.d. standardized draws.

    Every family writes its values into ``out``, a C-contiguous float64
    array of that shape, and returns it; without ``out``, into a new one.
    """
    if out is None:
        out = np.empty(shape)
    if spec.family == STANDARD_NORMAL:
        return rng.standard_normal(shape, out=out)
    if spec.family == CENTERED_EXPONENTIAL:
        return np.subtract(rng.standard_exponential(shape, out=out), 1.0, out=out)
    if spec.family == UNIFORM_SCALED:
        # uniform(-a, a) is -a + 2a * random(), value by value: the same bits, in place
        return np.subtract(np.multiply(rng.random(shape, out=out), 2.0 * _SQRT3, out=out), _SQRT3, out=out)
    if spec.family == RADEMACHER:
        # int8 draws consume a quarter of the bit stream of the default
        # int64 path and convert exactly to +/-1.0
        bits = rng.integers(0, 2, size=shape, dtype=np.int8)
        return np.subtract(np.multiply(bits, 2.0, out=out), 1.0, out=out)
    if spec.family == STUDENT_T_STANDARDIZED:
        scale = math.sqrt(spec.df / (spec.df - 2.0))
        return np.divide(rng.standard_t(spec.df, size=shape), scale, out=out)
    raise ValueError(f"unknown family {spec.family!r}")  # unreachable after validation


def sample_values(spec: PopulationSpec, shape, seed: SeedSpec) -> np.ndarray:
    """Draw an i.i.d. array of arbitrary shape from one stream."""
    return draw(spec, make_generator(seed), shape)


def sample_matrix(spec: PopulationSpec, n: int, p: int, seed: SeedSpec) -> np.ndarray:
    """The n-by-p matrix of i.i.d. standardized draws from the stream ``seed``.

    n >= 1 rows (observations) and p >= 3 columns (coordinates), so
    that the normalization's log(log(p)) is positive.  The matrix is
    C-contiguous float64, filled row by row, and fixing the seed fixes
    every value.
    """
    return sample_values(spec, (check_int("n", n, 1), check_int("p", p, 3)), seed)


def sample_stack(spec: PopulationSpec, n: int, p: int, keys: np.ndarray) -> np.ndarray:
    """The (R, n, p) stack whose matrix i is drawn from the Philox stream keyed by ``keys[i]``.

    With ``keys = _philox_keys(master_seed, streams)``, matrix i equals
    ``sample_matrix(spec, n, p, SeedSpec(master_seed, streams[i]))``
    byte for byte.  One Philox generator serves the whole stack: before
    each matrix it is put back in its state as built, counter 0 and an
    empty buffer, with the matrix's key, which costs a few microseconds
    against a SeedSequence and a generator per matrix.  Each matrix is
    drawn straight into its row of the stack.  n and p are not checked
    here.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    keys = np.asarray(keys, dtype=np.uint64).tolist()
    X = np.empty((len(keys), n, p))
    for i, key in enumerate(keys):
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        draw(spec, rng, (n, p), out=X[i])
    return X


def usable_workers(workers: int) -> int:
    """min(workers, CPUs available to the process), for an integer ``workers`` >= 1."""
    workers = check_int("workers", workers, 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def parallel_map(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, on up to ``workers`` threads.

    ``workers`` must be an integer >= 1.  At most
    min(workers, len(tasks), available CPUs) threads start, and none
    when that is 1.  While they run, the BLAS threads are cut to an even
    share of their count (see ``_blas_share``).  One threaded map runs
    at a time per process: a map that other threads start meanwhile
    waits for it, so each one sets the count from its full value and
    restores it.  So a task must not start a threaded map of its own,
    and no library task does.  Tasks carry their own stream addresses,
    so the result does not depend on the worker count.
    """
    tasks = list(tasks)
    size = min(usable_workers(workers), len(tasks))
    if size <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with _ONE_MAP, _blas_share(size), ThreadPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks))


@contextlib.contextmanager
def _blas_share(workers: int):
    """Set the BLAS threads to max(1, threads // workers) for the body, and restore them after.

    The count is process-wide: BLAS work that other threads of the
    process run meanwhile runs under the cut count too.  Where numpy's
    OpenBLAS has no thread-count call, a stand-in that sets nothing
    takes its place, and the body runs uncapped.
    """
    get, set_ = _openblas_threads() or (lambda: 1, lambda threads: None)
    before = get()
    set_(max(1, before // workers))
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count calls of the OpenBLAS in numpy's wheel, or None.

    numpy has no public call for them.  Its wheels carry OpenBLAS in
    ``numpy.libs``: numpy >= 2 names the calls ``scipy_openblas_*64_``
    and numpy 1.x ``openblas_*64_``.  RTLD_NOLOAD opens only a library
    that is already loaded, so no second BLAS is ever loaded.
    """
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


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
    n, p = check_int("n", n, 1, _FLOAT_INT_MAX), check_int("p", p, 3, _FLOAT_INT_MAX)
    m = check_int("m", m, 2, p)
    alpha = check_real("alpha", alpha, 0.0, 1.0, ends="(]")
    beta = alpha / (2.0 * m - alpha)
    log_p = math.log(p)
    n_pow_beta = float(n) ** beta
    n_pow_alpha = float(n) ** alpha
    ultra = log_p <= n_pow_beta
    poly = float(p) <= n_pow_alpha
    regime = ULTRA_HIGH if ultra else (POLYNOMIAL if poly else OUTSIDE)
    # Threshold growth constant sqrt(2m/log n) * nu_p at z = 0, for n > 1.  nu_p(0, p, m)
    # is defined for every p >= max(3, m) with m <= 20 (least 0.334, at p = m = 3),
    # so c_n is None only at n = 1 and past m = 20, where nu_p refuses the order.
    c_n = math.sqrt(2.0 * m / math.log(n)) * nu_p(0.0, p, m) if n > 1 and m <= MAX_ORDER else None
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
