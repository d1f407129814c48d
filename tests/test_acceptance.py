"""Acceptance suite: the verification gate for the whole package.

Each test prints one [PASS]/[FAIL] line with the measured quantity so a
run with ``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
Monte Carlo checks use fixed seeds and are fully deterministic.

The limit law is a statement about p -> infinity (and, for the Gaussian
tail approximation behind it, about n large), so the checks that touch
it assert only what the law promises at the sizes they run:

* the threshold duality is checked on the probability scale, where
  cdf(T(sqrt(2m) nu_p(z))) == exp(-lambda_limit(z)) holds exactly; on
  the statistic scale it carries the constant -2*log(m! sqrt(m pi));
* the m=3 KS and type-I bands are asserted at n=3000, where the tail of
  a product of three normals is close enough to Gaussian; the n=300
  cell stays in the fixture and its over-rejection is printed;
* the W/sqrt(log p) bands are centred at the finite-p mean that the
  limit law itself predicts, which sits more than 8% below sqrt(2m) at
  every p used here, and the m=2 gap to 2 must shrink from p=20 to
  p=100;
* the improvement of the KS fit in p is checked on the exact n -> oo
  law of the m=2 statistic (the maximum of C(p, 2) independent chi2_1
  values), because at fixed n=500 the Monte Carlo fit gets worse, not
  better, from p=20 to p=100.

Each of those tests' docstrings carries the measurements behind it.
"""

import math
import os
import time

import numpy as np
import pytest

from tensormax import (
    CellConfig,
    ExperimentConfig,
    GumbelLimit,
    PopulationSpec,
    SeedSpec,
    estimate_lambda,
    hypotest,
    lambda_limit,
    log_rate_constant,
    max_entry,
    max_entry_bruteforce,
    moderate_deviation_ratio,
    normalize,
    nu_p,
    ratio_target,
    run_experiment,
    sample_matrix,
)
from tensormax.asymptotics import ONE_SIDED, TWO_SIDED
from tensormax.populations import RADEMACHER, STANDARD_NORMAL, UNIFORM_SCALED

MASTER_SEED = 12345
WORKERS = min(4, os.cpu_count() or 1)

NORMAL = PopulationSpec(STANDARD_NORMAL)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def experiment_m2():
    """m=2 cells at p=20 and p=100, n=500, 2000 replicates."""
    cfg = ExperimentConfig(
        grid=(
            CellConfig(n=500, p=20, m=2, spec=NORMAL),
            CellConfig(n=500, p=100, m=2, spec=NORMAL),
        ),
        reps=2000,
        master_seed=MASTER_SEED,
    )
    return run_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def experiment_m3():
    """m=3 cells at p=40 and n=300, n=3000, 1000 replicates.

    The two cells need about 3.5e10 multiply-adds together (3.2e10 of
    them at n=3000), above the library's default ceiling of 1e10, so the
    budget is raised here for this fixture only.
    """
    cfg = ExperimentConfig(
        grid=(
            CellConfig(n=300, p=40, m=3, spec=NORMAL),
            CellConfig(n=3000, p=40, m=3, spec=NORMAL),
        ),
        reps=1000,
        master_seed=MASTER_SEED,
    )
    return run_experiment(cfg, workers=WORKERS, budget=4 * 10**10)


def finite_p_ratio_mean(m: int, p: int) -> float:
    """Mean of W/sqrt(log p) at finite p when T follows the limit law exactly.

    W**2 = T + 2m*log p - log log p, so W/sqrt(log p) equals
    sqrt(2m - (log log p - T)/log p).  Its expectation under
    F = GumbelLimit(m) is taken by midpoint quadrature over the quantile
    function; W >= 0 clips the radicand at 0 in the far left tail.
    """
    points = 20000
    limit = GumbelLimit(m)
    lp = math.log(p)
    llp = math.log(lp)
    total = 0.0
    for i in range(points):
        t = limit.quantile((i + 0.5) / points)
        total += math.sqrt(max(0.0, 2.0 * m - (llp - t) / lp))
    return total / points


def ratio_band_report(name: str, cells, m: int) -> bool:
    """Print and check every cell's mean ratio against its finite-p band.

    The half-width stays 8% of sqrt(2m); the band is centred at
    :func:`finite_p_ratio_mean` for the cell's p.
    """
    half = 0.08 * ratio_target(m)
    ok = True
    for cell in cells:
        centre = finite_p_ratio_mean(m, cell.cell.p)
        inside = abs(cell.ratio_mean - centre) <= half
        ok = ok and inside
        report(
            f"{name} (n={cell.cell.n}, p={cell.cell.p})",
            inside,
            f"ratio_mean = {cell.ratio_mean:.4f}, finite-p limit {centre:.4f}, "
            f"band [{centre - half:.3f}, {centre + half:.3f}], sqrt(2m) = {ratio_target(m):.4f}",
        )
    return ok


def test_oracle_equivalence():
    """200 random small instances: optimized path == reference, exactly."""
    rng = np.random.default_rng(20250809)
    specs = [NORMAL, PopulationSpec(RADEMACHER), PopulationSpec(UNIFORM_SCALED)]
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(200):
        m = int(rng.choice([2, 3, 4]))
        p = int(rng.integers(max(m, 3), 13))
        n = int(rng.integers(1, 21))
        X = sample_matrix(specs[trial % 3], n, p, SeedSpec(MASTER_SEED, trial))
        if max_entry(X, m) != max_entry_bruteforce(X, m):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(
        "oracle equivalence",
        ok,
        f"{200 - mismatches}/200 exact matches in {elapsed:.2f}s (limit 10s)",
    )


def test_rate_constant_regression():
    """m=2 two-sided constant is 1/sqrt(8 pi); two/one ratio is exactly 2."""
    dev = abs(GumbelLimit(2).c - 1.0 / math.sqrt(8.0 * math.pi))
    ratios_exact = all(
        GumbelLimit(m, TWO_SIDED).c / GumbelLimit(m, ONE_SIDED).c == 2.0
        for m in range(2, 21)
    )
    ok = dev <= 1e-15 and ratios_exact
    assert report(
        "rate constant regression",
        ok,
        f"|c - 1/sqrt(8pi)| = {dev:.2e} (tol 1e-15); ratio exact for m<=20: {ratios_exact}",
    )


def test_quantile_cdf_round_trip():
    """quantile(cdf(z)) recovers z within 1e-10 over [-5, 10], m = 2..6."""
    zs = np.linspace(-5.0, 10.0, 1000)
    worst = 0.0
    for m in range(2, 7):
        for sided in (TWO_SIDED, ONE_SIDED):
            lim = GumbelLimit(m, sided)
            for z in zs:
                worst = max(worst, abs(lim.quantile(lim.cdf(z)) - z))
    ok = worst <= 1e-10
    assert report(
        "quantile/cdf round trip",
        ok,
        f"max |quantile(cdf(z)) - z| = {worst:.3e} over 1000 z x 5 orders x 2 sides (tol 1e-10)",
    )


def test_threshold_duality_offset_free():
    """The threshold nu_p(z) has limit probability exp(-exp(-z/2)), offset-free.

    With nu_p(z)**2 = log p - (log log p + 2*log(m! sqrt(m pi)) - z)/(2m),
    squaring w = sqrt(2m)*nu_p(z) and centering gives exactly

        T = 2m*nu_p(z)**2 - 2m*log p + log log p = z - 2*log(m! sqrt(m pi)),

    so on the statistic scale the duality carries a constant offset
    (3.224 at m=2, growing with m; also asserted in
    test_asymptotics.py::TestNuP::test_duality_with_offset).  The
    offset-free form holds on the probability scale: the offset is
    -2*log(1/c), so c*exp(-T/2) = exp(-z/2) and

        GumbelLimit(m).cdf(T) == exp(-lambda_limit(z)),

    i.e. nu_p(z) is the level whose exceedance count has intensity
    exp(-z/2), as the nu_p and lambda_limit docstrings state.  Both
    identities are checked over 100 random (z, p, m) at 1e-12; the
    probability-scale residual measured 7.2e-15 on this generator seed.
    """
    rng = np.random.default_rng(4)
    worst_probability = 0.0
    worst_with_offset = 0.0
    for _ in range(100):
        z = float(rng.uniform(-4.0, 4.0))
        p = int(rng.integers(10, 10**6))
        m = int(rng.integers(2, 7))
        t = normalize(math.sqrt(2.0 * m) * nu_p(z, p, m), p, m)
        prob = GumbelLimit(m).cdf(t)
        worst_probability = max(worst_probability, abs(prob - math.exp(-lambda_limit(z))))
        worst_with_offset = max(worst_with_offset, abs(t - (z - 2.0 * log_rate_constant(m))))
    ok = worst_probability <= 1e-12 and worst_with_offset <= 1e-12
    assert report(
        "threshold duality (offset-free on the probability scale)",
        ok,
        f"max |cdf(T) - exp(-lambda(z))| = {worst_probability:.2e}; "
        f"max |T - (z - 2 log(m! sqrt(m pi)))| = {worst_with_offset:.2e} (tol 1e-12)",
    )


def test_limit_convergence_m2_ks(experiment_m2):
    """m=2, n=500, p=100, 2000 reps: KS distance to the limit <= 0.08."""
    ks100 = experiment_m2.cells[1].ks_distance
    ok = ks100 <= 0.08
    assert report("m=2 convergence (KS at p=100)", ok, f"KS = {ks100:.4f} (tol 0.08)")


KS_GRID_STEP = 1e-3


def chi2_max_ks(p: int) -> float:
    """KS distance from the n -> oo law of the m=2 statistic to GumbelLimit(2).

    As n -> oo at fixed p the C(p, 2) normalized pair sums of i.i.d.
    standardized coordinates tend to independent N(0, 1) variables
    (distinct pair products are uncorrelated), so W**2 tends to the
    maximum of C(p, 2) independent chi2_1 values, whose CDF at W = w is
    erf(w/sqrt 2)**C(p, 2).  Each w is centred by ``normalize`` and
    compared with ``GumbelLimit(2).cdf`` on a T-grid of step KS_GRID_STEP
    over [-12, 40]; both CDFs are 0 or 1 to double precision outside it.
    """
    limit = GumbelLimit(2)
    pairs = math.comb(p, 2)
    lp = math.log(p)
    shift = 4.0 * lp - math.log(lp)
    worst = 0.0
    for i in range(int(round(52.0 / KS_GRID_STEP)) + 1):
        radicand = -12.0 + i * KS_GRID_STEP + shift
        if radicand <= 0.0:
            continue
        w = math.sqrt(radicand)
        t = normalize(w, p, 2)
        exact = math.exp(pairs * math.log1p(-math.erfc(w / math.sqrt(2.0))))
        worst = max(worst, abs(exact - limit.cdf(t)))
    return worst


def test_limit_convergence_m2_ks_trend(experiment_m2):
    """The m=2 KS distance to the limit decreases strictly in p (n -> oo law).

    The improvement in p is a property of the limit in p, reached only
    once n is large enough for the Gaussian tail approximation at the
    level sqrt(4 log p).  It is checked on the exact n -> oo law of the
    statistic (see :func:`chi2_max_ks`), which is noise-free: KS is
    0.0401, 0.0337, 0.0259 and 0.0206 at p = 20, 100, 1000 and 1e4.  The
    grid maximum is within KS_GRID_STEP * (sum of the two densities)
    <= KS_GRID_STEP of the true supremum, so each decrease must exceed
    KS_GRID_STEP.

    The fixture's two Monte Carlo KS values are printed, not ordered: at
    fixed n=500 the maximum sits deeper in the non-Gaussian tail of the
    product sums as p grows, and the fit gets worse from p=20 to p=100.
    At 10k to 20k replicates on 4 seeds, KS was 0.041 to 0.047 at p=20
    and 0.053 to 0.061 at p=100; growing n with p (n = 5p, (100, 20))
    gave 0.047 to 0.051.  The exact-law gap between p=20 and p=100
    (0.006) is also below the ~0.01 resolution of a 2000-replicate KS.
    """
    ps = (20, 100, 1000, 10**4)
    ks = [chi2_max_ks(p) for p in ps]
    ok = all(later < earlier - KS_GRID_STEP for earlier, later in zip(ks, ks[1:]))
    ks20 = experiment_m2.cells[0].ks_distance
    ks100 = experiment_m2.cells[1].ks_distance
    assert report(
        "m=2 convergence trend (exact n -> oo law, KS strictly decreasing in p)",
        ok,
        ", ".join(f"KS(p={p}) = {d:.4f}" for p, d in zip(ps, ks))
        + f"; Monte Carlo at fixed n=500 (not ordered): KS(p=20) = {ks20:.4f}, "
        f"KS(p=100) = {ks100:.4f}",
    )


def test_limit_convergence_m3_ks(experiment_m3):
    """m=3, p=40, 1000 reps: KS <= 0.10 at n=3000, and below KS at n=300.

    Products of three standard normals have sub-exponential tails with
    exponent 2/3, so at the threshold sqrt(6 log 40) ~ 4.7 the n=300 sum
    has a visibly heavier tail than the Gaussian: the centred statistic
    sits about +1.3 right of the limit and KS is 0.19 to 0.22 (seeds
    12345, 1, 2, 3).  The law promises nothing at fixed n, so the band is
    asserted at n=3000 (KS 0.035 to 0.069 on the same seeds), together
    with the decrease from n=300 to n=3000.  The n=300 value is printed
    to keep the finite-n misfit on record.
    """
    ks300 = experiment_m3.cells[0].ks_distance
    ks3000 = experiment_m3.cells[1].ks_distance
    ok = ks3000 <= 0.10 and ks3000 < ks300
    assert report(
        "m=3 convergence (KS at p=40)",
        ok,
        f"KS(n=3000) = {ks3000:.4f} (tol 0.10), below KS(n=300) = {ks300:.4f}",
    )


def test_type1_error_m2(experiment_m2):
    """Empirical rejection at nominal 0.05 within [0.02, 0.10], m=2 cells."""
    rates = [cell.type1[0.05] for cell in experiment_m2.cells]
    ok = all(0.02 <= r <= 0.10 for r in rates)
    assert report(
        "type-I error (m=2 cells)",
        ok,
        f"rejection at 0.05: p=20 -> {rates[0]:.4f}, p=100 -> {rates[1]:.4f} (band [0.02, 0.10])",
    )


def test_type1_error_m3(experiment_m3):
    """Empirical rejection at nominal 0.05 within [0.02, 0.10], m=3, n=3000.

    At n=300 the right shift documented in test_limit_convergence_m3_ks
    makes the asymptotic test over-reject (0.11 to 0.15 on seeds 12345,
    1, 2, 3); that rate is printed, not asserted.  At n=3000 it was 0.053
    to 0.062 on the same seeds.
    """
    rate300 = experiment_m3.cells[0].type1[0.05]
    rate3000 = experiment_m3.cells[1].type1[0.05]
    ok = 0.02 <= rate3000 <= 0.10
    assert report(
        "type-I error (m=3 cells)",
        ok,
        f"rejection at 0.05: n=3000 -> {rate3000:.4f} (band [0.02, 0.10]); "
        f"n=300 -> {rate300:.4f} (finite-n, not asserted)",
    )


def test_ratio_law_m2(experiment_m2):
    """Mean W/sqrt(log p) within 8% of 2 around its finite-p value; gap shrinks in p.

    W/sqrt(log p) tends to sqrt(2m) = 2 in probability, but only at a log
    rate: W**2/log p = 2m - (log log p - T)/log p.  Even with T exactly
    limit-distributed the mean ratio is 1.699 at p=20 and 1.788 at
    p=100 (:func:`finite_p_ratio_mean`), both more than 8% below 2.  So
    each cell's mean is held to the 8%-of-2 half-width around that
    finite-p value (measured 1.704 and 1.800), and the gap to 2 must
    shrink from p=20 to p=100 (0.296 -> 0.200, standard error about
    0.005 each), which checks the direction of the limit.
    """
    cells = experiment_m2.cells
    in_band = ratio_band_report("ratio law m=2", cells, 2)
    target = ratio_target(2)
    gap20 = target - cells[0].ratio_mean
    gap100 = target - cells[1].ratio_mean
    shrinks = gap100 < gap20
    report(
        "ratio law m=2 (gap to 2 shrinks in p)",
        shrinks,
        f"2 - ratio_mean: p=20 -> {gap20:.4f}, p=100 -> {gap100:.4f}",
    )
    assert in_band and shrinks


def test_ratio_law_m3(experiment_m3):
    """Mean W/sqrt(log p) within 8% of sqrt(6) around its finite-p value, m=3.

    Same log-rate argument as test_ratio_law_m2: at p=40 the limit law
    predicts a mean ratio of 2.087 (:func:`finite_p_ratio_mean`), outside
    the 8% band around sqrt(6) = 2.449.  Both cells are held to the
    8%-of-sqrt(6) half-width around 2.087; measured 2.171 at n=300 (the
    finite-n tail inflation pushes it up) and 2.094 to 2.107 at n=3000.
    """
    assert ratio_band_report("ratio law m=3", experiment_m3.cells, 3)


def test_poisson_intensity_window():
    """lambda_hat at z=0 (p=50, m=2, n=500, 1e6 reps) in [0.6, 1.4], monotone in z."""
    seed = SeedSpec(MASTER_SEED, 0)
    reps = 10**6
    lam = {
        z: estimate_lambda(z, 500, 50, 2, NORMAL, reps, seed, workers=WORKERS)
        for z in (-2.0, 0.0, 2.0)
    }
    in_window = 0.6 <= lam[0.0].lambda_hat <= 1.4
    monotone = lam[-2.0].lambda_hat > lam[0.0].lambda_hat > lam[2.0].lambda_hat
    ok = in_window and monotone
    assert report(
        "Poisson intensity",
        ok,
        f"lambda_hat(0) = {lam[0.0].lambda_hat:.3f} (window [0.6, 1.4], limit 1); "
        f"monotone over z in (-2, 0, 2): {monotone} "
        f"({lam[-2.0].lambda_hat:.3f} > {lam[0.0].lambda_hat:.3f} > {lam[2.0].lambda_hat:.3f})",
    )


def test_moderate_deviation_ratio_window():
    """P(S/sqrt(n) >= 2)/(1 - Phi(2)) in [0.85, 1.15] at n=1e4, 1e6 reps."""
    seed = SeedSpec(MASTER_SEED, 0)
    results = {}
    for spec in (NORMAL, PopulationSpec(RADEMACHER)):
        rep = moderate_deviation_ratio(spec, 2, 10**4, 2.0, 10**6, seed, workers=WORKERS)
        results[spec.family] = rep.ratio
    ok = all(0.85 <= r <= 1.15 for r in results.values())
    assert report(
        "moderate deviation ratio",
        ok,
        "; ".join(f"{fam}: {r:.4f}" for fam, r in results.items()) + " (band [0.85, 1.15])",
    )


def test_worker_determinism_bytes(tmp_path):
    """records.csv bytes identical for worker counts 1 and 8 (p=20 cell)."""
    def run(workers, sub):
        cfg = ExperimentConfig(
            grid=(CellConfig(n=500, p=20, m=2, spec=NORMAL),),
            reps=2000,
            master_seed=MASTER_SEED,
            output_path=str(tmp_path / sub),
        )
        run_experiment(cfg, workers=workers)
        return (tmp_path / sub / "records.csv").read_bytes()

    b1 = run(1, "w1")
    b8 = run(8, "w8")
    ok = b1 == b8
    assert report(
        "worker determinism",
        ok,
        f"records.csv identical for workers 1 vs 8: {ok} ({len(b1)} bytes)",
    )


def test_planted_dependence_power():
    """Duplicated column at m=2, n=500, p=100: p-value < 1e-6 in all 50 runs."""
    worst = 0.0
    for r in range(50):
        X = sample_matrix(NORMAL, 500, 100, SeedSpec(MASTER_SEED, 1000 + r))
        X[:, 0] = X[:, 1]
        res = hypotest.test_independence(X, 2)
        worst = max(worst, res.p_value)
    ok = worst < 1e-6
    assert report(
        "planted dependence power",
        ok,
        f"max p-value over 50 replicates = {worst:.3e} (threshold 1e-6)",
    )
