#!/usr/bin/env python3
"""Monte Carlo checks of the Poisson-approximation machinery.

The limit law is proved by showing that threshold exceedances among the
C(p, m) tuple entries behave like a Poisson process: the intensity
lambda tends to exp(-z/2), the clustering terms b1 and b2 vanish, and
the single-tuple tail obeys a Gaussian moderate deviation equivalence.
Each piece is estimated here at desk scale.
"""

import math

from tensormax import (
    PairTailSpec,
    PopulationSpec,
    SeedSpec,
    estimate_lambda,
    estimate_pair_tail,
    moderate_deviation_ratio,
)
from tensormax.diagnostics import pair_tail_decay_exponents

NORMAL = PopulationSpec("standard_normal")
SEED = SeedSpec(99, 0)

print("Poisson intensity lambda(z) = C(p,m) P(|tuple sum|/sqrt(n) > sqrt(2m) nu_p(z))")
print("against its limit exp(-z/2), at p=50, m=2, n=500, 2e5 replicates:")
print(f"{'z':>6} {'lambda_hat':>11} {'limit':>8} {'hits':>6} {'b1 bound':>10}")
for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
    rep = estimate_lambda(z, 500, 50, 2, NORMAL, 2 * 10**5, SEED, workers=2)
    print(
        f"{z:>6.1f} {rep.lambda_hat:>11.3f} {rep.lambda_limit:>8.3f} "
        f"{rep.single_tail.hits:>6} {rep.b1_bound:>10.2e}"
    )
print("(same seed for every z: common random numbers make the column monotone;")
print(" the finite-n excess over the limit is the product-tail inflation)")

print()
print("b1 decays like 1/p when the tail follows its asymptotic level m!/p^m:")
from tensormax import b1_bound  # noqa: E402

for p in (10, 30, 100, 300, 1000):
    tail = math.factorial(2) / p**2
    print(f"  p={p:>5}: b1 <= {b1_bound(p, 2, tail):.3e}")

print()
print("Joint pair tails Psi^(s) at a reduced threshold (the asymptotic")
print("multiplier sqrt(2m) gives probabilities ~ p^(-2m), far")
print("below Monte Carlo reach; the analytic decay rates are reported instead):")
pspec = PairTailSpec(s=1, a_n=1.0, n=200, p=20, m=2, spec=NORMAL)
est = estimate_pair_tail(pspec, 2 * 10**5, SEED, workers=2)
rates = pair_tail_decay_exponents(pspec)
print(f"  s=1, a_n=1.0, n=200, p=20: Psi_hat = {est.probability:.5f} "
      f"(se {est.std_error:.5f})")
print(f"  analytic rates at this multiplier: p^({rates['subexponential_exponent']:.2f}) "
      f"(sub-exponential case), p^({rates['polynomial_exponent']:.0f}) (polynomial case)")

print()
print("Moderate deviations: P(S_n/sqrt(n) >= x) / (1 - Phi(x)) for sums of")
print("m=2 products, n=2000, 5e4 replicates (ratio -> 1 in the Gaussian zone);")
print("the heavy-tailed t(8) column has 800 replicates, so its ratio carries a +/- SE:")
T8 = PopulationSpec("student_t_standardized", df=8)
print(f"{'x':>5} {'normal':>9} {'rademacher':>11} {'t(8)':>15}")
for x in (0.0, 1.0, 2.0, 3.0):
    row = []
    for fam in ("standard_normal", "rademacher"):
        rep = moderate_deviation_ratio(
            PopulationSpec(fam), 2, 2000, x, 5 * 10**4, SEED, workers=2
        )
        row.append(rep.ratio)
    t8 = moderate_deviation_ratio(T8, 2, 2000, x, 800, SEED, workers=2)
    t8_se = t8.std_error / t8.gaussian_tail
    print(f"{x:>5.1f} {row[0]:>9.4f} {row[1]:>11.4f} {t8.ratio:>7.3f} +/- {t8_se:.3f}")
