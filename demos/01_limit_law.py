#!/usr/bin/env python3
"""Tour of the Gumbel-type limit law across tensor orders.

For each order m the centered maximum entry statistic
T = W**2 - 2m log p + log log p tends to the law
F(z) = exp(-exp(-z/2) / (m! sqrt(m pi))).  This script prints the rate
constants, a quantile table, and the exact relationship between the
threshold level nu_p and the centering.
"""

import math

from tensormax import GumbelLimit, ONE_SIDED, log_rate_constant, normalize, nu_p, ratio_target

print("Rate constants c = 1/(m! sqrt(m pi)) and their one-sided halves")
print(f"{'m':>3} {'c (two-sided)':>16} {'c (one-sided)':>16} {'sqrt(2m)':>10}")
for m in range(2, 9):
    two = GumbelLimit(m)
    one = GumbelLimit(m, ONE_SIDED)
    print(f"{m:>3} {two.c:>16.10f} {one.c:>16.10f} {ratio_target(m):>10.6f}")

print()
print("Quantiles of the two-sided law (the m=2 column is the classical")
print("largest-coherence law with constant 1/sqrt(8 pi))")
header = "".join(f"  m={m:<8}" for m in (2, 3, 4, 6))
print(f"{'q':>6}{header}")
for q in (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
    row = "".join(f"  {GumbelLimit(m).quantile(q):>9.4f}" for m in (2, 3, 4, 6))
    print(f"{q:>6.2f}{row}")

print()
print("Threshold duality: centering the squared threshold sqrt(2m)*nu_p(z)")
print("returns z shifted by the constant 2 log(m! sqrt(m pi)):")
for m, p in ((2, 100), (3, 1000)):
    z = 0.5
    w = math.sqrt(2 * m) * nu_p(z, p, m)
    t = normalize(w, p, m)
    offset = 2.0 * log_rate_constant(m)
    print(
        f"  m={m}, p={p}: T(sqrt(2m) nu_p({z})) = {t:+.6f} = z - {offset:.6f}"
        f"   (residual {abs(t - (z - offset)):.2e})"
    )
    lim = GumbelLimit(m)
    print(
        f"           F(T) = {lim.cdf(t):.10f} vs exp(-e^(-z/2)) = "
        f"{math.exp(-math.exp(-z / 2)):.10f}"
    )
