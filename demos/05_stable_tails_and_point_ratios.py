"""Heavy-tail sums: stable local limits by Zolotarev's integral and point-mass ratios.

The discretised one-sided power-tail family at alpha = 1/2 has an explicit
limit density (inverse-square-root tail); Zolotarev's integral representation
matches its closed form, the normalised sums approach it pointwise, and for a
finite mean family the far point masses match n times the single-jump mass.
"""

import math

from llt_lab.approx import StableParams, doney_ratio, stable_density, stable_llt_error
from llt_lab.lattice import moments, power_tail

print("=== Zolotarev integral vs closed form at alpha = 1/2 ===")
params = StableParams(alpha=0.5)
print(f"{'x':>6} {'zolotarev':>14} {'closed form':>14}")
for x in (0.5, 1.0, 2.0, 5.0, 20.0):
    closed = 0.5 * x**-1.5 * math.exp(-math.pi / (4 * x))
    print(f"{x:>6} {stable_density(params, x):>14.9f} {closed:>14.9f}")

print("\n=== normalised local error sup_m |B_n P(S_n=m) - g(m/B_n)| ===")
tail_half = power_tail(0.5, max_index=250_000)
for n in (8, 16, 32, 64):
    rep = stable_llt_error(tail_half, n, x_max=60.0)
    print(f"n={n:>3}: sup error {rep.error:.5f}   ({rep.normalization})")

print("\n=== far point masses vs n * single-jump mass (alpha = 1.5) ===")
tail15 = power_tail(1.5, max_index=200_000)
mu = moments(tail15).mu
print(f"finite mean mu = {mu:.4f}; ratios P(S_32=m) / (32 P(X = m - round(32 mu))):")
for mult in (8, 32, 128, 512):
    m = 32 * mult
    print(f"m = {m:>6}: ratio {doney_ratio(tail15, 32, m):.4f}")
