"""Sound-soft far fields: disk series, boundary-integral solver, Hankel bound.

The far-field coefficients of the disk are -J_n/H_n^(1), diagonal in the
frequency pairing; the combined-field solver reproduces them to machine
precision and handles star-shaped obstacles.  The inverse Hankel magnitudes
obey a super-exponential bound, which is where the coefficient decay (and so
the ill-posedness of inverse scattering) comes from.
"""

import numpy as np

from expinstab import shapes
from expinstab.scattering import (
    ObstacleProblem,
    farfield_disk,
    farfield_numeric,
    hankel_bound_check,
)

disk = shapes.Shape(
    shapes.RADIAL_SUBGRAPH,
    shapes.RadialProfile(np.zeros(2048), base_radius=1.0),
)
for a in (1.0, 4.0):
    prob = ObstacleProblem(disk, (a,), n_max=12, quad_nodes=192, direction_count=48)
    (num,), (residual,) = farfield_numeric(prob)
    ref = farfield_disk(1.0, a, 12)
    print(
        f"a = {a}: |numeric - closed form| = {np.abs(num - ref).max():.2e}, "
        f"reciprocity residual = {residual:.2e}"
    )

print("\nmode magnitudes |b_nn| of the disk at a = 4:")
ref = farfield_disk(1.0, 4.0, 10)
diag = np.abs(np.diag(ref))
for n in range(0, 11, 2):
    idx = 0 if n == 0 else 2 * n - 1
    print(f"  n = {n:2d}: {diag[idx]:.3e}")

rng = np.random.default_rng(5)
theta = 2 * np.pi * np.arange(2048) / 2048
vals = np.zeros(2048)
for j in range(1, 6):
    vals += rng.normal() * np.cos(j * theta) + rng.normal() * np.sin(j * theta)
vals -= vals.min()
vals *= 0.3 / vals.max()
bumpy = shapes.Shape(
    shapes.RADIAL_SUBGRAPH, shapes.RadialProfile(vals, base_radius=1.0)
)
prob = ObstacleProblem(bumpy, (1.0, 4.0), n_max=12, quad_nodes=256, direction_count=48)
fields, _ = farfield_numeric(prob)
sup_norm = max(np.linalg.norm(m) for m in fields)
print(f"\nperturbed obstacle: sup over a of ||A||_L2 = {sup_norm:.4f}")

c7 = hankel_bound_check(np.arange(0, 61), np.linspace(2.0, 8.0, 25))
print(f"Hankel bound: one C7 = {c7:.4f} works for n = 0..60, r in [2, 8]")
