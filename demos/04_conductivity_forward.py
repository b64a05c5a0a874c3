"""Forward conductivity maps: DtN spectra, weighted differences, electrodes.

The Dirichlet-to-Neumann matrix of a disk with a concentric inclusion is
known in closed form; the boundary-integral solver reproduces it to machine
precision and extends to star-shaped inclusions.  Mode k of the weighted
difference decays like rho^(2k): deep inclusions are nearly invisible at high
frequencies, the fingerprint of exponential ill-posedness.
"""

import numpy as np

from expinstab import shapes
from expinstab.conductivity import (
    ElectrodeConfig,
    InclusionProblem,
    delta_dtn_weighted,
    diagonal_decay_fit,
    dtn_concentric,
    dtn_numeric,
    fourier_degrees,
    ntd_from_dtn,
    resistance_matrix,
)

disk = shapes.Shape(
    shapes.RADIAL_SUBGRAPH, shapes.RadialProfile(np.zeros(2048), base_radius=0.5)
)
prob = InclusionProblem(disk, contrast=2.0, n_max=8, quad_nodes=256)
# dtn_numeric gives the difference from the homogeneous disk's diag(degrees)
numeric = fourier_degrees(8)[1::2] + np.diag(dtn_numeric(prob))[1::2]
closed = dtn_concentric(0.5, 2.0, 8)[1:]
print("DtN eigenvalues (concentric rho = 0.5, a = 2):")
print("  numeric :", " ".join(f"{v:.6f}" for v in numeric))
print("  closed  :", " ".join(f"{v:.6f}" for v in closed))

weighted = delta_dtn_weighted(InclusionProblem(disk, 2.0, 16, 256))
alpha_hat, c_hat, r2 = diagonal_decay_fit(weighted, fourier_degrees(16))
print(
    f"\nweighted difference decay: alpha_hat = {alpha_hat:.4f} "
    f"(2 log(1/rho) = {2*np.log(2):.4f}), r^2 = {r2:.4f}"
)

# a perturbed inclusion seen through eight electrodes
rng = np.random.default_rng(4)
theta = 2 * np.pi * np.arange(2048) / 2048
vals = np.zeros(2048)
for j in range(1, 6):
    vals += rng.normal() * np.cos(j * theta) + rng.normal() * np.sin(j * theta)
vals -= vals.min()
vals *= 0.1 / vals.max()
bumpy = shapes.Shape(shapes.RADIAL_SUBGRAPH, shapes.RadialProfile(vals, base_radius=0.5))
cfg = ElectrodeConfig.equispaced(8, 0.5, 0.1)


def resistance(shape):
    dtn = np.diag(fourier_degrees(16)) + dtn_numeric(InclusionProblem(shape, 2.0, 16, 256))
    return resistance_matrix(ntd_from_dtn(dtn), cfg)


r_hom, r_inc = resistance(disk), resistance(bumpy)
print("\ncomplete electrode model (L = 8 arcs, z = 0.1):")
print(f"  symmetry defect       : {np.abs(r_inc - r_inc.T).max():.2e}")
print(f"  R [1]                 : {np.abs(r_inc @ np.ones(8)).max():.2e}")
print(f"  ||R(D) - R(disk)||_2  : {np.linalg.norm(r_inc - r_hom, 2):.4e}")
