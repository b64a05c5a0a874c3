"""Desk-scale exponential-instability experiments for 2D elliptic inverse problems.

The library builds discrete families of perturbed defects, spectral bases on
reference domains, quantized operator nets, and forward maps (Dirichlet-to-
Neumann, electrode resistance matrices, acoustic far fields), and combines
them into end-to-end instability runs.
"""

from expinstab.shapes import (
    FlatProfile,
    RadialProfile,
    Shape,
    hausdorff_distance,
    cm_norm,
    validate_membership,
)
from expinstab.packing import PackingFamily, build_packing, packing_lower_bound
from expinstab.spectral import BasisSpec, BasisElement, enumerate_basis
from expinstab.opnet import NetParams, quantize, y_norm
from expinstab.engine import InstabilityReport, run_instability, fit_instability_exponent

__all__ = [
    "FlatProfile",
    "RadialProfile",
    "Shape",
    "hausdorff_distance",
    "cm_norm",
    "validate_membership",
    "PackingFamily",
    "build_packing",
    "packing_lower_bound",
    "BasisSpec",
    "BasisElement",
    "enumerate_basis",
    "NetParams",
    "quantize",
    "y_norm",
    "InstabilityReport",
    "run_instability",
    "fit_instability_exponent",
]

__version__ = "0.1.0"
