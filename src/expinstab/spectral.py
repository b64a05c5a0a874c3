"""Ordered eigenbases on the disk, half disk and slit disk, with fractional
Sobolev norms on the circle and interior decay of the eigenfunctions.

The eigenpairs come from separation of variables (half-disk families by a
reflection argument, slit-disk families with half-integer degrees); they are
hard-coded and verified numerically rather than obtained from a generalized
eigensolver.  The H^{+-1/2} norms are realized as Fourier multipliers derived
from harmonic-extension energies, so they are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULL_CIRCLE = "full_circle"
HALF_DISK_NEUMANN = "half_disk_neumann"
HALF_DISK_DIRICHLET = "half_disk_dirichlet"
SLIT_DISK_NEUMANN = "slit_disk_neumann"
SLIT_DISK_DIRICHLET = "slit_disk_dirichlet"
DOMAIN_KINDS = (
    FULL_CIRCLE,
    HALF_DISK_NEUMANN,
    HALF_DISK_DIRICHLET,
    SLIT_DISK_NEUMANN,
    SLIT_DISK_DIRICHLET,
)

DIRICHLET_TRACE = "dirichlet_trace"
NEUMANN_TRACE = "neumann_trace"


@dataclass(frozen=True)
class BasisSpec:
    domain_kind: str = FULL_CIRCLE
    n_max: int = 32

    def __post_init__(self):
        if self.domain_kind not in DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {self.domain_kind!r}")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")


@dataclass(frozen=True)
class BasisElement:
    """One trace-normalized eigenfunction.

    degree is the homogeneity exponent of the interior eigenfunction
    (integer on disk/half disk, half-integer on the slit disk); parity is
    "const", "cos" or "sin"; multiplicity is the angular multiplicity tag.
    """

    index: int
    degree: float
    parity: str
    domain_kind: str
    multiplicity: int

    # -- angular factor, L^2-normalized on the accessible boundary -----------

    @property
    def trace_scale(self) -> float:
        """Amplitude of the normalized angular factor.  The accessible
        boundary is the upper semicircle theta in [0, pi] on the half disk
        and theta in (0, 2*pi) on the disk and the slit disk."""
        half = self.domain_kind in (HALF_DISK_NEUMANN, HALF_DISK_DIRICHLET)
        if self.parity == "const":
            return 1.0 / math.sqrt(math.pi if half else 2.0 * math.pi)
        return math.sqrt(2.0 / math.pi) if half else 1.0 / math.sqrt(math.pi)

    def trace(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.parity == "const":
            return np.full_like(theta, self.trace_scale)
        fn = np.cos if self.parity == "cos" else np.sin
        return self.trace_scale * fn(self.degree * theta)

    def interior(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Eigenfunction r^degree * angular(theta) at interior points."""
        r = np.hypot(x, y)
        theta = np.mod(np.arctan2(y, x), 2.0 * np.pi)
        radial = np.where(r > 0, r**self.degree, 1.0 if self.degree == 0 else 0.0)
        return radial * self.trace(theta)


def enumerate_basis(spec: BasisSpec) -> list[BasisElement]:
    """All elements with degree <= n_max, in nondecreasing degree order."""
    kind, n_max = spec.domain_kind, spec.n_max
    if kind == FULL_CIRCLE:
        terms = [(0.0, "const", 1)]
        for j in range(1, n_max + 1):
            terms += [(float(j), "cos", 2), (float(j), "sin", 2)]
    elif kind == HALF_DISK_NEUMANN:
        terms = [(0.0, "const", 1)] + [(float(j), "cos", 1) for j in range(1, n_max + 1)]
    elif kind == HALF_DISK_DIRICHLET:
        terms = [(float(j), "sin", 1) for j in range(1, n_max + 1)]
    elif kind == SLIT_DISK_NEUMANN:
        # r^(k/2) cos(k theta / 2), k = 0, 1, 2, ...: Neumann on both slit sides
        terms = [(0.0, "const", 1)] + [(k / 2.0, "cos", 1) for k in range(1, 2 * n_max + 1)]
    else:
        # r^(k/2) sin(k theta / 2), k = 1, 2, ...: vanishes on the slit
        terms = [(k / 2.0, "sin", 1) for k in range(1, 2 * n_max + 1)]
    return [BasisElement(i, d, parity, kind, mult) for i, (d, parity, mult) in enumerate(terms)]


def multiplicity_general_n(j: int, N: int) -> int:
    """Dimension of the space of degree-j spherical harmonics in R^N:
    1 for j = 0, else (2j+N-2)(j+N-3)! / (j!(N-2)!); always <= 2(j+1)^(N-2)."""
    if j < 0 or N < 2:
        raise ValueError("need j >= 0 and N >= 2")
    if j == 0:
        value = 1
    else:
        value = (2 * j + N - 2) * math.factorial(j + N - 3) // (
            math.factorial(j) * math.factorial(N - 2)
        )
    assert value <= 2 * (j + 1) ** (N - 2)
    return value


def gamma_value(elt: BasisElement, convention: str) -> float:
    """Degree weight: 1 + degree for the Dirichlet-trace convention, plain
    degree for the Neumann-trace convention (which excludes degree 0)."""
    if convention == DIRICHLET_TRACE:
        return 1.0 + elt.degree
    if convention == NEUMANN_TRACE:
        if elt.degree == 0:
            raise ValueError("degree-0 element has no Neumann-trace weight")
        return elt.degree
    raise ValueError(f"unknown convention {convention!r}")


def sobolev_weight(j: np.ndarray, s: float) -> np.ndarray:
    """Fourier multiplier on the circle for |s| in {0, 1/2}.

    H^{1/2}: 1 + |j| (Dirichlet energy of the harmonic extension plus L^2
    boundary term); H^{-1/2}: 1/|j| for j != 0, the constant component enters
    with unit weight; L^2: 1.
    """
    j = np.abs(np.asarray(j, dtype=float))
    if s == 0.5:
        return 1.0 + j
    if s == -0.5:
        return np.where(j > 0, 1.0 / np.maximum(j, 1.0), 1.0)
    if s == 0.0:
        return np.ones_like(j)
    raise ValueError("s must be one of 0, +1/2, -1/2")


def sobolev_norm(freqs: np.ndarray, coeffs: np.ndarray, s: float) -> float:
    """Norm of a circle function given coefficients in the L^2-orthonormal
    Fourier basis at integer frequencies."""
    w = sobolev_weight(np.asarray(freqs), s)
    return float(np.sqrt(np.sum(w * np.abs(np.asarray(coeffs)) ** 2)))


# ----------------------------------------------------------------------------
# interior decay
# ----------------------------------------------------------------------------

def interior_decay(elt: BasisElement, r0: float) -> float:
    """H^1 norm of the trace-normalized eigenfunction on B(0, r0) (intersected
    with the domain), in closed form.  Every trace is L^2-normalized on an arc
    of whole half-periods of v^2, so int v^2 = 1 and int (v')^2 = g^2 on
    every domain."""
    if not 0.0 < r0 < 1.0:
        raise ValueError("need 0 < r0 < 1")
    g = elt.degree
    # radial integrals of r^(2g) * r and of r^(2g-2) * r on [0, r0]
    mass = r0 ** (2 * g + 2) / (2 * g + 2)
    if g == 0:
        return math.sqrt(mass)
    # gradient: radial part g^2 * int v^2 plus angular part int (v')^2
    return math.sqrt(r0 ** (2 * g) / (2 * g) * (g**2 + g**2) + mass)


def fit_decay_constant(spec: BasisSpec, r0: float) -> float:
    """Smallest single C(r0) with interior_decay <= C(r0) * exp(-log(1/r0) * degree)
    over the enumerated elements."""
    alpha = math.log(1.0 / r0)
    best = 0.0
    for elt in enumerate_basis(spec):
        best = max(best, interior_decay(elt, r0) / math.exp(-alpha * elt.degree))
    return best


def growth_count(spec: BasisSpec, n: int) -> int:
    """#{k : degree_k <= n}; bounded by 2(1+n)^(N-1) at N = 2."""
    return sum(1 for e in enumerate_basis(spec) if e.degree <= n + 1e-12)
