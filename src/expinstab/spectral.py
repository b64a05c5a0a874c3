"""The ordered orthonormal Fourier basis of the circle, [1, cos 1, sin 1, ...],
the boundary traces of the disk's harmonic functions r^j cos(j theta) and
r^j sin(j theta).  Its degrees are ``conductivity.fourier_degrees(n_max)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BasisElement:
    """One L^2-normalized basis function on the circle; parity is "const",
    "cos" or "sin"."""

    index: int
    degree: float
    parity: str

    def trace(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.parity == "const":
            return np.full_like(theta, 1.0 / math.sqrt(2.0 * math.pi))
        fn = np.cos if self.parity == "cos" else np.sin
        return 1.0 / math.sqrt(math.pi) * fn(self.degree * theta)


def enumerate_basis(n_max: int) -> list[BasisElement]:
    """All elements with degree <= n_max, in nondecreasing degree order."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = [(0.0, "const")]
    for j in range(1, n_max + 1):
        terms += [(float(j), "cos"), (float(j), "sin")]
    return [BasisElement(i, d, parity) for i, (d, parity) in enumerate(terms)]
