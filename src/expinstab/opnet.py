"""Operator matrices in a weighted basis, the Y-norm, quantized delta-nets,
covering counts, and the epsilon/delta bookkeeping of the instability argument.

A class member is a (truncated) matrix b_kl: a square array with one degree
gamma_k per row, such that |b_kl| <= C2 * exp(-alpha2 * max(gamma_k, gamma_l)).
The degree counting function grows like C2 * (1+n)^p, and p = 1 throughout:
every basis the code enumerates lives in the plane (N = 2, p = N - 1) and has
at most 2(1+n) elements of degree <= n.  The class constants (C2, alpha2) are
arguments, never attached to a matrix: the engine fits them on the sampled
forward maps with conductivity.fit_envelope.  The quantizer rounds all
entries below the degree cutoff n_tilde onto the grid delta' * Z intersected
with [-C2, C2] and zeroes the rest; this is a delta-net in operator norm via
the Y-norm comparison constant C4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _max_degree_grid(entries: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """max(gamma_k, gamma_l) for a square matrix with one degree per row."""
    degrees = np.asarray(degrees, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("entries must be a square matrix")
    if degrees.shape != (entries.shape[0],):
        raise ValueError("need one degree per basis element")
    return np.maximum.outer(degrees, degrees)


def y_norm(entries: np.ndarray, degrees: np.ndarray) -> float:
    """sup_kl |b_kl| * (2 + max(gamma_k, gamma_l))^(p+1), p = 1."""
    entries = np.asarray(entries)
    weights = (2.0 + _max_degree_grid(entries, degrees)) ** 2.0
    return float(np.max(np.abs(entries) * weights))


# sum_{n>=1} (1+n)^-2 = zeta(2) - 1
_INVERSE_SQUARE_SUM = math.pi**2 / 6 - 1


def c4_constant(c2: float) -> float:
    """Norm-comparison constant C4 = C2 * (sum_{n>=1} (1+n)^-2)^(1/2)."""
    if c2 < 0:
        raise ValueError("C2 must be nonnegative")
    return c2 * math.sqrt(_INVERSE_SQUARE_SUM)


def op_norm_bound_check(entries: np.ndarray, degrees: np.ndarray, c2: float) -> bool:
    """Operator norm of the truncation is controlled by C4 * Y-norm."""
    right = c4_constant(c2) * y_norm(entries, degrees)
    return float(np.linalg.norm(entries, 2)) <= right + 1e-12 * (1.0 + right)


def _envelope(t: float, c2: float, alpha2: float) -> float:
    return c2 * math.exp(-alpha2 * (t - 1.0)) * (2.0 + t) ** 2.0


def n_tilde(delta: float, c2: float, alpha2: float) -> int:
    """Smallest positive integer n with envelope(t) <= delta/(2*C4) for all
    real t >= n.  The envelope has a single maximum at t* = 2/alpha2 - 2,
    so sup_{t>=n} envelope = envelope(max(n, t*))."""
    if not 0.0 < delta < 1.0 / math.e:
        raise ValueError("delta must lie in (0, 1/e)")
    threshold = delta / (2.0 * c4_constant(c2))
    t_star = 2.0 / alpha2 - 2.0
    n = 1
    while _envelope(max(float(n), t_star), c2, alpha2) > threshold:
        n += 1
        if n > 10_000_000:
            raise RuntimeError("n_tilde scan failed to terminate")
    return n


@dataclass(frozen=True)
class NetParams:
    """Quantization parameters for one target radius delta."""

    c2: float
    n_tilde: int
    delta_prime: float

    @classmethod
    def for_delta(cls, delta: float, c2: float, alpha2: float) -> "NetParams":
        nt = n_tilde(delta, c2, alpha2)
        d_prime = (2.0 + nt) ** -2.0 * delta / (2.0 * c4_constant(c2))
        return cls(c2, nt, d_prime)


def _round_to_grid(values: np.ndarray, step: float, bound: float) -> np.ndarray:
    """Nearest point of step*Z intersected with [-bound, bound], ties toward 0."""
    k = np.ceil(np.abs(values) / step - 0.5)
    k = np.minimum(k, np.floor(bound / step))
    return np.sign(values) * k * step


def quantize(entries: np.ndarray, degrees: np.ndarray, params: NetParams) -> np.ndarray:
    """Round low-degree entries onto the delta' grid and zero the rest.

    For class members this guarantees y_norm(G - quantize(G)) <= delta/(2*C4),
    hence operator-norm distance <= delta/2.  Complex entries are quantized
    component-wise with C2 applying to each component; the component grid step
    shrinks by sqrt(2) so the modulus error stays within delta', which doubles
    the net-size exponent's constant.
    """
    entries = np.asarray(entries)
    keep = _max_degree_grid(entries, degrees) <= params.n_tilde
    bound = params.c2 * (1.0 + 1e-12) + 1e-12
    if np.iscomplexobj(entries):
        if np.max(np.abs(entries.real)) > bound or np.max(np.abs(entries.imag)) > bound:
            raise ValueError("entry component outside [-C2, C2]")
        step = params.delta_prime / math.sqrt(2.0)
        rounded = _round_to_grid(entries.real, step, params.c2) + 1j * _round_to_grid(
            entries.imag, step, params.c2
        )
    else:
        if np.max(np.abs(entries)) > bound:
            raise ValueError("entry outside [-C2, C2]")
        rounded = _round_to_grid(entries, params.delta_prime, params.c2)
    return np.where(keep, rounded, 0.0)


@dataclass(frozen=True)
class NetSizeBound:
    """Counted size of the quantized net at one delta."""

    n_tilde: int
    delta_prime: float
    psi_count: int
    pair_count: float
    log_bound: float


def net_size_log_bound(
    delta: float,
    c2: float,
    alpha2: float,
    degrees: np.ndarray | None = None,
    complex_entries: bool = False,
) -> NetSizeBound:
    """Log of the counted grid size s * log(#Psi_delta).

    s counts pairs (k, l) with max degree <= n_tilde: exactly when a degree
    sequence is supplied, otherwise through the class growth bound
    C2^2 * (1 + n_tilde)^(2p) at p = 1, which holds only if C2 also bounds
    the degree counting function.  #Psi_delta counts the grid values of one
    entry as quantize sets them: 2*floor(C2/delta') + 1 for a real entry, and
    the square of that count at the component step delta'/sqrt(2) for a
    complex one.
    """
    params = NetParams.for_delta(delta, c2, alpha2)
    step = params.delta_prime / math.sqrt(2.0) if complex_entries else params.delta_prime
    component_count = 2 * int(math.floor(c2 / step)) + 1
    psi_count = component_count**2 if complex_entries else component_count
    if degrees is None:
        pair_count = c2**2 * (1.0 + params.n_tilde) ** 2.0
    else:
        below = int(np.sum(np.asarray(degrees, dtype=float) <= params.n_tilde))
        pair_count = float(below**2)
    return NetSizeBound(
        n_tilde=params.n_tilde,
        delta_prime=params.delta_prime,
        psi_count=psi_count,
        pair_count=pair_count,
        log_bound=pair_count * math.log(psi_count),
    )


def delta_of_epsilon(eps: float, alpha1: float, alpha3: float = 1.0) -> float:
    """Quantization radius delta(eps) = exp(-eps^(-alpha1/(2p+1+alpha3)));
    the default alpha3 = 1 gives the exponent alpha1/(2(p+1)) = alpha1/4."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.exp(-(eps ** (-alpha1 / (3.0 + alpha3))))


def counting_check(packing_log_count: float, net_log_bound: float) -> tuple[bool, float]:
    """Pigeonhole bookkeeping: when the packing log-count exceeds the net
    log-bound, a witness pair with distance >= eps and operator distance
    <= 2*delta(eps) exists.  Returns (exceeds, margin)."""
    margin = packing_log_count - net_log_bound
    return margin > 0.0, margin


def random_class_member(
    rng: np.random.Generator,
    c2: float,
    alpha2: float,
    degrees: np.ndarray,
    complex_entries: bool = False,
) -> np.ndarray:
    """Draw a matrix uniformly inside the class envelope
    |b_kl| <= C2 * exp(-alpha2 * max(gamma_k, gamma_l))."""
    degrees = np.asarray(degrees, dtype=float)
    k = degrees.size
    envelope = c2 * np.exp(-alpha2 * np.maximum.outer(degrees, degrees))
    entries = rng.uniform(-1.0, 1.0, size=(k, k)) * envelope
    if complex_entries:
        entries = entries + 1j * rng.uniform(-1.0, 1.0, size=(k, k)) * envelope
    return entries


def truncation_size(params: NetParams) -> int:
    """Degree truncation for computed matrices: max(2*n_tilde, 64)."""
    return max(2 * params.n_tilde, 64)
