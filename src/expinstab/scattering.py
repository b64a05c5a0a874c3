"""Sound-soft acoustic scattering in the plane: disk far fields in closed
form, a combined-field boundary integral solver for star-shaped obstacles,
far-field coefficient matrices, and the Hankel asymptotic bound.

The exterior Dirichlet problem is solved with the combined double/single
layer ansatz u^s = (D - i eta S) psi, eta = k, leading to the second-kind
equation psi/2 + (K_D - i eta K_S) psi = -u^i on the boundary.  Kernels are
split into a log part times ln(4 sin^2((t-tau)/2)) and a smooth remainder;
the log part is integrated with the Martensen-Kussmaul trigonometric weights,
which is spectrally accurate on smooth boundaries.  Far-field coefficients
b_kl are projections of the far-field pattern on the circle Fourier basis;
the closed-form disk series (Jacobi-Anger) is the accuracy oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from expinstab import shapes, special
from expinstab.conductivity import fit_envelope, fourier_degrees
from expinstab.opnet import OperatorMatrix
from expinstab.shapes import RadialProfile, Shape
from expinstab.spectral import BasisSpec, FULL_CIRCLE, enumerate_basis

MAX_OBSTACLE_RADIUS = 1.8  # obstacles stay inside B(0, 9/5)
DEFAULT_QUAD = 256
DEFAULT_DIRECTIONS = 64


class ScatteringError(RuntimeError):
    """Raised when the boundary-integral solve cannot be trusted."""


@dataclass(frozen=True)
class ObstacleProblem:
    shape: Shape
    wave_params: tuple[float, ...] = (1.0, 4.0)
    n_max: int = 16
    quad_nodes: int = DEFAULT_QUAD
    direction_count: int = DEFAULT_DIRECTIONS

    def __post_init__(self):
        if self.shape.kind != shapes.RADIAL_SUBGRAPH:
            raise ValueError("obstacle must be a radial_subgraph shape")
        prof: RadialProfile = self.shape.profile
        cx, cy = prof.center
        reach = math.hypot(cx, cy) + prof.base_radius + float(prof.values.max())
        if reach > MAX_OBSTACLE_RADIUS + 1e-12:
            raise ValueError(f"obstacle reaches radius {reach:.4f} > {MAX_OBSTACLE_RADIUS}")
        if min(self.wave_params) <= 0:
            raise ValueError("wave parameters must be positive")
        if self.direction_count % 2:
            raise ValueError("direction count must be even (for reciprocity pairing)")


@dataclass(frozen=True)
class FarFieldMatrix:
    """Far-field coefficients b_kl against the ordered circle basis."""

    entries: np.ndarray
    degrees: np.ndarray
    wave_param: float
    reciprocity_residual: float = 0.0

    @property
    def wave_number(self) -> float:
        return math.sqrt(self.wave_param)


def farfield_l2_norm(matrix: FarFieldMatrix) -> float:
    """L^2(S^1 x S^1) norm of the far-field map = l^2 norm of b_kl."""
    return float(np.sqrt(np.sum(np.abs(matrix.entries) ** 2)))


def disk_mode_coefficients(radius: float, a: float, n_max: int) -> np.ndarray:
    """Scattered-mode coefficients -J_n(k R)/H_n^(1)(k R), n = 0..n_max."""
    k = math.sqrt(a)
    h = special.hankel1_sequence(n_max, np.array([k * radius]))[:, 0]
    j = h.real
    return -j / h


def farfield_disk(radius: float, a: float, n_max: int) -> FarFieldMatrix:
    """Closed-form far-field matrix of the sound-soft disk.

    Diagonal in the frequency pairing: both cos-n and sin-n elements carry
    2*pi * C_k * c_n with C_k = sqrt(2/(pi k)) e^{-i pi/4}.
    """
    if not 0.0 < radius <= 1.5:
        raise ValueError("disk radius must lie in (0, 3/2]")
    k = math.sqrt(a)
    c = disk_mode_coefficients(radius, a, n_max)
    front = math.sqrt(2.0 / (math.pi * k)) * np.exp(-1j * math.pi / 4.0)
    degrees = fourier_degrees(n_max)
    diag = np.empty(degrees.size, dtype=complex)
    diag[0] = 2.0 * math.pi * front * c[0]
    for j in range(1, n_max + 1):
        diag[2 * j - 1] = diag[2 * j] = 2.0 * math.pi * front * c[j]
    return FarFieldMatrix(np.diag(diag), degrees, a)


def hankel_bound_check(
    n_values: np.ndarray | None = None, r_values: np.ndarray | None = None
) -> float:
    """Fit the single constant C7 with
    |H_n^(1)(r)|^-1 <= C7 (e r / 2)^n (n-1)^-(n-1) for n >= 2 and
    |H_n^(1)(r)|^-1 <= C7 for n = 0, 1, over the tested grid."""
    if n_values is None:
        n_values = np.arange(0, 61)
    if r_values is None:
        r_values = np.linspace(2.0, 8.0, 25)
    n_values = np.asarray(n_values, dtype=int)
    h = special.hankel1_sequence(int(n_values.max()), r_values)
    inv_mag = 1.0 / np.abs(h)
    c7 = 0.0
    for n in n_values:
        if n <= 1:
            c7 = max(c7, float(inv_mag[n].max()))
        else:
            envelope = (math.e * r_values / 2.0) ** n * float(n - 1) ** (-(n - 1))
            c7 = max(c7, float((inv_mag[n] / envelope).max()))
    return c7


# ----------------------------------------------------------------------------
# boundary integral solver
# ----------------------------------------------------------------------------

@dataclass
class _Curve:
    t: np.ndarray
    points: np.ndarray
    d1: np.ndarray
    jac: np.ndarray
    normals: np.ndarray
    nu_dot_d2: np.ndarray


def _curve(profile: RadialProfile, n: int) -> _Curve:
    rho, d_rho, dd_rho = shapes.radial_geometry(profile, n)
    t = 2.0 * np.pi * np.arange(n) / n
    ct, st = np.cos(t), np.sin(t)
    cx, cy = profile.center
    pts = np.column_stack([cx + rho * ct, cy + rho * st])
    d1 = np.column_stack([d_rho * ct - rho * st, d_rho * st + rho * ct])
    d2 = np.column_stack(
        [dd_rho * ct - 2.0 * d_rho * st - rho * ct, dd_rho * st + 2.0 * d_rho * ct - rho * st]
    )
    jac = np.sqrt(np.einsum("ij,ij->i", d1, d1))
    normals = np.column_stack([d1[:, 1], -d1[:, 0]]) / jac[:, None]
    return _Curve(t, pts, d1, jac, normals, np.einsum("ij,ij->i", normals, d2))


def _log_weights(n: int) -> np.ndarray:
    """Martensen-Kussmaul weights R_|i-j| for the ln(4 sin^2((t-s)/2)) factor."""
    if n % 2:
        raise ValueError("quadrature node count must be even")
    d = 2.0 * np.pi * np.arange(n) / n
    m = np.arange(1, n // 2)
    r = -(4.0 * np.pi / n) * np.sum(np.cos(np.outer(d, m)) / m, axis=1)
    r -= (4.0 * np.pi / n / n) * np.cos(0.5 * n * d)
    return r


def _kernel_matrices(curve: _Curve, k: float, eta: float):
    """Log-split combined kernel: K1 * ln(4 sin^2) + K2, with trapezoid/log
    quadrature baked into the returned dense matrix."""
    n = curve.t.size
    pts = curve.points
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(r, 1.0)  # placeholder, diagonals set analytically
    nu_dot = np.einsum("ijk,jk->ij", diff, curve.normals)
    j0, j1, y0, y1 = special.jy01_kernel(k * r)
    jac_row = curve.jac[None, :]

    # double layer: (ik/4) H1(kr) (nu(y).(x-y)/r) |x'(y)|
    kd = (1j * k / 4.0) * (j1 + 1j * y1) * (nu_dot / r) * jac_row
    kd1 = -(k / (4.0 * math.pi)) * j1 * (nu_dot / r) * jac_row
    # single layer: (i/4) H0(kr) |x'(y)|
    ks = (1j / 4.0) * (j0 + 1j * y0) * jac_row
    ks1 = -(1.0 / (4.0 * math.pi)) * j0 * jac_row

    k1 = kd1 - 1j * eta * ks1
    k_full = kd - 1j * eta * ks
    dcoord = curve.t[:, None] - curve.t[None, :]
    log_fac = np.log(4.0 * np.sin(0.5 * dcoord) ** 2, where=~np.eye(n, dtype=bool),
                     out=np.zeros((n, n)))
    k2 = k_full - k1 * log_fac
    # analytic diagonal limits
    kd2_diag = curve.nu_dot_d2 / (4.0 * math.pi * curve.jac)
    ks2_diag = (
        (1j / 4.0)
        - special.EULER_GAMMA / (2.0 * math.pi)
        - np.log(0.5 * k * curve.jac) / (2.0 * math.pi)
    ) * curve.jac
    np.fill_diagonal(k2, kd2_diag - 1j * eta * ks2_diag)
    # K1 diagonal limits: double-layer part vanishes, single-layer part keeps
    # -J0(0)|x'|/(4 pi), and the log rule weights the diagonal too
    np.fill_diagonal(k1, 1j * eta * curve.jac / (4.0 * math.pi))

    r_weights = _log_weights(n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    quad = r_weights[idx] * k1 + (2.0 * np.pi / n) * k2
    return quad


@dataclass
class ScatteringSolution:
    """Densities of one obstacle at one wave parameter, with evaluators."""

    curve: _Curve
    wave_param: float
    eta: float
    directions: np.ndarray
    densities: np.ndarray  # (n_quad, n_dir)

    @property
    def k(self) -> float:
        return math.sqrt(self.wave_param)

    def far_field_grid(self, angles: np.ndarray | None = None) -> np.ndarray:
        """A(x_hat_p, omega_q) on the angle grid (rows: observation)."""
        if angles is None:
            angles = self.directions
        k = self.k
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        phase = np.exp(-1j * k * xhat @ self.curve.points.T)
        nudot = xhat @ self.curve.normals.T
        front = np.exp(1j * math.pi / 4.0) / math.sqrt(8.0 * math.pi * k)
        kernel = front * (-1j * k * nudot - 1j * self.eta) * phase
        weights = (2.0 * np.pi / self.curve.t.size) * self.curve.jac
        return (kernel * weights[None, :]) @ self.densities

    def scattered_at(self, points: np.ndarray, direction_index: int = 0) -> np.ndarray:
        """Scattered field at exterior points for one incident direction."""
        k = self.k
        pts = np.atleast_2d(points)
        diff = pts[:, None, :] - self.curve.points[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        j0, j1, y0, y1 = special.jy01_kernel(k * r)
        h0 = j0 + 1j * y0
        h1 = j1 + 1j * y1
        nu_dot = np.einsum("ijk,jk->ij", diff, self.curve.normals)
        dl = (1j * k / 4.0) * h1 * nu_dot / r
        sl = (1j / 4.0) * h0
        weights = (2.0 * np.pi / self.curve.t.size) * self.curve.jac
        kernel = (dl - 1j * self.eta * sl) * weights[None, :]
        return kernel @ self.densities[:, direction_index]


def solve_scattering(shape: Shape, a: float, quad_nodes: int, direction_count: int) -> ScatteringSolution:
    """Solve the sound-soft problem for plane waves from a uniform grid of
    incident directions."""
    k = math.sqrt(a)
    eta = k
    curve = _curve(shape.profile, quad_nodes)
    system = 0.5 * np.eye(quad_nodes) + _kernel_matrices(curve, k, eta)
    omega = 2.0 * np.pi * np.arange(direction_count) / direction_count
    dirs = np.column_stack([np.cos(omega), np.sin(omega)])
    rhs = -np.exp(1j * k * curve.points @ dirs.T)
    try:
        densities = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ScatteringError(f"combined-field system singular: {exc}") from exc
    residual = np.max(np.abs(system @ densities - rhs))
    if not np.isfinite(residual) or residual > 1e-8:
        raise ScatteringError(f"combined-field solve residual {residual:.2e}")
    return ScatteringSolution(curve, a, eta, omega, densities)


def _project_far_field(grid: np.ndarray, angles: np.ndarray, n_max: int) -> np.ndarray:
    """b_kl = double quadrature of A(xhat, omega) v_k(xhat) v_l(omega)."""
    elements = enumerate_basis(BasisSpec(FULL_CIRCLE, n_max=n_max))
    traces = np.stack([e.trace(angles) for e in elements])
    w = 2.0 * np.pi / angles.size
    return (w * w) * (traces @ grid @ traces.T)


def reciprocity_residual(grid: np.ndarray) -> float:
    """max |A(xhat, omega) - A(-omega, -xhat)| on the symmetric angle grid."""
    n = grid.shape[0]
    half = n // 2
    flipped = np.roll(np.roll(grid.T, half, axis=0), half, axis=1)
    return float(np.max(np.abs(grid - flipped)))


def farfield_numeric(prob: ObstacleProblem, a: float | None = None) -> dict[float, FarFieldMatrix]:
    """Far-field coefficient matrices of the obstacle, one per wave parameter.

    Reduces to farfield_disk for constant profiles.
    """
    params = (a,) if a is not None else prob.wave_params
    degrees = fourier_degrees(prob.n_max)
    out: dict[float, FarFieldMatrix] = {}
    for wave in params:
        sol = solve_scattering(prob.shape, wave, prob.quad_nodes, prob.direction_count)
        grid = sol.far_field_grid()
        entries = _project_far_field(grid, sol.directions, prob.n_max)
        out[wave] = FarFieldMatrix(entries, degrees, wave, reciprocity_residual(grid))
    return out


def farfield_operator(matrix: FarFieldMatrix, p: float = 1.0) -> OperatorMatrix:
    """Far-field matrix as a weighted-class operator with fitted constants."""
    fit = fit_envelope(np.abs(matrix.entries), matrix.degrees)
    return OperatorMatrix(matrix.entries, matrix.degrees, fit.c2, fit.alpha2, p)
