"""Forward conductivity maps on the unit disk with a star-shaped inclusion.

The transmission problem div((1 + (a-1)chi_D) grad u) = 0, u = psi on the
unit circle, is solved with a single-layer ansatz u = w + S phi, where w is
the harmonic extension of psi and S uses the Dirichlet Green's function of
the unit disk (log kernel plus image-charge correction), so u = psi on the
outer boundary holds exactly.  The flux transmission condition yields the
second-kind equation

    (lambda_c I + K*) phi = -dw/dnu on the interface,
    lambda_c = (a+1) / (2(a-1)),

with K* the normal-derivative layer operator; on smooth star-shaped
interfaces the kernel is continuous (diagonal limit through the curvature)
and the periodic trapezoid rule converges spectrally.  Matrix entries against
the circle Fourier basis reduce to interface integrals of phi against the
harmonic extensions, so no volume mesh is needed.  This replaces a
finite-difference interior solver; the concentric closed form serves as the
accuracy gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from expinstab import shapes
from expinstab.opnet import OperatorMatrix
from expinstab.shapes import RadialProfile, Shape

MAX_INCLUSION_RADIUS = 0.8  # inclusions stay compactly inside B(0, 4/5)
CONTRAST_GUARD = 1e-6

DEFAULT_QUAD = 512


class SolverError(RuntimeError):
    """Raised when a forward solve cannot be completed reliably."""


@dataclass(frozen=True)
class InclusionProblem:
    shape: Shape
    contrast: float = 2.0
    n_max: int = 32
    quad_nodes: int = DEFAULT_QUAD

    def __post_init__(self):
        if self.shape.kind != shapes.RADIAL_SUBGRAPH:
            raise ValueError("inclusion must be a radial_subgraph shape")
        prof: RadialProfile = self.shape.profile
        cx, cy = prof.center
        max_radius = math.hypot(cx, cy) + prof.base_radius + float(prof.values.max())
        if max_radius > MAX_INCLUSION_RADIUS + 1e-12:
            raise ValueError(
                f"inclusion reaches radius {max_radius:.4f} > {MAX_INCLUSION_RADIUS}"
            )
        a = self.contrast
        if a <= 0:
            raise ValueError("contrast must be positive")
        if a != 1.0 and abs(a - 1.0) < CONTRAST_GUARD:
            raise ValueError(f"contrast too close to 1 (|a-1| < {CONTRAST_GUARD})")


def fourier_degrees(n_max: int) -> np.ndarray:
    """Degrees of the ordered circle basis [1, cos, sin, cos 2, sin 2, ...]."""
    out = [0.0]
    for j in range(1, n_max + 1):
        out.extend([float(j), float(j)])
    return np.array(out)


def dtn_concentric(rho: float, a: float, n_max: int) -> np.ndarray:
    """Dirichlet-to-Neumann eigenvalues for the concentric inclusion of
    radius rho: lambda_n = n (1 - mu rho^(2n)) / (1 + mu rho^(2n)),
    mu = (1-a)/(1+a)."""
    if not 0.0 < rho <= MAX_INCLUSION_RADIUS:
        raise ValueError(f"need 0 < rho <= {MAX_INCLUSION_RADIUS}")
    mu = (1.0 - a) / (1.0 + a)
    n = np.arange(n_max + 1, dtype=float)
    shrink = mu * rho ** (2.0 * n)
    return n * (1.0 - shrink) / (1.0 + shrink)


@dataclass
class _InterfaceGeometry:
    points: np.ndarray      # (N, 2)
    normals: np.ndarray     # (N, 2), outward
    weights: np.ndarray     # (N,) trapezoid weights including |y'|
    radius: np.ndarray      # (N,) distance to the disk center
    angle: np.ndarray       # (N,) polar angle around the disk center
    curvature: np.ndarray   # (N,)


def _interface_geometry(prob: InclusionProblem) -> _InterfaceGeometry:
    prof: RadialProfile = prob.shape.profile
    n = prob.quad_nodes
    rho, d_rho, dd_rho = shapes.radial_geometry(prof, n)
    t = 2.0 * np.pi * np.arange(n) / n
    ct, st = np.cos(t), np.sin(t)
    cx, cy = prof.center
    pts = np.column_stack([cx + rho * ct, cy + rho * st])
    jac = np.sqrt(rho**2 + d_rho**2)
    normals = np.column_stack([rho * ct + d_rho * st, rho * st - d_rho * ct]) / jac[:, None]
    curvature = (rho**2 + 2.0 * d_rho**2 - rho * dd_rho) / jac**3
    weights = (2.0 * np.pi / n) * jac
    radius = np.hypot(pts[:, 0], pts[:, 1])
    angle = np.arctan2(pts[:, 1], pts[:, 0])
    return _InterfaceGeometry(pts, normals, weights, radius, angle, curvature)


def _kstar_matrix(geo: _InterfaceGeometry) -> np.ndarray:
    """Weighted kernel ofdG/dnu(x) for the disk Green's function:
    -(1/2pi) nu(x).(x-y)/|x-y|^2  +  (1/2pi) nu(x).(x-y*)/|x-y*|^2."""
    x = geo.points
    nu = geo.normals
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    num = np.einsum("ijk,ik->ij", diff, nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_part = -num / r2 / (2.0 * np.pi)
    # continuous diagonal limit of the log part: -kappa/(4 pi)
    np.fill_diagonal(log_part, -geo.curvature / (4.0 * np.pi))
    # image part: y* = y/|y|^2, smooth since |y*| >= 1/0.8 > |x|
    ystar = x / (geo.radius**2)[:, None]
    diff_s = x[:, None, :] - ystar[None, :, :]
    r2_s = np.einsum("ijk,ijk->ij", diff_s, diff_s)
    num_s = np.einsum("ijk,ik->ij", diff_s, nu)
    image_part = num_s / r2_s / (2.0 * np.pi)
    return (log_part + image_part) * geo.weights[None, :]


def _mode_traces(geo: _InterfaceGeometry, n_max: int):
    """Harmonic extensions of the normalized circle modes and their normal
    derivatives at the interface points.

    Extension of cos/sin mode j is s^j cos(j tau)/sqrt(pi), of the constant
    1/sqrt(2 pi); columns follow fourier_degrees ordering.
    """
    s = geo.radius
    tau = geo.angle
    n_pts = s.size
    k = 2 * n_max + 1
    values = np.empty((n_pts, k))
    d_normal = np.empty((n_pts, k))
    e_s = np.column_stack([np.cos(tau), np.sin(tau)])
    e_t = np.column_stack([-np.sin(tau), np.cos(tau)])
    nu_s = np.einsum("ik,ik->i", geo.normals, e_s)
    nu_t = np.einsum("ik,ik->i", geo.normals, e_t)
    values[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    d_normal[:, 0] = 0.0
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for j in range(1, n_max + 1):
        sj = s ** (j - 1)
        cj, sj_ang = np.cos(j * tau), np.sin(j * tau)
        col = 2 * j - 1
        values[:, col] = s * sj * cj * inv_sqrt_pi
        values[:, col + 1] = s * sj * sj_ang * inv_sqrt_pi
        # grad(s^j cos j tau) = j s^(j-1) (cos e_s - sin e_t)
        d_normal[:, col] = j * sj * (cj * nu_s - sj_ang * nu_t) * inv_sqrt_pi
        d_normal[:, col + 1] = j * sj * (sj_ang * nu_s + cj * nu_t) * inv_sqrt_pi
    return values, d_normal


def dtn_numeric(prob: InclusionProblem) -> np.ndarray:
    """Matrix <Lambda(D) e_j, e_k> in the ordered circle basis
    [1, cos, sin, ..., cos n_max, sin n_max] (L^2-normalized).

    Reduces to dtn_concentric on constant profiles; symmetric up to
    quadrature error.
    """
    n_max = prob.n_max
    base = np.diag(fourier_degrees(n_max))
    if prob.contrast == 1.0:
        return base
    geo = _interface_geometry(prob)
    kstar = _kstar_matrix(geo)
    lam_c = (prob.contrast + 1.0) / (2.0 * (prob.contrast - 1.0))
    values, d_normal = _mode_traces(geo, n_max)
    system = lam_c * np.eye(geo.points.shape[0]) + kstar
    try:
        phi = np.linalg.solve(system, -d_normal)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"transmission system singular: {exc}") from exc
    residual = np.max(np.abs(system @ phi + d_normal))
    if not np.isfinite(residual) or residual > 1e-8:
        raise SolverError(f"transmission solve residual {residual:.2e}")
    delta = -(values * geo.weights[:, None]).T @ phi
    return base + delta


def delta_dtn_weighted(prob: InclusionProblem, p: float = 1.0) -> OperatorMatrix:
    """Weighted difference matrix b_jk = <(Lambda(D) - Lambda_0) e_j, e_k>
    / sqrt((1+gamma_j)(1+gamma_k)) with class constants fitted on the fly."""
    n_max = prob.n_max
    degrees = fourier_degrees(n_max)
    full = dtn_numeric(prob)
    delta = full - np.diag(degrees)
    weights = 1.0 / np.sqrt(1.0 + degrees)
    entries = delta * np.outer(weights, weights)
    fit = fit_envelope(entries, degrees)
    return OperatorMatrix(entries, degrees, fit.c2, fit.alpha2, p)


@dataclass(frozen=True)
class EnvelopeFit:
    """Envelope |b_jk| <= c2 exp(-alpha2 max(gamma_j, gamma_k)) together with
    the shells it was fitted on: the degree levels n and the maxima of |b_jk|
    over max(gamma_j, gamma_k) = n (shells at or below 1e-14 dropped)."""

    c2: float
    alpha2: float
    levels: np.ndarray
    maxima: np.ndarray

    def c2_at(self, alpha2: float) -> float:
        """Smallest constant making the envelope exact at decay rate alpha2."""
        return float(np.max(self.maxima * np.exp(alpha2 * self.levels), initial=1e-300))


def fit_envelope(entries: np.ndarray, degrees: np.ndarray) -> EnvelopeFit:
    """Fit |b_jk| <= C2 exp(-alpha2 max(gamma_j, gamma_k)): alpha2 from a
    log-linear shell regression, C2 as the smallest constant making the
    envelope exact (zero violations)."""
    maxdeg = np.maximum.outer(degrees, degrees)
    shells = np.unique(degrees)
    mags, levels = [], []
    for n in shells:
        m = np.max(np.abs(entries)[np.isclose(maxdeg, n)])
        if m > 1e-14:
            mags.append(m)
            levels.append(n)
    levels_arr, mags_arr = np.array(levels, dtype=float), np.array(mags, dtype=float)
    if len(mags) < 2:
        alpha2 = 1.0  # no decay to regress on
    else:
        slope, _ = np.polyfit(levels_arr, np.log(mags_arr), 1)
        alpha2 = float(max(-slope, 1e-12))
    fit = EnvelopeFit(0.0, alpha2, levels_arr, mags_arr)
    return replace(fit, c2=fit.c2_at(alpha2))


def diagonal_decay_fit(matrix: OperatorMatrix) -> tuple[float, float, float]:
    """Log-linear fit of the per-degree diagonal maxima: returns
    (alpha_hat, c_hat, r_squared)."""
    diag = np.abs(np.diag(matrix.entries))
    degrees = matrix.degrees
    levels = np.unique(degrees[degrees > 0])
    ys, ns = [], []
    for n in levels:
        m = diag[np.isclose(degrees, n)].max()
        if m > 1e-300:
            ys.append(math.log(m))
            ns.append(n)
    ns_arr, ys_arr = np.array(ns), np.array(ys)
    slope, intercept = np.polyfit(ns_arr, ys_arr, 1)
    pred = slope * ns_arr + intercept
    ss_res = float(np.sum((ys_arr - pred) ** 2))
    ss_tot = float(np.sum((ys_arr - ys_arr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -slope, math.exp(intercept), r2


def ntd_from_dtn(dtn_matrix: np.ndarray) -> np.ndarray:
    """Neumann-to-Dirichlet matrix: inverse of the mean-zero block of the
    DtN matrix (constant mode dropped)."""
    block = np.asarray(dtn_matrix)[1:, 1:]
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > 1e12:
        raise SolverError(f"mean-zero DtN block ill-conditioned (cond ~ {cond:.2e})")
    return np.linalg.inv(block)


# ----------------------------------------------------------------------------
# complete electrode model
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ElectrodeConfig:
    """L disjoint closed arcs on the unit circle with contact impedances."""

    arcs: tuple[tuple[float, float], ...]
    impedances: tuple[float, ...]

    def __post_init__(self):
        if len(self.arcs) < 2:
            raise ValueError("need at least two electrodes")
        if len(self.impedances) != len(self.arcs):
            raise ValueError("one impedance per electrode")
        if min(self.impedances) <= 0:
            raise ValueError("impedances must be positive")
        spans = sorted(self.arcs)
        for (a1, b1), (a2, _) in zip(spans, spans[1:]):
            if b1 >= a2:
                raise ValueError("electrode arcs must be disjoint with gaps")
        if spans[-1][1] - spans[0][0] >= 2.0 * math.pi:
            raise ValueError("electrode arcs must fit on the circle with gaps")

    @property
    def count(self) -> int:
        return len(self.arcs)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.arcs])

    @classmethod
    def equispaced(cls, count: int = 8, coverage: float = 0.5, impedance: float = 0.1):
        """count equal arcs with equal gaps covering `coverage` of the circle."""
        width = 2.0 * math.pi * coverage / count
        starts = 2.0 * math.pi * np.arange(count) / count
        arcs = tuple((float(s), float(s + width)) for s in starts)
        return cls(arcs, (impedance,) * count)


def _arc_cos_integral(k: int, a: float, b: float) -> float:
    if k == 0:
        return b - a
    return (math.sin(k * b) - math.sin(k * a)) / k


def _arc_sin_integral(k: int, a: float, b: float) -> float:
    if k == 0:
        return 0.0
    return (math.cos(k * a) - math.cos(k * b)) / k


def arc_mode_integrals(arc: tuple[float, float], n_max: int) -> np.ndarray:
    """<chi_arc, e_f> for the ordered normalized basis (analytic)."""
    a, b = arc
    out = np.empty(2 * n_max + 1)
    out[0] = (b - a) / math.sqrt(2.0 * math.pi)
    for j in range(1, n_max + 1):
        out[2 * j - 1] = _arc_cos_integral(j, a, b) / math.sqrt(math.pi)
        out[2 * j] = _arc_sin_integral(j, a, b) / math.sqrt(math.pi)
    return out


def _arc_multiplication_matrix(arc: tuple[float, float], n_max: int) -> np.ndarray:
    """X[f, g] = int_arc e_f e_g dtheta, via product-to-sum identities."""
    a, b = arc
    kmax = 2 * n_max
    ic = np.array([_arc_cos_integral(k, a, b) for k in range(kmax + 1)])
    is_ = np.array([_arc_sin_integral(k, a, b) for k in range(kmax + 1)])

    def icos(k: int) -> float:
        return ic[abs(k)]

    def isin(k: int) -> float:
        return math.copysign(1.0, k) * is_[abs(k)] if k != 0 else 0.0

    size = 2 * n_max + 1
    x = np.zeros((size, size))
    inv2pi = 1.0 / (2.0 * math.pi)
    invpi = 1.0 / math.pi
    sq = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(math.pi)
    x[0, 0] = (b - a) * inv2pi
    for j in range(1, n_max + 1):
        x[0, 2 * j - 1] = x[2 * j - 1, 0] = sq * icos(j)
        x[0, 2 * j] = x[2 * j, 0] = sq * isin(j)
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            cc = 0.5 * (icos(n - m) + icos(n + m)) * invpi
            ss = 0.5 * (icos(n - m) - icos(n + m)) * invpi
            cs = 0.5 * (isin(n + m) - isin(n - m)) * invpi
            sc = 0.5 * (isin(n + m) + isin(n - m)) * invpi
            x[2 * n - 1, 2 * m - 1] = cc
            x[2 * n, 2 * m] = ss
            x[2 * n - 1, 2 * m] = cs
            x[2 * n, 2 * m - 1] = sc
    return x


def resistance_matrix(
    prob: InclusionProblem,
    cfg: ElectrodeConfig,
    dtn_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """L x L resistance matrix of the complete electrode model.

    Solves (Id + K(D)) phi = I_tilde in the truncated Fourier space, where
    K(D) applies the Neumann-to-Dirichlet map arc-wise with impedance
    weights, then assembles V from arc averages of the resulting potential;
    voltages are normalized to sum to zero and R annihilates constants.
    """
    if dtn_matrix is None:
        dtn_matrix = dtn_numeric(prob)
    n_max = prob.n_max
    size = 2 * n_max + 1
    ntd = ntd_from_dtn(dtn_matrix)
    n_full = np.zeros((size, size))
    n_full[1:, 1:] = ntd

    lengths = cfg.lengths
    c_vecs = np.stack([arc_mode_integrals(arc, n_max) for arc in cfg.arcs])
    s_op = np.zeros((size, size))
    for l, arc in enumerate(cfg.arcs):
        x_l = _arc_multiplication_matrix(arc, n_max)
        s_op += (x_l - np.outer(c_vecs[l], c_vecs[l]) / lengths[l]) / cfg.impedances[l]

    system = np.eye(size) + s_op @ n_full
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > 1e12:
        raise SolverError(f"electrode system ill-conditioned (cond ~ {cond:.2e})")
    # R_pre maps current patterns to arc integrals of N(D) phi
    w_mat = n_full @ np.linalg.inv(system)
    r_pre = c_vecs @ w_mat @ c_vecs.T @ np.diag(1.0 / lengths)
    count = cfg.count
    ones = np.ones(count)
    proj_in = np.eye(count) - np.outer(ones, ones) / count
    proj_out = np.eye(count) - np.outer(lengths, ones) / lengths.sum()
    return proj_out @ r_pre @ proj_in
