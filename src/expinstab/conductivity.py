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
and the periodic trapezoid rule converges spectrally.  The kernel's transpose
is filled in cache-sized row blocks, bit for bit the full-array build in the
same order of operations at about a quarter of its peak memory, into an
array that each thread keeps between shapes; LAPACK then reads the kernel in
Fortran order without a copy.  Each block divides nu(x).(x - y) by
|x - y|^2: for the sources y (the log half) both come from
shapes.pair_geometry, as in the scattering kernel; for their images y* they
are short sums of per-source and per-target factors.  Matrix entries
against the circle Fourier basis reduce to interface integrals of phi against
the harmonic extensions, so no volume mesh is needed; the concentric closed
form serves as the accuracy gate.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from expinstab import shapes
from expinstab.shapes import BoundaryNodes, Shape

MAX_INCLUSION_RADIUS = 0.8  # inclusions stay compactly inside B(0, 4/5)
CONTRAST_GUARD = 1e-6

ROW_BLOCK = 32  # kernel rows per block: the 4 work arrays (512 kB at 512 nodes) stay in L2

_workspace = threading.local()  # per-thread arrays reused across solves (see kept_array)


class SolverError(RuntimeError):
    """Raised when a forward solve cannot be completed reliably."""


def checked_solve(system: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """Solution x of system @ x = rhs; SolverError when the named system is
    singular or the largest residual entry is above 1e-8 or not finite."""
    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"{name} system singular: {exc}") from exc
    r = system @ x
    r -= rhs
    residual = np.max(np.abs(r) if np.iscomplexobj(r) else np.abs(r, out=r))
    if not np.isfinite(residual) or residual > 1e-8:
        raise SolverError(f"{name} solve residual {residual:.2e}")
    return x


def checked_inverse(matrix: np.ndarray, name: str) -> np.ndarray:
    """Inverse of the named matrix; SolverError when its condition number is
    above 1e12 or not finite."""
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > 1e12:
        raise SolverError(f"{name} ill-conditioned (cond ~ {cond:.2e})")
    return np.linalg.inv(matrix)


@dataclass(frozen=True)
class InclusionProblem:
    shape: Shape
    contrast: float
    n_max: int
    quad_nodes: int

    def __post_init__(self):
        if self.shape.kind != shapes.RADIAL_SUBGRAPH:
            raise ValueError("inclusion must be a radial_subgraph shape")
        reach = self.shape.profile.reach
        if reach > MAX_INCLUSION_RADIUS + 1e-12:
            raise ValueError(f"inclusion reaches radius {reach:.4f} > {MAX_INCLUSION_RADIUS}")
        a = self.contrast
        if a <= 0:
            raise ValueError("contrast must be positive")
        if a != 1.0 and abs(a - 1.0) < CONTRAST_GUARD:
            raise ValueError(f"contrast too close to 1 (|a-1| < {CONTRAST_GUARD})")


def fourier_degrees(n_max: int) -> np.ndarray:
    """Degrees of the ordered circle basis [1, cos, sin, cos 2, sin 2, ...]."""
    return np.concatenate([[0.0], np.repeat(np.arange(1.0, n_max + 1), 2)])


def turn(matrix: np.ndarray, theta: float) -> np.ndarray:
    """The matrix of a map turned by the angle theta, when matrix holds the
    map in fourier_degrees order on its last two axes: the (cos n, sin n)
    pair turns by n theta, on rows and on columns.  An odd size starts with
    the constant mode; an even size is the mean-zero block."""
    size = matrix.shape[-1]
    angles = theta * np.arange(1, size // 2 + 1)
    cos, sin = np.cos(angles), np.sin(angles)
    rows = np.arange(size % 2, size, 2)  # the cos row of each pair
    rotation = np.eye(size)
    rotation[rows, rows] = rotation[rows + 1, rows + 1] = cos
    rotation[rows + 1, rows], rotation[rows, rows + 1] = sin, -sin
    return rotation @ matrix @ rotation.T


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


def kept_array(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """This thread's array called name, kept between calls and made anew only
    when its shape or dtype changes; it holds whatever its last user left.

    The forward solvers keep their n x n and larger work arrays here: with
    glibc malloc, the few MB that a solve allocates and frees are handed back
    to the operating system and faulted in again by the next solve (about
    1,450 page faults per 512-node conductivity solve or 192-node far-field
    solve)."""
    arrays = vars(_workspace)
    array = arrays.get(name)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = arrays[name] = np.empty(shape, dtype)
    return array


def _kstar_matrix(nodes: BoundaryNodes, kernel: np.ndarray) -> np.ndarray:
    """Weighted kernel of dG/dnu(x) for the disk Green's function:
    -(1/2pi) nu(x).(x-y)/|x-y|^2  +  (1/2pi) nu(x).(x-y*)/|x-y*|^2,
    times the trapezoid weight of y (1/2pi and the weights are one column scale).

    The kernel's transpose is written into the n x n array kernel and
    kernel.T is returned: a Fortran-ordered view, which LAPACK factors
    without a transposing copy.  Filled ROW_BLOCK rows (kernel columns) at a
    time so the work arrays stay in cache.  The log half takes its
    differences x - y from shapes.pair_geometry, since they cancel near the
    diagonal.  The image half is two short sums of per-source and per-target
    factors, nu.x - nu.y* over |x|^2 + |y*|^2 - 2 x.y*, added left to right
    by einsum (no BLAS call, so no entry depends on its block); the form is
    well conditioned because |x - y*|^2 >= (1/0.8 - 0.8)^2."""
    n = nodes.weights.size
    frame = np.vstack([nodes.points.T, nodes.normals.T])  # contiguous x, y, nu_x, nu_y
    points, normals = frame[:2], frame[2:]
    # image part: y* = y/|y|^2, smooth since |y*| >= 1/0.8 > |x|
    images = points / np.hypot(*points) ** 2
    (x, y), (nu_x, nu_y), (ix, iy) = points, normals, images
    ones = np.ones(n)
    # at [i, j]: the target x_j runs along a row, the source y_i (or y_i*) down a
    # column; the image half's numerator nu.x - nu.y* and denominator
    # |x|^2 + |y*|^2 - 2 x.y* sum source factors [i, k] times target factors [k, j]
    num_sources = np.column_stack([ones, -ix, -iy])
    num_targets = np.vstack([nu_x * x + nu_y * y, nu_x, nu_y])
    den_sources = np.column_stack([ones, ix * ix + iy * iy, -2.0 * ix, -2.0 * iy])
    den_targets = np.vstack([x * x + y * y, ones, x, y])
    # continuous diagonal limit of the log part: -kappa/(4 pi) once negated and scaled
    log_diagonal = 0.5 * nodes.curvature
    scale = nodes.weights / (2.0 * np.pi)
    work = np.empty((4, min(ROW_BLOCK, n), n))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the log part's diagonal, set below
        for start in range(0, n, ROW_BLOCK):
            rows = slice(start, min(start + ROW_BLOCK, n))
            block = kernel[rows]
            log_part, dist2, *scratch = work[:, : block.shape[0]]
            np.einsum("ik,kj->ij", num_sources[rows], num_targets, out=block)
            np.einsum("ik,kj->ij", den_sources[rows], den_targets, out=dist2)
            block /= dist2
            shapes.pair_geometry(points, points[:, rows, None], normals, (dist2, log_part, *scratch))
            log_part /= dist2
            log_part.flat[start :: n + 1] = log_diagonal[rows]
            block -= log_part
            block *= scale[rows, None]
    return kernel.T


def _mode_traces(nodes: BoundaryNodes, n_max: int):
    """Harmonic extensions of the normalized circle modes and their normal
    derivatives at the interface points.

    With z = x + iy, the extension of cos/sin mode j is Re/Im z^j / sqrt(pi),
    of the constant 1/sqrt(2 pi); by Cauchy-Riemann the normal derivative of
    Re/Im z^j is Re/Im (j nu z^(j-1)) with nu = nu_x + i nu_y.  Columns follow
    fourier_degrees ordering: columns 2j-1 and 2j are the real and imaginary
    parts of one complex column.  The products go into one contiguous complex
    array and from there into the float columns: a complex view of those
    columns starts 8 bytes into a row, so numpy would buffer every ufunc on it.
    """
    n_pts = nodes.weights.size
    powers = np.ones((n_pts, n_max + 1), dtype=complex)  # z^0 ... z^n_max
    powers[:, 1:] = (nodes.points[:, 0] + 1j * nodes.points[:, 1])[:, None]
    np.cumprod(powers, axis=1, out=powers)
    nu = nodes.normals[:, 0] + 1j * nodes.normals[:, 1]
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    values = np.empty((n_pts, 2 * n_max + 1))
    d_normal = np.empty((n_pts, 2 * n_max + 1))
    values[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    d_normal[:, 0] = 0.0
    product = np.multiply(powers[:, 1:], inv_sqrt_pi)
    values[:, 1::2], values[:, 2::2] = product.real, product.imag
    np.multiply(powers[:, :-1], np.arange(1, n_max + 1) * inv_sqrt_pi, out=product)
    product *= nu[:, None]
    d_normal[:, 1::2], d_normal[:, 2::2] = product.real, product.imag
    return values, d_normal


def dtn_numeric(prob: InclusionProblem) -> np.ndarray:
    """Difference matrix <(Lambda(D) - Lambda_0) e_j, e_k> in the ordered
    circle basis [1, cos, sin, ..., cos n_max, sin n_max] (L^2-normalized),
    where Lambda_0 = diag(fourier_degrees(n_max)) is the DtN map of the
    homogeneous disk.  The DtN matrix is Lambda_0 plus this difference,
    which keeps the difference's low bits on the diagonal.

    Plus Lambda_0 it reduces to dtn_concentric on constant profiles;
    symmetric up to quadrature error.
    """
    n_max = prob.n_max
    if prob.contrast == 1.0:
        return np.zeros((2 * n_max + 1, 2 * n_max + 1))
    nodes = shapes.boundary_nodes(prob.shape.profile, prob.quad_nodes)
    lam_c = (prob.contrast + 1.0) / (2.0 * (prob.contrast - 1.0))
    n = prob.quad_nodes
    kernel = kept_array("kstar", (n, n))
    system = _kstar_matrix(nodes, kernel)  # Fortran-ordered view of kernel
    kernel.flat[:: n + 1] += lam_c
    values, d_normal = _mode_traces(nodes, n_max)
    # phi is minus the density; negation is exact, so no bit of delta moves
    phi = checked_solve(system, d_normal, "transmission")
    return (values * nodes.weights[:, None]).T @ phi


def delta_dtn_weighted(prob: InclusionProblem) -> np.ndarray:
    """Weighted difference matrix of the problem's DtN map (see weighted_delta)."""
    return weighted_delta(dtn_numeric(prob), prob.n_max)


def weighted_delta(delta: np.ndarray, n_max: int) -> np.ndarray:
    """Weighted difference matrix b_jk = <(Lambda(D) - Lambda_0) e_j, e_k>
    / sqrt((1+gamma_j)(1+gamma_k)) of a difference matrix from dtn_numeric,
    rows and columns in fourier_degrees(n_max) order."""
    weights = 1.0 / np.sqrt(1.0 + fourier_degrees(n_max))
    return delta * np.outer(weights, weights)


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


@functools.lru_cache(maxsize=16)
def _shells(degrees: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only distinct degrees (ascending) and the flat shell index of
    each entry of the pairwise maxima max(gamma_j, gamma_k) of the float64
    degrees with these bytes, once per degree sequence, not once per matrix.
    The levels come from a Python set, since np.unique would page numpy's
    sort code into every run, and the index is the pairwise max of ranks."""
    grid = np.frombuffer(degrees)
    levels = np.array(sorted(set(grid.tolist())))
    rank = np.searchsorted(levels, grid)
    shell = np.maximum.outer(rank, rank).ravel()
    levels.flags.writeable = shell.flags.writeable = False
    return levels, shell


def _shell_maxima(values: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct degree levels n (ascending) of the square values, whose
    rows and columns have the given degrees, and the max of |values_jk| over
    the entries with max(gamma_j, gamma_k) = n."""
    levels, shell = _shells(np.asarray(degrees, dtype=float).tobytes())
    maxima = np.zeros(levels.size)
    np.maximum.at(maxima, shell, np.abs(values).ravel())
    return levels, maxima


def fit_envelope(entries: np.ndarray, degrees: np.ndarray) -> EnvelopeFit:
    """Fit |b_jk| <= C2 exp(-alpha2 max(gamma_j, gamma_k)): alpha2 is minus
    the ``line_fit`` slope of the shells' log maxima against their levels
    (floored at 1e-12; 1 with fewer than two shells), C2 the smallest
    constant making the envelope exact (zero violations)."""
    levels, maxima = _shell_maxima(entries, degrees)
    keep = maxima > 1e-14
    levels, maxima = levels[keep], maxima[keep]
    if levels.size < 2:
        alpha2 = 1.0  # no decay to regress on
    else:
        slope, _, _ = line_fit(levels, np.log(maxima))
        alpha2 = float(max(-slope, 1e-12))
    fit = EnvelopeFit(0.0, alpha2, levels, maxima)
    return replace(fit, c2=fit.c2_at(alpha2))


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept: (slope, intercept, R^2),
    with R^2 = 1 when y is constant.  Closed form about the means: x must
    hold at least two distinct values."""
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    slope = float(dx @ dy / (dx @ dx))
    intercept = float(y_mean - slope * x_mean)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum(dy**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def diagonal_decay_fit(entries: np.ndarray, degrees: np.ndarray) -> tuple[float, float, float]:
    """Log-linear fit of the per-degree maxima of the diagonal of entries,
    whose rows have the given degrees: returns (alpha_hat, c_hat, r_squared),
    all nan when fewer than two degree levels are nonzero (at contrast 1 the
    weighted difference vanishes)."""
    positive = degrees > 0
    # zero off-diagonal entries raise no shell maximum
    levels, maxima = _shell_maxima(np.diag(np.diag(entries)[positive]), degrees[positive])
    keep = maxima > 1e-300
    if keep.sum() < 2:
        return math.nan, math.nan, math.nan
    slope, intercept, r2 = line_fit(levels[keep], np.array([math.log(m) for m in maxima[keep]]))
    return -slope, math.exp(intercept), r2


def ntd_from_dtn(dtn_matrix: np.ndarray) -> np.ndarray:
    """Neumann-to-Dirichlet matrix: inverse of the mean-zero block of the
    DtN matrix (constant mode dropped)."""
    return checked_inverse(np.asarray(dtn_matrix)[1:, 1:], "mean-zero DtN block")


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


def _arc_integrals(arc: tuple[float, float], k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """int_arc cos(k theta) and int_arc sin(k theta) dtheta for k = 0..k_max."""
    a, b = arc
    k = np.arange(1.0, k_max + 1)
    ic = np.concatenate([[b - a], (np.sin(k * b) - np.sin(k * a)) / k])
    is_ = np.concatenate([[0.0], (np.cos(k * a) - np.cos(k * b)) / k])
    return ic, is_


def arc_mode_integrals(arc: tuple[float, float], n_max: int) -> np.ndarray:
    """<chi_arc, e_f> for the ordered normalized basis (analytic)."""
    ic, is_ = _arc_integrals(arc, n_max)
    out = np.empty(2 * n_max + 1)
    out[0] = ic[0] / math.sqrt(2.0 * math.pi)
    out[1::2] = ic[1:] / math.sqrt(math.pi)
    out[2::2] = is_[1:] / math.sqrt(math.pi)
    return out


def _arc_multiplication_matrix(arc: tuple[float, float], n_max: int) -> np.ndarray:
    """X[f, g] = int_arc e_f e_g dtheta, via product-to-sum identities on the
    index grids n - m and n + m (n, m >= 1); sin integrals are odd in k."""
    ic, is_ = _arc_integrals(arc, 2 * n_max)
    n = np.arange(1, n_max + 1)
    diff, plus = n[:, None] - n[None, :], n[:, None] + n[None, :]
    cos_diff, cos_plus = ic[np.abs(diff)], ic[plus]
    sin_diff, sin_plus = np.sign(diff) * is_[np.abs(diff)], is_[plus]
    invpi = 1.0 / math.pi
    sq = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(math.pi)
    x = np.empty((2 * n_max + 1, 2 * n_max + 1))
    x[0, 0] = ic[0] * (1.0 / (2.0 * math.pi))
    x[0, 1::2] = x[1::2, 0] = sq * ic[1 : n_max + 1]
    x[0, 2::2] = x[2::2, 0] = sq * is_[1 : n_max + 1]
    x[1::2, 1::2] = 0.5 * (cos_diff + cos_plus) * invpi
    x[2::2, 2::2] = 0.5 * (cos_diff - cos_plus) * invpi
    x[1::2, 2::2] = 0.5 * (sin_plus - sin_diff) * invpi
    x[2::2, 1::2] = 0.5 * (sin_plus + sin_diff) * invpi
    return x


@functools.lru_cache(maxsize=16)
def _electrode_operators(cfg: ElectrodeConfig, n_max: int) -> tuple[np.ndarray, ...]:
    """Read-only shape-independent parts of resistance_matrix: the arc mode
    integrals c_vecs (one row per electrode), the arc-wise impedance operator
    s_op, diag(1/lengths), and the projections that remove constant current
    patterns and make the voltages sum to zero."""
    size = 2 * n_max + 1
    lengths = cfg.lengths
    c_vecs = np.stack([arc_mode_integrals(arc, n_max) for arc in cfg.arcs])
    s_op = np.zeros((size, size))
    for l, arc in enumerate(cfg.arcs):
        x_l = _arc_multiplication_matrix(arc, n_max)
        s_op += (x_l - np.outer(c_vecs[l], c_vecs[l]) / lengths[l]) / cfg.impedances[l]
    count = cfg.count
    ones = np.ones(count)
    proj_in = np.eye(count) - np.outer(ones, ones) / count
    proj_out = np.eye(count) - np.outer(lengths, ones) / lengths.sum()
    operators = (c_vecs, s_op, np.diag(1.0 / lengths), proj_in, proj_out)
    for a in operators:
        a.flags.writeable = False
    return operators


def resistance_matrix(ntd_matrix: np.ndarray, cfg: ElectrodeConfig) -> np.ndarray:
    """L x L resistance matrix of the complete electrode model.

    ``ntd_matrix`` is ``ntd_from_dtn(dtn)`` of the DtN matrix
    ``diag(fourier_degrees(n_max)) + dtn_numeric(prob)``: the 2 n_max x
    2 n_max mean-zero block, which fixes the truncation n_max.  Solves
    (Id + K(D)) phi = I_tilde in the truncated Fourier space, where K(D)
    applies the Neumann-to-Dirichlet map arc-wise with impedance weights,
    then assembles V from arc averages of the resulting potential; voltages
    are normalized to sum to zero and R annihilates constants.  Everything
    but the NtD matrix is built once per (cfg, n_max).
    """
    size = ntd_matrix.shape[0] + 1
    c_vecs, s_op, inv_lengths, proj_in, proj_out = _electrode_operators(cfg, size // 2)
    n_full = np.zeros((size, size))
    n_full[1:, 1:] = ntd_matrix

    system = np.eye(size) + s_op @ n_full
    # R_pre maps current patterns to arc integrals of N(D) phi
    w_mat = n_full @ checked_inverse(system, "electrode system")
    r_pre = c_vecs @ w_mat @ c_vecs.T @ inv_lengths
    return proj_out @ r_pre @ proj_in
