"""Sound-soft acoustic scattering in the plane: disk far fields in closed
form, a combined-field boundary integral solver for star-shaped obstacles,
far-field coefficient matrices, and the Hankel asymptotic bound.

The exterior Dirichlet problem is solved with the combined double/single
layer ansatz u^s = (D - i eta S) psi, eta = k, leading to the second-kind
equation psi/2 + (K_D - i eta K_S) psi = -u^i on the boundary.  Kernels are
split into a log part times ln(4 sin^2((t-tau)/2)) and a smooth remainder;
the log part is integrated with the Martensen-Kussmaul trigonometric weights,
which is spectrally accurate on smooth boundaries.  Plane-wave phases stay
real until the exp, 1j * (k * x @ d.T): the values equal the complex-GEMM form
1j * k * x @ d.T, but an OpenBLAS complex GEMM slows the complex exp that
follows it about 15-fold.  The kernel and scattered_at take |x - y| and
nu(y).(x - y) from shapes.pair_geometry, as the conductivity kernel does.  The
kernel build writes every n x n and triangle-sized array into arrays that each
thread keeps between solves (conductivity.kept_array): with glibc malloc the
several MB that a solve used to allocate and free went back to the operating
system, and the next solve faulted them in again (about 1,450 page faults and
3 ms of system time per 192-node solve).  Besides its complex matrix, whose
floats hold K1's real and imaginary planes until the last step writes the
sums, the kernel keeps three n x n float planes; the Bessel arguments and
values pass between them and the strict upper triangle through one boolean
mask.  The log factor and the log weights R_|i-j| are read-only circulant
views of 2n floats each.  The Bessel functions need no array of their own:
their four values wait in the complex matrix's floats before K1 is formed,
and the series runs in a plane whose distances are spent.
Far-field coefficients b_kl are projections of the far-field pattern on the
circle Fourier basis; the closed-form disk series (Jacobi-Anger) is the
accuracy oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from expinstab import shapes, special
from expinstab.conductivity import checked_solve, fourier_degrees, kept_array
from expinstab.shapes import BoundaryNodes, Shape
from expinstab.spectral import enumerate_basis

MAX_OBSTACLE_RADIUS = 1.8  # obstacles stay inside B(0, 9/5)


@dataclass(frozen=True)
class ObstacleProblem:
    shape: Shape
    wave_params: tuple[float, ...]
    n_max: int
    quad_nodes: int
    direction_count: int

    def __post_init__(self):
        if self.shape.kind != shapes.RADIAL_SUBGRAPH:
            raise ValueError("obstacle must be a radial_subgraph shape")
        reach = self.shape.profile.reach
        if reach > MAX_OBSTACLE_RADIUS + 1e-12:
            raise ValueError(f"obstacle reaches radius {reach:.4f} > {MAX_OBSTACLE_RADIUS}")
        if min(self.wave_params) <= 0:
            raise ValueError("wave parameters must be positive")
        if self.direction_count % 2:
            raise ValueError("direction count must be even (for reciprocity pairing)")


def disk_mode_coefficients(radius: float, a: float, n_max: int) -> np.ndarray:
    """Scattered-mode coefficients -J_n(k R)/H_n^(1)(k R), n = 0..n_max."""
    k = math.sqrt(a)
    h = special.hankel1_sequence(n_max, np.array([k * radius]))[:, 0]
    j = h.real
    return -j / h


def farfield_disk(radius: float, a: float, n_max: int) -> np.ndarray:
    """Closed-form far-field coefficient matrix of the sound-soft disk, rows
    and columns in fourier_degrees(n_max) order.

    Diagonal in the frequency pairing: both cos-n and sin-n elements carry
    2*pi * C_k * c_n with C_k = sqrt(2/(pi k)) e^{-i pi/4}.
    """
    if not 0.0 < radius <= 1.5:
        raise ValueError("disk radius must lie in (0, 3/2]")
    k = math.sqrt(a)
    c = disk_mode_coefficients(radius, a, n_max)
    front = math.sqrt(2.0 / (math.pi * k)) * np.exp(-1j * math.pi / 4.0)
    # scalar complex products: numpy's vector complex multiply can round differently
    diag = np.array([2.0 * math.pi * front * c[j] for j in fourier_degrees(n_max).astype(int)])
    return np.diag(diag)


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

def _log_weights(n: int) -> np.ndarray:
    """Martensen-Kussmaul weights R_|i-j| for the ln(4 sin^2((t-s)/2)) factor."""
    if n % 2:
        raise ValueError("quadrature node count must be even")
    d = 2.0 * np.pi * np.arange(n) / n
    m = np.arange(1, n // 2)
    r = -(4.0 * np.pi / n) * np.sum(np.cos(np.outer(d, m)) / m, axis=1)
    r -= (4.0 * np.pi / n / n) * np.cos(0.5 * n * d)
    return r


@functools.cache
def _quadrature_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the node count alone, at [j, i] like the
    transposed kernel of _kernel_matrices: the log factor ln(4 sin^2(t_d/2))
    (0 at d = 0) and the log weights R_d at d = (i - j) mod n, and the mask
    of the strict upper triangle.  The first two are circulant: each is a
    view of its row written twice, 2n floats, that starts each row j at
    d = 0 of the second copy and steps back one per row."""
    t = 2.0 * np.pi * np.arange(n) / n
    log_row = np.log(4.0 * np.sin(0.5 * t) ** 2, where=t > 0.0, out=np.zeros(n))
    rows = np.repeat([log_row, _log_weights(n)], 2, axis=0)
    rows.flags.writeable = False
    step = rows.itemsize
    log_fac, weights = (np.ndarray((n, n), buffer=rows, offset=start * step, strides=(-step, step))
                        for start in (n, 3 * n))
    upper = ~np.tri(n, dtype=bool)
    upper.flags.writeable = False
    return log_fac, weights, upper


def _upper_jy01(r: np.ndarray, k: float, spent: np.ndarray, values: np.ndarray):
    """special.jy01_kernel at k r on the strict upper triangle of the
    bitwise-symmetric r, in C order.  Written through _quadrature_tables' mask
    and its transpose, the values are the full-grid call's bit for bit when
    some node distance is at least 1, the full grid's diagonal placeholder:
    the series and asymptotic loops then stop on the same largest argument.
    The arguments fill the front of the plane spent,
    gathered in two row blocks so that no transient holds the triangle.  The
    four values go into the complex matrix values, whose 2 n^2 floats are
    read as two planes: J1 and Y1 fill the front of the first, J0 and Y0 of
    the second.  The series runs in r, which is spent once the arguments are
    gathered."""
    n = r.shape[0]
    upper = _quadrature_tables(n)[2]
    m = n * (n - 1) // 2
    args = spent.reshape(-1)[:m]
    cut = n // 4
    split = cut * (2 * n - 1 - cut) // 2  # the first cut rows hold about 44% of the triangle
    np.multiply(r[:cut][upper[:cut]], k, out=args[:split])
    np.multiply(r[cut:][upper[cut:]], k, out=args[split:])
    re, im = values.view(float).reshape(2, n * n)
    out = im[:m], re[:m], im[m:2 * m], re[m:2 * m]
    return special.jy01_kernel(args, work=r.reshape(-1), out=out)


def _product(out: np.ndarray, first, *factors) -> np.ndarray:
    """first * factors[0] * factors[1] * ..., multiplied left to right as
    Python evaluates it, into out (which may be one of the factors)."""
    np.multiply(first, factors[0], out=out)
    for factor in factors[1:]:
        out *= factor
    return out


def _kernel_matrices(nodes: BoundaryNodes, k: float):
    """Log-split combined kernel with coupling eta = k: K1 * ln(4 sin^2) + K2,
    with trapezoid/log quadrature baked into the returned dense matrix.

    Every product in the complex kernels has a real or a purely imaginary
    factor, so their real and imaginary planes are computed apart in float64,
    bit for bit the complex form's products and sums.  The work fits in
    three kept float planes and the returned complex matrix: its 2 n^2 floats
    are two contiguous planes that first hold the four Bessel values on the
    strict upper triangle (_upper_jy01), then K1's real and imaginary parts,
    and the last step writes K1 R + K2 2 pi/n into its real and imaginary
    views.  The Bessel arguments are gathered into the third plane, and each
    value is written through the triangle mask and its transpose, over a
    plane whose values are spent, before the K1 plane that holds it is
    written; the diagonals are set analytically.  Every
    n x n array holds the transpose, entry (i, j) at [j, i], and quad.T is
    returned: a Fortran-ordered view, which LAPACK factors without a
    transposing copy.  All arrays, the returned matrix too, are this
    thread's kept arrays: the next call at the same node count overwrites
    them."""
    eta = k
    n = nodes.jac.size
    log_fac, r_weights, upper = _quadrature_tables(n)
    r, nu_cos, third = kept_array("kernel_planes", (3, n, n))
    quad = kept_array("kernel", (n, n), complex)
    # quad's 2 n^2 floats hold K1's two planes until the last step
    k1_re, k1_im = quad.view(float).reshape(2, n, n)
    # at [j, i]: the target x_i runs along a row, the source y_j and its normal down a column
    sources, normals = nodes.points.T[..., None], nodes.normals.T[..., None]
    shapes.pair_geometry(nodes.points.T, sources, normals, (r, nu_cos, third, k1_re))
    np.sqrt(r, out=r)
    np.fill_diagonal(r, 1.0)  # placeholder, diagonals set analytically
    nu_cos /= r
    # r is bitwise symmetric: its entries come from negated coordinate differences
    # the values fill the front of K1's planes, and the series runs in r
    j0, j1, y0, y1 = _upper_jy01(r, k, third, quad)
    jac_y = nodes.jac[:, None]  # |x'(y_j)|, down the rows of the transpose

    def full(value, out):
        out[upper] = out.T[upper] = value  # left to right: the triangle, then its mirror
        np.fill_diagonal(out, 0.0)  # no stale diagonal reaches a product; each is set below
        return out

    # K = (ik/4) H1(kr) (nu(y).(x-y)/r) |x'(y)| - i eta (i/4) H0(kr) |x'(y)|,
    # double layer minus i eta times single layer, with H = J + iY, and
    # K1 = -(k/4pi) J1(kr) (...) |x'| - i eta (-(1/4pi) J0(kr) |x'|)
    j1 = full(j1, third)
    y1 = full(y1, r)  # J1 and Y1 are out of K1's real plane before it is written
    _product(k1_re, -(k / (4.0 * math.pi)), j1, nu_cos, jac_y)
    k2_im = _product(j1, k / 4.0, j1, nu_cos, jac_y)
    k2_re = _product(y1, -(k / 4.0), y1, nu_cos, jac_y)
    term = full(y0, nu_cos)
    k2_im += _product(term, 0.25, term, jac_y, eta)
    j0 = full(j0, term)
    _product(k1_im, 1.0 / (4.0 * math.pi), j0, jac_y, eta)
    k2_re += _product(term, 0.25, j0, jac_y, eta)
    # K2 = K - K1 ln(4 sin^2)
    k2_re -= _product(term, k1_re, log_fac)
    k2_im -= _product(term, k1_im, log_fac)
    # analytic diagonal limits; the double layer's is nu.x''/(4 pi |x'|) = -kappa |x'|/(4 pi),
    # the single layer's (i/4 - gamma/(2 pi) - ln(k |x'|/2)/(2 pi)) |x'|
    kd2_diag = -nodes.curvature * nodes.jac / (4.0 * math.pi)
    ks2_log = special.EULER_GAMMA / (2.0 * math.pi) + np.log(0.5 * k * nodes.jac) / (2.0 * math.pi)
    np.fill_diagonal(k2_re, kd2_diag + eta * (0.25 * nodes.jac))
    np.fill_diagonal(k2_im, eta * (ks2_log * nodes.jac))
    # K1 diagonal limits: double-layer part vanishes, single-layer part keeps
    # -J0(0)|x'|/(4 pi), and the log rule weights the diagonal too; numpy
    # divides a complex array by 4 pi as a product with 1/(4 pi), kept here
    np.fill_diagonal(k1_re, 0.0)
    np.fill_diagonal(k1_im, eta * nodes.jac * (1.0 / (4.0 * math.pi)))

    for k1, k2 in ((k1_re, k2_re), (k1_im, k2_im)):
        k1 *= r_weights
        k2 *= 2.0 * np.pi / n
        k2 += k1  # k1 + k2: a sum's bits do not depend on the order of its terms
    # K1's planes are spent: quad's floats take the sums' real and imaginary parts
    quad.real = k2_re
    quad.imag = k2_im
    return quad.T


@dataclass
class ScatteringSolution:
    """Densities of one obstacle at one wave parameter, with evaluators."""

    nodes: BoundaryNodes
    wave_param: float
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
        # real GEMM, then the phase: a complex GEMM first makes the exp about 15x slower
        phase = np.multiply(-1j, k * xhat @ self.nodes.points.T)
        np.exp(phase, out=phase)
        kernel = np.multiply(-1j * k, xhat @ self.nodes.normals.T)
        kernel -= 1j * k
        front = np.exp(1j * math.pi / 4.0) / math.sqrt(8.0 * math.pi * k)
        kernel *= front  # kernel is imaginary: either order of the product gives these bits
        kernel *= phase
        kernel *= self.nodes.weights
        return kernel @ self.densities

    def scattered_at(self, points: np.ndarray, direction_index: int = 0) -> np.ndarray:
        """Scattered field at exterior points for one incident direction."""
        k = self.k
        targets = np.atleast_2d(points).T[..., None]
        geometry = np.empty((4, targets.shape[1], self.nodes.jac.size))
        shapes.pair_geometry(targets, self.nodes.points.T, self.nodes.normals.T, geometry)
        r, nu_dot = np.sqrt(geometry[0]), geometry[1]
        j0, j1, y0, y1 = special.jy01_kernel(k * r)
        h0 = j0 + 1j * y0
        h1 = j1 + 1j * y1
        dl = (1j * k / 4.0) * h1 * nu_dot / r
        sl = (1j / 4.0) * h0
        kernel = (dl - 1j * k * sl) * self.nodes.weights[None, :]
        return kernel @ self.densities[:, direction_index]


def _direction_grid(count: int) -> np.ndarray:
    """Angles 2 pi i / count of the uniform grid of incident and observed directions."""
    return 2.0 * np.pi * np.arange(count) / count


def solve_scattering(shape: Shape, a: float, quad_nodes: int, direction_count: int) -> ScatteringSolution:
    """Solve the sound-soft problem for plane waves from a uniform grid of
    incident directions."""
    k = math.sqrt(a)
    nodes = shapes.boundary_nodes(shape.profile, quad_nodes)
    system = _kernel_matrices(nodes, k)
    system.T.flat[:: quad_nodes + 1] += 0.5  # the diagonal, through the C-ordered kept array
    omega = _direction_grid(direction_count)
    dirs = np.column_stack([np.cos(omega), np.sin(omega)])
    # real GEMM, then the phase: a complex GEMM first makes the exp about 15x slower
    rhs = np.multiply(1j, k * nodes.points @ dirs.T)
    np.negative(np.exp(rhs, out=rhs), out=rhs)
    densities = checked_solve(system, rhs, "combined-field")
    return ScatteringSolution(nodes, a, omega, densities)


@functools.cache
def _basis_traces(n_max: int, direction_count: int) -> np.ndarray:
    """Read-only traces of the circle basis up to n_max (rows) at the uniform
    direction grid (columns)."""
    angles = _direction_grid(direction_count)
    elements = enumerate_basis(n_max)
    traces = np.stack([e.trace(angles) for e in elements])
    traces.flags.writeable = False
    return traces


def _project_far_field(grid: np.ndarray, n_max: int) -> np.ndarray:
    """b_kl = double quadrature of A(xhat, omega) v_k(xhat) v_l(omega) on the
    uniform direction grid."""
    traces = _basis_traces(n_max, grid.shape[0])
    w = 2.0 * np.pi / grid.shape[0]
    return (w * w) * (traces @ grid @ traces.T)


def reciprocity_residual(grid: np.ndarray) -> float:
    """max |A(xhat, omega) - A(-omega, -xhat)| on the symmetric angle grid."""
    n = grid.shape[0]
    half = n // 2
    flipped = np.roll(np.roll(grid.T, half, axis=0), half, axis=1)
    return float(np.max(np.abs(grid - flipped)))


def farfield_numeric(prob: ObstacleProblem) -> tuple[np.ndarray, np.ndarray]:
    """Far-field coefficient matrices of the obstacle, stacked in wave_params
    order (rows and columns in fourier_degrees(n_max) order), and the
    reciprocity residual of each far-field pattern.

    Reduces to farfield_disk for constant profiles.
    """
    size = len(fourier_degrees(prob.n_max))
    fields = np.empty((len(prob.wave_params), size, size), dtype=complex)
    residuals = np.empty(len(prob.wave_params))
    for i, wave in enumerate(prob.wave_params):
        grid = solve_scattering(prob.shape, wave, prob.quad_nodes, prob.direction_count).far_field_grid()
        fields[i] = _project_far_field(grid, prob.n_max)
        residuals[i] = reciprocity_residual(grid)
    return fields, residuals
