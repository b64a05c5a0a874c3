import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expinstab import shapes
from expinstab.conductivity import (
    CONTRAST_GUARD,
    ElectrodeConfig,
    InclusionProblem,
    SolverError,
    _arc_multiplication_matrix,
    _electrode_operators,
    _kstar_matrix,
    _mode_traces,
    _shell_maxima,
    _shells,
    arc_mode_integrals,
    checked_solve,
    delta_dtn_weighted,
    diagonal_decay_fit,
    dtn_concentric,
    dtn_numeric,
    fit_envelope,
    fourier_degrees,
    line_fit,
    ntd_from_dtn,
    resistance_matrix,
)
from expinstab.packing import ShapeClass, build_packing
from expinstab.shapes import RadialProfile, Shape


def dtn_matrix(prob):
    """The DtN matrix: the homogeneous disk's diag(degrees) plus dtn_numeric's difference."""
    return np.diag(fourier_degrees(prob.n_max)) + dtn_numeric(prob)


def disk_shape(values, r=0.5, center=(0.0, 0.0)):
    prof = RadialProfile(np.asarray(values, dtype=float), base_radius=r, center=center)
    return Shape(shapes.RADIAL_SUBGRAPH, prof)


def smooth_inclusion(rng, r=0.5, cap=0.1, modes=6, grid=2048, center=(0.0, 0.0)):
    theta = 2 * np.pi * np.arange(grid) / grid
    vals = np.zeros(grid)
    for j in range(1, modes + 1):
        vals += rng.normal() * np.cos(j * theta) + rng.normal() * np.sin(j * theta)
    vals -= vals.min()
    vals *= cap / max(vals.max(), 1e-30)
    return disk_shape(vals, r=r, center=center)


def off_centre_nodes(seed, n, center=(0.12, -0.07)):
    """Boundary nodes of a bumpy inclusion (base radius 0.4, bumps up to 0.1)
    centred away from the origin."""
    shape = smooth_inclusion(np.random.default_rng(seed), r=0.4, modes=8, center=center)
    return shapes.boundary_nodes(shape.profile, n)


def radial_dtn_fd(n: int, rho: float, a: float, cells: int = 40000) -> float:
    """Independent oracle: the mode-n DtN eigenvalue from a 1D conservative
    finite-difference solve of (sigma r u')' = sigma n^2 u / r on (0, 1),
    u(0) = 0, u(1) = 1.  The interface is grid-aligned, so the scheme is
    second order."""
    h = 1.0 / cells
    r = np.linspace(0.0, 1.0, cells + 1)
    r_mid = 0.5 * (r[:-1] + r[1:])
    sigma_mid = np.where(r_mid < rho, a, 1.0)
    cond = sigma_mid * r_mid / h  # face conductances
    interior = np.arange(1, cells)
    lower = cond[:-1].copy()
    upper = cond[1:].copy()
    diag = -(cond[:-1] + cond[1:]) - np.where(r[interior] < rho, a, 1.0) * n**2 * h / r[interior]
    rhs = np.zeros(cells - 1)
    rhs[-1] -= upper[-1] * 1.0  # u(1) = 1
    ab = np.zeros((3, cells - 1))
    ab[0, 1:] = upper[:-1]
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    from scipy.linalg import solve_banded

    u = solve_banded((1, 1), ab, rhs)
    flux = cond[-1] * (1.0 - u[-1])  # sigma r u' at the boundary face
    # sigma = 1 and r ~ 1 - h/2 at the last face; correct to the boundary
    return float(flux / (1.0 - 0.5 * h))


class TestConcentric:
    def test_no_contrast_gives_homogeneous_values(self):
        assert dtn_concentric(0.5, 1.0, 6) == pytest.approx(np.arange(7), abs=1e-15)

    def test_small_inclusion_limit(self):
        lam = dtn_concentric(1e-9, 2.0, 6)
        assert lam == pytest.approx(np.arange(7), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_against_radial_fd_oracle(self, n):
        closed = dtn_concentric(0.5, 2.0, n)[n]
        oracle = radial_dtn_fd(n, 0.5, 2.0)
        assert abs(closed - oracle) / abs(oracle) <= 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            dtn_concentric(0.9, 2.0, 4)


def kstar_oracle(nodes):
    """_kstar_matrix entry by entry: (w_j/2pi) [nu(x_i).(x_i - y_j*)/|x_i - y_j*|^2
    - nu(x_i).(x_i - x_j)/|x_i - x_j|^2] with y_j* = x_j/|x_j|^2, and the
    curvature limit -kappa_i/(4 pi) in place of the log term on the diagonal."""
    n = nodes.weights.size
    out = np.empty((n, n))
    for i in range(n):
        x1, x2 = nodes.points[i]
        n1, n2 = nodes.normals[i]
        for j in range(n):
            y1, y2 = nodes.points[j]
            s = y1 * y1 + y2 * y2
            d1, d2 = x1 - y1 / s, x2 - y2 / s
            image = (n1 * d1 + n2 * d2) / (d1 * d1 + d2 * d2) / (2.0 * math.pi)
            if i == j:
                log_term = -nodes.curvature[i] / (4.0 * math.pi)
            else:
                d1, d2 = x1 - y1, x2 - y2
                log_term = -(n1 * d1 + n2 * d2) / (d1 * d1 + d2 * d2) / (2.0 * math.pi)
            out[i, j] = (log_term + image) * nodes.weights[j]
    return out


def kstar_full_array(nodes):
    """_kstar_matrix as one pass over full n x n arrays, in the order of
    operations the row blocks must keep entry by entry: the image half's
    numerator and denominator as explicit left-to-right sums of per-source
    (down a column) and per-target (along a row) factors, the log half's
    differences from the points themselves."""
    x, y = nodes.points[:, 0], nodes.points[:, 1]
    nx, ny = nodes.normals[:, 0], nodes.normals[:, 1]
    r2 = np.hypot(x, y) ** 2
    ix, iy = (x / r2)[:, None], (y / r2)[:, None]
    numerator = (nx * x + ny * y) + -ix * nx
    numerator += -iy * ny
    denominator = (x * x + y * y) + (ix * ix + iy * iy)
    denominator += -2.0 * ix * x
    denominator += -2.0 * iy * y
    kernel = numerator / denominator
    dx = x - x[:, None]
    dy = y - y[:, None]
    log_part = nx * dx
    log_part += ny * dy
    dx *= dx
    dy *= dy
    dx += dy
    with np.errstate(divide="ignore", invalid="ignore"):
        log_part /= dx
    np.fill_diagonal(log_part, 0.5 * nodes.curvature)
    kernel -= log_part
    kernel *= (nodes.weights / (2.0 * np.pi))[:, None]
    return kernel.T


def mode_traces_copies(nodes, n_max):
    """_mode_traces with its products as temporaries, copied into the real
    and imaginary columns by strided assignment."""
    n_pts = nodes.weights.size
    powers = np.ones((n_pts, n_max + 1), dtype=complex)
    powers[:, 1:] = (nodes.points[:, 0] + 1j * nodes.points[:, 1])[:, None]
    np.cumprod(powers, axis=1, out=powers)
    nu = nodes.normals[:, 0] + 1j * nodes.normals[:, 1]
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    modes = powers[:, 1:] * inv_sqrt_pi
    slopes = powers[:, :-1] * (np.arange(1, n_max + 1) * inv_sqrt_pi) * nu[:, None]
    values = np.empty((n_pts, 2 * n_max + 1))
    d_normal = np.empty((n_pts, 2 * n_max + 1))
    values[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    d_normal[:, 0] = 0.0
    values[:, 1::2], values[:, 2::2] = modes.real, modes.imag
    d_normal[:, 1::2], d_normal[:, 2::2] = slopes.real, slopes.imag
    return values, d_normal


def mode_traces_polar(nodes, n_max):
    """_mode_traces in polar form: s^j cos/sin(j tau) / sqrt(pi) and their
    gradients j s^(j-1) (cos e_s - sin e_t), (sin e_s + cos e_t) against nu."""
    s = np.hypot(nodes.points[:, 0], nodes.points[:, 1])
    tau = np.arctan2(nodes.points[:, 1], nodes.points[:, 0])
    k = 2 * n_max + 1
    values = np.empty((s.size, k))
    d_normal = np.empty((s.size, k))
    e_s = np.column_stack([np.cos(tau), np.sin(tau)])
    e_t = np.column_stack([-np.sin(tau), np.cos(tau)])
    nu_s = np.einsum("ik,ik->i", nodes.normals, e_s)
    nu_t = np.einsum("ik,ik->i", nodes.normals, e_t)
    values[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    d_normal[:, 0] = 0.0
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for j in range(1, n_max + 1):
        sj = s ** (j - 1)
        cj, sj_ang = np.cos(j * tau), np.sin(j * tau)
        col = 2 * j - 1
        values[:, col] = s * sj * cj * inv_sqrt_pi
        values[:, col + 1] = s * sj * sj_ang * inv_sqrt_pi
        d_normal[:, col] = j * sj * (cj * nu_s - sj_ang * nu_t) * inv_sqrt_pi
        d_normal[:, col + 1] = j * sj * (sj_ang * nu_s + cj * nu_t) * inv_sqrt_pi
    return values, d_normal


class TestKernelAssembly:
    @pytest.mark.parametrize("n", [33, 100, 512])
    def test_row_blocks_equal_full_array_bit_for_bit(self, n):
        # 33 and 100 end on a partial block; NaN marks an entry left unwritten
        nodes = off_centre_nodes(11, n)
        assert np.array_equal(_kstar_matrix(nodes, np.full((n, n), np.nan)), kstar_full_array(nodes))

    def test_peak_memory_is_about_one_output(self):
        # the full-array build peaks near 5 output arrays; the blocked one
        # holds the output and work arrays of a few rows
        n = 512
        nodes = off_centre_nodes(12, n)
        tracemalloc.start()
        try:
            _kstar_matrix(nodes, np.empty((n, n)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    @pytest.mark.parametrize("n_max", [1, 2, 7, 32])
    def test_mode_traces_in_place_equal_copies_bit_for_bit(self, n_max):
        nodes = off_centre_nodes(13, 512)
        for got, want in zip(_mode_traces(nodes, n_max), mode_traces_copies(nodes, n_max)):
            assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cx=st.floats(-0.2, 0.2),
        cy=st.floats(-0.2, 0.2),
        n_max=st.integers(1, 32),
    )
    def test_mode_traces_against_polar_form(self, seed, cx, cy, n_max):
        nodes = off_centre_nodes(seed, 128, center=(cx, cy))
        got = _mode_traces(nodes, n_max)
        want = mode_traces_polar(nodes, n_max)
        for g, w in zip(got, want):
            scale = np.abs(w).max(axis=0)
            assert np.all(np.abs(g - w) <= 1e-13 * scale)


class TestCheckedSolve:
    def test_returns_the_solution_and_rejects_large_or_nan_residuals(self):
        rng = np.random.default_rng(14)
        system = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        rhs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        assert np.array_equal(checked_solve(system, rhs, "test"), np.linalg.solve(system, rhs))
        # entries of 1e12 leave a residual of about 1e12 * 1e-16, above the 1e-8 bar
        with pytest.raises(SolverError, match="huge solve residual"):
            checked_solve(1e12 * system, 1e12 * (system @ rhs), "huge")
        system[2, 3] = np.nan
        with pytest.raises(SolverError, match="nan solve residual"):
            checked_solve(system, rhs, "nan")


class TestDtnNumeric:
    def test_kernel_against_scalar_oracle(self):
        prob = InclusionProblem(smooth_inclusion(np.random.default_rng(9)), 2.0, 8, 32)
        nodes = shapes.boundary_nodes(prob.shape.profile, prob.quad_nodes)
        expected = kstar_oracle(nodes)
        kernel = _kstar_matrix(nodes, np.empty((32, 32)))
        assert np.abs(kernel - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_kernel_against_scalar_oracle_near_reach_limit(self):
        # an off-centre inclusion whose nodes reach 0.7997: the image half's
        # denominator |x|^2 + |y*|^2 - 2 x.y* is at its smallest
        shape = smooth_inclusion(np.random.default_rng(3), r=0.4, modes=8, center=(0.18, -0.24))
        prob = InclusionProblem(shape, 2.0, 8, 128)
        nodes = shapes.boundary_nodes(prob.shape.profile, prob.quad_nodes)
        assert np.hypot(*nodes.points.T).max() > 0.799
        expected = kstar_oracle(nodes)
        kernel = _kstar_matrix(nodes, np.empty((128, 128)))
        assert np.abs(kernel - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_reused_kernel_array_keeps_shapes_apart(self):
        # each thread keeps its kernel array between solves: another order or a
        # different node count in between gives the same bits, concurrent threads
        # the same matrices
        rng = np.random.default_rng(10)
        probs = [
            InclusionProblem(smooth_inclusion(rng, center=(0.02 * k, -0.01 * k)), 2.0, 8, 128)
            for k in range(8)
        ]
        serial = [dtn_matrix(p) for p in probs]
        dtn_matrix(InclusionProblem(probs[0].shape, 2.0, 8, 96))
        backwards = [dtn_matrix(p) for p in probs[::-1]][::-1]
        assert all(np.array_equal(a, b) for a, b in zip(serial, backwards))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(dtn_matrix, p) for p in probs * 4]
                concurrent = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # BLAS may split a call differently while other threads use it: round-off only
        for got, want in zip(concurrent, serial * 4):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_concentric_oracle(self):
        prob = InclusionProblem(disk_shape(np.zeros(2048)), 2.0, 8, 256)
        mat = dtn_matrix(prob)
        lam = dtn_concentric(0.5, 2.0, 8)
        expected = np.concatenate([[lam[0]], np.repeat(lam[1:], 2)])
        rel = np.abs(np.diag(mat)[1:] - expected[1:]) / np.abs(expected[1:])
        assert rel.max() <= 1e-10
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() <= 1e-10

    @pytest.mark.parametrize("radius", [0.5, 0.7])
    def test_difference_diagonal_keeps_its_low_bits(self, radius):
        # dtn_numeric returns the difference itself: its diagonal and the
        # weighted one match the concentric closed form to round-off up to
        # degree 32, where Lambda_0 + Delta - Lambda_0 kept none of its bits
        # (measured 1.4e-15 relative at 128 nodes)
        prob = InclusionProblem(disk_shape(np.zeros(2048), r=radius), 2.0, 32, 128)
        degrees = fourier_degrees(32)
        shrink = (1.0 - 2.0) / (1.0 + 2.0) * radius ** (2.0 * degrees)
        closed = -2.0 * degrees * shrink / (1.0 + shrink)
        for diagonal, expected in (
            (np.diag(dtn_numeric(prob)), closed),
            (np.diag(delta_dtn_weighted(prob)), closed / (1.0 + degrees)),
        ):
            assert diagonal[0] == 0.0
            assert np.abs(diagonal[1:] / expected[1:] - 1.0).max() <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(
        radius=st.floats(0.1, 0.75),
        contrast=st.floats(0.2, 5.0).filter(lambda a: a == 1.0 or abs(a - 1.0) >= CONTRAST_GUARD),
    )
    def test_concentric_at_random_radius_and_contrast(self, radius, contrast):
        prob = InclusionProblem(disk_shape(np.zeros(64), r=radius), contrast, 8, 64)
        lam = dtn_concentric(radius, contrast, 8)
        expected = np.diag(np.concatenate([[lam[0]], np.repeat(lam[1:], 2)]))
        assert np.abs(dtn_matrix(prob) - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_unit_contrast_returns_homogeneous_matrix(self):
        rng = np.random.default_rng(0)
        prob = InclusionProblem(smooth_inclusion(rng), 1.0, 6, 128)
        mat = dtn_matrix(prob)
        expected = np.diag(np.concatenate([[0.0], np.repeat(np.arange(1.0, 7.0), 2)]))
        np.testing.assert_allclose(mat, expected)

    def test_symmetry_on_random_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(4):
            prob = InclusionProblem(smooth_inclusion(rng), 2.0, 12, 384)
            mat = dtn_matrix(prob)
            assert np.abs(mat - mat.T).max() <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        eps=st.sampled_from([0.12, 0.05]),
        quad=st.sampled_from([256, 512]),
        contrast=st.sampled_from([0.5, 2.0]),
        pick=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_symmetric_up_to_quadrature_error_on_packing_shapes(self, eps, quad, contrast, pick):
        # measured worst over 32 patterns and both contrasts each, n_max 32:
        # 9.1e-10 at eps 0.05 and 256 nodes, 1.7e-10 at 512 nodes
        family = build_packing(ShapeClass(), eps)
        pattern = int(pick * (1 << family.cell_count))
        mat = dtn_matrix(InclusionProblem(family.shape(pattern), contrast, 32, quad))
        assert np.abs(mat - mat.T).max() <= 2e-9 * np.abs(mat).max()

    def test_positive_semidefinite_mean_zero(self):
        rng = np.random.default_rng(2)
        prob = InclusionProblem(smooth_inclusion(rng), 2.0, 10, 256)
        mat = dtn_matrix(prob)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs.min() >= -1e-8

    def test_contrast_guard(self):
        with pytest.raises(ValueError):
            InclusionProblem(disk_shape(np.zeros(256)), 1.0 + 1e-8, 4, 64)

    def test_rejects_oversized_inclusion(self):
        with pytest.raises(ValueError):
            InclusionProblem(disk_shape(np.full(256, 0.4), r=0.5), 2.0, 4, 64)


class TestWeightedDifference:
    def test_concentric_diagonal_closed_form(self):
        rho, a = 0.5, 2.0
        prob = InclusionProblem(disk_shape(np.zeros(2048)), a, 10, 256)
        entries = delta_dtn_weighted(prob)
        mu = (1.0 - a) / (1.0 + a)
        diag = np.abs(np.diag(entries))
        for n in range(1, 11):
            expected = 2 * n * abs(mu) * rho ** (2 * n) / ((1 + n) * (1 + mu * rho ** (2 * n)))
            assert diag[2 * n - 1] == pytest.approx(expected, rel=1e-8)
            assert diag[2 * n] == pytest.approx(expected, rel=1e-8)

    def test_unit_contrast_zero_matrix(self):
        prob = InclusionProblem(disk_shape(np.zeros(512)), 1.0, 6, 128)
        assert not delta_dtn_weighted(prob).any()

    @pytest.mark.parametrize("rho", [0.5, 0.7])
    def test_fitted_decay_matches_two_log_inv_rho(self, rho):
        prob = InclusionProblem(disk_shape(np.zeros(2048), r=rho), 2.0, 16, 256)
        alpha_hat, _, r2 = diagonal_decay_fit(delta_dtn_weighted(prob), fourier_degrees(16))
        target = 2.0 * math.log(1.0 / rho)
        assert abs(alpha_hat - target) / target <= 0.10
        assert r2 > 0.99

    def test_envelope_exact_after_fit(self):
        rng = np.random.default_rng(3)
        prob = InclusionProblem(smooth_inclusion(rng), 2.0, 12, 256)
        entries, degrees = delta_dtn_weighted(prob), fourier_degrees(12)
        fit = fit_envelope(entries, degrees)
        maxdeg = np.maximum.outer(degrees, degrees)
        violations = np.abs(entries) > fit.c2 * np.exp(-fit.alpha2 * maxdeg) * (1 + 1e-12)
        assert violations.sum() == 0
        assert fit.alpha2 > 0

    def test_one_shell_fallback_is_a_bound(self):
        # a single shell gives no decay to regress on: the fit keeps rate 1
        # and the constant that makes the envelope exact at that rate
        degrees = fourier_degrees(3)
        entries = np.zeros((7, 7))
        entries[5, 5] = 0.1  # degree 3
        fit = fit_envelope(entries, degrees)
        assert fit.alpha2 == 1.0
        assert fit.c2 == pytest.approx(0.1 * math.exp(3.0), rel=1e-15)
        maxdeg = np.maximum.outer(degrees, degrees)
        assert np.all(entries <= fit.c2 * np.exp(-fit.alpha2 * maxdeg))


def brute_shell_maxima(values, degrees):
    """Per-shell loop: each distinct degree and the max of |values| on it."""
    levels = sorted(set(degrees.ravel().tolist()))
    return levels, [np.abs(values[degrees == d]).max() for d in levels]


class TestShellMaxima:
    # half-integer degrees 0, 1/2, 1, ..., 6; the degree-2.5 shell is dropped
    DEGREES = np.arange(13) / 2.0

    def matrix(self, seed):
        rng = np.random.default_rng(seed)
        maxdeg = np.maximum.outer(self.DEGREES, self.DEGREES)
        entries = rng.standard_normal(maxdeg.shape) * np.exp(-0.9 * maxdeg)
        entries[maxdeg == 2.5] *= 1e-16
        return entries, maxdeg

    def test_against_per_shell_loop(self):
        entries, maxdeg = self.matrix(0)
        levels, maxima = _shell_maxima(entries, self.DEGREES)
        want_levels, want_maxima = brute_shell_maxima(entries, maxdeg)
        assert levels.tolist() == want_levels == [k / 2 for k in range(13)]
        assert maxima.tolist() == want_maxima

    def test_shell_index_is_computed_once_per_degree_sequence(self):
        entries, maxdeg = self.matrix(3)
        levels, maxima = _shell_maxima(entries, self.DEGREES)
        misses = _shells.cache_info().misses
        again, _ = _shell_maxima(2.0 * entries, self.DEGREES)
        assert again is levels and not levels.flags.writeable
        fit_envelope(entries, self.DEGREES)
        assert _shells.cache_info().misses == misses

    @settings(max_examples=60, deadline=None)
    @given(
        halves=st.lists(st.integers(0, 24), min_size=1, max_size=30),
        repeats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shells_match_np_unique(self, halves, repeats, seed):
        # shuffled, repeated and half-integer degree sequences
        degrees = np.repeat(np.array(halves) / 2.0, repeats)
        np.random.default_rng(seed).shuffle(degrees)
        levels, shell = _shells(degrees.tobytes())
        want_levels, want_shell = np.unique(np.maximum.outer(degrees, degrees), return_inverse=True)
        assert np.array_equal(levels.view(np.uint64), want_levels.view(np.uint64))
        assert shell.dtype == want_shell.dtype and np.array_equal(shell, want_shell.ravel())
        assert not levels.flags.writeable and not shell.flags.writeable

    def test_fit_envelope_drops_tiny_shells(self):
        entries, maxdeg = self.matrix(1)
        fit = fit_envelope(entries, self.DEGREES)
        shells = [(n, m) for n, m in zip(*brute_shell_maxima(entries, maxdeg)) if m > 1e-14]
        assert 2.5 not in fit.levels and len(shells) == 12
        assert fit.levels.tolist() == [n for n, _ in shells]
        assert fit.maxima.tolist() == [m for _, m in shells]
        slope, _, _ = line_fit(fit.levels, np.log(fit.maxima))
        assert fit.alpha2 == -slope
        assert fit.alpha2 == pytest.approx(-np.polyfit(fit.levels, np.log(fit.maxima), 1)[0], rel=1e-12)
        assert fit.c2 == max(m * math.exp(fit.alpha2 * n) for n, m in shells)

    def test_diagonal_decay_fit(self):
        entries, _ = self.matrix(2)
        diag = np.diag(entries)
        positive = self.DEGREES > 0
        shells = brute_shell_maxima(diag[positive], self.DEGREES[positive])
        ns, ys = np.array(shells[0]), np.log(shells[1])
        slope, intercept = np.polyfit(ns, ys, 1)
        r2 = 1.0 - np.sum((ys - (slope * ns + intercept)) ** 2) / np.sum((ys - ys.mean()) ** 2)
        alpha_hat, c_hat, r_squared = diagonal_decay_fit(entries, self.DEGREES)
        assert alpha_hat == pytest.approx(-slope, rel=1e-12)
        assert c_hat == pytest.approx(math.exp(intercept), rel=1e-12)
        assert r_squared == pytest.approx(r2, rel=1e-12)

    def test_diagonal_decay_fit_needs_two_levels(self):
        # a zero matrix (contrast 1) or one nonzero level has no decay to fit
        entries = np.zeros((self.DEGREES.size, self.DEGREES.size))
        assert all(math.isnan(v) for v in diagonal_decay_fit(entries, self.DEGREES))
        entries[-1, -1] = 0.5
        assert all(math.isnan(v) for v in diagonal_decay_fit(entries, self.DEGREES))


def arc_basis(theta, n_max):
    """Ordered normalized circle basis [1, cos, sin, ...] at theta, one row each."""
    rows = [np.full_like(theta, 1.0 / math.sqrt(2.0 * math.pi))]
    for j in range(1, n_max + 1):
        rows += [np.cos(j * theta) / math.sqrt(math.pi), np.sin(j * theta) / math.sqrt(math.pi)]
    return np.array(rows)


class TestArcOperators:
    # eight equispaced electrodes, one wide arc and one arc ending past 2 pi
    ARCS = ElectrodeConfig.equispaced(8).arcs + ((0.4, 5.4), (5.9, 6.9))

    @pytest.mark.parametrize("arc", ARCS)
    def test_against_gauss_legendre(self, arc):
        a, b = arc
        nodes, weights = np.polynomial.legendre.leggauss(256)
        theta = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        basis = arc_basis(theta, 32)
        w = 0.5 * (b - a) * weights
        np.testing.assert_allclose(arc_mode_integrals(arc, 32), basis @ w, rtol=0, atol=1e-13)
        x = _arc_multiplication_matrix(arc, 32)
        np.testing.assert_allclose(x, (basis * w) @ basis.T, rtol=0, atol=1e-13)


class TestNtd:
    def test_homogeneous_disk_inverse(self):
        prob = InclusionProblem(disk_shape(np.zeros(512)), 1.0, 8, 128)
        ntd = ntd_from_dtn(dtn_matrix(prob))
        expected = np.diag(np.repeat(1.0 / np.arange(1.0, 9.0), 2))
        np.testing.assert_allclose(ntd, expected, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        contrast=st.floats(0.2, 5.0).filter(lambda a: a == 1.0 or abs(a - 1.0) >= CONTRAST_GUARD),
        n_max=st.integers(1, 32),
    )
    def test_inverse_of_mean_zero_block(self, seed, contrast, n_max):
        # measured worst residual 1.8e-15 over 60 such draws
        shape = smooth_inclusion(np.random.default_rng(seed), center=(0.1, 0.05))
        dtn = dtn_matrix(InclusionProblem(shape, contrast, n_max, 192))
        ntd, block = ntd_from_dtn(dtn), dtn[1:, 1:]
        eye = np.eye(2 * n_max)
        assert np.abs(ntd @ block - eye).max() <= 1e-13
        assert np.abs(block @ ntd - eye).max() <= 1e-13

    def test_resolvent_identity_inequality(self):
        # N1 - N2 = N2 (L2 - L1) N1 holds exactly for truncated inverses
        rng = np.random.default_rng(4)
        for _ in range(5):
            d1 = dtn_matrix(InclusionProblem(smooth_inclusion(rng), 2.0, 8, 192))
            d2 = dtn_matrix(InclusionProblem(smooth_inclusion(rng), 2.0, 8, 192))
            n1, n2 = ntd_from_dtn(d1), ntd_from_dtn(d2)
            lhs = np.linalg.norm(n1 - n2, 2)
            identity = n2 @ (d2[1:, 1:] - d1[1:, 1:]) @ n1
            assert np.linalg.norm((n1 - n2) - identity, 2) <= 1e-10 * max(lhs, 1e-30)
            rhs = np.linalg.norm(n2, 2) * np.linalg.norm(d2[1:, 1:] - d1[1:, 1:], 2) * np.linalg.norm(n1, 2)
            assert lhs <= rhs * (1 + 1e-10)

    def test_uniform_bound_over_samples(self):
        rng = np.random.default_rng(5)
        norms = []
        for _ in range(8):
            dtn = dtn_matrix(InclusionProblem(smooth_inclusion(rng), 2.0, 8, 192))
            norms.append(np.linalg.norm(ntd_from_dtn(dtn), 2))
        fitted_c5 = max(norms)
        assert all(v <= fitted_c5 for v in norms)
        assert fitted_c5 < 10.0  # sanity: near the homogeneous value 1


class TestResistanceMatrix:
    def test_two_symmetric_electrodes_homogeneous(self):
        cfg = ElectrodeConfig(arcs=((0.0, 1.0), (math.pi, math.pi + 1.0)), impedances=(0.1, 0.1))
        prob = InclusionProblem(disk_shape(np.zeros(512)), 1.0, 16, 128)
        r_mat = resistance_matrix(ntd_from_dtn(dtn_matrix(prob)), cfg)
        assert np.abs(r_mat - r_mat.T).max() <= 1e-12
        assert np.abs(r_mat @ np.ones(2)).max() <= 1e-14
        assert r_mat[0, 1] < 0

    def test_unit_contrast_equals_homogeneous(self):
        rng = np.random.default_rng(6)
        cfg = ElectrodeConfig.equispaced()
        shape = smooth_inclusion(rng)
        r_hom = resistance_matrix(
            ntd_from_dtn(dtn_matrix(InclusionProblem(disk_shape(np.zeros(512)), 1.0, 16, 128))), cfg
        )
        r_inc = resistance_matrix(ntd_from_dtn(dtn_matrix(InclusionProblem(shape, 1.0, 16, 128))), cfg)
        assert np.abs(r_hom - r_inc).max() <= 1e-10

    def test_symmetry_and_kernel_on_random_shapes(self):
        rng = np.random.default_rng(7)
        cfg = ElectrodeConfig.equispaced()
        for _ in range(3):
            prob = InclusionProblem(smooth_inclusion(rng), 2.0, 16, 192)
            r_mat = resistance_matrix(ntd_from_dtn(dtn_matrix(prob)), cfg)
            assert np.abs(r_mat - r_mat.T).max() <= 1e-10
            assert np.abs(r_mat @ np.ones(cfg.count)).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_max=st.integers(1, 16),
        count=st.integers(2, 12),
        coverage=st.floats(0.1, 0.9),
        impedance=st.floats(0.01, 10.0),
    )
    def test_annihilates_constants(self, seed, n_max, count, coverage, impedance):
        # R 1 = 0 and 1^T R = 0 for any symmetric positive definite NtD block
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((2 * n_max, 2 * n_max))
        ntd = b @ b.T / (2 * n_max) + 0.01 * np.eye(2 * n_max)
        cfg = ElectrodeConfig.equispaced(count, coverage, impedance)
        r_mat = resistance_matrix(ntd, cfg)
        ones = np.ones(count)
        scale = np.abs(r_mat).max()
        assert np.abs(r_mat @ ones).max() <= 1e-13 * scale
        assert np.abs(ones @ r_mat).max() <= 1e-13 * scale

    def test_difference_controlled_by_ntd_difference(self):
        rng = np.random.default_rng(8)
        cfg = ElectrodeConfig.equispaced()
        mats, ntds = [], []
        for _ in range(5):
            prob = InclusionProblem(smooth_inclusion(rng), 2.0, 16, 192)
            ntd = ntd_from_dtn(dtn_matrix(prob))
            mats.append(resistance_matrix(ntd, cfg))
            ntds.append(ntd)
        ratios = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                dr = np.linalg.norm(mats[i] - mats[j], 2)
                dn = np.linalg.norm(ntds[i] - ntds[j], 2)
                if dn > 1e-14:
                    ratios.append(dr / dn)
        c_hat = max(ratios)
        assert np.isfinite(c_hat)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                dr = np.linalg.norm(mats[i] - mats[j], 2)
                dn = np.linalg.norm(ntds[i] - ntds[j], 2)
                assert dr <= c_hat * dn * (1 + 1e-12)

    def test_operators_built_once_and_bits_unchanged(self):
        # the shape-independent operators are cached and read-only; every
        # product runs in the order of the per-shape assembly kept here
        rng = np.random.default_rng(12)
        cfg, n_max = ElectrodeConfig.equispaced(5, 0.6, 0.3), 8
        size = 2 * n_max + 1
        operators = _electrode_operators(cfg, n_max)
        assert _electrode_operators(cfg, n_max) is operators
        assert not any(a.flags.writeable for a in operators)
        for _ in range(3):
            b = rng.standard_normal((2 * n_max, 2 * n_max))
            ntd = b @ b.T / (2 * n_max) + 0.01 * np.eye(2 * n_max)
            n_full = np.zeros((size, size))
            n_full[1:, 1:] = ntd
            lengths = cfg.lengths
            c_vecs = np.stack([arc_mode_integrals(arc, n_max) for arc in cfg.arcs])
            s_op = np.zeros((size, size))
            for l, arc in enumerate(cfg.arcs):
                x_l = _arc_multiplication_matrix(arc, n_max)
                s_op += (x_l - np.outer(c_vecs[l], c_vecs[l]) / lengths[l]) / cfg.impedances[l]
            w_mat = n_full @ np.linalg.inv(np.eye(size) + s_op @ n_full)
            r_pre = c_vecs @ w_mat @ c_vecs.T @ np.diag(1.0 / lengths)
            ones = np.ones(cfg.count)
            proj_in = np.eye(cfg.count) - np.outer(ones, ones) / cfg.count
            proj_out = np.eye(cfg.count) - np.outer(lengths, ones) / lengths.sum()
            want = proj_out @ r_pre @ proj_in
            got = resistance_matrix(ntd, cfg)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rejects_overlapping_arcs(self):
        with pytest.raises(ValueError):
            ElectrodeConfig(arcs=((0.0, 1.0), (0.5, 1.5)), impedances=(0.1, 0.1))
