import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from expinstab import conductivity, scattering, shapes, special
from expinstab.conductivity import fit_envelope, fourier_degrees
from expinstab.scattering import (
    disk_mode_coefficients,
    ObstacleProblem,
    farfield_disk,
    farfield_numeric,
    hankel_bound_check,
    _basis_traces,
    _kernel_matrices,
    _log_weights,
    _quadrature_tables,
    _upper_jy01,
    reciprocity_residual,
    solve_scattering,
)
from expinstab.spectral import enumerate_basis

FIRST_J0_ZERO = 2.404825557695773


def obstacle(values, r=1.0):
    prof = shapes.RadialProfile(np.asarray(values, dtype=float), base_radius=r)
    return shapes.Shape(shapes.RADIAL_SUBGRAPH, prof)


def smooth_obstacle(rng, cap=0.3, modes=5, grid=2048):
    theta = 2 * np.pi * np.arange(grid) / grid
    vals = np.zeros(grid)
    for j in range(1, modes + 1):
        vals += rng.normal() * np.cos(j * theta) + rng.normal() * np.sin(j * theta)
    vals -= vals.min()
    vals *= cap / max(vals.max(), 1e-30)
    return obstacle(vals)


class TestDiskFarField:
    def test_zero_mode_vanishes_at_bessel_zero(self):
        # wave parameter tuned so J_0(k R) = 0: the zeroth coefficient dies
        radius = 1.0
        a = FIRST_J0_ZERO**2
        mat = farfield_disk(radius, a, 6)
        assert abs(mat[0, 0]) <= 1e-10
        assert abs(mat[1, 1]) > 1e-3

    def test_reciprocity_of_reconstructed_pattern(self):
        mat = farfield_disk(1.0, 4.0, 10)
        angles = 2 * np.pi * np.arange(64) / 64
        elements = enumerate_basis(10)
        traces = np.stack([e.trace(angles) for e in elements])
        grid = traces.T @ mat @ traces
        assert reciprocity_residual(grid) <= 1e-13

    def test_matches_projection_of_series_far_field(self):
        # quadrature of the series-evaluated pattern against the basis traces
        # reproduces the closed-form coefficient matrix
        from expinstab.scattering import _project_far_field

        radius, a, n_max = 1.0, 4.0, 10
        k = math.sqrt(a)
        c = disk_mode_coefficients(radius, a, 30)
        front = math.sqrt(2.0 / (math.pi * k)) * np.exp(-1j * math.pi / 4.0)
        angles = 2 * np.pi * np.arange(128) / 128
        grid = front * sum(
            c[abs(n)] * np.exp(1j * n * (angles[:, None] - angles[None, :]))
            for n in range(-30, 31)
        )
        projected = _project_far_field(grid, n_max)
        ref = farfield_disk(radius, a, n_max)
        assert np.abs(projected - ref).max() <= 1e-12

    def test_mode_decay_follows_hankel_bound(self):
        # |b_nn| <= 2 pi |C_k| |J_n| C7 (e r/2)^n (n-1)^-(n-1), n >= 2
        radius, a = 1.0, 4.0
        k = math.sqrt(a)
        n_max = 20
        mat = farfield_disk(radius, a, n_max)
        c7 = hankel_bound_check(np.arange(0, n_max + 1), np.array([k * radius]))
        front = 2 * math.pi * math.sqrt(2.0 / (math.pi * k))
        j_seq = special.bessel_j_sequence(n_max, np.array([k * radius]))[:, 0]
        for n in range(2, n_max + 1):
            bound = front * abs(j_seq[n]) * c7 * (math.e * k * radius / 2) ** n * (n - 1) ** (-(n - 1))
            assert abs(mat[2 * n - 1, 2 * n - 1]) <= bound * (1 + 1e-9)


class TestHankelBound:
    def test_single_constant_on_grid(self):
        n_values = np.arange(0, 61)
        r_values = np.linspace(2.0, 8.0, 31)
        c7 = hankel_bound_check(n_values, r_values)
        assert np.isfinite(c7) and c7 > 0
        h = special.hankel1_sequence(60, r_values)
        for n in n_values:
            inv = 1.0 / np.abs(h[n])
            if n <= 1:
                assert (inv <= c7 * (1 + 1e-12)).all()
            else:
                env = (math.e * r_values / 2) ** n * float(n - 1) ** (-(n - 1))
                assert (inv <= c7 * env * (1 + 1e-12)).all()

    def test_flat_bound_low_orders(self):
        c7 = hankel_bound_check(np.array([0, 1]), np.linspace(2, 8, 7))
        h = special.hankel1_sequence(1, np.linspace(2, 8, 7))
        assert (1.0 / np.abs(h) <= c7 * (1 + 1e-12)).all()

    def test_monotone_under_range_shrink(self):
        wide = hankel_bound_check(np.arange(0, 41), np.linspace(2, 8, 25))
        narrow = hankel_bound_check(np.arange(0, 41), np.linspace(2, 4, 9))
        assert narrow <= wide


class TestNumericFarField:
    def test_rejects_obstacle_reaching_past_its_domain(self):
        vals = np.zeros(64)
        vals[5] = 0.2
        centred = shapes.Shape(shapes.RADIAL_SUBGRAPH, shapes.RadialProfile(vals, base_radius=1.2))
        ObstacleProblem(centred, (1.0,), 4, 64, 16)  # reaches 1.4
        # |center| 0.5 + base radius 1.2 + bump 0.2
        off = shapes.RadialProfile(vals, base_radius=1.2, center=(0.3, 0.4))
        with pytest.raises(ValueError, match=r"^obstacle reaches radius 1\.9000 > 1\.8$"):
            ObstacleProblem(shapes.Shape(shapes.RADIAL_SUBGRAPH, off), (1.0,), 4, 64, 16)

    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_constant_profile_matches_disk(self, a):
        prob = ObstacleProblem(obstacle(np.zeros(2048)), (a,), 12, 192, 48)
        (num,), _ = farfield_numeric(prob)
        ref = farfield_disk(1.0, a, 12)
        assert np.abs(num - ref).max() <= 1e-6

    @settings(max_examples=30, deadline=None)
    @given(radius=st.floats(0.3, 1.5), a=st.floats(0.5, 9.0))
    def test_disk_at_random_radius_and_wave_parameter(self, radius, a):
        prob = ObstacleProblem(obstacle(np.zeros(64), r=radius), (a,), 8, 64, 32)
        (num,), _ = farfield_numeric(prob)
        ref = farfield_disk(radius, a, 8)
        assert np.abs(num - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_reciprocity_on_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            prob = ObstacleProblem(smooth_obstacle(rng), (1.0,), 10, 192, 48)
            _, (residual,) = farfield_numeric(prob)
            assert residual <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        cap=st.floats(0.05, 0.4),
        radius=st.floats(0.5, 1.2),
        a=st.floats(0.5, 9.0),
    )
    def test_reciprocity_property(self, coeffs, cap, radius, a):
        # A(xhat, omega) = A(-omega, -xhat) on random three-mode obstacles
        theta = 2 * np.pi * np.arange(256) / 256
        vals = sum(c * np.cos(j * theta) + s * np.sin(j * theta)
                   for j, c, s in zip((1, 2, 3), coeffs[::2], coeffs[1::2]))
        vals = vals - vals.min()
        vals *= cap / max(vals.max(), 1e-30)
        prob = ObstacleProblem(obstacle(vals, r=radius), (a,), 6, 64, 16)
        _, residuals = farfield_numeric(prob)
        assert residuals.max() <= 1e-10

    def test_coefficient_decay_positive_rate(self):
        rng = np.random.default_rng(1)
        prob = ObstacleProblem(smooth_obstacle(rng), (4.0,), 14, 256, 64)
        (mat,), _ = farfield_numeric(prob)
        degrees = fourier_degrees(14)
        fit = fit_envelope(np.abs(mat), degrees)
        assert fit.alpha2 > 0
        maxdeg = np.maximum.outer(degrees, degrees)
        violations = np.abs(mat) > fit.c2 * np.exp(-fit.alpha2 * maxdeg) * (1 + 1e-12)
        assert violations.sum() == 0

    def test_scattered_field_uniform_decay(self):
        # u^s(rho xhat) = e^{ik rho} rho^(-1/2) A(xhat) + O(rho^(-3/2)), uniformly
        # in xhat: the relative error of the far-field term halves as rho doubles
        angles = 2 * np.pi * np.arange(24) / 24
        for a in (1.0, 4.0):
            sol = solve_scattering(smooth_obstacle(np.random.default_rng(2)), a, 192, 8)
            far = sol.far_field_grid(angles)[:, 0]
            errors = []
            for rho in (4.0, 8.0, 16.0, 32.0):
                pts = rho * np.column_stack([np.cos(angles), np.sin(angles)])
                scaled = math.sqrt(rho) * np.exp(-1j * sol.k * rho) * sol.scattered_at(pts, 0)
                errors.append(np.abs(scaled - far).max() / np.abs(far).max())
                assert errors[-1] <= 1.2 / rho, (a, rho)
            for error, halved in zip(errors, errors[1:]):
                assert 1.8 <= error / halved <= 2.2, (a, errors)

    @pytest.mark.parametrize("a", [1.0, 4.0])
    @pytest.mark.parametrize("radius", [0.7, 1.0])
    def test_scattered_field_matches_disk_series(self, radius, a):
        # u^s = sum_n i^n c_n H_n(k rho) e^{i n (theta - omega)} with c_{-n} = c_n;
        # at rho = 8 and k = 2 the kernel's Bessel functions take the asymptotic branch
        k = math.sqrt(a)
        sol = solve_scattering(obstacle(np.zeros(256), r=radius), a, 64, 16)
        c = disk_mode_coefficients(radius, a, 30)
        n = np.arange(1, 31)
        theta = 2 * np.pi * np.arange(24) / 24
        for index in (0, 5):
            phase = np.cos(np.outer(theta - sol.directions[index], n))
            for rho in (1.5, 3.0, 8.0):
                h = sp.hankel1(np.arange(31), k * rho)
                exact = c[0] * h[0] + 2.0 * (phase * (1j**n * c[1:] * h[1:])).sum(axis=1)
                got = sol.scattered_at(rho * np.column_stack([np.cos(theta), np.sin(theta)]), index)
                assert np.abs(got - exact).max() <= 1e-10 * np.abs(exact).max()


def plain_geometry(nodes):
    """|x_i - y_j| and nu(y_j).(x_i - y_j) at [i, j] from plain numpy
    expressions, in shapes.pair_geometry's order of operations."""
    dx = nodes.points[:, None, 0] - nodes.points[None, :, 0]
    dy = nodes.points[:, None, 1] - nodes.points[None, :, 1]
    nu_dot = nodes.normals[None, :, 0] * dx + nodes.normals[None, :, 1] * dy
    return np.sqrt(dx * dx + dy * dy), nu_dot


def full_grid_kernel(nodes, k):
    """The combined-field kernel (coupling eta = k) as first written: Bessel
    functions on the whole k*r grid, the log factor from the coordinate
    differences and the log weights gathered per call."""
    eta = k
    n = nodes.jac.size
    t = 2.0 * np.pi * np.arange(n) / n
    r, nu_dot = plain_geometry(nodes)
    np.fill_diagonal(r, 1.0)
    j0, j1, y0, y1 = special.jy01_kernel(k * r)
    jac_row = nodes.jac[None, :]
    kd = (1j * k / 4.0) * (j1 + 1j * y1) * (nu_dot / r) * jac_row
    kd1 = -(k / (4.0 * math.pi)) * j1 * (nu_dot / r) * jac_row
    ks = (1j / 4.0) * (j0 + 1j * y0) * jac_row
    ks1 = -(1.0 / (4.0 * math.pi)) * j0 * jac_row
    k1 = kd1 - 1j * eta * ks1
    k_full = kd - 1j * eta * ks
    dcoord = t[:, None] - t[None, :]
    log_fac = np.log(4.0 * np.sin(0.5 * dcoord) ** 2, where=~np.eye(n, dtype=bool),
                     out=np.zeros((n, n)))
    k2 = k_full - k1 * log_fac
    kd2_diag = -nodes.curvature * nodes.jac / (4.0 * math.pi)
    ks2_diag = (
        (1j / 4.0)
        - special.EULER_GAMMA / (2.0 * math.pi)
        - np.log(0.5 * k * nodes.jac) / (2.0 * math.pi)
    ) * nodes.jac
    np.fill_diagonal(k2, kd2_diag - 1j * eta * ks2_diag)
    np.fill_diagonal(k1, 1j * eta * nodes.jac / (4.0 * math.pi))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return _log_weights(n)[idx] * k1 + (2.0 * np.pi / n) * k2


class TestKernelBitIdentity:
    """The mirrored Bessel grid, the cached quadrature tables and the real
    phase arguments change no bit of the solver's arrays."""

    @staticmethod
    def bumpy_star():
        theta = 2 * np.pi * np.arange(512) / 512
        values = 0.2 * (1 + np.cos(3 * theta)) + 0.08 * (1 + np.sin(7 * theta + 0.4))
        return obstacle(values)

    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_kernel_equals_full_grid_form(self, a):
        k = math.sqrt(a)
        nodes = shapes.boundary_nodes(self.bumpy_star().profile, 64)
        kernel = _kernel_matrices(nodes, k)
        assert kernel.flags.f_contiguous  # LAPACK factors it without a transposing copy
        assert np.array_equal(kernel, full_grid_kernel(nodes, k))
        r, _ = plain_geometry(nodes)
        np.fill_diagonal(r, 1.0)
        mirror = _quadrature_tables(64)[3]
        for ours, full in zip(_upper_jy01(r, k), special.jy01_kernel(k * r)):
            assert np.array_equal(ours[mirror], full)

    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_phases_equal_complex_gemm_form(self, a):
        k = math.sqrt(a)
        shape = self.bumpy_star()
        sol = solve_scattering(shape, a, 64, 16)
        nodes = sol.nodes
        dirs = np.column_stack([np.cos(sol.directions), np.sin(sol.directions)])
        system = 0.5 * np.eye(64) + full_grid_kernel(nodes, k)
        rhs = -np.exp(1j * k * nodes.points @ dirs.T)
        assert np.array_equal(sol.densities, np.linalg.solve(system, rhs))

        angles = 2 * np.pi * np.arange(24) / 24
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        phase = np.exp(-1j * k * xhat @ nodes.points.T)
        front = np.exp(1j * math.pi / 4.0) / math.sqrt(8.0 * math.pi * k)
        kernel = front * (-1j * k * (xhat @ nodes.normals.T) - 1j * k) * phase
        weights = (2.0 * np.pi / 64) * nodes.jac
        expected = (kernel * weights[None, :]) @ sol.densities
        assert np.array_equal(sol.far_field_grid(angles), expected)

    @staticmethod
    def same_bits(got, want):
        # the kernel is a Fortran-ordered view; a C-ordered copy keeps its bits
        return np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))

    def test_kept_arrays_keep_node_counts_and_threads_apart(self):
        # each thread keeps its kernel arrays between solves: a call at another
        # node count in between gives the same bits, and so do two threads at once
        rng = np.random.default_rng(13)
        obstacles = [self.bumpy_star()] + [smooth_obstacle(rng, cap=0.12) for _ in range(2)]
        cases = [(shapes.boundary_nodes(o.profile, 192), math.sqrt(a))
                 for o in obstacles for a in (1.0, 4.0)]
        want = [full_grid_kernel(nodes, k) for nodes, k in cases]
        small = shapes.boundary_nodes(obstacles[0].profile, 64)
        for (nodes, k), full in zip(cases, want):
            first = _kernel_matrices(nodes, k).copy()
            _kernel_matrices(small, k)
            assert self.same_bits(first, full)
            assert self.same_bits(_kernel_matrices(nodes, k), full)

        start = threading.Barrier(2)

        def build_all(order):
            start.wait()
            return [_kernel_matrices(nodes, k).copy() for nodes, k in (cases[i] for i in order)]

        forwards, backwards = list(range(len(cases))), list(range(len(cases)))[::-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = [pool.submit(build_all, order) for order in (forwards, backwards)]
                got = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for order, kernels in zip((forwards, backwards), got):
            assert all(self.same_bits(kernel, want[i]) for i, kernel in zip(order, kernels))

    def test_repeated_solve_allocates_no_kernel_arrays(self):
        # a kernel built in fresh arrays allocates about 4.7 MB per 192-node
        # solve at 48 directions; with the kernel arrays kept, a repeated solve
        # allocates about 0.5 MB, for its right-hand sides
        shape = self.bumpy_star()
        solve_scattering(shape, 4.0, 192, 48)
        tracemalloc.start()
        try:
            solve_scattering(shape, 4.0, 192, 48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 4.5e6

    def test_quadrature_tables_are_cached_and_read_only(self):
        tables = _quadrature_tables(64)
        assert _quadrature_tables(64) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0
        with pytest.raises(ValueError, match="even"):
            _quadrature_tables(63)

    def test_kernel_keeps_three_planes_and_a_circulant_weight_view(self):
        n = 192
        nodes = shapes.boundary_nodes(self.bumpy_star().profile, n)
        _kernel_matrices(nodes, 2.0)
        # this thread's kept float planes, read without making any
        assert vars(conductivity._workspace)["kernel_planes"].size == 3 * n * n
        _, r_weights, _, _ = _quadrature_tables(n)
        assert r_weights.base.size == 2 * n
        assert np.shares_memory(r_weights, r_weights.base)
        assert not r_weights.base.flags.writeable
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        assert np.array_equal(r_weights.view(np.uint64), _log_weights(n)[idx].view(np.uint64))
        assert not r_weights.flags.writeable
        with pytest.raises(ValueError):
            r_weights[1, 0] = 0.0

    def test_projection_reads_one_cached_trace_table(self, monkeypatch):
        calls = []

        def counted(n_max):
            calls.append(n_max)
            return enumerate_basis(n_max)

        monkeypatch.setattr(scattering, "enumerate_basis", counted)
        _basis_traces.cache_clear()
        prob = ObstacleProblem(self.bumpy_star(), (1.0, 4.0), 8, 64, 16)
        got, _ = farfield_numeric(prob)
        farfield_numeric(prob)
        assert len(calls) == 1
        assert not _basis_traces(8, 16).flags.writeable
        # the traces built per solve, as the projection once did, give the same bits
        w = 2 * np.pi / 16
        elements = enumerate_basis(8)
        for a, mat in zip(prob.wave_params, got):
            sol = solve_scattering(prob.shape, a, 64, 16)
            traces = np.stack([e.trace(sol.directions) for e in elements])
            assert np.array_equal(mat, (w * w) * (traces @ sol.far_field_grid() @ traces.T))


class TestL2Norm:
    def test_matches_direct_double_quadrature(self):
        # Parseval: the l^2 norm of b_kl is the L^2(S^1 x S^1) norm of the pattern
        rng = np.random.default_rng(3)
        prob = ObstacleProblem(smooth_obstacle(rng), (4.0,), 16, 256, 96)
        sol = solve_scattering(prob.shape, 4.0, 256, 96)
        grid = sol.far_field_grid()
        w = 2 * np.pi / 96
        direct = math.sqrt(float(np.sum(np.abs(grid) ** 2)) * w * w)
        (mat,), _ = farfield_numeric(prob)
        assert np.linalg.norm(mat) == pytest.approx(direct, abs=1e-6)
