import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from expinstab import spectral
from expinstab.spectral import (
    BasisSpec,
    enumerate_basis,
    fit_decay_constant,
    gamma_value,
    growth_count,
    interior_decay,
    multiplicity_general_n,
    sobolev_norm,
    sobolev_weight,
)

ALL_DOMAINS = spectral.DOMAIN_KINDS


@pytest.fixture(scope="module")
def gauss_4096():
    """4096-node Gauss-Legendre rule on [-1, 1], built once per module."""
    return roots_legendre(4096)


def spherical_harmonic_dim(j: int, N: int) -> int:
    """Independent oracle: dim of degree-j harmonics = C(N+j-1, j) - C(N+j-3, j-2)."""
    if j == 0:
        return 1
    if j == 1:
        return N
    return math.comb(N + j - 1, j) - math.comb(N + j - 3, j - 2)


class TestEnumeration:
    def test_full_circle_constant_only(self):
        elems = enumerate_basis(BasisSpec(spectral.FULL_CIRCLE, n_max=0))
        assert len(elems) == 1 and elems[0].degree == 0.0

    def test_full_circle_n3_has_seven(self):
        elems = enumerate_basis(BasisSpec(spectral.FULL_CIRCLE, n_max=3))
        assert len(elems) == 7
        assert [e.degree for e in elems] == [0, 1, 1, 2, 2, 3, 3]

    def test_slit_disk_half_integer_degrees(self):
        elems = enumerate_basis(BasisSpec(spectral.SLIT_DISK_NEUMANN, n_max=2))
        assert [e.degree for e in elems] == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_degrees_nondecreasing_everywhere(self):
        for kind in ALL_DOMAINS:
            degrees = [e.degree for e in enumerate_basis(BasisSpec(kind, n_max=9))]
            assert degrees == sorted(degrees)

    def test_growth_count_bound(self):
        # at most 2(1+n) elements of degree <= n in the plane
        for kind in ALL_DOMAINS:
            spec = BasisSpec(kind, n_max=24)
            for n in range(0, 25, 4):
                assert growth_count(spec, n) <= 2 * (1 + n)


class TestMultiplicity:
    def test_degree_zero_any_dimension(self):
        for N in (2, 3, 5, 9):
            assert multiplicity_general_n(0, N) == 1

    @pytest.mark.parametrize("N,j", [(3, 2), (3, 5), (4, 3), (5, 2), (2, 7)])
    def test_matches_harmonic_dimension(self, N, j):
        assert multiplicity_general_n(j, N) == spherical_harmonic_dim(j, N)

    def test_planar_case_is_two(self):
        assert multiplicity_general_n(5, 2) == 2


class TestGamma:
    def test_dirichlet_weights(self):
        elems = enumerate_basis(BasisSpec(spectral.FULL_CIRCLE, n_max=7))
        assert gamma_value(elems[0], spectral.DIRICHLET_TRACE) == 1.0
        degree7 = [e for e in elems if e.degree == 7][0]
        assert gamma_value(degree7, spectral.DIRICHLET_TRACE) == 8.0

    def test_neumann_weights(self):
        elems = enumerate_basis(BasisSpec(spectral.FULL_CIRCLE, n_max=3))
        degree3 = [e for e in elems if e.degree == 3][0]
        assert gamma_value(degree3, spectral.NEUMANN_TRACE) == 3.0
        with pytest.raises(ValueError):
            gamma_value(elems[0], spectral.NEUMANN_TRACE)


def harmonic_extension_energy(j: int, radial_points=600, angular_points=512) -> float:
    """Oracle: Dirichlet energy of the harmonic extension r^|j| cos(j theta)
    of a unit-L^2-mass circle mode, by polar quadrature."""
    scale = 1.0 / math.sqrt(math.pi) if j else 1.0 / math.sqrt(2.0 * math.pi)
    r = (np.arange(radial_points) + 0.5) / radial_points
    theta = 2.0 * np.pi * np.arange(angular_points) / angular_points
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    if j == 0:
        return 0.0
    u_r = j * rr ** (j - 1) * np.cos(j * tt) * scale
    u_t = -j * rr ** (j - 1) * np.sin(j * tt) * scale
    grad_sq = u_r**2 + u_t**2
    return float(np.sum(grad_sq * rr) * (1.0 / radial_points) * (2.0 * np.pi / angular_points))


class TestSobolevNorms:
    @pytest.mark.parametrize("j", [0, 1, 2, 5, 9])
    def test_h_half_matches_extension_energy(self, j):
        # squared H^{1/2} norm of a unit mode = extension energy + L^2 term
        energy = harmonic_extension_energy(j)
        expected = energy + 1.0
        assert sobolev_norm([j], [1.0], 0.5) ** 2 == pytest.approx(expected, rel=1e-3)
        assert sobolev_norm([j], [1.0], 0.5) ** 2 == pytest.approx(1.0 + j, abs=1e-12)

    def test_constant_h_minus_half_is_l2(self):
        assert sobolev_norm([0], [0.7], -0.5) == pytest.approx(0.7)

    def test_multiplier_ordering(self):
        rng = np.random.default_rng(0)
        freqs = np.arange(1, 40)
        coeffs = rng.normal(size=freqs.size)
        low = sobolev_norm(freqs, coeffs, -0.5)
        mid = sobolev_norm(freqs, coeffs, 0.0)
        high = sobolev_norm(freqs, coeffs, 0.5)
        assert low <= mid <= high

    def test_weight_values(self):
        assert sobolev_weight(np.array([0, 3, -3]), 0.5) == pytest.approx([1, 4, 4])
        assert sobolev_weight(np.array([0, 4, -4]), -0.5) == pytest.approx([1, 0.25, 0.25])


def laplacian_residual(elt, x, y, h=1e-4) -> float:
    u = elt.interior
    lap = (
        u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4.0 * u(x, y)
    ) / h**2
    return float(np.abs(lap).max())


class TestEigenfunctions:
    def test_harmonicity_all_domains(self):
        # discrete Laplacian residual <= 1e-6 for degrees <= 10
        rng = np.random.default_rng(3)
        for kind in ALL_DOMAINS:
            elems = [e for e in enumerate_basis(BasisSpec(kind, n_max=10))]
            # interior points away from the slit/diameter and the boundary
            theta = rng.uniform(0.15, 2 * np.pi - 0.15, 40)
            if kind in (spectral.HALF_DISK_NEUMANN, spectral.HALF_DISK_DIRICHLET):
                theta = rng.uniform(0.15, np.pi - 0.15, 40)
            radius = rng.uniform(0.15, 0.6, 40)
            x, y = radius * np.cos(theta), radius * np.sin(theta)
            for e in elems:
                assert laplacian_residual(e, x, y) <= 1e-6, (kind, e.degree)

    def test_half_disk_boundary_conditions(self):
        x = np.linspace(-0.8, 0.8, 9)
        neu = enumerate_basis(BasisSpec(spectral.HALF_DISK_NEUMANN, n_max=6))
        h = 1e-5
        for e in neu:
            dy = (e.interior(x, np.full_like(x, h)) - e.interior(x, np.zeros_like(x))) / h
            assert np.abs(dy).max() <= 1e-3
        dir_ = enumerate_basis(BasisSpec(spectral.HALF_DISK_DIRICHLET, n_max=6))
        for e in dir_:
            assert np.abs(e.interior(x, np.zeros_like(x))).max() <= 1e-12

    def test_slit_disk_boundary_conditions(self):
        x = np.linspace(0.1, 0.8, 8)
        h = 1e-6
        neu = enumerate_basis(BasisSpec(spectral.SLIT_DISK_NEUMANN, n_max=4))
        for e in neu:
            # one-sided normal derivatives on both slit sides vanish like O(h)
            up = (e.interior(x, np.full_like(x, 2 * h)) - e.interior(x, np.full_like(x, h))) / h
            dn = (e.interior(x, np.full_like(x, -h)) - e.interior(x, np.full_like(x, -2 * h))) / h
            assert np.abs(up).max() <= 1e-2
            assert np.abs(dn).max() <= 1e-2
        dirichlet = enumerate_basis(BasisSpec(spectral.SLIT_DISK_DIRICHLET, n_max=4))
        for e in dirichlet:
            assert np.abs(e.interior(x, np.full_like(x, h))).max() <= 1e-2
            assert np.abs(e.interior(x, np.full_like(x, -h))).max() <= 1e-2

    def test_trace_orthonormality(self, gauss_4096):
        # Gram matrix within 1e-8 of the identity at 4096 quadrature points
        nodes, weights = gauss_4096
        for kind in ALL_DOMAINS:
            elems = enumerate_basis(BasisSpec(kind, n_max=12))
            if kind == spectral.FULL_CIRCLE:
                theta = 2 * np.pi * np.arange(4096) / 4096
                w = np.full(4096, 2 * np.pi / 4096)
            else:
                hi = np.pi if kind.startswith("half") else 2 * np.pi
                theta = 0.5 * hi * (nodes + 1.0)
                w = 0.5 * hi * weights
            traces = np.stack([e.trace(theta) for e in elems])
            gram = (traces * w) @ traces.T
            assert np.abs(gram - np.eye(len(elems))).max() <= 1e-8, kind


class TestInteriorDecay:
    def test_constant_on_disk(self):
        elt = enumerate_basis(BasisSpec(spectral.FULL_CIRCLE, n_max=0))[0]
        r0 = 0.6
        # H^1 norm of the constant 1/sqrt(2 pi) on B(0, r0)
        expected = math.sqrt(math.pi * r0**2 / (2.0 * math.pi))
        assert interior_decay(elt, r0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("r0", [0.5, 0.9])
    def test_closed_form_matches_angular_quadrature(self, gauss_4096, r0):
        # oracle: radial integrals in closed form, int v^2 and int (v')^2 by
        # 4096-node Gauss-Legendre over the accessible arc
        nodes, weights = gauss_4096
        for kind in ALL_DOMAINS:
            hi = np.pi if kind.startswith("half") else 2 * np.pi
            theta = 0.5 * hi * (nodes + 1.0)
            w = 0.5 * hi * weights
            for e in enumerate_basis(BasisSpec(kind, n_max=150)):
                g, amp = e.degree, e.trace_scale
                if e.parity == "cos":
                    dv = -g * amp * np.sin(g * theta)
                elif e.parity == "sin":
                    dv = g * amp * np.cos(g * theta)
                else:
                    dv = np.zeros_like(theta)
                norm_sq = float(np.sum(w * e.trace(theta) ** 2))
                dnorm_sq = float(np.sum(w * dv**2))
                mass = r0 ** (2 * g + 2) / (2 * g + 2) * norm_sq
                grad = 0.0 if g == 0 else r0 ** (2 * g) / (2 * g) * (g**2 * norm_sq + dnorm_sq)
                expected = math.sqrt(grad + mass)
                assert interior_decay(e, r0) == pytest.approx(expected, rel=1e-12, abs=0.0), (kind, g)

    def test_ratio_tends_to_r0(self):
        r0 = 0.8
        spec = BasisSpec(spectral.FULL_CIRCLE, n_max=41)
        elems = {e.degree: e for e in enumerate_basis(spec) if e.parity == "cos"}
        ratio = interior_decay(elems[41], r0) / interior_decay(elems[40], r0)
        assert ratio == pytest.approx(r0, rel=0.02)

    def test_slit_half_degree_decays_slower_than_disk_degree_one(self):
        r0 = 0.5
        slit = enumerate_basis(BasisSpec(spectral.SLIT_DISK_DIRICHLET, n_max=1))[0]
        assert slit.degree == 0.5
        disk = [e for e in enumerate_basis(BasisSpec(spectral.FULL_CIRCLE, n_max=1)) if e.degree == 1][0]
        assert interior_decay(slit, r0) > interior_decay(disk, r0)

    def test_exponential_bound_with_fitted_constant(self):
        for kind in ALL_DOMAINS:
            spec = BasisSpec(kind, n_max=20)
            r0 = 0.7
            c = fit_decay_constant(spec, r0)
            alpha = math.log(1.0 / r0)
            for e in enumerate_basis(spec):
                assert interior_decay(e, r0) <= c * math.exp(-alpha * e.degree) * (1 + 1e-12)
