import math

import numpy as np
import pytest

from expinstab import shapes
from expinstab.conductivity import (
    ElectrodeConfig,
    InclusionProblem,
    delta_dtn_weighted,
    diagonal_decay_fit,
    dtn_concentric,
    dtn_numeric,
    fit_envelope,
    fourier_degrees,
    ntd_from_dtn,
    resistance_matrix,
)
from expinstab.shapes import RadialProfile, Shape


def disk_shape(values, r=0.5, cap=0.25):
    prof = RadialProfile(np.asarray(values, dtype=float), base_radius=r, amplitude_cap=cap)
    return Shape(shapes.RADIAL_SUBGRAPH, prof)


def smooth_inclusion(rng, r=0.5, cap=0.1, modes=6, grid=2048):
    theta = 2 * np.pi * np.arange(grid) / grid
    vals = np.zeros(grid)
    for j in range(1, modes + 1):
        vals += rng.normal() * np.cos(j * theta) + rng.normal() * np.sin(j * theta)
    vals -= vals.min()
    vals *= cap / max(vals.max(), 1e-30)
    return disk_shape(vals, r=r)


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


class TestDtnNumeric:
    def test_concentric_oracle(self):
        prob = InclusionProblem(disk_shape(np.zeros(2048)), 2.0, 8, 256)
        mat = dtn_numeric(prob)
        lam = dtn_concentric(0.5, 2.0, 8)
        expected = np.concatenate([[lam[0]], np.repeat(lam[1:], 2)])
        rel = np.abs(np.diag(mat)[1:] - expected[1:]) / np.abs(expected[1:])
        assert rel.max() <= 1e-10
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() <= 1e-10

    def test_unit_contrast_returns_homogeneous_matrix(self):
        rng = np.random.default_rng(0)
        prob = InclusionProblem(smooth_inclusion(rng), 1.0, 6, 128)
        mat = dtn_numeric(prob)
        expected = np.diag(np.concatenate([[0.0], np.repeat(np.arange(1.0, 7.0), 2)]))
        np.testing.assert_allclose(mat, expected)

    def test_symmetry_on_random_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(4):
            prob = InclusionProblem(smooth_inclusion(rng), 2.0, 12, 384)
            mat = dtn_numeric(prob)
            assert np.abs(mat - mat.T).max() <= 1e-6

    def test_positive_semidefinite_mean_zero(self):
        rng = np.random.default_rng(2)
        prob = InclusionProblem(smooth_inclusion(rng), 2.0, 10, 256)
        mat = dtn_numeric(prob)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs.min() >= -1e-8

    def test_contrast_guard(self):
        with pytest.raises(ValueError):
            InclusionProblem(disk_shape(np.zeros(256)), 1.0 + 1e-8, 4, 64)

    def test_rejects_oversized_inclusion(self):
        with pytest.raises(ValueError):
            InclusionProblem(disk_shape(np.full(256, 0.4), r=0.5, cap=0.5), 2.0, 4, 64)


class TestWeightedDifference:
    def test_concentric_diagonal_closed_form(self):
        rho, a = 0.5, 2.0
        prob = InclusionProblem(disk_shape(np.zeros(2048)), a, 10, 256)
        op = delta_dtn_weighted(prob)
        mu = (1.0 - a) / (1.0 + a)
        diag = np.abs(np.diag(op.entries))
        for n in range(1, 11):
            expected = 2 * n * abs(mu) * rho ** (2 * n) / ((1 + n) * (1 + mu * rho ** (2 * n)))
            assert diag[2 * n - 1] == pytest.approx(expected, rel=1e-8)
            assert diag[2 * n] == pytest.approx(expected, rel=1e-8)

    def test_unit_contrast_zero_matrix(self):
        prob = InclusionProblem(disk_shape(np.zeros(512)), 1.0, 6, 128)
        op = delta_dtn_weighted(prob)
        assert not op.entries.any()

    @pytest.mark.parametrize("rho", [0.5, 0.7])
    def test_fitted_decay_matches_two_log_inv_rho(self, rho):
        prob = InclusionProblem(disk_shape(np.zeros(2048), r=rho), 2.0, 16, 256)
        op = delta_dtn_weighted(prob)
        alpha_hat, _, r2 = diagonal_decay_fit(op)
        target = 2.0 * math.log(1.0 / rho)
        assert abs(alpha_hat - target) / target <= 0.10
        assert r2 > 0.99

    def test_envelope_exact_after_fit(self):
        rng = np.random.default_rng(3)
        prob = InclusionProblem(smooth_inclusion(rng), 2.0, 12, 256)
        op = delta_dtn_weighted(prob)
        maxdeg = np.maximum.outer(op.degrees, op.degrees)
        violations = np.abs(op.entries) > op.c2 * np.exp(-op.alpha2 * maxdeg) * (1 + 1e-12)
        assert violations.sum() == 0
        assert op.alpha2 > 0

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


class TestNtd:
    def test_homogeneous_disk_inverse(self):
        prob = InclusionProblem(disk_shape(np.zeros(512)), 1.0, 8, 128)
        ntd = ntd_from_dtn(dtn_numeric(prob))
        expected = np.diag(np.repeat(1.0 / np.arange(1.0, 9.0), 2))
        np.testing.assert_allclose(ntd, expected, atol=1e-12)

    def test_resolvent_identity_inequality(self):
        # N1 - N2 = N2 (L2 - L1) N1 holds exactly for truncated inverses
        rng = np.random.default_rng(4)
        for _ in range(5):
            d1 = dtn_numeric(InclusionProblem(smooth_inclusion(rng), 2.0, 8, 192))
            d2 = dtn_numeric(InclusionProblem(smooth_inclusion(rng), 2.0, 8, 192))
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
            dtn = dtn_numeric(InclusionProblem(smooth_inclusion(rng), 2.0, 8, 192))
            norms.append(np.linalg.norm(ntd_from_dtn(dtn), 2))
        fitted_c5 = max(norms)
        assert all(v <= fitted_c5 for v in norms)
        assert fitted_c5 < 10.0  # sanity: near the homogeneous value 1


class TestResistanceMatrix:
    def test_two_symmetric_electrodes_homogeneous(self):
        cfg = ElectrodeConfig(arcs=((0.0, 1.0), (math.pi, math.pi + 1.0)), impedances=(0.1, 0.1))
        prob = InclusionProblem(disk_shape(np.zeros(512)), 1.0, 16, 128)
        r_mat = resistance_matrix(prob, cfg)
        assert np.abs(r_mat - r_mat.T).max() <= 1e-12
        assert np.abs(r_mat @ np.ones(2)).max() <= 1e-14
        assert r_mat[0, 1] < 0

    def test_unit_contrast_equals_homogeneous(self):
        rng = np.random.default_rng(6)
        cfg = ElectrodeConfig.equispaced()
        shape = smooth_inclusion(rng)
        r_hom = resistance_matrix(InclusionProblem(disk_shape(np.zeros(512)), 1.0, 16, 128), cfg)
        r_inc = resistance_matrix(InclusionProblem(shape, 1.0, 16, 128), cfg)
        assert np.abs(r_hom - r_inc).max() <= 1e-10

    def test_symmetry_and_kernel_on_random_shapes(self):
        rng = np.random.default_rng(7)
        cfg = ElectrodeConfig.equispaced()
        for _ in range(3):
            prob = InclusionProblem(smooth_inclusion(rng), 2.0, 16, 192)
            r_mat = resistance_matrix(prob, cfg)
            assert np.abs(r_mat - r_mat.T).max() <= 1e-10
            assert np.abs(r_mat @ np.ones(cfg.count)).max() <= 1e-12

    def test_difference_controlled_by_ntd_difference(self):
        rng = np.random.default_rng(8)
        cfg = ElectrodeConfig.equispaced()
        mats, ntds = [], []
        for _ in range(5):
            prob = InclusionProblem(smooth_inclusion(rng), 2.0, 16, 192)
            dtn = dtn_numeric(prob)
            mats.append(resistance_matrix(prob, cfg, dtn_matrix=dtn))
            ntds.append(ntd_from_dtn(dtn))
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

    def test_rejects_overlapping_arcs(self):
        with pytest.raises(ValueError):
            ElectrodeConfig(arcs=((0.0, 1.0), (0.5, 1.5)), impedances=(0.1, 0.1))
