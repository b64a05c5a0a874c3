import numpy as np
import pytest
import scipy.special as sp

from expinstab import special

FIRST_J0_ZERO = 2.404825557695773


class TestBesselJ:
    def test_first_zero_of_j0(self):
        # oracle: refine the zero with an independent implementation
        from scipy.optimize import brentq

        z = brentq(sp.j0, 2.0, 3.0, xtol=1e-14)
        assert z == pytest.approx(FIRST_J0_ZERO, abs=1e-12)
        assert abs(special.bessel_j_sequence(0, FIRST_J0_ZERO)[0, 0]) <= 1e-10

    def test_three_term_recurrence(self):
        x = np.linspace(0.5, 60.0, 300)
        j = special.bessel_j_sequence(30, x)
        for n in range(1, 29):
            resid = j[n - 1] + j[n + 1] - (2 * n / x) * j[n]
            scale = np.maximum(np.abs(j[n - 1 : n + 2]).max(axis=0), 1e-280)
            assert np.max(np.abs(resid) / scale) <= 1e-10

    def test_accuracy_against_scipy(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0.3, 60.0, 300), [0.3, 13.0, 60.0]])
        ours = special.bessel_j_sequence(80, x)
        n = np.arange(81)[:, None]
        ref = sp.jv(n, x[None, :])
        rel = np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-280)
        assert rel.max() <= 1e-10

    def test_scalar_api(self):
        assert special.bessel_j_sequence(3, 7.1)[3, 0] == pytest.approx(sp.jv(3, 7.1), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            special.bessel_j_sequence(2, -1.0)


class TestBesselYAndHankel:
    def test_wronskian_identity(self):
        # J_n(x) Y_n'(x) - J_n'(x) Y_n(x) = 2/(pi x), derivatives via recurrence
        x = np.linspace(0.5, 60.0, 400)
        for n in (0, 1, 5, 20, 60, 80):
            j = special.bessel_j_sequence(n + 1, x)
            y = special.bessel_y_sequence(n + 1, x)
            if n == 0:
                jp, yp = -j[1], -y[1]
            else:
                jp = j[n - 1] - (n / x) * j[n]
                yp = y[n - 1] - (n / x) * y[n]
            resid = j[n] * yp - jp * y[n] - 2.0 / (np.pi * x)
            assert np.abs(resid).max() <= 1e-9

    def test_accuracy_relative_to_hankel_modulus(self):
        # Y oscillates through zeros, so accuracy is measured against the
        # non-vanishing scale |H_n^(1)| = sqrt(J_n^2 + Y_n^2)
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(0.3, 60.0, 300), np.linspace(0.3, 60, 101)])
        ours = special.bessel_y_sequence(80, x)
        n = np.arange(81)[:, None]
        ref = sp.yv(n, x[None, :])
        amp = np.hypot(sp.jv(n, x[None, :]), ref)
        assert (np.abs(ours - ref) / amp).max() <= 1e-10

    def test_hankel_combination(self):
        h = special.hankel1_sequence(4, 9.3)[4, 0]
        assert h == pytest.approx(sp.hankel1(4, 9.3), rel=1e-10)

    def test_hankel_sequence_matches_scipy(self):
        x = np.array([0.5, 2.0, 8.0, 33.0])
        ours = special.hankel1_sequence(25, x)
        ref = sp.hankel1(np.arange(26)[:, None], x[None, :])
        rel = np.abs(ours - ref) / np.abs(ref)
        assert rel.max() <= 1e-10

    def test_series_asymptotic_seam(self):
        # continuity across the internal branch switch
        x = np.array([12.999999, 13.000001])
        y = special.bessel_y_sequence(1, x)
        assert abs(y[0, 0] - y[0, 1]) <= 1e-6
        assert abs(y[1, 0] - y[1, 1]) <= 1e-6
