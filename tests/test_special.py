import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from expinstab import shapes, special
from expinstab.shapes import RadialProfile

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


def two_loop_series(x):
    """J0, J1, Y0, Y1 from one loop per J pair and one per Y sum, with signed
    terms: an independent reference for the coefficient-table series."""
    q = 0.25 * x * x
    j0, j1 = np.ones_like(x), np.ones_like(x)
    t0, t1 = np.ones_like(x), np.ones_like(x)
    for k in range(1, 60):
        t0 = t0 * (-q) / (k * k)
        t1 = t1 * (-q) / (k * (k + 1))
        j0 += t0
        j1 += t1
        if max(np.max(np.abs(t0)), np.max(np.abs(t1))) < 1e-18:
            break
    j1 = 0.5 * x * j1
    lg = np.log(0.5 * x) + special.EULER_GAMMA
    h = np.zeros(62)
    h[1:] = np.cumsum(1.0 / np.arange(1, 62))
    s0, tk = np.zeros_like(x), np.ones_like(x)
    for k in range(1, 60):
        tk = tk * q / (k * k)
        s0 += (-1.0) ** (k + 1) * h[k] * tk
        if np.max(np.abs(tk)) * h[k] < 1e-18:
            break
    y0 = (2.0 / math.pi) * (lg * j0 + s0)
    s1, tk = np.zeros_like(x), np.ones_like(x)
    for k in range(0, 60):
        if k > 0:
            tk = tk * q / (k * (k + 1))
        s1 += (-1.0) ** k * (h[k] + h[k + 1]) * tk
        if np.max(np.abs(tk)) * (h[k] + h[k + 1]) < 1e-18:
            break
    y1 = (2.0 / math.pi) * lg * j1 - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * s1
    return j0, j1, y0, y1


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def hankel_scaled_error(got, want, x):
    """Largest error of (J0, J1, Y0, Y1) against want, relative to |H_0(x)|
    for order 0 and to |H_1(x)| for order 1: Y passes through zeros."""
    h0, h1 = np.hypot(sp.j0(x), sp.y0(x)), np.hypot(sp.j1(x), sp.y1(x))
    return max(float(np.max(np.abs(g - w) / h)) for g, w, h in zip(got, want, (h0, h1, h0, h1)))


# The largest error of the term-loop series that the table product replaced,
# against scipy relative to |H_n|, rounded up to the next 1-2-5 step: 9.0e-15
# on x <= 5 and 2.9e-11 on x < 13 (2,000,000 random arguments each).
BOUND_TO_5 = 1e-14
BOUND_TO_13 = 5e-11


def assert_accurate(x, bound):
    """Within bound of scipy and of the two-loop reference."""
    got = special._jy01_series(x)
    assert hankel_scaled_error(got, (sp.j0(x), sp.j1(x), sp.y0(x), sp.y1(x)), x) <= bound
    assert hankel_scaled_error(got, two_loop_series(x), x) <= bound


def farfield_arguments(a):
    """The k*r grid of a far-field solve at wave parameter a (192 nodes on a
    bumpy star about the unit disk with bumps up to 0.18, above the at most
    eps = 0.12 of the far-field runs), diagonal aside: all of it below 5."""
    theta = 2 * np.pi * np.arange(512) / 512
    values = 0.05 * (1 + np.cos(3 * theta)) + 0.04 * (1 + np.sin(7 * theta + 0.4))
    profile = RadialProfile(values, base_radius=1.0)
    nodes = shapes.boundary_nodes(profile, 192)
    # |x_i - x_j| in the solver's order of operations (shapes.pair_geometry)
    dx = nodes.points[:, None, 0] - nodes.points[None, :, 0]
    dy = nodes.points[:, None, 1] - nodes.points[None, :, 1]
    r = np.sqrt(dx * dx + dy * dy)
    return math.sqrt(a) * r[np.triu_indices(192, 1)]


class TestSharedTermSeries:
    """The coefficient-table series is as accurate as the term loop it
    replaced, and each value's bits follow from its own argument and the
    batch's largest q alone."""

    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_farfield_grid(self, a):
        x = farfield_arguments(a)
        assert x.max() <= 5.0
        assert_accurate(x, BOUND_TO_5)

    @pytest.mark.parametrize(
        "x, bound",
        [
            (np.geomspace(1e-10, 12.999, 3000), BOUND_TO_13),
            (np.linspace(0.01, 5.0, 1000), BOUND_TO_5),
            (np.array([1e-8]), BOUND_TO_5),
            (np.array([12.999]), BOUND_TO_13),
            (np.array([4.0, 1e-3]), BOUND_TO_5),
            # next to zeros of the Y0 sum
            (np.array([4.691527646743038]), BOUND_TO_5),
            (np.array([11.192766147583392]), BOUND_TO_13),
        ],
        ids=["geometric", "farfield-range", "tiny", "seam", "pair", "y0-sum-zero-1", "y0-sum-zero-2"],
    )
    def test_fixed_batches(self, x, bound):
        assert_accurate(x, bound)

    def test_kept_scratch_equals_allocating_form(self):
        # the series runs in the caller's scratch and writes the caller's
        # result arrays; what a previous call left in either reaches no bit of
        # the next call's values
        batches = [farfield_arguments(a) for a in (1.0, 4.0)] + [
            np.geomspace(1e-10, 12.999, 3000),
            np.linspace(0.01, 5.0, 1000),
            np.array([1e-8]),
            np.array([12.999]),
            np.array([4.0, 1e-3]),
            np.array([4.691527646743038]),
            np.array([11.192766147583392]),
        ]
        for x in batches:
            work = np.full(2 * x.size, np.nan)
            out = list(np.full((4,) + x.shape, np.nan))
            kept = special._jy01_series(x, work, out)
            assert all(value is row for value, row in zip(kept, out))
            assert_same_bits(kept, special._jy01_series(x))
            assert_same_bits(special.jy01_kernel(x, work=work, out=out), special.jy01_kernel(x))
        # arguments past the series split take the asymptotic branch, which
        # writes its values into out too
        x = np.array([4.0, 20.0, 1e-3])
        out = list(np.full((4, 3), np.nan))
        got = special.jy01_kernel(x, work=np.empty(6), out=out)
        assert all(value is row for value, row in zip(got, out))
        assert_same_bits(got, special.jy01_kernel(x))
        with pytest.raises(ValueError, match="C-ordered"):
            special.jy01_kernel(x, out=list(np.empty((4, 6))[:, ::2]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-9, 60.0), min_size=1, max_size=80),
        st.lists(st.integers(0, 9), min_size=4, max_size=4),
        st.permutations(range(4)),
        st.integers(0, 40),
    )
    def test_caller_arrays_equal_allocating_form(self, values, gaps, order, spare):
        # the four results in non-adjacent, reordered views of one buffer and
        # a scratch of 2 x.size floats or more, below one padded chunk of 32
        # arguments and past it, through the series and the asymptotic branch
        x = np.array(values)
        buffer = np.full(4 * x.size + sum(gaps), np.nan)
        out, start = [None] * 4, 0
        for slot, gap in zip(order, gaps):
            start += gap
            out[slot] = buffer[start:start + x.size]
            start += x.size
        work = np.full(2 * x.size + spare, np.nan)
        got = special.jy01_kernel(x, work=work, out=out)
        assert all(value is row for value, row in zip(got, out))
        assert_same_bits(got, special.jy01_kernel(x))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-9, 12.999), min_size=1, max_size=50))
    def test_random_batches(self, values):
        assert_accurate(np.array(values), BOUND_TO_13)

    # chunks of the product hold at most 2 n / (4 + d) arguments (work's rows
    # 4-5), and d = 33 at x = 12.999: 700 arguments make 22 chunks of 32
    SPREAD = np.geomspace(1e-9, 12.999, 700)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(700)))
    def test_bits_ignore_chunk_and_batch_order(self, order):
        x = self.SPREAD
        want = [value[order] for value in special._jy01_series(x)]
        assert_same_bits(special._jy01_series(x[order]), want)

    @pytest.mark.parametrize("copies", [1, 10])
    def test_bits_follow_the_argument_and_the_largest_q(self, copies):
        # a value alone with the batch's largest argument has its bits in every
        # copy of the batch: 7,000 arguments run in chunks of 352, not 32
        x = np.tile(self.SPREAD, copies)
        whole = special._jy01_series(x)
        for i in (0, 1, 350, 698):
            alone = special._jy01_series(np.array([x[i], x.max()]))
            for value, batch in zip(alone, whole):
                assert np.all(batch[i::700].view(np.uint64) == value[0].view(np.uint64))

    @pytest.mark.parametrize("reach", [1.5, 12.0], ids=["series", "series-and-asymptotic"])
    def test_two_dimensional_argument_is_the_flat_call(self, reach):
        # the (targets, nodes) grid of k |x - y| that ScatteringSolution.scattered_at passes
        profile = RadialProfile(0.1 * (1 + np.cos(3 * 2 * np.pi * np.arange(256) / 256)),
                                base_radius=1.0)
        nodes = shapes.boundary_nodes(profile, 64)
        angles = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
        radii = 1.3 + np.linspace(0.0, reach, 5)
        points = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        geometry = np.empty((4, points.shape[0], 64))
        shapes.pair_geometry(points.T[..., None], nodes.points.T, nodes.normals.T, geometry)
        kr = 2.0 * np.sqrt(geometry[0])
        assert (kr.max() >= 13.0) == (reach > 5.0)
        flat = special.jy01_kernel(kr.ravel())
        assert_same_bits(special.jy01_kernel(kr), [value.reshape(kr.shape) for value in flat])
