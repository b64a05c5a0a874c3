import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from expinstab import shapes
from expinstab.shapes import (
    FlatProfile,
    RadialProfile,
    Shape,
    ShapeError,
    GridTooCoarse,
    cm_norm,
    hausdorff_distance,
    hausdorff_resolution,
    shape_from_text,
    shape_to_text,
    validate_membership,
)


def radial_shape(values, kind=shapes.RADIAL_GRAPH, r=0.5):
    return Shape(kind, RadialProfile(values, base_radius=r))


def flat_shape(values, kind=shapes.FLAT_GRAPH, r=0.5):
    return Shape(kind, FlatProfile(values, half_width=r))


def smooth_radial_values(rng, grid=512, cap=0.2, modes=6):
    """Random nonnegative band-limited profile."""
    theta = 2 * np.pi * np.arange(grid) / grid
    vals = np.zeros(grid)
    for j in range(1, modes + 1):
        vals += rng.normal() * np.cos(j * theta) + rng.normal() * np.sin(j * theta)
    vals -= vals.min()
    return cap * vals / max(vals.max(), 1e-30)


class TestHausdorff:
    def test_identical_shapes_zero(self):
        vals = np.zeros(256)
        a = radial_shape(vals)
        assert hausdorff_distance(a, radial_shape(vals)) == 0.0

    def test_uniform_radial_offset(self):
        base = radial_shape(np.zeros(512))
        offset = radial_shape(np.full(512, 0.1))
        assert hausdorff_distance(base, offset) == pytest.approx(0.1, abs=1e-12)

    def test_matches_brute_force_finer_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            a = radial_shape(smooth_radial_values(rng))
            b = radial_shape(smooth_radial_values(rng))
            coarse = hausdorff_distance(a, b, samples=256)
            fine = hausdorff_distance(a, b, samples=2560)
            assert abs(coarse - fine) <= hausdorff_resolution(a, b, samples=256)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        a = radial_shape(smooth_radial_values(rng))
        b = radial_shape(smooth_radial_values(rng))
        assert hausdorff_distance(a, b, samples=300) == hausdorff_distance(b, a, samples=300)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(shapes.KINDS),
        sizes=st.tuples(st.integers(4, 96), st.integers(4, 96)),
        samples=st.none() | st.integers(4, 300),
        data=st.data(),
    )
    def test_symmetric_and_zero_on_equal_shapes(self, kind, sizes, samples, data):
        flat = kind.startswith("flat")
        pair = []
        for n in sizes:
            heights = data.draw(st.lists(st.floats(0.0, 0.25), min_size=n, max_size=n))
            vals = np.array(heights)
            if flat:
                vals[[0, -1]] = 0.0  # the graph closes onto the base segment
            pair.append((flat_shape if flat else radial_shape)(vals, kind=kind))
        a, b = pair
        assert hausdorff_distance(a, b, samples) == hausdorff_distance(b, a, samples)
        assert hausdorff_distance(a, a, samples) == 0.0

    def test_triangle_inequality_within_resolution(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = radial_shape(smooth_radial_values(rng))
            b = radial_shape(smooth_radial_values(rng))
            c = radial_shape(smooth_radial_values(rng))
            dab = hausdorff_distance(a, b, samples=256)
            dbc = hausdorff_distance(b, c, samples=256)
            dac = hausdorff_distance(a, c, samples=256)
            res = max(
                hausdorff_resolution(x, y, samples=256)
                for x, y in [(a, b), (b, c), (a, c)]
            )
            assert dac <= dab + dbc + 3 * res

    def test_radial_graphs_bounded_by_profile_gap(self):
        rng = np.random.default_rng(5)
        ga = smooth_radial_values(rng)
        gb = smooth_radial_values(rng)
        d = hausdorff_distance(radial_shape(ga), radial_shape(gb))
        assert d <= np.abs(ga - gb).max() + 1e-12

    def test_subgraph_membership_zeroes_inner_points(self):
        # one disk contained in another: distance is the radial gap
        small = radial_shape(np.zeros(256), kind=shapes.RADIAL_SUBGRAPH)
        big = radial_shape(np.full(256, 0.2), kind=shapes.RADIAL_SUBGRAPH)
        assert hausdorff_distance(small, big) == pytest.approx(0.2, abs=1e-12)

    def test_flat_subgraph_membership_zeroes_inner_points(self):
        grid = 512
        t = np.linspace(-0.5, 0.5, grid)
        small = np.where(np.abs(t) < 0.3, 0.05 * (1 - (t / 0.3) ** 2) ** 2, 0.0)
        tall = np.where(np.abs(t) < 0.3, 0.15 * (1 - (t / 0.3) ** 2) ** 2, 0.0)
        a = flat_shape(small, kind=shapes.FLAT_SUBGRAPH)
        b = flat_shape(tall, kind=shapes.FLAT_SUBGRAPH)
        # the small subgraph sits inside the tall one: distance is the peak gap
        d = hausdorff_distance(a, b)
        assert d == pytest.approx(0.10, abs=2e-3)

    def test_mismatched_kinds_rejected(self):
        a = radial_shape(np.zeros(64))
        b = radial_shape(np.zeros(64), kind=shapes.RADIAL_SUBGRAPH)
        with pytest.raises(ShapeError):
            hausdorff_distance(a, b)

    def test_flat_graph_distance(self):
        grid = 512
        t = np.linspace(-0.5, 0.5, grid)
        bump = np.where(np.abs(t) < 0.2, 0.1 * (1 - (t / 0.2) ** 2) ** 2, 0.0)
        d = hausdorff_distance(flat_shape(np.zeros(grid)), flat_shape(bump))
        assert d == pytest.approx(0.1, abs=2e-3)


class TestCmNorm:
    def test_zero_profile(self):
        assert cm_norm(RadialProfile(np.zeros(128)), 1) == 0.0

    def test_constant_radial_profile(self):
        prof = RadialProfile(np.full(128, 0.07))
        assert cm_norm(prof, 2) == pytest.approx(0.07, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_polynomial_bump_matches_symbolic_maxima(self, m):
        h, w, r, grid = 0.1, 0.2, 0.5, 4096
        tg = np.linspace(-r, r, grid)
        vals = np.where(np.abs(tg) < w, h * (1 - (tg / w) ** 2) ** (m + 1), 0.0)
        prof = FlatProfile(vals, half_width=r)

        t = sympy.symbols("t", real=True)
        expr = h * (1 - (t / w) ** 2) ** (m + 1)
        expected = 0.0
        for k in range(m + 1):
            dk = sympy.diff(expr, t, k)
            crit = [s for s in sympy.solve(sympy.diff(dk, t), t)
                    if s.is_real and abs(float(s)) <= w]
            pts = [float(s) for s in crit] + [-w, 0.0, w]
            expected = max(expected, max(abs(float(dk.subs(t, p))) for p in pts))
        assert cm_norm(prof, m) == pytest.approx(expected, rel=0.01)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            cm_norm(RadialProfile(np.zeros(6)), 3)


class TestMembership:
    def test_zero_profile_always_member(self):
        s = radial_shape(np.zeros(128))
        assert validate_membership(s, m=1, beta=1.0, eps=0.1).ok

    def test_amplitude_violation(self):
        vals = np.zeros(128)
        vals[10] = 0.2
        s = radial_shape(vals)
        check = validate_membership(s, m=1, beta=100.0, eps=0.1)
        assert not check.ok and check.reason == "amplitude"

    def test_cm_norm_violation(self):
        grid = 1024
        theta = 2 * np.pi * np.arange(grid) / grid
        vals = 0.05 * (1 + np.cos(40 * theta))  # steep oscillation
        s = radial_shape(vals)
        prof_norm = cm_norm(s.profile, 1)
        check = validate_membership(s, m=1, beta=prof_norm / 2, eps=0.2)
        assert not check.ok and check.reason == "cm_norm"

    def test_flat_endpoint_violation(self):
        vals = np.full(128, 0.05)
        s = flat_shape(vals)
        check = validate_membership(s, m=1, beta=10.0, eps=0.1)
        assert not check.ok and check.reason == "endpoint"


class TestBoundaryNodes:
    """On an off-centre circle of radius R the nodes are known in closed form."""

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.floats(0.05, 2.0),
        height=st.floats(0.0, 0.25),
        cx=st.floats(-1.0, 1.0),
        cy=st.floats(-1.0, 1.0),
        n=st.integers(8, 512),
    )
    def test_constant_profile_is_a_circle(self, base, height, cx, cy, n):
        prof = RadialProfile(np.full(64, height), base_radius=base, center=(cx, cy))
        nodes = shapes.boundary_nodes(prof, n)
        radius = base + height
        assert np.abs(nodes.jac - radius).max() <= 1e-14 * radius
        assert np.abs(nodes.curvature * radius - 1.0).max() <= 1e-14
        assert np.abs(nodes.normals - (nodes.points - (cx, cy)) / radius).max() <= 1e-14
        assert nodes.weights.sum() == pytest.approx(2.0 * np.pi * radius, rel=1e-14)


class TestSerialization:
    def test_round_trip_radial(self, tmp_path):
        rng = np.random.default_rng(1)
        s = radial_shape(smooth_radial_values(rng, grid=64), kind=shapes.RADIAL_SUBGRAPH)
        text = shape_to_text(s)
        back = shape_from_text(text)
        assert back.kind == s.kind
        np.testing.assert_array_equal(back.profile.values, s.profile.values)
        assert back.profile.base_radius == s.profile.base_radius

    def test_round_trip_flat_file(self, tmp_path):
        vals = np.zeros(64)
        vals[20:30] = 0.01
        s = flat_shape(vals)
        path = tmp_path / "shape.txt"
        shapes.save_shape(s, path)
        back = shapes.load_shape(path)
        np.testing.assert_array_equal(back.profile.values, s.profile.values)
        assert back.profile.half_width == s.profile.half_width

    OFF_CENTRE = "kind=radial_subgraph\nr=0.5\ncenter=0.25,-0.5\nM=4\n0\n0.10000000000000001\n0.25\n0.125\n"

    def test_radial_text_is_pinned(self):
        prof = RadialProfile([0.0, 0.1, 0.25, 0.125], base_radius=0.5, center=(0.25, -0.5))
        assert shape_to_text(Shape(shapes.RADIAL_SUBGRAPH, prof)) == self.OFF_CENTRE

    def test_flat_text_is_pinned(self):
        s = flat_shape([0.0, 0.1, 0.2, 0.0], kind=shapes.FLAT_SUBGRAPH, r=0.75)
        want = "kind=flat_subgraph\nr=0.75\ncenter=0,0\nM=4\n0\n0.10000000000000001\n0.20000000000000001\n0\n"
        assert shape_to_text(s) == want

    def test_legacy_seven_line_header_loads(self):
        legacy = self.OFF_CENTRE.replace("M=4", "m=2\nbeta=1.5\neps_cap=0.25\nM=4")
        back, want = shape_from_text(legacy), shape_from_text(self.OFF_CENTRE)
        assert back.kind == want.kind == shapes.RADIAL_SUBGRAPH
        assert back.profile.base_radius == want.profile.base_radius == 0.5
        assert back.profile.center == want.profile.center == (0.25, -0.5)
        np.testing.assert_array_equal(back.profile.values, want.profile.values)
        assert shape_to_text(back) == self.OFF_CENTRE
