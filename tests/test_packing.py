import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expinstab import packing, shapes
from expinstab.packing import (
    ShapeClass,
    build_bump,
    build_packing,
    bump_derivative_maxima,
    bump_norm_constant,
    class_eps0,
    construction_eps0_prime,
    packing_lower_bound,
    random_bits,
)
from expinstab.shapes import hausdorff_distance, hausdorff_resolution, validate_membership

RADIAL = ShapeClass(kind=shapes.RADIAL_SUBGRAPH, base=0.5, m=1, beta=1.0)


def symbolic_bump_constant(m: int) -> float:
    """Independent oracle: maximize |d^m/dt^m (1-t^2)^(m+1)| on [-1, 1]."""
    t = sympy.symbols("t", real=True)
    dm = sympy.diff((1 - t**2) ** (m + 1), t, m)
    crit = [s for s in sympy.solve(sympy.diff(dm, t), t) if s.is_real and abs(float(s)) <= 1]
    pts = [float(s) for s in crit] + [-1.0, 0.0, 1.0]
    return max(abs(float(dm.subs(t, p))) for p in pts)


def symbolic_derivative_maxima(m: int) -> list[float]:
    """Exact max over [-1, 1] of |d^k/dt^k (1-t^2)^(m+1)| for k = 0..m,
    from the exact real roots of the next derivative, rounded once."""
    t = sympy.symbols("t", real=True)
    out = []
    for k in range(m + 1):
        dk = sympy.diff((1 - t**2) ** (m + 1), t, k)
        pts = sympy.Poly(sympy.diff(dk, t), t).real_roots() + [-1, 1]
        out.append(float(max(sympy.N(sympy.Abs(dk.subs(t, p)), 40) for p in pts)))
    return out


def eigvals_derivative_maxima(m: int) -> np.ndarray:
    """The same maxima with the critical points taken as the eigenvalues of
    the companion matrix of the next derivative."""
    coef = np.zeros(2 * m + 3)
    coef[::2] = [(-1) ** j * math.comb(m + 1, j) for j in range(m + 2)]
    out = []
    for _ in range(m + 1):
        slope = np.arange(1, coef.size) * coef[1:]
        companion = np.eye(slope.size - 1, k=-1)
        companion[:, -1] -= slope[:-1] / slope[-1]
        roots = np.linalg.eigvals(companion)
        cand = roots[np.isreal(roots)].real
        pts = np.concatenate([cand[(cand >= -1.0) & (cand <= 1.0)], [-1.0, 1.0]])
        out.append(np.abs(np.polyval(coef[::-1], pts)).max())
        coef = slope
    return np.array(out)


class TestBump:
    def test_zero_height(self):
        assert not build_bump(1, 0.0, 0.1).any()

    def test_endpoint_values(self):
        b = build_bump(2, 0.3, 0.1, samples=101)
        assert b[50] == pytest.approx(0.3)
        assert b[0] == 0.0 and b[-1] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_norm_constant_vs_symbolic_oracle(self, m):
        assert bump_norm_constant(m) == pytest.approx(symbolic_bump_constant(m), rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_derivative_maxima_without_eigen_driver(self, m, monkeypatch):
        # every k within 4e-16 of the exact maxima; at m <= 2 the bits of
        # the eigenvalue method
        eig_bits = eigvals_derivative_maxima(m)

        def refuse(*args):
            raise AssertionError("bump maxima reached an eigen driver")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        got = bump_derivative_maxima.__wrapped__(m)
        np.testing.assert_allclose(got, symbolic_derivative_maxima(m), rtol=4e-16, atol=0)
        assert m > 2 or np.array_equal(got, eig_bits)

    def test_missed_root_raises(self, monkeypatch):
        # the one node t = 0 finds the root of P_1 but not the two of P_2
        monkeypatch.setattr(packing, "ROOT_GRID", np.zeros(1))
        with pytest.raises(ArithmeticError, match="found 0 roots of derivative 2"):
            bump_derivative_maxima.__wrapped__(1)

    def test_cached_derivative_maxima_are_read_only(self):
        with pytest.raises(ValueError):
            bump_derivative_maxima(2)[2] = 0.0
        assert bump_norm_constant(2) == pytest.approx(symbolic_bump_constant(2), rel=1e-10)


class TestBuildPacking:
    def test_refusal_above_eps0(self):
        eps0 = class_eps0(RADIAL)
        with pytest.raises(ValueError, match="eps0"):
            build_packing(RADIAL, eps0 * 1.01)

    def test_two_cells_near_eps0_exhaustive(self):
        eps = class_eps0(RADIAL) * 0.98
        fam = build_packing(RADIAL, eps)
        assert fam.cell_count == 2
        shapes_all = [fam.shape(p) for p in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                d = hausdorff_distance(shapes_all[i], shapes_all[j], samples=1024)
                res = hausdorff_resolution(shapes_all[i], shapes_all[j], samples=1024)
                assert d >= eps - res

    def test_cell_count_scales_inversely_with_eps(self):
        eps = 0.01
        fam = build_packing(RADIAL, eps)
        # m=1, beta=1: w = 2*eps, so Mc ~ pi*r/w = pi/(4*eps)
        expected = np.pi / (4 * eps)
        assert expected - 1 <= fam.cell_count <= expected
        pats = fam.sample_patterns(0, 12)
        built = [fam.shape(p) for p in pats]
        for i in range(len(built)):
            for j in range(i + 1, len(built)):
                d = hausdorff_distance(built[i], built[j], samples=512)
                res = hausdorff_resolution(built[i], built[j], samples=512)
                assert d >= eps - res

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(shapes.KINDS),
        m=st.integers(1, 3),
        base=st.floats(0.3, 1.0),
        fraction=st.floats(0.1, 0.95),
        data=st.data(),
    )
    def test_distinct_patterns_are_eps_apart(self, kind, m, base, fraction, data):
        cls = ShapeClass(kind=kind, base=base, m=m, beta=1.0)
        fam = build_packing(cls, fraction * class_eps0(cls))
        assert fam.eps0 == class_eps0(cls)
        patterns = st.integers(0, (1 << fam.cell_count) - 1)
        p, q = data.draw(patterns), data.draw(patterns)
        assume(p != q)
        a, b = fam.shape(p), fam.shape(q)
        d = hausdorff_distance(a, b, samples=512)
        assert d >= fam.eps - hausdorff_resolution(a, b, samples=512)

    def test_zero_pattern_is_base_shape(self):
        fam = build_packing(RADIAL, 0.05)
        assert not fam.base_shape().profile.values.any()

    def test_all_family_members_pass_membership(self):
        fam = build_packing(RADIAL, 0.08)
        for p in fam.sample_patterns(1, 8):
            s = fam.shape(p)
            assert validate_membership(s, RADIAL.m, RADIAL.beta, fam.eps).ok

    def test_flat_family(self):
        cls = ShapeClass(kind=shapes.FLAT_GRAPH, base=0.5, m=1, beta=1.0)
        fam = build_packing(cls, 0.02)
        assert fam.cell_count >= 2
        s = fam.shape((1 << fam.cell_count) - 1)
        assert validate_membership(s, cls.m, cls.beta, fam.eps).ok
        assert s.profile.values[0] == 0.0 and s.profile.values[-1] == 0.0

    def test_monotone_cell_count(self):
        counts = [build_packing(RADIAL, e).cell_count for e in (0.2, 0.1, 0.05, 0.02)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))

    def test_sampling_deterministic(self):
        fam = build_packing(RADIAL, 0.02)
        a = fam.sample_patterns(42, 20)
        b = fam.sample_patterns(42, 20)
        assert a == b and len(set(a)) == 20


class TestRandomBits:
    """random_bits is numpy's default_rng(entropy).integers(0, 2) bit for bit."""

    @pytest.mark.parametrize(
        "entropy",
        [0, 1, 7, 2024, 2**32 + 5, 123456789012345, 2**64 + 3]
        + [[s, i] for s in (0, 7, 2024, 2**32 + 5, 123456789012345) for i in range(4)]
        + [[1, 2, 3, 4, 5, 6], [2**40, 2**33, 9, 0, 1]],
    )
    def test_equals_numpy_generator(self, entropy):
        # consecutive draws of odd lengths carry PCG64's half-used 64-bit word
        rng, bits = np.random.default_rng(entropy), random_bits(entropy)
        for size in (15, 39, 3, 1, 7, 65, 64):
            assert list(itertools.islice(bits, size)) == rng.integers(0, 2, size=size).tolist()

    @pytest.mark.parametrize("entropy", [3, [2024, 0], [7, 2]])
    def test_sample_patterns_equal_generator_loop(self, entropy):
        fam = build_packing(RADIAL, 0.05)
        rng, seen = np.random.default_rng(entropy), {}
        while len(seen) < 40:
            bits = rng.integers(0, 2, size=fam.cell_count)
            seen.setdefault(int(sum(int(b) << c for c, b in enumerate(bits))), None)
        assert fam.sample_patterns(entropy, 40) == list(seen)

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(random_bits([1, -1]))


class TestLowerBound:
    def test_formula_direct_evaluation(self):
        assert packing_lower_bound(0.25, 1, 1.0) == pytest.approx(1.0)

    def test_half_eps0(self):
        eps0 = 0.816
        val = packing_lower_bound(eps0 / 2, 1, eps0)
        assert val == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            packing_lower_bound(1.5, 1, 1.0)

    def test_certified_cardinality_dominates_bound(self):
        eps0p = construction_eps0_prime(RADIAL)
        assert eps0p > 0
        eps0 = class_eps0(RADIAL)
        for eps in np.geomspace(1e-3, eps0p * 0.999, 12):
            fam = build_packing(RADIAL, float(eps))
            bound = packing_lower_bound(float(eps), RADIAL.m, eps0)
            assert fam.certified_log_cardinality >= bound
