import math

import numpy as np
import pytest

from expinstab.opnet import (
    NetParams,
    c4_constant,
    counting_check,
    delta_of_epsilon,
    n_tilde,
    net_size_log_bound,
    op_norm_bound_check,
    quantize,
    random_class_member,
    truncation_size,
    y_norm,
)
from expinstab.packing import packing_lower_bound

C2, ALPHA2 = 1.0, 0.5


def member(rng, size=65, c2=C2, alpha2=ALPHA2, complex_entries=False):
    return random_class_member(rng, c2, alpha2, np.arange(size), complex_entries)


class TestYNorm:
    def test_zero_matrix(self):
        assert y_norm(np.zeros((3, 3)), np.arange(3)) == 0.0

    def test_single_entry_degree_zero(self):
        assert y_norm(np.array([[1.0]]), np.array([0.0])) == 4.0  # (2+0)^2

    def test_dominates_weighted_entries_pointwise(self):
        rng = np.random.default_rng(9)
        m, deg = member(rng, size=40), np.arange(40)
        weights = (2.0 + np.maximum.outer(deg, deg)) ** 2
        assert (np.abs(m) <= y_norm(m, deg) / weights + 1e-15).all()

    def test_class_member_below_envelope_sup(self):
        rng = np.random.default_rng(0)
        sup = max(
            C2 * math.exp(-ALPHA2 * (n - 1)) * (2 + n) ** 2 for n in range(200)
        )
        for _ in range(20):
            assert y_norm(member(rng), np.arange(65)) <= sup

    @pytest.mark.parametrize(
        "entries, degrees",
        [(np.zeros((2, 3)), np.arange(2)), (np.ones((1, 1)), np.arange(3))],
        ids=["non-square", "one-by-one-three-degrees"],
    )
    def test_rejects_mismatched_shapes(self, entries, degrees):
        params = NetParams.for_delta(1e-2, C2, ALPHA2)
        with pytest.raises(ValueError):
            y_norm(entries, degrees)
        with pytest.raises(ValueError):
            quantize(entries, degrees, params)


class TestC4:
    def test_value_against_closed_form(self):
        assert c4_constant(1.0) == pytest.approx(math.sqrt(math.pi**2 / 6 - 1), abs=1e-6)
        assert c4_constant(1.0) == pytest.approx(0.80308, abs=1e-5)

    def test_value_is_the_closed_form(self):
        # sum_{n>=1} (1+n)^-2 = pi^2/6 - 1
        assert c4_constant(1.0) == math.sqrt(math.pi**2 / 6 - 1)

    def test_linearity(self):
        assert c4_constant(2 * 1.7) == pytest.approx(2 * c4_constant(1.7), rel=1e-14)

    def test_zero(self):
        assert c4_constant(0.0) == 0.0


class TestOpNormBound:
    def test_zero_matrix_equality(self):
        m = np.zeros((4, 4))
        assert np.linalg.norm(m, 2) == 0.0 and op_norm_bound_check(m, np.arange(4), C2)

    def test_rank_one_random(self):
        rng = np.random.default_rng(1)
        deg = np.arange(40)
        env = C2 * np.exp(-ALPHA2 * np.maximum.outer(deg, deg))
        u = rng.uniform(-1, 1, 40)
        entries = np.outer(u, u) * env
        assert op_norm_bound_check(entries, deg, C2)

    def test_diagonal_envelope_has_slack(self):
        deg = np.arange(50)
        entries = np.diag(C2 * np.exp(-ALPHA2 * deg))
        assert np.linalg.norm(entries, 2) < c4_constant(C2) * y_norm(entries, deg)

    def test_comparison_on_many_members(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert op_norm_bound_check(member(rng, size=48), np.arange(48), C2)


class TestNTilde:
    def test_growth_under_delta_decrease(self):
        n1 = n_tilde(1e-2, C2, ALPHA2)
        n2 = n_tilde(1e-3, C2, ALPHA2)
        # tenfold delta decrease advances n_tilde by ~ log(10)/alpha2 plus
        # lower-order polylog drift
        step = math.log(10.0) / ALPHA2
        assert step * 0.8 <= n2 - n1 <= step * 1.6

    def test_minimality(self):
        delta = 1e-3
        nt = n_tilde(delta, C2, ALPHA2)
        thr = delta / (2 * c4_constant(C2))

        def env(t):
            return C2 * math.exp(-ALPHA2 * (t - 1)) * (2 + t) ** 2

        assert env(nt) <= thr
        t_star = 2 / ALPHA2 - 2
        if nt - 1 > t_star:
            assert env(nt - 1) > thr

    def test_monotone_in_alpha2(self):
        assert n_tilde(1e-3, C2, 1.0) <= n_tilde(1e-3, C2, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            n_tilde(0.5, C2, ALPHA2)  # >= 1/e


class TestQuantize:
    def test_zero_matrix_fixed(self):
        params = NetParams.for_delta(1e-2, C2, ALPHA2)
        assert not quantize(np.zeros((8, 8)), np.arange(8), params).any()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        params = NetParams.for_delta(1e-2, C2, ALPHA2)
        m = member(rng)
        q1 = quantize(m, np.arange(65), params)
        q2 = quantize(q1, np.arange(65), params)
        np.testing.assert_array_equal(q1, q2)

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
    def test_covering_real(self, delta):
        rng = np.random.default_rng(4)
        params = NetParams.for_delta(delta, C2, ALPHA2)
        size = truncation_size(params) + 1
        for _ in range(50):
            m = member(rng, size=size)
            q = quantize(m, np.arange(size), params)
            assert np.linalg.norm(m - q, 2) <= delta / 2

    def test_covering_complex(self):
        rng = np.random.default_rng(5)
        delta = 1e-2
        params = NetParams.for_delta(delta, C2, ALPHA2)
        size = truncation_size(params) + 1
        for _ in range(20):
            m = member(rng, size=size, complex_entries=True)
            q = quantize(m, np.arange(size), params)
            assert np.linalg.norm(m - q, 2) <= delta / 2

    def test_rejects_out_of_box(self):
        params = NetParams.for_delta(1e-2, C2, ALPHA2)
        entries = np.zeros((4, 4))
        entries[0, 0] = C2 * 1.5
        with pytest.raises(ValueError):
            quantize(entries, np.arange(4), params)


class TestNetSize:
    def test_psi_count_bound(self):
        for delta in (1e-1, 1e-3, 1e-5):
            b = net_size_log_bound(delta, C2, ALPHA2)
            assert b.psi_count <= 2 * C2 / b.delta_prime + 1

    def test_pair_count_bound(self):
        degrees = np.arange(200)
        for delta in (1e-2, 1e-4):
            b = net_size_log_bound(delta, C2, ALPHA2, degrees=degrees)
            assert b.pair_count <= C2**2 * (1 + b.n_tilde) ** 2

    def test_entry_counts_match_quantize_grid(self):
        # degree-0 entries sweeping [-C2, C2] more finely than either step hit
        # every grid value quantize can produce, real or per complex component
        delta = 0.3
        params = NetParams.for_delta(delta, C2, ALPHA2)
        sweep = np.linspace(-C2, C2, 10_000).reshape(100, 100)
        degrees = np.zeros(100)
        real = quantize(sweep, degrees, params)
        cplx = quantize(sweep - 1j * sweep, degrees, params)
        real_values = np.unique(real).size
        component_values = np.unique(cplx.real).size
        assert np.unique(cplx.imag).size == component_values > real_values
        assert net_size_log_bound(delta, C2, ALPHA2).psi_count == real_values
        b = net_size_log_bound(delta, C2, ALPHA2, complex_entries=True)
        assert b.psi_count == component_values**2
        assert b.log_bound == pytest.approx(b.pair_count * 2 * math.log(component_values))

    def test_asymptotic_regression_slope(self):
        # the (-log delta)^(2p+1), p = 1, growth emerges only deep in delta: polylog
        # corrections dominate above ~1e-40 (slope there is ~1.6)
        deltas = [1e-80, 1e-130, 1e-180, 1e-230, 1e-280]
        x = [math.log(-math.log(d)) for d in deltas]
        y = [math.log(net_size_log_bound(d, C2, ALPHA2).log_bound) for d in deltas]
        slope = np.polyfit(x, y, 1)[0]
        assert 2.8 <= slope <= 3.2


class TestDeltaOfEpsilon:
    def test_unit_eps(self):
        assert delta_of_epsilon(1.0, 0.7) == pytest.approx(math.exp(-1.0))

    def test_sixteenth(self):
        assert delta_of_epsilon(1.0 / 16.0, 1.0) == pytest.approx(math.exp(-2.0))

    def test_monotone(self):
        values = [delta_of_epsilon(e, 1.0) for e in (0.2, 0.1, 0.05)]
        assert values[0] > values[1] > values[2]

    def test_alpha3_changes_exponent_only(self):
        # remark case: alpha3 exposed; alpha3 = 1 is the default exponent
        assert delta_of_epsilon(0.1, 1.0, alpha3=1.0) == delta_of_epsilon(0.1, 1.0)
        assert delta_of_epsilon(0.1, 1.0, alpha3=0.5) < delta_of_epsilon(0.1, 1.0)


class TestCountingCheck:
    # class constants of the kind fitted on the conductivity runs
    C2_FIT, ALPHA2_FIT, EPS0 = 0.36, 1.39, 0.39

    def margin(self, eps, alpha3=1.0):
        d = delta_of_epsilon(eps, 1.0, alpha3=alpha3)
        net = net_size_log_bound(d, self.C2_FIT, self.ALPHA2_FIT).log_bound
        pack = packing_lower_bound(eps, 1, self.EPS0)
        return counting_check(pack, net)

    def test_small_eps_true(self):
        ok, margin = self.margin(1e-6)
        assert ok and margin > 0

    def test_near_eps0_false_and_single_sign_flip(self):
        ok_large, _ = self.margin(0.3)
        assert not ok_large
        signs = [self.margin(e)[0] for e in np.geomspace(1e-6, 0.3, 30)]
        flips = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
        assert flips == 1

    def test_margin_monotone_in_alpha1(self):
        # doubling alpha1 at fixed eps increases the packing exponent faster
        # than the net side grows through delta(eps)
        eps = 1e-3
        d1 = delta_of_epsilon(eps, 1.0)
        d2 = delta_of_epsilon(eps, 2.0)
        net1 = net_size_log_bound(d1, self.C2_FIT, self.ALPHA2_FIT).log_bound
        net2 = net_size_log_bound(d2, self.C2_FIT, self.ALPHA2_FIT).log_bound
        pack1 = 0.25 * self.EPS0 * eps**-1.0
        pack2 = 0.25 * self.EPS0 * eps**-2.0
        _, m1 = counting_check(pack1, net1)
        _, m2 = counting_check(pack2, net2)
        assert m2 > m1

    def test_remark_exponent_alpha3(self):
        # with alpha3 = 1 the check still passes for small eps on the grid
        for eps in np.geomspace(1e-6, 1e-4, 5):
            ok, _ = self.margin(eps, alpha3=1.0)
            assert ok
