import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expinstab import engine
from expinstab.conductivity import (
    InclusionProblem,
    delta_dtn_weighted,
    dtn_numeric,
    fourier_degrees,
    ntd_from_dtn,
    turn,
)
from expinstab.engine import (
    LEAD,
    ROWS,
    ConfigError,
    ExperimentConfig,
    InstabilityReport,
    WitnessRecord,
    _make_forward,
    _min_norm_pair,
    _pair_bounds,
    fit_instability_exponent,
    run_instability,
)
from expinstab.opnet import net_size_log_bound
from expinstab.packing import build_packing, class_eps0
from expinstab.scattering import ObstacleProblem, farfield_numeric


def synthetic_report(eps_values, norms):
    records = tuple(
        WitnessRecord(
            eps=e,
            pattern_a=0,
            pattern_b=1,
            hausdorff=e,
            resolution=0.0,
            op_norm_diff=n,
            delta_eps=0.0,
            packing_log_count=0.0,
            certified_log_cardinality=0.0,
            net_log_bound=0.0,
            counting_ok=False,
            margin=0.0,
            sample_count=2,
            norm_floored=False,
        )
        for e, n in zip(eps_values, norms)
    )
    return InstabilityReport("dtn", 1, 1.0, 0, 2, records)


class TestExponentFit:
    def test_exact_exponential_synthetic(self):
        eps = [1e-2, 1e-3, 1e-4, 1e-5]
        norms = [math.exp(-(e ** -0.25)) for e in eps]
        q_hat, r2 = fit_instability_exponent(synthetic_report(eps, norms))
        assert q_hat == pytest.approx(0.25, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_decay_flags_non_exponential(self):
        # ||dF|| = eps^2 is sublinear in the double-log frame: q_hat ~ 0
        eps = [1e-2, 1e-3, 1e-4, 1e-5]
        norms = [e**2 for e in eps]
        q_hat, _ = fit_instability_exponent(synthetic_report(eps, norms))
        assert 0 <= q_hat < 0.15

    def test_norm_floor_clipping(self):
        eps = [1e-2, 1e-3]
        report = synthetic_report(eps, [0.0, 0.0])
        q_hat, r2 = fit_instability_exponent(report)
        assert math.isfinite(q_hat)

    def test_one_usable_norm_fits_nothing(self):
        # norms at or above 1 are excluded: one norm left gives no line
        report = synthetic_report([1e-2, 1e-3, 1e-4], [1.0, 2.0, 0.5])
        q_hat, r2 = fit_instability_exponent(report)
        assert math.isnan(q_hat) and math.isnan(r2)

    def test_repeated_eps_fits_nothing(self):
        # usable norms at one distinct eps give no line, however many they are
        for eps, norms in (([0.1, 0.1], [1e-3, 1e-4]), ([0.1, 0.1, 0.05], [1e-3, 1e-4, 2.0])):
            q_hat, r2 = fit_instability_exponent(synthetic_report(eps, norms))
            assert math.isnan(q_hat) and math.isnan(r2)


class TestRunInstability:
    def test_budget_two_returns_the_sampled_pair(self):
        cfg = ExperimentConfig(problem="dtn", n_max=8, quad_nodes=128, eps_list=(0.1,), budget=2, seed=3)
        report = run_instability(cfg)
        rec = report.records[0]
        assert rec.sample_count == 2
        assert {rec.pattern_a, rec.pattern_b} != {0} and rec.pattern_a != rec.pattern_b
        assert rec.hausdorff >= rec.eps - rec.resolution

    def test_dtn_pipeline_norms_decrease(self):
        cfg = ExperimentConfig(
            problem="dtn", n_max=16, quad_nodes=256, eps_list=(0.12, 0.08, 0.05), budget=10, seed=0
        )
        report = run_instability(cfg)
        norms = [r.op_norm_diff for r in report.records]
        assert norms[0] > norms[1] > norms[2]
        assert report.q_hat > 0
        for rec in report.records:
            assert rec.hausdorff >= rec.eps - rec.resolution

    def test_deterministic_reports(self):
        cfg = ExperimentConfig(
            problem="dtn", n_max=8, quad_nodes=128, eps_list=(0.1, 0.06), budget=5, seed=11
        )
        r1 = run_instability(cfg)
        r2 = run_instability(cfg)
        assert r1 == r2

    def test_farfield_harness_runs_with_sup_over_wave_params(self):
        cfg = ExperimentConfig(
            problem="farfield",
            scatter_n_max=8,
            scatter_quad=96,
            directions=24,
            a_list=(1.0, 4.0),
            eps_list=(0.1,),
            budget=4,
            seed=2,
        )
        report = run_instability(cfg)
        rec = report.records[0]
        assert rec.op_norm_diff > 0
        assert rec.hausdorff >= rec.eps - rec.resolution
        # far-field entries are complex: the net counts both component grids
        bound = net_size_log_bound(
            rec.delta_eps,
            report.class_c2,
            report.class_alpha2,
            degrees=fourier_degrees(cfg.scatter_n_max),
            complex_entries=True,
        )
        assert rec.net_log_bound == bound.log_bound

    @pytest.mark.parametrize("problem", ["ntd", "electrodes"])
    def test_conductivity_variants_run(self, problem):
        cfg = ExperimentConfig(
            problem=problem, n_max=12, quad_nodes=192, eps_list=(0.1, 0.06), budget=5, seed=4
        )
        report = run_instability(cfg)
        norms = [r.op_norm_diff for r in report.records]
        assert norms[0] > norms[1] > 0
        for rec in report.records:
            assert rec.hausdorff >= rec.eps - rec.resolution

    def test_rejects_tiny_budget(self):
        with pytest.raises(ConfigError, match="budget") as info:
            ExperimentConfig(problem="dtn", eps_list=(0.1,), budget=1, seed=0)
        assert info.value.key == "budget"

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            ExperimentConfig(problem="sonar")


def class_matrix(cfg, shape):
    """|entries| and degrees of the matrix whose envelope gives the class
    constants of cfg.problem, computed from the forward solvers directly."""
    if cfg.problem == "farfield":
        prob = ObstacleProblem(shape, cfg.a_list, cfg.scatter_n_max, cfg.scatter_quad, cfg.directions)
        fields, _ = farfield_numeric(prob)
        return np.abs(fields).max(axis=0), fourier_degrees(cfg.scatter_n_max)
    prob = InclusionProblem(shape, cfg.a, cfg.n_max, cfg.quad_nodes)
    if cfg.problem == "dtn":
        return np.abs(delta_dtn_weighted(prob)), fourier_degrees(cfg.n_max)
    degrees = fourier_degrees(cfg.n_max)[1:]
    dtn = np.diag(fourier_degrees(cfg.n_max)) + dtn_numeric(prob)
    return np.abs(ntd_from_dtn(dtn) - np.diag(1.0 / degrees)), degrees


def smallest_class_c2(cfg, alpha2):
    """Smallest C2 with |b_jk| <= C2 exp(-alpha2 max(gamma_j, gamma_k)) on
    every class matrix sampled at cfg's one eps (entries <= 1e-14 aside)."""
    (eps,) = cfg.eps_list
    family = build_packing(cfg.shape_class(), eps)
    # the engine samples eps number `index` with entropy [seed, index]
    patterns = family.sample_patterns([cfg.seed, 0], cfg.budget)
    smallest = 0.0
    for pattern in patterns:
        entries, degrees = class_matrix(cfg, family.shape(pattern))
        decay = np.exp(alpha2 * np.maximum.outer(degrees, degrees))
        smallest = max(smallest, float(np.max(np.where(entries > 1e-14, entries * decay, 0.0))))
    return smallest


class TestCountedNet:
    """One-eps dtn run at the criterion-10 scale: the class constants and the
    counted net bound behind the record's margin."""

    EPS, BUDGET, SEED = 0.1, 6, 99
    CFG = ExperimentConfig(
        problem="dtn", n_max=12, quad_nodes=192, eps_list=(EPS,), budget=BUDGET, seed=SEED
    )

    @pytest.fixture(scope="class")
    def report(self):
        return run_instability(self.CFG)

    def test_class_c2_is_smallest_envelope_constant(self, report):
        smallest = smallest_class_c2(self.CFG, report.class_alpha2)
        assert report.class_c2 == pytest.approx(smallest, rel=1e-12)

    def test_net_bound_counts_every_basis_pair(self, report):
        rec = report.records[0]
        bound = net_size_log_bound(
            rec.delta_eps,
            report.class_c2,
            report.class_alpha2,
            degrees=fourier_degrees(self.CFG.n_max),
        )
        assert rec.net_log_bound == bound.log_bound
        assert rec.margin == rec.packing_log_count - bound.log_bound


@pytest.mark.parametrize(
    "problem, sizes",
    [
        ("ntd", dict(n_max=6, quad_nodes=96)),
        ("electrodes", dict(n_max=6, quad_nodes=96, electrodes=4)),
        ("farfield", dict(scatter_n_max=6, scatter_quad=64, directions=16)),
    ],
    ids=["ntd", "electrodes", "farfield"],
)
def test_class_c2_of_every_problem_is_smallest_envelope_constant(problem, sizes):
    # dtn is TestCountedNet's; the others fit other class matrices
    cfg = ExperimentConfig(problem=problem, eps_list=(0.1,), budget=4, seed=99, **sizes)
    report = run_instability(cfg)
    smallest = smallest_class_c2(cfg, report.class_alpha2)
    assert report.class_c2 == pytest.approx(smallest, rel=1e-12)


def exhaustive_pair(measurements, dist):
    best = (0, 1, math.inf)
    for i in range(len(measurements)):
        for j in range(i + 1, len(measurements)):
            d = dist(measurements[i], measurements[j])
            if d < best[2]:
                best = (i, j, d)
    return best


def draw_measurements(rng, layout, shape):
    """A stack of measurements; the integer-valued layouts make pair
    differences exact, so equal distances are bit-equal."""
    if layout == "random":
        return rng.normal(size=shape)
    if layout == "duplicates":
        stack = rng.normal(size=shape)
        for k in range(1, shape[0]):
            if rng.random() < 0.5:
                stack[k] = stack[rng.integers(k)]
        return stack
    if layout == "ties":
        # integer multiples of one integer matrix: |c_i - c_j| repeats over many pairs
        coeffs = rng.integers(-2, 3, size=shape[0]).astype(float)
        return coeffs.reshape((-1,) + (1,) * (len(shape) - 1)) * rng.integers(-2, 3, size=shape[1:])
    # one_column: measurement k > 0 differs from measurement 0 in column
    # (k-1) mod n only, by a signed permutation of one integer vector, so the
    # pairs (0, k) tie in the column-norm bound, which equals their 2-norm
    # up to rounding
    stack = np.zeros(shape)
    v = rng.integers(-9, 10, size=shape[-2]).astype(float)
    for k in range(1, shape[0]):
        stack[k, ..., (k - 1) % shape[-1]] = rng.permutation(v) * rng.choice([-1.0, 1.0], v.size)
    return stack


def draw_stack(problem, layout, count, size, seed):
    """count measurements of the problem's kind in the given layout."""
    rng = np.random.default_rng(seed)
    if problem == "dtn":
        return draw_measurements(rng, layout, (count, size, size))
    # far fields: complex, one matrix per wave parameter
    stack = draw_measurements(rng, layout, (count, 2, size, size)) * (3.0 + 4.0j)
    if layout == "random":
        stack += 1j * rng.normal(size=stack.shape)
    return stack


class TestPrunedPairSearch:
    """The pruned witness search returns the exhaustive loop's (i, j, d)."""

    @settings(max_examples=200, deadline=None)
    @given(
        problem=st.sampled_from(["dtn", "farfield"]),
        layout=st.sampled_from(["random", "duplicates", "ties", "one_column"]),
        count=st.integers(2, 14),
        size=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    # an equal-bound tie whose first pair's 2-norm rounds below the bound
    # while a later pair's is smaller still: without the slack the search
    # stops after the first pair (found with numpy 2.4.6 on OpenBLAS 0.3.31)
    @example(problem="dtn", layout="one_column", count=6, size=6, seed=0)
    def test_equals_exhaustive_search(self, problem, layout, count, size, seed):
        _, _, dist, lower_bound = _make_forward(ExperimentConfig(problem=problem))
        stack = draw_stack(problem, layout, count, size, seed)
        expected = exhaustive_pair(list(stack), dist)
        assert _min_norm_pair(stack, dist, lower_bound) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        problem=st.sampled_from(["dtn", "farfield"]),
        layout=st.sampled_from(["random", "duplicates", "ties", "one_column"]),
        count=st.integers(2, 14),
        size=st.integers(1, 8),
        lead=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(problem="dtn", layout="one_column", count=6, size=6, lead=6, seed=0)
    @example(problem="dtn", layout="one_column", count=6, size=6, lead=3, seed=0)
    def test_blocks_and_exact_distances_equal_exhaustive_search(
        self, problem, layout, count, size, lead, seed
    ):
        # the search sees leading blocks and takes full distances from exact
        _, _, dist, lower_bound = _make_forward(ExperimentConfig(problem=problem))
        stack = draw_stack(problem, layout, count, size, seed)
        blocks = stack[..., :lead, :lead]

        def exact(i, j):
            assert i < j
            return dist(stack[i], stack[j])

        expected = exhaustive_pair(list(stack), dist)
        assert _min_norm_pair(blocks, dist, lower_bound, exact) == expected

    def test_equal_distances_go_to_the_first_pair(self):
        # (0, 2) has the smaller bound and is measured first; (0, 1) ties it
        _, _, dist, lower_bound = _make_forward(ExperimentConfig(problem="dtn"))
        stack = np.stack([np.zeros((2, 2)), np.array([[2.0, 0.0], [0.0, 0.0]]), -np.ones((2, 2))])
        assert dist(stack[0], stack[1]) == dist(stack[0], stack[2])
        assert _min_norm_pair(stack, dist, lower_bound) == (0, 1, 2.0)


class TestChunkedBounds:
    """The pair bounds are taken ROWS measurements at a time, bit for bit
    those of one pass over each row's differences, on stacks of the forward
    maps the engine measures at default sizes."""

    @pytest.mark.parametrize(
        "problem, eps, count",
        [("dtn", 0.05, 2 * ROWS + 5), ("farfield", 0.08, ROWS + 3)],
        ids=["dtn", "farfield"],
    )
    def test_equal_to_one_pass(self, problem, eps, count):
        forward, _, _, lower_bound = _make_forward(ExperimentConfig(problem=problem))
        family = build_packing(ExperimentConfig(problem=problem).shape_class(), eps)
        patterns = family.sample_patterns(7, count)
        stack = np.stack([forward(family.shape(p))[0] for p in patterns])
        one_pass = np.concatenate([lower_bound(stack[i + 1 :] - stack[i]) for i in range(count - 1)])
        assert np.array_equal(_pair_bounds(stack, lower_bound), one_pass)


def traced_forward(monkeypatch):
    """Lists filled by every run_instability after this: the (profile
    bytes, measurement) of each forward solve in order, and the argument
    pairs of each measurement distance taken."""
    make = engine._make_forward
    solves, distances = [], []

    def wrapped(cfg):
        forward, degrees, dist, lower_bound = make(cfg)

        def counted_forward(shape):
            result = forward(shape)
            solves.append((shape.profile.values.tobytes(), result[0]))
            return result

        def counted_dist(m1, m2):
            distances.append((m1, m2))
            return dist(m1, m2)

        return counted_forward, degrees, counted_dist, lower_bound

    monkeypatch.setattr(engine, "_make_forward", wrapped)
    return solves, distances


class TestSolvedAgain:
    """The witness search keeps each measurement's leading LEAD x LEAD block
    and solves again only the shapes of the pairs it measures exactly."""

    def test_resolves_are_the_distinct_shapes_of_exact_pairs(self, monkeypatch):
        solves, distances = traced_forward(monkeypatch)
        cfg = ExperimentConfig(
            problem="dtn", n_max=32, quad_nodes=128, eps_list=(0.1,), budget=30, seed=5
        )
        (rec,) = run_instability(cfg).records
        first, again = solves[: rec.sample_count], solves[rec.sample_count :]
        full_shape = first[0][1].shape
        assert full_shape == (65, 65) and LEAD < 65
        exact_pairs = [pair for pair in distances if pair[0].shape == full_shape]
        assert exact_pairs and again
        # each solved-again shape is a sampled one, solved again once only
        keys = [key for key, _ in again]
        assert len(set(keys)) == len(keys)
        assert set(keys) <= {key for key, _ in first}
        # and the exact distances are taken on exactly those measurements
        solved_ids = {id(m) for _, m in again}
        assert {id(m) for pair in exact_pairs for m in pair} == solved_ids
        # the witness is the exhaustive search's over the full measurements
        full = [m for _, m in first]
        _, _, dist, _ = _make_forward(cfg)
        i, j, d = exhaustive_pair(full, dist)
        patterns = build_packing(cfg.shape_class(), 0.1).sample_patterns([cfg.seed, 0], cfg.budget)
        assert (rec.pattern_a, rec.pattern_b, rec.op_norm_diff) == (patterns[i], patterns[j], d)

    @pytest.mark.parametrize("problem", ["electrodes", "farfield"])
    def test_whole_blocks_solve_nothing_again(self, monkeypatch, problem):
        # the 8 x 8 resistance matrix and the 25 x 25 far fields at
        # scatter_n_max 12 fit in the block: default sizes, no second solve
        solves, distances = traced_forward(monkeypatch)
        report = run_instability(ExperimentConfig(problem=problem, eps_list=(0.1,), budget=6, seed=5))
        assert len(solves) == report.records[0].sample_count
        assert max(m.shape[-1] for pair in distances for m in pair) <= LEAD

    @pytest.mark.parametrize("problem", ["dtn", "ntd", "farfield"])
    def test_a_shape_solved_again_has_the_same_bytes(self, problem):
        """A shape solved again after other shapes have reused the kept work
        arrays gives the bytes of its first solve.  Checked at the BLAS
        thread count this test runs at; the engine solves again in the same
        process, so at the same count."""
        cfg = ExperimentConfig(problem=problem)
        forward = _make_forward(cfg)[0]
        family = build_packing(cfg.shape_class(), 0.05)
        shapes = [family.shape(p) for p in family.sample_patterns(13, 4)]
        first = forward(shapes[0])[0]
        for shape in shapes[1:]:
            forward(shape)
        assert forward(shapes[0])[0].tobytes() == first.tobytes()

    def test_search_holds_no_stack_of_full_measurements(self):
        # 60 full dtn measurements at n_max 32 take 60 x 65 x 65 doubles; the
        # traced peak of a whole run stays below that, so a run that stacks
        # full measurements again fails here
        cfg = ExperimentConfig(
            problem="dtn", n_max=32, quad_nodes=64, eps_list=(0.1,), budget=60, seed=0
        )
        tracemalloc.start()
        try:
            run_instability(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 65 * 65 * 8


@functools.cache
def eps_with_cells(problem, count):
    """An eps whose packing family at the default sizes of problem has count
    cells, by bisection: the cell count falls as eps grows."""
    cls = ExperimentConfig(problem=problem).shape_class()
    lo, hi = 1e-3, class_eps0(cls)
    for _ in range(60):
        eps = 0.5 * (lo + hi)
        cells = build_packing(cls, eps).cell_count
        if cells == count:
            return eps
        lo, hi = (eps, hi) if cells > count else (lo, eps)
    raise AssertionError(f"no eps with {count} cells")


class TestTurn:
    """K divides the default profile grid (2048), node counts (512, 192) and
    direction count (48) for every K that divides 16, so a one-bump shape
    turned by one cell is the bump of the next cell on every lattice, and its
    forward map is the turned map to round-off."""

    @settings(max_examples=24, deadline=None)
    @given(problem=st.sampled_from(["dtn", "ntd", "farfield"]),
           count=st.sampled_from([4, 8, 16]), data=st.data())
    def test_bump_turned_by_one_cell_is_next_cells_bump(self, problem, count, data):
        cell = data.draw(st.integers(0, count - 1), label="cell")
        cfg = ExperimentConfig(problem=problem)
        forward = _make_forward(cfg)[0]
        family = build_packing(cfg.shape_class(), eps_with_cells(problem, count))
        here = forward(family.shape(1 << cell))[0]
        there = forward(family.shape(1 << (cell + 1) % count))[0]
        assert np.abs(turn(here, 2.0 * math.pi / count) - there).max() <= 1e-13 * np.abs(there).max()

    def test_alternating_pair_distance_is_a_turn(self):
        # dtn at K 16 (eps 0.0482): pattern B is pattern A turned by one cell
        cfg = ExperimentConfig(problem="dtn")
        forward, _, dist, _ = _make_forward(cfg)
        family = build_packing(cfg.shape_class(), 0.0482)
        assert family.cell_count == 16
        pattern_a = sum(1 << c for c in range(0, 16, 2))
        measure_a = forward(family.shape(pattern_a))[0]
        solved = dist(measure_a, forward(family.shape(pattern_a << 1))[0])
        turned = dist(measure_a, turn(measure_a, 2.0 * math.pi / 16))
        assert solved == pytest.approx(3.5613e-4, rel=1e-4)
        assert abs(solved - turned) <= 1e-13 * np.abs(measure_a).max()
