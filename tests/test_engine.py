import math

import numpy as np
import pytest

from expinstab.conductivity import InclusionProblem, delta_dtn_weighted, fourier_degrees
from expinstab.engine import (
    ConfigError,
    ExperimentConfig,
    InstabilityReport,
    WitnessRecord,
    fit_instability_exponent,
    run_instability,
)
from expinstab.opnet import net_size_log_bound
from expinstab.packing import build_packing


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
            1.0,
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
        # the engine samples eps number `index` with default_rng([seed, index])
        family = build_packing(self.CFG.shape_class(), self.EPS)
        patterns = family.sample_patterns(np.random.default_rng([self.SEED, 0]), self.BUDGET)
        degrees = fourier_degrees(self.CFG.n_max)
        decay = np.exp(report.class_alpha2 * np.maximum.outer(degrees, degrees))
        smallest = 0.0
        for pattern in patterns:
            prob = InclusionProblem(
                family.shape(pattern), self.CFG.a, self.CFG.n_max, self.CFG.quad_nodes
            )
            entries = np.abs(delta_dtn_weighted(prob).entries)
            smallest = max(smallest, float(np.max(np.where(entries > 1e-14, entries * decay, 0.0))))
        assert report.class_c2 == pytest.approx(smallest, rel=1e-12)

    def test_net_bound_counts_every_basis_pair(self, report):
        rec = report.records[0]
        bound = net_size_log_bound(
            rec.delta_eps,
            report.class_c2,
            report.class_alpha2,
            1.0,
            degrees=fourier_degrees(self.CFG.n_max),
        )
        assert rec.net_log_bound == bound.log_bound
        assert rec.margin == rec.packing_log_count - bound.log_bound
