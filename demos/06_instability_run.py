"""End-to-end instability experiment at demo scale.

For each eps the engine samples packing patterns, solves the forward problem
per shape, and reports the closest measurement pair among shapes that are
pairwise >= eps apart.  The minimized distance collapses much faster than
eps, and the double-log regression estimates the instability exponent.  The
reported pair is an empirical minimum over the budget, not the theoretical
pigeonhole optimum.
"""

import numpy as np

from expinstab.engine import ExperimentConfig, run_instability

cfg = ExperimentConfig(
    problem="dtn", m=1, beta=1.0, n_max=24, quad_nodes=256,
    eps_list=(0.12, 0.08, 0.05, 0.03), budget=40, seed=7,
)
report = run_instability(cfg)

print("per-eps witness pairs (empirical minimum over a 40-shape budget):")
for rec in report.records:
    print(
        f"  eps = {rec.eps:5.2f}: ||dF|| = {rec.op_norm_diff:.3e}, "
        f"hausdorff = {rec.hausdorff:.4f}, delta(eps) = {rec.delta_eps:.3e}, "
        f"margin = {rec.margin:8.1f}"
    )

print(
    f"\nfitted instability exponent q_hat = {report.q_hat:.3f} "
    f"(r^2 = {report.r_squared:.3f}); theoretical pigeonhole target "
    f"1/(4m) = {report.theoretical_exponent}"
)
print(
    "norms shrink by"
    f" {report.records[0].op_norm_diff / report.records[-1].op_norm_diff:.0f}x while the"
    " shapes stay eps-separated: measurements cannot stably distinguish them."
)
