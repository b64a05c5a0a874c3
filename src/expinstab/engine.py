"""End-to-end instability experiments: packing families composed with forward
maps, witness-pair search, and instability-exponent fits.

The pigeonhole argument is existential over exponentially many shapes; at
desk scale the engine draws a random subsample of patterns and reports the
best pair found, labeled as an empirical minimum over the budget, never as
the theoretical optimum.  Every recorded pair is admissible by construction:
distinct patterns of one packing family are >= eps apart.

Counting bookkeeping: the packing side uses the certified lower-bound
formula; the net side counts the quantized delta(eps)-net of the truncated
class the engine measures.  Every basis pair of degree <= n_tilde is counted
from the class degree sequence (65 elements at n_max = 32), and a complex
(far-field) entry counts the squared component grid that quantize uses.  The
class constants come from the sampled forward maps: alpha2 is the smallest
fitted decay rate and C2 the smallest constant making the envelope exact for
every sampled map at that common rate, per eps and again over the whole run.
For the electrode problem the class constants are fitted on the
Neumann-to-Dirichlet differences, the operator family the resistance bound
factors through.

With these exact counts the pigeonhole margin is negative (about -1e3) on
the dtn grid eps in {0.12, ..., 0.03} at n_max = 32; the class constants of
that run put the crossover eps* near 5e-7.

A run is described by one ``ExperimentConfig``, the same settings the CLI
reads from config files and flags::

    report = run_instability(ExperimentConfig(problem="ntd", eps_list=(0.1, 0.06), budget=40))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from expinstab import shapes, spectral
from expinstab.conductivity import (
    ElectrodeConfig,
    InclusionProblem,
    delta_dtn_weighted,
    dtn_numeric,
    fit_envelope,
    fourier_degrees,
    ntd_from_dtn,
    resistance_matrix,
)
from expinstab.opnet import counting_check, delta_of_epsilon, net_size_log_bound
from expinstab.packing import ShapeClass, build_packing, packing_lower_bound
from expinstab.scattering import ObstacleProblem, farfield_numeric
from expinstab.shapes import Shape, hausdorff_distance, hausdorff_resolution

PROBLEMS = ("dtn", "ntd", "electrodes", "farfield")

NORM_FLOOR = 1e-300

# boundary samples behind the witness pair's Hausdorff distance and resolution
DISTANCE_SAMPLES = 512


class ConfigError(ValueError):
    """Invalid configuration input; ``key`` names the setting at fault."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


# key -> (test of its value, the rule it states)
_RULES = {
    "problem": (lambda v: v in PROBLEMS, f"must be one of {PROBLEMS}"),
    "kind": (lambda v: v in shapes.KINDS, f"must be one of {shapes.KINDS}"),
    "m": (lambda v: v >= 1, "smoothness order must be >= 1"),
    "beta": (lambda v: v > 0, "norm bound must be positive"),
    "eps_list": (lambda v: v and all(0 < e < 1 for e in v), "eps values must lie in (0, 1)"),
    "a": (lambda v: v > 0, "contrast must be positive"),
    "a_list": (lambda v: v and all(x > 0 for x in v), "wave parameters must be positive"),
    "n_max": (lambda v: v >= 1, "mode count must be >= 1"),
    "quad_nodes": (lambda v: v >= 32, "quadrature nodes must be >= 32"),
    "scatter_n_max": (lambda v: v >= 1, "mode count must be >= 1"),
    "scatter_quad": (lambda v: v >= 32 and v % 2 == 0, "quadrature nodes must be even and >= 32"),
    "directions": (lambda v: v >= 4 and v % 2 == 0, "direction count must be even and >= 4"),
    "budget": (lambda v: v >= 2, "budget must be >= 2"),
    "samples": (lambda v: v >= 1, "samples must be >= 1"),
    "seed": (lambda v: v >= 0, "seed must be >= 0"),
    "base_radius": (lambda v: v > 0, "base radius must be positive"),
    "grid_size": (lambda v: v >= 64, "grid size must be >= 64"),
    "electrodes": (lambda v: v >= 2, "need at least two electrodes"),
    "electrode_coverage": (lambda v: 0 < v < 1, "coverage must lie in (0, 1)"),
    "electrode_z": (lambda v: v > 0, "impedance must be positive"),
    "delta": (lambda v: all(0 < d < 1 / math.e for d in v), "delta values must lie in (0, 1/e)"),
    "c2": (lambda v: v > 0, "class constant must be positive"),
    "alpha2": (lambda v: v > 0, "class constant must be positive"),
    "p": (lambda v: v > 0, "class constant must be positive"),
    "domain": (lambda v: v in spectral.DOMAIN_KINDS, f"must be one of {spectral.DOMAIN_KINDS}"),
    "r0": (lambda v: 0 < v < 1, "r0 must lie in (0, 1)"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment, validated on construction.

    The field names are the config-file keys; each is also a CLI flag with
    dashes for underscores.  ``kind`` and ``base_radius`` are read only by
    the ``pack`` subcommand: instability runs use radial subgraphs about the
    base disk of their problem (see ``shape_class``).
    """

    problem: str = "dtn"
    kind: str = shapes.RADIAL_SUBGRAPH
    m: int = 1
    beta: float = 1.0
    eps_list: tuple[float, ...] = (0.12, 0.08, 0.05, 0.03)
    a: float = 2.0
    a_list: tuple[float, ...] = (1.0, 4.0)
    n_max: int = 32
    quad_nodes: int = 512
    scatter_n_max: int = 12
    scatter_quad: int = 192
    directions: int = 48
    budget: int = 200
    samples: int = 50
    seed: int = 0
    base_radius: float = 0.5
    grid_size: int = 2048
    electrodes: int = 8
    electrode_coverage: float = 0.5
    electrode_z: float = 0.1
    delta: tuple[float, ...] = (0.01,)
    c2: float = 1.0
    alpha2: float = 0.5
    p: float = 1.0
    domain: str = spectral.FULL_CIRCLE
    r0: float = 0.8
    out: str = ""

    def __post_init__(self):
        for key, (ok, rule) in _RULES.items():
            value = getattr(self, key)
            if not ok(value):
                raise ConfigError(f"{key}: {rule}, got {value!r}", key)

    def shape_class(self) -> ShapeClass:
        base = 1.0 if self.problem == "farfield" else 0.5
        return ShapeClass(
            kind=shapes.RADIAL_SUBGRAPH,
            base=base,
            m=self.m,
            beta=self.beta,
            grid_size=self.grid_size,
        )


@dataclass(frozen=True)
class _ForwardResult:
    measurement: object
    class_entries: np.ndarray
    class_degrees: np.ndarray


def _make_forward(cfg: ExperimentConfig):
    if cfg.problem in ("dtn", "ntd", "electrodes"):
        mean_zero_degrees = fourier_degrees(cfg.n_max)[1:]
        ecfg = ElectrodeConfig.equispaced(cfg.electrodes, cfg.electrode_coverage, cfg.electrode_z)
        ntd_base = np.diag(1.0 / mean_zero_degrees)

        def forward(shape: Shape) -> _ForwardResult:
            prob = InclusionProblem(shape, cfg.a, cfg.n_max, cfg.quad_nodes)
            if cfg.problem == "dtn":
                op = delta_dtn_weighted(prob)
                return _ForwardResult(op.entries, op.entries, op.degrees)
            dtn = dtn_numeric(prob)
            ntd = ntd_from_dtn(dtn)
            if cfg.problem == "ntd":
                return _ForwardResult(ntd, ntd - ntd_base, mean_zero_degrees)
            r_mat = resistance_matrix(prob, ecfg, dtn_matrix=dtn)
            return _ForwardResult(r_mat, ntd - ntd_base, mean_zero_degrees)

        def dist(f1: _ForwardResult, f2: _ForwardResult) -> float:
            return float(np.linalg.norm(f1.measurement - f2.measurement, 2))

        return forward, dist

    degrees = fourier_degrees(cfg.scatter_n_max)

    def forward(shape: Shape) -> _ForwardResult:
        prob = ObstacleProblem(shape, cfg.a_list, cfg.scatter_n_max, cfg.scatter_quad, cfg.directions)
        fields = farfield_numeric(prob)
        stacked = np.stack([fields[a].entries for a in cfg.a_list])
        return _ForwardResult(stacked, np.abs(stacked).max(axis=0), degrees)

    def dist(f1: _ForwardResult, f2: _ForwardResult) -> float:
        # sup over the wave-parameter set of the L^2 far-field difference
        diffs = f1.measurement - f2.measurement
        return float(max(np.linalg.norm(d.ravel()) for d in diffs))

    return forward, dist


@dataclass(frozen=True)
class WitnessRecord:
    """One per-eps result: the best pair found within the sampling budget."""

    eps: float
    pattern_a: int
    pattern_b: int
    hausdorff: float
    resolution: float
    op_norm_diff: float
    delta_eps: float
    packing_log_count: float
    certified_log_cardinality: float
    net_log_bound: float
    counting_ok: bool
    margin: float
    sample_count: int
    norm_floored: bool


@dataclass(frozen=True)
class InstabilityReport:
    problem: str
    m: int
    beta: float
    seed: int
    budget: int
    records: tuple[WitnessRecord, ...]
    q_hat: float = math.nan
    r_squared: float = math.nan
    theoretical_exponent: float = math.nan
    class_c2: float = math.nan
    class_alpha2: float = math.nan
    eps0: float = math.nan


def _min_norm_pair(results: list[_ForwardResult], dist) -> tuple[int, int, float]:
    best = (0, 1, math.inf)
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            d = dist(results[i], results[j])
            if d < best[2]:
                best = (i, j, d)
    return best


def run_instability(cfg: ExperimentConfig) -> InstabilityReport:
    """For each eps of ``cfg.eps_list``, draw <= ``cfg.budget`` patterns of
    the packing family, compute the forward maps, and record the pair
    minimizing the measurement-space distance.  Deterministic: identical
    configs (seed included) give identical reports.
    """
    forward, dist = _make_forward(cfg)
    cls = cfg.shape_class()
    records = []
    fits = []
    class_alpha2 = math.inf
    eps0 = math.nan
    for index, eps in enumerate(cfg.eps_list):
        family = build_packing(cls, float(eps))
        eps0 = family.eps0
        rng = np.random.default_rng([cfg.seed, index])
        patterns = family.sample_patterns(rng, cfg.budget)
        built = [family.shape(p) for p in patterns]
        results = [forward(s) for s in built]
        i, j, best = _min_norm_pair(results, dist)
        floored = best < NORM_FLOOR
        best = max(best, NORM_FLOOR)
        d_h = hausdorff_distance(built[i], built[j], samples=DISTANCE_SAMPLES)
        res = hausdorff_resolution(built[i], built[j], samples=DISTANCE_SAMPLES)
        eps_fits = [fit_envelope(np.abs(r.class_entries), r.class_degrees) for r in results]
        alpha2 = min(f.alpha2 for f in eps_fits)
        c2 = max(f.c2_at(alpha2) for f in eps_fits)
        fits.extend(eps_fits)
        class_alpha2 = min(class_alpha2, alpha2)
        alpha1 = 1.0 / cfg.m  # (N-1)/m at N = 2
        d_eps = delta_of_epsilon(float(eps), alpha1, 1.0)
        packing_log = packing_lower_bound(float(eps), cfg.m, cfg.beta, 2, family.eps0)
        net_log = net_size_log_bound(
            d_eps,
            c2,
            alpha2,
            1.0,
            degrees=results[0].class_degrees,
            complex_entries=np.iscomplexobj(results[0].measurement),
        ).log_bound
        ok, margin = counting_check(float(eps), packing_log, net_log)
        records.append(
            WitnessRecord(
                eps=float(eps),
                pattern_a=patterns[i],
                pattern_b=patterns[j],
                hausdorff=d_h,
                resolution=res,
                op_norm_diff=best,
                delta_eps=d_eps,
                packing_log_count=packing_log,
                certified_log_cardinality=family.certified_log_cardinality,
                net_log_bound=net_log,
                counting_ok=ok,
                margin=margin,
                sample_count=len(patterns),
                norm_floored=floored,
            )
        )
    report = InstabilityReport(
        problem=cfg.problem,
        m=cfg.m,
        beta=cfg.beta,
        seed=cfg.seed,
        budget=cfg.budget,
        records=tuple(records),
        theoretical_exponent=1.0 / (4.0 * cfg.m),
        class_c2=max((f.c2_at(class_alpha2) for f in fits), default=0.0),
        class_alpha2=class_alpha2,
        eps0=eps0,
    )
    q_hat, r2 = fit_instability_exponent(report)
    return replace(report, q_hat=q_hat, r_squared=r2)


def fit_instability_exponent(report: InstabilityReport) -> tuple[float, float]:
    """Regression of log(-log ||dF||) against log(1/eps): the slope estimates
    the instability exponent.  The theoretical target 1/(4m) at N = 2 is
    carried in the report but not asserted (sampled minima need not attain
    the pigeonhole bound); norms at or above 1 are excluded as
    non-exponential."""
    eps = np.array([r.eps for r in report.records])
    norms = np.array([max(r.op_norm_diff, NORM_FLOOR) for r in report.records])
    if eps.size < 2:
        return math.nan, math.nan
    usable = norms < 1.0
    if usable.sum() < 2:
        return math.nan, 0.0
    x = np.log(1.0 / eps[usable])
    y = np.log(-np.log(norms[usable]))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
