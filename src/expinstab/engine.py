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
class constants come from the sampled forward maps: each shape's forward
returns its measurement and its class matrix, and ``run_instability`` fits
the class matrix with ``fit_envelope`` as soon as the shape is solved.
alpha2 is the smallest fitted decay rate and C2 the smallest constant making
the envelope exact for every sampled map at that common rate, per eps and
again over the whole run.  The class matrix is the weighted DtN difference
for dtn, the Neumann-to-Dirichlet difference for ntd and for electrodes (the
operator family the resistance bound factors through), and the entrywise
max over the wave parameters of the far-field magnitudes for farfield.

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

from expinstab import shapes
from expinstab.conductivity import (
    CONTRAST_GUARD,
    ElectrodeConfig,
    InclusionProblem,
    delta_dtn_weighted,
    dtn_numeric,
    fit_envelope,
    fourier_degrees,
    line_fit,
    ntd_from_dtn,
    resistance_matrix,
)
from expinstab.opnet import counting_check, delta_of_epsilon, net_size_log_bound
from expinstab.packing import ShapeClass, build_packing, class_eps0, packing_lower_bound
from expinstab.scattering import ObstacleProblem, farfield_numeric
from expinstab.shapes import Shape, hausdorff_distance, hausdorff_resolution

PROBLEMS = ("dtn", "ntd", "electrodes", "farfield")

NORM_FLOOR = 1e-300

# boundary samples behind the witness pair's Hausdorff distance and resolution
DISTANCE_SAMPLES = 512

# relative slack on a computed lower bound of a pair distance: rounding in the
# bound can then never prune the pair of smallest distance
BOUND_SLACK = 1e-10

# measurements per block of pair differences in the witness search's bounds:
# the block, not a whole stack's worth of differences, is the search's
# transient (16 x 25 x 25 doubles, 80 kB, at dtn n_max 32)
ROWS = 16

# rows and columns of each measurement that the witness search keeps: the
# leading block, degrees <= 12 in fourier_degrees order.  A block's column,
# 2- and Frobenius norms bound the full matrix's from below, so the search
# prunes on blocks and solves again only the shapes it measures exactly
LEAD = 25


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
    "a": (
        lambda v: v > 0 and (v == 1.0 or abs(v - 1.0) >= CONTRAST_GUARD),
        f"contrast must be positive and 1 or at least {CONTRAST_GUARD} away from 1",
    ),
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
    "delta": (
        lambda v: v and all(0 < d < 1 / math.e for d in v),
        "delta values must lie in (0, 1/e)",
    ),
    "c2": (lambda v: v > 0, "class constant must be positive"),
    "alpha2": (lambda v: v > 0, "class constant must be positive"),
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


def check_eps_list(cls: ShapeClass, eps_list: tuple[float, ...]) -> None:
    """ConfigError naming eps0 when an eps of eps_list is not below the
    class_eps0 of cls, the largest eps at which two cells fit."""
    eps0 = class_eps0(cls)
    if max(eps_list) >= eps0:
        message = f"eps_list: eps {max(eps_list)} is not below eps0={eps0:.6g} of its shape class"
        raise ConfigError(message, "eps_list")


def _make_forward(cfg: ExperimentConfig):
    """The problem's forward map ``shape -> (measurement, class matrix)``, the
    degrees of the class matrix's rows and columns, the measurement distance,
    and a lower bound on that distance evaluated in bulk on a stack of
    measurement differences."""
    if cfg.problem in ("dtn", "ntd", "electrodes"):
        dtn_degrees = fourier_degrees(cfg.n_max)
        mean_zero_degrees = dtn_degrees[1:]
        degrees = dtn_degrees if cfg.problem == "dtn" else mean_zero_degrees
        ecfg = ElectrodeConfig.equispaced(cfg.electrodes, cfg.electrode_coverage, cfg.electrode_z)
        dtn_base = np.diag(dtn_degrees)  # the homogeneous disk's DtN matrix
        ntd_base = np.diag(1.0 / mean_zero_degrees)

        def forward(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
            prob = InclusionProblem(shape, cfg.a, cfg.n_max, cfg.quad_nodes)
            if cfg.problem == "dtn":
                weighted = delta_dtn_weighted(prob)
                return weighted, weighted
            ntd = ntd_from_dtn(dtn_base + dtn_numeric(prob))
            measurement = ntd if cfg.problem == "ntd" else resistance_matrix(ntd, ecfg)
            return measurement, ntd - ntd_base

        def dist(m1: np.ndarray, m2: np.ndarray) -> float:
            return float(np.linalg.norm(m1 - m2, 2))

        def lower_bound(diffs: np.ndarray) -> np.ndarray:
            # ||A||_2 >= max_j ||A e_j||: the largest column norm
            return np.sqrt(np.einsum("kij,kij->kj", diffs, diffs).max(axis=1))

        return forward, degrees, dist, lower_bound

    degrees = fourier_degrees(cfg.scatter_n_max)

    def forward(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
        prob = ObstacleProblem(shape, cfg.a_list, cfg.scatter_n_max, cfg.scatter_quad, cfg.directions)
        fields, _ = farfield_numeric(prob)
        return fields, np.abs(fields).max(axis=0)

    def dist(m1: np.ndarray, m2: np.ndarray) -> float:
        # sup over the wave-parameter set of the L^2 far-field difference
        return float(max(np.linalg.norm(d.ravel()) for d in m1 - m2))

    def lower_bound(diffs: np.ndarray) -> np.ndarray:
        # the same sup, summed in another order
        return np.linalg.norm(diffs, axis=(2, 3)).max(axis=1)

    return forward, degrees, dist, lower_bound


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


def _pair_bounds(stack: np.ndarray, lower_bound) -> np.ndarray:
    """``lower_bound`` of every difference ``stack[j] - stack[i]``, i < j, in
    ``np.triu_indices`` order.  At most ROWS differences exist at a time;
    each bound reduces within its own difference, so the values are those of
    one pass over all of a row's differences."""
    count = len(stack)
    return np.concatenate([
        lower_bound(stack[s : s + ROWS] - stack[i])
        for i in range(count - 1)
        for s in range(i + 1, count, ROWS)
    ])


def _min_norm_pair(blocks: np.ndarray, dist, lower_bound, exact=None) -> tuple[int, int, float]:
    """The pair i < j of measurements of smallest distance and that
    distance; among equal distances the lexicographically first pair wins.

    ``blocks[k]`` is measurement k itself when ``exact`` is None.  Otherwise
    it is a leading block of measurement k, whose ``dist`` and
    ``lower_bound`` bound the full measurements' from below, and
    ``exact(i, j)`` is the distance of the full measurements i and j.
    Pairs are visited in ascending order of ``lower_bound``.  A pair is
    measured only while its bound, shrunk by ``BOUND_SLACK``, can still
    reach the best distance found, and measured exactly only when its block
    distance, shrunk alike, can too; so the result is the exhaustive
    search's over the full measurements.
    """
    rows, cols = np.triu_indices(len(blocks), 1)
    bounds = _pair_bounds(blocks, lower_bound)
    best = (math.inf, 0, 1)
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] * (1.0 - BOUND_SLACK) > best[0]:
            break
        i, j = int(rows[k]), int(cols[k])
        d = dist(blocks[i], blocks[j])
        if exact is not None:
            if d * (1.0 - BOUND_SLACK) > best[0]:
                continue
            d = exact(i, j)
        best = min(best, (d, i, j))
    d, i, j = best
    return i, j, d


def _solved_again(forward, dist, family, patterns):
    """``exact(i, j)``: the distance of the full measurements of patterns i
    and j, each pattern's shape solved again on first use and kept as long
    as ``exact`` is."""
    solved = {}

    def exact(i: int, j: int) -> float:
        for k in (i, j):
            if k not in solved:
                solved[k] = forward(family.shape(patterns[k]))[0]
        return dist(solved[i], solved[j])

    return exact


def run_instability(cfg: ExperimentConfig) -> InstabilityReport:
    """For each eps of ``cfg.eps_list``, draw <= ``cfg.budget`` patterns of
    the packing family, compute the forward maps, fit the envelope of each
    class matrix, and record the pair minimizing the measurement-space
    distance.  Deterministic: identical configs (seed included) give
    identical reports.

    Only each measurement's leading ``LEAD`` x ``LEAD`` block is kept.
    When that block is the whole measurement (electrodes, and far fields
    at ``scatter_n_max`` <= 12) the search measures the kept stack.
    Otherwise the shapes of the pairs it must measure exactly are solved
    again, once per pattern, and dropped after the search; a solve is
    bit for bit reproducible at a fixed BLAS thread count.
    """
    cls = cfg.shape_class()
    check_eps_list(cls, cfg.eps_list)
    forward, degrees, dist, lower_bound = _make_forward(cfg)
    records = []
    fits = []
    class_alpha2 = math.inf
    eps0 = math.nan
    for index, eps in enumerate(cfg.eps_list):
        family = build_packing(cls, float(eps))
        eps0 = family.eps0
        patterns = family.sample_patterns([cfg.seed, index], cfg.budget)
        # only the leading blocks are kept, in one array: 1.0 MB at dtn
        # budget 200, where the full measurements took 6.8 MB.  No shape
        # outlives its solve and no class matrix its fit; the shapes that
        # the search measures exactly and the witness pair's are built
        # again from their patterns.
        stack, eps_fits = None, []
        for k, pattern in enumerate(patterns):
            measurement, class_matrix = forward(family.shape(pattern))
            lead = measurement[..., :LEAD, :LEAD]
            if stack is None:
                stack = np.empty((len(patterns), *lead.shape), measurement.dtype)
            stack[k] = lead
            eps_fits.append(fit_envelope(class_matrix, degrees))
        whole = stack.shape[1:] == measurement.shape
        exact = None if whole else _solved_again(forward, dist, family, patterns)
        i, j, best = _min_norm_pair(stack, dist, lower_bound, exact)
        exact = None  # drops the measurements solved again
        floored = best < NORM_FLOOR
        best = max(best, NORM_FLOOR)
        shape_i, shape_j = family.shape(patterns[i]), family.shape(patterns[j])
        d_h = hausdorff_distance(shape_i, shape_j, samples=DISTANCE_SAMPLES)
        res = hausdorff_resolution(shape_i, shape_j, samples=DISTANCE_SAMPLES)
        alpha2 = min(f.alpha2 for f in eps_fits)
        c2 = max(f.c2_at(alpha2) for f in eps_fits)
        fits.extend(eps_fits)
        class_alpha2 = min(class_alpha2, alpha2)
        alpha1 = 1.0 / cfg.m  # (N-1)/m at N = 2
        d_eps = delta_of_epsilon(float(eps), alpha1)
        packing_log = packing_lower_bound(float(eps), cfg.m, family.eps0)
        net_log = net_size_log_bound(
            d_eps, c2, alpha2, degrees=degrees, complex_entries=np.iscomplexobj(stack)
        ).log_bound
        ok, margin = counting_check(packing_log, net_log)
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
    non-exponential, and a line needs the usable norms at two distinct eps
    at least (else nan, nan)."""
    eps = np.array([r.eps for r in report.records])
    norms = np.array([max(r.op_norm_diff, NORM_FLOOR) for r in report.records])
    usable = norms < 1.0
    if len(set(eps[usable].tolist())) < 2:
        return math.nan, math.nan
    slope, _, r2 = line_fit(np.log(1.0 / eps[usable]), np.log(-np.log(norms[usable])))
    return slope, r2
