"""Command-line front end: config parsing, deterministic CSV output, and the
pack / basis / net / forward / scatter / instability subcommands.

Configs are plain key=value text ('#' comments); every key has a default, so
an empty file is a valid all-defaults config.  All output files use LF line
endings and 17-significant-digit floats, so identical (config, seed) runs are
byte-identical.  Exit codes: 0 success, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from expinstab import packing, shapes, spectral
from expinstab.conductivity import (
    ElectrodeConfig,
    InclusionProblem,
    SolverError,
    delta_dtn_weighted,
    diagonal_decay_fit,
    dtn_numeric,
    resistance_matrix,
)
from expinstab.engine import ConfigError, ExperimentConfig, InstabilityReport, run_instability
from expinstab.opnet import NetParams, net_size_log_bound
from expinstab.scattering import ObstacleProblem, ScatteringError, farfield_numeric, farfield_operator
from expinstab.shapes import load_shape

KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _parse_value(key: str, raw: str):
    """A config value from its text, typed like the key's default; a tuple
    is comma-separated floats (an empty text is the empty tuple)."""
    default = getattr(ExperimentConfig, key)
    if isinstance(default, tuple):
        return tuple(float(v) for v in raw.split(",")) if raw else ()
    return type(default)(raw)


def _dashed(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_config(settings: dict[str, tuple[str, str]]) -> ExperimentConfig:
    """Config from ``key -> (raw value, where it was set)``; every error
    names the key and where it was set."""
    values = {}
    for key, (raw, where) in settings.items():
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}", key) from exc
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{exc} ({settings[exc.key][1]})", exc.key) from None


def _read_settings(text: str) -> dict[str, tuple[str, str]]:
    settings = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        settings[key] = (raw.strip(), f"line {lineno}")
    return settings


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value lines with '#' comments; unknown keys and bad values
    are rejected with their line number; defaults fill everything else."""
    return _build_config(_read_settings(text))


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def config_text(cfg: ExperimentConfig) -> str:
    """Effective config echo; parses back to an identical config.

    The output directory is an invocation detail, not part of the experiment,
    so it is omitted (identical experiments echo identical bytes).
    """
    lines = [
        f"{f.name}={format_value(getattr(cfg, f.name))}"
        for f in fields(cfg)
        if f.name != "out"
    ]
    return "\n".join(lines) + "\n"


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """Deterministic CSV: fixed column order, 17-significant-digit floats,
    LF line endings."""
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def emit_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    """Matrix entries as (row, col, value) — complex values add an imag column."""
    rows = []
    is_complex = np.iscomplexobj(matrix)
    header = ["row", "col", "value", "imag"] if is_complex else ["row", "col", "value"]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            v = matrix[i, j]
            rows.append((i, j, float(v.real), float(v.imag)) if is_complex else (i, j, float(v)))
    write_csv(path, header, rows)


REPORT_HEADER = [
    "eps",
    "pattern_a",
    "pattern_b",
    "hausdorff",
    "resolution",
    "op_norm_diff",
    "delta_eps",
    "packing_log_count",
    "certified_log_cardinality",
    "net_log_bound",
    "counting_ok",
    "margin",
    "sample_count",
    "norm_floored",
]


def emit_report_csv(path: Path, report: InstabilityReport) -> None:
    rows = [
        tuple(getattr(r, name) for name in REPORT_HEADER)
        for r in report.records
    ]
    write_csv(path, REPORT_HEADER, rows)


def emit_report_plot_data(path: Path, report: InstabilityReport) -> None:
    """Two columns: log(1/eps) and log(-log ||dF||)."""
    rows = []
    for r in report.records:
        if 0.0 < r.op_norm_diff < 1.0:
            rows.append((math.log(1.0 / r.eps), math.log(-math.log(r.op_norm_diff))))
    write_csv(path, ["log_inv_eps", "log_neg_log_norm"], rows)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def _out_dir(cfg: ExperimentConfig) -> Path | None:
    if not cfg.out:
        return None
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(cfg: ExperimentConfig, out: Path | None) -> None:
    text = config_text(cfg)
    if out is not None:
        (out / "config.echo").write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _cmd_pack(cfg: ExperimentConfig) -> list[tuple]:
    cls = packing.ShapeClass(
        kind=cfg.kind, base=cfg.base_radius, m=cfg.m, beta=cfg.beta, grid_size=cfg.grid_size
    )
    eps = cfg.eps_list[0]
    family = packing.build_packing(cls, eps)
    rng = np.random.default_rng(cfg.seed)
    patterns = family.sample_patterns(rng, cfg.samples)
    built = [family.shape(p) for p in patterns]
    base = family.base_shape()
    samples = min(cfg.grid_size, 512)
    rows = []
    for idx, (pat, shape) in enumerate(zip(patterns, built)):
        to_base = shapes.hausdorff_distance(shape, base, samples=samples)
        min_pair = math.inf
        for jdx, other in enumerate(built):
            if jdx == idx:
                continue
            min_pair = min(min_pair, shapes.hausdorff_distance(shape, other, samples=samples))
        rows.append((pat, to_base, min_pair))
    return rows


def _cmd_basis(cfg: ExperimentConfig):
    spec = spectral.BasisSpec(cfg.domain, n_max=cfg.n_max)
    elements = spectral.enumerate_basis(spec)
    degree_rows = [(e.index, e.degree, e.parity, e.multiplicity) for e in elements]
    decay_rows = [(e.degree, spectral.interior_decay(e, cfg.r0)) for e in elements]
    return degree_rows, decay_rows


def _cmd_net(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    for delta in cfg.delta:
        params = NetParams.for_delta(delta, cfg.c2, cfg.alpha2, cfg.p)
        # every basis element of degree <= n_tilde on the domain, counted exactly
        basis = spectral.enumerate_basis(spectral.BasisSpec(cfg.domain, n_max=params.n_tilde))
        degrees = np.array([e.degree for e in basis])
        bound = net_size_log_bound(delta, cfg.c2, cfg.alpha2, cfg.p, degrees=degrees)
        rows.append(
            (
                delta,
                params.n_tilde,
                params.delta_prime,
                bound.psi_count,
                bound.pair_count,
                bound.log_bound,
            )
        )
    return rows


def _run_forward(cfg: ExperimentConfig, shape_file: str):
    shape = load_shape(shape_file)
    prob = InclusionProblem(shape, cfg.a, cfg.n_max, cfg.quad_nodes)
    dtn = dtn_numeric(prob)
    weighted = delta_dtn_weighted(prob)
    alpha_hat, c_hat, r2 = diagonal_decay_fit(weighted)
    fit_rows = [("alpha_hat", alpha_hat), ("c_hat", c_hat), ("r_squared", r2)]
    ecfg = ElectrodeConfig.equispaced(cfg.electrodes, cfg.electrode_coverage, cfg.electrode_z)
    r_mat = resistance_matrix(prob, ecfg, dtn_matrix=dtn)
    return dtn, fit_rows, r_mat


def _run_scatter(cfg: ExperimentConfig, shape_file: str):
    shape = load_shape(shape_file)
    prob = ObstacleProblem(
        shape, cfg.a_list, cfg.scatter_n_max, cfg.scatter_quad, cfg.directions
    )
    fields = farfield_numeric(prob)
    mag_rows, meta_rows = [], []
    for a in cfg.a_list:
        mat = fields[a]
        for i in range(mat.entries.shape[0]):
            for j in range(mat.entries.shape[1]):
                mag_rows.append((a, i, j, abs(mat.entries[i, j])))
        op = farfield_operator(mat)
        meta_rows.append((a, mat.reciprocity_residual, op.c2, op.alpha2))
    return mag_rows, meta_rows


SUBCOMMANDS = {
    "pack": "build a packing family and sample it",
    "basis": "degree tables and decay curves",
    "net": "net parameters and size bounds",
    "forward": "DtN and electrode forward maps",
    "scatter": "far-field matrices",
    "instability": "end-to-end instability run",
}


def build_parser() -> argparse.ArgumentParser:
    """One flag per config key, accepted before and after the subcommand; a
    flag given after the subcommand wins."""
    settings = argparse.ArgumentParser(add_help=False)
    for f in fields(ExperimentConfig):
        settings.add_argument(_dashed(f.name), dest=f.name, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="expinstab",
        description="Exponential-instability experiments for 2D elliptic inverse problems",
        parents=[settings],
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in SUBCOMMANDS.items():
        p_sub = sub.add_parser(name, help=text, parents=[settings], allow_abbrev=False)
        if name in ("forward", "scatter"):
            p_sub.add_argument("--shape-file", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _read_settings(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
        for key in KEYS:
            if hasattr(args, key):
                settings[key] = (getattr(args, key), f"flag {_dashed(key)}")
        cfg = _build_config(settings)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        out = _out_dir(cfg)
        if args.command == "pack":
            rows = _cmd_pack(cfg)
            _write_or_print(out, "pack.csv", ["pattern_id", "hausdorff_to_base", "min_pairwise_sampled"], rows)
        elif args.command == "basis":
            degree_rows, decay_rows = _cmd_basis(cfg)
            _write_or_print(out, "basis_degrees.csv", ["index", "degree", "parity", "multiplicity"], degree_rows)
            _write_or_print(out, "basis_decay.csv", ["degree", "interior_decay"], decay_rows)
        elif args.command == "net":
            rows = _cmd_net(cfg)
            _write_or_print(
                out, "net.csv",
                ["delta", "n_tilde", "delta_prime", "psi_count", "pair_count", "log_bound"],
                rows,
            )
        elif args.command == "forward":
            dtn, fit_rows, r_mat = _run_forward(cfg, args.shape_file)
            if out is None:
                raise ConfigError("forward requires --out")
            emit_matrix_csv(out / "dtn.csv", dtn)
            write_csv(out / "decay_fit.csv", ["name", "value"], fit_rows)
            emit_matrix_csv(out / "resistance.csv", r_mat)
        elif args.command == "scatter":
            mag_rows, meta_rows = _run_scatter(cfg, args.shape_file)
            _write_or_print(out, "farfield_magnitudes.csv", ["a", "row", "col", "abs_value"], mag_rows)
            _write_or_print(
                out, "reciprocity.csv", ["a", "residual", "c2_hat", "alpha2_hat"], meta_rows
            )
        elif args.command == "instability":
            report = run_instability(cfg)
            if out is None:
                raise ConfigError("instability requires --out")
            emit_report_csv(out / "report.csv", report)
            emit_report_plot_data(out / "plot_data.csv", report)
            write_csv(
                out / "summary.csv",
                ["name", "value"],
                [
                    ("problem", report.problem),
                    ("witness_pairs", "empirical_minimum_over_budget"),
                    ("q_hat", report.q_hat),
                    ("r_squared", report.r_squared),
                    ("theoretical_exponent", report.theoretical_exponent),
                    ("class_c2", report.class_c2),
                    ("class_alpha2", report.class_alpha2),
                    ("eps0", report.eps0),
                    ("seed", report.seed),
                ],
            )
        _echo_config(cfg, out)
    except (ConfigError, OSError, shapes.ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ScatteringError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _write_or_print(out: Path | None, name: str, header: list[str], rows: list[tuple]) -> None:
    if out is not None:
        write_csv(out / name, header, rows)
    else:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(format_value(v) for v in row) + "\n")


if __name__ == "__main__":
    sys.exit(main())
