"""Command-line front end: config parsing, deterministic CSV output, and the
pack / net / forward / scatter / instability subcommands.

Each subcommand returns its tables, ``{file name: (header, rows)}``; ``main``
writes them, then the config echo, to files under ``--out`` or, without
``--out``, prints the same bytes to stdout in the same order.

Configs are plain key=value text ('#' comments); every key has a default, so
an empty file is a valid all-defaults config.  All output files use LF line
endings and 17-significant-digit floats, so identical (config, seed) runs are
byte-identical.  Exit codes: 0 success, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from expinstab import engine, packing, shapes
from expinstab.conductivity import (
    ElectrodeConfig,
    InclusionProblem,
    SolverError,
    diagonal_decay_fit,
    dtn_numeric,
    fit_envelope,
    fourier_degrees,
    ntd_from_dtn,
    resistance_matrix,
    weighted_delta,
)
from expinstab.engine import ConfigError, ExperimentConfig, WitnessRecord, run_instability
from expinstab.opnet import n_tilde, net_size_log_bound
from expinstab.scattering import ObstacleProblem, farfield_numeric
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
    so it is omitted (identical experiments echo identical bytes).  A last
    '#' comment line records the BLAS build and ``OPENBLAS_NUM_THREADS``
    (or ``unset``): the outputs are byte-identical only at a fixed BLAS
    build and thread count.
    """
    lines = [
        f"{f.name}={format_value(getattr(cfg, f.name))}"
        for f in fields(cfg)
        if f.name != "out"
    ]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    lines.append(f"# blas={blas['name']} {blas['version']} OPENBLAS_NUM_THREADS={threads}")
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    return "".join(",".join(format_value(v) for v in line) + "\n" for line in [header, *rows])


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """Deterministic CSV: fixed column order, 17-significant-digit floats,
    LF line endings."""
    path.write_text(_csv_text(header, rows), encoding="utf-8", newline="\n")


Tables = dict[str, tuple[list[str], list[tuple]]]


def _matrix_table(matrix: np.ndarray) -> tuple[list[str], list[tuple]]:
    return ["row", "col", "value"], [(i, j, v) for (i, j), v in np.ndenumerate(matrix)]


REPORT_HEADER = [f.name for f in fields(WitnessRecord)]


def _shape_problem(problem_type, shape_file: str, *settings):
    """``problem_type(shape, *settings)`` on the shape in ``shape_file``; a
    missing header key, a malformed value or a shape the problem rejects is
    a config error that names the file."""
    try:
        return problem_type(load_shape(shape_file), *settings)
    except KeyError as exc:
        message = f"{shape_file}: missing header key {exc.args[0]!r}"
        raise ConfigError(message, "shape_file") from None
    except ValueError as exc:
        raise ConfigError(f"{shape_file}: {exc}", "shape_file") from None


# ----------------------------------------------------------------------------
# subcommands: (cfg, shape file or None) -> tables
# ----------------------------------------------------------------------------

def _cmd_pack(cfg: ExperimentConfig, shape_file: str | None) -> Tables:
    cls = packing.ShapeClass(
        kind=cfg.kind, base=cfg.base_radius, m=cfg.m, beta=cfg.beta, grid_size=cfg.grid_size
    )
    engine.check_eps_list(cls, cfg.eps_list)
    eps = cfg.eps_list[0]
    family = packing.build_packing(cls, eps)
    patterns = family.sample_patterns(cfg.seed, cfg.samples)
    built = [family.shape(p) for p in patterns]
    base = family.base_shape()
    samples = min(cfg.grid_size, 512)
    # the distance is symmetric: visit each unordered pair once
    min_pair = [math.inf] * len(built)
    for idx, jdx in zip(*np.triu_indices(len(built), k=1)):
        d = shapes.hausdorff_distance(built[idx], built[jdx], samples=samples)
        min_pair[idx] = min(min_pair[idx], d)
        min_pair[jdx] = min(min_pair[jdx], d)
    rows = [
        (pat, shapes.hausdorff_distance(shape, base, samples=samples), mp)
        for pat, shape, mp in zip(patterns, built, min_pair)
    ]
    return {"pack.csv": (["pattern_id", "hausdorff_to_base", "min_pairwise_sampled"], rows)}


def _cmd_net(cfg: ExperimentConfig, shape_file: str | None) -> Tables:
    rows = []
    for delta in cfg.delta:
        # every circle basis element of degree <= n_tilde, counted exactly
        degrees = fourier_degrees(n_tilde(delta, cfg.c2, cfg.alpha2))
        b = net_size_log_bound(delta, cfg.c2, cfg.alpha2, degrees=degrees)
        rows.append((delta, b.n_tilde, b.delta_prime, b.psi_count, b.pair_count, b.log_bound))
    header = ["delta", "n_tilde", "delta_prime", "psi_count", "pair_count", "log_bound"]
    return {"net.csv": (header, rows)}


def _cmd_forward(cfg: ExperimentConfig, shape_file: str | None) -> Tables:
    prob = _shape_problem(InclusionProblem, shape_file, cfg.a, cfg.n_max, cfg.quad_nodes)
    delta = dtn_numeric(prob)
    dtn = np.diag(fourier_degrees(cfg.n_max)) + delta
    weighted = weighted_delta(delta, cfg.n_max)
    alpha_hat, c_hat, r2 = diagonal_decay_fit(weighted, fourier_degrees(cfg.n_max))
    fit_rows = [("alpha_hat", alpha_hat), ("c_hat", c_hat), ("r_squared", r2)]
    ecfg = ElectrodeConfig.equispaced(cfg.electrodes, cfg.electrode_coverage, cfg.electrode_z)
    return {
        "dtn.csv": _matrix_table(dtn),
        "decay_fit.csv": (["name", "value"], fit_rows),
        "resistance.csv": _matrix_table(resistance_matrix(ntd_from_dtn(dtn), ecfg)),
    }


def _cmd_scatter(cfg: ExperimentConfig, shape_file: str | None) -> Tables:
    prob = _shape_problem(
        ObstacleProblem, shape_file, cfg.a_list, cfg.scatter_n_max, cfg.scatter_quad, cfg.directions
    )
    fields, residuals = farfield_numeric(prob)
    degrees = fourier_degrees(cfg.scatter_n_max)
    mag_rows, meta_rows = [], []
    for a, field, residual in zip(cfg.a_list, fields, residuals):
        # scalar abs: the array np.abs can differ in the last bit
        mag_rows += [(a, i, j, abs(v)) for (i, j), v in np.ndenumerate(field)]
        fit = fit_envelope(np.abs(field), degrees)
        meta_rows.append((a, residual, fit.c2, fit.alpha2))
    return {
        "farfield_magnitudes.csv": (["a", "row", "col", "abs_value"], mag_rows),
        "reciprocity.csv": (["a", "residual", "c2_hat", "alpha2_hat"], meta_rows),
    }


def _cmd_instability(cfg: ExperimentConfig, shape_file: str | None) -> Tables:
    report = run_instability(cfg)
    return {
        "report.csv": (
            REPORT_HEADER,
            [tuple(getattr(r, name) for name in REPORT_HEADER) for r in report.records],
        ),
        # log(1/eps) against log(-log ||dF||)
        "plot_data.csv": (
            ["log_inv_eps", "log_neg_log_norm"],
            [
                (math.log(1.0 / r.eps), math.log(-math.log(r.op_norm_diff)))
                for r in report.records
                if 0.0 < r.op_norm_diff < 1.0
            ],
        ),
        "summary.csv": (
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
        ),
    }


# name -> (help, function, whether it needs --out)
SUBCOMMANDS = {
    "pack": ("build a packing family and sample it", _cmd_pack, False),
    "net": ("net parameters and size bounds", _cmd_net, False),
    "forward": ("DtN and electrode forward maps", _cmd_forward, True),
    "scatter": ("far-field matrices", _cmd_scatter, False),
    "instability": ("end-to-end instability run", _cmd_instability, True),
}


class _Parser(argparse.ArgumentParser):
    """An argparse error (an unknown flag, say) is a one-line config error."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One flag per config key, accepted before and after the subcommand; a
    flag given after the subcommand wins."""
    settings = argparse.ArgumentParser(add_help=False)
    for f in fields(ExperimentConfig):
        settings.add_argument(_dashed(f.name), dest=f.name, default=argparse.SUPPRESS)
    parser = _Parser(
        prog="expinstab",
        description="Exponential-instability experiments for 2D elliptic inverse problems",
        parents=[settings],
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in SUBCOMMANDS.items():
        p_sub = sub.add_parser(name, help=text, parents=[settings], allow_abbrev=False)
        if name in ("forward", "scatter"):
            p_sub.add_argument("--shape-file", required=True)
    return parser


def _check_flags(argv: list[str]) -> None:
    """Reject the first long flag that names no option.  Left to argparse, an
    unknown flag before the subcommand passes its value on as the subcommand
    (`--p 1 net` reads as the subcommand '1')."""
    known = {"--help", "--config", "--shape-file", *map(_dashed, KEYS)}
    for token in argv:
        if token == "--":
            return
        flag = token.split("=", 1)[0]
        if flag.startswith("--") and flag not in known:
            raise ConfigError(f"unrecognized flag {flag}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        _check_flags(argv)
        args = build_parser().parse_args(argv)
        settings = _read_settings(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
        for key in KEYS:
            if hasattr(args, key):
                settings[key] = (getattr(args, key), f"flag {_dashed(key)}")
        cfg = _build_config(settings)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    _, command, needs_out = SUBCOMMANDS[args.command]
    try:
        if needs_out and not cfg.out:
            raise ConfigError(f"{args.command} requires --out")
        # the directory is made only once the tables exist, so an error
        # raised by the subcommand leaves nothing behind
        tables = command(cfg, getattr(args, "shape_file", None))
        if not cfg.out:
            for header, rows in tables.values():
                sys.stdout.write(_csv_text(header, rows))
            sys.stdout.write(config_text(cfg))
        else:
            out = Path(cfg.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, (header, rows) in tables.items():
                write_csv(out / name, header, rows)
            (out / "config.echo").write_text(config_text(cfg), encoding="utf-8", newline="\n")
    except (ConfigError, OSError, shapes.ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
