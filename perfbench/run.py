"""Outside-in benchmark of ``expinstab instability``.

    python3 perfbench/run.py --workload dtn_witness --seed 2024 --seconds 40 --trace 0

Each run of the program is a fresh child process (``child.py``) that imports
expinstab from this checkout's ``src/`` and calls ``cli.main`` once: a
closed loop with one client and one run at a time, repeated at least twice
and until the next run would overrun ``--seconds``.  Every run's
``report.csv`` is checked (see ``check_report``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and
reports per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are the
human-readable table.  Exit code 0 when every run passed its checks, 1 when
one failed, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 170.0

# Spans that run on every workload; their times are per-layer metrics.  A
# workload-specific span reads 0 s elsewhere, so only its call count is a
# metric and its times go to the table and the --out record.
COMMON_SPANS = [
    "cli.main",
    "cli.write_csv",
    "engine.run_instability",
    "conductivity.fit_envelope",
    "packing.build_packing",
    "packing.shape",
    "shapes.hausdorff_distance",
    "shapes.hausdorff_resolution",
    "opnet.net_size_log_bound",
]
# Nystrom build and dense solve of one shape, whichever problem runs it.
SOLVE_SPANS = ["conductivity.dtn_numeric", "scattering.solve_scattering"]

# Each workload: its config (all at m=1, beta=1.0) and the spans that must
# record calls on it.  Why each exists, and what should move, is in README.md.
WORKLOADS = {
    "dtn_witness": {
        "config": {
            "problem": "dtn", "m": 1, "beta": 1.0, "eps_list": "0.05",
            "budget": 200, "n_max": 32, "quad_nodes": 512,
        },
        "spans": COMMON_SPANS + ["conductivity.dtn_numeric", "conductivity.delta_dtn_weighted"],
    },
    "electrodes_cem": {
        "config": {
            "problem": "electrodes", "m": 1, "beta": 1.0, "eps_list": "0.05",
            "budget": 60, "n_max": 32, "quad_nodes": 512, "electrodes": 8,
        },
        "spans": COMMON_SPANS + [
            "conductivity.dtn_numeric", "conductivity.ntd_from_dtn", "conductivity.resistance_matrix",
        ],
    },
    "farfield_sweep": {
        "config": {
            "problem": "farfield", "m": 1, "beta": 1.0, "eps_list": "0.12,0.08,0.05",
            "budget": 40, "scatter_n_max": 12, "scatter_quad": 192, "directions": 48,
            "a_list": "1.0,4.0",
        },
        "spans": COMMON_SPANS + [
            "scattering.farfield_numeric", "scattering.solve_scattering",
            "special.jy01_kernel", "spectral.enumerate_basis",
        ],
    },
}

END_TO_END_UNITS = {
    "run_s": "s", "shapes_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(cfg_path: Path, out_dir: Path, mode: str, timeout: float) -> dict:
    """Start one child, wait for it, return its JSON; raise RuntimeError."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(cfg_path), str(out_dir), mode],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{mode} child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def check_report(out_dir: Path, config: dict, reference: dict | None) -> tuple[list[dict], int]:
    """Check one run's report.csv; return its witness rows and shape count.

    Every seed: one row per eps in order, ``pattern_a != pattern_b``,
    ``hausdorff >= eps - resolution`` and a finite positive ``op_norm_diff``.
    With a reference: the same pattern pairs exactly, and ``op_norm_diff``
    within the reference's relative tolerance.  Raises ValueError.
    """
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    eps_list = [float(e) for e in str(config["eps_list"]).split(",")]
    if [float(r["eps"]) for r in rows] != eps_list:
        raise ValueError(f"report.csv eps column {[r['eps'] for r in rows]} != {eps_list}")
    witness = []
    for row in rows:
        eps, diff = float(row["eps"]), float(row["op_norm_diff"])
        pair = [int(row["pattern_a"]), int(row["pattern_b"])]
        if pair[0] == pair[1]:
            raise ValueError(f"eps {eps}: witness pair {pair} is one pattern")
        if not float(row["hausdorff"]) >= eps - float(row["resolution"]):
            raise ValueError(f"eps {eps}: hausdorff {row['hausdorff']} below eps - resolution")
        if not (math.isfinite(diff) and diff > 0):
            raise ValueError(f"eps {eps}: op_norm_diff {diff} is not finite and positive")
        witness.append({"eps": eps, "pair": pair, "op_norm_diff": diff})
    if reference is not None:
        tol = reference["rel_tol"]
        for got, want in zip(witness, reference["rows"], strict=True):
            if got["pair"] != want["pair"]:
                raise ValueError(f"eps {got['eps']}: pair {got['pair']} != reference {want['pair']}")
            if abs(got["op_norm_diff"] - want["op_norm_diff"]) > tol * abs(want["op_norm_diff"]):
                raise ValueError(
                    f"eps {got['eps']}: op_norm_diff {got['op_norm_diff']!r} differs from "
                    f"reference {want['op_norm_diff']!r} by more than {tol:g} relative"
                )
    return witness, sum(int(r["sample_count"]) for r in rows)


def load_references() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_for(workload: str, seed: int) -> dict | None:
    refs = load_references()
    rows = refs["workloads"].get(workload)
    if seed != refs["seed"] or rows is None:
        return None
    return {"rel_tol": refs["rel_tol"], "rows": rows}


def record_reference(workload: str, witness: list[dict]) -> None:
    refs = load_references()
    refs["workloads"][workload] = witness
    REFERENCE.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def summarize(values: list[float]) -> dict:
    return {
        "median": statistics.median(values), "n": len(values),
        "min": min(values), "max": max(values),
    }


def layer_metrics(spans: dict[str, list]) -> dict[str, float]:
    """Per-layer metric values of one traced run, ``trace.overhead_s`` aside."""
    def stat(name, index):
        return spans.get(name, [0.0, 0.0, 0])[index]

    values = {f"{name}.calls": stat(name, 2) for name in TARGETS}
    values.update({f"{name}.s": stat(name, 0) for name in COMMON_SPANS})
    values["engine.run_instability.self_s"] = stat("engine.run_instability", 1)
    values["cli.main.self_s"] = stat("cli.main", 1)
    values["forward.solve.s"] = sum(stat(name, 0) for name in SOLVE_SPANS)
    values["forward.solve.calls"] = sum(stat(name, 2) for name in SOLVE_SPANS)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, overrides: dict,
            reference: dict | None) -> dict:
    """Run one benchmark invocation; return samples, failures and witness.

    ``overrides`` replaces keys of the workload's config (the smoke test
    shrinks it this way); pass ``reference=None`` when it is not empty.
    """
    spec = WORKLOADS[workload]
    config = {**spec["config"], **overrides, "seed": seed}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        cfg_path = work / "run.cfg"
        cfg_path.write_text("".join(f"{k}={v}\n" for k, v in config.items()), encoding="utf-8")
        # The first set-up in a checkout compiles bytecode and reads numpy
        # from disk; users pay that once, so it is not timed.
        machine = run_child(cfg_path, work, "setup", CHILD_TIMEOUT_S)["machine"]
        setup = [] if trace else [
            run_child(cfg_path, work, "setup", CHILD_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        samples: dict[str, list[dict]] = {"run": [], "trace": []}
        failures: list[str] = []
        walls: list[float] = []
        witness, first_report = None, None
        # The run budget starts after the set-up probes; two runs at least,
        # so that every median has two samples (traced: one of each mode).
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
                break
            mode = "trace" if trace and len(walls) % 2 else "run"
            out_dir = work / f"run{len(walls)}"
            began = time.monotonic()
            try:
                result = run_child(cfg_path, out_dir, mode, max(10.0, CHILD_TIMEOUT_S - elapsed))
                if result["exit_code"] != 0:
                    raise RuntimeError(f"expinstab exited {result['exit_code']}")
                rows, shapes = check_report(out_dir, config, reference)
                report = (out_dir / "report.csv").read_bytes()
                if first_report is not None and report != first_report:
                    raise ValueError("report.csv differs between runs of one seed")
                if mode == "trace":
                    missing = [s for s in spec["spans"] if result["spans"].get(s, [0, 0, 0])[2] == 0]
                    if missing:
                        raise ValueError(f"traced spans recorded no calls: {', '.join(missing)}")
            except (RuntimeError, ValueError, OSError, KeyError) as exc:
                failures.append(f"{mode} run {len(walls)}: {exc}")
            else:
                witness, first_report = rows, report
                result["shapes_per_s"] = shapes / result["run_s"]
                samples[mode].append(result)
                setup.append(result["setup_s"])
            walls.append(time.monotonic() - began)
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it
    return {
        "machine": machine, "config": config,
        "samples": samples, "setup": setup, "attempted": len(walls),
        "failures": failures, "witness": witness,
    }


def metrics_of(outcome: dict, trace: bool) -> dict[str, dict] | None:
    """Median and sample counts of each metric, or None without samples."""
    runs, traced = outcome["samples"]["run"], outcome["samples"]["trace"]
    if not runs or (trace and not traced):
        return None
    if not trace:
        values = {name: [r[name] for r in runs] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = outcome["setup"]
        units = END_TO_END_UNITS
    else:
        per_run = [layer_metrics(r["spans"]) for r in traced]
        values = {name: [v[name] for v in per_run] for name in per_run[0]}
        untraced = statistics.median(r["run_s"] for r in runs)
        values["trace.overhead_s"] = [r["run_s"] - untraced for r in traced]
        units = {name: "count" if name.endswith(".calls") else "s" for name in values}
    return {name: {**summarize(values[name]), "unit": units[name]} for name in units}


def span_table(traced: list[dict]) -> list[str]:
    lines = [f"  {'span':36} {'s':>10} {'self_s':>10} {'calls':>7}"]
    for name in TARGETS:
        stats = [r["spans"].get(name, [0.0, 0.0, 0]) for r in traced]
        s, self_s = (statistics.median(x[i] for x in stats) for i in (0, 1))
        lines.append(f"  {name:36} {s:10.4f} {self_s:10.4f} {stats[0][2]:7d}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record as JSON here")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's witness rows as the seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "expinstab" / "cli.py").is_file():
        print(f"perfbench: no expinstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != load_references()["seed"]:
        parser.error("--record-reference needs the reference seed")
    reference = None if args.record_reference else reference_for(args.workload, args.seed)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), {}, reference)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = metrics_of(outcome, bool(args.trace))
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    for failure in outcome["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if metrics is None:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1

    machine = {
        **outcome["machine"], "git_revision": git_revision(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reference checked: {reference is not None}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for row in outcome["witness"]:
        print(f"witness eps={row['eps']:g} pair={row['pair']} op_norm_diff={row['op_norm_diff']!r}")
    print(f"  {'metric':36} {'median':>12} {'unit':6} {'n':>3} {'min':>12} {'max':>12}")
    for name, m in metrics.items():
        print(f"  {name:36} {m['median']:12.6g} {m['unit']:6} {m['n']:3d} "
              f"{m['min']:12.6g} {m['max']:12.6g}")
    print(f"  {'fail_rate':36} {failed / attempted:12.6g} {'1':6} {attempted:3d}")
    if args.trace:
        print("spans (median of traced runs)")
        print("\n".join(span_table(outcome["samples"]["trace"])))
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine, "config": outcome["config"],
            "attempted": attempted, "failures": outcome["failures"],
            "witness": outcome["witness"], "metrics": metrics,
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    correct = failed == 0
    if args.record_reference and correct:
        record_reference(args.workload, outcome["witness"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
