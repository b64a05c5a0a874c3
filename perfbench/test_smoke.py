"""Smoke test of the benchmark harness on shrunken configs (a few seconds).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
It is not part of the tier-1 suite, which collects only ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHRUNK = {"budget": 4, "quad_nodes": 128, "n_max": 8, "scatter_quad": 64, "scatter_n_max": 6,
          "directions": 8}


def _metrics(workload, trace):
    outcome = run.measure(workload, 7, 1, trace, SHRUNK, None)
    assert outcome["failures"] == [] and outcome["attempted"] >= 2
    return outcome, run.metrics_of(outcome, trace)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    outcome, metrics = _metrics(workload, True)
    assert outcome["samples"]["trace"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for span in run.WORKLOADS[workload]["spans"]:
        assert metrics[f"{span}.calls"]["median"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    outcome, metrics = _metrics("farfield_sweep", False)
    assert len(outcome["setup"]) >= run.SETUP_PROBES
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["median"] > 0 and m["n"] >= 2 for m in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dtn_witness", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _report(tmp_path: Path, pair=(12758, 12774), diff="0.0011398202781107267",
            hausdorff="0.049973230568561108"):
    (tmp_path / "report.csv").write_text(
        "eps,pattern_a,pattern_b,hausdorff,resolution,op_norm_diff,sample_count\n"
        f"0.05,{pair[0]},{pair[1]},{hausdorff},0.0079690502247115273,{diff},200\n"
    )
    return tmp_path


def test_witness_check_against_reference(tmp_path):
    config = run.WORKLOADS["dtn_witness"]["config"]
    reference = run.reference_for("dtn_witness", 2024)
    rows, shapes = run.check_report(_report(tmp_path), config, reference)
    assert rows[0]["pair"] == [12758, 12774] and shapes == 200
    with pytest.raises(ValueError, match="reference"):
        run.check_report(_report(tmp_path, pair=(12758, 12775)), config, reference)
    with pytest.raises(ValueError, match="relative"):
        run.check_report(_report(tmp_path, diff="0.00113982"), config, reference)


def test_witness_invariants_for_any_seed(tmp_path):
    config = run.WORKLOADS["dtn_witness"]["config"]
    with pytest.raises(ValueError, match="one pattern"):
        run.check_report(_report(tmp_path, pair=(5, 5)), config, None)
    with pytest.raises(ValueError, match="below eps - resolution"):
        run.check_report(_report(tmp_path, hausdorff="0.03"), config, None)
    with pytest.raises(ValueError, match="finite and positive"):
        run.check_report(_report(tmp_path, diff="nan"), config, None)
