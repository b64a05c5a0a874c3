"""One fresh benchmark process: time set-up, then optionally one run.

Usage: python3 perfbench/child.py CONFIG OUT_DIR {setup,run,trace}

``setup`` only imports and parses; ``run`` also calls ``cli.main`` once for
``instability``; ``trace`` does the same with spans installed.  The last
line of standard output is one JSON object with the measurements.
"""

import json
import os
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

# Set-up starts here: only what expinstab imports itself (numpy, and scipy
# once a module of it does) is timed, so import-time work of the program
# shows in setup_s and nothing else does.
SETUP_START = time.perf_counter()

from expinstab import cli  # noqa: E402

import numpy  # noqa: E402  (already loaded by expinstab)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _blas() -> dict:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(config: str, out_dir: str, mode: str) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"expinstab imported from {cli.__file__}, not from {src}")
    cli.parse_config(Path(config).read_text(encoding="utf-8"))
    result = {"setup_s": time.perf_counter() - SETUP_START}
    if mode == "setup":
        result["machine"] = {
            "blas": _blas(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"),
        }
        return result

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    result["exit_code"] = cli.main(["--config", config, "--out", out_dir, "instability"])
    result["run_s"] = time.perf_counter() - start
    result["cpu_s"] = _cpu_seconds() - cpu0
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kib / 1024.0
    if tracer is not None:
        result["spans"] = tracer.stats
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
