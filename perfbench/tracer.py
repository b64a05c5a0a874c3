"""Span tracing of expinstab's public functions from outside the package.

Nothing under ``src/`` is edited: each traced function is replaced, in every
``expinstab`` namespace that holds it, by a wrapper that records a span.  A
module that did ``from expinstab.conductivity import dtn_numeric`` keeps its
own reference, so rebinding only ``conductivity.dtn_numeric`` would miss the
calls made through ``engine`` or ``cli``; the identity scan below finds every
such reference.  A missed one would read as zero calls, which the harness
checks for.

Spans are aggregated in memory per name: inclusive seconds, self seconds
(inclusive minus the time covered by nested traced spans) and call count.
The traced program is single-threaded, so one stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute path); ``packing.shape`` is the method.
TARGETS = {
    "cli.main": ("expinstab.cli", "main"),
    "cli.write_csv": ("expinstab.cli", "write_csv"),
    "engine.run_instability": ("expinstab.engine", "run_instability"),
    "conductivity.dtn_numeric": ("expinstab.conductivity", "dtn_numeric"),
    "conductivity.delta_dtn_weighted": ("expinstab.conductivity", "delta_dtn_weighted"),
    "conductivity.fit_envelope": ("expinstab.conductivity", "fit_envelope"),
    "conductivity.ntd_from_dtn": ("expinstab.conductivity", "ntd_from_dtn"),
    "conductivity.resistance_matrix": ("expinstab.conductivity", "resistance_matrix"),
    "scattering.farfield_numeric": ("expinstab.scattering", "farfield_numeric"),
    "scattering.solve_scattering": ("expinstab.scattering", "solve_scattering"),
    "special.jy01_kernel": ("expinstab.special", "jy01_kernel"),
    "spectral.enumerate_basis": ("expinstab.spectral", "enumerate_basis"),
    "packing.build_packing": ("expinstab.packing", "build_packing"),
    "packing.shape": ("expinstab.packing", "PackingFamily.shape"),
    "shapes.hausdorff_distance": ("expinstab.shapes", "hausdorff_distance"),
    "shapes.hausdorff_resolution": ("expinstab.shapes", "hausdorff_resolution"),
    "opnet.net_size_log_bound": ("expinstab.opnet", "net_size_log_bound"),
}


class Tracer:
    """Aggregated spans: ``stats[name] = [inclusive_s, self_s, calls]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # per open span: seconds of its traced children

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0.0, 0.0, 0])
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = open_spans.pop()
                stats[0] += span
                stats[1] += span - children
                stats[2] += 1
                if open_spans:
                    open_spans[-1] += span

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded expinstab namespace.

        Raises ``LookupError`` when a target no longer exists, so a renamed
        function fails the traced run instead of silently reading zero.
        """
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "expinstab" or name.startswith("expinstab.")
        ]
        for span, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise LookupError(f"trace target {module_name}.{path} not found")
            wrapper = self.wrap(span, original)
            setattr(owner, attr, wrapper)
            if outer:
                continue  # a method: the class attribute is its only binding
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
