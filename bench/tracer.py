"""Spans around calls into the program's layers, recorded from outside it.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when this one began, or -1. Spans are kept in memory by
a ``Tracer`` and written out once, when the round ends.

Wrappers are installed where the *calling* module looks the function up
(``revolve.simulator.angles_from_directions``, not ``revolve.sphere``'s), so
a span covers exactly the calls the caller makes. Times come from
``CLOCK_MONOTONIC``, which is shared by all processes on the machine, so a
child's timestamps can be compared with its parent's.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module looked up in, attribute, span name). Class attributes are written
# "module:Class.method".
TRACE_POINTS = (
    ("revolve.cli", "load_config", "cli.load_config"),
    ("revolve.cli", "run", "cli.run"),
    ("revolve.cli", "simulate_ensemble", "simulator.simulate_ensemble"),
    ("revolve.cli", "limit_for_config", "stats.limit_for_config"),
    ("revolve.cli", "summarize", "stats.summarize"),
    ("revolve.cli", "ks_marginals", "stats.ks_marginals"),
    ("revolve.cli", "gaussian_law_at", "limits.gaussian_law_at"),
    ("revolve.cli", "build_grid", "sphere.build_grid"),
    ("revolve.cli", "limit_coefficients", "limits.limit_coefficients"),
    ("revolve.cli", "lab_limit_coefficients", "operator_lab.lab_limit_coefficients"),
    ("revolve.cli", "residual_scaling", "operator_lab.residual_scaling"),
    ("revolve.cli", "project_pi", "operator_lab.field_ops"),
    ("revolve.cli", "apply_q", "operator_lab.field_ops"),
    ("revolve.cli", "potential_identity_error", "operator_lab.field_ops"),
    ("revolve.stats", "build_grid", "sphere.build_grid"),
    ("revolve.stats", "limit_coefficients", "limits.limit_coefficients"),
    ("revolve.operator_lab", "solve_perturbation", "operator_lab.solve_perturbation"),
    ("revolve.simulator", "angles_from_directions", "sphere.angles_from_directions"),
    ("revolve.simulator", "directions_from_angles", "sphere.directions_from_angles"),
    ("revolve.profiles", "VelocityProfile.values_at", "profiles.values_at"),
)

# The untraced run times only these two calls, once per CLI invocation:
# the end of config loading closes set-up, and the ensemble time gives the
# pool speed-up.
TIMING_POINTS = tuple(
    point for point in TRACE_POINTS
    if point[2] in ("cli.load_config", "simulator.simulate_ensemble")
)

# Spans whose peak traced allocation is recorded (tracemalloc runs only
# inside them).
MEMORY_SPANS = frozenset({"operator_lab.solve_perturbation"})


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.peak_bytes: dict[str, int] = {}
        self._open = [-1]

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        track_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(index)
            if track_memory:
                tracemalloc.start()
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
                open_.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self, points) -> None:
        for module_name, attribute, name in points:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out
