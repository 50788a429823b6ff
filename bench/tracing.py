"""Spans around the calls into each nslab layer, and the layer metrics
computed from them.

Tracing is installed from outside the package: each named public function
is replaced by a timing wrapper, rebound under every name by which an
``nslab`` module refers to it, and the ``scipy.fft`` transforms are
replaced the same way, since every module calls them as ``scipy.fft.*``.
Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists
(``parent`` is the index of the enclosing span or -1) and written out when
the pass ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# module -> public functions that get a span named "<module>.<function>"
TARGETS = {
    "spectral": ("sup_norm", "leray_project", "curl"),
    "solver": ("bilinear_B", "normalised_pressure", "evolve", "picard_solve",
               "residual"),
    "spaces": ("xs_distance", "sobolev_norm"),
    "estimates": ("energy_budget", "enstrophy_localisation", "total_speed",
                  "periodic_distance"),
    "divfree": ("localize_divfree", "to_torus_field"),
    "packet": ("pairing_from_spec", "wave_packet"),
    "cli": ("generate_data",),
}
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")
FFT_SPAN = "spectral.fft"
SOLVE_SPANS = ("solver.evolve", "solver.picard_solve")

# (metric, unit) in the order they are reported
LAYER_METRICS = [
    ("spectral.fft.calls", "count"),
    ("spectral.fft.s", "s"),
    ("spectral.fft.bytes", "B"),
    ("spectral.sup_norm.calls", "count"),
    ("spectral.sup_norm.self_s", "s"),
    ("spectral.leray_project.calls", "count"),
    ("spectral.leray_project.self_s", "s"),
    ("spectral.curl.calls", "count"),
    ("spectral.curl.self_s", "s"),
    ("solver.steps", "count"),
    ("solver.bilinear_B.calls", "count"),
    ("solver.bilinear_B.self_s", "s"),
    ("solver.normalised_pressure.calls", "count"),
    ("solver.normalised_pressure.self_s", "s"),
    ("solver.evolve.s", "s"),
    ("solver.picard_solve.s", "s"),
    ("solver.residual.s", "s"),
    ("solver.picard.iterations", "count"),
    ("solver.row_keep_ratio", "ratio"),
    ("solver.pressure_keep_ratio", "ratio"),
    ("spaces.xs_distance.s", "s"),
    ("spaces.sobolev_norm.calls", "count"),
    ("spaces.sobolev_norm.self_s", "s"),
    ("estimates.energy_budget.s", "s"),
    ("estimates.enstrophy_localisation.s", "s"),
    ("estimates.total_speed.s", "s"),
    ("estimates.periodic_distance.calls", "count"),
    ("divfree.localize_divfree.s", "s"),
    ("divfree.to_torus_field.s", "s"),
    ("packet.pairing_from_spec.calls", "count"),
    ("packet.pairing_from_spec.s", "s"),
    ("packet.wave_packet.s", "s"),
    ("cli.generate_data.s", "s"),
    ("cli.artifact_bytes", "B"),
]
# Metrics that must repeat exactly between two traced passes.
EXACT_COUNTS = tuple(
    name for name, _ in LAYER_METRICS
    if name.endswith(".calls")
    or name in ("solver.steps", "spectral.fft.bytes",
                "solver.picard.iterations")
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index, attrs=None):
        span = self.spans[index]
        span[2] = self.clock()
        span[4] = attrs
        self._stack.pop()

    def wrap(self, name, fn, attrs_of=None):
        """A wrapper of fn that records one span per call; attrs_of(args,
        result) gives the span's attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, attrs_of(args, out) if attrs_of else None)
            return out

        return traced


def _fft_attrs(args, out):
    # computed from array sizes, not measured traffic
    return {"bytes": int(getattr(args[0], "nbytes", 0) + out.nbytes)}


def _solve_attrs(args, traj):
    # each Picard sweep marches every step of the horizon once
    iterations = int(traj.meta.get("picard_iterations", 0))
    steps = int(round((traj.times[-1] - traj.times[0]) / traj.meta["dt"]))
    rows = len(traj.diagnostics.t) if traj.diagnostics is not None else 0
    return {"rows": rows, "pressures": len(traj.pressures),
            "steps": steps * max(iterations, 1), "iterations": iterations}


def _rebind(old, new, modules):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap every target; returns a function that undoes it.

    Call after ``nslab.cli`` has been imported, so that every module that
    imported a target by name is in ``sys.modules``.
    """
    import scipy.fft

    modules = [m for name, m in sys.modules.items()
               if name == "nslab" or name.startswith("nslab.")]
    undo = []
    for short, names in TARGETS.items():
        home = sys.modules["nslab." + short]
        for fname in names:
            old = getattr(home, fname)
            attrs_of = _solve_attrs if fname in ("evolve", "picard_solve") else None
            new = tracer.wrap(f"{short}.{fname}", old, attrs_of)
            _rebind(old, new, modules)
            undo.append((new, old, modules))
    for fname in FFT_FUNCTIONS:
        old = getattr(scipy.fft, fname)
        new = tracer.wrap(FFT_SPAN, old, _fft_attrs)
        _rebind(old, new, [scipy.fft])
        undo.append((new, old, [scipy.fft]))

    def uninstall():
        for new, old, mods in reversed(undo):
            _rebind(new, old, mods)

    return uninstall


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def span_stats(spans):
    """Per span name: calls, total time of outermost spans, self time."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    stats = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        own = end - start
        st["self_s"] += own - _covered(
            [(spans[c][1], spans[c][2]) for c in children[i]])
        if not _has_ancestor(spans, parent, (name,)):
            st["s"] += own
    return stats


def _has_ancestor(spans, index, names):
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False


def _ratio(kept, attempted):
    # 0 when nothing was attempted (no solve in the workload)
    return kept / attempted if attempted else 0.0


def layer_metrics(spans, artifact_bytes=0):
    """Every LAYER_METRICS value except trace.overhead_frac."""
    stats = span_stats(spans)
    out = {}
    for name, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[name] = stats.get(span, {}).get(field, 0)
    solves = [attrs for name, _, _, _, attrs in spans
              if name in SOLVE_SPANS and attrs is not None]
    out["solver.steps"] = sum(a["steps"] for a in solves)
    out["solver.picard.iterations"] = sum(a["iterations"] for a in solves)
    out["spectral.fft.bytes"] = sum(
        attrs["bytes"] for name, _, _, _, attrs in spans
        if name == FFT_SPAN and attrs is not None)
    inside = [name for name, _, _, parent, _ in spans
              if _has_ancestor(spans, parent, SOLVE_SPANS)]
    out["solver.row_keep_ratio"] = _ratio(
        sum(a["rows"] for a in solves), inside.count("spectral.sup_norm"))
    out["solver.pressure_keep_ratio"] = _ratio(
        sum(a["pressures"] for a in solves),
        inside.count("solver.normalised_pressure"))
    out["cli.artifact_bytes"] = artifact_bytes
    return out


def median_metrics(per_pass):
    """Median of each metric over passes; counts are taken from the first
    pass, since they repeat (count_mismatches checks that)."""
    return {name: per_pass[0][name] if name in EXACT_COUNTS
            else statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}


def count_mismatches(per_pass):
    """Names of the EXACT_COUNTS metrics that differ between passes."""
    return sorted(name for name in EXACT_COUNTS
                  if len({m[name] for m in per_pass}) > 1)
