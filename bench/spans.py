"""In-memory span recording around calls into latpoly's layers.

A span is one call into a layer's public function, made from the
benchmark's own code: its layer, a name, start and end times, the span it
was called under, and the request it belongs to.  Spans are kept in
memory and written out once, when the run ends.
"""

import json
import time
from collections import Counter

# The layers of latpoly that do work of their own.  ``points``, ``budget``
# and ``errors`` have none; their work shows in the point counts below.
LAYERS = ("lattice", "terms", "dnf", "conditions", "oracle")

# span names of the public checkers timed alone; each gives conditions.<name>_s
CHECKER_SPANS = (
    "order",
    "median",
    "selfcomp",
    "homogeneity",
    "horizontal",
    "delta",
    "convexity",
    "idempotency",
)

# per-layer time metrics: metric -> (layer, span names whose durations add up)
_TIME_METRICS = {
    "lattice.build_s": ("lattice", ("build",)),
    "terms.parse_s": ("terms", ("parse_term", "parse_table")),
    "terms.materialize_s": ("terms", ("materialize",)),
    "dnf.reconstruct_s": ("dnf", ("reconstruct",)),
    "dnf.extract_alpha_s": ("dnf", ("extract_alpha",)),
    "dnf.equivalent_s": ("dnf", ("equivalent",)),
    "dnf.enumerate_s": ("dnf", ("enumerate",)),
    "conditions.evaluate_s": ("conditions", ("evaluate",)),
    **{f"conditions.{c}_s": ("conditions", (c,)) for c in CHECKER_SPANS},
    "oracle.count_s": ("oracle", ("count",)),
    "oracle.enumerate_s": ("oracle", ("enumerate",)),
    "oracle.sample_s": ("oracle", ("sample",)),
    "oracle.closure_s": ("oracle", ("closure",)),
    "oracle.witness_s": ("oracle", ("witness",)),
    "oracle.enum_distributive_s": ("oracle", ("enum_distributive",)),
}

# counters recorded by the workloads at the same call sites as the spans
COUNTERS = (
    "terms.points",
    "dnf.normal_forms",
    "conditions.tables",
    "conditions.points",
    "oracle.monotone_tables",
    "oracle.closure_polys",
    "oracle.closure_points",
)

# every per-layer metric a traced run emits, with its unit
PER_LAYER_UNITS = {
    **{name: "s" for name in _TIME_METRICS},
    "lattice.builds": "count",
    "lattice.build_max_ms": "ms",
    "dnf.reconstruct_calls": "count",
    **{name: "count" for name in COUNTERS},
    "conditions.full_scan_frac": "frac",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class NullTracer:
    """Stands in for a Tracer when a run is not traced: calls straight through."""

    request = None

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass


class Tracer:
    """Records one span per call; spans nest by call order (one thread)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []

    def call(self, layer, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, name, start, end, parent, self.request)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self):
        """Per-layer metrics from the spans and counters (no overhead figure)."""
        durations = {}
        for layer, name, start, end, _, _ in self.spans:
            durations.setdefault((layer, name), []).append(end - start)
        out = {}
        for metric, (layer, names) in _TIME_METRICS.items():
            out[metric] = sum(sum(durations.get((layer, n), ())) for n in names)
        builds = durations.get(("lattice", "build"), [])
        out["lattice.builds"] = len(builds)
        out["lattice.build_max_ms"] = max(builds, default=0.0) * 1000
        out["dnf.reconstruct_calls"] = len(durations.get(("dnf", "reconstruct"), []))
        for name in COUNTERS:
            out[name] = self.counts[name]
        verdicts = self.counts["conditions.verdicts"]
        out["conditions.full_scan_frac"] = (
            self.counts["conditions.passes"] / verdicts if verdicts else 0.0
        )
        # self time covers the traced pass only: spans recorded outside any
        # request, such as checkers timed alone, repeat work done in it
        own = dict.fromkeys(LAYERS, 0.0)
        for (layer, *_, request), t in zip(self.spans, self.self_times()):
            if layer in own and request is not None:
                own[layer] += t
        for layer, t in own.items():
            out[f"{layer}.self_s"] = t
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
