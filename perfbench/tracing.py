"""Span and counter tracing of the package's layers, from outside the package.

``Tracer.install`` replaces each traced public function in the module
namespace its callers look it up in (``radvlad.evaluate`` calls
``resample_range`` through its own globals, for example) with a wrapper
that records a span and the layer's counters; ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited. Spans and counts are
kept in memory and written out once, at the end of the run.

Every span carries the query it belongs to, or None during set-up, so
per-layer figures are split by phase: query-path layers are reported per
query, set-up layers per set-up, and ``recall_at_n`` per call.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

from bench import descriptor_array
from radvlad import descriptors, evaluate, runs

SETUP = "setup"
QUERY = "query"


def _count_read(tracer, result, args, kwargs):
    tracer.add("runs.scans_read", 1)
    tracer.add("runs.bytes_read", os.path.getsize(args[0]))


def _count_samples(tracer, result, args, kwargs):
    tracer.add("scans.samples_in", args[0].power.size)


def _count_rows(tracer, result, args, kwargs):
    tracer.add("spectral.rows", result.magnitude.shape[0])


def _count_fit(tracer, result, args, kwargs):
    tracer.add("codebook.iterations", result.iterations_run)
    tracer.add("codebook.training_rows", len(args[0]))


def _count_descriptor(tracer, result, args, kwargs):
    tracer.add("descriptors.bytes_per_descriptor", descriptor_array(result).nbytes)


def _count_match(tracer, result, args, kwargs):
    _, query_descs, ref_descs = args
    tracer.add("evaluate.pairs_compared", len(query_descs) * len(ref_descs))
    tracer.add("evaluate.map_bytes_per_query", sum(descriptor_array(d).nbytes for d in ref_descs))


# (module, attribute its callers look up, span name or None, counter).
TRACE_POINTS = (
    (runs, "load_trajectory", "runs.load_trajectory", None),
    (runs, "read_prsn", None, _count_read),
    (evaluate, "preprocess_scan", "evaluate.preprocess_scan", None),
    (evaluate, "suppress_near_range", "scans.suppress_near_range", _count_samples),
    (evaluate, "resample_range", "scans.resample_range", None),
    (evaluate, "radial_fft_magnitude", "spectral.radial_fft_magnitude", _count_rows),
    (evaluate, "fit_method_codebook", "evaluate.fit_method_codebook", None),
    (evaluate, "fit_kmeans_pp", "codebook.fit_kmeans_pp", _count_fit),
    (evaluate, "encode_trajectory", "evaluate.encode_trajectory", None),
    (evaluate, "encode_vlad", "descriptors.encode_vlad", _count_descriptor),
    (evaluate, "encode_raplace", "descriptors.encode_raplace", _count_descriptor),
    (descriptors, "polar_to_cartesian", "scans.polar_to_cartesian", _count_samples),
    (descriptors, "radon_sinogram", "descriptors.radon_sinogram", None),
    (evaluate, "distance_matrix_from_descriptors", "evaluate.distance_matrix", _count_match),
    (evaluate, "recall_at_n", "evaluate.recall_at_n", None),
)

# Reported per-layer metric -> (unit, phase it is averaged over, source).
# Sources: ("busy", span) sums span durations, ("self", span) subtracts
# the time covered by child spans, ("count", counter) sums a counter.
PER_LAYER = {
    "runs.load_trajectory.busy_s": ("s", SETUP, "busy", "runs.load_trajectory"),
    "runs.scans_read": ("count", SETUP, "count", "runs.scans_read"),
    "runs.bytes_read": ("B", SETUP, "count", "runs.bytes_read"),
    "scans.suppress_near_range.busy_s": ("s", QUERY, "busy", "scans.suppress_near_range"),
    "scans.resample_range.busy_s": ("s", QUERY, "busy", "scans.resample_range"),
    "scans.polar_to_cartesian.busy_s": ("s", QUERY, "busy", "scans.polar_to_cartesian"),
    "scans.samples_in": ("count", QUERY, "count", "scans.samples_in"),
    "spectral.radial_fft_magnitude.busy_s": ("s", QUERY, "busy", "spectral.radial_fft_magnitude"),
    "spectral.rows": ("count", QUERY, "count", "spectral.rows"),
    "codebook.fit_kmeans_pp.busy_s": ("s", SETUP, "busy", "codebook.fit_kmeans_pp"),
    "codebook.iterations": ("count", SETUP, "count", "codebook.iterations"),
    "codebook.training_rows": ("count", SETUP, "count", "codebook.training_rows"),
    "descriptors.encode_vlad.busy_s": ("s", QUERY, "busy", "descriptors.encode_vlad"),
    "descriptors.encode_raplace.self_s": ("s", QUERY, "self", "descriptors.encode_raplace"),
    "descriptors.radon_sinogram.busy_s": ("s", QUERY, "busy", "descriptors.radon_sinogram"),
    "descriptors.bytes_per_descriptor": ("B", QUERY, "count", "descriptors.bytes_per_descriptor"),
    "evaluate.preprocess_scan.self_s": ("s", QUERY, "self", "evaluate.preprocess_scan"),
    "evaluate.distance_matrix.busy_s": ("s", QUERY, "busy", "evaluate.distance_matrix"),
    "evaluate.pairs_compared": ("count", QUERY, "count", "evaluate.pairs_compared"),
    "evaluate.map_bytes_per_query": ("B", QUERY, "count", "evaluate.map_bytes_per_query"),
    "evaluate.recall_at_n.busy_s": ("s", "call", "busy", "evaluate.recall_at_n"),
}


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    query: int | None


@dataclass
class Tracer:
    """In-memory spans and counters; one per traced run."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    query: int | None = None
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def add(self, name: str, amount: int) -> None:
        self.counts[(self.phase, name)] += int(amount)

    @property
    def phase(self) -> str:
        return SETUP if self.query is None else QUERY

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` and return its result."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self.spans.append(None)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, name, start, end, parent, self.query)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs) if name else fn(*args, **kwargs)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in TRACE_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_ns(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def per_layer(self, n_setups: int, n_queries: int) -> dict:
        """Every PER_LAYER metric, averaged over its phase's operations."""
        own = self.self_ns()
        busy = defaultdict(int)
        self_time = defaultdict(int)
        calls = defaultdict(int)
        for s, own_ns in zip(self.spans, own):
            phase = SETUP if s.query is None else QUERY
            busy[(phase, s.name)] += s.end_ns - s.start_ns
            self_time[(phase, s.name)] += own_ns
            calls[s.name] += 1
        out = {}
        for metric, (unit, phase, kind, source) in PER_LAYER.items():
            if phase == "call":
                total = sum(v for (_, name), v in busy.items() if name == source)
                value = total / 1e9 / calls[source] if calls[source] else 0.0
            else:
                per = n_setups if phase == SETUP else n_queries
                if kind == "count":
                    value = self.counts.get((phase, source), 0) / per
                else:
                    table = busy if kind == "busy" else self_time
                    value = table.get((phase, source), 0) / 1e9 / per
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of counters."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
            fh.write(json.dumps({"counts": {f"{p}:{n}": v for (p, n), v in self.counts.items()}}) + "\n")
