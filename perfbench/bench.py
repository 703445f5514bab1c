"""Closed-loop localisation measurement: set-up, queries and output checks.

One client sends each query only after the previous one returns. A query
is a raw polar scan taken through the method's encoder, matched against
the whole map with ``evaluate.distance_matrix_from_descriptors`` and
resolved by a top-1 pick; only that call is timed. Loading the scan from
disk and checking the answer happen outside the timed span.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from radvlad import evaluate, runs, scans, spectral
from radvlad.config import METHOD_RAPLACE, VLAD_METHODS
from workloads import N_MAPS, QUERY_DIR, Workload, map_dir

# p95 is reported only with at least ten samples beyond it.
TAIL_PERCENTILE = 95.0
TAIL_SAMPLES = 10
WARMUP_QUERIES = 3
# Every ORACLE_EVERY-th query (and the first) is re-derived by the oracles.
ORACLE_EVERY = 16


def samples_beyond(n: int, percentile: float) -> int:
    """Samples ranked above the nearest-rank ``percentile`` of n samples."""
    return n - math.ceil(percentile / 100.0 * n)


def min_samples_for(percentile: float, beyond: int = TAIL_SAMPLES) -> int:
    """Smallest sample count with ``beyond`` samples above the percentile."""
    n = 1
    while samples_beyond(n, percentile) < beyond:
        n += 1
    return n


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


MIN_QUERIES = min_samples_for(TAIL_PERCENTILE)
# Traced and untraced queries of a traced run report medians only.
TRACE_MIN_QUERIES = 50


@dataclass
class MapState:
    """What one set-up builds: the map descriptors and its codebook."""

    descriptors: list
    codebook: object
    poses: object


@dataclass
class Tally:
    """Outcome of the query loop."""

    attempted: int = 0
    failed: int = 0
    latencies_ns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    pool_index: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def record(self, latency_ns: int, row, pool_index: int, problems: list) -> None:
        self.attempted += 1
        self.latencies_ns.append(latency_ns)
        self.rows.append(row)
        self.pool_index.append(pool_index)
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"query {self.attempted - 1}: " + "; ".join(problems))


def setup(workload: Workload, map_path: Path) -> MapState:
    """The write path: load a map run, fit its codebook, encode every place."""
    cfg = workload.run_config
    traj = runs.load_trajectory(map_path)
    codebook = None
    if workload.method in VLAD_METHODS:
        codebook = evaluate.fit_method_codebook(traj.scans, workload.method, cfg)
    descs = evaluate.encode_trajectory(traj.scans, workload.method, cfg, codebook)
    return MapState(descs, codebook, traj.poses)


def make_query(workload: Workload, state: MapState):
    """The timed query: encode, match against the whole map, pick top-1."""
    method, cfg = workload.method, workload.run_config

    def query(scan):
        desc = evaluate.encode_trajectory([scan], method, cfg, state.codebook)[0]
        row = evaluate.distance_matrix_from_descriptors(method, [desc], state.descriptors).values[0]
        return desc, row, int(np.argmin(row))

    return query


def descriptor_array(desc) -> np.ndarray:
    return desc.spectrum if hasattr(desc, "spectrum") else desc.values


def oracle_problems(workload: Workload, state: MapState, scan, desc, row) -> list:
    """Re-derive one query's outputs with the independent oracles."""
    problems = []
    refs = [descriptor_array(d) for d in state.descriptors]
    if workload.method == METHOD_RAPLACE:
        expected = -oracles.raplace_similarity_row(desc.spectrum, refs)
        if not oracles.agrees(row, expected, 1.0):
            problems.append("raplace similarity row disagrees with the shift-maximum oracle")
        return problems

    cfg = workload.run_config
    raw = scan.power.copy()
    raw[:, : cfg.suppress_bins] = 0.0
    resampled_scan = scans.resample_range(scans.suppress_near_range(scan, cfg.suppress_bins), cfg.target_bins)
    resampled = resampled_scan.power
    if not oracles.agrees(resampled, oracles.box_resample(raw, cfg.target_bins), np.abs(raw).max(axis=1, keepdims=True)):
        problems.append("resampled rows disagree with box integration")
    magnitude = spectral.radial_fft_magnitude(resampled_scan).magnitude
    if not oracles.agrees(magnitude, oracles.dft_magnitude(resampled), np.abs(resampled).sum(axis=1, keepdims=True)):
        problems.append("radial magnitude disagrees with the DFT matrix")
    centres = state.codebook.centres
    expected = oracles.vlad(magnitude, centres)
    if not oracles.agrees(desc.values, expected, oracles.vlad_scale(magnitude, centres)):
        problems.append("VLAD disagrees with the nearest-centre loop")
    dist, scale = oracles.distance_row(desc.values, refs)
    if not oracles.agrees(row, dist, scale):
        problems.append("distance row disagrees with the per-pair sum")
    return problems


def check_query(workload: Workload, state: MapState, is_match, scan, desc, row, pick, sampled: bool) -> list:
    """Problems with one query's answer; empty when it is correct."""
    problems = []
    if row.shape != (len(state.descriptors),) or not np.all(np.isfinite(row)):
        return [f"distance row has shape {row.shape} or non-finite entries"]
    if not is_match[pick]:
        problems.append(f"top-1 pick {pick} is not a ground-truth match")
    if sampled:
        problems.extend(oracle_problems(workload, state, scan, desc, row))
    return problems


def run_one(tally: Tally, workload, state, is_match, scan, pool_index: int, query, sampled: bool) -> None:
    """Time one query, check it, and record it in ``tally``."""
    start = time.perf_counter_ns()
    try:
        desc, row, pick = query(scan)
    except Exception:  # a failing query is counted, and the loop goes on
        latency = time.perf_counter_ns() - start
        tally.record(latency, None, pool_index, ["raised " + traceback.format_exc(limit=2).strip()])
        return
    latency = time.perf_counter_ns() - start
    problems = check_query(workload, state, is_match, scan, desc, row, pick, sampled)
    tally.record(latency, row, pool_index, problems)


class QueryPool:
    """The generated query run, read one scan at a time."""

    def __init__(self, inputs: Path, map_poses, threshold_m: float):
        run_dir = inputs / QUERY_DIR
        self.paths = sorted((run_dir / runs.SCANS_SUBDIR).glob("*.prsn"))
        poses = scans.load_poses(run_dir / "poses.csv")
        if len(poses) != len(self.paths):
            raise RuntimeError(f"{run_dir}: {len(self.paths)} scans but {len(poses)} poses")
        self.threshold_m = threshold_m
        self.is_match = evaluate.ground_truth_matrix(poses, map_poses, threshold_m).is_match

    def __len__(self) -> int:
        return len(self.paths)

    def load(self, i: int):
        return scans.read_prsn(self.paths[i % len(self.paths)])


def query_loop(workload, state, pool: QueryPool, seconds: float, min_queries: int) -> Tally:
    """Closed loop for ``seconds`` of wall time and at least ``min_queries``."""
    query = make_query(workload, state)
    tally = Tally()
    began = time.perf_counter()
    while tally.attempted < min_queries or time.perf_counter() - began < seconds:
        i = tally.attempted
        run_one(tally, workload, state, pool.is_match[i % len(pool)], pool.load(i), i % len(pool), query, i % ORACLE_EVERY == 0)
    return tally


def traced_query_loop(workload, state, pool: QueryPool, seconds: float, tracer) -> tuple:
    """Closed loop alternating untraced and traced queries.

    Alternating puts both kinds under the same machine conditions, so
    the difference of their medians is the tracing overhead. The tracer
    is installed only around the traced queries. Returns
    (untraced tally, traced tally).
    """
    query = make_query(workload, state)

    def traced_query(scan):
        return tracer.span("bench.query", query, scan)

    plain, traced = Tally(), Tally()
    began = time.perf_counter()
    i = 0
    while min(plain.attempted, traced.attempted) < TRACE_MIN_QUERIES or time.perf_counter() - began < seconds:
        args = (workload, state, pool.is_match[i % len(pool)], pool.load(i), i % len(pool))
        sampled = (i // 2) % ORACLE_EVERY == 0
        if i % 2 == 0:
            run_one(plain, *args, query, sampled)
        else:
            tracer.install()
            tracer.query = i
            try:
                run_one(traced, *args, traced_query, sampled)
            finally:
                tracer.query = None
                tracer.uninstall()
        i += 1
    return plain, traced


def recall_problems(tally: Tally, pool: QueryPool, n_max: int) -> list:
    """Recall@N of the program against the per-query sort oracle."""
    rows = [r for r in tally.rows if r is not None]
    if not rows:
        return ["no query returned a distance row"]
    idx = [p for p, r in zip(tally.pool_index, tally.rows) if r is not None]
    dist = evaluate.DistanceMatrix(np.stack(rows))
    gt = evaluate.GroundTruthMatrix(pool.is_match[idx], pool.threshold_m)
    n_max = min(n_max, dist.values.shape[1])
    curve = evaluate.recall_at_n(dist, gt, n_max)
    pct, evaluated, skipped = oracles.recall_curve(dist.values, gt.is_match, n_max)
    if (curve.evaluated_queries, curve.skipped_queries) != (evaluated, skipped):
        return ["Recall@N query counts disagree with the per-query sort"]
    if not oracles.agrees(curve.recall_pct, pct, 100.0):
        return ["Recall@N disagrees with the per-query sort"]
    return []


def timed_setups(workload, inputs: Path, tracer=None):
    """Set up once on each generated map; return the durations and the last map."""
    durations, state = [], None
    for index in range(N_MAPS):
        state = None
        gc.collect()
        start = time.perf_counter()
        path = inputs / map_dir(index)
        state = setup(workload, path) if tracer is None else tracer.span("bench.setup", setup, workload, path)
        durations.append(time.perf_counter() - start)
    return durations, state


def host_cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, or None off Linux.

    Steal is time the hypervisor gave to other guests; its share during
    the query loop explains runs slowed by co-tenants.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(f) for f in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, inputs: Path, seconds: float, trace_path=None) -> dict:
    """Run one workload and return the result object the benchmark prints.

    Untraced, the metrics are the end-to-end ones. With ``trace_path`` the
    set-ups and every other query run under a Tracer; the metrics are the
    per-layer ones plus the tracing overhead on median query latency.
    """
    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        durations, state = timed_setups(workload, inputs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_problems = []
    pool = QueryPool(inputs, state.poses, workload.run_config.threshold_m)
    query_loop(workload, state, pool, 0.0, WARMUP_QUERIES)

    ticks_before = host_cpu_ticks()
    if tracer is None:
        tally = query_loop(workload, state, pool, seconds, MIN_QUERIES)
        run_problems += recall_problems(tally, pool, workload.run_config.n_max)
        latencies = tally.latencies_ns
        metrics = {
            "setup_s": {"value": statistics.median(durations), "unit": "s"},
            "query_p50_ms": {"value": statistics.median(latencies) / 1e6, "unit": "ms"},
            "query_p95_ms": {"value": nearest_rank(latencies, TAIL_PERCENTILE) / 1e6, "unit": "ms"},
            "queries_per_s": {"value": len(latencies) / (sum(latencies) / 1e9), "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
        }
        print(f"# {len(latencies)} timed queries, {len(durations)} set-ups", file=sys.stderr)
    else:
        plain, traced = traced_query_loop(workload, state, pool, seconds, tracer)
        tracer.install()
        try:
            run_problems += recall_problems(traced, pool, workload.run_config.n_max)
        finally:
            tracer.uninstall()
        tracer.write(trace_path)
        metrics = tracer.per_layer(len(durations), traced.attempted)
        overhead = statistics.median(traced.latencies_ns) - statistics.median(plain.latencies_ns)
        metrics["trace.overhead_ms"] = {"value": overhead / 1e6, "unit": "ms"}
        tally = Tally(
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            failures=plain.failures + traced.failures,
        )
        print(f"# {plain.attempted} untraced and {traced.attempted} traced queries; "
              f"{len(tracer.spans)} spans written to {trace_path}", file=sys.stderr)

    ticks_after = host_cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        print(f"# host steal during the query loop: {100 * steal:.1f} % of CPU time", file=sys.stderr)
    for line in tally.failures + run_problems:
        print(f"# check failed: {line}", file=sys.stderr)
    return {
        "correct": not run_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
