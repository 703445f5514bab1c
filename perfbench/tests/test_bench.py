"""The benchmark's sample-count rule, its query check and its tracer."""

import numpy as np
import pytest

import bench
from radvlad.config import METHOD_FFT_RADVLAD, RunConfig
from radvlad.synthetic import WorldConfig
from tracing import Span, Tracer
from workloads import N_MAPS, Workload, generate, map_dir


def test_p95_needs_200_samples_for_ten_beyond():
    assert bench.samples_beyond(200, 95.0) == 10
    assert bench.samples_beyond(199, 95.0) == 9
    assert bench.min_samples_for(95.0) == 200
    assert bench.MIN_QUERIES == 200


def test_nearest_rank_p95_leaves_ten_samples_above():
    values = list(range(1, 201))
    p95 = bench.nearest_rank(values, 95.0)
    assert p95 == 190
    assert sum(v > p95 for v in values) == 10


TINY = Workload(
    name="tiny",
    method=METHOD_FFT_RADVLAD,
    world=WorldConfig(n_places=4, n_reflectors=20, n_azimuths=16, n_bins=100, max_range_m=60.0),
    run_config=RunConfig(method=METHOD_FFT_RADVLAD, suppress_bins=5, target_bins=64, k=4),
    query_pool=4,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    inputs = generate(TINY, seed=3, out_dir=tmp_path_factory.mktemp("tiny"))
    state = bench.setup(TINY, inputs / map_dir(N_MAPS - 1))
    return state, bench.QueryPool(inputs, state.poses, TINY.run_config.threshold_m)


def _run(tiny_run, corrupt=None):
    state, pool = tiny_run
    query = bench.make_query(TINY, state)

    def corrupted(scan):
        desc, row, pick = query(scan)
        return (desc, corrupt(row.copy()), pick) if corrupt else (desc, row, pick)

    tally = bench.Tally()
    for i in range(len(pool)):
        bench.run_one(tally, TINY, state, pool.is_match[i], pool.load(i), i, corrupted, sampled=True)
    return tally


def test_correct_queries_pass_every_check(tiny_run):
    tally = _run(tiny_run)
    assert (tally.attempted, tally.failed) == (4, 0), tally.failures
    assert bench.recall_problems(tally, tiny_run[1], 4) == []


def test_corrupted_distance_row_counts_as_failed(tiny_run):
    # A relative error of 1e-6 in the largest entry moves no top-1 pick,
    # so only the per-pair oracle can catch it.
    def nudge(row):
        row[np.argmax(row)] *= 1.0 + 1e-6
        return row

    tally = _run(tiny_run, nudge)
    assert (tally.attempted, tally.failed) == (4, 4)
    assert all("per-pair sum" in f for f in tally.failures)


def test_wrong_top1_counts_as_failed(tiny_run):
    def swap(row):
        return row[::-1].copy()

    tally = _run(tiny_run, swap)
    assert tally.failed == 4


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "outer", 0, 100, None, 7),
        Span(1, "inner", 10, 40, 0, 7),
        Span(2, "leaf", 15, 20, 1, 7),
        Span(3, "inner", 50, 60, 0, 7),
    ]
    assert tracer.self_ns() == [60, 25, 5, 10]


def test_tracer_records_spans_and_counts_then_restores():
    from radvlad import evaluate
    from radvlad.descriptors import VladDescriptor

    original = evaluate.distance_matrix_from_descriptors
    refs = [VladDescriptor(np.full(4, float(j)), 2, 2) for j in range(3)]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.query = 0
        evaluate.distance_matrix_from_descriptors(METHOD_FFT_RADVLAD, refs[:1], refs)
    finally:
        tracer.uninstall()
    assert evaluate.distance_matrix_from_descriptors is original
    assert [s.name for s in tracer.spans] == ["evaluate.distance_matrix"]
    layer = tracer.per_layer(n_setups=1, n_queries=1)
    assert layer["evaluate.pairs_compared"]["value"] == 3
    assert layer["evaluate.map_bytes_per_query"]["value"] == 3 * 4 * 8
    assert layer["evaluate.distance_matrix.busy_s"]["value"] > 0
