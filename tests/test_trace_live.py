"""The benchmark's tracer still sees every layer a workload runs through.

``perfbench/tracing.py`` wraps library functions in the namespaces their
callers look them up in. A rename or an inlined call leaves its wrapper
unused, and the layer then reads 0 instead of failing; a traced name
that disappears makes the tracer fail to install. This runs the set-up
and one query of a tiny workload per method under the tracer, as the
benchmark does, and requires a span from every layer on that path and a
non-zero count from every counter the query feeds, so a lean path that
leaves a counter with nothing to read fails too.
"""

import importlib
from pathlib import Path

import pytest

from radvlad.config import METHOD_FFT_RADVLAD, METHOD_RAPLACE, RunConfig
from radvlad.descriptors import RaplaceConfig
from radvlad.synthetic import WorldConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORLD = WorldConfig(n_places=4, n_reflectors=20, n_azimuths=16, n_bins=100, max_range_m=60.0)
RUN_CONFIGS = {
    METHOD_FFT_RADVLAD: RunConfig(method=METHOD_FFT_RADVLAD, suppress_bins=5, target_bins=64, k=4),
    METHOD_RAPLACE: RunConfig(
        method=METHOD_RAPLACE,
        suppress_bins=5,
        raplace=RaplaceConfig(width_px=32, resolution_m=2.0 * WORLD.max_range_m / 32),
    ),
}
# Spans each method's path must record: during set-up, and during a query.
SETUP_LAYERS = {
    METHOD_FFT_RADVLAD: {"runs.load_trajectory", "codebook.fit_kmeans_pp"},
    METHOD_RAPLACE: {"runs.load_trajectory"},
}
QUERY_LAYERS = {
    METHOD_FFT_RADVLAD: {
        "evaluate.preprocess_scan",
        "scans.resample_range",
        "spectral.radial_fft_magnitude",
        "descriptors.encode_vlad",
        "evaluate.distance_matrix",
    },
    METHOD_RAPLACE: {
        "descriptors.encode_raplace",
        "scans.polar_to_cartesian",
        "descriptors.radon_sinogram",
        "evaluate.distance_matrix",
    },
}

# Counters each method's query must move.
QUERY_COUNTERS = {
    METHOD_FFT_RADVLAD: {"spectral.rows", "descriptors.bytes_per_descriptor", "evaluate.pairs_compared"},
    METHOD_RAPLACE: {"descriptors.bytes_per_descriptor", "evaluate.pairs_compared"},
}


@pytest.mark.parametrize("method", sorted(RUN_CONFIGS))
def test_every_layer_on_the_path_records_a_span(method, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    workload = workloads.Workload(f"tiny-{method}", method, WORLD, RUN_CONFIGS[method], query_pool=2)
    inputs = workloads.generate(workload, seed=5, out_dir=tmp_path)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = bench.setup(workload, inputs / workloads.map_dir(workloads.N_MAPS - 1))
        tracer.query = 0
        scan = bench.QueryPool(inputs, state.poses, workload.run_config.threshold_m).load(0)
        bench.make_query(workload, state)(scan)
    finally:
        tracer.query = None
        tracer.uninstall()

    setup_spans = {s.name for s in tracer.spans if s.query is None}
    query_spans = {s.name for s in tracer.spans if s.query == 0}
    assert SETUP_LAYERS[method] - setup_spans == set()
    assert QUERY_LAYERS[method] - query_spans == set()
    assert {name for name in QUERY_COUNTERS[method] if tracer.counts.get((tracing.QUERY, name), 0) <= 0} == set()
