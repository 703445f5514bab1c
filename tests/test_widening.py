"""A float32 scan and its float64 copy give identical float64 outputs.

``PolarScan`` keeps float32 power as it is (a ``.prsn`` file stores f32),
and every kernel that reads it widens it exactly where it computes. So
each consumer of ``power`` must give ``np.array_equal`` results for a
float32 scan and for ``power.astype(np.float64)``.
"""

from dataclasses import replace

import numpy as np
import pytest

from radvlad import (
    PolarScan,
    RaplaceConfig,
    RunConfig,
    WorldConfig,
    encode_ring_key,
    load_trajectory,
    polar_to_cartesian,
    radial_fft_magnitude,
    resample_range,
    write_trajectory,
)
from radvlad.config import METHOD_FFT_RADVLAD, METHOD_RADVLAD, METHODS
from radvlad.evaluate import distance_matrix_from_descriptors, encode_trajectory, fit_method_codebook
from radvlad.sweep import _ringkey_variant
from radvlad.synthetic import PlaceWorld


def widened(scan: PolarScan) -> PolarScan:
    return replace(scan, power=scan.power.astype(np.float64))


@pytest.fixture(scope="module")
def raw():
    """A full-size raw scan, 400 azimuths x 3768 range bins, held as float32."""
    power = np.random.default_rng(11).random((400, 3768)).astype(np.float32)
    scan = PolarScan(power, 0.0432)
    assert scan.power.dtype == np.float32
    return scan


def assert_same_float64(a, b):
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "target, suppress",
    [(512, 60), (5000, 0), (3768, 60), (3768, 0)],
    ids=["down_suppressed", "up", "equal_width_suppressed", "equal_width"],
)
def test_resample_range(raw, target, suppress):
    resampled = resample_range(raw, target, suppress).power
    assert_same_float64(resampled, resample_range(widened(raw), target, suppress).power)


@pytest.mark.parametrize("suppress", [0, 1])
def test_resample_range_of_one_column(raw, suppress):
    column = PolarScan(raw.power[:, :1], raw.range_resolution_m)
    assert column.power.dtype == np.float32
    assert_same_float64(resample_range(column, 9, suppress).power, resample_range(widened(column), 9, suppress).power)


def test_polar_to_cartesian(raw):
    assert_same_float64(polar_to_cartesian(raw, 128, 1.25).pixels, polar_to_cartesian(widened(raw), 128, 1.25).pixels)


def test_radial_fft_magnitude_of_a_raw_scan(raw):
    assert_same_float64(radial_fft_magnitude(raw).half, radial_fft_magnitude(widened(raw)).half)


def test_ring_key_of_a_raw_scan(raw):
    assert_same_float64(encode_ring_key(raw).values, encode_ring_key(widened(raw)).values)


@pytest.mark.parametrize(
    "azis, crop, length", [(100, 3000, 120), (400, 200, 200), (50, 100, 300)], ids=["down", "equal", "up"]
)
def test_ringkey_sweep_variant(raw, azis, crop, length):
    variant = _ringkey_variant(raw, 60, azis, crop, length).values
    assert_same_float64(variant, _ringkey_variant(widened(raw), 60, azis, crop, length).values)


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """A reference run and a query run, each written as ``.prsn`` scans and
    loaded back (float32 power)."""
    world = PlaceWorld(seed=5, cfg=WorldConfig(n_places=6, n_azimuths=64, n_bins=256, noise_sigma=0.02))
    runs = []
    for name, run in (("ref", world.reference_trajectory()), ("query", world.rotated_query_trajectory(4, seed=1))):
        loaded = load_trajectory(write_trajectory(tmp_path_factory.mktemp(name), run.scans, run.poses))
        assert all(scan.power.dtype == np.float32 for scan in loaded.scans)
        runs.append(loaded.scans)
    return runs


@pytest.mark.parametrize("method", METHODS)
def test_fit_encode_and_match_every_method(stored_runs, method):
    cfg = RunConfig(
        method=method,
        suppress_bins=10,
        target_bins=128,
        k=4,
        raplace=RaplaceConfig(width_px=64, resolution_m=2 * 60.0 / 64),
    )
    outputs = []
    for ref, query in (stored_runs, [[widened(s) for s in scans] for scans in stored_runs]):
        codebook = fit_method_codebook(ref, method, cfg) if method in (METHOD_RADVLAD, METHOD_FFT_RADVLAD) else None
        ref_map = encode_trajectory(ref, method, cfg, codebook)
        query_map = encode_trajectory(query, method, cfg, codebook)
        dist = distance_matrix_from_descriptors(method, query_map, ref_map).values
        rows = [np.array([ref_map.method.array_of(d) for d in place_map]) for place_map in (ref_map, query_map)]
        outputs.append((None if codebook is None else codebook.centres, *rows, dist))
    for stored, wide in zip(*outputs):
        if stored is not None:
            assert_same_float64(stored, wide)
