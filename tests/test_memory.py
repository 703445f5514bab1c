"""Allocation bounds, measured with tracemalloc.

NumPy reports its array buffers to tracemalloc, so the traced peak of a
call is the largest set of arrays it held at once. Inputs are made
before tracing starts and are not counted.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  the sinogram imports it on first use; not an allocation of the call

from radvlad import (
    CartesianScan,
    PolarScan,
    RunConfig,
    VladDescriptor,
    descriptors,
    fit_kmeans_pp,
    radon_sinogram,
    read_prsn,
    resample_range,
    write_prsn,
)
from radvlad.evaluate import Method, PlaceMap, encode_trajectory, fit_method_codebook
from radvlad.runs import load_trajectory, write_trajectory
from radvlad.spectral import unfold_half_spectrum


def traced_bytes(fn):
    """(result of fn(), bytes newly allocated while it ran and still held
    after it, peak bytes newly allocated while it ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


def traced_peak_bytes(fn):
    """(result of fn(), peak bytes newly allocated while it ran)."""
    result, _, peak = traced_bytes(fn)
    return result, peak


@pytest.fixture
def raw_prsn(tmp_path):
    """A full-size raw scan, 400 azimuths x 3768 range bins, as a ``.prsn`` file."""
    path = tmp_path / "raw.prsn"
    write_prsn(path, PolarScan(np.random.default_rng(3).random((400, 3768)), 0.0432))
    return path


def test_reading_a_scan_holds_its_file_about_once(raw_prsn):
    # The file's bytes, with the samples viewed in place as float32, and
    # the one-byte-per-sample finiteness mask: no float64 copy (2x the file).
    scan, peak = traced_peak_bytes(lambda: read_prsn(raw_prsn))
    assert scan.power.dtype == np.float32
    assert peak < 1.5 * raw_prsn.stat().st_size


def test_resampling_a_float32_scan_never_widens_it_whole(raw_prsn):
    # The output (512 of 3768 columns, float64) and one widened block of
    # columns at a time; the band is built before tracing starts.
    scan = read_prsn(raw_prsn)
    resample_range(scan, 512, suppress_bins=60)
    out, peak = traced_peak_bytes(lambda: resample_range(scan, 512, suppress_bins=60))
    assert out.power.dtype == np.float64
    assert peak < 0.25 * scan.power.size * 8


@pytest.fixture(scope="module")
def raw_run(tmp_path_factory):
    """A run of six full-size raw scans, 400 azimuths x 3768 range bins, as ``.prsn`` files."""
    rng = np.random.default_rng(4)
    scans = [PolarScan(rng.random((400, 3768)), 0.0432, timestamp_ns=t) for t in range(6)]
    return write_trajectory(tmp_path_factory.mktemp("raw_run"), scans)


def test_loading_a_run_reads_none_of_its_scans(raw_run):
    scan_bytes = (raw_run / "scans" / "000000.prsn").stat().st_size
    trajectory, peak = traced_peak_bytes(lambda: load_trajectory(raw_run, require_poses=False))
    assert len(trajectory.scans) == 6
    assert peak < scan_bytes


def test_fitting_and_encoding_a_run_holds_a_scan_at_a_time(raw_run):
    # The training rows (held while the fit runs, and while they are
    # gathered) and the scan in flight with its temporaries; never the
    # whole run (six scans).
    cfg = RunConfig(method="fft_radvlad", kmeans_max_iter=5)
    scan_bytes = (raw_run / "scans" / "000000.prsn").stat().st_size
    training_bytes = 6 * 400 * (cfg.target_bins // 2 + 1) * 8
    resample_range(read_prsn(raw_run / "scans" / "000000.prsn"), cfg.target_bins, suppress_bins=cfg.suppress_bins)

    def set_up():
        scans = load_trajectory(raw_run, require_poses=False).scans
        return encode_trajectory(scans, cfg.method, cfg, fit_method_codebook(scans, cfg.method, cfg))

    place_map, peak = traced_peak_bytes(set_up)
    assert len(place_map) == 6
    assert peak < 2 * scan_bytes + 2 * training_bytes


@pytest.fixture(scope="module")
def small_scan_run(tmp_path_factory):
    """A run of 300 small scans, 32 azimuths x 1024 range bins, as a map of
    the largemap benchmark has them: many scans, each far smaller than
    the training rows of the whole run."""
    rng = np.random.default_rng(6)
    run_dir = tmp_path_factory.mktemp("small_scan_run")
    write_trajectory(run_dir, (PolarScan(rng.random((32, 1024)), 0.06, timestamp_ns=t) for t in range(300)))
    return run_dir


def test_training_rows_of_a_run_are_allocated_once(small_scan_run):
    # The row array is sized from the scans' headers before the first
    # scan is read, so the set-up holds it once, and beside it only the
    # scan in flight with its temporaries; an array grown as rows arrive
    # holds a reallocation's slack on top (about a fifth more here).
    method = Method("fft_radvlad", RunConfig(method="fft_radvlad"))
    scans = load_trajectory(small_scan_run, require_poses=False).scans
    _, one_scan_peak = traced_peak_bytes(lambda: method.training_rows(scans[:1]))
    rows, peak = traced_peak_bytes(lambda: method.training_rows(scans))
    assert rows.shape == (300 * 32, 257)
    assert peak < rows.nbytes + 2 * one_scan_peak


@pytest.mark.parametrize("live_share", [1.0, 0.2])
def test_place_map_holds_its_live_sections_about_once(live_share):
    # Mirror-symmetric sections, as radial spectra have, which the map
    # holds folded, each live in a place with probability ``live_share``
    # and +0.0 elsewhere. The map holds only the live sections, once: with
    # every section live that is half the descriptors' bytes. While it is
    # built it holds at most room for every folded section and the
    # temporaries of folding one descriptor (three full-width rows at
    # most), never the sections twice.
    k, width, count = 16, 512, 128
    rng = np.random.default_rng(0)
    live = rng.random((count, k)) < live_share
    descriptors = [
        VladDescriptor(unfold_half_spectrum(np.where(mask[:, None], rng.standard_normal((k, width // 2 + 1)), 0.0), width), k, width)
        for mask in live
    ]
    full_width_bytes = count * k * width * 8
    folded_bytes = count * k * (width // 2 + 1) * 8
    live_bytes = int(live.sum()) * (width // 2 + 1) * 8
    place_map, held, peak = traced_bytes(lambda: PlaceMap("fft_radvlad", descriptors))
    assert len(place_map) == count
    # The blocks, plus an owner index (8 B) per live section and small objects.
    assert live_bytes < held < live_bytes + 0.02 * folded_bytes
    assert abs(held / folded_bytes - live_share) < 0.05
    assert peak < 0.65 * full_width_bytes
    assert peak < folded_bytes + 3 * k * width * 8


def test_codebook_fit_makes_no_second_copy_of_its_input():
    # Wide rows and few centres: every legitimate temporary (norms,
    # labels, n x k distances, one cluster's rows gathered to be summed,
    # about n/k x W) is well below n x W.
    rows = np.random.default_rng(1).random((2000, 512))
    codebook, peak = traced_peak_bytes(lambda: fit_kmeans_pp(rows, 4, seed=0, max_iter=3))
    assert codebook.iterations_run >= 1
    assert peak < 0.5 * rows.nbytes


def test_codebook_fit_checks_finiteness_without_an_input_sized_mask():
    # The squared norms it caches anyway decide finiteness, so the fit
    # never holds an n x W boolean mask (one byte per input element).
    rows = np.random.default_rng(1).random((2000, 512))
    _, peak = traced_peak_bytes(lambda: fit_kmeans_pp(rows, 4, seed=0, max_iter=1))
    assert peak < 0.75 * rows.size


def test_uncached_sinogram_holds_one_angle_table_at_a_time(monkeypatch):
    # Past the cache budget the operators are streamed: the peak is one
    # angle's operator (at most 52 B per pixel) and the next one's build
    # temporaries, the quarter-turned image and the pixel grid, not all 32.
    side = 64
    image = CartesianScan(np.random.default_rng(2).random((side, side)), 1.0)
    monkeypatch.setattr(descriptors, "_TABLE_CACHE_LIMIT_BYTES", 0)
    monkeypatch.setattr(descriptors, "_table_cache", {})
    sinogram, peak = traced_peak_bytes(lambda: radon_sinogram(image, side))
    assert sinogram.shape == (side, side)
    assert peak < 8 * 28 * side * side


def test_cached_operators_hold_less_than_the_sampling_tables_they_replace(monkeypatch):
    # Per-angle sampling tables held 28 B per pixel (an int32 base index
    # and three float64 arrays) for every angle; the operators are built
    # for half the angles and leave rows that sample outside the grid empty.
    side = n_angles = 128
    monkeypatch.setattr(descriptors, "_table_cache", {})
    operators = descriptors._rotation_operators(side, n_angles)
    held = sum(op.data.nbytes + op.indices.nbytes + op.indptr.nbytes for op in operators)
    assert held < 28 * n_angles * side * side
