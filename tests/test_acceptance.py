"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces its runtime budget. The synthetic scenario tests
cache their artefacts so the final determinism check can re-run them and
compare bytes.
"""

import contextlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import radvlad as rv
from radvlad.config import RunConfig
from radvlad.descriptors import RaplaceConfig
from radvlad.evaluate import bench_timings
from radvlad.scenarios import (
    run_rotation_scenario,
    run_self_scenario,
    run_translation_scenario,
)
from radvlad.synthetic import WorldConfig

N_WORLDS_TRANSLATION = 20
ROTATION_WORLD = WorldConfig(n_places=50, n_reflectors=50)
TRANSLATION_WORLD = WorldConfig(n_places=30, n_reflectors=50)
SELF_WORLD = WorldConfig(n_places=100, n_reflectors=50)

_artifacts = {}


@contextlib.contextmanager
def criterion(name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"{name}: runtime {elapsed:.1f}s exceeds {limit_s}s budget"
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


def test_01_fft_matches_naive_dft_oracle():
    with criterion("fft vs direct-evaluation oracle on 1000 rows", limit_s=10.0):
        rng = np.random.default_rng(101)
        counts = {1: 160, 2: 160, 3: 160, 4: 160, 8: 160, 512: 200}
        assert sum(counts.values()) == 1000
        for width, n_rows in counts.items():
            for _ in range(n_rows):
                row = rng.random(width)
                fast = rv.radial_fft_magnitude(rv.PolarScan(row[None, :], 1.0)).magnitude[0]
                slow = rv.naive_dft_magnitude(row)
                scale = max(1e-300, np.abs(slow).max())
                assert np.abs(fast - slow).max() / scale <= 1e-9


def test_02_parseval_and_cyclic_shift_invariance():
    with criterion("Parseval + cyclic-shift invariance on 1000 rows", limit_s=10.0):
        rng = np.random.default_rng(202)
        rows = rng.random((1000, 512))
        mags = rv.radial_fft_magnitude(rv.PolarScan(rows, 1.0)).magnitude
        energy = 512 * (rows**2).sum(axis=1)
        assert np.abs((mags**2).sum(axis=1) - energy).max() / energy.max() <= 1e-9
        shifts = rng.integers(0, 512, size=1000)
        shifted = np.stack([np.roll(rows[i], shifts[i]) for i in range(1000)])
        mags_shifted = rv.radial_fft_magnitude(rv.PolarScan(shifted, 1.0)).magnitude
        rel = np.abs(mags_shifted - mags).max(axis=1) / mags.max(axis=1)
        assert rel.max() <= 1e-9


def test_03_vlad_rotational_invariance_and_argmin_stability():
    with criterion("descriptor rotation invariance over 200 trials", limit_s=30.0):
        rng = np.random.default_rng(303)
        n_az, width, k = 24, 32, 8
        map_scans = rng.random((50, n_az, width))
        codebook = rv.fit_kmeans_pp(map_scans.reshape(-1, width), k, seed=0)
        map_descs = [rv.encode_vlad(scan, codebook) for scan in map_scans]

        def argmin_over_map(query_desc):
            dists = [rv.descriptor_distance(query_desc, d) for d in map_descs]
            return int(np.argmin(dists))

        for _ in range(200):
            scan = rng.random((n_az, width))
            shift = int(rng.integers(1, n_az))
            base = rv.encode_vlad(scan, codebook)
            rotated = rv.encode_vlad(np.roll(scan, shift, axis=0), codebook)
            tol = 1e-6 * max(1.0, np.abs(base.values).max())
            assert np.abs(rotated.values - base.values).max() <= tol
            assert argmin_over_map(base) == argmin_over_map(rotated)


def test_04_brute_force_oracle_equivalence():
    with criterion("brute-force oracle equivalence, 5 ops x 100 instances", limit_s=60.0):
        rng = np.random.default_rng(404)

        for _ in range(100):  # encode_vlad: cluster-major double loop
            rows = rng.random((16, 8))
            centres = rng.random((4, 8))
            codebook = rv.Codebook(centres, inertia=0.0, iterations_run=1)
            got = rv.encode_vlad(rows, codebook).values
            want = np.zeros(4 * 8)
            for i in range(4):
                for row in rows:
                    dists = [float(((row - c) ** 2).sum()) for c in centres]
                    best = min(range(4), key=lambda j: (dists[j], j))
                    if best == i:
                        want[i * 8:(i + 1) * 8] += row - centres[i]
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

        for _ in range(100):  # descriptor_distance: elementwise python sum
            a, b = rng.random(48), rng.random(48)
            want = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
            got = rv.descriptor_distance(a, b)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

        centres = rng.random((16, 8))
        codebook = rv.Codebook(centres, inertia=0.0, iterations_run=1)
        for _ in range(100):  # assign_nearest: linear scan with strict less-than
            x = rng.random(8)
            best, best_d = 0, float("inf")
            for i, c in enumerate(centres):
                d = float(((x - c) ** 2).sum())
                if d < best_d:
                    best, best_d = i, d
            assert rv.assign_nearest(codebook, x) == best

        for _ in range(100):  # recall_at_n: per-query sort oracle
            dist = rng.random((20, 30))
            gt = rng.random((20, 30)) < 0.12
            curve = rv.recall_at_n(
                rv.DistanceMatrix(dist), rv.GroundTruthMatrix(gt, 25.0), 10
            )
            want = np.zeros(10)
            evaluated = 0
            for i in range(20):
                if not gt[i].any():
                    continue
                evaluated += 1
                order = sorted(range(30), key=lambda j: (dist[i, j], j))
                first = next(r for r, j in enumerate(order) if gt[i, j])
                want[first:] += (first < np.arange(1, 11))[first:]
            want = 100.0 * want / max(evaluated, 1)
            assert np.array_equal(curve.recall_pct, want)
            assert curve.evaluated_queries == evaluated

        for _ in range(100):  # raplace_similarity: explicit shift maximum
            sa, sb = rng.random((16, 8)), rng.random((16, 8))
            want = max(float((np.roll(sa, -s, axis=0) * sb).sum()) for s in range(16))
            got = rv.raplace_similarity(rv.RaplaceDescriptor(sa), rv.RaplaceDescriptor(sb))
            assert abs(got - want) <= 1e-9 * abs(want)


def test_05_synthetic_rotation_recall(tmp_path_factory):
    with criterion("rotated-query localisation, 100 trials", limit_s=120.0):
        out = tmp_path_factory.mktemp("rotation") / "run"
        run = run_rotation_scenario(out, seed=0, world_cfg=ROTATION_WORLD, trials=100)
        _artifacts["rotation"] = out
        assert run.recall.evaluated_queries == 100
        assert run.recall.recall_pct[0] == 100.0


def test_06_synthetic_translation_ranking(tmp_path_factory):
    with criterion("translated-query ranking over 20 worlds", limit_s=300.0):
        root = tmp_path_factory.mktemp("translation")
        correct_raw = correct_spectral = 0.0
        dirs = []
        for seed in range(N_WORLDS_TRANSLATION):
            out = root / f"world{seed:02d}"
            raw, spectral = run_translation_scenario(out, seed=seed, world_cfg=TRANSLATION_WORLD)
            dirs.append(out)
            correct_raw += raw.recall.recall_pct[0] * raw.recall.evaluated_queries
            correct_spectral += spectral.recall.recall_pct[0] * spectral.recall.evaluated_queries
        _artifacts["translation"] = dirs
        assert correct_spectral >= correct_raw


def test_07_self_localisation_all_methods(tmp_path_factory):
    with criterion("self-localisation, 100 places, all methods", limit_s=120.0):
        out = tmp_path_factory.mktemp("selfpair") / "run"
        runs = run_self_scenario(out, seed=0, world_cfg=SELF_WORLD)
        _artifacts["self"] = out
        assert {r.method for r in runs} == set(rv.METHODS)
        for run in runs:
            assert run.recall.recall_pct[0] == 100.0, run.method


def test_08_timing_direction(tmp_path_factory):
    with criterion("timing: spectral-residual vs sinogram-spectrum", limit_s=300.0):
        scans = []
        for i in range(8):
            scene = rv.generate_scene(80, 140.0, seed=800 + i)
            scan = rv.render_polar(
                scene, rv.SensorPose(0, 0, 0),
                n_azimuths=400, n_bins=3768, max_range_m=3768 * 0.0432, beam_sigma_bins=2.0,
            )
            scans.append(replace(scan, timestamp_ns=i * 10**9, id=f"bench-{i}"))

        cfg_spectral = RunConfig(method="fft_radvlad")
        cfg_sinogram = RunConfig(
            method="raplace",
            raplace=RaplaceConfig(width_px=128, resolution_m=2.5424, scale_pct=25.0),
        )
        report_spectral = bench_timings("fft_radvlad", scans, 1000, cfg_spectral)
        report_sinogram = bench_timings("raplace", scans, 1000, cfg_sinogram)

        out = tmp_path_factory.mktemp("timing") / "timings.csv"
        rv.write_timing_csv(out, [report_spectral, report_sinogram])

        build_ratio = report_spectral.median("build") / report_sinogram.median("build")
        dist_ratio = report_spectral.median("distance") / report_sinogram.median("distance")
        readings = (
            f"medians: spectral build {report_spectral.median('build'):.6e} s, "
            f"sinogram build {report_sinogram.median('build'):.6e} s, "
            f"spectral distance {report_spectral.median('distance'):.6e} s, "
            f"sinogram distance {report_sinogram.median('distance'):.6e} s; "
            f"build ratio {build_ratio:.3f} (<= 0.5), distance ratio {dist_ratio:.3f} (<= 0.75)"
        )
        print(f"  {readings}")
        assert build_ratio <= 0.5, readings
        assert dist_ratio <= 0.75, readings


@pytest.mark.skipif(
    "RADVLAD_OXFORD_QUERY_DIR" not in os.environ or "RADVLAD_OXFORD_REF_DIR" not in os.environ,
    reason="dataset-gated: set RADVLAD_OXFORD_QUERY_DIR and RADVLAD_OXFORD_REF_DIR to ingested run directories",
)
def test_09_dataset_pair_optional():
    query = rv.load_trajectory(os.environ["RADVLAD_OXFORD_QUERY_DIR"])
    ref = rv.load_trajectory(os.environ["RADVLAD_OXFORD_REF_DIR"])
    sinogram_run = rv.run_pair(query, ref, "raplace", RunConfig(method="raplace"))
    spectral_run = rv.run_pair(query, ref, "fft_radvlad", RunConfig(method="fft_radvlad"))
    r2 = sinogram_run.recall.recall_pct[0]
    r4 = spectral_run.recall.recall_pct[0]
    print(f"[acceptance] dataset pair: sinogram {r2:.2f}%, spectral {r4:.2f}%")
    assert 67.16 - 5.0 <= r2 <= 67.16 + 5.0
    assert r4 > r2


def test_10_determinism_of_scenario_artifacts(tmp_path_factory):
    with criterion("byte-identical scenario re-runs", limit_s=300.0):
        assert "rotation" in _artifacts and "translation" in _artifacts and "self" in _artifacts
        root = tmp_path_factory.mktemp("rerun")

        rotation_rerun = root / "rotation"
        run_rotation_scenario(rotation_rerun, seed=0, world_cfg=ROTATION_WORLD, trials=100)
        assert (rotation_rerun / "results.csv").read_bytes() == (
            _artifacts["rotation"] / "results.csv"
        ).read_bytes()

        for seed, first_dir in enumerate(_artifacts["translation"]):
            rerun = root / f"translation{seed:02d}"
            run_translation_scenario(rerun, seed=seed, world_cfg=TRANSLATION_WORLD)
            assert (rerun / "results.csv").read_bytes() == (first_dir / "results.csv").read_bytes()

        self_rerun = root / "selfpair"
        run_self_scenario(self_rerun, seed=0, world_cfg=SELF_WORLD)
        assert (self_rerun / "results.csv").read_bytes() == (
            _artifacts["self"] / "results.csv"
        ).read_bytes()
