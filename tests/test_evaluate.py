import collections
import functools
import operator
import pickle
import shutil
import threading
import time
from copy import deepcopy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    Codebook,
    DistanceMatrix,
    GroundTruthMatrix,
    IngestError,
    PlaceWorld,
    RunConfig,
    TrajectoryPoses,
    WorldConfig,
    associate_poses,
    bench_timings,
    descriptor_distance,
    downsample_trajectory,
    encode_vlad,
    fit_kmeans_pp,
    ground_truth_matrix,
    load_descriptor,
    radial_fft_magnitude,
    recall_at_n,
    run_pair,
    save_descriptor,
    write_timing_csv,
)
from radvlad.codebook import pairwise_sq_dist
from radvlad.descriptors import (
    RaplaceConfig,
    RaplaceDescriptor,
    RingKeyDescriptor,
    VladDescriptor,
    nearest_centre_labels,
    raplace_similarity,
)
from radvlad.evaluate import (
    Method,
    PlaceMap,
    RecallCurve,
    SectionedRows,
    Spectra,
    TimingReport,
    _openblas_thread_functions,
    _single_thread_context,
    blas_threads,
    distance_matrix_from_descriptors,
    encode_trajectory,
    fit_method_codebook,
    pair_setup,
    preprocess_scan,
    read_distance_matrix,
    write_distance_matrix,
    write_results_csv,
)
from radvlad import codebook as codebook_module
from radvlad import descriptors as descriptors_module
from radvlad import evaluate as evaluate_module
from radvlad import runs as runs_module
from radvlad import spectral as spectral_module
from radvlad.cli import main as cli_main
from radvlad.runs import load_trajectory, scan_headers, write_trajectory
from radvlad.scans import Trajectory
from radvlad.scenarios import run_rotation_scenario, synthetic_run_config
from radvlad.spectral import fold_half_spectrum, unfold_half_spectrum
from radvlad.synthetic import PlaceWorld as _World


def recall_oracle(dist, gt, n_max):
    """Sort-based reference: ranks by (distance, reference index)."""
    q, m = dist.shape
    curve = np.zeros(n_max)
    evaluated = 0
    for i in range(q):
        if not gt[i].any():
            continue
        evaluated += 1
        order = sorted(range(m), key=lambda j: (dist[i, j], j))
        first_hit = next(rank for rank, j in enumerate(order) if gt[i, j])
        for n in range(1, n_max + 1):
            if first_hit < n:
                curve[n - 1] += 1
    return 100.0 * curve / max(evaluated, 1), evaluated


class TestDownsample:
    def test_every_tenth_of_8500(self):
        assert len(downsample_trajectory(list(range(8500)), 10)) == 850

    def test_stride_one_identity(self):
        items = list(range(7))
        assert downsample_trajectory(items, 1) == items

    def test_short_list_keeps_first(self):
        assert downsample_trajectory([4, 5, 6, 7, 8], 10) == [4]

    def test_bad_stride(self):
        with pytest.raises(ArgumentError):
            downsample_trajectory([1], 0)


class TestGroundTruth:
    def test_identical_pose_lists_have_true_diagonal(self):
        poses = TrajectoryPoses([1, 2, 3], [0.0, 100.0, 200.0], [0.0, 0.0, 0.0])
        gt = ground_truth_matrix(poses, poses, 25.0)
        assert np.array_equal(gt.is_match, np.eye(3, dtype=bool))

    def test_everything_far_apart_is_all_false(self):
        a = TrajectoryPoses([1, 2], [0.0, 0.0], [0.0, 1.0])
        b = TrajectoryPoses([1, 2], [100.0, 100.0], [100.0, 101.0])
        assert not ground_truth_matrix(a, b, 25.0).is_match.any()

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        qa = TrajectoryPoses(np.arange(8), rng.uniform(0, 60, 8), rng.uniform(0, 60, 8))
        ra = TrajectoryPoses(np.arange(11), rng.uniform(0, 60, 11), rng.uniform(0, 60, 11))
        gt = ground_truth_matrix(qa, ra, 20.0)
        for i in range(8):
            for j in range(11):
                d = np.hypot(qa.easting_m[i] - ra.easting_m[j], qa.northing_m[i] - ra.northing_m[j])
                assert gt.is_match[i, j] == (d <= 20.0)

    def test_empty_rejected(self):
        poses = TrajectoryPoses([1], [0.0], [0.0])
        empty = TrajectoryPoses([], [], [])
        with pytest.raises(ArgumentError):
            ground_truth_matrix(poses, empty, 25.0)

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
    def test_matrix_that_is_not_2d_rejected(self, shape):
        with pytest.raises(ArgumentError, match="2-D"):
            GroundTruthMatrix(np.zeros(shape, dtype=bool), 25.0)


class TestRecallAtN:
    def test_gt_derived_distances_reach_100_at_1(self):
        rng = np.random.default_rng(1)
        gt_mat = rng.random((10, 15)) < 0.3
        gt_mat[:, 0] |= ~gt_mat.any(axis=1)  # ensure every query has a match
        dist = np.where(gt_mat, 0.0, 1.0)
        curve = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 5)
        assert curve.recall_pct[0] == 100.0

    def test_full_map_reaches_100(self):
        rng = np.random.default_rng(2)
        dist = rng.random((6, 9))
        gt_mat = np.zeros((6, 9), dtype=bool)
        gt_mat[np.arange(6), rng.integers(0, 9, 6)] = True
        curve = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 9)
        assert curve.recall_pct[-1] == 100.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dist = rng.random((20, 30))
            gt_mat = rng.random((20, 30)) < 0.1
            curve = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 12)
            want, evaluated = recall_oracle(dist, gt_mat, 12)
            assert np.array_equal(curve.recall_pct, want)
            assert curve.evaluated_queries == evaluated

    def test_ties_break_to_lower_reference_index(self):
        dist = np.array([[0.5, 0.5, 0.5]])
        gt_mat = np.array([[False, True, False]])
        curve = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 3)
        # rank of the true match under lowest-index tie-break is 1, so N=1 misses
        assert curve.recall_pct.tolist() == [0.0, 100.0, 100.0]

    def test_monotone_in_n(self):
        rng = np.random.default_rng(4)
        dist = rng.random((25, 40))
        gt_mat = rng.random((25, 40)) < 0.08
        curve = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 40)
        assert np.all(np.diff(curve.recall_pct) >= 0.0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        dist = rng.random((15, 20))
        gt_mat = rng.random((15, 20)) < 0.15
        base = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 10)
        warped = recall_at_n(DistanceMatrix(dist**3 + 1.0), GroundTruthMatrix(gt_mat, 25.0), 10)
        assert np.array_equal(base.recall_pct, warped.recall_pct)

    def test_matchless_queries_are_skipped(self):
        dist = np.array([[0.1, 0.2], [0.2, 0.1], [0.3, 0.4]])
        gt_mat = np.array([[True, False], [False, False], [False, True]])
        curve = recall_at_n(DistanceMatrix(dist), GroundTruthMatrix(gt_mat, 25.0), 2)
        assert curve.evaluated_queries == 2
        assert curve.skipped_queries == 1
        assert curve.recall_pct[0] == 50.0  # query 2's nearest (index 0) is not its match

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            recall_at_n(
                DistanceMatrix(np.zeros((2, 3))),
                GroundTruthMatrix(np.zeros((2, 4), dtype=bool), 25.0),
                1,
            )

    def test_n_max_below_one_rejected(self):
        with pytest.raises(ArgumentError, match="n_max"):
            recall_at_n(DistanceMatrix(np.zeros((2, 3))), GroundTruthMatrix(np.ones((2, 3), dtype=bool), 25.0), 0)

    def test_no_query_with_a_match_gives_a_zero_curve(self):
        curve = recall_at_n(DistanceMatrix(np.zeros((2, 3))), GroundTruthMatrix(np.zeros((2, 3), dtype=bool), 25.0), 4)
        assert curve.n_values.tolist() == [1, 2, 3, 4] and curve.recall_pct.tolist() == [0.0] * 4
        assert (curve.evaluated_queries, curve.skipped_queries) == (0, 2)

    def test_curve_read_at_a_missing_n_rejected(self):
        curve = RecallCurve(np.arange(1, 4), np.array([50.0, 75.0, 100.0]), 4)
        assert curve.at(2) == 75.0
        for n in (0, 4):
            with pytest.raises(ArgumentError, match=f"N={n} not in curve"):
                curve.at(n)


class TestAssociatePoses:
    def test_nearest_timestamp_wins(self):
        class Stub:
            def __init__(self, ts):
                self.timestamp_ns = ts

        poses = TrajectoryPoses([0, 10, 20], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        out = associate_poses([Stub(2), Stub(9), Stub(11)], poses)
        assert out.easting_m.tolist() == [0.0, 1.0, 1.0]

    def test_equidistant_prefers_earlier(self):
        class Stub:
            def __init__(self, ts):
                self.timestamp_ns = ts

        poses = TrajectoryPoses([0, 10], [0.0, 1.0], [0.0, 0.0])
        out = associate_poses([Stub(5)], poses)
        assert out.easting_m.tolist() == [0.0]

    def test_no_poses_or_unordered_scans_rejected(self):
        class Stub:
            def __init__(self, ts):
                self.timestamp_ns = ts

        poses = TrajectoryPoses([0, 10], [0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ArgumentError, match="pose list is empty"):
            associate_poses([Stub(5)], TrajectoryPoses([], [], []))
        for stamps in ([5, 5], [6, 5]):
            with pytest.raises(ArgumentError, match="strictly increasing"):
                associate_poses([Stub(t) for t in stamps], poses)

    def test_pair_setup_rejects_an_empty_trajectory(self, small_world):
        ref = small_world.reference_trajectory()
        empty = Trajectory("empty", [], TrajectoryPoses([], [], []))
        cfg = synthetic_run_config(small_world.cfg, "ringkey")
        for query, refs in ((empty, ref), (ref, empty)):
            with pytest.raises(ArgumentError, match="at least one scan"):
                pair_setup(query, refs, cfg)


class TestDistanceMatrixIO:
    def test_dmat_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        dm = DistanceMatrix(rng.random((5, 7)))
        path = tmp_path / "d.dmat"
        write_distance_matrix(path, dm)
        back = read_distance_matrix(path)
        assert back.values.shape == (5, 7)
        assert np.array_equal(back.values, dm.values.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("magic.dmat", lambda buf: b"NOPE" + buf[4:]),
            ("truncated.dmat", lambda buf: buf[:-2]),
            ("cut_in_header.dmat", lambda buf: buf[:6]),
            ("nan.dmat", lambda buf: buf[:-4] + np.array([np.nan], dtype="<f4").tobytes()),
            ("empty.dmat", lambda buf: buf[:4] + np.array([0, 3], dtype="<u4").tobytes()),
        ],
        ids=["bad_magic", "truncated", "cut_in_header", "nan", "empty"],
    )
    def test_malformed_file_rejected_naming_the_file(self, tmp_path, name, damage):
        path = tmp_path / name
        write_distance_matrix(path, DistanceMatrix(np.ones((2, 3))))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(IngestError, match=name):
            read_distance_matrix(path)


@pytest.fixture(scope="module")
def small_world():
    return _World(seed=0, cfg=WorldConfig(n_places=8))


@pytest.fixture(scope="module")
def bench_scans():
    world = _World(seed=2, cfg=WorldConfig(n_places=3, n_bins=128))
    return world.reference_trajectory().scans


class TestRunPair:
    @pytest.mark.parametrize("method", ["ringkey", "raplace", "radvlad", "fft_radvlad"])
    def test_self_pair_recall_is_100(self, small_world, method):
        ref = small_world.reference_trajectory()
        cfg = synthetic_run_config(small_world.cfg, method, k=4)
        run = run_pair(ref, ref, method, cfg)
        assert run.recall.recall_pct[0] == 100.0

    def test_vector_distances_match_pairwise_function(self, small_world):
        ref = small_world.reference_trajectory()
        cfg = synthetic_run_config(small_world.cfg, "fft_radvlad", k=4)
        run = run_pair(ref, ref, "fft_radvlad", cfg)
        cb = fit_method_codebook(ref.scans, "fft_radvlad", cfg)
        descs = encode_trajectory(ref.scans, "fft_radvlad", cfg, cb)
        for i in (0, 3):
            for j in (1, 5):
                want = descriptor_distance(descs[i], descs[j])
                assert run.distances.values[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_artifacts_written(self, small_world, tmp_path):
        ref = small_world.reference_trajectory()
        cfg = synthetic_run_config(small_world.cfg, "fft_radvlad", k=4)
        run_pair(ref, ref, "fft_radvlad", cfg, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "distances.dmat").exists()
        assert (tmp_path / "out" / "codebook.cdbk").exists()

    def test_results_csv_deterministic(self, tmp_path):
        cfg = WorldConfig(n_places=6)
        run_rotation_scenario(tmp_path / "a", seed=3, world_cfg=cfg, trials=8)
        run_rotation_scenario(tmp_path / "b", seed=3, world_cfg=cfg, trials=8)
        assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()

    def test_results_csv_format(self, tmp_path):
        world = _World(seed=0, cfg=WorldConfig(n_places=4))
        ref = world.reference_trajectory()
        cfg = synthetic_run_config(world.cfg, "ringkey", k=4)
        run = run_pair(ref, ref, "ringkey", cfg, out_dir=tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "query_traj,ref_traj,method,N,recall_pct,evaluated,skipped"
        assert len(lines) == 1 + len(run.recall.n_values)
        first = lines[1].split(",")
        assert first[2] == "ringkey" and first[3] == "1" and first[4] == "100.000000"


METHOD_NAMES = ["ringkey", "raplace", "radvlad", "fft_radvlad"]


def _map_inputs(method, seed):
    """Reference and rotated query scans of a small world, with a fitted set-up."""
    world = _World(seed=seed, cfg=WorldConfig(n_places=5))
    cfg = synthetic_run_config(world.cfg, method, k=4)
    ref = world.reference_trajectory()
    query = world.rotated_query_trajectory(trials=4, seed=seed + 1)
    codebook = fit_method_codebook(ref.scans, method, cfg) if method in ("radvlad", "fft_radvlad") else None
    return ref.scans, query.scans, cfg, codebook


def _one_by_one(scans, method, cfg, codebook):
    return [encode_trajectory([scan], method, cfg, codebook)[0] for scan in scans]


def _array(descriptor):
    return descriptor.spectrum if isinstance(descriptor, RaplaceDescriptor) else descriptor.values


def _store_arrays(store):
    """Every array a map's store holds of its rows (its caches aside)."""
    held = (getattr(store, field.name) for field in fields(store))
    return [value for value in held if isinstance(value, np.ndarray)]


def _store_caches(store):
    """The names of what a map's store computes on first use, and of those it holds."""
    names = {name for name, attr in vars(type(store)).items() if isinstance(attr, functools.cached_property)}
    return names, names & vars(store).keys()


def _of_another_layout(descriptor):
    """A descriptor of the same class one column, or for VLAD one section, short."""
    if isinstance(descriptor, RaplaceDescriptor):
        return RaplaceDescriptor(descriptor.spectrum[:, :-1])
    if isinstance(descriptor, RingKeyDescriptor):
        return RingKeyDescriptor(descriptor.values[:-1])
    return VladDescriptor(descriptor.values[: (descriptor.k - 1) * descriptor.w], descriptor.k - 1, descriptor.w)


class TestPlaceMap:
    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_and_plain_list_paths_agree_with_pairwise_scores(self, method, seed):
        ref_scans, query_scans, cfg, codebook = _map_inputs(method, seed)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        queries = encode_trajectory(query_scans, method, cfg, codebook)
        plain_refs = _one_by_one(ref_scans, method, cfg, codebook)
        plain_queries = _one_by_one(query_scans, method, cfg, codebook)
        assert isinstance(place_map, PlaceMap) and not isinstance(plain_refs, PlaceMap)

        via_map = distance_matrix_from_descriptors(method, queries, place_map).values
        via_list = distance_matrix_from_descriptors(method, plain_queries, plain_refs).values
        assert np.array_equal(via_map, via_list)
        # One query at a time goes through the same kernel as the batch.
        one_at_a_time = np.vstack(
            [distance_matrix_from_descriptors(method, [q], place_map).values for q in plain_queries]
        )

        for i, q in enumerate(plain_queries):
            for j, r in enumerate(plain_refs):
                if method == "raplace":
                    norms = np.linalg.norm(q.spectrum) * np.linalg.norm(r.spectrum)
                    want, scale = -raplace_similarity(q, r) / norms, 1.0
                else:
                    want = descriptor_distance(q, r)
                    scale = max(q.values @ q.values, r.values @ r.values)
                assert abs(via_map[i, j] - want) <= 1e-9 * scale
                assert abs(one_at_a_time[i, j] - want) <= 1e-9 * scale

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_descriptors_are_read_only(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        array = place_map[1].spectrum if method == "raplace" else place_map[1].values
        with pytest.raises(ValueError):
            array[0] = 1.0
        held = _store_arrays(place_map.store)
        assert held and not any(array.flags.writeable for array in held)
        assert place_map[1] is not place_map[1]

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_only_fft_radvlad_stacks_folded_sections(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        if method == "raplace":
            assert isinstance(place_map.store, Spectra)
            assert place_map.store.data.shape == (len(ref_scans), *_array(place_map[0]).shape)
            return
        width = cfg.target_bins
        sections, section_width = {
            "ringkey": (1, width),
            "radvlad": (cfg.k, width),
            "fft_radvlad": (cfg.k, width // 2 + 1),
        }[method]
        store = place_map.store
        assert isinstance(store, SectionedRows) and len(store) == len(ref_scans)
        assert len(store.bounds) == sections + 1 and store.data.shape == (store.bounds[-1], section_width)
        assert store[0].shape == (sections * section_width,)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_hands_out_the_encoders_descriptors_read_only(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        encode = Method(method, cfg, codebook).encode
        for scan, got in zip(ref_scans, place_map, strict=True):
            want = encode(scan)
            assert type(got) is type(want) and _array(got).shape == _array(want).shape
            if method in ("radvlad", "fft_radvlad"):
                assert (got.k, got.w) == (want.k, want.w)
            assert np.abs(_array(got) - _array(want)).max() <= 2.5e-16 * np.abs(_array(want)).max()
            with pytest.raises(ValueError):
                _array(got)[0] = 1.0

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_indexes_as_a_tuple_does(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        places = tuple(place_map)
        assert len(places) == len(place_map) == len(ref_scans)
        assert np.array_equal(_array(place_map[-1]), _array(places[-1]))
        assert np.array_equal(_array(place_map[len(place_map) - 1]), _array(places[-1]))
        window = place_map[1:3]
        assert isinstance(window, tuple) and len(window) == len(places[1:3]) == 2
        for got, want in zip(window, places[1:3]):
            assert np.array_equal(_array(got), _array(want))
        assert place_map[10:] == places[10:] == ()
        for index in (len(place_map), -len(place_map) - 1):
            with pytest.raises(IndexError):
                place_map[index]

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_matrix_is_independent_of_jobs(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 3)
        one = encode_trajectory(ref_scans, method, cfg, codebook, jobs=1)
        two = encode_trajectory(ref_scans, method, cfg, codebook, jobs=2)
        assert [a.tobytes() for a in _store_arrays(one.store)] == [a.tobytes() for a in _store_arrays(two.store)]
        assert len(one) == len(two) == len(ref_scans)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_caches_are_computed_on_first_use_and_only_for_the_map(self, method):
        ref_scans, query_scans, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        query = encode_trajectory(query_scans[:1], method, cfg, codebook)
        # A map's caches live on its store; a query's norms come from its
        # rows, so a query map computes nothing.
        names, held = _store_caches(place_map.store)
        assert names and held == _store_caches(query.store)[1] == set()
        distance_matrix_from_descriptors(method, [query[0]], place_map)
        assert _store_caches(query.store)[1] == set()
        distance_matrix_from_descriptors(method, query, place_map)
        assert _store_caches(place_map.store)[1] == names
        assert _store_caches(query.store)[1] == set()
        for name in names:
            with pytest.raises(ValueError):
                getattr(place_map.store, name)[0] = 1.0

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_the_maps_store_gives_the_distance_matrix(self, method):
        ref_scans, query_scans, cfg, codebook = _map_inputs(method, 4)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        query_map = encode_trajectory(query_scans, method, cfg, codebook)
        plain = _one_by_one(query_scans, method, cfg, codebook)
        stack = np.stack([place_map.method.array_of(q) for q in plain])
        for queries, rows in ((plain, stack), (query_map, query_map.store)):
            want = distance_matrix_from_descriptors(method, queries, place_map).values
            assert place_map.store.distances(rows).tobytes() == want.tobytes()
        if method == "raplace":
            # The batched formula the map matched by before its store owned
            # the match: FFT of the whole query stack, then -(sim / scale).
            refs = place_map.store.data
            fq, fr_conj = np.fft.fft(stack, axis=1), np.conj(np.fft.fft(refs, axis=1))
            norms_q = np.array([np.linalg.norm(q) for q in stack])
            norms_r = np.array([np.linalg.norm(r) for r in refs])
            scale = np.maximum(norms_q[:, None] * norms_r[None, :], np.finfo(float).tiny)
            sim = np.empty((len(stack), len(refs)))
            for i in range(len(stack)):
                sim[i] = np.fft.ifft((fq[i] * fr_conj).sum(axis=-1), axis=-1).real.max(axis=-1)
            assert place_map.store.distances(stack).tobytes() == (-(sim / scale)).tobytes()

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_only_plain_references_are_mapped(self, method, monkeypatch):
        ref_scans, query_scans, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        queries = list(encode_trajectory(query_scans, method, cfg, codebook))
        built = []
        init = PlaceMap.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PlaceMap, "__init__", spy)
        distance_matrix_from_descriptors(method, queries, place_map)
        assert built == []
        distance_matrix_from_descriptors(method, queries, list(place_map))
        assert len(built) == 1

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_empty_or_mixed_shape_queries_raise(self, method):
        ref_scans, query_scans, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        first = encode_trajectory(query_scans[:1], method, cfg, codebook)[0]
        if method == "raplace":
            narrow = RaplaceDescriptor(first.spectrum[:, :-1])
        elif method == "ringkey":
            narrow = RingKeyDescriptor(first.values[:-1])
        else:
            narrow = VladDescriptor(first.values[: first.k * (first.w - 1)], first.k, first.w - 1)
        for bad in ([], [first, narrow], [narrow, first]):
            with pytest.raises(ArgumentError):
                distance_matrix_from_descriptors(method, bad, place_map)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_plain_queries_and_references_reject_the_same_malformed_lists(self, method, monkeypatch):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        good = list(place_map)
        other = _of_another_layout(good[0])
        calls, raised, stack_of = [], [], Method.stack_of

        def spy(self, descriptors, count=None, **kwargs):
            calls.append(count)
            try:
                return stack_of(self, descriptors, count, **kwargs)
            except ArgumentError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(Method, "stack_of", spy)
        distance_matrix_from_descriptors(method, good[:2], good)
        assert calls == [None, None]  # the references, then the queries
        for bad in ([], [good[0], other], [other, *good]):
            messages = []
            for query_descs, ref_descs in ((bad, good), (bad, place_map), (good, bad)):
                with pytest.raises(ArgumentError) as caught:
                    distance_matrix_from_descriptors(method, query_descs, ref_descs)
                assert raised[-1] == str(caught.value)
                messages.append(str(caught.value))
            assert len(set(messages)) == 1, messages
        stacker = Method(method, cfg, codebook)
        with pytest.raises(ArgumentError, match=f"expected {len(good)} descriptors, got {len(good) - 1}"):
            stacker.stack_of(iter(good[:-1]), len(good))

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_a_map_takes_exactly_count_descriptors_of_one_layout(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        good = list(encode_trajectory(ref_scans, method, cfg, codebook))
        n = len(good)
        assert len(PlaceMap(method, iter(good), n)) == n
        for descriptors, count, reason in (
            ([], None, "at least one descriptor"),
            (good, 0, "at least one descriptor"),
            (good, n - 1, f"descriptor {n - 1} does not fit {n - 1} descriptors"),
            (good[:-1], n, f"expected {n} descriptors, got {n - 1}"),
            ([good[0], _of_another_layout(good[1])], None, "descriptor 1 does not fit 2 descriptors"),
        ):
            with pytest.raises(ArgumentError, match=reason):
                PlaceMap(method, iter(descriptors), count)

    def test_descriptors_of_another_class_raise(self):
        ring_key, vlad = RingKeyDescriptor(np.ones(8)), VladDescriptor(np.zeros(8), 2, 4)
        for queries, refs in (([vlad], [ring_key, ring_key]), ([ring_key], [vlad, vlad])):
            with pytest.raises(ArgumentError, match="VladDescriptor"):
                distance_matrix_from_descriptors("ringkey", queries, refs)

    def test_map_of_another_method_raises(self):
        # radvlad and fft_radvlad descriptors share a class and a shape.
        ref_scans, query_scans, cfg, codebook = _map_inputs("radvlad", 0)
        place_map = encode_trajectory(ref_scans, "radvlad", cfg, codebook)
        queries = encode_trajectory(query_scans, "radvlad", cfg, codebook)
        for query_descs, ref_descs in ((list(queries), place_map), (queries, list(place_map))):
            with pytest.raises(ArgumentError, match="radvlad map"):
                distance_matrix_from_descriptors("fft_radvlad", query_descs, ref_descs)

    def test_descriptor_shape_mismatch_raises(self, small_world):
        cfg = synthetic_run_config(small_world.cfg, "ringkey")
        scans = small_world.reference_trajectory().scans
        refs = encode_trajectory(scans, "ringkey", cfg)
        short = [RingKeyDescriptor(d.values[:-1]) for d in refs]
        with pytest.raises(ArgumentError):
            distance_matrix_from_descriptors("ringkey", short, refs)


SECTIONED = ["ringkey", "radvlad", "fft_radvlad"]
_K, _W = 8, 10


def _sections(method):
    return 1 if method == "ringkey" else _K


def _random_descriptor(method, rng, live):
    """A descriptor of ``method`` that is random in its ``live`` sections
    (a ring key is one section) and +0.0 in the others, as the encoder
    leaves a section no azimuth row falls in."""
    if method == "ringkey":
        return RingKeyDescriptor(np.where(live[0], rng.random(_W), 0.0))
    if method == "radvlad":
        sections = rng.normal(size=(_K, _W))
    else:
        sections = unfold_half_spectrum(rng.normal(size=(_K, _W // 2 + 1)), _W)
    return VladDescriptor(np.where(live[:, None], sections, 0.0).reshape(-1), _K, _W)


def _random_descriptors(method, rng, count, live_share=1.0):
    """``count`` descriptors whose sections are each live with probability ``live_share``."""
    masks = rng.random((count, _sections(method))) < live_share
    return [_random_descriptor(method, rng, live) for live in masks]


def _random_map(method, rng, places=20, live_share=1.0):
    return PlaceMap(method, _random_descriptors(method, rng, places, live_share))


def _assert_per_pair_sums(got, queries, refs):
    """``got`` within 1e-12 of each pair's sum of (q - r)^2, relative to |q|^2 + |r|^2."""
    assert got.shape == (len(queries), len(refs))
    for i, q in enumerate(queries):
        for j, r in enumerate(refs):
            want = float(np.sum((q.values - r.values) ** 2))
            assert abs(got[i, j] - want) <= 1e-12 * (q.values @ q.values + r.values @ r.values), (i, j)


class TestSectionedMatch:
    """The vector match reads, per section some query fills, the map block
    of that section, and must equal the per-pair sum of (q - r)^2."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("method", SECTIONED)
    def test_random_dead_sections_match_the_per_pair_sum(self, method, seed):
        rng = np.random.default_rng(seed)
        refs = _random_descriptors(method, rng, 20, live_share=0.4)
        place_map = PlaceMap(method, refs)
        for size in (1, 2, 5):
            queries = _random_descriptors(method, rng, size, live_share=0.4)
            got = distance_matrix_from_descriptors(method, queries, place_map).values
            _assert_per_pair_sums(got, queries, refs)
            # A query map goes through the same kernel as a plain list.
            as_map = distance_matrix_from_descriptors(method, PlaceMap(method, queries), place_map).values
            assert np.array_equal(as_map, got)

    @pytest.mark.parametrize("method", SECTIONED)
    def test_edge_cases_match_the_per_pair_sum(self, method):
        rng = np.random.default_rng(11)
        n = _sections(method)
        dead, live = np.zeros(n, bool), np.ones(n, bool)
        some = _random_descriptors(method, rng, 6, live_share=0.5)
        cases = (
            ("all-dead query", [_random_descriptor(method, rng, dead)], some),
            ("all-live query and map", [_random_descriptor(method, rng, live)], _random_descriptors(method, rng, 6)),
            ("a place with no live section", _random_descriptors(method, rng, 3, 0.5), [*some, _random_descriptor(method, rng, dead)]),
            ("one-place map", _random_descriptors(method, rng, 3, 0.5), [_random_descriptor(method, rng, live)]),
            ("an all-dead map", _random_descriptors(method, rng, 3), [_random_descriptor(method, rng, dead)] * 2),
        )
        for name, queries, refs in cases:
            place_map = PlaceMap(method, refs)
            for matched in (queries, PlaceMap(method, queries)):
                got = distance_matrix_from_descriptors(method, matched, place_map).values
                _assert_per_pair_sums(got, queries, refs)

    @pytest.mark.parametrize("method", SECTIONED)
    def test_an_all_zero_query_is_the_maps_sq_norms(self, method):
        rng = np.random.default_rng(5)
        place_map, n = _random_map(method, rng), _sections(method)
        zero = _random_descriptor(method, rng, np.zeros(n, bool))
        partial = _random_descriptor(method, rng, np.arange(n) == 0)
        for queries, row in (([zero], 0), ([zero, partial], 0), ([partial, zero], 1)):
            got = distance_matrix_from_descriptors(method, queries, place_map).values
            assert np.array_equal(got[row], place_map.store.sq_norms)

    @pytest.mark.parametrize("method", SECTIONED)
    def test_dead_sections_of_the_queries_are_not_read_in_the_map(self, method):
        rng = np.random.default_rng(6)
        place_map, n = _random_map(method, rng), _sections(method)
        live = np.zeros(n, bool)
        live[1::3] = True
        queries = [_random_descriptor(method, rng, live), _random_descriptor(method, rng, live & (np.arange(n) > 1))]
        want = distance_matrix_from_descriptors(method, queries, place_map).values
        # NaN in the map's blocks of every section the queries leave dead,
        # after its norms are cached: any read of them would reach the distances.
        store = place_map.store
        poisoned = store.data.copy()
        for s in np.flatnonzero(~live):
            poisoned[store.bounds[s] : store.bounds[s + 1]] = np.nan
        place_map.store = replace(store, data=poisoned)
        place_map.store.__dict__["sq_norms"] = store.sq_norms
        got = distance_matrix_from_descriptors(method, queries, place_map).values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("method", SECTIONED)
    def test_the_map_holds_only_live_sections(self, method):
        rng = np.random.default_rng(7)
        refs = _random_descriptors(method, rng, 30, live_share=0.2)
        store = PlaceMap(method, refs).store
        method_rows = Method(method)
        live = np.array([[np.any(s) for s in method_rows.array_of(d).reshape(_sections(method), -1)] for d in refs])
        assert len(store.data) == len(store.owners) == live.sum()
        for s in range(_sections(method)):
            block = slice(store.bounds[s], store.bounds[s + 1])
            mine = store.owners[block]
            assert np.array_equal(mine, np.flatnonzero(live[:, s]))
            for place, section in zip(mine, store.data[block]):
                assert np.array_equal(section, method_rows.array_of(refs[place]).reshape(_sections(method), -1)[s])

    @pytest.mark.parametrize("method", SECTIONED)
    def test_indexing_gives_back_the_same_bytes_signed_zeros_included(self, method):
        rng = np.random.default_rng(8)
        n = _sections(method)
        refs = _random_descriptors(method, rng, 6, live_share=0.5)
        values = refs[0].values.copy()
        values[0] = -0.0  # a negative zero in a live section (column 0 has no mirror column)
        if n > 1:
            width = values.size // n
            values[width : 2 * width] = 0.0
            values[width] = -0.0  # a section that is zero but for one negative zero
        refs[0] = replace(refs[0], values=values)
        method_rows = Method(method)
        place_map = PlaceMap(method, refs)
        store = place_map.store
        if n > 1:  # the section of one negative zero is held as live
            assert 0 in store.owners[store.bounds[1] : store.bounds[2]]
        for made, rebuilt in zip(refs, place_map, strict=True):
            assert method_rows.array_of(rebuilt).tobytes() == method_rows.array_of(made).tobytes()
            if not method_rows.folds:
                assert rebuilt.values.tobytes() == made.values.tobytes()

    @pytest.mark.parametrize("method", SECTIONED)
    def test_indexing_gives_back_the_encoders_bytes(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 2)
        prepared = Method(method, cfg, codebook)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        for scan, rebuilt in zip(ref_scans, place_map, strict=True):
            made = prepared.encode(scan)
            assert prepared.array_of(rebuilt).tobytes() == prepared.array_of(made).tobytes()
            assert rebuilt.values.tobytes() == made.values.tobytes()

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_generators_of_descriptors_match_on_both_sides(self, method):
        ref_scans, query_scans, cfg, codebook = _map_inputs(method, 0)
        refs = list(encode_trajectory(ref_scans, method, cfg, codebook))
        queries = list(encode_trajectory(query_scans, method, cfg, codebook))
        want = distance_matrix_from_descriptors(method, queries, refs).values
        got = distance_matrix_from_descriptors(method, (q for q in queries), (r for r in refs)).values
        assert np.array_equal(got, want)


class TestFoldedSpectra:
    """fft_radvlad fits and encodes on folded half spectra; every output
    must match the full-width computation up to rounding."""

    @pytest.fixture(scope="class")
    def fitted(self):
        world = _World(seed=4, cfg=WorldConfig(n_places=10))
        scans = world.reference_trajectory().scans
        cfg = synthetic_run_config(world.cfg, "fft_radvlad", k=8)
        full_rows = np.vstack([radial_fft_magnitude(preprocess_scan(s, cfg)).magnitude for s in scans])
        return scans, cfg, full_rows, fit_method_codebook(scans, "fft_radvlad", cfg)

    def test_training_rows_are_folded(self, fitted):
        scans, cfg, full_rows, _ = fitted
        assert Method("fft_radvlad", cfg).training_rows(scans).shape == (len(full_rows), cfg.target_bins // 2 + 1)
        assert Method("radvlad", cfg).training_rows(scans).shape == full_rows.shape

    def test_folded_fit_matches_full_width_fit(self, fitted):
        _, cfg, full_rows, folded = fitted
        full = fit_kmeans_pp(full_rows, cfg.k, tol=cfg.kmeans_tol, seed=cfg.kmeans_seed, max_iter=cfg.kmeans_max_iter)
        assert folded.width == full.width == cfg.target_bins
        assert folded.iterations_run == full.iterations_run
        assert folded.inertia == pytest.approx(full.inertia, rel=1e-12)
        assert np.abs(folded.centres - full.centres).max() <= 1e-12
        assert np.array_equal(nearest_centre_labels(full_rows, folded), nearest_centre_labels(full_rows, full))

    @pytest.mark.parametrize("l2_normalize", [False, True])
    def test_encoder_matches_full_width_encode_vlad(self, fitted, l2_normalize):
        scans, cfg, _, codebook = fitted
        cfg = replace(cfg, vlad_l2_normalize=l2_normalize)
        for scan, desc in zip(scans, encode_trajectory(scans, "fft_radvlad", cfg, codebook)):
            rows = radial_fft_magnitude(preprocess_scan(scan, cfg)).magnitude
            want = encode_vlad(rows, codebook, l2_normalize=l2_normalize).values
            assert (desc.k, desc.w) == (codebook.k, codebook.width)
            assert np.abs(desc.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_non_mirror_symmetric_descriptors_raise(self, fitted):
        scans, cfg, _, codebook = fitted
        place_map = encode_trajectory(scans, "fft_radvlad", cfg, codebook)
        good = list(place_map)
        values = good[0].values.copy()
        values[cfg.target_bins - 1] += 1.0  # column W-1 of section 0 no longer mirrors column 1
        skewed = VladDescriptor(values, good[0].k, good[0].w)
        for queries, refs in (([skewed], place_map), ([skewed], good), (good[:1], [skewed, *good[1:]])):
            with pytest.raises(ArgumentError, match="mirror-symmetric"):
                distance_matrix_from_descriptors("fft_radvlad", queries, refs)
        with pytest.raises(ArgumentError, match="mirror-symmetric"):
            PlaceMap("fft_radvlad", [*good[1:], skewed])

    def test_encoder_rejects_centres_that_are_not_spectra(self, fitted):
        scans, cfg, _, codebook = fitted
        skewed = Codebook(codebook.centres + np.arange(cfg.target_bins), inertia=0.0, iterations_run=0)
        narrow = Codebook(codebook.centres[:, : cfg.target_bins - 1], inertia=0.0, iterations_run=0)
        for bad in (skewed, narrow):
            with pytest.raises(ArgumentError):
                encode_trajectory(scans[:1], "fft_radvlad", cfg, bad)


class TestPreparedFold:
    """fft_radvlad folds each codebook once and keeps the folded row of every
    descriptor it makes, so a query is neither re-checked nor re-folded."""

    @pytest.fixture(scope="class")
    def fitted(self):
        world = _World(seed=6, cfg=WorldConfig(n_places=8))
        scans = world.reference_trajectory().scans
        cfg = synthetic_run_config(world.cfg, "fft_radvlad", k=8)
        return scans, cfg, fit_method_codebook(scans, "fft_radvlad", cfg)

    @staticmethod
    def _fresh(codebook, centres=None):
        """A codebook of the same (or the given) centres, nothing folded yet."""
        return Codebook(codebook.centres if centres is None else centres, inertia=0.0, iterations_run=0)

    def test_two_builds_fold_the_centres_once(self, fitted, monkeypatch):
        scans, cfg, codebook = fitted
        calls = []

        def counting(rows):
            calls.append(np.shape(rows))
            return fold_half_spectrum(rows)

        monkeypatch.setattr(codebook_module, "fold_half_spectrum", counting)
        fresh = self._fresh(codebook)
        first = Method("fft_radvlad", cfg, fresh)
        second = Method("fft_radvlad", cfg, fresh)
        assert calls == [(codebook.k, cfg.target_bins)]
        assert np.array_equal(first.encode(scans[0]).values, second.encode(scans[0]).values)
        encode_trajectory(scans[:2], "fft_radvlad", cfg, fresh)
        assert len(calls) == 1

    def test_an_asymmetric_codebook_raises_on_every_build(self, fitted):
        _, cfg, codebook = fitted
        skewed = self._fresh(codebook, codebook.centres + np.arange(cfg.target_bins))
        for _ in range(2):
            with pytest.raises(ArgumentError, match="centres are not mirror-symmetric"):
                Method("fft_radvlad", cfg, skewed)

    def test_a_wrong_width_raises_after_a_good_build(self, fitted):
        _, cfg, codebook = fitted
        Method("fft_radvlad", cfg, codebook)
        for target_bins in (cfg.target_bins - 2, cfg.target_bins * 2):
            with pytest.raises(ArgumentError, match=f"width target_bins = {target_bins}, got {cfg.target_bins}"):
                Method("fft_radvlad", replace(cfg, target_bins=target_bins), codebook)

    def test_each_codebook_fault_has_its_own_message(self, fitted):
        scans, cfg, codebook = fitted
        narrow = self._fresh(codebook, codebook.centres[:, :-1])
        skewed = self._fresh(codebook, codebook.centres + np.arange(cfg.target_bins))
        with pytest.raises(ArgumentError, match="needs a codebook of width") as wide_fault:
            encode_trajectory(scans[:1], "fft_radvlad", cfg, narrow)
        with pytest.raises(ArgumentError, match="not mirror-symmetric") as mirror_fault:
            encode_trajectory(scans[:1], "fft_radvlad", cfg, skewed)
        assert "mirror" not in str(wide_fault.value) and "width" not in str(mirror_fault.value)

    def test_package_made_descriptors_give_back_their_folded_row(self, fitted, monkeypatch):
        scans, cfg, codebook = fitted
        method = Method("fft_radvlad", cfg, codebook)
        made = method.encode(scans[0])
        place_map = encode_trajectory(scans, "fft_radvlad", cfg, codebook)
        rebuilt = place_map[3]

        def refold(*args):
            raise AssertionError("a package-made descriptor was checked and folded again")

        monkeypatch.setattr(evaluate_module, "is_mirror_symmetric", refold)
        monkeypatch.setattr(evaluate_module, "fold_half_spectrum", refold)
        row = method.array_of(made)
        assert row.shape == (codebook.k * (cfg.target_bins // 2 + 1),)
        assert np.array_equal(row, place_map.store[0])
        assert method.array_of(rebuilt) is rebuilt._folded
        assert np.array_equal(method.array_of(rebuilt), place_map.store[3])
        for descriptor in (made, rebuilt):
            sections = descriptor.values.reshape(codebook.k, cfg.target_bins)
            folded = fold_half_spectrum(sections).reshape(-1)
            assert np.abs(method.array_of(descriptor) - folded).max() <= 1e-12 * np.abs(folded).max()
            for array in (descriptor.values, method.array_of(descriptor)):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_other_descriptors_are_still_checked_and_folded(self, fitted, tmp_path):
        scans, cfg, codebook = fitted
        method = Method("fft_radvlad", cfg, codebook)
        made = method.encode(scans[0])
        values = made.values.copy()
        values[cfg.target_bins - 1] += 1.0  # column W-1 of section 0 no longer mirrors column 1
        save_descriptor(tmp_path / "skewed.desc", VladDescriptor(values, made.k, made.w))
        skewed = (
            VladDescriptor(values, made.k, made.w),
            load_descriptor(tmp_path / "skewed.desc"),
            replace(made, values=values),
        )
        for descriptor in skewed:
            with pytest.raises(ArgumentError, match="mirror-symmetric"):
                method.array_of(descriptor)
        by_hand = VladDescriptor(made.values.copy(), made.k, made.w)
        assert np.abs(method.array_of(by_hand) - method.array_of(made)).max() <= 1e-12 * np.abs(made.values).max()

    def test_distances_match_full_width_rows(self, fitted):
        scans, cfg, codebook = fitted
        place_map = encode_trajectory(scans, "fft_radvlad", cfg, codebook)
        queries = [Method("fft_radvlad", cfg, codebook).encode(scan) for scan in scans[::3]]
        full_refs = np.vstack([d.values for d in place_map])
        full_queries = np.vstack([q.values for q in queries])
        want = pairwise_sq_dist(full_queries, full_refs)
        scale = np.abs(want).max()
        for got in (
            distance_matrix_from_descriptors("fft_radvlad", queries, place_map).values,
            np.vstack([distance_matrix_from_descriptors("fft_radvlad", [q], place_map).values for q in queries]),
        ):
            assert np.abs(got - want).max() <= 1e-12 * scale


class TestLazyUnfold:
    """An fft_radvlad descriptor the package makes keeps only its folded row:
    a query is encoded and matched without a full-width array, and its
    ``values`` are unfolded once, on first read."""

    @pytest.fixture(scope="class")
    def fitted(self):
        world = _World(seed=8, cfg=WorldConfig(n_places=6))
        scans = world.reference_trajectory().scans
        cfg = synthetic_run_config(world.cfg, "fft_radvlad", k=8)
        return scans, cfg, fit_method_codebook(scans, "fft_radvlad", cfg)

    @pytest.fixture
    def widenings(self, monkeypatch):
        """The names of the full-width builders, in call order, wherever the package calls them."""
        calls = []

        def spy(name, fn):
            def recorded(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return recorded

        for module in (spectral_module, descriptors_module, evaluate_module):
            monkeypatch.setattr(module, "unfold_half_spectrum", spy("unfold", unfold_half_spectrum))
        monkeypatch.setattr(spectral_module, "_mirror_upper_half", spy("mirror", spectral_module._mirror_upper_half))
        return calls

    def test_a_query_is_encoded_and_matched_folded(self, fitted, widenings):
        scans, cfg, codebook = fitted
        place_map = encode_trajectory(scans, "fft_radvlad", cfg, codebook)
        query = encode_trajectory([scans[2]], "fft_radvlad", cfg, codebook)[0]
        row = distance_matrix_from_descriptors("fft_radvlad", [query], place_map).values[0]
        assert widenings == []
        assert int(np.argmin(row)) == 2

    @pytest.mark.parametrize("made_by", ["encode", "map"])
    def test_values_unfold_once_on_first_read(self, fitted, widenings, made_by):
        scans, cfg, codebook = fitted
        if made_by == "encode":
            made = Method("fft_radvlad", cfg, codebook).encode(scans[1])
        else:
            made = encode_trajectory(scans, "fft_radvlad", cfg, codebook)[1]
        assert widenings == [] and "values" not in vars(made)
        first = made.values
        assert widenings.count("unfold") == 1
        second = made.values
        assert second is first and widenings.count("unfold") == 1
        want = unfold_half_spectrum(made._folded.reshape(made.k, -1), made.w).reshape(-1)
        assert np.array_equal(first, want)
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_a_folded_descriptor_saves_and_copies_as_a_full_one(self, fitted, tmp_path):
        scans, cfg, codebook = fitted
        made = Method("fft_radvlad", cfg, codebook).encode(scans[0])
        for copy in (pickle.loads(pickle.dumps(made)), deepcopy(made)):
            assert np.array_equal(copy._folded, made._folded) and "values" not in vars(copy)
            assert np.array_equal(copy.values, made.values)
        by_hand = VladDescriptor(made.values.copy(), made.k, made.w)
        fresh = Method("fft_radvlad", cfg, codebook).encode(scans[0])
        save_descriptor(tmp_path / "made.desc", fresh)
        save_descriptor(tmp_path / "by_hand.desc", by_hand)
        assert (tmp_path / "made.desc").read_bytes() == (tmp_path / "by_hand.desc").read_bytes()
        assert descriptor_distance(fresh, by_hand) == 0.0
        with pytest.raises(AttributeError):
            fresh.spectrum


class TestBlasPin:
    def test_single_thread_context_pins_and_restores(self):
        functions = _openblas_thread_functions()
        if functions is None:
            pytest.skip("no OpenBLAS thread-count symbol found")
        get, put = functions
        original = get()
        put(2)
        try:
            with _single_thread_context():
                assert blas_threads() == 1
            assert blas_threads() == 2
        finally:
            put(original)

    def test_warns_when_nothing_can_be_pinned(self, monkeypatch):
        from radvlad import evaluate

        monkeypatch.setattr(evaluate, "_openblas_thread_functions", lambda: None)
        with pytest.warns(RuntimeWarning, match="cannot pin BLAS"):
            with _single_thread_context():
                pass


class TestBenchTimings:
    def test_zero_repetitions_empty_report(self, bench_scans, tmp_path):
        report = bench_timings("ringkey", bench_scans, 0)
        assert report.build_seconds.size == 0
        assert report.distance_seconds.size == 0
        path = tmp_path / "t.csv"
        write_timing_csv(path, [report])
        assert path.read_text().splitlines() == ["method,phase,sample_idx,seconds"]

    def test_small_run_produces_positive_samples(self, bench_scans, tmp_path):
        cfg = RunConfig(method="ringkey", suppress_bins=0, target_bins=128)
        report = bench_timings("ringkey", bench_scans, 5, cfg)
        assert report.build_seconds.shape == (5,)
        assert (report.build_seconds > 0).all()
        assert (report.distance_seconds > 0).all()
        assert report.median("build") > 0
        write_timing_csv(tmp_path / "t.csv", [report])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 1 + 10
        assert lines[1].startswith("ringkey,build,0,")

    def test_unknown_method_rejected(self, bench_scans):
        with pytest.raises(ArgumentError):
            bench_timings("nope", bench_scans, 1)

    def test_no_scans_or_negative_repetitions_rejected(self, bench_scans):
        with pytest.raises(ArgumentError, match="at least one scan"):
            bench_timings("ringkey", [], 1)
        with pytest.raises(ArgumentError, match="repetitions"):
            bench_timings("ringkey", bench_scans, -1)

    def test_report_percentiles_and_unknown_phase(self):
        report = TimingReport("ringkey", np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.5]))
        assert report.percentile("build", 25) == 2.0 and report.percentile("distance", 90) == 0.5
        assert report.median("build") == report.percentile("build", 50) == 3.0
        with pytest.raises(ArgumentError, match="unknown phase 'encode'"):
            report.median("encode")

    def test_vlad_encodes_honour_l2_normalize(self, bench_scans, monkeypatch):
        from radvlad import evaluate

        seen = []
        original = evaluate.encode_vlad

        def spy(rows, codebook, l2_normalize=False):
            seen.append(l2_normalize)
            return original(rows, codebook, l2_normalize=l2_normalize)

        monkeypatch.setattr(evaluate, "encode_vlad", spy)
        cfg = RunConfig(method="fft_radvlad", suppress_bins=0, target_bins=64, k=4, vlad_l2_normalize=True)
        bench_timings("fft_radvlad", bench_scans, 3, cfg)
        assert seen == [True] * 5  # three timed builds, then the two compared descriptors


def test_write_results_csv_multiple_runs(tmp_path):
    world = _World(seed=1, cfg=WorldConfig(n_places=4))
    ref = world.reference_trajectory()
    runs = [
        run_pair(ref, ref, m, synthetic_run_config(world.cfg, m, k=3))
        for m in ("ringkey", "radvlad")
    ]
    path = tmp_path / "combined.csv"
    write_results_csv(path, runs)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + sum(len(r.recall.n_values) for r in runs)
    methods = {line.split(",")[2] for line in lines[1:]}
    assert methods == {"ringkey", "radvlad"}


@pytest.fixture(scope="module")
def stored_pair(tmp_path_factory):
    """(query dir, reference dir): a small synthetic pair written as ``.prsn`` runs."""
    root = tmp_path_factory.mktemp("stored")
    world = _World(seed=4, cfg=WorldConfig(n_places=9, n_bins=128))
    for name, run in (("ref", world.reference_trajectory()), ("query", world.rotated_query_trajectory(9, seed=3))):
        write_trajectory(root / name, run.scans, run.poses)
    return root / "query", root / "ref"


@pytest.fixture
def reads(monkeypatch):
    """Every ``.prsn`` path read through ``runs.read_prsn``, in order."""
    log = []
    original = runs_module.read_prsn

    def counted(path):
        log.append(Path(path))
        return original(path)

    monkeypatch.setattr(runs_module, "read_prsn", counted)
    return log


def _scan_paths(run_dir):
    return sorted((run_dir / "scans").glob("*.prsn"))


STORED_CFG = dict(suppress_bins=0, target_bins=128, k=4, n_max=3, raplace=RaplaceConfig(width_px=64, resolution_m=1.875))


class TestScansReadWhenUsed:
    def test_loading_a_run_reads_no_scan(self, stored_pair, reads):
        trajectory = load_trajectory(stored_pair[1])
        strided = downsample_trajectory(trajectory.scans, 3)
        assert (len(trajectory.scans), len(strided), len(trajectory.poses)) == (9, 3, 9)
        assert reads == []

    @pytest.mark.parametrize("method, ref_reads", [("ringkey", 1), ("raplace", 1), ("radvlad", 2), ("fft_radvlad", 2)])
    def test_run_pair_reads_each_scan_a_fixed_number_of_times(self, stored_pair, reads, method, ref_reads):
        # Every scan once for its encode (its timestamp is read from its
        # header alone); each reference scan once more for a codebook's training rows.
        query, ref = (load_trajectory(d) for d in stored_pair)
        run_pair(query, ref, method, RunConfig(method=method, stride=1, **STORED_CFG))
        counts = collections.Counter(reads)
        assert {counts[p] for p in _scan_paths(stored_pair[0])} == {1}
        assert {counts[p] for p in _scan_paths(stored_pair[1])} == {ref_reads}
        assert len(counts) == 18

    def test_poses_are_associated_from_the_headers_alone(self, stored_pair, reads):
        trajectory = load_trajectory(stored_pair[1])
        from_headers = associate_poses(trajectory.scans[::2], trajectory.poses)
        assert reads == []
        from_scans = associate_poses(list(trajectory.scans[::2]), trajectory.poses)
        for got, want in zip(
            (from_headers.timestamps_ns, from_headers.easting_m, from_headers.northing_m),
            (from_scans.timestamps_ns, from_scans.easting_m, from_scans.northing_m),
        ):
            assert np.array_equal(got, want)
        fields = operator.attrgetter("azimuth_count", "range_bin_count", "range_resolution_m", "timestamp_ns")
        assert list(map(fields, scan_headers(trajectory.scans))) == list(map(fields, trajectory.scans))

    @pytest.mark.parametrize("method", ["radvlad", "fft_radvlad"])
    def test_training_rows_read_each_scan_once_and_match_the_scans_in_memory(self, stored_pair, reads, method):
        scans = load_trajectory(stored_pair[1]).scans[::2]
        prepared = Method(method, RunConfig(method=method, **STORED_CFG))
        rows = prepared.training_rows(scans)
        assert reads == _scan_paths(stored_pair[1])[::2]
        assert np.array_equal(rows, np.concatenate([prepared.rows(scan) for scan in scans]))
        held = list(scans)
        assert np.array_equal(prepared.training_rows(held), rows)
        with pytest.raises(ArgumentError, match="must be a sequence"):
            prepared.training_rows(iter(held))

    def test_a_scan_whose_header_disagrees_with_its_rows_is_reported(self, stored_pair, monkeypatch):
        header = runs_module.read_prsn_header
        monkeypatch.setattr(runs_module, "read_prsn_header", lambda path: header(path)._replace(azimuth_count=7))
        scans = load_trajectory(stored_pair[1]).scans
        with pytest.raises(IngestError, match="its header said 7"):
            Method("fft_radvlad", RunConfig(method="fft_radvlad", **STORED_CFG)).training_rows(scans)

    def test_a_scan_whose_header_is_cut_short_is_reported_by_name(self, stored_pair, tmp_path):
        ref = tmp_path / "ref"
        shutil.copytree(stored_pair[1], ref)
        damaged = _scan_paths(ref)[2]
        damaged.write_bytes(damaged.read_bytes()[:20])
        trajectory = load_trajectory(ref)
        with pytest.raises(IngestError, match=f"{damaged.name}: file shorter than header"):
            associate_poses(trajectory.scans, trajectory.poses)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_localize_with_a_stride_reads_only_the_strided_scans(self, stored_pair, reads, tmp_path, jobs):
        query, ref = stored_pair
        args = ["localize", "--query", str(query), "--ref", str(ref), "--out", str(tmp_path), "--jobs", jobs]
        assert cli_main([*args, "--method", "fft_radvlad", "--stride", "3", "--target-bins", "128", "--k", "4"]) == 0
        assert set(reads) == set(_scan_paths(query)[::3] + _scan_paths(ref)[::3])

    def test_parallel_encode_holds_at_most_two_scans_per_worker(self, stored_pair, monkeypatch):
        lock, state = threading.Lock(), {"read": 0, "encoded": 0, "ahead": 0}
        read, encode = runs_module.read_prsn, evaluate_module.encode_ring_key

        def counted_read(path):
            scan = read(path)
            with lock:
                state["read"] += 1
                state["ahead"] = max(state["ahead"], state["read"] - state["encoded"])
            return scan

        def slow_encode(scan):
            time.sleep(0.005)
            descriptor = encode(scan)
            with lock:
                state["encoded"] += 1
            return descriptor

        monkeypatch.setattr(runs_module, "read_prsn", counted_read)
        monkeypatch.setattr(evaluate_module, "encode_ring_key", slow_encode)
        scans = load_trajectory(stored_pair[1]).scans
        place_map = encode_trajectory(scans, "ringkey", RunConfig(method="ringkey", **STORED_CFG), jobs=2)
        assert len(place_map) == state["read"] == state["encoded"] == 9
        assert state["ahead"] <= 4

    @pytest.mark.parametrize("method", ["ringkey", "fft_radvlad"])
    def test_bench_reads_each_distinct_scan_once(self, tmp_path, reads, method):
        run = _World(seed=2, cfg=WorldConfig(n_places=3, n_bins=128)).reference_trajectory()
        scans = load_trajectory(write_trajectory(tmp_path / "run", run.scans), require_poses=False).scans
        report = bench_timings(method, scans, 50, RunConfig(method=method, **STORED_CFG))
        assert len(report.build_seconds) == len(report.distance_seconds) == 50
        assert sorted(reads) == _scan_paths(tmp_path / "run")

    def test_a_truncated_scan_is_reported_when_first_read(self, stored_pair, tmp_path, capsys):
        query, ref = (tmp_path / name for name in ("query", "ref"))
        for source, copy in zip(stored_pair, (query, ref)):
            shutil.copytree(source, copy)
        damaged = _scan_paths(ref)[4]
        damaged.write_bytes(damaged.read_bytes()[:-7])
        scans = load_trajectory(ref).scans
        assert scans[3].power.shape == scans[5].power.shape
        with pytest.raises(IngestError, match=f"{damaged.name}: expected"):
            scans[4]
        with pytest.raises(IngestError, match=damaged.name):
            list(scans)
        args = ["localize", "--query", str(query), "--ref", str(ref), "--out", str(tmp_path / "out"), "--stride", "1"]
        assert cli_main([*args, "--method", "ringkey", "--target-bins", "128"]) == 1
        assert damaged.name in capsys.readouterr().err
