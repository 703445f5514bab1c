import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    DistanceMatrix,
    GroundTruthMatrix,
    PlaceWorld,
    RunConfig,
    TrajectoryPoses,
    WorldConfig,
    associate_poses,
    bench_timings,
    descriptor_distance,
    downsample_trajectory,
    ground_truth_matrix,
    recall_at_n,
    run_pair,
    write_timing_csv,
)
from radvlad.descriptors import RingKeyDescriptor, raplace_similarity
from radvlad.evaluate import (
    PlaceMap,
    _openblas_thread_functions,
    _single_thread_context,
    blas_threads,
    distance_matrix_from_descriptors,
    encode_trajectory,
    fit_method_codebook,
    read_distance_matrix,
    write_distance_matrix,
    write_results_csv,
)
from radvlad.scenarios import run_rotation_scenario, synthetic_run_config
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


class TestDistanceMatrixIO:
    def test_similarity_is_negated(self):
        sim = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(DistanceMatrix.from_similarity(sim).values, -sim)

    def test_dmat_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        dm = DistanceMatrix(rng.random((5, 7)))
        path = tmp_path / "d.dmat"
        write_distance_matrix(path, dm)
        back = read_distance_matrix(path)
        assert back.values.shape == (5, 7)
        assert np.array_equal(back.values, dm.values.astype(np.float32).astype(np.float64))


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

        for i, q in enumerate(plain_queries):
            for j, r in enumerate(plain_refs):
                if method == "raplace":
                    norms = np.linalg.norm(q.spectrum) * np.linalg.norm(r.spectrum)
                    want, scale = -raplace_similarity(q, r) / norms, 1.0
                else:
                    want = descriptor_distance(q, r)
                    scale = max(q.values @ q.values, r.values @ r.values)
                assert abs(via_map[i, j] - want) <= 1e-9 * scale

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_descriptors_are_read_only(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 0)
        place_map = encode_trajectory(ref_scans, method, cfg, codebook)
        array = place_map[1].spectrum if method == "raplace" else place_map[1].values
        with pytest.raises(ValueError):
            array[0] = 1.0
        with pytest.raises(ValueError):
            place_map.stack[0] = 1.0

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_map_matrix_is_independent_of_jobs(self, method):
        ref_scans, _, cfg, codebook = _map_inputs(method, 3)
        one = encode_trajectory(ref_scans, method, cfg, codebook, jobs=1)
        two = encode_trajectory(ref_scans, method, cfg, codebook, jobs=2)
        assert one.stack.tobytes() == two.stack.tobytes()
        assert len(one) == len(two) == len(ref_scans)

    def test_descriptor_shape_mismatch_raises(self, small_world):
        cfg = synthetic_run_config(small_world.cfg, "ringkey")
        scans = small_world.reference_trajectory().scans
        refs = encode_trajectory(scans, "ringkey", cfg)
        short = [RingKeyDescriptor(d.values[:-1]) for d in refs]
        with pytest.raises(ArgumentError):
            distance_matrix_from_descriptors("ringkey", short, refs)


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
        import sys

        from radvlad import evaluate

        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
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
