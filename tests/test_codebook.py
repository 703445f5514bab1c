import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    Codebook,
    IngestError,
    assign_nearest,
    fit_kmeans_pp,
    load_codebook,
    save_codebook,
)
from radvlad.codebook import _update_centres, cluster_sums, pairwise_sq_dist, sq_norms


def blobs(rng, centres, per_cluster=30, spread=0.05):
    points = [c + spread * rng.standard_normal((per_cluster, len(c))) for c in centres]
    data = np.concatenate(points)
    rng.shuffle(data)
    return data


class TestFit:
    def test_exact_cover(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        cb = fit_kmeans_pp(points, 3, tol=1e-6, seed=5)
        assert cb.inertia == 0.0
        assert sorted(map(tuple, cb.centres.tolist())) == sorted(map(tuple, points.tolist()))

    def test_k1_converges_to_mean(self):
        rng = np.random.default_rng(0)
        data = rng.random((40, 6))
        cb = fit_kmeans_pp(data, 1, tol=1e-12, seed=0)
        assert np.allclose(cb.centres[0], data.mean(axis=0), rtol=1e-9)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(1)
        data = blobs(rng, np.eye(4) * 5)
        a = fit_kmeans_pp(data, 4, tol=1e-6, seed=11)
        b = fit_kmeans_pp(data, 4, tol=1e-6, seed=11)
        assert np.array_equal(a.centres, b.centres)
        assert a.inertia == b.inertia
        assert a.iterations_run == b.iterations_run

    def test_inertia_trace_monotone(self):
        rng = np.random.default_rng(2)
        data = blobs(rng, np.eye(3) * 4, per_cluster=60, spread=0.8)
        cb = fit_kmeans_pp(data, 3, tol=1e-12, seed=3, max_iter=100)
        assert len(cb.inertia_trace) == cb.iterations_run
        assert cb.inertia == cb.inertia_trace[-1]
        slack = 1e-12 * cb.inertia_trace[0]
        assert np.all(np.diff(cb.inertia_trace) <= slack)

    def test_centres_are_cluster_means_at_convergence(self):
        rng = np.random.default_rng(3)
        data = blobs(rng, np.eye(4) * 6)
        cb = fit_kmeans_pp(data, 4, tol=1e-12, seed=7, max_iter=200)
        labels = np.array([assign_nearest(cb, x) for x in data])
        for i in range(cb.k):
            members = data[labels == i]
            assert members.shape[0] > 0
            assert np.allclose(cb.centres[i], members.mean(axis=0), rtol=1e-9, atol=1e-12)

    def test_inertia_matches_definition(self):
        rng = np.random.default_rng(4)
        data = rng.random((50, 3))
        cb = fit_kmeans_pp(data, 5, tol=1e-8, seed=9)
        direct = sum(((x - cb.centres[assign_nearest(cb, x)]) ** 2).sum() for x in data)
        assert cb.inertia == pytest.approx(direct, rel=1e-9)

    def test_max_iter_bounds_work(self):
        rng = np.random.default_rng(5)
        data = rng.random((60, 4))
        cb = fit_kmeans_pp(data, 6, tol=1e-15, seed=1, max_iter=2)
        assert cb.iterations_run == 2

    def test_errors(self):
        rng = np.random.default_rng(6)
        data = rng.random((5, 2))
        with pytest.raises(ArgumentError):
            fit_kmeans_pp(data, 6, seed=0)  # k > n
        with pytest.raises(ArgumentError):
            fit_kmeans_pp(np.zeros((0, 2)), 1, seed=0)
        duplicated = np.repeat(rng.random((2, 3)), 4, axis=0)
        with pytest.raises(ArgumentError):
            fit_kmeans_pp(duplicated, 3, seed=0)  # k > distinct count

    def test_empty_cluster_reseeded_at_farthest_vector(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [9.0, 9.0]])
        centres = np.array([[0.05, 0.05], [100.0, 100.0], [0.0, 0.05]])
        labels = np.array([0, 0, 2, 0])  # cluster 1 is empty
        new = _update_centres(data, labels, centres)
        assert np.array_equal(new[1], data[3])


class TestClusterSums:
    def test_matches_add_at_loop(self):
        rng = np.random.default_rng(11)
        for n, k, width in [(1, 1, 3), (50, 4, 7), (400, 64, 32)]:
            rows = rng.standard_normal((n, width)) * 1e3
            labels = rng.integers(k, size=n)
            sums, counts = cluster_sums(rows, labels, k)
            want = np.zeros((k, width))
            np.add.at(want, labels, rows)
            assert sums.shape == (k, width)
            assert np.array_equal(counts, np.bincount(labels, minlength=k))
            assert np.all(np.abs(sums - want) <= 1e-12 * np.abs(rows).sum(axis=0))

    def test_empty_clusters_are_exact_zeros(self):
        rows = -np.random.default_rng(12).random((9, 5))
        labels = np.array([0, 2, 2, 0, 4, 4, 4, 0, 2])
        sums, counts = cluster_sums(rows, labels, 6)
        for empty in (1, 3, 5):
            assert counts[empty] == 0
            assert np.array_equal(sums[empty], np.zeros(5))


class TestPairwiseSqDist:
    def test_matches_brute_force_and_cached_norms_change_nothing(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((7, 12)), rng.standard_normal((4, 12))
        d2 = pairwise_sq_dist(a, b)
        brute = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(d2, brute, rtol=1e-12, atol=1e-12)
        assert np.array_equal(pairwise_sq_dist(a, b, sq_norms(a), sq_norms(b)), d2)

    def test_self_distance_clamped_non_negative(self):
        a = np.random.default_rng(6).standard_normal((20, 64)) * 1e3
        assert (pairwise_sq_dist(a, a) >= 0.0).all()

    def test_codebook_centres_frozen_with_their_norms(self):
        centres = np.arange(6.0).reshape(3, 2)
        cb = Codebook(centres=centres, inertia=0.0, iterations_run=0)
        centres[0, 0] = 99.0
        assert cb.centres[0, 0] == 0.0
        assert np.array_equal(cb.centre_sq_norms, sq_norms(cb.centres))
        with pytest.raises(ValueError):
            cb.centres[0, 0] = 1.0


class TestAssignNearest:
    def test_exact_centre_hit(self):
        rng = np.random.default_rng(7)
        cb = Codebook(rng.random((6, 4)), inertia=0.0, iterations_run=1)
        assert assign_nearest(cb, cb.centres[3]) == 3

    def test_tie_breaks_to_lowest_index(self):
        centres = np.array([[5.0], [1.0], [9.0], [5.0], [3.0]])
        cb = Codebook(centres, inertia=0.0, iterations_run=1)
        # x = 2.0 is equidistant from centres 1 (=1.0) and 4 (=3.0)
        assert assign_nearest(cb, [2.0]) == 1

    def test_matches_brute_force_on_random_queries(self):
        rng = np.random.default_rng(8)
        centres = rng.random((64, 16))
        cb = Codebook(centres, inertia=0.0, iterations_run=1)
        queries = rng.random((10_000, 16))
        for x in queries:
            best, best_d = 0, float("inf")
            for i, c in enumerate(centres):
                d = float(((x - c) ** 2).sum())
                if d < best_d:
                    best, best_d = i, d
            assert assign_nearest(cb, x) == best

    def test_dimension_mismatch(self):
        cb = Codebook(np.zeros((2, 3)), inertia=0.0, iterations_run=1)
        with pytest.raises(ArgumentError):
            assign_nearest(cb, [1.0, 2.0])


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        cb = fit_kmeans_pp(rng.random((30, 8)), 4, seed=21)
        path = tmp_path / "map.cdbk"
        save_codebook(path, cb)
        back = load_codebook(path)
        assert np.array_equal(back.centres, cb.centres)
        assert back.k == 4 and back.width == 8 and back.seed == 21

    def test_negative_seed_rejected_on_save(self, tmp_path):
        cb = Codebook(np.zeros((1, 2)), inertia=0.0, iterations_run=0, seed=-1)
        with pytest.raises(ArgumentError):
            save_codebook(tmp_path / "x.cdbk", cb)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cdbk"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(IngestError):
            load_codebook(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(10)
        cb = fit_kmeans_pp(rng.random((10, 3)), 2, seed=0)
        path = tmp_path / "t.cdbk"
        save_codebook(path, cb)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(IngestError):
            load_codebook(path)
