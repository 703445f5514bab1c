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
from radvlad import codebook as codebook_module
from radvlad.codebook import _seed_centres, _update_centres, cluster_sums, pairwise_sq_dist, sq_dist_of_products, sq_norms
from radvlad.evaluate import fit_method_codebook
from radvlad.scenarios import synthetic_run_config
from radvlad.synthetic import PlaceWorld, WorldConfig


def blobs(rng, centres, per_cluster=30, spread=0.05):
    points = [c + spread * rng.standard_normal((per_cluster, len(c))) for c in centres]
    data = np.concatenate(points)
    rng.shuffle(data)
    return data


def direct_seed_centres(vectors, vector_sq, k, rng):
    """k-means++ seeding with each D^2 update by the direct formula
    sum((x - c) ** 2): the reference the cached-norm seeding must match.
    ``vector_sq`` is unused; it keeps ``_seed_centres``'s signature."""
    n = vectors.shape[0]
    centres = np.empty((k, vectors.shape[1]))
    centres[0] = vectors[int(rng.integers(n))]
    d2 = ((vectors - centres[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            raise ArgumentError("k exceeds the number of distinct vectors")
        idx = min(int(np.searchsorted(np.cumsum(d2), rng.random() * total, side="right")), n - 1)
        centres[i] = vectors[idx]
        d2 = np.minimum(d2, ((vectors - centres[i]) ** 2).sum(axis=1))
    return centres


class TestSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cached_norm_seeding_picks_the_direct_formula_centres(self, seed):
        rng = np.random.default_rng(20 + seed)
        data = blobs(rng, 10.0 * rng.standard_normal((12, 40)), per_cluster=40, spread=0.5)
        for k in (1, 12, 30):
            got = _seed_centres(data, sq_norms(data), k, np.random.default_rng(seed))
            want = direct_seed_centres(data, sq_norms(data), k, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_exact_copies_of_a_centre_are_never_drawn_again(self):
        # In the expanded kernel some of these rows' distances to
        # themselves round to a small positive value, not to zero.
        data = np.repeat(np.random.default_rng(13).random((40, 9)) * 1e3, 3, axis=0)
        for seed in range(5):
            centres = _seed_centres(data, sq_norms(data), 40, np.random.default_rng(seed))
            assert len({tuple(c) for c in centres.tolist()}) == 40
            with pytest.raises(ArgumentError):
                _seed_centres(data, sq_norms(data), 41, np.random.default_rng(seed))

    def test_radvlad_codebook_matches_direct_formula_seeding(self, monkeypatch):
        world = PlaceWorld(seed=2, cfg=WorldConfig(n_places=8))
        scans = world.reference_trajectory().scans
        cfg = synthetic_run_config(world.cfg, "radvlad", k=8)
        fitted = fit_method_codebook(scans, "radvlad", cfg)
        monkeypatch.setattr(codebook_module, "_seed_centres", direct_seed_centres)
        direct = fit_method_codebook(scans, "radvlad", cfg)
        assert np.array_equal(fitted.centres, direct.centres)
        assert fitted.inertia == direct.inertia
        assert fitted.iterations_run == direct.iterations_run


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
        with pytest.raises(ArgumentError, match="k must be >= 1"):
            fit_kmeans_pp(data, 0, seed=0)
        with pytest.raises(ArgumentError, match="max_iter must be >= 1"):
            fit_kmeans_pp(data, 2, seed=0, max_iter=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ArgumentError, match="seed"):
            fit_kmeans_pp(np.random.default_rng(6).random((5, 2)), 2, seed=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_rows_that_are_not_finite_or_overflow_their_norm_are_rejected(self, bad):
        data = np.random.default_rng(7).random((20, 3))
        data[11, 1] = bad
        with pytest.raises(ArgumentError, match="finite"):
            fit_kmeans_pp(data, 2, seed=0)

    def test_empty_cluster_reseeded_at_farthest_vector(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [9.0, 9.0]])
        centres = np.array([[0.05, 0.05], [100.0, 100.0], [0.0, 0.05]])
        labels = np.array([0, 0, 2, 0])  # cluster 1 is empty
        new = _update_centres(data, labels, centres)
        assert np.array_equal(new[1], data[3])


def _add_at_sums(rows, labels, k):
    want = np.zeros((k, rows.shape[1]))
    np.add.at(want, labels, rows)
    return want


class TestClusterSums:
    # Row counts for k = 64 centres, fewer and more rows than centres:
    # 32 and 400 rows are a largemap and a rawscan query, 9600 the rows
    # both benchmark fits cluster.
    K = 64
    SIZES = [1, K - 1, 32, K, 400, 9600]

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_add_at_loop(self, n):
        rng = np.random.default_rng(11 + n)
        rows = rng.standard_normal((n, 257)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        rows[rng.random(rows.shape) < 0.1] = -0.0
        labels = rng.integers(self.K, size=n)
        sums, counts = cluster_sums(rows, labels, self.K)
        want = _add_at_sums(rows, labels, self.K)
        assert sums.shape == want.shape
        assert np.array_equal(counts, np.bincount(labels, minlength=self.K))
        # Each cluster's rows are added in ascending row order: the bits of np.add.at, signed zeros included.
        assert np.array_equal(sums.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", SIZES)
    def test_empty_clusters_are_exact_zeros(self, n):
        rng = np.random.default_rng(12 + n)
        rows = -rng.random((n, 5))
        # Only even clusters are occupied, so at least half are empty.
        labels = 2 * rng.integers(self.K // 2, size=n)
        sums, counts = cluster_sums(rows, labels, self.K)
        empty = np.flatnonzero(counts == 0)
        assert empty.size >= self.K // 2
        assert np.array_equal(sums[empty].view(np.int64), np.zeros((empty.size, 5), dtype=np.int64))

    def test_one_column_rows_are_summed_within_rounding(self):
        # One centre and one column: numpy reduces the one-column block
        # pairwise, so only rounding separates it from np.add.at.
        rows = np.random.default_rng(13).standard_normal((5000, 1))
        labels = np.zeros(5000, dtype=np.int64)
        sums, counts = cluster_sums(rows, labels, 1)
        assert counts.tolist() == [5000]
        assert abs(sums[0, 0] - _add_at_sums(rows, labels, 1)[0, 0]) <= 1e-12 * np.abs(rows).sum()


class TestPairwiseSqDist:
    def test_matches_brute_force_and_cached_norms_change_nothing(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((7, 12)), rng.standard_normal((4, 12))
        d2 = pairwise_sq_dist(a, b)
        brute = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(d2, brute, rtol=1e-12, atol=1e-12)
        assert np.array_equal(pairwise_sq_dist(a, b, sq_norms(a), sq_norms(b)), d2)

    def test_scaling_the_product_gives_the_bits_of_scaling_the_operand(self):
        rng = np.random.default_rng(7)
        a, b = rng.random((300, 257)) * 1e2, rng.random((64, 257))
        a_sq, b_sq = sq_norms(a), sq_norms(b)
        expanded = a_sq[:, None] - 2.0 * a @ b.T + b_sq[None, :]
        assert np.array_equal(pairwise_sq_dist(a, b, a_sq, b_sq), np.maximum(expanded, 0.0))

    def test_the_expansion_of_products_is_made_in_place_and_clamped(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((3, 40)), rng.standard_normal((6, 40))
        a[1] = b[2]  # a pair at distance zero, which rounding may push below it
        a_sq, b_sq = sq_norms(a), sq_norms(b)
        products = a @ b.T
        got = sq_dist_of_products(products, a_sq, b_sq)
        assert got is products
        assert np.array_equal(got, pairwise_sq_dist(a, b, a_sq, b_sq))
        assert got.min() >= 0.0 and abs(got[1, 2]) <= 1e-12 * b_sq[2]

    def test_blocked_norms_match_one_pass(self):
        rng = np.random.default_rng(8)
        for shape in [(0, 3), (1, 1), (7, 12), (9600, 257), (40, 32768)]:
            x = rng.standard_normal(shape) * 1e3
            assert np.array_equal(sq_norms(x), (x * x).sum(axis=1))

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

    def test_agrees_with_nearest_centre_labels_on_training_set(self):
        from radvlad.descriptors import nearest_centre_labels

        rng = np.random.default_rng(10)
        data = blobs(rng, rng.random((6, 12)), per_cluster=40, spread=0.2)
        fitted = fit_kmeans_pp(data, 6, seed=3)
        # Every centre twice over: each row's nearest centre has an exact
        # twin, which the lowest-index rule must resolve the same way.
        doubled = Codebook(np.vstack([fitted.centres, fitted.centres]), inertia=0.0, iterations_run=1)
        for cb in (fitted, doubled):
            labels = nearest_centre_labels(data, cb)
            assert labels.max() < fitted.k
            assert [assign_nearest(cb, row) for row in data] == labels.tolist()

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

    def test_non_finite_centre_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "nan.cdbk"
        save_codebook(path, Codebook(np.ones((2, 3)), inertia=0.0, iterations_run=0))
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(IngestError, match="nan.cdbk"):
            load_codebook(path)
