import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    CartesianScan,
    Codebook,
    DistanceMatrix,
    IngestError,
    PolarScan,
    RaplaceConfig,
    RaplaceDescriptor,
    RingKeyDescriptor,
    SensorPose,
    SpectralScan,
    VladDescriptor,
    descriptor_distance,
    encode_raplace,
    encode_ring_key,
    encode_vlad,
    fit_kmeans_pp,
    generate_scene,
    load_descriptor,
    radon_sinogram,
    raplace_similarity,
    render_polar,
    save_descriptor,
)
from radvlad import descriptors
from radvlad.evaluate import encode_trajectory
from radvlad.scenarios import synthetic_run_config
from radvlad.synthetic import PlaceWorld, WorldConfig


def vlad_oracle(rows, centres):
    """Independent formulation: loop clusters, then rows."""
    k, width = centres.shape
    out = np.zeros(k * width)
    for i in range(k):
        for row in rows:
            best, best_d = 0, float("inf")
            for j, c in enumerate(centres):
                d = float(((row - c) ** 2).sum())
                if d < best_d:
                    best, best_d = j, d
            if best == i:
                out[i * width:(i + 1) * width] += row - centres[i]
    return out


class TestRingKey:
    def test_default_shape(self):
        rng = np.random.default_rng(0)
        scan = PolarScan(rng.random((400, 512)), 0.3)
        desc = encode_ring_key(scan)
        assert desc.values.shape == (512,)

    def test_identical_rows_collapse_to_row(self):
        row = np.random.default_rng(1).random(32)
        scan = PolarScan(np.tile(row, (25, 1)), 1.0)
        assert np.allclose(encode_ring_key(scan).values, row, rtol=1e-12)

    def test_zero_scan(self):
        assert not encode_ring_key(PolarScan(np.zeros((4, 6)), 1.0)).values.any()

    def test_azimuth_permutation_invariance(self):
        rng = np.random.default_rng(2)
        power = rng.random((20, 16))
        scan = PolarScan(power, 1.0)
        permuted = PolarScan(power[rng.permutation(20)], 1.0)
        a, b = encode_ring_key(scan).values, encode_ring_key(permuted).values
        assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()


class TestVlad:
    def test_k1_mean_centre_gives_zero(self):
        rng = np.random.default_rng(3)
        rows = rng.random((16, 8))
        cb = Codebook(rows.mean(axis=0)[None, :], inertia=0.0, iterations_run=1)
        v = encode_vlad(rows, cb)
        assert np.abs(v.values).max() <= 1e-9

    def test_two_rows_one_cluster(self):
        rows = np.array([[1.0, 0.0], [0.5, 0.5]])
        centres = np.array([[0.5, 0.25], [100.0, 100.0]])
        cb = Codebook(centres, inertia=0.0, iterations_run=1)
        v = encode_vlad(rows, cb)
        expected_section0 = (rows[0] - centres[0]) + (rows[1] - centres[0])
        assert np.allclose(v.values[:2], expected_section0, rtol=1e-12)
        assert np.array_equal(v.values[2:], [0.0, 0.0])

    def test_matches_cluster_major_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows = rng.random((16, 8))
            centres = rng.random((4, 8))
            cb = Codebook(centres, inertia=0.0, iterations_run=1)
            got = encode_vlad(rows, cb).values
            want = vlad_oracle(rows, centres)
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_empty_clusters_give_exact_zero_sections(self):
        rng = np.random.default_rng(13)
        rows = rng.random((40, 6))
        centres = np.vstack([rng.random((3, 6)), np.full((2, 6), 50.0), -np.full((1, 6), 50.0)])
        got = encode_vlad(rows, Codebook(centres, inertia=0.0, iterations_run=1)).values.reshape(6, 6)
        assert np.array_equal(got[3:], np.zeros((3, 6)))
        want = vlad_oracle(rows, centres).reshape(6, 6)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_ties_go_to_the_lowest_centre(self):
        # [1, 0] is at squared distance 1 from both centres
        rows = np.array([[1.0, 0.0]])
        centres = np.array([[0.0, 0.0], [2.0, 0.0]])
        got = encode_vlad(rows, Codebook(centres, inertia=0.0, iterations_run=1)).values
        assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0])

    def test_length_law(self):
        rng = np.random.default_rng(5)
        for k, width in [(1, 3), (4, 8), (7, 5), (64, 512 // 8)]:
            rows = rng.random((10, width))
            cb = Codebook(rng.random((k, width)), inertia=0.0, iterations_run=1)
            assert encode_vlad(rows, cb).values.size == k * width

    def test_row_rotation_invariance(self):
        rng = np.random.default_rng(6)
        rows = rng.random((24, 32))
        cb = fit_kmeans_pp(rng.random((200, 32)), 8, seed=0)
        base = encode_vlad(rows, cb).values
        for shift in (1, 7, 23):
            rolled = encode_vlad(np.roll(rows, shift, axis=0), cb).values
            assert np.abs(rolled - base).max() <= 1e-6 * max(1.0, np.abs(base).max())

    def test_l2_normalize_flag(self):
        rng = np.random.default_rng(7)
        rows = rng.random((12, 6))
        cb = Codebook(rng.random((3, 6)), inertia=0.0, iterations_run=1)
        v = encode_vlad(rows, cb, l2_normalize=True)
        assert np.linalg.norm(v.values) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        cb = Codebook(np.zeros((2, 4)), inertia=0.0, iterations_run=1)
        with pytest.raises(ArgumentError):
            encode_vlad(np.zeros((3, 5)), cb)


    @pytest.mark.parametrize(
        "k, w, size, reason",
        [(0, 4, 4, "k must be >= 1, got 0"), (2, 0, 4, "w must be >= 1, got 0"), (2, 3, 5, r"length 5 != k\*w = 6")],
        ids=["k_below_1", "w_below_1", "length_not_k_times_w"],
    )
    def test_bad_dimensions_rejected(self, k, w, size, reason):
        with pytest.raises(ArgumentError, match=reason):
            VladDescriptor(np.ones(size), k, w)


class TestDescriptorDistance:
    def test_self_distance_zero(self):
        v = RingKeyDescriptor(np.random.default_rng(8).random(9))
        assert descriptor_distance(v, v) == 0.0

    def test_pythagoras(self):
        assert descriptor_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = rng.random(32), rng.random(32)
            want = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
            assert descriptor_distance(a, b) == pytest.approx(want, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            descriptor_distance(np.zeros(3), np.zeros(4))

    def test_descriptors_of_different_classes_raise(self):
        ring_key, vlad = RingKeyDescriptor(np.ones(8)), VladDescriptor(np.zeros(8), 2, 4)
        for a, b in ((ring_key, vlad), (vlad, ring_key)):
            with pytest.raises(ArgumentError, match="RingKeyDescriptor"):
                descriptor_distance(a, b)
        assert descriptor_distance(ring_key, np.zeros(8)) == descriptor_distance(np.zeros(8), vlad.values + 1) == 8.0

    def test_sinogram_descriptors_raise(self):
        spectrum = RaplaceDescriptor(np.ones((2, 3)))
        for a, b in ((spectrum, spectrum), (spectrum, np.ones(6)), (np.ones(6), spectrum)):
            with pytest.raises(ArgumentError, match="raplace_similarity"):
                descriptor_distance(a, b)


class TestRadonSinogram:
    def test_zero_image(self):
        sino = radon_sinogram(CartesianScan(np.zeros((32, 32)), 1.0), 8)
        assert sino.shape == (8, 32)
        assert not sino.any()

    def test_disc_rows_equal_at_grid_exact_angles(self):
        # 0 and 90 degrees map the pixel grid onto itself, so discrete
        # rotational symmetry is exact there
        side = 64
        cc = (side - 1) / 2
        yy, xx = np.mgrid[0:side, 0:side]
        disc = ((xx - cc) ** 2 + (yy - cc) ** 2 <= 20**2).astype(float)
        sino = radon_sinogram(CartesianScan(disc, 1.0), 2)
        rel = np.abs(sino[1] - sino[0]).max() / np.abs(sino).max()
        assert rel <= 1e-6

    def test_smooth_blob_rows_equal_at_interpolation_scale(self):
        # generic angles resample the grid, so row equality is limited by
        # bilinear interpolation error, not exact
        side = 128
        cc = (side - 1) / 2
        yy, xx = np.mgrid[0:side, 0:side]
        blob = np.exp(-((xx - cc) ** 2 + (yy - cc) ** 2) / (2 * 18.0**2))
        sino = radon_sinogram(CartesianScan(blob, 1.0), 16)
        rel = np.abs(sino - sino[0]).max() / np.abs(sino).max()
        assert rel <= 1e-2

    def test_bright_pixel_follows_sinusoid(self):
        side, n_angles = 64, 32
        img = np.zeros((side, side))
        img[20, 40] = 1.0
        sino = radon_sinogram(CartesianScan(img, 1.0), n_angles)
        cc = (side - 1) / 2
        rho = np.hypot(40 - cc, 20 - cc)
        alpha = np.arctan2(20 - cc, 40 - cc)
        for a in range(n_angles):
            expected = cc + rho * np.cos(alpha + np.pi * a / n_angles)
            assert abs(int(np.argmax(sino[a])) - expected) <= 1.0

    def test_bad_angle_count(self):
        with pytest.raises(ArgumentError):
            radon_sinogram(CartesianScan(np.zeros((8, 8)), 1.0), 0)

    @pytest.mark.parametrize("side", [16, 64, 128])
    def test_quarter_turn_row_of_a_flat_image_is_exact(self, side):
        # At pi/2 every sample lands on a grid point: the row must be the
        # image's row sums, last row first, with no sample lost at the
        # border (cos(pi/2) rounds to 6e-17, not 0).
        image = np.ones((side, side))
        sino = radon_sinogram(CartesianScan(image, 1.0), 4)
        assert sino[2].tobytes() == image.sum(axis=1)[::-1].tobytes()

    def test_streamed_tables_give_the_cached_sinogram(self, monkeypatch):
        image = CartesianScan(np.random.default_rng(4).random((48, 48)), 1.0)
        limit = descriptors._TABLE_CACHE_LIMIT_BYTES
        for n_angles in (40, 39):
            monkeypatch.setattr(descriptors, "_TABLE_CACHE_LIMIT_BYTES", limit)
            monkeypatch.setattr(descriptors, "_table_cache", {})
            cached = radon_sinogram(image, n_angles)
            assert (48, n_angles) in descriptors._table_cache
            monkeypatch.setattr(descriptors, "_TABLE_CACHE_LIMIT_BYTES", 0)
            monkeypatch.setattr(descriptors, "_table_cache", {})
            streamed = radon_sinogram(image, n_angles)
            assert not descriptors._table_cache
            assert streamed.tobytes() == cached.tobytes()

    def test_importing_the_package_leaves_scipy_unloaded(self):
        # Only the sinogram needs scipy, and it imports it on first use,
        # so workloads that never build a sinogram never pay for it:
        # neither the import nor an fft_radvlad fit, encode and match loads it.
        src = str(Path(descriptors.__file__).resolve().parents[1])
        code = "\n".join([
            f"import sys; sys.path.insert(0, {src!r})",
            "import radvlad",
            "print('scipy' in sys.modules)",
            "from radvlad.evaluate import distance_matrix_from_descriptors, encode_trajectory, fit_method_codebook",
            "from radvlad.scenarios import synthetic_run_config",
            "from radvlad.synthetic import PlaceWorld, WorldConfig",
            "world = PlaceWorld(seed=3, cfg=WorldConfig(n_places=4))",
            "cfg = synthetic_run_config(world.cfg, 'fft_radvlad')",
            "scans = world.reference_trajectory().scans",
            "place_map = encode_trajectory(scans, 'fft_radvlad', cfg, fit_method_codebook(scans, 'fft_radvlad', cfg))",
            "distances = distance_matrix_from_descriptors('fft_radvlad', place_map, place_map)",
            "print(len(place_map), distances.values.shape, 'scipy' in sys.modules)",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.split("\n")[:2] == ["False", "4 (4, 4) False"]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_encoders_build_a_cached_geometry_once(self, monkeypatch, jobs):
        world = PlaceWorld(seed=2, cfg=WorldConfig(n_places=4))
        cfg = synthetic_run_config(world.cfg, "raplace")
        build = descriptors._angle_table
        calls = []

        def counted(*args):
            calls.append(args[1])
            return build(*args)

        monkeypatch.setattr(descriptors, "_angle_table", counted)
        monkeypatch.setattr(descriptors, "_table_cache", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            encode_trajectory(world.reference_trajectory().scans, "raplace", cfg, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        # One table per built angle: those in [0, pi/2), as the angle count
        # is the grid width, which is even.
        assert len(calls) == cfg.raplace.width_px // 2


class TestEncodeRaplace:
    def test_default_configuration(self):
        cfg = RaplaceConfig()
        assert cfg.width_px == 256
        assert cfg.resolution_m == pytest.approx(1.2717)
        assert cfg.scale_pct == 25.0

    def test_output_shape_at_defaults(self):
        rng = np.random.default_rng(10)
        scan = PolarScan(rng.random((64, 128)), 2.6)
        desc = encode_raplace(scan)  # default 256 px, 25% -> 64 radial samples
        assert desc.spectrum.shape == (256, 64)

    def test_zero_scan_gives_zero_descriptor(self):
        scan = PolarScan(np.zeros((16, 32)), 1.0)
        desc = encode_raplace(scan, RaplaceConfig(width_px=32, resolution_m=1.0))
        assert not desc.spectrum.any()

    def test_rotation_maps_to_row_shift(self):
        # render one scene at two headings one azimuth step apart; the
        # sinogram spans [0, pi) so the spectrum shifts 2*A/H rows per step
        scene = generate_scene(30, 50.0, seed=3)
        n_az, steps = 64, 5
        cfg = RaplaceConfig(width_px=128, resolution_m=2 * 80.0 / 128, scale_pct=25.0)
        s0 = render_polar(scene, SensorPose(5.0, -3.0, 0.7), n_azimuths=n_az, n_bins=128, max_range_m=80.0)
        s1 = render_polar(
            scene,
            SensorPose(5.0, -3.0, 0.7 + 2 * np.pi * steps / n_az),
            n_azimuths=n_az,
            n_bins=128,
            max_range_m=80.0,
        )
        d0 = encode_raplace(s0, cfg)
        d1 = encode_raplace(s1, cfg)
        shift = 2 * cfg.width_px * steps // n_az
        err = np.linalg.norm(d1.spectrum - np.roll(d0.spectrum, shift, axis=0))
        assert err <= 0.02 * np.linalg.norm(d0.spectrum)


class TestRaplaceSimilarity:
    def test_self_similarity_is_squared_norm(self):
        rng = np.random.default_rng(11)
        mat = rng.random((16, 8))
        a = RaplaceDescriptor(mat)
        assert raplace_similarity(a, a) == pytest.approx(float((mat**2).sum()), rel=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(12)
        mat = rng.random((16, 8))
        a = RaplaceDescriptor(mat)
        self_sim = raplace_similarity(a, a)
        for shift in (1, 5, 11):
            b = RaplaceDescriptor(np.roll(mat, shift, axis=0))
            assert raplace_similarity(a, b) == pytest.approx(self_sim, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = RaplaceDescriptor(rng.random((12, 6)))
        b = RaplaceDescriptor(rng.random((12, 6)))
        assert raplace_similarity(a, b) == pytest.approx(raplace_similarity(b, a), rel=1e-9)

    def test_matches_explicit_shift_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            sa, sb = rng.random((16, 8)), rng.random((16, 8))
            want = max(float((np.roll(sa, -s, axis=0) * sb).sum()) for s in range(16))
            got = raplace_similarity(RaplaceDescriptor(sa), RaplaceDescriptor(sb))
            assert got == pytest.approx(want, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            raplace_similarity(RaplaceDescriptor(np.zeros((4, 4))), RaplaceDescriptor(np.zeros((4, 5))))

    def test_vector_descriptors_raise(self):
        spectrum, vlad = RaplaceDescriptor(np.ones((2, 4))), VladDescriptor(np.ones(8), 2, 4)
        for a, b in ((vlad, vlad), (spectrum, vlad), (vlad, spectrum), (RingKeyDescriptor(np.ones(8)), spectrum)):
            with pytest.raises(ArgumentError, match="RaplaceDescriptor"):
                raplace_similarity(a, b)


class TestDescriptorFiles:
    def test_ring_key_roundtrip(self, tmp_path):
        desc = RingKeyDescriptor(np.random.default_rng(15).random(20))
        path = tmp_path / "rk.desc"
        save_descriptor(path, desc)
        back = load_descriptor(path)
        assert isinstance(back, RingKeyDescriptor)
        assert np.array_equal(back.values, desc.values)

    def test_vlad_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        desc = VladDescriptor(rng.standard_normal(12), k=3, w=4)
        path = tmp_path / "v.desc"
        save_descriptor(path, desc)
        back = load_descriptor(path)
        assert isinstance(back, VladDescriptor)
        assert (back.k, back.w) == (3, 4)
        assert np.array_equal(back.values, desc.values)

    def test_raplace_roundtrip(self, tmp_path):
        desc = RaplaceDescriptor(np.random.default_rng(17).random((6, 5)))
        path = tmp_path / "r.desc"
        save_descriptor(path, desc)
        back = load_descriptor(path)
        assert isinstance(back, RaplaceDescriptor)
        assert np.array_equal(back.spectrum, desc.spectrum)

    def test_unsupported_object_is_not_saved(self, tmp_path):
        path = tmp_path / "array.desc"
        with pytest.raises(ArgumentError, match="unsupported descriptor type ndarray"):
            save_descriptor(path, np.ones(3))
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.desc"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(IngestError):
            load_descriptor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.desc"
        save_descriptor(path, RingKeyDescriptor(np.ones(8)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(IngestError):
            load_descriptor(path)

    @pytest.mark.parametrize(
        "name, data",
        [
            ("cut_in_dims.desc", b"DESC\x01" + struct.pack("<I", 3)),
            ("nan.desc", b"DESC\x01" + struct.pack("<II", 1, 2) + np.array([0.0, np.nan], dtype="<f8").tobytes()),
            ("zero_angles.desc", b"DESC\x02" + struct.pack("<II", 0, 5)),
            ("zero_k.desc", b"DESC\x01" + struct.pack("<II", 0, 5)),
            ("unknown_kind.desc", b"DESC\x09" + struct.pack("<I", 0)),
        ],
        ids=["cut_in_dims", "nan", "zero_angles", "zero_k", "unknown_kind"],
    )
    def test_malformed_file_rejected_naming_the_file(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(IngestError, match=name):
            load_descriptor(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RaplaceDescriptor(np.zeros((0, 5))),
        lambda: CartesianScan(np.zeros((0, 0)), 1.0),
        lambda: SpectralScan(np.zeros((0, 3)), 4),
        lambda: RingKeyDescriptor(np.zeros(0)),
        lambda: VladDescriptor(np.zeros(0), k=0, w=5),
        lambda: Codebook(np.zeros((3, 0)), 0.0, 0),
        lambda: encode_vlad(np.zeros((0, 2)), Codebook(np.eye(2), 0.0, 0)),
        lambda: DistanceMatrix(np.zeros((0, 3))),
    ],
    ids=["raplace", "cartesian", "spectral", "ring_key", "vlad", "zero_width_codebook", "vlad_of_no_rows", "distances"],
)
def test_zero_size_container_rejected(make):
    with pytest.raises(ArgumentError):
        make()
