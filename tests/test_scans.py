import sys

import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    CartesianScan,
    IngestError,
    PolarScan,
    RasterLayoutConfig,
    ReflectorScene,
    SensorPose,
    TrajectoryPoses,
    load_polar_scan,
    load_poses,
    polar_to_cartesian,
    read_prsn,
    render_polar,
    resample_range,
    suppress_near_range,
    write_poses,
    write_prsn,
)
from radvlad import runs as runs_module
from radvlad import scans as scans_module
from radvlad.runs import load_trajectory, write_trajectory
from radvlad.scans import read_prsn_header


def make_scan(power, res=0.1):
    return PolarScan(np.asarray(power, dtype=np.float64), res)


class TestPolarScanType:
    def test_shape_and_properties(self):
        scan = make_scan(np.ones((4, 6)), res=0.5)
        assert scan.azimuth_count == 4
        assert scan.range_bin_count == 6
        assert scan.max_range_m == pytest.approx(3.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ArgumentError):
            make_scan([[-1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ArgumentError):
            make_scan([[np.nan, 0.0]])

    def test_rejects_bad_resolution(self):
        with pytest.raises(ArgumentError):
            PolarScan(np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_power_is_held_as_given(self, dtype):
        power = np.ones((2, 3), dtype=dtype)
        assert PolarScan(power, 0.1).power is power

    @pytest.mark.parametrize(
        "power",
        [np.ones((2, 3), dtype=np.int64), [[1, 2], [3, 4]], [[0.5, 1.5]], np.full((2, 2), 0.1, dtype=np.float16)],
        ids=["int", "int_list", "float_list", "float16"],
    )
    def test_other_power_becomes_float64(self, power):
        scan = PolarScan(power, 0.1)
        assert scan.power.dtype == np.float64
        assert np.array_equal(scan.power, np.asarray(power).astype(np.float64))

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_float32_power_is_checked_as_given(self, bad):
        with pytest.raises(ArgumentError):
            PolarScan(np.array([[1.0, bad]], dtype=np.float32), 0.1)


class TestRawIngestion:
    def test_u8_file_roundtrip(self, tmp_path):
        # scripted generator for a realistic raw layout: 400 rows of
        # 11 header bytes + 3768 u8 samples
        rng = np.random.default_rng(7)
        rows, header, bins = 400, 11, 3768
        payload = rng.integers(0, 256, size=(rows, bins), dtype=np.uint8)
        headers = rng.integers(0, 256, size=(rows, header), dtype=np.uint8)
        raw = np.concatenate([headers, payload], axis=1)
        path = tmp_path / "000123.bin"
        path.write_bytes(raw.tobytes())

        layout = RasterLayoutConfig(rows=rows, header_bytes_per_row=header, payload_bins=bins)
        scan = load_polar_scan(path, layout)
        assert scan.power.shape == (rows, bins)
        assert np.array_equal(scan.power, payload.astype(np.float64) / 255.0)
        assert scan.timestamp_ns == 123
        assert scan.id == "000123"

    def test_u8_endpoint_mapping(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(bytes([0, 255, 0, 255]))
        scan = load_polar_scan(path, RasterLayoutConfig(rows=1, header_bytes_per_row=0, payload_bins=4))
        assert np.array_equal(scan.power, [[0.0, 1.0, 0.0, 1.0]])

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(bytes(10))
        layout = RasterLayoutConfig(rows=2, header_bytes_per_row=0, payload_bins=8)
        with pytest.raises(IngestError):
            load_polar_scan(path, layout)

    def test_trailing_bytes_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(bytes(40))
        layout = RasterLayoutConfig(rows=2, header_bytes_per_row=0, payload_bins=4)
        with pytest.raises(IngestError, match=r"long\.bin: .*exactly 8 bytes, found 40"):
            load_polar_scan(path, layout)

    @pytest.mark.parametrize(
        "layout, reason",
        [
            ({"rows": 0, "header_bytes_per_row": 0, "payload_bins": 4}, "rows must be >= 1, got 0"),
            ({"rows": 2, "header_bytes_per_row": -1, "payload_bins": 4}, "header_bytes_per_row must be >= 0, got -1"),
            ({"rows": 2, "header_bytes_per_row": 0, "payload_bins": 0}, "payload_bins must be >= 1, got 0"),
            ({"rows": 2, "header_bytes_per_row": 0, "payload_bins": 4, "sample_encoding": "u16"}, "sample_encoding"),
        ],
        ids=["no_rows", "negative_header", "no_bins", "unknown_encoding"],
    )
    def test_bad_layout_rejected(self, layout, reason):
        with pytest.raises(ArgumentError, match=reason):
            RasterLayoutConfig(**layout)

    def test_f32_passthrough(self, tmp_path):
        values = np.array([[0.25, 1.5, 0.0, 3.0]], dtype="<f4")
        path = tmp_path / "f.bin"
        path.write_bytes(values.tobytes())
        layout = RasterLayoutConfig(rows=1, header_bytes_per_row=0, payload_bins=4, sample_encoding="f32-LE")
        scan = load_polar_scan(path, layout)
        assert np.array_equal(scan.power, values.astype(np.float64))

    @pytest.mark.parametrize("encoding, dtype", [("u8", "u1"), ("f32-LE", "<f4")])
    @pytest.mark.parametrize("header", [0, 3])
    def test_sample_dtype_follows_the_encoding(self, tmp_path, encoding, dtype, header):
        # u8 becomes payload / 255 in float64; f32-LE is held as float32.
        payload = np.array([[0, 51, 255], [3, 2, 1]], dtype=dtype)
        path = tmp_path / "s.bin"
        path.write_bytes(b"".join(bytes(header) + row.tobytes() for row in payload))
        layout = RasterLayoutConfig(rows=2, header_bytes_per_row=header, payload_bins=3, sample_encoding=encoding)
        power = load_polar_scan(path, layout).power
        if encoding == "u8":
            assert power.dtype == np.float64
            assert np.array_equal(power, payload.astype(np.float64) / 255.0)
        else:
            assert power.dtype == np.float32
            assert np.array_equal(power, payload)

    def test_f32_non_finite_rejected(self, tmp_path):
        values = np.array([[1.0, np.inf]], dtype="<f4")
        path = tmp_path / "bad.bin"
        path.write_bytes(values.tobytes())
        layout = RasterLayoutConfig(rows=1, header_bytes_per_row=0, payload_bins=2, sample_encoding="f32-LE")
        with pytest.raises(IngestError):
            load_polar_scan(path, layout)


    def test_f32_negative_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "neg.bin"
        path.write_bytes(np.array([[1.0, -0.5]], dtype="<f4").tobytes())
        layout = RasterLayoutConfig(rows=1, header_bytes_per_row=0, payload_bins=2, sample_encoding="f32-LE")
        with pytest.raises(IngestError, match="neg.bin"):
            load_polar_scan(path, layout)


class TestPoseCsv:
    def test_wellformed(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("timestamp_ns,easting_m,northing_m\n1,10.5,-2.0\n2,11.0,-2.5\n3,11.5,-3.0\n")
        poses = load_poses(path)
        assert len(poses) == 3
        assert poses.timestamps_ns.tolist() == [1, 2, 3]
        assert poses.easting_m.tolist() == [10.5, 11.0, 11.5]

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("timestamp_ns,easting_m,northing_m\n5,0,0\n4,1,1\n")
        with pytest.raises(IngestError, match="row 3"):
            load_poses(path)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("timestamp_ns,easting_m,northing_m\n")
        assert len(load_poses(path)) == 0

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"timestamp_ns,easting_m,northing_m\n1,0,\xff\n", "codec"),
            (b"timestamp_ns,easting_m,northing_m\n99999999999999999999,0,0\n", "row 2"),
            (b"timestamp_ns,x_m,y_m\n1,0,0\n", "expected header"),
        ],
        ids=["not_utf8", "timestamp_overflow", "wrong_header"],
    )
    def test_malformed_file_rejected_naming_the_file(self, tmp_path, data, reason):
        path = tmp_path / "bad_poses.csv"
        path.write_bytes(data)
        with pytest.raises(IngestError, match=f"bad_poses.csv.*{reason}"):
            load_poses(path)

    def test_unparsable_row_reports_line(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("timestamp_ns,easting_m,northing_m\n1,0,0\n2,abc,0\n")
        with pytest.raises(IngestError, match="row 3"):
            load_poses(path)

    def test_roundtrip(self, tmp_path):
        poses = TrajectoryPoses([1, 5, 9], [0.125, -3.5, 2.0], [7.0, 8.0, 9.0])
        path = tmp_path / "poses.csv"
        write_poses(path, poses)
        back = load_poses(path)
        assert np.array_equal(back.timestamps_ns, poses.timestamps_ns)
        assert np.array_equal(back.easting_m, poses.easting_m)
        assert np.array_equal(back.northing_m, poses.northing_m)


class TestSuppressNearRange:
    def test_first_60_columns_zeroed(self):
        rng = np.random.default_rng(0)
        scan = make_scan(rng.random((400, 3768)), res=0.0432)
        out = suppress_near_range(scan, 60)
        assert out.power.shape == scan.power.shape
        assert np.all(out.power[:, :60] == 0.0)
        assert np.array_equal(out.power[:, 60:], scan.power[:, 60:])

    def test_zero_bins_identity(self):
        scan = make_scan(np.random.default_rng(1).random((5, 8)))
        assert np.array_equal(suppress_near_range(scan, 0).power, scan.power)

    def test_full_suppression(self):
        scan = make_scan([[1.0, 2.0, 3.0, 4.0]])
        assert np.array_equal(suppress_near_range(scan, 4).power, [[0.0, 0.0, 0.0, 0.0]])

    def test_too_many_bins_rejected(self):
        with pytest.raises(ArgumentError):
            suppress_near_range(make_scan([[1.0, 2.0]]), 3)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            scan = make_scan(rng.random((8, 32)))
            n = int(rng.integers(0, 33))
            once = suppress_near_range(scan, n)
            twice = suppress_near_range(once, n)
            assert np.array_equal(once.power, twice.power)


class TestResampleRange:
    def test_aligned_box_average(self):
        out = resample_range(make_scan([[1.0, 1.0, 3.0, 3.0]], res=1.0), 2)
        assert np.allclose(out.power, [[1.0, 3.0]])
        assert out.range_resolution_m == pytest.approx(2.0)

    def test_identity_is_bit_exact(self):
        scan = make_scan(np.random.default_rng(3).random((6, 17)))
        out = resample_range(scan, 17)
        assert np.array_equal(out.power, scan.power)
        assert out.range_resolution_m == scan.range_resolution_m

    def test_default_pipeline_shape(self):
        rng = np.random.default_rng(4)
        scan = make_scan(rng.random((400, 3768)), res=0.0432)
        out = resample_range(scan, 512)
        assert out.power.shape == (400, 512)
        assert out.range_resolution_m == pytest.approx(0.0432 * 3768 / 512)

    def test_mean_conserved_for_divisible_target(self):
        rng = np.random.default_rng(5)
        scan = make_scan(rng.random((8, 96)))
        out = resample_range(scan, 16)
        assert out.power.mean() == pytest.approx(scan.power.mean(), rel=1e-12)

    def test_non_divisible_box_average_matches_oracle(self):
        # brute-force interval-overlap averaging oracle
        rng = np.random.default_rng(6)
        row = rng.random(7)
        out = resample_range(make_scan(row[None, :]), 3).power[0]
        width, target = 7, 3
        expected = np.empty(target)
        for t in range(target):
            lo, hi = t * width / target, (t + 1) * width / target
            acc = 0.0
            for i in range(width):
                overlap = max(0.0, min(hi, i + 1) - max(lo, i))
                acc += row[i] * overlap
            expected[t] = acc / (width / target)
        assert np.allclose(out, expected, rtol=1e-12)

    def test_upsample_linear(self):
        out = resample_range(make_scan([[0.0, 2.0]], res=1.0), 4)
        assert out.power.shape == (1, 4)
        assert np.all(np.diff(out.power[0]) >= 0.0)
        assert out.range_resolution_m == pytest.approx(0.5)

    def test_bad_target_rejected(self):
        with pytest.raises(ArgumentError):
            resample_range(make_scan([[1.0]]), 0)


def box_overlap_oracle(rows, target, suppress=0):
    """Brute-force interval-overlap averaging, columns below ``suppress`` read as zero."""
    n, width = rows.shape
    out = np.zeros((n, target))
    for t in range(target):
        lo, hi = t * width / target, (t + 1) * width / target
        for i in range(suppress, width):
            overlap = max(0.0, min(hi, i + 1) - max(lo, i))
            out[:, t] += rows[:, i] * overlap
        out[:, t] /= width / target
    return out


class TestFusedSuppression:
    # (width, target, suppress): n = 0, n = W, n inside an output bin, n on
    # a bin boundary, n past the first block of bins, a block ending at the
    # last column, and the identity and upsample branches.
    CASES = [
        (37, 5, 0),
        (37, 5, 37),
        (37, 5, 3),
        (40, 5, 16),
        (3768, 512, 60),
        (3768, 512, 200),
        (3768, 512, 3767),
        (100, 33, 99),
        (17, 17, 4),
        (17, 17, 17),
        (6, 20, 2),
        (6, 20, 6),
        (1, 4, 1),
    ]

    @pytest.mark.parametrize("width,target,suppress", CASES)
    def test_matches_suppress_then_resample(self, width, target, suppress):
        rng = np.random.default_rng(width * 1000 + suppress)
        # a strong near-range prefix, as raw scans have
        power = rng.random((6, width)) * np.where(np.arange(width) < 60, 1e6, 1.0)
        scan = make_scan(power, res=0.0432)
        fused = resample_range(scan, target, suppress_bins=suppress)
        staged = resample_range(suppress_near_range(scan, suppress), target)
        scale = np.abs(staged.power).max(axis=1, keepdims=True) + 1e-300
        assert fused.power.shape == (6, target)
        assert np.all(np.abs(fused.power - staged.power) <= 1e-12 * scale)
        assert fused.range_resolution_m == staged.range_resolution_m
        assert fused.power.min() >= 0.0

    @pytest.mark.parametrize("width,target,suppress", [c for c in CASES if c[1] < c[0]])
    def test_downsample_matches_box_overlap_oracle(self, width, target, suppress):
        rng = np.random.default_rng(suppress)
        rows = rng.random((3, width))
        got = resample_range(make_scan(rows), target, suppress_bins=suppress).power
        want = box_overlap_oracle(rows, target, suppress)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(rows).max())

    def test_bins_inside_suppressed_prefix_are_exactly_zero(self):
        rng = np.random.default_rng(8)
        width, target, suppress = 3768, 512, 600
        out = resample_range(make_scan(rng.random((4, width)) + 1.0), target, suppress_bins=suppress).power
        inside = int(np.floor(suppress * target / width))
        assert np.array_equal(out[:, :inside], np.zeros((4, inside)))
        assert np.all(out[:, inside:] > 0.0)

    def test_identity_branch_zeroes_prefix_and_keeps_the_rest_bit_exact(self):
        scan = make_scan(np.random.default_rng(9).random((5, 12)))
        out = resample_range(scan, 12, suppress_bins=4).power
        assert np.array_equal(out[:, :4], np.zeros((5, 4)))
        assert np.array_equal(out[:, 4:], scan.power[:, 4:])

    def test_input_not_mutated(self):
        rng = np.random.default_rng(10)
        for width, target in [(3768, 512), (12, 12), (6, 20)]:
            scan = make_scan(rng.random((4, width)))
            before = scan.power.copy()
            resample_range(scan, target, suppress_bins=min(5, width))
            assert np.array_equal(scan.power, before)

    @pytest.mark.parametrize("suppress", [-1, 13])
    def test_out_of_range_suppression_rejected(self, suppress):
        with pytest.raises(ArgumentError):
            resample_range(make_scan(np.ones((2, 12))), 4, suppress_bins=suppress)


def banded_box_reference(rows, target, suppress):
    """The blocked band product of ``scans._box_downsample``, built afresh on
    every call, so the cached bands can be checked against it bit for bit."""
    height, width = rows.shape
    block_bins = scans_module._BOX_BLOCK_BINS
    bounds = np.maximum(np.arange(target + 1) * (width / target), suppress)
    bounds[-1] = width
    first = np.arange(0, target, block_bins)
    bins = np.minimum(first[:, None, None] + np.arange(block_bins), target - 1)
    col0 = np.floor(bounds[first]).astype(np.int64)
    span = int((np.ceil(bounds[bins[:, 0, -1] + 1]).astype(np.int64) - col0).max())
    col0 = np.minimum(col0, width - span)
    cols = col0[:, None, None] + np.arange(span)[:, None]
    weights = np.minimum(bounds[bins + 1], cols + 1) - np.maximum(bounds[bins], cols)
    np.maximum(weights, 0.0, out=weights)
    weights *= target / width
    out = np.empty((height, target))
    for t0, c0, block in zip(first.tolist(), col0.tolist(), weights):
        t1 = min(t0 + block_bins, target)
        np.matmul(rows[:, c0 : c0 + span], block[:, : t1 - t0], out=out[:, t0:t1])
    return out


class TestBoxBandCache:
    # (width, target, suppress): no suppression, all of it, one bin fewer
    # than the width, widths that are not a multiple of the target, targets
    # below one block of bins, and the raw-scan and largemap geometries.
    GRID = [
        (37, 5, 0),
        (37, 5, 37),
        (37, 36, 0),
        (37, 36, 11),
        (100, 99, 100),
        (100, 33, 7),
        (1000, 3, 0),
        (1000, 15, 999),
        (17, 16, 5),
        (2, 1, 1),
        (1024, 512, 0),
        (3768, 512, 60),
    ]

    @pytest.mark.parametrize("width,target,suppress", GRID)
    def test_cached_bands_give_the_fresh_bands_bits(self, width, target, suppress):
        rng = np.random.default_rng(width + target + suppress)
        for _ in range(2):  # the second call reads the cached band
            rows = rng.random((5, width)) * 10.0 ** rng.integers(-3, 6, size=(5, 1))
            want = banded_box_reference(rows, target, suppress)
            assert np.array_equal(scans_module._box_downsample(rows, target, suppress), want)
            assert np.array_equal(resample_range(make_scan(rows), target, suppress_bins=suppress).power, want)

    def test_cached_weights_are_read_only(self):
        span, blocks = scans_module._box_bands(3768, 512, 60)
        assert len(blocks) == 512 // scans_module._BOX_BLOCK_BINS
        for t0, t1, c0, weights in blocks:
            assert weights.shape == (span, t1 - t0) and weights.min() >= 0.0
            with pytest.raises(ValueError):
                weights[0, 0] = 1.0
        assert scans_module._box_bands(3768, 512, 60)[1] is blocks

    def test_the_cache_is_bounded(self):
        limit = scans_module._box_bands.cache_info().maxsize
        assert limit is not None
        rows = np.ones((1, 64))
        for target in range(1, limit + 6):
            scans_module._box_downsample(rows, target, 0)
        assert scans_module._box_bands.cache_info().currsize == limit

    def test_concurrent_encodes_are_byte_identical(self):
        from radvlad.evaluate import encode_trajectory, fit_method_codebook
        from radvlad.scenarios import synthetic_run_config
        from radvlad.synthetic import PlaceWorld, WorldConfig

        world = PlaceWorld(seed=3, cfg=WorldConfig(n_places=12))
        scans = world.reference_trajectory().scans
        cfg = synthetic_run_config(world.cfg, "fft_radvlad", k=4)
        codebook = fit_method_codebook(scans, "fft_radvlad", cfg)
        stacks = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so workers race to build the bands
        try:
            for jobs in (1, 2, 4):
                scans_module._box_bands.cache_clear()
                place_map = encode_trajectory(scans, "fft_radvlad", cfg, codebook, jobs=jobs)
                held = (place_map.store.data, place_map.store.owners)
                stacks.append(tuple(a.tobytes() for a in held) + (b"".join(d.values.tobytes() for d in place_map),))
        finally:
            sys.setswitchinterval(interval)
        assert stacks[0] == stacks[1] == stacks[2]


class TestPolarToCartesian:
    def test_max_range_arithmetic(self):
        scan = make_scan(np.zeros((4, 8)), res=1.0)
        cart = polar_to_cartesian(scan, 256, 1.2717)
        assert cart.max_range_m == pytest.approx(256 / 2 * 1.2717)
        # the default polar geometry covers exactly the same range
        assert 3768 * 0.0432 == pytest.approx(256 / 2 * 1.2717, rel=1e-9)

    def test_zero_in_zero_out(self):
        cart = polar_to_cartesian(make_scan(np.zeros((8, 16))), 32, 0.5)
        assert not cart.pixels.any()

    def test_single_reflector_position(self):
        # reflector 50 m dead ahead; polar and Cartesian grids share a
        # 0.5 m resolution so the blob peak maps to a known pixel
        scene = ReflectorScene(np.array([[50.0, 0.0]]), np.array([1.0]), extent_m=60.0)
        scan = render_polar(scene, SensorPose(0, 0, 0), n_azimuths=128, n_bins=200,
                            max_range_m=100.0, beam_sigma_bins=1.5)
        cart = polar_to_cartesian(scan, 256, 0.5)
        iy, ix = np.unravel_index(np.argmax(cart.pixels), cart.pixels.shape)
        centre = (256 - 1) / 2
        assert abs(ix - (centre + 50.0 / 0.5)) <= 1.0
        assert abs(iy - centre) <= 1.0

    def test_rotationally_symmetric_scan(self):
        row = np.random.default_rng(8).random(40)
        scan = make_scan(np.tile(row, (16, 1)), res=1.0)
        cart = polar_to_cartesian(scan, 64, 1.0)
        assert np.abs(cart.pixels - np.rot90(cart.pixels)).max() < 1e-9

    def test_non_square_pixels_rejected(self):
        with pytest.raises(ArgumentError, match="square"):
            CartesianScan(np.zeros((2, 3)), 1.0)

    def test_odd_width_rejected(self):
        with pytest.raises(ArgumentError):
            polar_to_cartesian(make_scan(np.zeros((4, 4))), 33, 1.0)


class TestPrsnFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        scan = PolarScan(rng.random((12, 30)), 0.0432, timestamp_ns=987654321, id="x")
        path = tmp_path / "scan.prsn"
        write_prsn(path, scan)
        back = read_prsn(path)
        assert np.array_equal(back.power, scan.power.astype(np.float32).astype(np.float64))
        assert back.range_resolution_m == scan.range_resolution_m
        assert back.timestamp_ns == scan.timestamp_ns
        assert back.id == "scan"

    def test_header_gives_every_field_without_the_samples(self, tmp_path):
        path = tmp_path / "scan.prsn"
        write_prsn(path, PolarScan(np.ones((12, 30)), 0.0432, timestamp_ns=987654321))
        path.write_bytes(path.read_bytes()[:40])  # the header, and a few samples of 360
        assert read_prsn_header(path) == (12, 30, 0.0432, 987654321)
        assert read_prsn_header(path).azimuth_count == 12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.prsn"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(IngestError):
            read_prsn(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(10)
        scan = PolarScan(rng.random((4, 4)), 0.1)
        path = tmp_path / "t.prsn"
        write_prsn(path, scan)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(IngestError):
            read_prsn(path)

    def test_non_finite_sample_rejected_naming_the_file(self, tmp_path):
        scan = PolarScan(np.ones((2, 3)), 0.1)
        path = tmp_path / "nan.prsn"
        write_prsn(path, scan)
        buf = bytearray(path.read_bytes())
        buf[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(buf))
        with pytest.raises(IngestError, match="nan.prsn"):
            read_prsn(path)

    def test_power_is_a_read_only_float32_view(self, tmp_path):
        path = tmp_path / "scan.prsn"
        write_prsn(path, PolarScan(np.full((3, 5), 0.5), 0.1))
        power = read_prsn(path).power
        assert power.dtype == np.float32
        assert power.shape == (3, 5)
        assert not power.flags.writeable
        assert not power.flags.owndata

    def test_negative_sample_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "neg.prsn"
        write_prsn(path, PolarScan(np.ones((2, 3)), 0.1))
        buf = bytearray(path.read_bytes())
        buf[-4:] = np.array([-0.5], dtype="<f4").tobytes()
        path.write_bytes(bytes(buf))
        with pytest.raises(IngestError, match="neg.prsn"):
            read_prsn(path)

    def test_cut_inside_header_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "cut.prsn"
        path.write_bytes(b"PRSN" + bytes(6))
        with pytest.raises(IngestError, match="cut.prsn"):
            read_prsn(path)


class TestTrajectoryPoses:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ArgumentError):
            TrajectoryPoses([3, 3], [0, 0], [0, 0])

    @pytest.mark.parametrize(
        "columns, reason",
        [
            (([1, 2], [0.0], [0.0, 1.0]), "equal lengths"),
            (([1, 2], [0.0, np.nan], [0.0, 1.0]), "finite"),
            (([1, 2], [0.0, 1.0], [np.inf, 1.0]), "finite"),
        ],
        ids=["unequal_lengths", "nan_easting", "inf_northing"],
    )
    def test_malformed_columns_rejected(self, columns, reason):
        with pytest.raises(ArgumentError, match=reason):
            TrajectoryPoses(*columns)

    def test_positions_shape(self):
        poses = TrajectoryPoses([1, 2], [5.0, 6.0], [7.0, 8.0])
        assert poses.positions().shape == (2, 2)
        assert poses.positions()[1].tolist() == [6.0, 8.0]


class TestRunDirectory:
    @pytest.fixture
    def run_dir(self, tmp_path):
        scans = [PolarScan(np.ones((2, 3)), 0.1, timestamp_ns=t) for t in (1, 2)]
        return write_trajectory(tmp_path / "run", scans, TrajectoryPoses([1, 2], [0.0, 1.0], [0.0, 0.0]))

    def test_no_scans_rejected(self, run_dir):
        for scan in (run_dir / "scans").glob("*.prsn"):
            scan.unlink()
        with pytest.raises(IngestError, match="no .prsn scans"):
            load_trajectory(run_dir)

    def test_missing_poses_rejected_only_when_required(self, run_dir):
        (run_dir / "poses.csv").unlink()
        with pytest.raises(IngestError, match="missing poses.csv"):
            load_trajectory(run_dir)
        trajectory = load_trajectory(run_dir, require_poses=False)
        assert len(trajectory.scans) == 2 and len(trajectory.poses) == 0

    def test_scans_are_read_from_their_files_when_used(self, run_dir, monkeypatch):
        read = []
        monkeypatch.setattr(runs_module, "read_prsn", lambda path: read.append(path.name) or read_prsn(path))
        scans = load_trajectory(run_dir).scans
        tail = scans[1:]
        assert isinstance(tail, runs_module.ScanFiles) and len(tail) == 1 and read == []
        assert [scan.timestamp_ns for scan in scans] == [1, 2]
        assert scans[-1].id == tail[0].id == "000001"
        assert scans[0] is not scans[0]  # read afresh, never kept
        assert read == ["000000.prsn", "000001.prsn", "000001.prsn", "000001.prsn", "000000.prsn", "000000.prsn"]
        with pytest.raises(IndexError):
            scans[2]
