import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    CartesianScan,
    Codebook,
    DistanceMatrix,
    GroundTruthMatrix,
    PlaceWorld,
    PolarScan,
    RaplaceConfig,
    RasterLayoutConfig,
    ReflectorScene,
    RunConfig,
    SensorPose,
    VladDescriptor,
    WorldConfig,
    bench_timings,
    build_run_config,
    encode_raplace,
    downsample_trajectory,
    fit_kmeans_pp,
    generate_scene,
    parse_config_file,
    polar_to_cartesian,
    radon_sinogram,
    recall_at_n,
    render_polar,
    resample_range,
)
from radvlad.config import config_fields
from radvlad.evaluate import encode_trajectory
from radvlad.sweep import _ringkey_variant

LAYOUT = {"rows": 1, "header_bytes_per_row": 0, "payload_bins": 1}
# The lowest valid value of each integer field whose bound is not 1.
INT_LOWS = {"suppress_bins": 0, "header_bytes_per_row": 0, "width_px": 2}
SCAN = PolarScan(np.ones((4, 8)), 1.0)
ROWS = np.random.default_rng(0).random((6, 2))


class TestDefaults:
    def test_pipeline_defaults(self):
        cfg = RunConfig()
        assert cfg.method == "fft_radvlad"
        assert cfg.suppress_bins == 60
        assert cfg.target_bins == 512
        assert cfg.k == 64
        assert cfg.stride == 10
        assert cfg.threshold_m == 25.0
        assert cfg.n_max == 50
        assert cfg.raplace.width_px == 256
        assert cfg.raplace.resolution_m == pytest.approx(1.2717)
        assert cfg.raplace.scale_pct == 25.0

    @pytest.mark.parametrize("config", [RunConfig, RaplaceConfig])
    def test_fields_cannot_be_assigned_after_the_checks(self, config):
        cfg = config()
        for setting in fields(config):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, setting.name, float("nan"))
        assert cfg == config()

    def test_class_attributes_read_the_defaults(self):
        cfg = RunConfig()
        for setting in fields(RunConfig):
            if setting.name != "raplace":
                assert getattr(RunConfig, setting.name) == getattr(cfg, setting.name)

    def test_invalid_method_rejected(self):
        with pytest.raises(ArgumentError):
            RunConfig(method="nope")

    @pytest.mark.parametrize("name", ["target_bins", "k", "stride", "n_max"])
    def test_counts_below_one_rejected(self, name):
        with pytest.raises(ArgumentError, match=f"{name}.*>= 1"):
            RunConfig(**{name: 0})


class TestConfigFile:
    def test_parse_key_value_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# pipeline settings\n"
            "k = 32\n"
            "threshold_m = 10.5   # inline comment\n"
            "\n"
            "raplace.scale_pct = 40\n"
        )
        values = parse_config_file(path)
        assert values == {"k": "32", "threshold_m": "10.5", "raplace.scale_pct": "40"}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ArgumentError):
            parse_config_file(path)

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k = 4\n = 3\n")
        with pytest.raises(ArgumentError, match="line 2: empty key"):
            parse_config_file(path)

    @pytest.mark.parametrize("line", ["k = 3.5", "threshold_m = far"])
    def test_value_of_the_wrong_type_in_a_file_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        key = line.split(" ")[0]
        with pytest.raises(ArgumentError, match=f"{key}: expected"):
            build_run_config(parse_config_file(path))

    def test_file_values_applied(self):
        cfg = build_run_config({"k": "16", "method": "radvlad", "raplace.width_px": "64"})
        assert cfg.k == 16
        assert cfg.method == "radvlad"
        assert cfg.raplace.width_px == 64
        assert cfg.raplace.resolution_m == pytest.approx(1.2717)  # untouched default

    def test_flags_win_over_file(self):
        cfg = build_run_config({"k": "16", "stride": "5"}, {"k": 2, "stride": None})
        assert cfg.k == 2          # explicit override wins
        assert cfg.stride == 5     # unset flag (None) falls through to the file

    def test_raplace_width_px_in_a_file_sets_the_sinogram_angle_count(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("raplace.width_px = 48\n")
        cfg = build_run_config(parse_config_file(path))
        desc = encode_raplace(PolarScan(np.ones((8, 16)), 1.0), cfg.raplace)
        assert desc.spectrum.shape[0] == 48

    def test_every_config_key_has_one_plain_type(self):
        types = {key: f.type for key, f in config_fields().items()}
        assert len(types) == 10
        assert set(types.values()) == {str, int, float}
        with pytest.raises(ArgumentError, match="raplace.width_px: expected int"):
            build_run_config({"raplace.width_px": "none"})

    @pytest.mark.parametrize("value", ["true", "false", True])
    def test_vlad_normalisation_is_an_unknown_config_key(self, value):
        with pytest.raises(ArgumentError, match="unknown config key 'vlad_l2_normalize'"):
            build_run_config({"vlad_l2_normalize": value})
        with pytest.raises(ArgumentError, match="unknown config key 'vlad_l2_normalize'"):
            build_run_config(overrides={"vlad_l2_normalize": value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ArgumentError):
            build_run_config({"nonsense": "1"})
        with pytest.raises(ArgumentError):
            build_run_config({"raplace.nonsense": "1"})

    @pytest.mark.parametrize("value", [2.5, float("nan"), True])
    def test_a_given_int_is_checked_not_converted(self, value):
        with pytest.raises(ArgumentError, match="^k must be an integer >= 1"):
            build_run_config(overrides={"k": value})


class TestValidValues:
    """Every real-valued setting is finite, whatever its sign rule; NaN
    fails every comparison, so a check written as ``x <= 0.0`` passes it."""

    @pytest.mark.parametrize(
        "config, required",
        [(RunConfig, {}), (RaplaceConfig, {}), (RasterLayoutConfig, LAYOUT)],
        ids=["RunConfig", "RaplaceConfig", "RasterLayoutConfig"],
    )
    def test_every_float_field_rejects_nan_and_infinities(self, config, required):
        float_fields = [f.name for f in fields(config) if f.type in ("float", float)]
        assert float_fields
        for name in float_fields:
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ArgumentError, match=name):
                    config(**{**required, name: value})

    @pytest.mark.parametrize(
        "config, required",
        [(RunConfig, {}), (RaplaceConfig, {}), (RasterLayoutConfig, LAYOUT)],
        ids=["RunConfig", "RaplaceConfig", "RasterLayoutConfig"],
    )
    def test_every_float_field_rejects_bools(self, config, required):
        float_fields = [f.name for f in fields(config) if f.type in ("float", float)]
        for name in float_fields:
            for value in (True, np.True_):
                with pytest.raises(ArgumentError, match=f"{name} must be finite"):
                    config(**{**required, name: value})

    @pytest.mark.parametrize("key", ["threshold_m", "raplace.resolution_m", "raplace.scale_pct"])
    def test_a_given_bool_is_not_a_real_setting(self, key):
        with pytest.raises(ArgumentError, match=rf"^{re.escape(key)} must be finite and positive, got True"):
            build_run_config(overrides={key: True})

    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: polar_to_cartesian(PolarScan(np.ones((4, 8)), 1.0), 8, bad),
            lambda bad: CartesianScan(np.zeros((2, 2)), bad),
            lambda bad: fit_kmeans_pp(np.random.default_rng(0).random((6, 2)), 2, tol=bad, max_iter=3),
            lambda bad: Codebook(np.eye(2), bad, 0),
            lambda bad: GroundTruthMatrix(np.ones((1, 1), dtype=bool), bad),
            lambda bad: generate_scene(0, bad, 0),
            lambda bad: ReflectorScene(np.zeros((0, 2)), np.zeros(0), bad),
            lambda bad: render_polar(generate_scene(3, 10.0, 0), SensorPose(0.0, 0.0), max_range_m=bad),
            lambda bad: render_polar(generate_scene(3, 10.0, 0), SensorPose(0.0, 0.0), beam_sigma_bins=bad),
            lambda bad: render_polar(generate_scene(3, 10.0, 0), SensorPose(0.0, 0.0), noise_sigma=bad),
        ],
        ids=[
            "polar_to_cartesian", "cartesian_scan", "kmeans_tol", "codebook_inertia", "ground_truth_threshold",
            "scene_extent", "reflector_scene_extent", "max_range", "beam_sigma", "noise_sigma",
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_scalar_guards_reject_nan_and_infinity(self, make, bad):
        with pytest.raises(ArgumentError, match="must be finite"):
            make(bad)


class TestValidCounts:
    """Every integer setting and argument is an integer, not a bool, within
    its bounds; NaN fails every comparison, so a check written as ``n < 1``
    passes it, and a float such as 2.5 passes it too."""

    @pytest.mark.parametrize(
        "config, required, names",
        [(RunConfig, {}, None), (RaplaceConfig, {}, None), (RasterLayoutConfig, LAYOUT, None),
         (WorldConfig, {}, ["n_places"])],
        ids=["RunConfig", "RaplaceConfig", "RasterLayoutConfig", "WorldConfig"],
    )
    def test_every_int_field_rejects_nan_floats_bools_and_values_below_its_bound(self, config, required, names):
        int_fields = names or [f.name for f in fields(config) if f.type in ("int", int, "int | None")]
        assert int_fields
        for name in int_fields:
            low = INT_LOWS.get(name, 1)
            for value in (float("nan"), 2.5, True, low - 1):
                with pytest.raises(ArgumentError, match=rf"^(raplace\.)?{name} must be"):
                    config(**{**required, name: value})
            assert getattr(config(**{**required, name: np.int64(low)}), name) == low

    @pytest.mark.parametrize(
        "name, low, make",
        [
            ("k", 1, lambda bad: fit_kmeans_pp(ROWS, bad)),
            ("max_iter", 1, lambda bad: fit_kmeans_pp(ROWS, 2, max_iter=bad)),
            ("seed", 0, lambda bad: fit_kmeans_pp(ROWS, 2, seed=bad)),
            ("n_angles", 2, lambda bad: radon_sinogram(CartesianScan(np.zeros((4, 4)), 1.0), bad)),
            ("k", 1, lambda bad: VladDescriptor(np.ones(4), bad, 4)),
            ("w", 1, lambda bad: VladDescriptor(np.ones(4), 4, bad)),
            ("stride", 1, lambda bad: downsample_trajectory([SCAN], bad)),
            ("n_max", 1, lambda bad: recall_at_n(
                DistanceMatrix(np.zeros((1, 1))), GroundTruthMatrix(np.ones((1, 1), dtype=bool), 1.0), bad)),
            ("repetitions", 0, lambda bad: bench_timings("ringkey", [SCAN], bad)),
            ("jobs", 1, lambda bad: encode_trajectory([SCAN], "ringkey", RunConfig(), jobs=bad)),
            ("target_bins", 1, lambda bad: resample_range(SCAN, bad)),
            ("suppress_bins", 0, lambda bad: resample_range(SCAN, 4, bad)),
            ("width_px", 2, lambda bad: polar_to_cartesian(SCAN, bad, 1.0)),
            ("crop bins", 1, lambda bad: _ringkey_variant(SCAN, 0, 4, bad, 4)),
            ("azimuth rows", 1, lambda bad: _ringkey_variant(SCAN, 0, bad, 8, 4)),
            ("n_reflectors", 0, lambda bad: generate_scene(bad, 10.0, 0)),
            ("seed", 0, lambda bad: generate_scene(3, 10.0, bad)),
            ("n_azimuths", 1, lambda bad: render_polar(generate_scene(3, 10.0, 0), SensorPose(0, 0), n_azimuths=bad)),
            ("n_bins", 1, lambda bad: render_polar(generate_scene(3, 10.0, 0), SensorPose(0, 0), n_bins=bad)),
            ("seed", 0, lambda bad: PlaceWorld(bad, WorldConfig(n_places=1))),
            ("trials", 1, lambda bad: PlaceWorld(0, WorldConfig(n_places=1)).rotated_query_trajectory(bad, 0)),
            ("seed", 0, lambda bad: PlaceWorld(0, WorldConfig(n_places=1)).rotated_query_trajectory(1, bad)),
            ("seed", 0, lambda bad: PlaceWorld(0, WorldConfig(n_places=1)).translated_query_trajectory(1.0, 2.0, bad)),
        ],
        ids=[
            "kmeans_k", "kmeans_max_iter", "kmeans_seed", "radon_n_angles", "vlad_k", "vlad_w", "downsample_stride",
            "recall_n_max", "bench_repetitions", "encode_jobs", "resample_target_bins", "resample_suppress_bins",
            "cartesian_width_px", "ringkey_crop_bins", "ringkey_azimuth_rows", "scene_reflectors", "scene_seed",
            "render_azimuths", "render_bins", "world_seed", "rotated_trials", "rotated_seed", "translated_seed",
        ],
    )
    @pytest.mark.parametrize("kind", ["nan", "float", "bool", "below"])
    def test_scalar_guards_reject_nan_floats_bools_and_values_below_the_bound(self, name, low, make, kind):
        bad = {"nan": float("nan"), "float": 2.5, "bool": True, "below": low - 1}[kind]
        with pytest.raises(ArgumentError, match=f"^{re.escape(name)} must be"):
            make(bad)

    def test_suppress_bins_above_the_width_rejected(self):
        with pytest.raises(ArgumentError, match=r"^suppress_bins must be in \[0, 8\], got 9"):
            resample_range(SCAN, 4, 9)

    def test_numpy_integers_accepted(self):
        assert RunConfig(k=np.int64(4), suppress_bins=np.uint8(0)).k == 4
        assert resample_range(SCAN, np.int64(4), np.int32(1)).range_bin_count == 4
        assert fit_kmeans_pp(ROWS, np.int64(2), seed=np.int64(0), max_iter=np.int16(3)).k == 2
        assert len(downsample_trajectory([SCAN] * 5, np.int64(2))) == 3
