import pytest

from radvlad import ArgumentError, RunConfig, build_run_config, parse_config_file


class TestDefaults:
    def test_pipeline_defaults(self):
        cfg = RunConfig()
        assert cfg.method == "fft_radvlad"
        assert cfg.suppress_bins == 60
        assert cfg.target_bins == 512
        assert cfg.k == 64
        assert cfg.kmeans_tol == 1e-4
        assert cfg.kmeans_seed == 0
        assert cfg.kmeans_max_iter == 300
        assert cfg.stride == 10
        assert cfg.threshold_m == 25.0
        assert cfg.n_max == 50
        assert cfg.vlad_l2_normalize is False
        assert cfg.raplace.width_px == 256
        assert cfg.raplace.resolution_m == pytest.approx(1.2717)
        assert cfg.raplace.scale_pct == 25.0
        assert cfg.raplace.angles == 256

    def test_invalid_method_rejected(self):
        with pytest.raises(ArgumentError):
            RunConfig(method="nope")

    def test_negative_kmeans_seed_rejected(self):
        with pytest.raises(ArgumentError, match="kmeans_seed"):
            RunConfig(kmeans_seed=-1)


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

    def test_bool_parsing(self):
        assert build_run_config({"vlad_l2_normalize": "true"}).vlad_l2_normalize is True
        assert build_run_config({"vlad_l2_normalize": "no"}).vlad_l2_normalize is False
        with pytest.raises(ArgumentError):
            build_run_config({"vlad_l2_normalize": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ArgumentError):
            build_run_config({"nonsense": "1"})
        with pytest.raises(ArgumentError):
            build_run_config({"raplace.nonsense": "1"})

    def test_raplace_n_angles_override(self):
        cfg = build_run_config({"raplace.n_angles": "48"})
        assert cfg.raplace.angles == 48
