import numpy as np
import pytest
from scipy.stats import spearmanr

from radvlad import (
    ArgumentError,
    PlaceWorld,
    ReflectorScene,
    SensorPose,
    WorldConfig,
    descriptor_distance,
    encode_ring_key,
    generate_scene,
    render_polar,
)
from radvlad.synthetic import load_scene_csv, save_scene_csv


class TestGenerateScene:
    def test_empty_scene(self):
        scene = generate_scene(0, 10.0, seed=0)
        assert len(scene) == 0

    def test_deterministic(self):
        a = generate_scene(50, 80.0, seed=7)
        b = generate_scene(50, 80.0, seed=7)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.intensities, b.intensities)

    def test_bounds_and_intensities(self):
        scene = generate_scene(50, 80.0, seed=7)
        assert len(scene) == 50
        assert np.abs(scene.positions).max() <= 80.0
        assert (scene.intensities > 0.0).all() and (scene.intensities <= 1.0).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ArgumentError):
            generate_scene(-1, 10.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ArgumentError, match="seed"):
            generate_scene(5, 10.0, seed=-1)


class TestRenderPolar:
    def test_empty_scene_noiseless_is_zero(self):
        scene = generate_scene(0, 10.0, seed=0)
        scan = render_polar(scene, SensorPose(0, 0, 0), n_azimuths=8, n_bins=16, max_range_m=20.0)
        assert not scan.power.any()

    def test_dead_ahead_reflector_lands_mid_range(self):
        scene = ReflectorScene(np.array([[30.0, 0.0]]), np.array([1.0]), extent_m=40.0)
        scan = render_polar(scene, SensorPose(0, 0, 0), n_azimuths=32, n_bins=64, max_range_m=60.0)
        az, rbin = np.unravel_index(np.argmax(scan.power), scan.power.shape)
        assert az == 0
        assert abs(rbin - 32) <= 1

    def test_heading_equivariance(self):
        scene = generate_scene(30, 50.0, seed=3)
        n_az = 64
        for step in (1, 9, 40):
            s0 = render_polar(scene, SensorPose(5.0, -3.0, 0.7), n_azimuths=n_az, n_bins=128, max_range_m=80.0)
            s1 = render_polar(
                scene,
                SensorPose(5.0, -3.0, 0.7 + 2 * np.pi * step / n_az),
                n_azimuths=n_az,
                n_bins=128,
                max_range_m=80.0,
            )
            assert np.abs(s1.power - np.roll(s0.power, -step, axis=0)).max() <= 1e-6

    def test_noise_is_seeded_and_clipped(self):
        scene = generate_scene(5, 20.0, seed=1)
        kw = dict(n_azimuths=16, n_bins=32, max_range_m=40.0, noise_sigma=0.3)
        a = render_polar(scene, SensorPose(0, 0, 0), seed=9, **kw)
        b = render_polar(scene, SensorPose(0, 0, 0), seed=9, **kw)
        c = render_polar(scene, SensorPose(0, 0, 0), seed=10, **kw)
        assert np.array_equal(a.power, b.power)
        assert not np.array_equal(a.power, c.power)
        assert a.power.min() >= 0.0 and a.power.max() <= 1.0

    def test_resolution_is_max_range_over_bins(self):
        scene = generate_scene(1, 10.0, seed=2)
        scan = render_polar(scene, SensorPose(0, 0, 0), n_azimuths=4, n_bins=50, max_range_m=100.0)
        assert scan.range_resolution_m == pytest.approx(2.0)


class TestMonotoneDegradation:
    def test_descriptor_distance_tracks_translation(self):
        magnitudes = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0]
        averaged = np.zeros(len(magnitudes))
        n_seeds = 24
        for seed in range(n_seeds):
            scene = generate_scene(50, 60.0, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            direction = rng.uniform(0.0, 2.0 * np.pi)
            base = encode_ring_key(
                render_polar(scene, SensorPose(0, 0, 0), n_azimuths=64, n_bins=256, max_range_m=80.0)
            )
            for i, mag in enumerate(magnitudes):
                pose = SensorPose(mag * np.cos(direction), mag * np.sin(direction), 0.0)
                moved = encode_ring_key(
                    render_polar(scene, pose, n_azimuths=64, n_bins=256, max_range_m=80.0)
                )
                averaged[i] += descriptor_distance(base, moved) / n_seeds
        rho, _ = spearmanr(magnitudes, averaged)
        assert rho >= 0.8


class TestSceneCsv:
    def test_roundtrip(self, tmp_path):
        scene = generate_scene(12, 30.0, seed=4)
        path = tmp_path / "scene.csv"
        save_scene_csv(path, scene)
        back = load_scene_csv(path, extent_m=30.0)
        assert np.array_equal(back.positions, scene.positions)
        assert np.array_equal(back.intensities, scene.intensities)


class TestPlaceWorld:
    @pytest.mark.parametrize("n_places", [0, 2])
    def test_negative_seed_rejected(self, n_places):
        with pytest.raises(ArgumentError, match="seed"):
            PlaceWorld(seed=-1, cfg=WorldConfig(n_places=n_places))

    def test_reference_trajectory_layout(self):
        world = PlaceWorld(seed=0, cfg=WorldConfig(n_places=5))
        ref = world.reference_trajectory()
        assert len(ref.scans) == 5
        assert ref.poses.easting_m.tolist() == [0.0, 40.0, 80.0, 120.0, 160.0]

    def test_scenes_differ_between_places(self):
        world = PlaceWorld(seed=0, cfg=WorldConfig(n_places=3))
        ref = world.reference_trajectory()
        assert not np.array_equal(ref.scans[0].power, ref.scans[1].power)

    def test_translated_queries_stay_in_gate(self):
        world = PlaceWorld(seed=1, cfg=WorldConfig(n_places=4))
        query = world.translated_query_trajectory(1.0, 5.0, seed=2)
        ref = world.reference_trajectory()
        offsets = np.hypot(
            query.poses.easting_m - ref.poses.easting_m,
            query.poses.northing_m - ref.poses.northing_m,
        )
        assert (offsets >= 1.0).all() and (offsets <= 5.0).all()

    def test_reference_and_query_scans_draw_independent_noise(self):
        # An empty scene renders clipped noise alone.
        world = PlaceWorld(seed=3, cfg=WorldConfig(n_places=4, n_reflectors=0, noise_sigma=0.5))
        ref = world.reference_trajectory()
        rotated = world.rotated_query_trajectory(4, seed=5)
        translated = world.translated_query_trajectory(1.0, 2.0, seed=5)
        for i in range(4):
            draws = [ref.scans[i].power.ravel(), rotated.scans[i].power.ravel(), translated.scans[i].power.ravel()]
            corr = np.corrcoef(draws)
            assert np.abs(corr[np.triu_indices(3, 1)]).max() < 0.1
        again = world.rotated_query_trajectory(4, seed=6)
        assert not np.array_equal(again.scans[0].power, rotated.scans[0].power)
        repeat = PlaceWorld(seed=3, cfg=world.cfg).reference_trajectory()
        assert all(np.array_equal(a.power, b.power) for a, b in zip(repeat.scans, ref.scans))

    def test_noise_free_scans_do_not_depend_on_the_noise_seed(self):
        cfg = WorldConfig(n_places=3)
        world = PlaceWorld(seed=1, cfg=cfg)
        for i, scan in enumerate(world.reference_trajectory().scans):
            direct = render_polar(
                world.scenes[i],
                SensorPose(0.0, 0.0),
                n_azimuths=cfg.n_azimuths,
                n_bins=cfg.n_bins,
                max_range_m=cfg.max_range_m,
                beam_sigma_bins=cfg.beam_sigma_bins,
                seed=12345,
            )
            assert scan.power.tobytes() == direct.power.tobytes()
