from dataclasses import replace

import numpy as np
import pytest

from radvlad import ArgumentError, RunConfig, WorldConfig, descriptors
from radvlad.config import METHOD_RINGKEY
from radvlad.descriptors import RaplaceConfig
from radvlad.sweep import sweep_raplace, sweep_ringkey, write_sweep_csv
from radvlad.synthetic import PlaceWorld


@pytest.fixture(scope="module")
def pair():
    cfg = WorldConfig(n_places=6, n_azimuths=80, n_bins=128)
    world = PlaceWorld(seed=4, cfg=cfg)
    ref = world.reference_trajectory()
    query = world.translated_query_trajectory(1.0, 3.0, seed=5)
    run_cfg = RunConfig(
        method=METHOD_RINGKEY,
        suppress_bins=0,
        target_bins=128,
        stride=1,
        n_max=1,
        raplace=RaplaceConfig(width_px=64, resolution_m=2 * 60.0 / 64, scale_pct=25.0),
    )
    return query, ref, run_cfg


class TestRingKeySweep:
    def test_full_product_row_count(self, pair):
        query, ref, cfg = pair
        rows = sweep_ringkey(query, ref, cfg, [10, 20, 40, 80], [64, 128], [32, 64])
        assert len(rows) == 16
        assert rows[0][:3] == (10, 64, 32)
        assert rows[-1][:3] == (80, 128, 64)
        for *_, recall in rows:
            assert 0.0 <= recall <= 100.0

    def test_empty_grid(self, pair):
        query, ref, cfg = pair
        assert sweep_ringkey(query, ref, cfg, [], [64], [32]) == []

    def test_indivisible_azimuths_rejected(self, pair):
        query, ref, cfg = pair
        with pytest.raises(ArgumentError):
            sweep_ringkey(query, ref, cfg, [7], [64], [32])


class TestRaplaceSweep:
    def test_scales_cross_zipped_pairs(self, pair):
        query, ref, cfg = pair
        rows = sweep_raplace(query, ref, cfg, [10.0, 25.0], [1.875, 3.75], [64, 32])
        assert len(rows) == 4
        assert rows[0][:3] == (10.0, 1.875, 64)
        assert rows[1][:3] == (10.0, 3.75, 32)

    def test_published_grid_shape_is_16_rows(self, pair):
        # 4 scales x 4 (resolution, width) pairs; tiny widths keep it fast
        query, ref, cfg = pair
        rows = sweep_raplace(
            query, ref, cfg,
            [10.0, 20.0, 30.0, 40.0],
            [1.875, 3.75, 7.5, 3.75],
            [64, 32, 16, 32],
        )
        assert len(rows) == 16

    def test_unpaired_lists_rejected(self, pair):
        query, ref, cfg = pair
        with pytest.raises(ArgumentError):
            sweep_raplace(query, ref, cfg, [10.0], [1.0, 2.0], [64])

    def test_empty_grid(self, pair):
        query, ref, cfg = pair
        assert sweep_raplace(query, ref, cfg, [], [1.875], [64]) == []
        assert sweep_raplace(query, ref, cfg, [10.0], [], []) == []

    def test_other_raplace_settings_carry_through(self, pair, monkeypatch):
        query, ref, cfg = pair
        cfg = replace(cfg, raplace=replace(cfg.raplace, n_angles=8))
        seen = []
        original = descriptors.radon_sinogram

        def spy(scan, n_angles):
            seen.append((scan.width_px, n_angles))
            return original(scan, n_angles)

        monkeypatch.setattr(descriptors, "radon_sinogram", spy)
        rows = sweep_raplace(query, ref, cfg, [10.0], [1.875, 3.75], [64, 32])
        assert len(rows) == 2
        assert len(seen) == 2 * (len(query.scans) + len(ref.scans))
        assert {width for width, _ in seen} == {64, 32}
        assert {n_angles for _, n_angles in seen} == {8}


def test_write_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [(400, 3768, 128, 52.93), (10.0, 1.2717, 256, 58.92)])
    lines = path.read_text().splitlines()
    assert lines[0] == "param1,param2,param3,recall_at_1"
    assert lines[1] == "400,3768,128,52.930000"
    assert lines[2] == "10.0,1.2717,256,58.920000"
