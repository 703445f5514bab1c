"""Grid sweeps over baseline settings, reporting Recall@1 per grid point.

The ring-key sweep varies (azimuth rows, cropped range bins, final vector
length) as a full Cartesian product. The sinogram-spectrum sweep varies
scale percent against paired (resolution, width) settings; the pairing
keeps the covered physical range constant, so the two lists are zipped
rather than crossed.
"""

from __future__ import annotations

import csv
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from .config import METHOD_RAPLACE, METHOD_RINGKEY, RunConfig
from .descriptors import RaplaceConfig, encode_ring_key
from .errors import ArgumentError
from .evaluate import (
    _map_jobs,
    associate_poses,
    distance_matrix_from_descriptors,
    downsample_trajectory,
    encode_trajectory,
    ground_truth_matrix,
    recall_at_n,
)
from .scans import PolarScan, Trajectory, resample_range, suppress_near_range

SWEEP_CSV_HEADER = ["param1", "param2", "param3", "recall_at_1"]


def _ringkey_variant(scan: PolarScan, suppress_bins: int, azis: int, crop_bins: int, length: int):
    if crop_bins < 1 or crop_bins > scan.range_bin_count:
        raise ArgumentError(f"crop bins {crop_bins} outside [1, {scan.range_bin_count}]")
    if azis < 1 or scan.azimuth_count % azis != 0:
        raise ArgumentError(f"azimuth count {scan.azimuth_count} not divisible by {azis}")
    s = suppress_near_range(scan, min(suppress_bins, crop_bins))
    power = s.power[:: scan.azimuth_count // azis, :crop_bins]
    reduced = PolarScan(power, s.range_resolution_m, s.timestamp_ns, s.id)
    return encode_ring_key(resample_range(reduced, length))


def _pair_setup(query: Trajectory, ref: Trajectory, cfg: RunConfig):
    query_scans = downsample_trajectory(query.scans, cfg.stride)
    ref_scans = downsample_trajectory(ref.scans, cfg.stride)
    gt = ground_truth_matrix(
        associate_poses(query_scans, query.poses),
        associate_poses(ref_scans, ref.poses),
        cfg.threshold_m,
    )
    return query_scans, ref_scans, gt


def sweep_ringkey(
    query: Trajectory, ref: Trajectory, cfg: RunConfig, azis_list, bins_list, lengths, jobs: int = 1
) -> list:
    """Rows of (azis, bins, length, recall_at_1), full product order."""
    query_scans, ref_scans, gt = _pair_setup(query, ref, cfg)
    rows = []
    for azis in azis_list:
        for bins in bins_list:
            for length in lengths:
                encode = lambda s: _ringkey_variant(s, cfg.suppress_bins, azis, bins, length)
                q = list(_map_jobs(encode, query_scans, jobs))
                r = list(_map_jobs(encode, ref_scans, jobs))
                dist = distance_matrix_from_descriptors(METHOD_RINGKEY, q, r)
                curve = recall_at_n(dist, gt, 1)
                rows.append((azis, bins, length, float(curve.recall_pct[0])))
    return rows


def sweep_raplace(
    query: Trajectory, ref: Trajectory, cfg: RunConfig, scales, resolutions, widths, jobs: int = 1
) -> list:
    """Rows of (scale_pct, resolution_m, width_px, recall_at_1).

    ``resolutions`` and ``widths`` are zipped pairs (equal lengths); the
    grid is scales x pairs.
    """
    if len(resolutions) != len(widths):
        raise ArgumentError("resolutions and widths must pair up one-to-one")
    query_scans, ref_scans, gt = _pair_setup(query, ref, cfg)
    rows = []
    for scale in scales:
        for resolution, width in zip(resolutions, widths):
            variant = dc_replace(
                cfg,
                method=METHOD_RAPLACE,
                raplace=RaplaceConfig(width_px=width, resolution_m=resolution, scale_pct=scale),
            )
            q = encode_trajectory(query_scans, METHOD_RAPLACE, variant, jobs=jobs)
            r = encode_trajectory(ref_scans, METHOD_RAPLACE, variant, jobs=jobs)
            dist = distance_matrix_from_descriptors(METHOD_RAPLACE, q, r)
            curve = recall_at_n(dist, gt, 1)
            rows.append((scale, resolution, width, float(curve.recall_pct[0])))
    return rows


def write_sweep_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for p1, p2, p3, recall in rows:
            writer.writerow([_fmt(p1), _fmt(p2), _fmt(p3), f"{recall:.6f}"])


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    return repr(float(value))
