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
from .descriptors import encode_ring_key
from .errors import ArgumentError
from .evaluate import _map_jobs, distance_matrix_from_descriptors, pair_setup, recall_at_n, run_pair
from .scans import PolarScan, Trajectory, resample_range

SWEEP_CSV_HEADER = ["param1", "param2", "param3", "recall_at_1"]


def _ringkey_variant(scan: PolarScan, suppress_bins: int, azis: int, crop_bins: int, length: int):
    if crop_bins < 1 or crop_bins > scan.range_bin_count:
        raise ArgumentError(f"crop bins {crop_bins} outside [1, {scan.range_bin_count}]")
    if azis < 1 or scan.azimuth_count % azis != 0:
        raise ArgumentError(f"azimuth count {scan.azimuth_count} not divisible by {azis}")
    power = scan.power[:: scan.azimuth_count // azis, :crop_bins]
    reduced = PolarScan(power, scan.range_resolution_m, scan.timestamp_ns, scan.id)
    return encode_ring_key(resample_range(reduced, length, suppress_bins=min(suppress_bins, crop_bins)))


def sweep_ringkey(
    query: Trajectory, ref: Trajectory, cfg: RunConfig, azis_list, bins_list, lengths, jobs: int = 1
) -> list:
    """Rows of (azis, bins, length, recall_at_1), full product order."""
    query_scans, ref_scans, gt = pair_setup(query, ref, cfg)
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
    grid is scales x pairs. Each point is a ``run_pair`` with those three
    ``cfg.raplace`` settings replaced, so its other settings carry through.
    """
    if len(resolutions) != len(widths):
        raise ArgumentError("resolutions and widths must pair up one-to-one")
    rows = []
    for scale in scales:
        for resolution, width in zip(resolutions, widths):
            raplace = dc_replace(cfg.raplace, width_px=width, resolution_m=resolution, scale_pct=scale)
            run = run_pair(query, ref, METHOD_RAPLACE, dc_replace(cfg, raplace=raplace), jobs=jobs)
            rows.append((scale, resolution, width, float(run.recall.recall_pct[0])))
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
