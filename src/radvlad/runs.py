"""Run-directory persistence: ``<run>/scans/NNNNNN.prsn`` plus ``<run>/poses.csv``."""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .errors import IngestError
from .scans import Trajectory, TrajectoryPoses, load_poses, read_prsn, read_prsn_header, write_poses, write_prsn

SCANS_SUBDIR = "scans"


def scan_filename(index: int) -> str:
    return f"{index:06d}.prsn"


class ScanFiles(Sequence):
    """The scans of a run, read from their ``.prsn`` files each time one is
    indexed and not kept: indexing reads one (``read_prsn``, so a malformed
    file is an ``IngestError`` naming it when first read), iterating reads
    each in turn, and a slice is another ``ScanFiles`` that has read nothing.
    A header read (``read_prsn_header``, for the timestamps and azimuth
    counts) is not a scan read: it reads only the header's bytes."""

    def __init__(self, paths):
        self.paths = tuple(paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScanFiles(self.paths[index])
        return read_prsn(self.paths[index])

    def __iter__(self):
        return (read_prsn(path) for path in self.paths)

    def headers(self) -> list:
        """Every scan's ``PrsnHeader``, read from its file's header alone."""
        return [read_prsn_header(path) for path in self.paths]


def scan_headers(scans: Sequence) -> Sequence:
    """Every scan's header fields (``azimuth_count``, ``range_bin_count``,
    ``range_resolution_m``, ``timestamp_ns``): of a run's ``ScanFiles``,
    its files' ``PrsnHeader``, read without reading a scan; of scans in
    memory, the scans themselves, which carry the same fields."""
    return scans.headers() if isinstance(scans, ScanFiles) else scans


def write_trajectory(run_dir, scans, poses: TrajectoryPoses | None = None) -> Path:
    run_dir = Path(run_dir)
    scan_dir = run_dir / SCANS_SUBDIR
    scan_dir.mkdir(parents=True, exist_ok=True)
    for i, scan in enumerate(scans):
        write_prsn(scan_dir / scan_filename(i), scan)
    if poses is not None:
        write_poses(run_dir / "poses.csv", poses)
    return run_dir


def load_trajectory(run_dir, require_poses: bool = True) -> Trajectory:
    """The run in ``run_dir``: its poses, read now, and its scans as
    ``ScanFiles`` over the sorted ``.prsn`` paths, read when used."""
    run_dir = Path(run_dir)
    scan_dir = run_dir / SCANS_SUBDIR
    if not scan_dir.is_dir():
        raise IngestError(f"{run_dir}: no '{SCANS_SUBDIR}' directory")
    scans = ScanFiles(sorted(scan_dir.glob("*.prsn")))
    if not scans:
        raise IngestError(f"{scan_dir}: no .prsn scans found")
    poses_path = run_dir / "poses.csv"
    if poses_path.exists():
        poses = load_poses(poses_path)
    elif require_poses:
        raise IngestError(f"{run_dir}: missing poses.csv")
    else:
        poses = TrajectoryPoses([], [], [])
    return Trajectory(name=run_dir.name, scans=scans, poses=poses)
