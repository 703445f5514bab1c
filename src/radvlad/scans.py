"""Polar radar scans: containers, preprocessing, projection, and file I/O.

A scan is an H x W raster of received power, rows being azimuths (row j
covers bearing 2*pi*j/H, bearing 0 along the sensor's +x axis) and columns
being range bins of physical width ``range_resolution_m``.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ArgumentError, IngestError

PRSN_MAGIC = b"PRSN"
_PRSN_HEADER = struct.Struct("<4sIIdQ")

SAMPLE_ENCODINGS = ("u8", "f32-LE")


@dataclass(frozen=True)
class PolarScan:
    """One radar revolution of received power over azimuths x range bins."""

    power: np.ndarray
    range_resolution_m: float
    timestamp_ns: int = 0
    id: str = ""

    def __post_init__(self):
        power = np.asarray(self.power, dtype=np.float64)
        if power.ndim != 2 or power.shape[0] < 1 or power.shape[1] < 1:
            raise ArgumentError(f"power must be a 2-D matrix, got shape {power.shape}")
        if not np.isfinite(power).all():
            raise ArgumentError("power contains non-finite samples")
        if power.min() < 0.0:
            raise ArgumentError("power must be non-negative")
        res = float(self.range_resolution_m)
        if not np.isfinite(res) or res <= 0.0:
            raise ArgumentError("range_resolution_m must be positive")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "range_resolution_m", res)
        object.__setattr__(self, "timestamp_ns", int(self.timestamp_ns))

    @property
    def azimuth_count(self) -> int:
        return self.power.shape[0]

    @property
    def range_bin_count(self) -> int:
        return self.power.shape[1]

    @property
    def max_range_m(self) -> float:
        return self.range_bin_count * self.range_resolution_m


@dataclass(frozen=True)
class CartesianScan:
    """Square top-down projection of a polar scan, sensor at the centre."""

    pixels: np.ndarray
    resolution_m: float

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2 or pixels.shape[0] != pixels.shape[1]:
            raise ArgumentError(f"pixels must be square, got shape {pixels.shape}")
        if not np.isfinite(pixels).all() or pixels.min() < 0.0:
            raise ArgumentError("pixels must be finite and non-negative")
        if float(self.resolution_m) <= 0.0:
            raise ArgumentError("resolution_m must be positive")
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "resolution_m", float(self.resolution_m))

    @property
    def width_px(self) -> int:
        return self.pixels.shape[0]

    @property
    def max_range_m(self) -> float:
        return (self.width_px / 2) * self.resolution_m


@dataclass(frozen=True)
class TrajectoryPoses:
    """Ordered planar poses, strictly increasing in timestamp."""

    timestamps_ns: np.ndarray
    easting_m: np.ndarray
    northing_m: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps_ns, dtype=np.int64).ravel()
        east = np.asarray(self.easting_m, dtype=np.float64).ravel()
        north = np.asarray(self.northing_m, dtype=np.float64).ravel()
        if not (len(ts) == len(east) == len(north)):
            raise ArgumentError("pose arrays must have equal lengths")
        if len(ts) > 1 and not (np.diff(ts) > 0).all():
            raise ArgumentError("pose timestamps must be strictly increasing")
        if len(east) and not (np.isfinite(east).all() and np.isfinite(north).all()):
            raise ArgumentError("pose coordinates must be finite")
        object.__setattr__(self, "timestamps_ns", ts)
        object.__setattr__(self, "easting_m", east)
        object.__setattr__(self, "northing_m", north)

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    def positions(self) -> np.ndarray:
        """(n, 2) array of easting/northing in metres."""
        return np.stack([self.easting_m, self.northing_m], axis=1)


@dataclass
class Trajectory:
    """A named sequence of scans with their pose track."""

    name: str
    scans: list
    poses: TrajectoryPoses


@dataclass(frozen=True)
class RasterLayoutConfig:
    """Byte layout of a raw per-revolution scan file.

    Each of ``rows`` azimuth records is ``header_bytes_per_row`` bytes of
    metadata followed by ``payload_bins`` samples encoded as ``u8`` or
    ``f32-LE``.
    """

    rows: int
    header_bytes_per_row: int
    payload_bins: int
    sample_encoding: str = "u8"
    range_resolution_m: float = 0.0432

    def __post_init__(self):
        if self.rows < 1 or self.payload_bins < 1 or self.header_bytes_per_row < 0:
            raise ArgumentError("invalid raster layout dimensions")
        if self.sample_encoding not in SAMPLE_ENCODINGS:
            raise ArgumentError(f"sample_encoding must be one of {SAMPLE_ENCODINGS}")
        if self.range_resolution_m <= 0.0:
            raise ArgumentError("range_resolution_m must be positive")


def load_polar_scan(path, layout: RasterLayoutConfig) -> PolarScan:
    """Read one raw scan file under the given byte layout.

    u8 samples are mapped to [0, 1] by division by 255; f32-LE samples are
    passed through. The per-row header bytes are skipped. The file stem is
    used as the scan id and, when it is all digits, as the timestamp.
    """
    path = Path(path)
    sample_bytes = 1 if layout.sample_encoding == "u8" else 4
    row_bytes = layout.header_bytes_per_row + layout.payload_bins * sample_bytes
    need = layout.rows * row_bytes
    buf = path.read_bytes()
    if len(buf) < need:
        raise IngestError(f"{path}: expected at least {need} bytes, found {len(buf)}")
    raw = np.frombuffer(buf[:need], dtype=np.uint8).reshape(layout.rows, row_bytes)
    payload = raw[:, layout.header_bytes_per_row:]
    if layout.sample_encoding == "u8":
        power = payload.astype(np.float64) / 255.0
    else:
        power = np.frombuffer(payload.tobytes(), dtype="<f4").astype(np.float64)
        power = power.reshape(layout.rows, layout.payload_bins)
    stem = path.stem
    timestamp = int(stem) if stem.isdigit() else 0
    try:
        return PolarScan(power, layout.range_resolution_m, timestamp, id=stem)
    except ArgumentError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def write_prsn(path, scan: PolarScan) -> None:
    """Serialise a scan to the native binary format (f32 payload)."""
    header = _PRSN_HEADER.pack(
        PRSN_MAGIC,
        scan.azimuth_count,
        scan.range_bin_count,
        scan.range_resolution_m,
        scan.timestamp_ns,
    )
    Path(path).write_bytes(header + scan.power.astype("<f4").tobytes())


def read_prsn(path) -> PolarScan:
    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < _PRSN_HEADER.size:
        raise IngestError(f"{path}: file shorter than header")
    magic, rows, bins, res, timestamp = _PRSN_HEADER.unpack_from(buf)
    if magic != PRSN_MAGIC:
        raise IngestError(f"{path}: bad magic {magic!r}")
    need = _PRSN_HEADER.size + rows * bins * 4
    if len(buf) != need:
        raise IngestError(f"{path}: expected {need} bytes, found {len(buf)}")
    power = np.frombuffer(buf, dtype="<f4", offset=_PRSN_HEADER.size)
    power = power.astype(np.float64).reshape(rows, bins)
    try:
        return PolarScan(power, res, timestamp, id=path.stem)
    except ArgumentError as exc:
        raise IngestError(f"{path}: {exc}") from exc


POSE_CSV_HEADER = ["timestamp_ns", "easting_m", "northing_m"]


def load_poses(path) -> TrajectoryPoses:
    """Read a pose CSV (header ``timestamp_ns,easting_m,northing_m``)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected a header row") from None
        if [h.strip() for h in header] != POSE_CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}")
        ts, east, north = [], [], []
        for i, row in enumerate(reader, start=2):
            try:
                ts.append(int(row[0]))
                east.append(float(row[1]))
                north.append(float(row[2]))
            except (ValueError, IndexError) as exc:
                raise IngestError(f"{path}: row {i}: {exc}") from exc
            if len(ts) > 1 and ts[-1] <= ts[-2]:
                raise IngestError(f"{path}: row {i}: timestamp {ts[-1]} not after {ts[-2]}")
    try:
        return TrajectoryPoses(np.array(ts, dtype=np.int64), np.array(east), np.array(north))
    except ArgumentError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def write_poses(path, poses: TrajectoryPoses) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POSE_CSV_HEADER)
        for t, e, n in zip(poses.timestamps_ns, poses.easting_m, poses.northing_m):
            writer.writerow([int(t), repr(float(e)), repr(float(n))])


def suppress_near_range(scan: PolarScan, n_bins: int) -> PolarScan:
    """Zero the first ``n_bins`` range columns (self-return suppression):
    ``resample_range`` at the scan's own width."""
    return resample_range(scan, scan.range_bin_count, suppress_bins=n_bins)


def resample_range(scan: PolarScan, target_bins: int, suppress_bins: int = 0) -> PolarScan:
    """Rescale the range axis to ``target_bins`` columns.

    Downsampling uses an area-weighted box average so each output bin is
    the mean of the input interval it covers; upsampling uses linear
    interpolation at output bin centres. The azimuth axis is untouched and
    ``range_resolution_m`` scales by W/target_bins.

    The first ``suppress_bins`` input columns are read as zero, so near-range
    suppression costs no copy of the scan; ``scan`` itself is not modified.
    """
    if target_bins < 1:
        raise ArgumentError(f"target_bins must be >= 1, got {target_bins}")
    width = scan.range_bin_count
    if suppress_bins < 0 or suppress_bins > width:
        raise ArgumentError(f"suppress_bins must be in [0, {width}], got {suppress_bins}")
    if target_bins < width:
        power = _box_downsample(scan.power, target_bins, suppress_bins)
    else:
        power = linear_resample_columns(scan.power, target_bins, suppress_bins)
    res = scan.range_resolution_m * (width / target_bins)
    return replace(scan, power=power, range_resolution_m=res)


# Output bins per block of the banded box-average product. On a 2.1 GHz Xeon
# VM with one OpenBLAS thread, 16 ran 400 x 3768 -> 512 fastest (1.8 ms; block
# sizes from 8 to 32 took up to 2.8x as long).
_BOX_BLOCK_BINS = 16


def _box_downsample(rows: np.ndarray, target: int, suppress: int) -> np.ndarray:
    # Output bin t averages the row, read as zero below column ``suppress``,
    # over [lo_t, lo_{t+1}) with lo_t = max(t * W / target, suppress): a
    # product with a banded matrix whose (c, t) entry is the overlap of
    # column c with that interval. Each block of output bins multiplies the
    # few columns it covers by its dense slice of the band, so no
    # full-scan temporary is made, all weights are >= 0, and bins inside
    # the suppressed prefix get all-zero weights and come out exactly 0.
    height, width = rows.shape
    bounds = np.maximum(np.arange(target + 1) * (width / target), suppress)
    bounds[-1] = width
    first = np.arange(0, target, _BOX_BLOCK_BINS)
    bins = np.minimum(first[:, None, None] + np.arange(_BOX_BLOCK_BINS), target - 1)
    col0 = np.floor(bounds[first]).astype(np.int64)
    span = int((np.ceil(bounds[bins[:, 0, -1] + 1]).astype(np.int64) - col0).max())
    # A block ending at the last column is shifted left to stay inside the
    # row; the columns it gains overlap none of its bins.
    col0 = np.minimum(col0, width - span)
    cols = col0[:, None, None] + np.arange(span)[:, None]
    weights = np.minimum(bounds[bins + 1], cols + 1) - np.maximum(bounds[bins], cols)
    np.maximum(weights, 0.0, out=weights)
    weights *= target / width
    out = np.empty((height, target))
    for t0, c0, block in zip(first.tolist(), col0.tolist(), weights):
        t1 = min(t0 + _BOX_BLOCK_BINS, target)
        np.matmul(rows[:, c0:c0 + span], block[:, : t1 - t0], out=out[:, t0:t1])
    return out


def linear_resample_columns(rows: np.ndarray, target: int, suppress: int = 0) -> np.ndarray:
    """Linear interpolation of every row at ``target`` evenly spaced bin centres.

    Sample i sits at input position (i + 0.5) * W / target - 0.5, clamped
    to the end columns; equal widths return a copy. The first
    ``suppress`` input columns are read as zero.
    """
    width = rows.shape[1]
    if target == width:
        out = rows.copy()
        out[:, :suppress] = 0.0
        return out
    if width == 1:
        return np.repeat(np.zeros_like(rows) if suppress else rows, target, axis=1)
    pos = np.clip((np.arange(target) + 0.5) * (width / target) - 0.5, 0.0, width - 1.0)
    i0 = np.minimum(np.floor(pos).astype(np.int64), width - 2)
    frac = pos - i0
    left = np.take(rows, i0, axis=1) * ((1.0 - frac) * (i0 >= suppress))
    right = np.take(rows, i0 + 1, axis=1) * (frac * (i0 + 1 >= suppress))
    return left + right


def polar_to_cartesian(scan: PolarScan, width_px: int, resolution_m: float) -> CartesianScan:
    """Project a polar scan onto a square top-down grid.

    Each output pixel samples the polar raster at the (range, bearing) of
    its centre by bilinear interpolation in (range-bin, azimuth-index)
    space, wrapping the azimuth axis; pixels beyond the last range bin
    are zero. The sensor sits at the grid centre and bearing 0 points
    along +x (increasing column index).
    """
    if width_px < 2 or width_px % 2 != 0:
        raise ArgumentError(f"width_px must be even and >= 2, got {width_px}")
    if resolution_m <= 0.0:
        raise ArgumentError("resolution_m must be positive")
    n_az, n_bins = scan.power.shape
    centre = (width_px - 1) / 2.0
    iy, ix = np.mgrid[0:width_px, 0:width_px]
    x = (ix - centre) * resolution_m
    y = (iy - centre) * resolution_m
    radius = np.hypot(x, y)
    bearing = np.mod(np.arctan2(y, x), 2.0 * np.pi)

    pos_r = radius / scan.range_resolution_m
    pos_a = bearing * (n_az / (2.0 * np.pi))
    r0 = np.floor(pos_r).astype(np.int64)
    fr = pos_r - r0
    a_floor = np.floor(pos_a)
    fa = pos_a - a_floor
    a0 = a_floor.astype(np.int64) % n_az
    a1 = (a0 + 1) % n_az

    in0 = r0 <= n_bins - 1
    in1 = r0 + 1 <= n_bins - 1
    r0c = np.minimum(r0, n_bins - 1)
    r1c = np.minimum(r0 + 1, n_bins - 1)
    p = scan.power
    pixels = (
        (1.0 - fa) * (1.0 - fr) * np.where(in0, p[a0, r0c], 0.0)
        + (1.0 - fa) * fr * np.where(in1, p[a0, r1c], 0.0)
        + fa * (1.0 - fr) * np.where(in0, p[a1, r0c], 0.0)
        + fa * fr * np.where(in1, p[a1, r1c], 0.0)
    )
    return CartesianScan(pixels=pixels, resolution_m=float(resolution_m))
