"""Polar radar scans: containers, preprocessing, projection, and file I/O.

A scan is an H x W raster of received power, rows being azimuths (row j
covers bearing 2*pi*j/H, bearing 0 along the sensor's +x axis) and columns
being range bins of physical width ``range_resolution_m``.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._files import FrameReader, ingesting, read_csv_rows, write_csv_rows, write_frame
from .errors import ArgumentError, IngestError, bounded_int, finite_array, finite_positive

PRSN_MAGIC = b"PRSN"
_PRSN_HEADER = "<IIdQ"

SAMPLE_ENCODINGS = ("u8", "f32-LE")


@dataclass(frozen=True)
class PolarScan:
    """One radar revolution of received power over azimuths x range bins.

    ``power`` is held in the precision it is given: a float32 array (as a
    ``.prsn`` file or an ``f32-LE`` raw file stores it) stays float32, and
    anything else becomes float64. Every kernel that reads it widens it
    exactly to float64 where it computes, so both give the same outputs.
    """

    power: np.ndarray
    range_resolution_m: float
    timestamp_ns: int = 0
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "power", finite_array("power", self.power, 2, non_negative=True, keep_float32=True))
        object.__setattr__(self, "range_resolution_m", finite_positive("range_resolution_m", self.range_resolution_m))
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
        pixels = finite_array("pixels", self.pixels, 2, non_negative=True)
        if pixels.shape[0] != pixels.shape[1]:
            raise ArgumentError(f"pixels must be a square matrix, got shape {pixels.shape}")
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "resolution_m", finite_positive("resolution_m", self.resolution_m))

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
    """A named sequence of scans with their pose track. ``scans`` is any
    sequence of ``PolarScan``: a list as the synthetic worlds make, or a
    ``runs.ScanFiles`` from ``load_trajectory`` that reads each scan from
    its file when it is used."""

    name: str
    scans: Sequence
    poses: TrajectoryPoses


@dataclass(frozen=True)
class RasterLayoutConfig:
    """Byte layout of a raw per-revolution scan file.

    Each of ``rows`` azimuth records is ``header_bytes_per_row`` bytes of
    metadata followed by ``payload_bins`` samples encoded as ``u8`` or
    ``f32-LE``; the records make up the whole file.
    """

    rows: int
    header_bytes_per_row: int
    payload_bins: int
    sample_encoding: str = "u8"
    range_resolution_m: float = 0.0432

    def __post_init__(self):
        bounded_int("rows", self.rows, 1)
        bounded_int("header_bytes_per_row", self.header_bytes_per_row, 0)
        bounded_int("payload_bins", self.payload_bins, 1)
        if self.sample_encoding not in SAMPLE_ENCODINGS:
            raise ArgumentError(f"sample_encoding must be one of {SAMPLE_ENCODINGS}")
        finite_positive("range_resolution_m", self.range_resolution_m)


def load_polar_scan(path, layout: RasterLayoutConfig) -> PolarScan:
    """Read one raw scan file under the given byte layout.

    u8 samples are mapped to [0, 1] by division by 255, in float64; f32-LE
    samples are passed through as float32. The per-row header bytes are
    skipped. A file whose length is not exactly the layout's is an
    ``IngestError``. The file stem is used as the scan id and, when it is all
    digits, as the timestamp.
    """
    path = Path(path)
    sample = "u1" if layout.sample_encoding == "u8" else "<f4"
    row = np.dtype([("header", "u1", (layout.header_bytes_per_row,)), ("power", sample, (layout.payload_bins,))])
    need = layout.rows * row.itemsize
    buf = path.read_bytes()
    if len(buf) != need:
        raise IngestError(f"{path}: layout of {layout.rows} rows needs exactly {need} bytes, found {len(buf)}")
    power = np.frombuffer(buf, dtype=row)["power"]
    if layout.sample_encoding == "u8":
        power = power.astype(np.float64)
        power /= 255.0
    else:
        power = np.ascontiguousarray(power)  # rows packed, without the header bytes between them
    stem = path.stem
    timestamp = int(stem) if stem.isdigit() else 0
    with ingesting(path):
        return PolarScan(power, layout.range_resolution_m, timestamp, id=stem)


def write_prsn(path, scan: PolarScan) -> None:
    """Serialise a scan to the native binary format (f32 payload)."""
    fields = (scan.azimuth_count, scan.range_bin_count, scan.range_resolution_m, scan.timestamp_ns)
    write_frame(path, PRSN_MAGIC, _PRSN_HEADER, fields, scan.power, "<f4")


def read_prsn(path) -> PolarScan:
    """Read a scan written by ``write_prsn``; its power is a read-only
    float32 view of the file's bytes."""
    frame = FrameReader(path, PRSN_MAGIC)
    rows, bins, res, timestamp = frame.header(_PRSN_HEADER)
    power = frame.payload("<f4", (rows, bins))
    with ingesting(frame.path):
        return PolarScan(power, res, timestamp, id=frame.path.stem)


class PrsnHeader(NamedTuple):
    """The header fields of a file written by ``write_prsn``, named as
    the ``PolarScan`` properties they give."""

    azimuth_count: int
    range_bin_count: int
    range_resolution_m: float
    timestamp_ns: int


def read_prsn_header(path) -> PrsnHeader:
    """The header of a file written by ``write_prsn``, read without its samples."""
    frame = FrameReader(path, PRSN_MAGIC, head=struct.calcsize(_PRSN_HEADER))
    return PrsnHeader(*frame.header(_PRSN_HEADER))


POSE_CSV_HEADER = ["timestamp_ns", "easting_m", "northing_m"]


def load_poses(path) -> TrajectoryPoses:
    """Read a pose CSV (header ``timestamp_ns,easting_m,northing_m``)."""
    rows = read_csv_rows(path, POSE_CSV_HEADER, lambda row: (np.int64(row[0]), float(row[1]), float(row[2])))
    for i in range(1, len(rows)):
        if rows[i][0] <= rows[i - 1][0]:
            raise IngestError(f"{path}: row {i + 2}: timestamp {rows[i][0]} not after {rows[i - 1][0]}")
    columns = zip(*rows) if rows else ((), (), ())
    with ingesting(path):
        return TrajectoryPoses(*columns)


def write_poses(path, poses: TrajectoryPoses) -> None:
    rows = zip(poses.timestamps_ns, poses.easting_m, poses.northing_m)
    write_csv_rows(path, POSE_CSV_HEADER, ([int(t), repr(float(e)), repr(float(n))] for t, e, n in rows))


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
    bounded_int("target_bins", target_bins, 1)
    width = scan.range_bin_count
    bounded_int("suppress_bins", suppress_bins, 0, width)
    if target_bins < width:
        power = _box_downsample(scan.power, target_bins, suppress_bins)
    else:
        power = linear_resample_columns(scan.power, target_bins, suppress_bins)
    res = scan.range_resolution_m * (width / target_bins)
    return replace(scan, power=power, range_resolution_m=res)


# Output bins per block of the banded box-average product. With the band
# cached, on a 2-vCPU Xeon VM with one OpenBLAS thread, 16 ran 400 x 3768 ->
# 512 in 1.7-2.3 ms, as fast as 8, while 12, 24 and 32 took up to 2.6x as long;
# 32 x 1024 -> 512 took 0.08-0.19 ms at every size from 8 to 32 (timeit).
_BOX_BLOCK_BINS = 16
# Geometries whose band weights are kept. One geometry's weights take about
# 128 bytes per input column (0.5 MB at 3768 columns).
_BOX_BAND_GEOMETRIES = 8


def _box_downsample(rows: np.ndarray, target: int, suppress: int) -> np.ndarray:
    # Output bin t averages the row, read as zero below column ``suppress``,
    # over [lo_t, lo_{t+1}) with lo_t = max(t * W / target, suppress): a
    # product with a banded matrix (``_box_bands``). Each block of output
    # bins multiplies the few columns it covers by its dense slice of the
    # band, so no full-scan temporary is made.
    span, blocks = _box_bands(rows.shape[1], target, suppress)
    out = np.empty((rows.shape[0], target))
    for t0, t1, c0, weights in blocks:
        np.matmul(rows[:, c0 : c0 + span], weights, out=out[:, t0:t1])
    return out


@functools.lru_cache(maxsize=_BOX_BAND_GEOMETRIES)
def _box_bands(width: int, target: int, suppress: int) -> tuple:
    """The band of ``_box_downsample`` for one geometry, built once: the
    columns each block reads, ``span``, and per block of output bins
    ``(t0, t1, c0, weights)``, where read-only ``weights[c, t]`` is the
    overlap of column c0 + c with bin t0 + t's interval, scaled by
    target / W. All weights are >= 0, and bins inside the suppressed prefix
    get all-zero weights, so they come out exactly 0."""
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
    weights.setflags(write=False)
    blocks = tuple(
        (t0, min(t0 + _BOX_BLOCK_BINS, target), c0, block[:, : min(_BOX_BLOCK_BINS, target - t0)])
        for t0, c0, block in zip(first.tolist(), col0.tolist(), weights)
    )
    return span, blocks


def linear_resample_columns(rows: np.ndarray, target: int, suppress: int = 0) -> np.ndarray:
    """Linear interpolation of every row at ``target`` evenly spaced bin centres.

    Sample i sits at input position (i + 0.5) * W / target - 0.5, clamped
    to the end columns; equal widths return a copy. The first
    ``suppress`` input columns are read as zero. The result is float64
    for float32 rows too.
    """
    width = rows.shape[1]
    if target == width:
        out = np.array(rows, dtype=np.float64)
        out[:, :suppress] = 0.0
        return out
    if width == 1:
        return np.repeat(np.zeros(rows.shape) if suppress else np.asarray(rows, dtype=np.float64), target, axis=1)
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
    if bounded_int("width_px", width_px, 2) % 2 != 0:
        raise ArgumentError(f"width_px must be even and >= 2, got {width_px}")
    resolution_m = finite_positive("resolution_m", resolution_m)
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
    return CartesianScan(pixels=pixels, resolution_m=resolution_m)
