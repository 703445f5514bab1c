"""Scan-to-descriptor encoders and their similarity functions.

Four place encodings are provided:

* ring key    — azimuth-mean of the polar scan, one value per range bin.
* raplace     — Cartesian projection, Radon sinogram, radial downscale,
                per-angle DFT magnitude; compared by the peak of circular
                cross-correlation over angle shifts.
* vlad        — concatenated sums of residuals of per-azimuth vectors to
                their nearest codebook centre; works on raw power rows or
                on radial spectra, and is compared by squared Euclidean
                distance.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codebook import Codebook, cluster_sums, nearest_centre_labels
from .errors import ArgumentError, IngestError
from .scans import CartesianScan, PolarScan, linear_resample_columns, polar_to_cartesian

DESC_MAGIC = b"DESC"
KIND_RINGKEY = 0
KIND_VLAD = 1
KIND_RAPLACE = 2


@dataclass(frozen=True)
class RingKeyDescriptor:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.isfinite(values).all() or (values.size and values.min() < 0.0):
            raise ArgumentError("ring key values must be finite and non-negative")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class VladDescriptor:
    values: np.ndarray
    k: int
    w: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size != self.k * self.w:
            raise ArgumentError(f"vlad length {values.size} != k*w = {self.k * self.w}")
        if not np.isfinite(values).all():
            raise ArgumentError("vlad values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RaplaceDescriptor:
    spectrum: np.ndarray

    def __post_init__(self):
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        if spectrum.ndim != 2:
            raise ArgumentError(f"spectrum must be 2-D, got shape {spectrum.shape}")
        if not np.isfinite(spectrum).all() or spectrum.min() < 0.0:
            raise ArgumentError("spectrum must be finite and non-negative")
        object.__setattr__(self, "spectrum", spectrum)


@dataclass(frozen=True)
class RaplaceConfig:
    """Settings of the sinogram-spectrum encoder."""

    width_px: int = 256
    resolution_m: float = 1.2717
    scale_pct: float = 25.0
    n_angles: int | None = None

    def __post_init__(self):
        if self.width_px < 2 or self.width_px % 2 != 0:
            raise ArgumentError("width_px must be even and >= 2")
        if self.resolution_m <= 0.0:
            raise ArgumentError("resolution_m must be positive")
        if not 0.0 < self.scale_pct <= 100.0:
            raise ArgumentError("scale_pct must be in (0, 100]")
        if self.n_angles is not None and self.n_angles < 1:
            raise ArgumentError("n_angles must be >= 1")

    @property
    def angles(self) -> int:
        return self.n_angles if self.n_angles is not None else self.width_px


def encode_ring_key(scan: PolarScan) -> RingKeyDescriptor:
    """Average the scan over azimuths, one mean per range bin."""
    return RingKeyDescriptor(scan.power.mean(axis=0))


def encode_vlad(rows, codebook: Codebook, l2_normalize: bool = False) -> VladDescriptor:
    """Aggregate per-azimuth vectors into a k*W residual descriptor.

    Section i is the sum of (row - centre_i) over rows whose nearest
    centre is i, computed as the sum of those rows minus their count
    times centre_i, with every cluster's row sum taken by one one-hot
    matrix product (``codebook.cluster_sums``), so rows are added in the
    matrix product's order, not in ascending row order. Sections are
    concatenated in centre order and clusters with no rows contribute a
    zero section. Rows may be raw power vectors or radial spectra, as
    long as their length matches the codebook. ``l2_normalize``
    optionally rescales the concatenated vector to unit norm (off by
    default).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ArgumentError(f"rows must be 2-D, got shape {rows.shape}")
    if rows.shape[1] != codebook.width:
        raise ArgumentError(f"row length {rows.shape[1]} != codebook width {codebook.width}")
    if not np.isfinite(rows).all():
        raise ArgumentError("rows must be finite")
    sums, counts = cluster_sums(rows, nearest_centre_labels(rows, codebook), codebook.k)
    values = (sums - counts[:, None] * codebook.centres).reshape(-1)
    if l2_normalize:
        norm = np.linalg.norm(values)
        if norm > 0.0:
            values = values / norm
    return VladDescriptor(values=values, k=codebook.k, w=codebook.width)


def _vector_of(descriptor) -> np.ndarray:
    if isinstance(descriptor, (RingKeyDescriptor, VladDescriptor)):
        return descriptor.values
    return np.asarray(descriptor, dtype=np.float64).ravel()


def descriptor_distance(a, b) -> float:
    """Squared Euclidean distance between two vector descriptors."""
    va, vb = _vector_of(a), _vector_of(b)
    if va.size != vb.size:
        raise ArgumentError(f"descriptor lengths differ: {va.size} vs {vb.size}")
    diff = va - vb
    return float(diff @ diff)


# Sampling tables for the rotate-and-sum Radon transform are cached per
# (side, n_angles) while they stay within this budget; the lock makes
# concurrent encoders build a cached geometry once.
_TABLE_CACHE_LIMIT_BYTES = 128 * 1024 * 1024
_table_cache: dict = {}
_table_lock = threading.Lock()


def _angle_table(side: int, phi: float, xs: np.ndarray, ys: np.ndarray):
    centre = (side - 1) / 2.0
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    sx = xs * cos_p + ys * sin_p + centre
    sy = -xs * sin_p + ys * cos_p + centre
    inside = (sx >= 0.0) & (sx <= side - 1) & (sy >= 0.0) & (sy <= side - 1)
    x0 = np.clip(np.floor(sx), 0, side - 2).astype(np.int32)
    y0 = np.clip(np.floor(sy), 0, side - 2).astype(np.int32)
    return y0 * side + x0, sx - x0, sy - y0, inside.astype(np.float64)


def _angle_tables(side: int, n_angles: int):
    """Yield every angle's sampling table in angle order, one at a time."""
    ys, xs = (np.mgrid[0:side, 0:side] - (side - 1) / 2.0).reshape(2, -1)
    for a in range(n_angles):
        yield _angle_table(side, np.pi * a / n_angles, xs, ys)


def _rotation_tables(side: int, n_angles: int):
    """The sampling tables of every angle: the cached list when they fit
    the cache budget, else a generator that holds one table at a time."""
    if n_angles * side * side * 28 > _TABLE_CACHE_LIMIT_BYTES:
        return _angle_tables(side, n_angles)
    key = (side, n_angles)
    with _table_lock:
        if key not in _table_cache:
            _table_cache.clear()
            _table_cache[key] = list(_angle_tables(side, n_angles))
        return _table_cache[key]


def radon_sinogram(scan: CartesianScan, n_angles: int) -> np.ndarray:
    """Parallel-beam sinogram by image rotation and column summation.

    Row a holds the projection at angle pi*a/n_angles: the image is
    rotated about its centre with bilinear interpolation (zero outside)
    and its columns are summed.
    """
    if n_angles < 1:
        raise ArgumentError(f"n_angles must be >= 1, got {n_angles}")
    side = scan.width_px
    flat = scan.pixels.ravel()
    out = np.empty((n_angles, side))
    for a, (base, fx, fy, valid) in enumerate(_rotation_tables(side, n_angles)):
        gx = 1.0 - fx
        gy = 1.0 - fy
        rotated = (
            flat[base] * (gx * gy)
            + flat[base + 1] * (fx * gy)
            + flat[base + side] * (gx * fy)
            + flat[base + side + 1] * (fx * fy)
        ) * valid
        out[a] = rotated.reshape(side, side).sum(axis=0)
    return out


def encode_raplace(scan: PolarScan, cfg: RaplaceConfig = RaplaceConfig()) -> RaplaceDescriptor:
    """Sinogram-spectrum descriptor of a polar scan.

    Pipeline: polar-to-Cartesian projection, Radon sinogram, linear
    downscale of the radial axis to ``scale_pct`` percent, then the DFT
    magnitude of each angle row. Rotating the input circularly shifts the
    spectrum rows, and radial shifts are absorbed by the magnitude.
    """
    cart = polar_to_cartesian(scan, cfg.width_px, cfg.resolution_m)
    sino = radon_sinogram(cart, cfg.angles)
    target = max(1, int(round(sino.shape[1] * cfg.scale_pct / 100.0)))
    scaled = linear_resample_columns(sino, target)
    spectrum = np.abs(np.fft.fft(scaled, axis=1))
    return RaplaceDescriptor(spectrum=spectrum)


def raplace_similarity(a: RaplaceDescriptor, b: RaplaceDescriptor) -> float:
    """Peak circular cross-correlation over angle-row shifts (higher = closer).

    Both spectra are Fourier-transformed along the angle axis, the
    conjugate product is summed over the radial axis, and the peak of the
    real part of the inverse transform is returned.
    """
    if a.spectrum.shape != b.spectrum.shape:
        raise ArgumentError(
            f"descriptor shapes differ: {a.spectrum.shape} vs {b.spectrum.shape}"
        )
    return float(_peak_correlation(np.fft.fft(a.spectrum, axis=0), np.conj(np.fft.fft(b.spectrum, axis=0))))


def _peak_correlation(fa: np.ndarray, fb_conj: np.ndarray) -> np.ndarray:
    """Peak over angle shifts of the circular cross-correlation of spectra
    given as angle-axis FFTs, ``fb_conj`` conjugated: the product summed
    over the radial (last) axis, inverse-transformed along the angle axis.
    Leading axes broadcast, one peak per pair."""
    return np.fft.ifft((fa * fb_conj).sum(axis=-1), axis=-1).real.max(axis=-1)


def save_descriptor(path, descriptor) -> None:
    """Write a descriptor file: magic, kind byte, u32 dims, f64 payload.

    Ring keys store one dim (length); vlad stores (k, w); raplace stores
    the spectrum shape (angles, radial samples).
    """
    if isinstance(descriptor, RingKeyDescriptor):
        kind, dims, payload = KIND_RINGKEY, (descriptor.values.size,), descriptor.values
    elif isinstance(descriptor, VladDescriptor):
        kind, dims, payload = KIND_VLAD, (descriptor.k, descriptor.w), descriptor.values
    elif isinstance(descriptor, RaplaceDescriptor):
        kind, dims, payload = KIND_RAPLACE, descriptor.spectrum.shape, descriptor.spectrum
    else:
        raise ArgumentError(f"unsupported descriptor type {type(descriptor).__name__}")
    head = DESC_MAGIC + struct.pack("<B", kind) + struct.pack(f"<{len(dims)}I", *dims)
    Path(path).write_bytes(head + np.ascontiguousarray(payload, dtype="<f8").tobytes())


def load_descriptor(path):
    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < 5 or buf[:4] != DESC_MAGIC:
        raise IngestError(f"{path}: not a descriptor file")
    kind = buf[4]
    if kind == KIND_RINGKEY:
        (length,) = struct.unpack_from("<I", buf, 5)
        dims, offset = (length,), 9
    elif kind in (KIND_VLAD, KIND_RAPLACE):
        d0, d1 = struct.unpack_from("<II", buf, 5)
        dims, offset = (d0, d1), 13
    else:
        raise IngestError(f"{path}: unknown descriptor kind {kind}")
    count = int(np.prod(dims))
    if len(buf) != offset + count * 8:
        raise IngestError(f"{path}: truncated payload")
    payload = np.frombuffer(buf, dtype="<f8", offset=offset)
    if kind == KIND_RINGKEY:
        return RingKeyDescriptor(payload.copy())
    if kind == KIND_VLAD:
        return VladDescriptor(payload.copy(), k=dims[0], w=dims[1])
    return RaplaceDescriptor(payload.reshape(dims).copy())
