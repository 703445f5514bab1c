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

import threading
from dataclasses import dataclass, field

import numpy as np

from ._files import FrameReader, ingesting, write_frame
from .codebook import Codebook, cluster_sums, nearest_centre_labels
from .config import RaplaceConfig
from .errors import ArgumentError, IngestError, bounded_int, finite_array
from .scans import CartesianScan, PolarScan, linear_resample_columns, polar_to_cartesian
from .spectral import unfold_half_spectrum

DESC_MAGIC = b"DESC"
KIND_RINGKEY = 0
KIND_VLAD = 1
KIND_RAPLACE = 2
_DESC_DIMS = {KIND_RINGKEY: "I", KIND_VLAD: "II", KIND_RAPLACE: "II"}


@dataclass(frozen=True)
class RingKeyDescriptor:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", finite_array("ring key values", np.ravel(self.values), 1, non_negative=True))


@dataclass(frozen=True)
class VladDescriptor:
    values: np.ndarray
    k: int
    w: int
    # When the package made this descriptor from its k sections folded onto
    # w//2+1 columns each (``spectral.fold_half_spectrum``), that read-only
    # row; else None. Such a descriptor is made by ``_of_folded`` and holds
    # only the row until ``values`` is first read (``__getattr__``).
    _folded: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = finite_array("vlad values", np.ravel(self.values), 1)
        if values.size != bounded_int("k", self.k, 1) * bounded_int("w", self.w, 1):
            raise ArgumentError(f"vlad length {values.size} != k*w = {self.k * self.w}")
        object.__setattr__(self, "values", values)

    @classmethod
    def _of_folded(cls, folded: np.ndarray, k: int, w: int) -> "VladDescriptor":
        """The k x w descriptor whose sections fold to the read-only,
        already checked row ``folded``. Only ``radvlad.evaluate`` calls
        this, with rows its encoder made or a map rebuilt."""
        descriptor = object.__new__(cls)
        for name, value in (("k", k), ("w", w), ("_folded", folded)):
            object.__setattr__(descriptor, name, value)
        return descriptor

    def __getattr__(self, name):
        """``values`` of a descriptor made by ``_of_folded``: its row
        unfolded to full width on first read, then kept, read-only."""
        folded = self.__dict__.get("_folded") if name == "values" else None
        if folded is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = unfold_half_spectrum(folded.reshape(self.k, -1), self.w).reshape(-1)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        return values


@dataclass(frozen=True)
class RaplaceDescriptor:
    spectrum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "spectrum", finite_array("spectrum", self.spectrum, 2, non_negative=True))


def encode_ring_key(scan: PolarScan) -> RingKeyDescriptor:
    """Average the scan over azimuths, one mean per range bin, summed in float64."""
    return RingKeyDescriptor(scan.power.mean(axis=0, dtype=np.float64))


def encode_vlad(rows, codebook: Codebook, l2_normalize: bool = False) -> VladDescriptor:
    """Aggregate per-azimuth vectors into a k*W residual descriptor.

    Section i is the sum of (row - centre_i) over rows whose nearest
    centre is i, computed as the sum of those rows minus their count
    times centre_i, with every cluster's row sum taken by
    ``codebook.cluster_sums`` in ascending row order. Sections are
    concatenated in centre order and clusters with no rows contribute a
    zero section. Rows may be raw power vectors or radial spectra, as
    long as their length matches the codebook. ``l2_normalize``
    optionally rescales the concatenated vector to unit norm (off by
    default).
    """
    rows = finite_array("rows", rows, 2)
    if rows.shape[1] != codebook.width:
        raise ArgumentError(f"row length {rows.shape[1]} != codebook width {codebook.width}")
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
    if isinstance(descriptor, RaplaceDescriptor):
        raise ArgumentError("RaplaceDescriptor is compared by raplace_similarity, not by distance")
    return np.asarray(descriptor, dtype=np.float64).ravel()


def descriptor_distance(a, b) -> float:
    """Squared Euclidean distance between two vector descriptors of one
    class, or plain arrays; descriptors of different classes, and sinogram
    descriptors, raise."""
    kinds = (RingKeyDescriptor, VladDescriptor, RaplaceDescriptor)
    if isinstance(a, kinds) and isinstance(b, kinds) and type(a) is not type(b):
        raise ArgumentError(f"descriptor classes differ: {type(a).__name__} vs {type(b).__name__}")
    va, vb = _vector_of(a), _vector_of(b)
    if va.size != vb.size:
        raise ArgumentError(f"descriptor lengths differ: {va.size} vs {vb.size}")
    diff = va - vb
    return float(diff @ diff)


# Sampling operators of the rotate-and-sum Radon transform are cached per
# (side, n_angles) while they stay within this budget; the lock makes
# concurrent encoders build a cached geometry once.
_TABLE_CACHE_LIMIT_BYTES = 128 * 1024 * 1024
# Most bytes one angle's operator takes per pixel: four float64 weights
# and four int32 column indices per row, and one int32 row pointer.
_OPERATOR_BYTES_PER_PIXEL = 4 * (8 + 4) + 4
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
    return y0 * side + x0, sx - x0, sy - y0, inside


def _angle_operator(side: int, phi: float, xs: np.ndarray, ys: np.ndarray):
    """One angle's bilinear rotation as a sparse CSR matrix: row p holds
    the four taps of output pixel p's sample, and a row whose sample falls
    outside the grid is empty."""
    from scipy import sparse  # only the sinogram needs scipy; keep `import radvlad` light

    base, fx, fy, inside = _angle_table(side, phi, xs, ys)
    base, fx, fy = base[inside], fx[inside], fy[inside]
    gx, gy = 1.0 - fx, 1.0 - fy
    weights = np.stack([gx * gy, fx * gy, gx * fy, fx * fy], axis=1)
    taps = base[:, None] + np.array([0, 1, side, side + 1], dtype=np.int32)
    indptr = np.zeros(side * side + 1, dtype=np.int32)
    np.cumsum(inside, dtype=np.int32, out=indptr[1:])
    indptr *= 4
    return sparse.csr_array((weights.ravel(), taps.ravel(), indptr), shape=(side * side, side * side))


def _built_angles(n_angles: int) -> int:
    """Angles that get an operator: those in [0, pi/2) when n_angles is
    even (the rest are quarter turns of them), else all of them."""
    return n_angles // 2 if n_angles % 2 == 0 else n_angles


def _angle_operators(side: int, n_angles: int):
    """Yield every built angle's operator in angle order, one at a time."""
    ys, xs = (np.mgrid[0:side, 0:side] - (side - 1) / 2.0).reshape(2, -1)
    for a in range(_built_angles(n_angles)):
        yield _angle_operator(side, np.pi * a / n_angles, xs, ys)


def _rotation_operators(side: int, n_angles: int):
    """The operators of every built angle: the cached list when they fit
    the cache budget, else a generator that holds one operator at a time."""
    if _built_angles(n_angles) * side * side * _OPERATOR_BYTES_PER_PIXEL > _TABLE_CACHE_LIMIT_BYTES:
        return _angle_operators(side, n_angles)
    key = (side, n_angles)
    with _table_lock:
        if key not in _table_cache:
            _table_cache.clear()
            _table_cache[key] = list(_angle_operators(side, n_angles))
        return _table_cache[key]


def radon_sinogram(scan: CartesianScan, n_angles: int) -> np.ndarray:
    """Parallel-beam sinogram by image rotation and column summation.

    Row a holds the projection at angle pi*a/n_angles: the image is
    rotated about its centre with bilinear interpolation (zero outside)
    and its columns are summed. Each angle's rotation is a sparse CSR
    matrix, built once per geometry and cached (or, past the cache budget,
    built and applied one angle at a time). For even n_angles only the
    angles in [0, pi/2) get one: the rotation by phi + pi/2 is the
    rotation by phi applied to the image turned a quarter clockwise
    (``np.rot90(pixels, -1)``). That identity is exact, because the
    quarter turn maps the grid centre (side - 1)/2 onto itself, so the
    pi/2 row is read through the grid-aligned phi = 0 operator.
    """
    bounded_int("n_angles", n_angles, 1)
    side = scan.width_px
    images = [scan.pixels.ravel()]
    if n_angles % 2 == 0:
        images.append(np.rot90(scan.pixels, -1).ravel())
    built = _built_angles(n_angles)
    out = np.empty((n_angles, side))
    for a, op in enumerate(_rotation_operators(side, n_angles)):
        for turn, flat in enumerate(images):
            out[a + turn * built] = (op @ flat).reshape(side, side).sum(axis=0)
    return out


def encode_raplace(scan: PolarScan, cfg: RaplaceConfig = RaplaceConfig()) -> RaplaceDescriptor:
    """Sinogram-spectrum descriptor of a polar scan.

    Pipeline: polar-to-Cartesian projection, Radon sinogram with one
    angle per grid column (``width_px``), linear downscale of the radial
    axis to ``scale_pct`` percent, then the DFT magnitude of each angle
    row. Rotating the input circularly shifts the spectrum rows, and
    radial shifts are absorbed by the magnitude.
    """
    cart = polar_to_cartesian(scan, cfg.width_px, cfg.resolution_m)
    sino = radon_sinogram(cart, cfg.width_px)
    target = max(1, int(round(sino.shape[1] * cfg.scale_pct / 100.0)))
    scaled = linear_resample_columns(sino, target)
    spectrum = np.abs(np.fft.fft(scaled, axis=1))
    return RaplaceDescriptor(spectrum=spectrum)


def raplace_similarity(a: RaplaceDescriptor, b: RaplaceDescriptor) -> float:
    """Peak circular cross-correlation over angle-row shifts (higher = closer).

    Both spectra are Fourier-transformed along the angle axis, the
    conjugate product is summed over the radial axis, and the peak of the
    real part of the inverse transform is returned. Any other descriptor
    class raises.
    """
    for given in (a, b):
        if not isinstance(given, RaplaceDescriptor):
            raise ArgumentError(f"raplace_similarity takes RaplaceDescriptor, not {type(given).__name__}")
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
    write_frame(path, DESC_MAGIC, f"<B{_DESC_DIMS[kind]}", (kind, *dims), payload, "<f8")


def load_descriptor(path):
    frame = FrameReader(path, DESC_MAGIC)
    (kind,) = frame.header("<B")
    if kind not in _DESC_DIMS:
        raise IngestError(f"{frame.path}: unknown descriptor kind {kind}")
    dims = frame.header("<" + _DESC_DIMS[kind])
    payload = frame.payload("<f8", dims).copy()
    with ingesting(frame.path):
        if kind == KIND_RINGKEY:
            return RingKeyDescriptor(payload)
        if kind == KIND_VLAD:
            return VladDescriptor(payload, k=dims[0], w=dims[1])
        return RaplaceDescriptor(payload)
