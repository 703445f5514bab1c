"""Radial DFT magnitudes of polar scans, with a direct-evaluation oracle.

The transform runs along the range axis of each azimuth row:

    F(rho) = sum_r x[r] * exp(-i 2 pi rho r / W)

and only the complex magnitude |F| is kept, which is invariant to cyclic
shifts of the row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError, bounded_int, finite_array
from .scans import PolarScan

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpectralScan:
    """Per-azimuth radial DFT magnitudes of a scan ``width`` range bins wide.

    Rows are real, so |F(W - rho)| = |F(rho)| and the half spectrum
    rho = 0..W//2 (``half``, W//2+1 columns) holds all of it. ``magnitude``
    is the full-width mirror image and ``folded`` the half folded as
    ``fold_half_spectrum`` folds it; each is built on first read and kept.
    """

    half: np.ndarray
    width: int

    def __post_init__(self):
        half = finite_array("magnitude", self.half, 2, non_negative=True)
        if half.shape[1] != bounded_int("width", self.width, 1) // 2 + 1:
            raise ArgumentError(f"{half.shape[1]} half-spectrum columns do not fit width {self.width}")
        object.__setattr__(self, "half", half)

    @functools.cached_property
    def magnitude(self) -> np.ndarray:
        magnitude = np.empty((len(self.half), self.width))
        magnitude[:, : self.width // 2 + 1] = self.half
        return _mirror_upper_half(magnitude)

    @functools.cached_property
    def folded(self) -> np.ndarray:
        return self.half * _fold_weights(self.width)

    @property
    def azimuth_count(self) -> int:
        return self.half.shape[0]


def radial_fft_magnitude(scan: PolarScan) -> SpectralScan:
    """DFT magnitude of every azimuth row, via the FFT: the half spectrum
    ``np.abs(np.fft.rfft(row))``, checked once as it is wrapped. Float32
    power is widened first, because ``rfft`` keeps float32 in complex64."""
    power = scan.power
    if not np.isfinite(power).all():
        raise NumericError("scan power contains non-finite samples")
    return SpectralScan(np.abs(np.fft.rfft(np.asarray(power, dtype=np.float64), axis=1)), power.shape[1])


def _mirror_upper_half(rows: np.ndarray) -> np.ndarray:
    """Fill columns W//2+1..W-1 of ``rows`` in place with |F(W - rho)| = |F(rho)|."""
    width = rows.shape[-1]
    rows[..., width // 2 + 1 :] = rows[..., (width - 1) // 2 : 0 : -1]
    return rows


def is_mirror_symmetric(rows: np.ndarray) -> bool:
    """Whether every row has x[W - rho] == x[rho] exactly, as radial DFT
    magnitudes and unfolded rows do."""
    width = rows.shape[-1]
    return np.array_equal(rows[..., width // 2 + 1 :], rows[..., (width - 1) // 2 : 0 : -1])


def _fold_weights(width: int) -> np.ndarray:
    """The W//2+1 column weights of the fold: sqrt(2) on columns
    1..(W-1)//2, which have a distinct mirror column, and 1 on DC and, for
    even W, Nyquist, which are their own mirror images."""
    weights = np.ones(width // 2 + 1)
    weights[1 : (width + 1) // 2] = _SQRT2
    return weights


def fold_half_spectrum(rows) -> np.ndarray:
    """Fold mirror-symmetric length-W rows onto their W//2+1 leading columns.

    Columns 0..W//2 are kept and each column with a distinct mirror
    column is scaled by sqrt(2), so that on rows with x[W - rho] = x[rho]
    (every radial DFT magnitude) the fold is a linear isometry: squared
    distances and dot products are kept, and means and sums of folded
    rows are the folds of the full-width ones.
    """
    rows = np.asarray(rows, dtype=np.float64)
    width = rows.shape[-1]
    return rows[..., : width // 2 + 1] * _fold_weights(width)


def unfold_half_spectrum(folded, width: int) -> np.ndarray:
    """The length-``width`` mirror-symmetric rows whose fold is ``folded``."""
    folded = np.asarray(folded, dtype=np.float64)
    if width < 1 or folded.shape[-1] != width // 2 + 1:
        raise ArgumentError(f"{folded.shape[-1]} folded columns do not unfold to width {width}")
    rows = np.empty((*folded.shape[:-1], width))
    np.divide(folded, _fold_weights(width), out=rows[..., : width // 2 + 1])
    return _mirror_upper_half(rows)


def naive_dft_magnitude(row) -> np.ndarray:
    """Direct O(W^2) evaluation of the radial DFT magnitude of one row.

    Each output frequency is the explicit sum over range bins, with no
    fast-transform recursion; this is the reference implementation that
    radial_fft_magnitude is checked against.
    """
    x = np.asarray(row, dtype=np.float64).ravel()
    width = x.size
    if width < 1:
        raise ArgumentError("row must contain at least one sample")
    if not np.isfinite(x).all():
        raise NumericError("row contains non-finite samples")
    r = np.arange(width)
    out = np.empty(width)
    for rho in range(width):
        out[rho] = np.abs(np.sum(x * np.exp(-2j * np.pi * rho * r / width)))
    return out
