"""Radial DFT magnitudes of polar scans, with a direct-evaluation oracle.

The transform runs along the range axis of each azimuth row:

    F(rho) = sum_r x[r] * exp(-i 2 pi rho r / W)

and only the complex magnitude |F| is kept, which is invariant to cyclic
shifts of the row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError, finite_array
from .scans import PolarScan

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpectralScan:
    """Per-azimuth radial DFT magnitudes; same shape as the source scan."""

    magnitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "magnitude", finite_array("magnitude", self.magnitude, 2, non_negative=True))

    @property
    def azimuth_count(self) -> int:
        return self.magnitude.shape[0]

    @property
    def bin_count(self) -> int:
        return self.magnitude.shape[1]


def radial_fft_magnitude(scan: PolarScan) -> SpectralScan:
    """DFT magnitude of every azimuth row, via the FFT.

    Rows are real, so |F(W - rho)| = |F(rho)|: only the half spectrum
    rho = 0..W//2 is transformed, and the rest is its mirror image.
    """
    power = scan.power
    if not np.isfinite(power).all():
        raise NumericError("scan power contains non-finite samples")
    magnitude = np.empty(power.shape)
    np.abs(np.fft.rfft(power, axis=1), out=magnitude[:, : power.shape[1] // 2 + 1])
    return SpectralScan(_mirror_upper_half(magnitude))


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


def _paired_columns(width: int) -> slice:
    """Columns 1..(W-1)//2 of a length-W spectrum: those with a distinct mirror
    column. DC and, for even W, Nyquist are their own mirror images."""
    return slice(1, (width + 1) // 2)


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
    folded = rows[..., : width // 2 + 1].copy()
    folded[..., _paired_columns(width)] *= _SQRT2
    return folded


def unfold_half_spectrum(folded, width: int) -> np.ndarray:
    """The length-``width`` mirror-symmetric rows whose fold is ``folded``."""
    folded = np.asarray(folded, dtype=np.float64)
    if width < 1 or folded.shape[-1] != width // 2 + 1:
        raise ArgumentError(f"{folded.shape[-1]} folded columns do not unfold to width {width}")
    rows = np.empty((*folded.shape[:-1], width))
    rows[..., : width // 2 + 1] = folded
    rows[..., _paired_columns(width)] /= _SQRT2
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
