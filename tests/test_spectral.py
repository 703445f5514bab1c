import numpy as np
import pytest

from radvlad import (
    ArgumentError,
    NumericError,
    PolarScan,
    RunConfig,
    SpectralScan,
    naive_dft_magnitude,
    radial_fft_magnitude,
)
from radvlad.evaluate import Method, preprocess_scan
from radvlad.spectral import fold_half_spectrum, unfold_half_spectrum


def spectrum_of(rows):
    return radial_fft_magnitude(PolarScan(np.atleast_2d(rows), 1.0)).magnitude


class TestKnownSpectra:
    def test_constant_row_is_dc_only(self):
        c = 0.37
        mag = spectrum_of(np.full(512, c))[0]
        assert mag[0] == pytest.approx(512 * c, rel=1e-12)
        assert np.abs(mag[1:]).max() <= 1e-9 * 512 * c

    def test_unit_impulse_has_flat_spectrum(self):
        for width in (1, 4, 9):
            row = np.zeros(width)
            row[0] = 1.0
            assert np.allclose(spectrum_of(row)[0], np.ones(width), atol=1e-12)

    def test_naive_impulse(self):
        assert np.allclose(naive_dft_magnitude([1, 0, 0, 0]), [1, 1, 1, 1], atol=1e-12)

    def test_naive_constant(self):
        out = naive_dft_magnitude([1, 1, 1, 1])
        assert out[0] == pytest.approx(4.0, rel=1e-12)
        assert np.abs(out[1:]).max() < 1e-12 * 4

    def test_naive_shift_theorem(self):
        rng = np.random.default_rng(0)
        row = rng.random(16)
        base = naive_dft_magnitude(row)
        for shift in (1, 5, 15):
            rolled = naive_dft_magnitude(np.roll(row, shift))
            assert np.allclose(rolled, base, rtol=1e-12, atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 512])
    def test_fft_matches_naive(self, width):
        rng = np.random.default_rng(width)
        for _ in range(3):
            row = rng.random(width)
            fast = spectrum_of(row)[0]
            slow = naive_dft_magnitude(row)
            scale = max(1e-300, np.abs(slow).max())
            assert np.abs(fast - slow).max() / scale <= 1e-9


class TestSpectralProperties:
    @pytest.mark.parametrize("width", [5, 6, 7, 511, 3768])
    def test_half_spectrum_mirror_matches_full_fft(self, width):
        rows = np.random.default_rng(width).random((3, width))
        mag = spectrum_of(rows)
        full = np.abs(np.fft.fft(rows, axis=1))
        assert mag.shape == rows.shape
        assert np.abs(mag - full).max() <= 1e-12 * full.max()
        assert np.array_equal(mag[:, 1:], mag[:, :0:-1])

    def test_cyclic_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            row = rng.random(512)
            shift = int(rng.integers(512))
            a = spectrum_of(row)[0]
            b = spectrum_of(np.roll(row, shift))[0]
            assert np.abs(a - b).max() / np.abs(a).max() <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(2)
        rows = rng.random((50, 512))
        mags = spectrum_of(rows)
        lhs = (mags**2).sum(axis=1)
        rhs = 512 * (rows**2).sum(axis=1)
        assert np.abs(lhs - rhs).max() / rhs.max() <= 1e-9

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        row = rng.random(64)
        base = spectrum_of(row)[0]
        for a in (0.0, 0.5, 3.0):
            scaled = spectrum_of(a * row)[0]
            assert np.allclose(scaled, a * base, rtol=1e-12, atol=1e-12)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(4)
        scan = PolarScan(rng.random((400, 512)), 0.3)
        out = radial_fft_magnitude(scan)
        assert out.magnitude.shape == (400, 512)
        assert out.width == 512


WIDTHS = [1, 2, 3, 8, 9, 512, 513]


class TestHalfSpectrumFold:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_unfold_inverts_fold(self, width):
        rows = spectrum_of(np.random.default_rng(width).random((20, width)))
        folded = fold_half_spectrum(rows)
        assert folded.shape == (20, width // 2 + 1)
        back = unfold_half_spectrum(folded, width)
        # sqrt(2) scaling and unscaling may round the last bit.
        assert np.all(np.abs(back - rows) <= 2.5e-16 * np.abs(rows))
        assert np.array_equal(back[:, 1:], back[:, :0:-1])

    @pytest.mark.parametrize("width", WIDTHS)
    def test_fold_keeps_squared_distances_and_dot_products(self, width):
        rng = np.random.default_rng(100 + width)
        a = spectrum_of(rng.random((15, width)))
        b = spectrum_of(rng.random((11, width)))
        fa, fb = fold_half_spectrum(a), fold_half_spectrum(b)
        full = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        half = ((fa[:, None, :] - fb[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(half, full, rtol=1e-13, atol=0.0)
        assert np.allclose(fa @ fb.T, a @ b.T, rtol=1e-13, atol=0.0)

    def test_dc_and_nyquist_are_not_scaled(self):
        rows = np.arange(1.0, 9.0)[None, :]
        rows = rows + rows[:, (-np.arange(8)) % 8]  # make the row mirror-symmetric
        folded = fold_half_spectrum(rows)
        assert folded[0, 0] == rows[0, 0] and folded[0, 4] == rows[0, 4]
        assert np.allclose(folded[0, 1:4], np.sqrt(2.0) * rows[0, 1:4], rtol=1e-15)

    def test_fold_commutes_with_sums(self):
        rows = spectrum_of(np.random.default_rng(3).random((40, 64)))
        assert np.allclose(fold_half_spectrum(rows.sum(axis=0)), fold_half_spectrum(rows).sum(axis=0), rtol=1e-13)

    def test_unfold_rejects_mismatched_width(self):
        with pytest.raises(ArgumentError):
            unfold_half_spectrum(np.zeros((2, 5)), 7)


class TestHalfSpectrumScan:
    """The scan keeps the half spectrum; its full-width and folded forms are
    the mirror fill and the fold of it, bit for bit."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_magnitude_and_folded_are_exact(self, width):
        power = np.random.default_rng(200 + width).random((6, width))
        out = radial_fft_magnitude(PolarScan(power, 1.0))
        half = np.abs(np.fft.rfft(power, axis=1))
        full = np.empty_like(power)
        full[:, : width // 2 + 1] = half
        full[:, width // 2 + 1 :] = half[:, 1 : (width + 1) // 2][:, ::-1]
        assert np.array_equal(out.half, half)
        assert np.array_equal(out.magnitude, full)
        assert np.array_equal(out.folded, fold_half_spectrum(out.magnitude))
        assert out.magnitude is out.magnitude and out.folded is out.folded
        assert out.width == width

    @pytest.mark.parametrize("width", WIDTHS)
    def test_method_rows_match_the_full_width_fold(self, width):
        scan = PolarScan(np.random.default_rng(300 + width).random((5, 1100)), 0.1)
        cfg = RunConfig(method="fft_radvlad", target_bins=width, suppress_bins=3, k=2)
        # The rows as they were built before the half spectrum was kept:
        # a full-width magnitude, mirror-filled, then folded by copy and scale.
        power = preprocess_scan(scan, cfg).power
        magnitude = np.empty(power.shape)
        np.abs(np.fft.rfft(power, axis=1), out=magnitude[:, : width // 2 + 1])
        magnitude[:, width // 2 + 1 :] = magnitude[:, (width - 1) // 2 : 0 : -1]
        want = magnitude[:, : width // 2 + 1].copy()
        want[:, 1 : (width + 1) // 2] *= np.sqrt(2.0)
        assert np.array_equal(Method("fft_radvlad", cfg).rows(scan), want)

    def test_constructor_checks_the_half(self):
        with pytest.raises(ArgumentError, match="do not fit width 8"):
            SpectralScan(np.ones((2, 4)), 8)
        with pytest.raises(ArgumentError, match="width"):
            SpectralScan(np.ones((2, 1)), 0)
        with pytest.raises(ArgumentError, match="non-negative"):
            SpectralScan(-np.ones((2, 5)), 8)

    def test_constructor_rejects_a_non_finite_half(self):
        # The one finiteness check a spectrum gets on the FFT path.
        for bad in (np.nan, np.inf):
            half = np.ones((2, 5))
            half[1, 3] = bad
            with pytest.raises(ArgumentError, match="magnitude must be finite"):
                SpectralScan(half, 8)


class TestErrors:
    def test_naive_rejects_empty(self):
        with pytest.raises(ArgumentError):
            naive_dft_magnitude([])

    def test_naive_rejects_non_finite(self):
        with pytest.raises(NumericError):
            naive_dft_magnitude([1.0, np.inf])

    def test_fft_rejects_non_finite(self):
        scan = PolarScan(np.ones((2, 4)), 1.0)
        object.__setattr__(scan, "power", np.array([[1.0, np.nan, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(ArgumentError, match="must be finite"):
            radial_fft_magnitude(scan)
