import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singlepixel.errors import DegenerateInputError, DimensionError, ParameterError
from singlepixel.field import IntensityImage
from singlepixel.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_SIGMA,
    SSIM_WINDOW,
    _kernel,
    dip_contrast,
    line_profile,
    snr,
    ssim,
)


def image(values, pitch=1e-4):
    return IntensityImage(values=np.asarray(values, float), pitch=pitch)


class TestSsim:
    def test_identical_images_give_one(self, rng):
        img = image(rng.random((16, 16)))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_half_plane_scores_low(self):
        values = np.zeros((16, 16))
        values[:, 8:] = 1.0
        a = image(values)
        b = image(1.0 - values)
        assert ssim(a, b) < 0.1

    def test_symmetry(self, rng):
        a = image(rng.random((16, 16)))
        b = image(rng.random((16, 16)))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_bounded_by_one(self, seed):
        prng = np.random.default_rng(seed)
        a = image(prng.random((16, 16)))
        b = image(prng.random((16, 16)))
        assert abs(ssim(a, b)) <= 1.0

    @pytest.mark.parametrize("shape", [(16, 16), (16, 32), (64, 64), (128, 128)])
    def test_matches_tensordot_window_means(self, rng, shape):
        """The separable means L @ X @ R sum each window in another order than
        `np.tensordot` of the 2-D windows, so the score may differ in its last
        bits.  Round-off of the 121-term sums is about 1e-16; 1e-12 bounds it
        with room to spare and still catches a wrong weight or window offset."""
        a, b = rng.random(shape), rng.random(shape) ** 3
        k = _kernel()
        w = np.outer(k, k)

        def means(x):
            view = np.lib.stride_tricks.sliding_window_view(x, w.shape)
            return np.tensordot(view, w, axes=([2, 3], [0, 1]))

        mu_a, mu_b = means(a), means(b)
        cov = means(a * b) - mu_a * mu_b
        var_a, var_b = means(a * a) - mu_a**2, means(b * b) - mu_b**2
        c1, c2 = SSIM_K1**2, SSIM_K2**2
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        assert abs(ssim(image(a), image(b)) - float(np.mean(num / den))) <= 1e-12

    def test_window_normalized(self):
        """The Gaussian of Wang et al.: 11 taps of sigma 1.5, summing to 1."""
        k = _kernel()
        x = np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2
        assert (SSIM_WINDOW, SSIM_SIGMA) == (11, 1.5)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k / k[SSIM_WINDOW // 2], np.exp(-(x**2) / 4.5), rtol=1e-14, atol=0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            ssim(image(rng.random((16, 16))), image(rng.random((32, 32))))

    def test_image_smaller_than_window(self, rng):
        with pytest.raises(ParameterError):
            ssim(image(rng.random((8, 8))), image(rng.random((8, 8))))


class TestSnr:
    def test_known_noise_monte_carlo(self):
        # ~10^4 noise pixels with known sigma around a constant signal
        prng = np.random.default_rng(0)
        n = 128
        values = np.abs(prng.normal(0.0, 0.05, (n, n)))
        mask = np.zeros((n, n), dtype=bool)
        mask[40:48, 40:48] = True
        values[mask] = 0.8
        result = snr(image(values), mask)
        noise_std = values[~mask].std()
        assert result == pytest.approx(0.8 / noise_std, rel=1e-12)
        assert result == pytest.approx(0.8 / 0.03, rel=0.06)

    def test_constant_noise_region_flagged_infinite(self):
        values = np.zeros((8, 8))
        values[2, 2] = 1.0
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, 2] = True
        result = snr(image(values), mask)
        assert type(result) is float
        assert result == np.inf

    def test_scale_invariance(self, rng):
        values = rng.random((8, 8)) + 0.1
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4] = True
        a = snr(image(values), mask)
        b = snr(image(3.7 * values), mask)
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_signal_rejected(self, rng):
        with pytest.raises(ParameterError):
            snr(image(rng.random((8, 8))), np.zeros((8, 8), dtype=bool))

    def test_tiny_noise_region_rejected(self, rng):
        mask = np.ones((8, 8), dtype=bool)
        mask[0, 0] = False
        with pytest.raises(ParameterError):
            snr(image(rng.random((8, 8))), mask)


class TestLineProfile:
    def test_uniform_image_flat_profile(self):
        profile = line_profile(image(np.ones((8, 8))))
        assert np.array_equal(profile, np.ones(8))

    def test_single_bright_column_is_unit_spike(self):
        values = np.zeros((8, 8))
        values[:, 5] = 2.0
        profile = line_profile(image(values))
        expected = np.zeros(8)
        expected[5] = 1.0
        assert np.array_equal(profile, expected)

    def test_three_slit_plateaus_with_gaps(self):
        values = np.zeros((16, 16))
        for lo in (2, 7, 12):
            values[:, lo : lo + 3] = 1.0
        profile = line_profile(image(values))
        assert dip_contrast(profile, [3, 8, 13], [6, 11]) == 1.0

    def test_transposed_image_swapped_axis(self, rng):
        values = rng.random((8, 8))
        a = line_profile(image(values), axis="cols")
        b = line_profile(image(values.T), axis="rows")
        assert np.array_equal(a, b)

    def test_region_restricts_averaging(self):
        values = np.zeros((8, 8))
        values[0:2, 3] = 1.0
        profile = line_profile(image(values), region=(0, 2))
        assert profile[3] == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            line_profile(image(np.zeros((8, 8))))


class TestDipContrast:
    def test_ideal_profile_full_contrast(self):
        profile = np.zeros(16)
        profile[2:5] = 1.0
        profile[8:11] = 1.0
        assert dip_contrast(profile, [3, 9], [6]) == pytest.approx(1.0)

    def test_flat_profile_zero_contrast(self):
        assert dip_contrast(np.ones(16), [3, 9], [6]) == 0.0

    def test_unbracketed_valley_rejected(self):
        with pytest.raises(ParameterError):
            dip_contrast(np.ones(16), [8], [2])
