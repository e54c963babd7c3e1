from dataclasses import replace

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
    gap_dips,
    snr,
    ssim,
)
from singlepixel.scenes import SceneSpec, build_scene, slit_feature_columns, slit_row_bounds


def image(values):
    return IntensityImage(values=np.asarray(values, float))


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


FIG4C = dict(object_kind="three_slit", slit_widths=(1217e-6, 884e-6, 920e-6),
             slit_separations=(118e-6, 118e-6))
CLI_SLITS = dict(object_kind="three_slit", slit_widths=(2e-3, 1.5e-3, 1.5e-3),
                 slit_separations=(7e-4, 7e-4))
# (grid, field of view, slits): FIG4C at 64 px over 5.25 mm and at 128 and
# 256 px over 10.5 mm, and the CLI tests' slits at 16 and 32 px
GEOMETRIES = [
    pytest.param(64, 5.25e-3, FIG4C, id="fig4c-64px"),
    pytest.param(128, 10.5e-3, FIG4C, id="fig4c-128px"),
    pytest.param(256, 10.5e-3, FIG4C, id="fig4c-256px"),
    pytest.param(16, 10.5e-3, CLI_SLITS, id="cli-16px"),
    pytest.param(32, 10.5e-3, CLI_SLITS, id="cli-32px"),
]


def scene(grid=128, fov=10.5e-3, slits=FIG4C):
    return SceneSpec(grid=grid, fov=fov, wavelength=833.3e-6, distance=0.0, **slits)


def _line_profile(image, axis="cols", region=None):
    """The profile that `gap_dips` folded in, kept as its oracle."""
    values = image.values
    if region is not None:
        lo, hi = region
        values = values[lo:hi, :] if axis == "cols" else values[:, lo:hi]
        if values.size == 0:
            raise ParameterError(f"empty profiling region {region}")
    p = values.mean(axis=0) if axis == "cols" else values.mean(axis=1)
    peak = p.max()
    if peak <= 0:
        raise DegenerateInputError("cannot profile an all-zero image")
    return p / peak


def _dip_contrast(profile, peak_positions, valley_positions):
    """The dip that `gap_dips` folded in, kept as its oracle."""
    p = np.asarray(profile, dtype=np.float64)
    peaks = sorted(int(i) for i in peak_positions)
    depths = []
    for v in valley_positions:
        left = [i for i in peaks if i <= v]
        right = [i for i in peaks if i >= v]
        ref = min(p[left[-1]], p[right[0]])
        depths.append(max(0.0, (ref - p[int(v)]) / ref) if ref > 0 else 0.0)
    return float(np.mean(depths))


def _replaced_gap_dips(image, spec):
    at_image = replace(spec, grid=image.width)
    peaks, gaps = slit_feature_columns(at_image)
    profile = _line_profile(image, "cols", region=slit_row_bounds(at_image))
    return tuple(_dip_contrast(profile, peaks, [gap]) for gap in gaps)


class TestGapDips:
    @pytest.mark.parametrize("grid,fov,slits", GEOMETRIES)
    def test_scene_mask_scores_full_contrast(self, grid, fov, slits):
        spec = scene(grid, fov, slits)
        assert gap_dips(build_scene(spec), spec) == (1.0, 1.0)

    def test_filled_gap_scores_zero_there(self):
        spec = scene()
        (first, second, _), _ = slit_feature_columns(spec)
        values = build_scene(spec).values.copy()
        lo, hi = slit_row_bounds(spec)
        values[lo:hi, first : second + 1] = 1.0
        assert gap_dips(image(values), spec) == (0.0, 1.0)

    def test_gap_brighter_than_its_slits_clamps_to_zero(self):
        spec = scene()
        _, (gap, _) = slit_feature_columns(spec)
        values = build_scene(spec).values.copy()
        values[:, gap] = 2.0
        assert gap_dips(image(values), spec) == (0.0, 1.0)

    def test_flat_image_scores_zero(self):
        assert gap_dips(image(np.ones((128, 128))), scene()) == (0.0, 0.0)

    def test_flat_profile_of_row_varying_image_scores_zero(self):
        """Every column is the same, so the slit-row profile is flat even though
        no two rows are alike."""
        values = np.linspace(0.5, 2.0, 128)[:, None] * np.ones((1, 128))
        assert gap_dips(image(values), scene()) == (0.0, 0.0)

    def test_all_zero_image_rejected(self):
        with pytest.raises(DegenerateInputError):
            gap_dips(image(np.zeros((128, 128))), scene())

    def test_non_square_image_rejected(self):
        with pytest.raises(DimensionError):
            gap_dips(image(np.ones((64, 128))), scene())

    def test_bitmap_scene_rejected(self):
        spec = SceneSpec(grid=128, fov=10.5e-3, wavelength=833.3e-6, distance=0.0,
                         object_kind="bitmap", bitmap_path="unread.pgm")
        with pytest.raises(ParameterError):
            gap_dips(image(np.ones((128, 128))), spec)

    def test_band_of_no_row_at_the_image_grid_rejected(self):
        """A 0.4 mm band covers rows at 32 px but none at 16 px."""
        spec = replace(scene(32, slits=CLI_SLITS), slit_height=4e-4)
        assert gap_dips(build_scene(spec), spec) == (1.0, 1.0)
        with pytest.raises(ParameterError, match="cover no pixel row at grid 16"):
            gap_dips(image(np.ones((16, 16))), spec)

    @pytest.mark.parametrize("grid,fov,slits", GEOMETRIES)
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_bytes_of_the_replaced_profile_and_dip(self, rng, grid, fov, slits, scale):
        spec = scene(grid, fov, slits)
        for _ in range(20):
            values = scale * rng.random((grid, grid)) ** rng.uniform(0.2, 5.0)
            values[:, rng.random(grid) < 0.3] = 0.0  # dark slit centres give ref = 0
            got = np.array(gap_dips(image(values), spec))
            expected = np.array(_replaced_gap_dips(image(values), spec))
            assert got.tobytes() == expected.tobytes()
