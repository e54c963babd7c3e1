from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singlepixel.classical import (
    DEFAULT_CSTV_ITERATIONS,
    PROX_ITERATIONS,
    cstv_reconstruct,
    dgi_reconstruct,
    hspi_reconstruct,
)
from singlepixel.errors import ParameterError
from singlepixel.field import IntensityImage, normalize
import singlepixel.classical
from singlepixel.measurement import Measurement, diffract, encode, encode_adjoint, measure
from singlepixel.metrics import ssim
from singlepixel.patterns import walsh_hadamard_patterns
from singlepixel.propagation import PropagationSpec
from singlepixel.scenes import SceneSpec, build_scene
from singlepixel.tvreg import tv_anisotropic, tv_prox

from conftest import reference_tv_prox


def image(values):
    return IntensityImage(values=np.asarray(values, float))


def readings_like(pset, values):
    return Measurement(
        readings=np.asarray(values, float),
        pattern_ref=pset.identifier,
        noise_sigma=0.0,
        seed=0,
    )


def _min_max_unit_image(raw):
    """The DGI rendering that `normalize(raw - raw.min())` replaced, kept as its oracle."""
    lo = float(raw.min())
    hi = float(raw.max())
    if hi - lo <= 0.0:
        return IntensityImage(values=np.zeros_like(raw))
    return IntensityImage(values=(raw - lo) / (hi - lo))


def pattern_sums(pset):
    """S_i, the sum of the +/-1 entries of each mask."""
    return pset.logical_masks.reshape(pset.count, -1).sum(axis=1).astype(float)


def dgi_oracle(pset, readings):
    """Literal evaluation of the centered pattern/readout correlation with the
    normalized differential signal, by direct summation."""
    masks = pset.logical_masks.astype(float)
    m_count = pset.count
    sums = masks.reshape(m_count, -1).sum(axis=1)
    mean_s = sums.mean()
    if abs(mean_s) < 1e-12 * pset.pixels:
        normalized = readings.copy()
    else:
        normalized = np.empty(m_count)
        for i in range(m_count):
            if abs(sums[i]) < 1e-9 * pset.pixels:
                normalized[i] = readings[i]
            else:
                normalized[i] = readings[i] - (readings.mean() / mean_s) * sums[i]
    mean_pattern = masks.mean(axis=0)
    mean_signal = normalized.mean()
    out = np.zeros((pset.order, pset.order))
    for i in range(m_count):
        out += (masks[i] - mean_pattern) * (normalized[i] - mean_signal)
    return out / m_count


def fista_oracle(meas, pset, tv_weight, iterations, prox_iterations=None):
    """Monotone FISTA for CS-TV (Beck & Teboulle 2009) that encodes every
    point it needs afresh: (x, loss history).  Each TV prox is the cold
    10-step one, or with `prox_iterations` that many steps from the duals
    the last prox ended on (the conftest oracle carries them)."""
    n = pset.order
    step = 1.0 / (pset.modulation_depth**2 * pset.pixels)

    def objective(u):
        r = encode(u, pset) - meas.readings
        return 0.5 * float(r @ r) + tv_weight * tv_anisotropic(u)

    x = y = np.zeros((n, n))
    duals = (np.zeros((n, n)), np.zeros((n, n)))
    t, f_x, history = 1.0, objective(x), []
    for _ in range(iterations):
        v = y - step * encode_adjoint(encode(y, pset) - meas.readings, pset)
        if prox_iterations is None:
            z = tv_prox(v, tv_weight * step)
        else:
            z, duals = reference_tv_prox(v, tv_weight * step, prox_iterations, duals)
        z = np.maximum(z, 0.0)
        f_z = objective(z)
        x_next, f_x = (z, f_z) if f_z <= f_x else (x, f_x)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_next + (t / t_next) * (z - x_next) + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        history.append(f_x)
    return x, history


def slits_32():
    """The 32 px three-slit object of `benchmark-32` (perfbench): slits of
    2, 1.5 and 1.5 mm, gaps of 0.6 mm, over 10.5 mm."""
    return build_scene(SceneSpec(grid=32, fov=10.5e-3, wavelength=833.3e-6, distance=0.5e-3,
                                 object_kind="three_slit", slit_widths=(2e-3, 1.5e-3, 1.5e-3),
                                 slit_separations=(0.6e-3, 0.6e-3)))


def rectangles_32():
    """A 32 px bitmap of four overlapping rectangles of different grey."""
    values = np.zeros((32, 32))
    values[3:12, 4:14] = 1.0
    values[16:29, 6:13] = 0.7
    values[6:26, 18:28] = 0.45
    values[20:25, 15:30] = 0.9
    return image(values)


class TestHspi:
    def test_exact_inversion_full_sampling(self, rng):
        obj = image((rng.random((8, 8)) > 0.5).astype(float))
        pset = walsh_hadamard_patterns(8, 64, modulation_depth=1.0)
        meas = measure(obj, pset)
        result = hspi_reconstruct(meas, pset)
        assert np.abs(result.raw - obj.values).max() < 1e-9

    def test_zero_readings_zero_image(self):
        pset = walsh_hadamard_patterns(4, 16)
        result = hspi_reconstruct(readings_like(pset, np.zeros(16)), pset)
        assert np.all(result.raw == 0)
        assert np.all(result.image.values == 0)

    def test_partial_sampling_residual_energy(self, rng):
        # low-sequency half of a smooth object: the reconstruction drops
        # exactly the discarded coefficients, whose energy is sum c_i^2 / N
        # (oracle computes the full transform with an explicit matrix)
        n = 8
        n_pixels = n * n
        yy, xx = np.mgrid[0:n, 0:n]
        smooth = np.exp(-((xx - 3.5) ** 2 + (yy - 3.5) ** 2) / 8.0)
        obj = image(smooth)
        full = walsh_hadamard_patterns(n, n_pixels, modulation_depth=1.0)
        half = full.subset(n_pixels // 2)
        meas = measure(obj, half)
        recon = hspi_reconstruct(meas, half).raw

        h_matrix = full.logical_masks.reshape(n_pixels, n_pixels).astype(float)
        coeffs_by_row = {
            idx: h_matrix[i] @ obj.values.ravel() for i, idx in enumerate(full.selection)
        }
        residual_energy = sum(
            coeffs_by_row[idx] ** 2 for idx in full.selection if idx not in half.selection
        ) / n_pixels
        assert np.sum((obj.values - recon) ** 2) == pytest.approx(residual_energy, rel=1e-9)

    def test_linear_in_readings(self, rng):
        pset = walsh_hadamard_patterns(4, 10)
        r1 = rng.standard_normal(10)
        r2 = rng.standard_normal(10)
        combo = hspi_reconstruct(readings_like(pset, 2 * r1 - r2), pset).raw
        separate = (
            2 * hspi_reconstruct(readings_like(pset, r1), pset).raw
            - hspi_reconstruct(readings_like(pset, r2), pset).raw
        )
        assert np.allclose(combo, separate, atol=1e-12)


class TestDgi:
    def test_constant_readings_give_zero_image(self):
        # Readings proportional to the pattern sums S_i (a uniform object or
        # uniform stray light) are what the <I>/<S> * S_i correction cancels.
        # A constant reading vector is not such a background: every Hadamard
        # row is +1 at pixel (0, 0), so constant readings are exactly the
        # measurement of a point at (0, 0), which DGI must image.
        pset = walsh_hadamard_patterns(4, 16)
        result = dgi_reconstruct(readings_like(pset, 3.3 * pattern_sums(pset)), pset)
        assert np.abs(result.raw).max() < 1e-12
        assert np.all(result.image.values == 0)

    def test_full_sampling_matches_brute_force_oracle(self, rng):
        n = 16
        pset = walsh_hadamard_patterns(n, n * n)
        obj = image(rng.random((n, n)))
        prop = PropagationSpec(wavelength=833.3e-6, distance=0.4e-3, pitch=2e-4)
        diffracted = diffract(obj, prop)
        meas = measure(diffracted, pset)
        result = dgi_reconstruct(meas, pset)
        oracle = dgi_oracle(pset, meas.readings)
        assert np.abs(result.raw - oracle).max() < 1e-9 * np.abs(oracle).max()
        corr = np.corrcoef(result.raw.ravel(), diffracted.values.ravel())[0, 1]
        assert corr >= 0.999

    def test_single_bright_pixel_peaks_at_that_pixel(self):
        # (0, 0) is the pixel whose readings are constant across all patterns
        n = 8
        pset = walsh_hadamard_patterns(n, n * n)
        for pixel in [(5, 2), (0, 0)]:
            values = np.zeros((n, n))
            values[pixel] = 1.0
            meas = measure(image(values), pset)
            result = dgi_reconstruct(meas, pset)
            assert np.unravel_index(np.argmax(result.raw), (n, n)) == pixel

    def test_affine_invariance_of_readings(self, rng):
        # gain and a background proportional to the pattern sums S_i cancel;
        # a constant offset would add a point at (0, 0) instead
        pset = walsh_hadamard_patterns(8, 40)
        base = rng.standard_normal(40)
        background = 7.0 * pattern_sums(pset)
        a = dgi_reconstruct(readings_like(pset, base), pset).image.values
        b = dgi_reconstruct(readings_like(pset, 2.5 * base + background), pset).image.values
        assert np.abs(a - b).max() < 1e-10

    def test_needs_two_measurements(self):
        pset = walsh_hadamard_patterns(4, 1)
        with pytest.raises(ParameterError):
            dgi_reconstruct(readings_like(pset, [1.0]), pset)

    @given(raw=arrays(float, (8, 8), elements=st.floats(-1e300, 1e300)
                      | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])))
    @example(raw=np.full((8, 8), 2.5))
    @example(raw=np.full((8, 8), -0.0))
    @example(raw=np.array([[0.0, -0.0], [1.0, -0.0]]).repeat(4, 0).repeat(4, 1))
    @example(raw=np.array([[-0.0, 0.0], [-1e300, 1e300]]).repeat(4, 0).repeat(4, 1))
    @settings(max_examples=200, deadline=None)
    def test_bytes_of_the_replaced_min_max_rendering(self, raw):
        """Signed, constant and signed-zero rasters at scales from 1e-300 to
        1e300, set as the correlation's output, render as they did, except
        that `normalize` writes no negative zero: a -0.0 pixel beside a +0.0
        minimum once rendered as -0.0 and now renders as +0.0."""
        pset = walsh_hadamard_patterns(8, 16)
        meas = readings_like(pset, np.arange(16.0))
        with mock.patch.object(singlepixel.classical, "synthesize", return_value=raw):
            image = dgi_reconstruct(meas, pset).image
        # adding +0.0 turns -0.0 into +0.0 and leaves every other value's bits alone
        assert image.values.tobytes() == (_min_max_unit_image(raw).values + 0.0).tobytes()

    def test_bytes_of_the_replaced_min_max_rendering_on_measured_readings(self, rng):
        pset = walsh_hadamard_patterns(16, 64)
        for _ in range(20):
            meas = measure(image(rng.random((16, 16))), pset, noise_sigma=0.1, seed=0)
            result = dgi_reconstruct(meas, pset)
            assert result.image.values.tobytes() == _min_max_unit_image(result.raw).values.tobytes()


class TestCstv:
    @pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
    def test_bad_tv_weight_rejected(self, weight):
        pset = walsh_hadamard_patterns(4, 16)
        with pytest.raises(ParameterError, match=f"tv_weight {weight} is not finite and >= 0"):
            cstv_reconstruct(readings_like(pset, np.ones(16)), pset, tv_weight=weight)

    def test_unregularized_full_sampling_matches_hspi(self, rng):
        n = 8
        pset = walsh_hadamard_patterns(n, n * n, modulation_depth=1.0)
        obj = image(rng.random((n, n)))
        meas = measure(obj, pset)
        hspi = hspi_reconstruct(meas, pset).raw
        cstv = cstv_reconstruct(meas, pset, tv_weight=0.0, max_iters=30).raw
        assert np.abs(cstv - hspi).max() / np.abs(hspi).max() < 1e-6

    def test_zero_readings_zero_image(self):
        pset = walsh_hadamard_patterns(4, 16)
        result = cstv_reconstruct(readings_like(pset, np.zeros(16)), pset, max_iters=10)
        assert np.all(result.raw == 0)

    def test_phantom_beats_hspi_at_quarter_sampling(self, rng):
        # piecewise-constant 3-block phantom, CR 25%, mild noise
        n = 16
        values = np.zeros((n, n))
        values[2:7, 2:7] = 1.0
        values[9:14, 3:8] = 0.8
        values[3:12, 10:14] = 0.6
        obj = image(values)
        pset = walsh_hadamard_patterns(n, n * n // 4, modulation_depth=1.0)
        meas = measure(obj, pset, noise_sigma=0.05, seed=2)
        hspi_err = np.linalg.norm(hspi_reconstruct(meas, pset).raw - values)
        cstv_err = np.linalg.norm(
            cstv_reconstruct(meas, pset, tv_weight=0.05, max_iters=150).raw - values
        )
        assert cstv_err < hspi_err

    def test_matches_fista_that_encodes_every_point(self, rng, monkeypatch):
        # A y is formed from A x and A z, so one encode per iteration does;
        # the all-zero start reads zero without one
        calls = []
        monkeypatch.setattr(singlepixel.classical, "encode",
                            lambda *args: calls.append(1) or encode(*args))
        pset = walsh_hadamard_patterns(16, 64)
        meas = readings_like(pset, rng.standard_normal(64) * 5)
        result = cstv_reconstruct(meas, pset, tv_weight=5.0, max_iters=40)
        assert len(calls) == 40
        x, history = fista_oracle(meas, pset, 5.0, 40, PROX_ITERATIONS)
        assert 0 in np.diff(history)  # some trial steps were rejected
        assert np.allclose(result.residual_history, history, rtol=1e-12, atol=0)
        assert np.abs(result.raw - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("scene", [slits_32, rectangles_32])
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_warm_prox_keeps_the_quality_of_the_cold_one(self, scene, sigma):
        # the benchmark's CS-TV cell at 32 px: CR 0.25, its default iteration
        # count, scored against the detector-plane image
        pset = walsh_hadamard_patterns(32, 256, modulation_depth=0.9)
        diffracted = diffract(scene(), PropagationSpec(833.3e-6, 0.5e-3, 10.5e-3 / 32))
        meas = measure(diffracted, pset, noise_sigma=sigma, seed=5)
        weight = 1e-3 * float(np.abs(meas.readings).max())  # CS-TV's default
        result = cstv_reconstruct(meas, pset)
        x, history = fista_oracle(meas, pset, weight, DEFAULT_CSTV_ITERATIONS)
        reference = normalize(diffracted.values)
        assert result.residual_history[-1] <= 1.005 * history[-1]
        assert ssim(result.image, reference) >= ssim(normalize(x), reference) - 0.003

    def test_subnormal_weight_solves_as_unregularized(self, rng):
        # tv_weight * step is so small that the prox's dual step overflows
        pset = walsh_hadamard_patterns(8, 20)
        meas = readings_like(pset, rng.standard_normal(20) * 5)
        tiny = cstv_reconstruct(meas, pset, tv_weight=1e-310, max_iters=20)
        plain = cstv_reconstruct(meas, pset, tv_weight=0.0, max_iters=20)
        assert tiny.raw.tobytes() == plain.raw.tobytes()

    def test_objective_monotone_and_output_nonnegative(self, rng):
        n = 8
        pset = walsh_hadamard_patterns(n, 20)
        meas = readings_like(pset, rng.standard_normal(20) * 5)
        result = cstv_reconstruct(meas, pset, max_iters=60)
        history = np.array(result.residual_history)
        assert np.all(np.diff(history) <= 1e-12)
        assert np.all(result.raw >= 0)
        assert result.iterations_used == 60
