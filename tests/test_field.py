import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singlepixel.errors import InvalidFieldError, ParameterError
from singlepixel.field import IntensityImage, normalize
from singlepixel.measurement import diffract, diffract_vjp
from singlepixel.propagation import PropagationSpec, propagate

WAVELENGTH = 833.3e-6


def image(values):
    return IntensityImage(values=np.asarray(values, dtype=float))


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            IntensityImage(values=np.zeros((3, 4)))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            IntensityImage(values=np.zeros((1, 1)))

    def test_rejects_nan(self):
        values = np.zeros((4, 4))
        values[1, 1] = np.nan
        with pytest.raises(InvalidFieldError):
            IntensityImage(values=values)

    def test_rejects_negative_intensity(self):
        values = np.zeros((4, 4))
        values[0, 0] = -1e-9
        with pytest.raises(ParameterError):
            IntensityImage(values=values)

    def test_values_are_frozen(self):
        img = image(np.ones((4, 4)))
        with pytest.raises(ValueError):
            img.values[0, 0] = 2.0


class TestIntensity:
    """The intensity stage |E|^2 of the diffraction chain, `diffract_vjp`."""

    def test_uniform_field(self):
        out, _ = diffract_vjp(np.ones((4, 4)), PropagationSpec(WAVELENGTH, 0.7e-3, 1e-4))
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_modulus_squared(self):
        values = np.zeros((4, 4))
        values[1, 3] = 2.0
        out, _ = diffract_vjp(values, PropagationSpec(WAVELENGTH, 0.0, 1e-4))
        assert out[1, 3] == pytest.approx(2.0, rel=1e-15)

    def test_preserves_grid_metadata(self, rng):
        img = IntensityImage(values=rng.random((8, 16)))
        out = diffract(img, PropagationSpec(WAVELENGTH, 0.4e-3, 3.25e-5))
        assert (out.height, out.width) == (img.height, img.width)

    @given(
        amp=arrays(float, (8, 8), elements=st.floats(0, 10)),
        distance=st.floats(-1e-3, 1e-3),
    )
    @settings(max_examples=25, deadline=None)
    def test_square_of_amplitude_for_any_phase(self, amp, distance):
        # propagation gives the field a phase; the intensity is its |E|^2
        spec = PropagationSpec(WAVELENGTH, distance, 1e-4)
        out, _ = diffract_vjp(amp**2, spec)
        expected = np.abs(propagate(amp.astype(complex), spec)) ** 2
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)

    @given(alpha=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, alpha):
        rng = np.random.default_rng(7)
        values = rng.random((8, 8))
        spec = PropagationSpec(WAVELENGTH, 0.5e-3, 1e-4)
        out, _ = diffract_vjp(values, spec)
        shifted = propagate(np.exp(1j * alpha) * np.sqrt(values), spec)
        assert np.allclose(out, np.abs(shifted) ** 2, rtol=1e-12, atol=1e-12)


def _clip_unit_image(raw):
    """The HSPI and CS-TV rendering that `normalize` replaced, kept as its oracle."""
    clipped = np.maximum(raw, 0.0)
    hi = float(clipped.max())
    if hi <= 0.0:
        return IntensityImage(values=np.zeros_like(raw))
    return IntensityImage(values=clipped / hi)


class TestNormalize:
    def test_simple_values(self):
        assert np.array_equal(normalize(np.array([[0.0, 2.0], [4.0, 0.0]])).values,
                              [[0.0, 0.5], [1.0, 0.0]])

    def test_already_normalized_unchanged(self, rng):
        values = rng.random((4, 4))
        values[0, 0] = 1.0
        assert np.array_equal(normalize(values).values, values)

    def test_constant_image(self):
        assert np.array_equal(normalize(np.full((4, 4), 0.3)).values, np.ones((4, 4)))

    def test_negatives_clip_to_zero(self):
        values = np.array([[-3.0, 2.0], [4.0, -0.5]])
        assert np.array_equal(normalize(values).values, [[0.0, 0.5], [1.0, 0.0]])

    @pytest.mark.parametrize("fill", [0.0, -0.0, -2.5])
    def test_no_positive_value_renders_all_zero(self, fill):
        out = normalize(np.full((4, 4), fill)).values
        assert np.array_equal(out, np.zeros((4, 4))) and not np.signbit(out).any()

    @given(arrays(float, (8, 8), elements=st.floats(-100, 100)))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, values):
        once = normalize(values)
        assert once.values.max() == (1.0 if values.max() > 0 else 0.0)
        assert np.array_equal(normalize(once.values).values, once.values)

    @given(arrays(float, (8, 8), elements=st.floats(0, 100)))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_image_is_divided_by_its_peak(self, values):
        if values.max() > 0:
            assert normalize(values).values.tobytes() == (values / values.max()).tobytes()

    @given(arrays(float, (8, 8), elements=st.floats(-1e300, 1e300)))
    @settings(max_examples=50, deadline=None)
    def test_bytes_of_the_replaced_clip_rendering(self, values):
        assert normalize(values).values.tobytes() == _clip_unit_image(values).values.tobytes()
