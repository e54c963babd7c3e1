import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singlepixel.errors import DegenerateInputError, InvalidFieldError, ParameterError
from singlepixel.field import IntensityImage, normalize
from singlepixel.measurement import diffract, diffract_vjp
from singlepixel.propagation import PropagationSpec, propagate

WAVELENGTH = 833.3e-6


def image(values, pitch=1e-4):
    return IntensityImage(values=np.asarray(values, dtype=float), pitch=pitch)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            IntensityImage(values=np.zeros((3, 4)), pitch=1e-4)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            IntensityImage(values=np.zeros((1, 1)), pitch=1e-4)

    def test_rejects_bad_pitch(self):
        with pytest.raises(ParameterError):
            IntensityImage(values=np.zeros((4, 4)), pitch=0.0)

    def test_rejects_nan(self):
        values = np.zeros((4, 4))
        values[1, 1] = np.nan
        with pytest.raises(InvalidFieldError):
            IntensityImage(values=values, pitch=1e-4)

    def test_rejects_negative_intensity(self):
        values = np.zeros((4, 4))
        values[0, 0] = -1e-9
        with pytest.raises(ParameterError):
            IntensityImage(values=values, pitch=1e-4)

    def test_values_are_frozen(self):
        img = image(np.ones((4, 4)))
        with pytest.raises(ValueError):
            img.values[0, 0] = 2.0


class TestIntensity:
    """The intensity stage |E|^2 of the diffraction chain, `diffract_vjp`."""

    def test_uniform_field(self):
        out, _ = diffract_vjp(np.ones((4, 4)), 1e-4, PropagationSpec(WAVELENGTH, 0.7e-3))
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_modulus_squared(self):
        values = np.zeros((4, 4))
        values[1, 3] = 2.0
        out, _ = diffract_vjp(values, 1e-4, PropagationSpec(WAVELENGTH, 0.0))
        assert out[1, 3] == pytest.approx(2.0, rel=1e-15)

    def test_preserves_grid_metadata(self, rng):
        img = IntensityImage(values=rng.random((8, 8)), pitch=3.25e-5)
        assert diffract(img, PropagationSpec(WAVELENGTH, 0.4e-3)).pitch == img.pitch

    @given(
        amp=arrays(float, (8, 8), elements=st.floats(0, 10)),
        distance=st.floats(-1e-3, 1e-3),
    )
    @settings(max_examples=25, deadline=None)
    def test_square_of_amplitude_for_any_phase(self, amp, distance):
        # propagation gives the field a phase; the intensity is its |E|^2
        spec = PropagationSpec(WAVELENGTH, distance)
        out, _ = diffract_vjp(amp**2, 1e-4, spec)
        expected = np.abs(propagate(amp.astype(complex), 1e-4, spec)) ** 2
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)

    @given(alpha=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, alpha):
        rng = np.random.default_rng(7)
        values = rng.random((8, 8))
        spec = PropagationSpec(WAVELENGTH, 0.5e-3)
        out, _ = diffract_vjp(values, 1e-4, spec)
        shifted = propagate(np.exp(1j * alpha) * np.sqrt(values), 1e-4, spec)
        assert np.allclose(out, np.abs(shifted) ** 2, rtol=1e-12, atol=1e-12)


class TestNormalize:
    def test_simple_values(self):
        img = image([[0.0, 2.0], [4.0, 0.0]])
        assert np.array_equal(normalize(img).values, [[0.0, 0.5], [1.0, 0.0]])

    def test_already_normalized_unchanged(self, rng):
        values = rng.random((4, 4))
        values[0, 0] = 1.0
        img = image(values)
        assert np.array_equal(normalize(img).values, values)

    def test_constant_image(self):
        img = image(np.full((4, 4), 0.3))
        assert np.array_equal(normalize(img).values, np.ones((4, 4)))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(image(np.zeros((4, 4))))

    @given(arrays(float, (8, 8), elements=st.floats(0, 100)))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, values):
        if values.max() <= 0:
            return
        once = normalize(image(values))
        twice = normalize(once)
        assert np.array_equal(once.values, twice.values)
