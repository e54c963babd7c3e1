import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singlepixel.errors import DegenerateInputError, InvalidFieldError, ParameterError
from singlepixel.field import ComplexField, IntensityImage, intensity, normalize


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
            ComplexField(values=values.astype(complex), pitch=1e-4)

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
    def test_uniform_field(self):
        fld = ComplexField(values=np.ones((4, 4), complex), pitch=1e-4)
        assert np.array_equal(intensity(fld).values, np.ones((4, 4)))

    def test_modulus_squared(self):
        values = np.zeros((4, 4), complex)
        values[1, 3] = 1 + 1j
        fld = ComplexField(values=values, pitch=1e-4)
        assert intensity(fld).values[1, 3] == pytest.approx(2.0, rel=1e-15)

    def test_preserves_grid_metadata(self, rng):
        fld = ComplexField(values=rng.standard_normal((8, 8)) + 0j, pitch=3.25e-5)
        assert intensity(fld).pitch == fld.pitch

    @given(
        amp=arrays(float, (8, 8), elements=st.floats(0, 10)),
        phase=arrays(float, (8, 8), elements=st.floats(-10, 10)),
    )
    @settings(max_examples=25, deadline=None)
    def test_square_of_amplitude_for_any_phase(self, amp, phase):
        out = intensity(ComplexField(values=amp * np.exp(1j * phase), pitch=1e-4))
        assert np.allclose(out.values, amp**2, rtol=1e-12, atol=1e-12)

    @given(alpha=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, alpha):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = ComplexField(values=base, pitch=1e-4)
        b = ComplexField(values=np.exp(1j * alpha) * base, pitch=1e-4)
        assert np.allclose(intensity(a).values, intensity(b).values, rtol=1e-12, atol=1e-12)


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
