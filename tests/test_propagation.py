import numpy as np
import pytest

from singlepixel.errors import ParameterError
from singlepixel.field import ComplexField, intensity
from singlepixel.propagation import PropagationSpec, _transfer, propagate, transfer_gradient
from singlepixel.scenes import SceneSpec, build_scene

from conftest import band_limited_field, random_field, total_power

WAVELENGTH = 833.3e-6


def spec(distance):
    return PropagationSpec(wavelength=WAVELENGTH, distance=distance)


def pure_evanescent_field():
    """One plane-wave bin at u = v = 1: pitch = wavelength/4 puts bin (4, 4)
    of a 16-grid there, so u^2 + v^2 = 2 and the decay rate is exactly k*d."""
    n, pitch = 16, WAVELENGTH / 4
    spectrum = np.zeros((n, n), complex)
    spectrum[4, 4] = 1.0
    return ComplexField(values=np.fft.ifft2(spectrum), pitch=pitch)


class TestSpecValidation:
    def test_wavelength_positive(self):
        with pytest.raises(ParameterError):
            PropagationSpec(wavelength=0.0, distance=1e-3)

    def test_distance_finite(self):
        with pytest.raises(ParameterError):
            PropagationSpec(wavelength=1e-3, distance=float("inf"))


class TestPropagate:
    def test_zero_distance_identity(self, rng):
        fld = random_field(rng)
        out = propagate(fld, spec(0.0))
        assert np.abs(out.values - fld.values).max() < 1e-12

    def test_plane_wave_phase(self):
        fld = ComplexField(values=np.ones((16, 16), complex), pitch=1e-4)
        s = spec(0.7e-3)
        out = propagate(fld, s)
        expected = np.exp(1j * s.wavenumber * s.distance)
        assert np.abs(out.values - expected).max() < 1e-12
        assert np.allclose(intensity(out).values, 1.0, atol=1e-12)

    def test_pure_evanescent_bin_decay(self):
        fld = pure_evanescent_field()
        s = spec(0.2e-3)
        out = propagate(fld, s)
        ratio = np.abs(out.values).max() / np.abs(fld.values).max()
        assert ratio == pytest.approx(np.exp(-s.wavenumber * s.distance), rel=1e-12)

    def test_three_slit_blurs_at_half_millimeter(self):
        scene = SceneSpec(
            grid=128, fov=10.5e-3, wavelength=WAVELENGTH, distance=0.5e-3,
            object_kind="three_slit",
            slit_widths=(1217e-6, 884e-6, 920e-6),
            slit_separations=(118e-6, 118e-6),
        )
        obj = build_scene(scene)
        fld = ComplexField(values=np.sqrt(obj.values).astype(complex), pitch=scene.pitch)
        out = intensity(propagate(fld, spec(0.5e-3)))
        # Gap columns fill in relative to the unpropagated mask.
        gaps = obj.values.max(axis=0) == 0
        assert out.values.mean(axis=0)[~gaps].min() >= 0  # sanity
        blurred = out.values.mean(axis=0)
        sharp = obj.values.mean(axis=0)
        gap_fill = blurred[gaps].max() / blurred.max()
        assert sharp[gaps].max() == 0.0
        assert gap_fill > 0.3

    @pytest.mark.parametrize("distance", [-0.2e-3, -1e-3])
    def test_backpropagation_zeroes_the_evanescent_band(self, distance):
        out = propagate(pure_evanescent_field(), spec(distance))
        assert np.all(out.values == 0)


class TestOperatorProperties:
    def test_energy_conservation_on_propagating_band(self, rng):
        fld = band_limited_field(rng, 64, 2e-4, WAVELENGTH)
        out = propagate(fld, spec(1.3e-3))
        assert total_power(out) == pytest.approx(total_power(fld), rel=1e-10)

    def test_semigroup_composition(self, rng):
        fld = band_limited_field(rng, 64, 2e-4, WAVELENGTH)
        two_steps = propagate(propagate(fld, spec(0.3e-3)), spec(0.9e-3))
        one_step = propagate(fld, spec(1.2e-3))
        scale = np.abs(one_step.values).max()
        assert np.abs(two_steps.values - one_step.values).max() / scale < 1e-10

    def test_evanescent_decay_monotone_in_distance(self):
        fld = pure_evanescent_field()
        amp1 = np.abs(propagate(fld, spec(0.1e-3)).values).max()
        amp2 = np.abs(propagate(fld, spec(0.25e-3)).values).max()
        assert amp2 < amp1

    def test_inverse_consistency_with_zero_policy(self, rng):
        fld = band_limited_field(rng, 32, 2e-4, WAVELENGTH)
        forward = propagate(fld, spec(0.8e-3))
        back = propagate(forward, spec(-0.8e-3))
        scale = np.abs(fld.values).max()
        assert np.abs(back.values - fld.values).max() / scale < 1e-10


class TestTransferGradient:
    def test_unitary_on_band_with_zero_policy(self, rng):
        fld = band_limited_field(rng, 32, 2e-4, WAVELENGTH)
        s = spec(0.6e-3)
        restored = transfer_gradient(propagate(fld, s), s)
        scale = np.abs(fld.values).max()
        assert np.abs(restored.values - fld.values).max() / scale < 1e-12

    @pytest.mark.parametrize("distance", [0.5e-3, -0.4e-3, 0.7e-3, 0.0])
    def test_adjoint_identity(self, rng, distance):
        s = spec(distance)
        x = random_field(rng, n=16)
        y = random_field(rng, n=16)
        # inner products by direct summation
        lhs = np.sum(np.conj(propagate(x, s).values) * y.values)
        rhs = np.sum(np.conj(x.values) * transfer_gradient(y, s).values)
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    @pytest.mark.parametrize("distance", [0.5e-3, -0.4e-3])
    def test_adjoint_identity_on_a_cached_transfer(self, rng, distance):
        s = spec(distance)
        x = random_field(rng, n=32, pitch=1.3e-4)
        y = random_field(rng, n=32, pitch=1.3e-4)
        first = propagate(x, s).values
        transfer = _transfer(32, 32, 1.3e-4, s)
        assert _transfer(32, 32, 1.3e-4, spec(distance)) is transfer
        assert not transfer.flags.writeable
        # the cached H gives the same bits as a first build, and the pair stays adjoint
        assert np.array_equal(propagate(x, s).values, first)
        assert np.array_equal(transfer, _transfer.__wrapped__(32, 32, 1.3e-4, s))
        lhs = np.sum(np.conj(propagate(x, s).values) * y.values)
        rhs = np.sum(np.conj(x.values) * transfer_gradient(y, s).values)
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_zero_upstream_gives_zero(self):
        fld = ComplexField(values=np.zeros((16, 16), complex), pitch=1e-4)
        out = transfer_gradient(fld, spec(0.5e-3))
        assert np.all(out.values == 0)
