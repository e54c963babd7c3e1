import numpy as np
import pytest

from singlepixel.errors import ParameterError
from singlepixel.propagation import PropagationSpec, _transfer, propagate, transfer_gradient
from singlepixel.scenes import SceneSpec, build_scene

from conftest import band_limited_field, random_field, total_power

WAVELENGTH = 833.3e-6


def spec(distance, pitch=1e-4):
    return PropagationSpec(wavelength=WAVELENGTH, distance=distance, pitch=pitch)


EVANESCENT_PITCH = WAVELENGTH / 4
BAND_PITCH = 2e-4


def pure_evanescent_field():
    """One plane-wave bin at u = v = 1: pitch = wavelength/4 (EVANESCENT_PITCH)
    puts bin (4, 4) of a 16-grid there, so u^2 + v^2 = 2 and the decay rate
    is exactly k*d."""
    spectrum = np.zeros((16, 16), complex)
    spectrum[4, 4] = 1.0
    return np.fft.ifft2(spectrum)


class TestSpecValidation:
    def test_wavelength_positive(self):
        with pytest.raises(ParameterError):
            PropagationSpec(wavelength=0.0, distance=1e-3, pitch=1e-4)

    def test_distance_finite(self):
        with pytest.raises(ParameterError):
            PropagationSpec(wavelength=1e-3, distance=float("inf"), pitch=1e-4)

    def test_pitch_positive_and_finite(self):
        for pitch in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="pixel pitch"):
                PropagationSpec(wavelength=1e-3, distance=1e-3, pitch=pitch)


class TestPropagate:
    def test_zero_distance_identity(self, rng):
        fld = random_field(rng)
        out = propagate(fld, spec(0.0))
        assert np.abs(out - fld).max() < 1e-12

    def test_plane_wave_phase(self):
        s = spec(0.7e-3)
        out = propagate(np.ones((16, 16), complex), s)
        expected = np.exp(1j * s.wavenumber * s.distance)
        assert np.abs(out - expected).max() < 1e-12
        assert np.allclose(np.abs(out) ** 2, 1.0, atol=1e-12)

    def test_pure_evanescent_bin_decay(self):
        fld = pure_evanescent_field()
        s = spec(0.2e-3, EVANESCENT_PITCH)
        out = propagate(fld, s)
        ratio = np.abs(out).max() / np.abs(fld).max()
        assert ratio == pytest.approx(np.exp(-s.wavenumber * s.distance), rel=1e-12)

    def test_three_slit_blurs_at_half_millimeter(self):
        scene = SceneSpec(
            grid=128, fov=10.5e-3, wavelength=WAVELENGTH, distance=0.5e-3,
            object_kind="three_slit",
            slit_widths=(1217e-6, 884e-6, 920e-6),
            slit_separations=(118e-6, 118e-6),
        )
        obj = build_scene(scene)
        out = np.abs(propagate(np.sqrt(obj.values).astype(complex), spec(0.5e-3, scene.pitch))) ** 2
        # Gap columns fill in relative to the unpropagated mask.
        gaps = obj.values.max(axis=0) == 0
        assert out.mean(axis=0)[~gaps].min() >= 0  # sanity
        blurred = out.mean(axis=0)
        sharp = obj.values.mean(axis=0)
        gap_fill = blurred[gaps].max() / blurred.max()
        assert sharp[gaps].max() == 0.0
        assert gap_fill > 0.3

    @pytest.mark.parametrize("distance", [-0.2e-3, -1e-3])
    def test_backpropagation_zeroes_the_evanescent_band(self, distance):
        out = propagate(pure_evanescent_field(), spec(distance, EVANESCENT_PITCH))
        assert np.all(out == 0)


class TestOperatorProperties:
    def test_energy_conservation_on_propagating_band(self, rng):
        fld = band_limited_field(rng, 64, BAND_PITCH, WAVELENGTH)
        out = propagate(fld, spec(1.3e-3, BAND_PITCH))
        assert total_power(out) == pytest.approx(total_power(fld), rel=1e-10)

    def test_semigroup_composition(self, rng):
        fld = band_limited_field(rng, 64, BAND_PITCH, WAVELENGTH)
        two_steps = propagate(propagate(fld, spec(0.3e-3, BAND_PITCH)), spec(0.9e-3, BAND_PITCH))
        one_step = propagate(fld, spec(1.2e-3, BAND_PITCH))
        scale = np.abs(one_step).max()
        assert np.abs(two_steps - one_step).max() / scale < 1e-10

    def test_evanescent_decay_monotone_in_distance(self):
        fld = pure_evanescent_field()
        amp1 = np.abs(propagate(fld, spec(0.1e-3, EVANESCENT_PITCH))).max()
        amp2 = np.abs(propagate(fld, spec(0.25e-3, EVANESCENT_PITCH))).max()
        assert amp2 < amp1

    def test_inverse_consistency_with_zero_policy(self, rng):
        fld = band_limited_field(rng, 32, BAND_PITCH, WAVELENGTH)
        forward = propagate(fld, spec(0.8e-3, BAND_PITCH))
        back = propagate(forward, spec(-0.8e-3, BAND_PITCH))
        scale = np.abs(fld).max()
        assert np.abs(back - fld).max() / scale < 1e-10


class TestTransferGradient:
    def test_unitary_on_band_with_zero_policy(self, rng):
        fld = band_limited_field(rng, 32, BAND_PITCH, WAVELENGTH)
        s = spec(0.6e-3, BAND_PITCH)
        restored = transfer_gradient(propagate(fld, s), s)
        scale = np.abs(fld).max()
        assert np.abs(restored - fld).max() / scale < 1e-12

    @pytest.mark.parametrize("distance", [0.5e-3, -0.4e-3, 0.7e-3, 0.0])
    def test_adjoint_identity(self, rng, distance):
        s = spec(distance)
        x = random_field(rng, n=16)
        y = random_field(rng, n=16)
        # inner products by direct summation
        lhs = np.sum(np.conj(propagate(x, s)) * y)
        rhs = np.sum(np.conj(x) * transfer_gradient(y, s))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    @pytest.mark.parametrize("distance", [0.5e-3, -0.4e-3])
    def test_adjoint_identity_on_a_cached_transfer(self, rng, distance):
        s = spec(distance, 1.3e-4)
        x = random_field(rng, n=32)
        y = random_field(rng, n=32)
        first = propagate(x, s)
        transfer = _transfer(32, 32, s)
        assert _transfer(32, 32, spec(distance, 1.3e-4)) is transfer
        assert not transfer.flags.writeable
        # the cached H gives the same bits as a first build, and the pair stays adjoint
        assert np.array_equal(propagate(x, s), first)
        assert np.array_equal(transfer, _transfer.__wrapped__(32, 32, s))
        lhs = np.sum(np.conj(propagate(x, s)) * y)
        rhs = np.sum(np.conj(x) * transfer_gradient(y, s))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_zero_upstream_gives_zero(self):
        out = transfer_gradient(np.zeros((16, 16), complex), spec(0.5e-3))
        assert np.all(out == 0)
