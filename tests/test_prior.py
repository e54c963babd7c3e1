import numpy as np
import pytest

import singlepixel.prior as prior
from singlepixel.classical import dgi_reconstruct
from singlepixel.cli import diffract_scene
from singlepixel.errors import NumericalError, ParameterError
from singlepixel.field import IntensityImage, normalize
from singlepixel.measurement import diffract, measure
from singlepixel.metrics import ssim
from singlepixel.network import GeneratorNet
from singlepixel.patterns import walsh_hadamard_patterns
from singlepixel.prior import AdamState, loss_and_gradient, reconstruct_untrained
from singlepixel.propagation import PropagationSpec
from singlepixel.scenes import SceneSpec
from singlepixel.tvreg import tv_anisotropic

WAVELENGTH = 833.3e-6


def instance(rng, n=16, distance=0.5e-3, count=None, sigma=0.0, depth=0.9):
    pset = walsh_hadamard_patterns(n, count or n * n, modulation_depth=depth)
    obj = IntensityImage(values=(rng.random((n, n)) > 0.6).astype(float))
    prop = PropagationSpec(wavelength=WAVELENGTH, distance=distance, pitch=10.5e-3 / 128)
    meas = measure(diffract(obj, prop), pset, noise_sigma=sigma, seed=0)
    return obj, pset, prop, meas


class TestAdam:
    def test_learning_rate_schedule_exact(self):
        adam = AdamState(m=[], v=[])
        for step in range(0, 500):
            assert adam.learning_rate(step) == 0.05 * 0.9 ** (step // 100)

    def test_schedule_applies_during_updates(self):
        params = [np.array([0.0])]
        adam = AdamState.for_params(params)
        for expected_exponent in (0, 0, 0):
            assert adam.learning_rate() == 0.05
            adam.update(params, [np.array([1.0])])
        adam.step = 100
        assert adam.learning_rate() == pytest.approx(0.05 * 0.9)
        adam.step = 250
        assert adam.learning_rate() == pytest.approx(0.05 * 0.9**2)

    def test_update_matches_reference_formula(self):
        params = [np.array([1.0, -2.0])]
        grads = [np.array([0.5, -1.5])]
        adam = AdamState.for_params(params)
        adam.update(params, grads)
        m = 0.1 * grads[0]
        v = 0.001 * grads[0] ** 2
        expected = np.array([1.0, -2.0]) - 0.05 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        assert np.allclose(params[0], expected, atol=1e-12)


class TestLossAndGradient:
    def test_self_consistent_measurement_gives_tv_only_loss(self, rng):
        # measure the generator's own diffracted output: data term vanishes
        obj, pset, prop, _ = instance(rng)
        net = GeneratorNet(plan=(1, 4, 4, 1), seed=0)
        inp = IntensityImage(values=rng.random((16, 16)))
        output = IntensityImage(values=net.forward(inp.values))
        meas = measure(diffract(output, prop), pset)
        tv_weight = 1e-6
        loss, _ = loss_and_gradient(net, inp, meas, pset, prop, tv_weight)
        assert loss == pytest.approx(tv_weight * tv_anisotropic(output.values), rel=1e-6)

    def test_uniform_shift_gradient_matches_finite_difference(self, rng):
        """tv_weight = 0, constant generator output via the head bias: the
        derivative of the data term w.r.t. that bias is checked against a
        central difference."""
        obj, pset, prop, meas = instance(rng)
        net = GeneratorNet(plan=(1, 4, 4, 1), seed=1)
        inp = IntensityImage(values=rng.random((16, 16)))
        head_bias = net.params[-1]

        def loss_only():
            return loss_and_gradient(net, inp, meas, pset, prop, 0.0)[0]

        _, grads = loss_and_gradient(net, inp, meas, pset, prop, 0.0)
        step = 1e-5
        head_bias[0] += step
        up = loss_only()
        head_bias[0] -= 2 * step
        down = loss_only()
        head_bias[0] += step
        fd = (up - down) / (2 * step)
        assert abs(fd - grads[-1][0]) / abs(fd) < 1e-4

    def test_full_chain_gradient_on_random_parameters(self, rng):
        obj, pset, prop, meas = instance(rng)
        net = GeneratorNet(plan=(1, 4, 8, 4, 1), seed=5)
        inp = IntensityImage(values=rng.random((16, 16)))

        def loss_only():
            return loss_and_gradient(net, inp, meas, pset, prop, 1e-10)[0]

        _, grads = loss_and_gradient(net, inp, meas, pset, prop, 1e-10)
        step = 1e-5
        prng = np.random.default_rng(11)
        max_rel = 0.0
        for _ in range(50):
            pi = int(prng.integers(len(net.params)))
            flat = net.params[pi].ravel()
            ci = int(prng.integers(flat.size))
            orig = flat[ci]
            flat[ci] = orig + step
            up = loss_only()
            flat[ci] = orig - step
            down = loss_only()
            flat[ci] = orig
            fd = (up - down) / (2 * step)
            an = grads[pi].ravel()[ci]
            if max(abs(an), abs(fd)) < 1e-6:
                # structurally zero gradients (conv bias under BN): finite
                # differences see only rounding noise
                assert abs(an - fd) < 1e-6
            else:
                max_rel = max(max_rel, abs(fd - an) / max(abs(fd), abs(an)))
        assert max_rel < 1e-4


class TestReconstructUntrained:
    def test_two_bar_phantom_reaches_high_ssim(self):
        n = 32
        values = np.zeros((n, n))
        values[8:24, 6:12] = 1.0
        values[8:24, 20:26] = 1.0
        obj = IntensityImage(values=values)
        pset = walsh_hadamard_patterns(n, n * n, modulation_depth=0.9)
        meas = measure(obj, pset)
        prop = PropagationSpec(wavelength=WAVELENGTH, distance=0.0, pitch=10.5e-3 / 64)
        result = reconstruct_untrained(meas, pset, prop, iterations=300, seed=0)
        assert ssim(normalize(result.image.values), obj) > 0.9

    def test_loss_trend_decreases_over_windows(self, rng):
        obj, pset, prop, meas = instance(rng, n=16, count=128)
        result = reconstruct_untrained(meas, pset, prop, iterations=150, seed=0)
        history = np.array(result.residual_history)
        assert history[-1] < history[0]
        windows = [history[i : i + 50].mean() for i in range(0, 150, 50)]
        assert all(b < a for a, b in zip(windows, windows[1:]))

    def test_seeded_determinism(self, rng):
        obj, pset, prop, meas = instance(rng, n=16, count=64)
        a = reconstruct_untrained(meas, pset, prop, iterations=5, seed=3)
        b = reconstruct_untrained(meas, pset, prop, iterations=5, seed=3)
        assert np.array_equal(a.image.values, b.image.values)
        assert a.residual_history == b.residual_history

    def test_default_float32_net_matches_float64(self):
        """The default generator (float32 layers) against an explicit float64
        one, at the untrained-64 benchmark's geometry, scene noise and first
        generator seed, over that benchmark's 50 iterations."""
        spec = SceneSpec(grid=64, fov=10.5e-3, wavelength=WAVELENGTH, distance=0.5e-3,
                         object_kind="three_slit", slit_widths=(2e-3, 1.5e-3, 1.5e-3),
                         slit_separations=(0.6e-3, 0.6e-3), noise_sigma=0.5, seed=1813382119)
        obj, diffracted = diffract_scene(spec)
        pset = walsh_hadamard_patterns(64, 1024, modulation_depth=spec.modulation_depth)
        meas = measure(diffracted, pset, noise_sigma=spec.noise_sigma, seed=spec.seed)
        prop = spec.propagation()
        seed = 827308000
        default = reconstruct_untrained(meas, pset, prop, iterations=50, seed=seed)
        exact = reconstruct_untrained(meas, pset, prop, iterations=50, seed=seed,
                                      net=GeneratorNet(seed=seed, dtype=np.float64))
        assert np.abs(default.image.values - exact.image.values).max() <= 1e-4
        assert abs(ssim(default.image, obj) - ssim(exact.image, obj)) <= 1e-3

    def test_iterations_must_be_positive(self, rng):
        obj, pset, prop, meas = instance(rng)
        with pytest.raises(ParameterError):
            reconstruct_untrained(meas, pset, prop, iterations=0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
    def test_bad_tv_weight_rejected_before_a_net_is_built(self, rng, monkeypatch, weight):
        obj, pset, prop, meas = instance(rng)
        message = f"tv_weight {weight} is not finite and >= 0"
        net = GeneratorNet(plan=(1, 4, 4, 1), seed=0)
        with pytest.raises(ParameterError, match=message):
            loss_and_gradient(net, obj, meas, pset, prop, weight)

        def no_net(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(prior, "GeneratorNet", no_net)
        with pytest.raises(ParameterError, match=message):
            reconstruct_untrained(meas, pset, prop, iterations=3, tv_weight=weight)

    def test_numerical_error_names_stage_and_iteration_once(self, rng, monkeypatch):
        obj, pset, prop, meas = instance(rng)

        def failing_step(*args):
            raise NumericalError("x", stage="loss")

        monkeypatch.setattr(prior, "loss_and_gradient", failing_step)
        with pytest.raises(NumericalError) as info:
            reconstruct_untrained(meas, pset, prop, iterations=3)
        assert str(info.value) == "x (stage: loss) (iteration 0)"
        assert (info.value.message, info.value.stage, info.value.iteration) == ("x", "loss", 0)


class TestPriorInput:
    def test_input_is_normalized_dgi_estimate(self, rng):
        obj, pset, prop, meas = instance(rng, n=16, count=128)
        inp = dgi_reconstruct(meas, pset).image
        assert inp.values.min() >= 0.0
        assert inp.values.max() == pytest.approx(1.0)
