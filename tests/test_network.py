import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

from singlepixel.classical import dgi_reconstruct
from singlepixel.errors import ParameterError
from singlepixel.field import IntensityImage
from singlepixel.measurement import measure
from singlepixel.network import BN_EPS, DEFAULT_PLAN, LEAK, GeneratorNet, _Im2col
from singlepixel.patterns import walsh_hadamard_patterns
from singlepixel.prior import AdamState, loss_and_gradient
from singlepixel.propagation import PropagationSpec


def small_net(seed=0):
    return GeneratorNet(plan=(1, 4, 8, 4, 1), seed=seed)


class TestForward:
    def test_output_in_open_unit_interval(self, rng):
        net = small_net()
        out = net.forward(rng.random((8, 8)))
        assert out.shape == (8, 8)
        assert np.all(out > 0) and np.all(out < 1)

    def test_spatial_dimensions_preserved(self, rng):
        net = GeneratorNet(seed=1)
        out = net.forward(rng.random((16, 16)))
        assert out.shape == (16, 16)

    def test_deterministic_for_fixed_parameters(self, rng):
        net = small_net(seed=3)
        x = rng.random((8, 8))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_same_seed_same_parameters(self):
        a, b = small_net(seed=5), small_net(seed=5)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)

    def test_different_seed_different_parameters(self):
        a, b = small_net(seed=5), small_net(seed=6)
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(a.params, b.params))


class TestNetworkGradients:
    def test_backward_matches_finite_differences(self, rng):
        """End-to-end reverse mode through conv/BN/LeakyReLU/sigmoid against
        central differences of a scalar functional of the output."""
        net = small_net(seed=2)
        x = rng.random((8, 8))
        weights = rng.standard_normal((8, 8))

        def scalar():
            return float((net.forward(x) * weights).sum())

        out, cache = net.forward(x, want_cache=True)
        grads = net.backward(weights, cache)
        step = 1e-6
        prng = np.random.default_rng(0)
        for _ in range(40):
            pi = int(prng.integers(len(net.params)))
            flat = net.params[pi].ravel()
            ci = int(prng.integers(flat.size))
            orig = flat[ci]
            flat[ci] = orig + step
            up = scalar()
            flat[ci] = orig - step
            down = scalar()
            flat[ci] = orig
            fd = (up - down) / (2 * step)
            an = grads[pi].ravel()[ci]
            if max(abs(an), abs(fd)) < 1e-9:
                assert abs(an - fd) < 1e-9
            else:
                assert abs(an - fd) / max(abs(an), abs(fd)) < 1e-6


def generator_conv(x, kernel):
    """The convolution of `GeneratorNet.forward`: im2col columns and one GEMM."""
    c, h, w = x.shape
    im2col = _Im2col(c, h, w)
    im2col.interior[...] = x
    return (kernel.reshape(len(kernel), -1) @ im2col.columns()).reshape(-1, h, w)


def generator_input_grad(g, kernel):
    """The input gradient of `GeneratorNet.backward`, through a float64 net."""
    c_out, h, w = g.shape
    net = GeneratorNet(plan=(1, 1))
    return net._input_grad(g.reshape(c_out, -1), kernel, h, w).reshape(-1, h, w)


class TestConvolution:
    @settings(max_examples=40, deadline=None)
    @given(c_in=st.integers(1, 4), c_out=st.integers(1, 4), h=st.integers(1, 9),
           w=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_correlate(self, c_in, c_out, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c_in, h, w))
        kernel = rng.standard_normal((c_out, c_in, 3, 3))
        expected = np.array([
            sum(correlate(x[i], kernel[o, i], mode="same", method="direct") for i in range(c_in))
            for o in range(c_out)
        ])
        out = generator_conv(x, kernel)
        assert out.shape == (c_out, h, w)
        assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    @settings(max_examples=40, deadline=None)
    @given(c_in=st.integers(1, 5), c_out=st.integers(1, 5), h=st.integers(1, 12),
           w=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_input_gradient_is_the_adjoint(self, c_in, c_out, h, w, seed):
        # <conv(x), g> = <x, input_grad(g)> for every x and g
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c_in, h, w))
        g = rng.standard_normal((c_out, h, w))
        kernel = rng.standard_normal((c_out, c_in, 3, 3))
        lhs = float(np.vdot(generator_conv(x, kernel), g))
        rhs = float(np.vdot(x, generator_input_grad(g, kernel)))
        scale = np.abs(generator_conv(x, kernel)).sum() * np.abs(g).max()
        assert abs(lhs - rhs) <= 1e-12 * scale


def _reference_conv(x, kernel, bias):
    """Same-padded 3x3 cross-correlation plus bias, one kernel tap at a time."""
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((kernel.shape[0], h, w)) + bias[:, None, None]
    for a in range(3):
        for b in range(3):
            out += np.einsum("oi,ihw->ohw", kernel[:, :, a, b], xp[:, a : a + h, b : b + w])
    return out


def _reference_conv_backward(g, x, kernel):
    """(dL/dkernel, dL/dbias, dL/dx) of _reference_conv, input gradient by scatter-add."""
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    g_kernel = np.empty_like(kernel)
    g_xp = np.zeros_like(xp)
    for a in range(3):
        for b in range(3):
            g_kernel[:, :, a, b] = np.einsum("ohw,ihw->oi", g, xp[:, a : a + h, b : b + w])
            g_xp[:, a : a + h, b : b + w] += np.einsum("oi,ohw->ihw", kernel[:, :, a, b], g)
    return g_kernel, g.sum(axis=(1, 2)), g_xp[:, 1:-1, 1:-1]


def _reference_pass(net, image, g_output):
    """Textbook forward and backward of the generator, layer by layer.

    BN blocks differentiate batch norm through the mean and the variance
    separately.  Returns (output, gradients in net.params order).
    """
    eps, leak = BN_EPS, LEAK
    act = image[None]
    saved = []
    for layer in range(net.n_blocks):
        kernel, gamma, beta = net.params[3 * layer : 3 * layer + 3]
        z = _reference_conv(act, kernel, np.zeros(len(kernel)))
        mean = z.mean(axis=(1, 2), keepdims=True)
        var = z.var(axis=(1, 2), keepdims=True)
        xhat = (z - mean) / np.sqrt(var + eps)
        y = gamma[:, None, None] * xhat + beta[:, None, None]
        saved.append((act, z, mean, var, xhat, y))
        act = np.where(y > 0, y, leak * y)
    kernel, bias = net.params[3 * net.n_blocks :]
    s = 1.0 / (1.0 + np.exp(-_reference_conv(act, kernel, bias)[0]))

    g_kernel, g_bias, g = _reference_conv_backward((g_output * s * (1 - s))[None], act, kernel)
    grads = [g_kernel, g_bias]
    n = image.size
    for layer in range(net.n_blocks - 1, -1, -1):
        kernel, gamma, _ = net.params[3 * layer : 3 * layer + 3]
        x, z, mean, var, xhat, y = saved[layer]
        gy = np.where(y > 0, g, leak * g)
        g_xhat = gy * gamma[:, None, None]
        g_var = (g_xhat * (z - mean)).sum(axis=(1, 2), keepdims=True) * -0.5 * (var + eps) ** -1.5
        g_mean = (-g_xhat / np.sqrt(var + eps)).sum(axis=(1, 2), keepdims=True) + g_var * (
            -2.0 * (z - mean)
        ).mean(axis=(1, 2), keepdims=True)
        g_z = g_xhat / np.sqrt(var + eps) + g_var * 2.0 * (z - mean) / n + g_mean / n
        g_kernel, _, g = _reference_conv_backward(g_z, x, kernel)
        grads[:0] = [g_kernel, (gy * xhat).sum(axis=(1, 2)), gy.sum(axis=(1, 2))]
    return s, grads


class TestAgainstReference:
    def test_forward_and_backward_match_textbook_layers(self):
        """The fused forward and backward against _reference_pass at three grid
        sizes, one net, every parameter randomized."""
        rng = np.random.default_rng(11)
        net = GeneratorNet(plan=DEFAULT_PLAN, seed=7)
        for layer in range(net.n_blocks):
            weight, gamma, beta = net.params[3 * layer : 3 * layer + 3]
            weight += 0.3 * rng.standard_normal(weight.shape)
            # one unused draw of a per-channel vector per BN block keeps the
            # random data on which the 1e-12 bound below was measured
            rng.standard_normal(len(weight))
            gamma += 0.3 * rng.standard_normal(gamma.shape)
            beta += 0.3 * rng.standard_normal(beta.shape)
        for p in net.params[3 * net.n_blocks :]:
            p += 0.3 * rng.standard_normal(p.shape)
        for n in (8, 32, 64):
            image = rng.random((n, n))
            g_output = rng.standard_normal((n, n))
            expected_out, expected = _reference_pass(net, image, g_output)
            out, cache = net.forward(image, want_cache=True)
            grads = net.backward(g_output, cache)
            assert np.abs(out - expected_out).max() <= 1e-12
            for i, (got, want) in enumerate(zip(grads, expected)):
                assert got.shape == net.params[i].shape
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-12, (n, i, err)


def _layer_arrays(net):
    """Every per-layer buffer and shared backward scratch array of a net."""
    for entry in net._scratch.values():
        for item in entry if isinstance(entry, list) else [entry]:
            for buf in item if isinstance(item, tuple) else (item,):
                if buf is None:
                    continue
                yield from (buf.padded, buf.cols) if hasattr(buf, "cols") else (buf,)


class TestFloat32Layers:
    """A float32 net: float32 layer arithmetic around float64 parameters."""

    def test_forward_and_gradients_match_float64(self):
        rng = np.random.default_rng(11)
        nets = [GeneratorNet(seed=7), GeneratorNet(seed=7, dtype=np.float32)]
        for n in (8, 32, 64):
            image = rng.random((n, n))
            g_output = rng.standard_normal((n, n))
            results = []
            for net in nets:
                out, cache = net.forward(image, want_cache=True)
                results.append((out, net.backward(g_output, cache)))
            (out64, grads64), (out32, grads32) = results
            assert np.abs(out32 - out64).max() <= 1e-5
            for i, (got, want) in enumerate(zip(grads32, grads64)):
                assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max(), (n, i)

    def test_dtypes_after_a_float32_step(self, rng):
        n, pitch = 16, 1e-4
        pset = walsh_hadamard_patterns(n, 64, modulation_depth=0.9)
        meas = measure(IntensityImage(values=(rng.random((n, n)) > 0.5) * 1.0, pitch=pitch), pset)
        inp = dgi_reconstruct(meas, pset, pitch=pitch).image
        prop = PropagationSpec(wavelength=833.3e-6, distance=0.5e-3)
        net = GeneratorNet(seed=2, dtype=np.float32)
        adam = AdamState.for_params(net.params)
        _, grads = loss_and_gradient(net, inp, meas, pset, prop)
        adam.update(net.params, grads)
        out, cache = net.forward(inp.values, want_cache=True)
        layer_arrays = list(_layer_arrays(net))
        # per layer: bordered input and columns, plus x-hat in the BN blocks;
        # then the backward scratch, shared by shape
        assert len(layer_arrays) > 3 * (len(net.plan) - 1) - 1
        assert all(a.dtype == np.float32 for a in layer_arrays)
        float64_arrays = [out, *net.backward(np.ones((n, n)), cache), *grads, *net.params,
                          *adam.m, *adam.v]
        assert all(a.dtype == np.float64 for a in float64_arrays)

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ParameterError, match="float32 or float64"):
            GeneratorNet(plan=(1, 4, 1), dtype=dtype)
