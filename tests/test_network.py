import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

from singlepixel.classical import dgi_reconstruct
from singlepixel.errors import ParameterError
from singlepixel.field import IntensityImage
from singlepixel.measurement import measure
from singlepixel.network import (BN_EPS, DEFAULT_PLAN, LEAK, GeneratorNet, _Bordered, conv,
                                 conv_backward)
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="generator seed -1 is negative"):
            small_net(seed=-1)


class TestNetworkGradients:
    def test_backward_matches_finite_differences(self, rng):
        """End-to-end reverse mode through conv/BN/LeakyReLU/sigmoid against
        central differences of a scalar functional of the output."""
        net = small_net(seed=2)
        x = rng.random((8, 8))
        weights = rng.standard_normal((8, 8))

        def scalar():
            return float((net.forward(x) * weights).sum())

        net.forward(x)
        grads = net.backward(weights)
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


def _storages(c, h, w):
    """Column storage and GEMM output for c channels, sized as the net sizes them."""
    return np.empty(3 * c * (h + 2) * w), np.empty(3 * c * (h + 2) * w)


def generator_conv(x, kernel):
    """The convolution of `GeneratorNet.forward`: three-tap columns and `conv`."""
    (c_out, c_in), (_, h, w) = kernel.shape[:2], x.shape
    storage, gemm_out = _storages(max(c_in, c_out), h, w)
    bordered = _Bordered(c_in, h, w, storage)
    bordered.interior[...] = x
    out = conv(bordered.columns(), kernel, gemm_out, out=np.empty((c_out, h * w)))
    return out.reshape(c_out, h, w)


def generator_conv_grads(x, g, kernel):
    """(weight gradient, input gradient) of `GeneratorNet.backward` for the
    convolution of x with kernel, given g = dL/d(output), on float64 buffers
    that share one column storage as the net's do."""
    (c_out, c_in), (_, h, w) = kernel.shape[:2], x.shape
    storage, gemm_out = _storages(max(c_in, c_out), h, w)
    src, dst = _Bordered(c_in, h, w, storage), _Bordered(c_out, h, w, storage)
    src.interior[...] = x
    buf = np.empty(max(c_in, c_out) * h * w)
    g_weight, g_input = conv_backward(g.reshape(c_out, -1), src, dst, kernel, gemm_out, buf)
    return g_weight, g_input.reshape(c_in, h, w)


def generator_input_grad(g, kernel):
    """The input gradient of `GeneratorNet.backward`; it does not read the input."""
    c_in, (_, h, w) = kernel.shape[1], g.shape
    return generator_conv_grads(np.zeros((c_in, h, w)), g, kernel)[1]


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

    @settings(max_examples=40, deadline=None)
    @given(c_in=st.integers(1, 5), c_out=st.integers(1, 5), h=st.integers(1, 12),
           w=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_weight_gradient_is_the_adjoint(self, c_in, c_out, h, w, seed):
        # <conv(x; W), g> = <W, weight_grad(x, g)> for every W and g: the
        # convolution is linear in W, and the weight gradient is its adjoint
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c_in, h, w))
        g = rng.standard_normal((c_out, h, w))
        kernel = rng.standard_normal((c_out, c_in, 3, 3))
        g_weight, _ = generator_conv_grads(x, g, kernel)
        assert g_weight.shape == kernel.shape and g_weight.dtype == np.float64
        lhs = float(np.vdot(generator_conv(x, kernel), g))
        rhs = float(np.vdot(kernel, g_weight))
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
        """The fused forward and backward against _reference_pass at three
        square grid sizes and two non-square ones, one net, every parameter
        randomized.  A non-square grid catches H and W swapped as the row
        stride of the tap-row offsets, which no square grid shows."""
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
        for shape in ((8, 8), (32, 32), (64, 64), (8, 16), (16, 8)):
            image = rng.random(shape)
            g_output = rng.standard_normal(shape)
            expected_out, expected = _reference_pass(net, image, g_output)
            out = net.forward(image)
            grads = net.backward(g_output)
            assert np.abs(out - expected_out).max() <= 1e-12
            for i, (got, want) in enumerate(zip(grads, expected)):
                assert got.shape == net.params[i].shape
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-12, (shape, i, err)


def _layer_arrays(net):
    """Every array a net keeps between passes: per grid, each bordered buffer
    and its column view, the BN blocks' x-hat, the gradient buffer and the
    GEMM output."""
    for bordered, xhats, grad, gemm_out in net._scratch.values():
        for buffer in bordered:
            yield from (buffer.padded, buffer.cols)
        yield from (*xhats, grad, gemm_out)


def _pre_activations(net, n):
    """Each BN block's pre-activation gamma * x-hat + beta in the last forward
    pass of `net` on an n x n grid, in the net's dtype, as the pass forms it."""
    params = [net._layer_params(layer) for layer in range(net.n_blocks)]
    return [xhat * gamma[:, None] + beta[:, None]
            for xhat, (_, gamma, beta) in zip(net._scratch[(n, n)][1], params)]


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


def _float32_step(n, rng):
    """A float32 default-plan net after one loss_and_gradient and Adam step
    on a random n x n scene; returns (net, input image, gradients, Adam state)."""
    pset = walsh_hadamard_patterns(n, 64, modulation_depth=0.9)
    meas = measure(IntensityImage(values=(rng.random((n, n)) > 0.5) * 1.0), pset)
    inp = dgi_reconstruct(meas, pset).image
    prop = PropagationSpec(wavelength=833.3e-6, distance=0.5e-3, pitch=1e-4)
    net = GeneratorNet(seed=2, dtype=np.float32)
    adam = AdamState.for_params(net.params)
    _, grads = loss_and_gradient(net, inp, meas, pset, prop)
    adam.update(net.params, grads)
    return net, inp, grads, adam


class TestOnePassRecord:
    """`backward` differentiates the last forward pass, once."""

    def test_a_second_backward_raises(self, rng):
        net = small_net()
        x, g = rng.random((8, 8)), rng.standard_normal((8, 8))
        net.forward(x)
        net.backward(g)
        with pytest.raises(ParameterError, match="forward pass"):
            net.backward(g)

    def test_backward_without_a_forward_raises(self, rng):
        with pytest.raises(ParameterError, match="forward pass"):
            small_net().backward(rng.standard_normal((8, 8)))

    def test_backward_follows_the_last_forward(self, rng):
        net = small_net(seed=4)
        first, last = rng.random((8, 8)), rng.random((8, 8))
        g = rng.standard_normal((8, 8))
        net.forward(last)
        expected = net.backward(g)
        net.forward(first)
        net.forward(last)
        for got, want in zip(net.backward(g), expected):
            assert np.array_equal(got, want)


class TestFloat32Layers:
    """A float32 net: float32 layer arithmetic around float64 parameters."""

    def test_forward_and_gradients_match_float64(self):
        """Gradients agree to 1e-4 where both nets put every pre-activation on
        the same side of the LeakyReLU kink.  Float32 round-off may move one
        that sits at the kink across it, which changes the slope there and
        every gradient below; then each such float64 pre-activation must lie
        within round-off of 0 instead."""
        rng = np.random.default_rng(11)
        nets = [GeneratorNet(seed=7), GeneratorNet(seed=7, dtype=np.float32)]
        for n in (8, 32, 64):
            image = rng.random((n, n))
            g_output = rng.standard_normal((n, n))
            results = []
            for net in nets:
                out = net.forward(image)
                results.append((out, _pre_activations(net, n), net.backward(g_output)))
            (out64, pre64, grads64), (out32, pre32, grads32) = results
            assert np.abs(out32 - out64).max() <= 1e-5
            flips = [(y32 > 0) != (y64 > 0) for y32, y64 in zip(pre32, pre64)]
            if any(flip.any() for flip in flips):
                for layer, (flip, y64) in enumerate(zip(flips, pre64)):
                    assert np.all(np.abs(y64[flip]) <= 1e-5 * np.abs(y64).max()), (n, layer)
                continue
            for i, (got, want) in enumerate(zip(grads32, grads64)):
                assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max(), (n, i)

    def test_dtypes_after_a_float32_step(self, rng):
        n = 16
        net, inp, grads, adam = _float32_step(n, rng)
        out = net.forward(inp.values)
        layer_arrays = list(_layer_arrays(net))
        # per plan entry a bordered buffer and its columns, x-hat in the BN
        # blocks, then the one gradient buffer of the backward pass and the
        # one GEMM output of `conv`
        assert len(layer_arrays) == 2 * len(net.plan) + net.n_blocks + 2
        assert all(a.dtype == np.float32 for a in layer_arrays)
        float64_arrays = [out, *net.backward(np.ones((n, n))), *grads, *net.params,
                          *adam.m, *adam.v]
        assert all(a.dtype == np.float64 for a in float64_arrays)

    def test_scratch_budget_at_64(self):
        # the three-tap column matrices of every layer are views of one
        # storage, and every layer's GEMM writes into one output storage of
        # the same size; no column matrix is kept from forward to backward
        n = 64
        net, *_ = _float32_step(n, np.random.default_rng(0))
        (bordered, _, _, gemm_out), = net._scratch.values()
        storages = {id(_owner(buffer.cols)): _owner(buffer.cols) for buffer in bordered}
        size = 3 * max(net.plan) * (n + 2) * n
        assert [a.size for a in storages.values()] == [size]
        assert _owner(gemm_out).size == size and _owner(gemm_out) is not _owner(bordered[0].cols)
        owners = {id(_owner(a)): _owner(a) for a in _layer_arrays(net)}
        assert sum(a.nbytes for a in owners.values()) < 8e6

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ParameterError, match="float32 or float64"):
            GeneratorNet(plan=(1, 4, 1), dtype=dtype)
