"""Small convolutional decoder with hand-written reverse-mode gradients.

Architecture: a chain of (3x3 same-padded conv -> batch norm -> LeakyReLU)
blocks followed by a 1-channel 3x3 conv head squashed by a sigmoid, so the
output is an image in (0, 1) on the same grid as the input.  The channel
plan DEFAULT_PLAN = (1, 8, 16, 16, 8, 1) was chosen by measurement
(`studies/generator_width.py`, results in STUDY_2026-10-20-width.csv): on
FIG4C through the silicon wafer, in both geometries, noiseless and at 5%
noise over 8 seeds, it is the plan with the fewest weights that passes the
float32 check and resolves the gaps as often, at a median SSIM as high, as
the wider (1, 16, 32, 32, 16, 1).  It has a quarter of that plan's weights,
and an untrained fit runs about twice as fast.  Batch
normalization always uses the statistics of the current pass: the generator
is fitted to one measurement set, as in deep image prior, and has no separate
inference mode.  The LeakyReLU slope LEAK and the batch-norm stabilizer
BN_EPS are constants of the method.

The backward pass is exact reverse-mode differentiation of the forward
pass, including the dependence of the batch statistics on the input;
correctness is pinned by finite-difference tests and by a per-layer
reference implementation in the tests, both on float64 nets.

Dtype split.  The convolutions, batch norm and LeakyReLU run in the net's
`dtype` (float64 by default; the untrained reconstructor uses float32, which
halves every byte those memory-bound passes move).  Every per-layer buffer
and the backward scratch are in that dtype, and each pass casts the weights,
gamma and beta it reads.  Everything the optimizer and the physics see stays
float64: the parameters, the head's bias and sigmoid output, the incoming
output gradient and every returned gradient.  A float32 net therefore has
float64 master weights.

Buffers.  Per grid size, every entry of the channel plan owns a
zero-bordered (C, H+2, W+2) buffer, and each BN block a (C_out, H*W)
convolution output that batch norm turns into x-hat in place.  A block writes
its activation straight into the interior of the next layer's bordered
buffer, so the border is written once, when the buffer is made.  The net
keeps a record of its last forward pass, and `backward` consumes it, so each
forward pass serves at most one backward pass.

Convolution by three-tap columns (memory-efficient convolution, Cho & Brand,
ICML 2017).  One strided copy builds columns for the horizontal taps only:
row 3*c + kx holds all H+2 bordered rows of channel c shifted left by kx, a
(3*C, (H+2)*W) matrix.  One GEMM of the kernel stacked by tap row against it
gives Y, (3*C_out, (H+2)*W), and tap row ky is then a row offset of ky*W:
z = Y_0[:, 0:HW] + Y_1[:, W:W+HW] + Y_2[:, 2W:2W+HW].  All layers share two
flat storages of 3*max(plan)*(H+2)*W elements, one for the columns and one
for Y; both are consumed by the layer that fills them, in both passes, so no
column matrix outlives its layer.  Between convolutions, Y's storage is the
scratch of the elementwise steps (scale, shift and leak forward; the
LeakyReLU slope and batch norm's x-hat term backward), so no step allocates
a temporary the size of a layer.  The forward pass leaves x-hat for batch
norm and the activations, whose sign is that of the pre-activation because
the leak is positive.  Backward works top down: once a layer's LeakyReLU
slope is read, its bordered buffer takes the upstream gradient g = dL/dz
instead, and the one column matrix of g serves both gradients.  The input
gradient is the convolution of g with the flipped, channel-transposed
kernel; the weight gradient follows from

    dL/dW[o, c, 2-ky, 2-kx] = sum_p cols(g)[3*o + kx, p + ky*W] * a[c, p],

one (3*C_out, H*W) @ (H*W, C_in) GEMM per tap row against a contiguous copy
of the layer input a.  The head's g has a 1-channel bordered buffer of its
own.  The first layer's input gradient is not formed, since the network
input is fixed.

No conv bias in BN blocks.  Batch norm subtracts the per-channel mean, which
cancels a conv bias exactly, so only the head's convolution has a bias.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

DEFAULT_PLAN = (1, 8, 16, 16, 8, 1)
# Python floats, not numpy scalars: a float64 scalar would promote the
# float32 layers to float64.
LEAK = 0.2  # in (0, 1]: max(y, LEAK*y) and the sign rule of backward need it
BN_EPS = 1e-3


class _Bordered:
    """Zero-bordered (C, H+2, W+2) buffer and its three-tap columns.

    Callers write into `interior`; the border is zeroed once, here.
    `columns()` fills the (3*C, (H+2)*W) column matrix with one strided copy:
    row 3*c + kx holds channel c of all H+2 bordered rows shifted left by kx,
    `cols[3*c + kx, r*W + x] = padded[c, r, x + kx]`.  The matrix is a view of
    the first 3*C*(H+2)*W elements of the flat `storage`, which sets the dtype
    and may be shared with other buffers of the same grid.  `tap_rows` views
    it as (3, 3*C, H*W): `tap_rows[ky]` is its H*W columns from bordered row ky on.
    """

    def __init__(self, c: int, h: int, w: int, storage: np.ndarray):
        self.padded = np.zeros((c, h + 2, w + 2), dtype=storage.dtype)
        self.interior = self.padded[:, 1:-1, 1:-1]
        self.cols = storage[: 3 * c * (h + 2) * w].reshape(3 * c, (h + 2) * w)
        windows = np.lib.stride_tricks.sliding_window_view(self.padded, 3, axis=2)
        self._windows = windows.transpose(0, 3, 1, 2)
        self._cols4 = self.cols.reshape(c, 3, h + 2, w)
        shifts = np.lib.stride_tricks.sliding_window_view(self.cols, h * w, axis=1)
        self.tap_rows = shifts[:, ::w].transpose(1, 0, 2)

    def columns(self) -> np.ndarray:
        np.copyto(self._cols4, self._windows)
        return self.cols


def flip_kernel(weight: np.ndarray) -> np.ndarray:
    """(C_out, C_in, 3, 3) -> (C_in, C_out, 3, 3), each kernel rotated 180 degrees.

    Convolving with this kernel is the adjoint of convolving with `weight`.
    """
    return weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def conv(cols: np.ndarray, weight: np.ndarray, gemm_out: np.ndarray, out: np.ndarray):
    """Same-padded 3x3 convolution of the input whose three-tap columns are
    `cols`, written into `out` (C_out, H*W) and returned.

    One GEMM of the kernel stacked by tap row, Wk[ky*C_out + o, 3*c + kx] =
    weight[o, c, ky, kx], against the columns fills Y in `gemm_out`, a flat
    array of at least 3*C_out*(H+2)*W elements.  Tap row ky then reads Y's
    block ky at a row offset of ky*W: z = Y_0[:, 0:HW] + Y_1[:, W:W+HW] +
    Y_2[:, 2W:2W+HW].
    """
    c_out = weight.shape[0]
    hw = out.shape[1]
    w = (cols.shape[1] - hw) // 2
    stacked = weight.transpose(2, 0, 1, 3).reshape(3 * c_out, -1)
    y = gemm_out[: 3 * c_out * cols.shape[1]].reshape(3 * c_out, -1)
    np.matmul(stacked, cols, out=y)
    np.add(y[:c_out, :hw], y[c_out : 2 * c_out, w : w + hw], out=out)
    out += y[2 * c_out :, 2 * w : 2 * w + hw]
    return out


def conv_backward(g: np.ndarray, src: _Bordered, dst: _Bordered, weight: np.ndarray,
                  gemm_out: np.ndarray, buf: np.ndarray, input_grad: bool = True):
    """Gradients of z = conv(a; weight), a in `src.interior`, given g = dL/dz.

    g is (C_out, H*W) and may be a view of `buf`, a flat array of at least
    max(C_in, C_out)*H*W elements.  g is written into `dst`, whose columns
    then serve both gradients; `gemm_out` is `conv`'s.  Returns (dL/dweight
    in float64, dL/da as (C_in, H*W) in `buf`), with None for dL/da unless
    `input_grad`.
    """
    (c_out, c_in), hw = weight.shape[:2], g.shape[1]
    dst.interior[...] = g.reshape(dst.interior.shape)
    cols = dst.columns()
    # a contiguous copy of the layer input, read by the weight-gradient GEMMs
    # before the input gradient overwrites it
    a = buf[: c_in * hw].reshape(c_in, hw)
    np.copyto(a.reshape(src.interior.shape), src.interior)
    # one GEMM per tap row: taps[ky, o, kx, c] = dL/dW[o, c, 2-ky, 2-kx]
    taps = (dst.tap_rows @ a.T).reshape(3, c_out, 3, c_in)
    g_weight = np.ascontiguousarray(taps.transpose(1, 3, 0, 2)[:, :, ::-1, ::-1], dtype=np.float64)
    if not input_grad:
        return g_weight, None
    return g_weight, conv(cols, flip_kernel(weight), gemm_out, out=a)


def bn_forward(z: np.ndarray) -> np.ndarray:
    """Normalize each row of z (C, H*W) in place, so z becomes x-hat.

    Returns the per-row inverse standard deviation.
    """
    n = z.shape[1]
    z -= z.mean(axis=1)[:, None]
    var = np.einsum("ij,ij->i", z, z) / n
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    z *= inv_std[:, None]
    return inv_std


def bn_backward(g: np.ndarray, xhat: np.ndarray, gamma, inv_std, scratch: np.ndarray):
    """In place: g, dL/dy as (C, H*W), becomes dL/dz; `scratch` is an array of
    g's shape and dtype that it may overwrite.  Returns (dL/dgamma, dL/dbeta)."""
    n = g.shape[1]
    g_gamma = np.einsum("ij,ij->i", g, xhat)
    g_beta = g.sum(axis=1)
    g -= np.multiply(xhat, (g_gamma / n)[:, None], out=scratch)
    g -= (g_beta / n)[:, None]
    g *= (gamma * inv_std)[:, None]
    return g_gamma, g_beta


def _step_scratch(gemm_out: np.ndarray, count: int, shape) -> list:
    """`count` disjoint arrays of `shape` over the start of `conv`'s GEMM
    output, which is free between convolutions.  The elementwise steps of
    both passes work there rather than in fresh temporaries: a layer-sized
    one (256 KiB for 16 float32 channels at 64 px) is over glibc's default
    mmap threshold of 128 KiB, so each step would pay the page faults of a
    fresh mapping."""
    size = int(np.prod(shape))
    return [gemm_out[i * size : (i + 1) * size].reshape(shape) for i in range(count)]


def _float64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), as exp(x) / (1 + exp(x)) where x < 0, so no exp overflows."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)  # exp(-x) where x >= 0, else exp(x)
    out = e + 1.0
    np.copyto(e, 1.0, where=x >= 0)
    return np.divide(e, out, out=out)


class GeneratorNet:
    """Untrained convolutional generator f_theta.

    Parameters are kept as a flat list of float64 arrays in a fixed order
    (per BN block: weight, gamma, beta; head: weight, bias) so the optimizer
    can treat them uniformly.  `dtype` is the precision of the layer
    arithmetic only (see the module docstring).

    What `backward` needs of a forward pass lives in buffers the net reuses,
    one set per grid size around one column storage (see the module
    docstring), so only the last forward pass can be differentiated, once.
    """

    def __init__(self, plan=DEFAULT_PLAN, seed: int = 0, dtype=np.float64):
        if len(plan) < 2 or plan[0] != 1 or plan[-1] != 1:
            raise DimensionError("channel plan must start and end with 1 channel")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ParameterError(f"generator dtype must be float32 or float64, got {self.dtype}")
        self.plan = tuple(int(c) for c in plan)
        self.seed = int(seed)
        if self.seed < 0:
            raise ParameterError(f"generator seed {self.seed} is negative")
        self.n_blocks = len(plan) - 2  # conv+BN+LeakyReLU blocks before the head
        self.params: list[np.ndarray] = []
        self._scratch: dict = {}
        self._last_pass = None  # (buffers, inv_stds, output) for `backward`
        rng = np.random.Generator(np.random.PCG64(self.seed))
        for layer in range(len(plan) - 1):
            c_in, c_out = plan[layer], plan[layer + 1]
            limit = np.sqrt(6.0 / (c_in * 9 + c_out * 9))
            self.params.append(rng.uniform(-limit, limit, size=(c_out, c_in, 3, 3)))
            if layer < self.n_blocks:
                self.params.append(np.ones(c_out))   # BN gamma
                self.params.append(np.zeros(c_out))  # BN beta
            else:
                self.params.append(np.zeros(c_out))  # head bias

    def _layer_params(self, layer: int):
        """(weight, gamma, beta) of a BN block, cast to the net's dtype."""
        return tuple(self._cast(p) for p in self.params[3 * layer : 3 * layer + 3])

    def _head_params(self):
        """(weight cast to the net's dtype, float64 bias) of the head."""
        w, b = self.params[3 * self.n_blocks :]
        return self._cast(w), b

    def _cast(self, a: np.ndarray) -> np.ndarray:
        return a.astype(self.dtype, copy=False)

    def _layer_buffers(self, h: int, w: int) -> tuple:
        """Buffers of an H x W grid: one `_Bordered` per entry of the plan,
        the BN blocks' x-hat, the backward pass's flat gradient buffer and
        `conv`'s GEMM output; every column matrix is a view of one storage."""
        bufs = self._scratch.get((h, w))
        if bufs is None:
            width = max(self.plan)
            cols = np.empty(3 * width * (h + 2) * w, dtype=self.dtype)
            bufs = self._scratch[(h, w)] = (
                [_Bordered(c, h, w, cols) for c in self.plan],
                [np.empty((c, h * w), dtype=self.dtype) for c in self.plan[1:-1]],
                np.empty(width * h * w, dtype=self.dtype),
                np.empty_like(cols),
            )
        return bufs

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Run the generator on a 2D image; returns the 2D output in (0, 1).

        Records what `backward` reads, replacing the record of any earlier pass.
        """
        x = np.asarray(image, dtype=np.float64)
        if x.ndim != 2:
            raise DimensionError("generator input must be a 2D image")
        h, w = x.shape
        bufs = self._layer_buffers(h, w)
        bordered, xhats, _, gemm_out = bufs
        bordered[0].interior[0] = x
        inv_stds = []
        for layer in range(self.n_blocks):
            weight, gamma, beta = self._layer_params(layer)
            z = xhats[layer]
            act = bordered[layer + 1].interior
            conv(bordered[layer].columns(), weight, gemm_out, out=z)
            inv_stds.append(bn_forward(z))
            # scale, shift and leak in contiguous scratch: in-place passes over
            # the strided interior of `act` run row by row
            y, leaky = _step_scratch(gemm_out, 2, act.shape)
            np.multiply(z.reshape(act.shape), gamma[:, None, None], out=y)
            y += beta[:, None, None]
            np.multiply(y, LEAK, out=leaky)
            np.maximum(y, leaky, out=act)
        weight, bias = self._head_params()
        z = np.empty((1, h * w), dtype=self.dtype)
        z = _float64(conv(bordered[self.n_blocks].columns(), weight, gemm_out, out=z))
        z += bias[:, None]
        s = sigmoid(z.reshape(h, w))
        self._last_pass = (bufs, inv_stds, s)
        return s

    def backward(self, g_output: np.ndarray) -> list[np.ndarray]:
        """Float64 gradients of a scalar loss w.r.t. every parameter, given
        dL/d(output) of the last forward pass.

        Consumes that pass: each layer's bordered buffer takes the upstream
        gradient once its activation has been read.  Raises ParameterError
        when no forward pass is left to differentiate.
        """
        record, self._last_pass = self._last_pass, None
        if record is None:
            raise ParameterError("backward needs a forward pass of its own")
        (bordered, xhats, buf, gemm_out), inv_stds, s = record
        h, w = s.shape
        head = self.n_blocks
        weight, _ = self._head_params()
        g = np.multiply(g_output, s).reshape(1, h * w)
        g *= (1.0 - s).reshape(g.shape)
        g_bias = g.sum(axis=1)
        # the input gradient of layer 0 is never needed
        g_w, g = conv_backward(self._cast(g), bordered[head], bordered[head + 1], weight,
                               gemm_out, buf, input_grad=head > 0)
        grads = [g_w, g_bias]
        for layer in range(self.n_blocks - 1, -1, -1):
            weight, gamma, _ = self._layer_params(layer)
            act = bordered[layer + 1].interior
            # LeakyReLU slope: 1 where the activation is positive, else the leak.
            # Arithmetic on the mask, not a masked or branching select, because
            # the sign pattern is random and branches mispredict.
            slope, = _step_scratch(gemm_out, 1, act.shape)
            np.greater(act, 0, out=slope)
            slope *= 1.0 - LEAK
            slope += LEAK
            g *= slope.reshape(g.shape)
            g_gamma, g_beta = bn_backward(g, xhats[layer], gamma, inv_stds[layer],
                                          *_step_scratch(gemm_out, 1, g.shape))
            g_w, g = conv_backward(g, bordered[layer], bordered[layer + 1], weight, gemm_out,
                                   buf, input_grad=layer > 0)
            grads[:0] = [g_w, _float64(g_gamma), _float64(g_beta)]
        return grads
