"""Anisotropic total-variation utilities shared by the reconstructors.

TV(u) = sum |u[i+1,j] - u[i,j]| + sum |u[i,j+1] - u[i,j]| with forward
differences and Neumann boundaries (no wraparound).

`tv_prox` is CS-TV's proximal map.  A `TvDual` keeps its dual iterate from
one call to the next, so CS-TV warm-starts every prox and takes two dual
steps a call (`classical.PROX_ITERATIONS`), not ten from zero.  Two is the
smallest count that studies/cstv_prox.py found within 1.5% of the cold
prox's objective and 0.003 of its SSIM on every solve; one step lost up to
1.8%, and three were slower and lost up to 1.6%.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError


def check_tv_weight(tv_weight: float) -> None:
    """Raise ParameterError unless `tv_weight` is finite and >= 0."""
    if not 0 <= tv_weight < np.inf:  # also rejects nan
        raise ParameterError(f"tv_weight {tv_weight} is not finite and >= 0")


def tv_anisotropic(u: np.ndarray) -> float:
    return float(np.abs(np.diff(u, axis=0)).sum() + np.abs(np.diff(u, axis=1)).sum())


def tv_subgradient(u: np.ndarray) -> np.ndarray:
    """A subgradient of tv_anisotropic (sign convention: sign(0) = 0)."""
    g = np.zeros_like(u)
    sy = np.sign(np.diff(u, axis=0))
    g[1:, :] += sy
    g[:-1, :] -= sy
    sx = np.sign(np.diff(u, axis=1))
    g[:, 1:] += sx
    g[:, :-1] -= sx
    return g


_CACHE_LINE = 64  # bytes


def _line_aligned(make, count: int, dtype) -> np.ndarray:
    """A 1-D array of `count` items from `make` (np.zeros or np.empty) that
    starts on a cache line: one line over-allocated, then sliced."""
    itemsize = np.dtype(dtype).itemsize
    raw = make(count * itemsize + _CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    return raw[start : start + count * itemsize].view(dtype)


class TvDual:
    """The Chambolle duals of `tv_prox` on one grid, kept from call to call.

    Holds the bordered dual buffer, the gradient buffer and div_x of one
    (n0, n1) grid and dtype, allocated once (layout: `tv_prox`).  A new
    state holds zero duals, and `tv_prox` starts from them as a cold prox
    does; each call leaves its last duals here for the next one."""

    def __init__(self, shape, dtype=np.float64):
        n0, n1 = shape
        size = n0 * n1
        dtype = np.dtype(dtype)
        per_line = _CACHE_LINE // dtype.itemsize
        gap = (-(n1 + size)) % per_line or per_line
        self.shape, self.dtype, self.warm = (n0, n1), dtype, False
        duals = _line_aligned(np.zeros, 2 * size + n1 + gap, dtype)
        self.py, self.px = duals[: size + n1], duals[size + n1 + gap - 1 :]
        self.inner = duals[n1 : 2 * size + n1 + gap - 1]  # py[n1:], the gap, px[1:size]
        self.grad = _line_aligned(np.zeros, 2 * size + gap - 1, dtype)  # the matching (dy u, 0, dx u)
        self.gy, self.gx = self.grad[: size - n1], self.grad[size + gap :]
        self.div_x = _line_aligned(np.empty, size, dtype)


def tv_prox(v: np.ndarray, alpha: float, iterations: int = 10,
            state: TvDual | None = None) -> np.ndarray:
    """Approximate prox of alpha * TV: argmin_u 0.5*||u - v||^2 + alpha*TV(u).

    Dual projected-gradient iteration (Chambolle-style) with the anisotropic
    box constraint |p| <= 1 per component; step 0.25 satisfies the usual
    1/8 stability bound on the grad/div pair.

    Without `state` the duals start from zero.  With a `TvDual` of v's grid
    they start from the duals the last call left there (a warm start): the
    call first takes the primal step u = v + alpha * div(p) from them, then
    its `iterations` dual steps, and leaves the new duals in the state.  A
    proximal-gradient loop whose input moves little from one call to the
    next then needs only a few dual steps per call (Beck & Teboulle, IEEE
    TIP 18, 2419, 2009; Schmidt, Le Roux & Bach, NeurIPS 2011): CS-TV
    takes two (module docstring).

    The duals live in one bordered, flat row-major buffer: a zero row, py's
    n0 rows, a gap of zeros, px's n0*n1 entries.  The forward difference is
    zero on the far edge, so the dual there (py's last row, px's last
    column) never leaves zero; in px it is also the leading border of the
    next row, and the gap's last zero is the border of px's first row.  The
    divergence is then py[n1:] - py[:-n1] plus px[1:] - px[:-1], into a
    preallocated u.  Past the leading zero row the two duals are one
    slice, so each iteration writes both differences into one gradient
    buffer with the same gap, and scales, adds and clips both duals with
    one call each (the gap stays zero).

    Every buffer written (the duals, the gradient, div_x and u) starts on
    a 64-byte cache line, and the gap is one to a line's worth of zeros
    wide, so that px's entries start on a line too: a ufunc writes an
    aligned output about twice as fast as one 8 or 16 bytes past a line.
    From zero duals the first primal step is skipped: it gives u = +0 + v,
    whose differences equal v's up to the sign of zero, and +0 plus either
    zero is +0, so the first dual step takes its differences from v.  So
    the first call on a new state gives the bytes of a call without one.

    The result is a new array, also for alpha <= 0 and for an alpha so
    small that 0.25 / alpha overflows (below about 1.4e-309): there u
    would move from v by at most 4 * alpha, so the copy holds v unchanged
    and the state is left as it was.
    """
    if alpha <= 0 or np.isinf(0.25 / float(alpha)):
        return v.copy()
    if state is None:
        state = TvDual(v.shape, v.dtype)
    elif state.shape != v.shape or state.dtype != v.dtype:
        raise DimensionError(f"TV dual state of {state.shape} {state.dtype} given a "
                             f"{v.shape} {v.dtype} input")
    step = 0.25 / alpha
    n0, n1 = v.shape
    inner, grad, gy, gx, div_x = state.inner, state.grad, state.gy, state.gx, state.div_x
    py_next, py_prev, px_next, px_prev = state.py[n1:], state.py[:-n1], state.px[1:], state.px[:-1]
    # a difference across a row boundary is no gradient: the last column stays zero
    px_last = state.px[n1::n1]
    flat = _line_aligned(np.empty, n0 * n1, v.dtype)
    u = flat.reshape(n0, n1)

    def primal():
        # u = v + alpha * div(p), div(p) = dy(py) + dx(px)
        np.subtract(py_next, py_prev, out=flat)
        np.subtract(px_next, px_prev, out=div_x)
        np.add(flat, div_x, out=flat)
        np.multiply(flat, alpha, out=flat)
        np.add(u, v, out=u)

    def shifted(a):
        # the forward differences of a are y1 - y0 and x1 - x0
        return a[n1:], a[:-n1], a[1:], a[:-1]

    u_shifted = shifted(flat)
    if state.warm:
        primal()
        y1, y0, x1, x0 = u_shifted
    else:
        y1, y0, x1, x0 = shifted(v.reshape(-1))  # in place of the first primal
    for _ in range(iterations):
        # p = clip(p + step * grad(u), -1, 1) inside each border
        np.subtract(y1, y0, out=gy)
        np.subtract(x1, x0, out=gx)
        np.multiply(grad, step, out=grad)
        np.add(inner, grad, out=inner)
        np.clip(inner, -1.0, 1.0, out=inner)
        px_last[...] = 0.0
        primal()
        y1, y0, x1, x0 = u_shifted
    if iterations < 1 and not state.warm:
        primal()
    state.warm = True
    return u
