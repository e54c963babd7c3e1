"""Anisotropic total-variation utilities shared by the reconstructors.

TV(u) = sum |u[i+1,j] - u[i,j]| + sum |u[i,j+1] - u[i,j]| with forward
differences and Neumann boundaries (no wraparound).
"""

from __future__ import annotations

import numpy as np


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


def tv_prox(v: np.ndarray, alpha: float, iterations: int = 10) -> np.ndarray:
    """Approximate prox of alpha * TV: argmin_u 0.5*||u - v||^2 + alpha*TV(u).

    Dual projected-gradient iteration (Chambolle-style) with the anisotropic
    box constraint |p| <= 1 per component; step 0.25 satisfies the usual
    1/8 stability bound on the grad/div pair.

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
    The first primal step is skipped: with zero duals it gives u = +0 + v,
    whose differences equal v's up to the sign of zero, and +0 plus either
    zero is +0, so the first dual step takes its differences from v.

    The result is a new array, also for alpha <= 0 and for an alpha so
    small that 0.25 / alpha overflows (below about 1.4e-309): there u
    would move from v by at most 4 * alpha, so the copy holds v unchanged.
    """
    if alpha <= 0 or np.isinf(0.25 / float(alpha)):
        return v.copy()
    step = 0.25 / alpha
    n0, n1 = v.shape
    size = n0 * n1
    dtype = v.dtype
    per_line = _CACHE_LINE // dtype.itemsize
    gap = (-(n1 + size)) % per_line or per_line
    duals = _line_aligned(np.zeros, 2 * size + n1 + gap, dtype)
    py, px = duals[: size + n1], duals[size + n1 + gap - 1 :]
    inner = duals[n1 : 2 * size + n1 + gap - 1]  # py[n1:], the gap, px[1:size]
    grad = _line_aligned(np.zeros, 2 * size + gap - 1, dtype)  # the matching (dy u, 0, dx u)
    gy, gx = grad[: size - n1], grad[size + gap :]
    py_next, py_prev, px_next, px_prev = py[n1:], py[:-n1], px[1:], px[:-1]
    # a difference across a row boundary is no gradient: the last column stays zero
    px_last = px[n1::n1]
    div_x = _line_aligned(np.empty, size, dtype)
    flat = _line_aligned(np.empty, size, dtype)
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
    if iterations < 1:
        primal()
    return u
