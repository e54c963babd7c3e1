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


def tv_prox(v: np.ndarray, alpha: float, iterations: int = 10) -> np.ndarray:
    """Approximate prox of alpha * TV: argmin_u 0.5*||u - v||^2 + alpha*TV(u).

    Dual projected-gradient iteration (Chambolle-style) with the anisotropic
    box constraint |p| <= 1 per component; step 0.25 satisfies the usual
    1/8 stability bound on the grad/div pair.

    The dual fields live in bordered, flat row-major buffers: py is one zero
    row followed by its n0 rows, px one zero followed by its n0*n1 entries.
    The forward difference is zero on the far edge, so the dual there (the
    last row of py, the last column of px) never leaves zero; in px it is
    also the leading border of the next row.  The divergence is then two
    subtractions of shifted slices, py[n1:] - py[:-n1] and px[1:] - px[:-1],
    into a preallocated u, and each iteration updates and clips the duals in
    place.  The result is a new array, also for alpha <= 0.
    """
    if alpha <= 0:
        return v.copy()
    n0, n1 = v.shape
    size = n0 * n1
    step = 0.25 / alpha
    py = np.zeros(size + n1, dtype=v.dtype)
    px = np.zeros(size + 1, dtype=v.dtype)
    py_in, px_in = py[n1:size], px[1:size]
    gy = np.empty(size - n1, dtype=v.dtype)
    gx = np.empty(size - 1, dtype=v.dtype)
    div_x = np.empty(size, dtype=v.dtype)
    u = np.empty_like(v, order="C")
    flat = u.reshape(-1)

    def primal():
        # u = v + alpha * div(p), div(p) = dy(py) + dx(px)
        np.subtract(py[n1:], py[:-n1], out=flat)
        np.subtract(px[1:], px[:-1], out=div_x)
        np.add(flat, div_x, out=flat)
        np.multiply(flat, alpha, out=flat)
        np.add(u, v, out=u)

    for _ in range(iterations):
        primal()
        # p = clip(p + step * grad(u), -1, 1) inside each border
        np.subtract(flat[n1:], flat[:-n1], out=gy)
        gy *= step
        py_in += gy
        np.maximum(py_in, -1.0, out=py_in)
        np.minimum(py_in, 1.0, out=py_in)
        np.subtract(flat[1:], flat[:-1], out=gx)
        gx *= step
        px_in += gx
        np.maximum(px_in, -1.0, out=px_in)
        np.minimum(px_in, 1.0, out=px_in)
        # a difference across a row boundary is no gradient: the last column stays zero
        px[n1::n1] = 0.0
    primal()
    return u
