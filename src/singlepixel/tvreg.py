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

    The duals live in one bordered, flat row-major buffer: a zero row, py's
    n0 rows, a zero, px's n0*n1 entries.  The forward difference is zero on
    the far edge, so the dual there (py's last row, px's last column) never
    leaves zero; in px it is also the leading border of the next row.  The
    divergence is then py[n1:] - py[:-n1] plus px[1:] - px[:-1], into a
    preallocated u.  Past the leading zero row the two duals are one
    slice, so each iteration writes both differences into one gradient
    buffer and scales, adds and clips both duals with one call each (the
    zeros between them stay zero).  The result is a new array, also for
    alpha <= 0.
    """
    if alpha <= 0:
        return v.copy()
    n0, n1 = v.shape
    size = n0 * n1
    step = 0.25 / alpha
    duals = np.zeros(2 * size + n1 + 1, dtype=v.dtype)
    py, px = duals[: size + n1], duals[size + n1 :]
    inner = duals[n1 : 2 * size + n1]  # py[n1:] followed by px[:size]
    grad = np.zeros(2 * size, dtype=v.dtype)  # the matching slice of (dy u, 0, dx u)
    gy, gx = grad[: size - n1], grad[size + 1 :]
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
        np.subtract(flat[1:], flat[:-1], out=gx)
        grad *= step
        inner += grad
        np.clip(inner, -1.0, 1.0, out=inner)
        # a difference across a row boundary is no gradient: the last column stays zero
        px[n1::n1] = 0.0
    primal()
    return u
