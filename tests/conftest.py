"""Shared fixtures, random test data and independent oracles.

The oracles restate a piece of the model the slow, obvious way (a Hadamard
row by Kronecker products, the two binary half-masks of a pattern, the
attenuation of pumped modulator cells), so tests can check the fast paths of
the package against them.
"""

import numpy as np
import pytest

from singlepixel.errors import ParameterError
from singlepixel.field import IntensityImage
from singlepixel.measurement import upsample_mask


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(rng, n=16):
    """Random complex128 field on an n x n grid."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_image(rng, n=16, pitch=1e-4):
    return IntensityImage(values=rng.random((n, n)), pitch=pitch)


def band_limited_field(rng, n, pitch, wavelength):
    """Random field whose spectrum vanishes outside the propagating band."""
    spectrum = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = np.fft.fftfreq(n, pitch)
    rho_sq = (wavelength**2) * (f[:, None] ** 2 + f[None, :] ** 2)
    spectrum[rho_sq > 1.0] = 0.0
    return np.fft.ifft2(spectrum)


def total_power(fld: np.ndarray) -> float:
    """Sum of |E|^2 over the grid."""
    return float(np.sum(fld.real * fld.real + fld.imag * fld.imag))


def hadamard_row(index: int, length: int) -> np.ndarray:
    """Row `index` of the Sylvester Hadamard matrix of the given length."""
    if length & (length - 1) or length == 0:
        raise ParameterError(f"Hadamard order must be a power of two, got {length}")
    if not 0 <= index < length:
        raise IndexError(f"row index {index} out of range for order {length}")
    bits = length.bit_length() - 1
    row = np.array([1], dtype=np.int8)
    plus = np.array([1, 1], dtype=np.int8)
    minus = np.array([1, -1], dtype=np.int8)
    for b in range(bits - 1, -1, -1):
        row = np.kron(row, minus if (index >> b) & 1 else plus).astype(np.int8)
    return row


def row_sequency(row: np.ndarray) -> int:
    """Number of sign changes along a +/-1 row."""
    return int(np.count_nonzero(row[1:] != row[:-1]))


def mask_sequency(mask: np.ndarray) -> int:
    """Total sign-change count of a 2D mask (along rows plus along columns)."""
    return int(
        np.count_nonzero(mask[:, 1:] != mask[:, :-1])
        + np.count_nonzero(mask[1:, :] != mask[:-1, :])
    )


def positive_negative_split(pattern_set, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary masks (p_plus, p_minus) whose difference is logical mask i."""
    if not 0 <= i < pattern_set.count:
        raise IndexError(f"pattern index {i} out of range for M={pattern_set.count}")
    n = pattern_set.order
    mask = hadamard_row(pattern_set.selection[i], n * n).reshape(n, n)
    p_plus = (mask > 0).astype(np.uint8)
    p_minus = (mask < 0).astype(np.uint8)
    return p_plus, p_minus


def apply_mask(image: IntensityImage, mask: np.ndarray, depth: float) -> IntensityImage:
    """Attenuate pumped (mask = 1) regions: out = image * (1 - depth * mask)."""
    if not 0.0 < depth <= 1.0:
        raise ParameterError("modulation depth must lie in (0, 1]")
    m = np.asarray(mask)
    up = upsample_mask(m, image.height, image.width)
    return image.with_values(image.values * (1.0 - depth * up))


def star_mask(n: int, pitch: float = 1.0, points: int = 5, outer: float = 0.42,
              inner: float = 0.17, rotation: float = -np.pi / 2) -> IntensityImage:
    """Binary star-polygon mask, a stand-in for the hollow-star test object.

    Radii are fractions of the grid side; the polygon is filled by even-odd
    ray casting on pixel centers.
    """
    angles = rotation + np.arange(2 * points) * np.pi / points
    radii = np.where(np.arange(2 * points) % 2 == 0, outer, inner) * n
    vx = n / 2.0 + radii * np.cos(angles)
    vy = n / 2.0 + radii * np.sin(angles)

    ys, xs = np.mgrid[0:n, 0:n]
    px = xs + 0.5
    py = ys + 0.5
    inside = np.zeros((n, n), dtype=bool)
    m = len(vx)
    for i in range(m):
        x1, y1 = vx[i], vy[i]
        x2, y2 = vx[(i + 1) % m], vy[(i + 1) % m]
        crosses = (y1 <= py) != (y2 <= py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (px < x_cross)
    return IntensityImage(values=inside.astype(np.float64), pitch=pitch)


def reference_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences with a zero last row/column (the former `tvreg._grad`)."""
    gy = np.zeros_like(u)
    gx = np.zeros_like(u)
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    return gy, gx


def reference_div(py: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Negative adjoint of reference_grad, so that <grad u, p> = -<u, div p>."""
    d = np.zeros_like(py)
    d[0, :] += py[0, :]
    d[1:-1, :] += py[1:-1, :] - py[:-2, :]
    d[-1, :] += -py[-2, :]
    d[:, 0] += px[:, 0]
    d[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
    d[:, -1] += -px[:, -2]
    return d


def reference_tv_prox(v: np.ndarray, alpha: float, iterations: int = 10) -> np.ndarray:
    """The TV prox with full-size dual fields and fresh arrays per step
    (the former `tvreg.tv_prox`, kept as the oracle of the in-place one)."""
    if alpha <= 0:
        return v.copy()
    tau = 0.25
    py = np.zeros_like(v)
    px = np.zeros_like(v)
    for _ in range(iterations):
        u = v + alpha * reference_div(py, px)
        gy, gx = reference_grad(u)
        py = np.clip(py + (tau / alpha) * gy, -1.0, 1.0)
        px = np.clip(px + (tau / alpha) * gx, -1.0, 1.0)
    return v + alpha * reference_div(py, px)
