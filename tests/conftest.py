"""Shared fixtures, random test data and independent oracles.

The oracles restate a piece of the model the slow, obvious way (a Hadamard
row by Kronecker products, the two binary half-masks of a pattern, the
attenuation of pumped modulator cells), so tests can check the fast paths of
the package against them.
"""

import numpy as np
import pytest
from hypothesis import Phase

from singlepixel.errors import DimensionError, ParameterError, SinglePixelError
from singlepixel.field import IntensityImage


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(rng, n=16):
    """Random complex128 field on an n x n grid."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_image(rng, n=16):
    return IntensityImage(values=rng.random((n, n)))


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
    """Attenuate pumped (mask = 1) regions: out = image * (1 - depth * mask),
    each mask cell replicated over its square block of image pixels."""
    if not 0.0 < depth <= 1.0:
        raise ParameterError("modulation depth must lie in (0, 1]")
    m = np.asarray(mask)
    (mh, mw), (h, w) = m.shape, image.values.shape
    if h % mh or w % mw or h // mh != w // mw:
        raise DimensionError(f"mask {mh}x{mw} does not tile image {h}x{w} by an integer factor")
    up = np.kron(m, np.ones((h // mh, w // mw)))
    return IntensityImage(values=image.values * (1.0 - depth * up))


def star_mask(n: int, points: int = 5, outer: float = 0.42,
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
    return IntensityImage(values=inside.astype(np.float64))


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


# Bytes that carry structure in the file formats (line and field separators,
# comment and key marks, signs, digits, the exponent, the PGM magic) and
# bytes that are not UTF-8 on their own.
STRUCTURAL_BYTES = b"\n\r\t #=,.-+0159eEP\x00\x80\xff"

# Hypothesis phases of a test that calls damaged_loads: its failure already
# names the damaged copy, and shrinking re-runs the whole scan per candidate
# (minutes and hundreds of MB for one broken parser, against seconds).
FUZZ_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)


def damaged_loads(parse, path, blob: bytes, junk: int) -> list:
    """Run parse(path) on every damaged copy of `blob`: each byte replaced by
    itself XOR `junk` and by each of STRUCTURAL_BYTES, then every truncation.

    A copy may still be a valid file; otherwise the parser must raise a
    SinglePixelError, and any other exception fails the calling test with the
    damage named.  Returns the labels of the copies that loaded.
    """
    copies = [
        (f"byte {pos} set to {new:#04x}", blob[:pos] + bytes([new]) + blob[pos + 1 :])
        for pos, old in enumerate(blob)
        for new in sorted({old ^ junk, *STRUCTURAL_BYTES} - {old})
    ]
    copies += [(f"truncated to {end} bytes", blob[:end]) for end in range(len(blob))]
    loaded = []
    # one handle, truncated only for a truncation: opening or truncating the
    # file per copy costs more than the parse, and a corruption keeps its length
    with open(path, "wb") as fh:
        for label, data in copies:
            fh.seek(0)
            fh.write(data)
            if len(data) < len(blob):
                fh.truncate()
            fh.flush()
            try:
                parse(path)
            except SinglePixelError:
                continue
            except Exception as err:
                raise AssertionError(f"{label}: {type(err).__name__}: {err}") from err
            loaded.append(label)
    return loaded
