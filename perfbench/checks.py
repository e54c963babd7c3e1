"""Output checks computed independently of the singlepixel package.

Every expected value here comes from the scene numbers, from the bytes of
the files the CLI wrote, or from a property the method must have.  The
package is never imported: propagation is written on scipy.fft, the masks
are compared with scipy.linalg.hadamard, and HSPI, DGI and SSIM are
computed from their textbook formulas.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft, linalg

MAXVAL = 65535
# A rendered image may differ from the file by the rounding of one sample.
QUANTUM_TOLERANCE = 0.5 + 1e-6


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Scene:
    """A three-slit scene; lengths in meters."""

    grid: int
    fov: float
    wavelength: float
    distance: float
    widths: tuple
    gaps: tuple
    depth: float = 0.9
    sigma: float = 0.0
    seed: int = 0

    @property
    def pitch(self) -> float:
        return self.fov / self.grid

    def text(self) -> str:
        """The scene file the CLI reads (lengths written in micrometers)."""

        def um(values):
            return ", ".join(f"{v * 1e6:.10g}um" for v in values)

        return (
            f"grid = {self.grid}\n"
            f"fov = {self.fov * 1e6:.10g}um\n"
            f"wavelength = {self.wavelength * 1e6:.10g}um\n"
            f"distance = {self.distance * 1e6:.10g}um\n"
            "object = three_slit\n"
            f"slit_widths = {um(self.widths)}\n"
            f"slit_separations = {um(self.gaps)}\n"
            f"modulation_depth = {self.depth!r}\n"
            f"noise_sigma = {self.sigma!r}\n"
            f"seed = {self.seed}\n"
        )


# ---------------------------------------------------------------- geometry


def slit_intervals(scene: Scene) -> list:
    """[lo, hi) extent in meters of each slit, centred in the field."""
    x = (scene.fov - sum(scene.widths) - sum(scene.gaps)) / 2.0
    out = []
    for i, width in enumerate(scene.widths):
        out.append((x, x + width))
        x += width + (scene.gaps[i] if i < len(scene.gaps) else 0.0)
    return out


def _covered(lo: float, hi: float, n: int, pitch: float) -> np.ndarray:
    """Pixels whose centre lies in (lo, hi]: each edge snaps to the nearest
    pixel boundary, a tie going to the higher boundary."""
    centers = (np.arange(n) + 0.5) * pitch
    return (centers > lo) & (centers <= hi)


def object_mask(scene: Scene) -> np.ndarray:
    n = scene.grid
    height = 0.6 * scene.fov
    rows = _covered((scene.fov - height) / 2.0, (scene.fov + height) / 2.0, n, scene.pitch)
    cols = np.zeros(n, dtype=bool)
    for lo, hi in slit_intervals(scene):
        cols |= _covered(lo, hi, n, scene.pitch)
    return np.outer(rows, cols).astype(np.float64)


def feature_columns(scene: Scene) -> tuple:
    """(middle column of each drawn slit, middle column of each drawn gap)."""
    n = scene.grid
    runs = [np.flatnonzero(_covered(lo, hi, n, scene.pitch)) for lo, hi in slit_intervals(scene)]
    require(all(r.size for r in runs), "a slit covers no pixel column")
    slits = [int((r[0] + r[-1] + 1) // 2) for r in runs]
    gaps = []
    for left, right in zip(runs, runs[1:]):
        lo, hi = int(left[-1]) + 1, int(right[0])
        require(hi > lo, f"the gap between columns {left[-1]} and {right[0]} is not drawn")
        gaps.append((lo + hi) // 2)
    return slits, gaps


def slit_rows(scene: Scene) -> np.ndarray:
    height = 0.6 * scene.fov
    return _covered((scene.fov - height) / 2.0, (scene.fov + height) / 2.0, scene.grid, scene.pitch)


def diffraction(scene: Scene) -> np.ndarray:
    """|E|^2 at the recording plane by the angular-spectrum method.

    Propagating waves gain exp(i*kz*d); evanescent waves decay as
    exp(-|kz|*|d|).
    """
    n = scene.grid
    k = 2.0 * math.pi / scene.wavelength
    kf = 2.0 * math.pi * fft.fftfreq(n, d=scene.pitch)
    kz_sq = k * k - kf[:, None] ** 2 - kf[None, :] ** 2
    root = np.sqrt(np.abs(kz_sq))
    d = scene.distance
    transfer = np.where(kz_sq >= 0.0, np.exp(1j * root * d), np.exp(-root * abs(d)))
    field = fft.ifft2(fft.fft2(np.sqrt(object_mask(scene))) * transfer)
    return field.real**2 + field.imag**2


# ------------------------------------------------------------ file readers


def read_pgm(data: bytes) -> tuple:
    """(samples as int array, comment dict) of a 16-bit P5 file."""
    comments = {}
    tokens = []
    pos = 0
    while len(tokens) < 4:
        require(pos < len(data), "PGM header ends early")
        if data[pos : pos + 1] == b"#":
            end = data.index(b"\n", pos)
            key, _, value = data[pos + 1 : end].decode("ascii").strip().partition("=")
            comments[key.strip()] = value.strip()
            pos = end + 1
        elif data[pos : pos + 1].isspace():
            pos += 1
        else:
            start = pos
            while not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    require(tokens[0] == b"P5" and int(tokens[3]) == MAXVAL, "not a 16-bit P5 PGM")
    width, height = int(tokens[1]), int(tokens[2])
    raster = data[pos + 1 :]
    require(len(raster) == 2 * width * height, "PGM raster has the wrong length")
    values = np.frombuffer(raster, dtype=">u2").reshape(height, width).astype(np.int64)
    return values, comments


def read_spip(data: bytes) -> np.ndarray:
    """The (M, n, n) int8 masks of a SPIP pattern file."""
    magic, version, order, count, _ = struct.unpack_from("<4sHIIB", data, 0)
    require(magic == b"SPIP" and version == 1, "not a version-1 SPIP file")
    head = struct.calcsize("<4sHIIB")
    require(len(data) == head + count * order * order, "SPIP payload has the wrong length")
    return np.frombuffer(data, dtype=np.int8, offset=head).reshape(count, order, order)


def read_readings(text: str) -> np.ndarray:
    """The reading column of a measurement CSV."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(rows[0] == "index,reading", "measurement CSV has no index,reading header")
    values = []
    for i, row in enumerate(rows[1:]):
        index, value = row.split(",")
        require(int(index) == i, f"measurement row {i} has index {index}")
        values.append(float(value))
    return np.array(values)


def read_loss_history(text: str) -> list:
    """The loss column of a loss_history.csv."""
    rows = text.splitlines()
    require(rows[0] == "iteration,loss", f"loss history header is {rows[0]!r}")
    return [float(row.split(",", 1)[1]) for row in rows[1:]]


# --------------------------------------------------------------- checks


def check_object(pgm: bytes, scene: Scene) -> None:
    values, _ = read_pgm(pgm)
    require(
        np.array_equal(values, object_mask(scene).astype(np.int64) * MAXVAL),
        "object.pgm differs from the rasterized scene",
    )


def check_diffraction(pgm: bytes, expected: np.ndarray) -> None:
    """diffracted.pgm holds expected / peak, quantized, and the peak."""
    values, comments = read_pgm(pgm)
    peak = float(expected.max())
    scale = float(comments.get("scale", "nan"))
    require(abs(scale / peak - 1.0) < 1e-9, f"diffraction peak {scale!r}, expected {peak!r}")
    worst = float(np.abs(expected / peak * MAXVAL - values).max())
    require(worst <= QUANTUM_TOLERANCE, f"diffraction is off by {worst:.3f} quanta")


def hadamard_rows(masks: np.ndarray) -> tuple:
    """Row indices (r1, r0) of hadamard(n) such that mask = outer(H[r1], H[r0]).

    Fails unless every mask is such an outer product, no two masks are
    equal, and the masks come in ascending order of total sign changes.
    """
    count, n, _ = masks.shape
    h = linalg.hadamard(n).astype(np.int8)
    # Row 0 and column 0 of H are all +1, so the first row of the mask is
    # H[r0] and its first column is H[r1].
    match_r0 = masks[:, 0, :].astype(np.int64) @ h.T.astype(np.int64) == n
    match_r1 = masks[:, :, 0].astype(np.int64) @ h.T.astype(np.int64) == n
    require(
        bool(match_r0.any(axis=1).all() and match_r1.any(axis=1).all()),
        "a mask's first row or column is not a row of hadamard(n)",
    )
    r0 = match_r0.argmax(axis=1)
    r1 = match_r1.argmax(axis=1)
    bad = np.flatnonzero((masks != h[r1][:, :, None] * h[r0][:, None, :]).any(axis=(1, 2)))
    require(bad.size == 0, f"mask {bad[0] if bad.size else -1} is not an outer product of Hadamard rows")
    require(len(set(zip(r1.tolist(), r0.tolist()))) == count, "two masks are the same")
    changes = np.count_nonzero(h[:, 1:] != h[:, :-1], axis=1)
    total = changes[r1] + changes[r0]
    require(bool(np.all(np.diff(total) >= 0)), "masks are not in ascending sequency order")
    return r1, r0


def _weighted_mask_sum(masks: np.ndarray, weights: np.ndarray, chunk: int = 64) -> np.ndarray:
    """sum_i weights[i] * P_i, a few masks at a time."""
    count, n, _ = masks.shape
    flat = masks.reshape(count, n * n)
    acc = np.zeros(n * n)
    for lo in range(0, count, chunk):
        acc += weights[lo : lo + chunk] @ flat[lo : lo + chunk].astype(np.float64)
    return acc.reshape(n, n)


def mask_projections(masks: np.ndarray, image: np.ndarray, chunk: int = 64) -> np.ndarray:
    """<P_i, image> for every mask."""
    count = masks.shape[0]
    flat = masks.reshape(count, -1)
    out = np.empty(count)
    for lo in range(0, count, chunk):
        out[lo : lo + chunk] = flat[lo : lo + chunk].astype(np.float64) @ image.ravel()
    return out


def hspi(masks: np.ndarray, readings: np.ndarray) -> np.ndarray:
    """(1/N) * sum_i I_i * P_i."""
    return _weighted_mask_sum(masks, readings) / masks[0].size


def dgi(masks: np.ndarray, readings: np.ndarray) -> np.ndarray:
    """Ferri et al. (PRL 104, 253603, 2010): <I P> - (<I>/<S>) <S P>,
    with S_i the sum of mask i and <.> the mean over masks."""
    count = masks.shape[0]
    sums = masks.reshape(count, -1).sum(axis=1, dtype=np.int64).astype(np.float64)
    corr_ip = _weighted_mask_sum(masks, readings) / count
    corr_sp = _weighted_mask_sum(masks, sums) / count
    return corr_ip - (readings.mean() / sums.mean()) * corr_sp


def clip_render(raw: np.ndarray) -> np.ndarray:
    """Negatives to zero, then peak to one."""
    clipped = np.maximum(raw, 0.0)
    return clipped / clipped.max()


def minmax_render(raw: np.ndarray) -> np.ndarray:
    return (raw - raw.min()) / (raw.max() - raw.min())


def check_image(pgm: bytes, expected: np.ndarray, label: str) -> None:
    values, _ = read_pgm(pgm)
    require(values.shape == expected.shape, f"{label} is {values.shape}, expected {expected.shape}")
    worst = float(np.abs(expected * MAXVAL - values).max())
    require(worst <= QUANTUM_TOLERANCE, f"{label} is off by {worst:.3f} quanta")


def check_noise(readings: np.ndarray, projections: np.ndarray, depth: float, sigma: float) -> None:
    """readings - m * <P_i, D> is the difference of two N(0, sigma^2) draws.

    Mean and standard deviation must lie within five standard errors of 0
    and sqrt(2) * sigma; without noise the residual is rounding only.
    """
    residual = readings - depth * projections
    count = residual.size
    if sigma == 0.0:
        limit = 1e-9 * float(np.abs(projections).max())
        require(float(np.abs(residual).max()) <= limit, "noiseless readings differ from m*<P, D>")
        return
    spread = math.sqrt(2.0) * sigma
    mean = float(residual.mean())
    std = float(residual.std(ddof=1))
    require(abs(mean) <= 5.0 * spread / math.sqrt(count), f"noise mean {mean:.4g} is not 0")
    require(
        abs(std / spread - 1.0) <= 5.0 / math.sqrt(2.0 * (count - 1)),
        f"noise std {std:.4g}, expected {spread:.4g}",
    )


def check_monotone(history: list, label: str) -> None:
    values = np.array(history, dtype=np.float64)
    require(values.size > 0 and bool(np.isfinite(values).all()), f"{label} loss is empty or not finite")
    rises = np.flatnonzero(np.diff(values) > 0)
    require(rises.size == 0, f"{label} loss rises at iteration {rises[0] + 1 if rises.size else -1}")


def check_falls(history: list, label: str) -> None:
    values = np.array(history, dtype=np.float64)
    require(bool(np.isfinite(values).all()), f"{label} loss is not finite")
    require(values[-1] < values[0], f"{label} loss did not fall ({values[0]:.4g} -> {values[-1]:.4g})")


def check_dips(image: np.ndarray, scene: Scene) -> None:
    """Each gap column is darker than the middles of the slits beside it."""
    profile = image[slit_rows(scene)].mean(axis=0)
    slits, gaps = feature_columns(scene)
    for i, gap in enumerate(gaps):
        bright = min(profile[slits[i]], profile[slits[i + 1]])
        require(profile[gap] < bright, f"no dip at gap column {gap}: {profile[gap]:.4f} >= {bright:.4f}")


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over fully valid windows: 11x11 Gaussian window of sigma
    1.5, K1 = 0.01, K2 = 0.03, dynamic range 1 (Wang et al. 2004)."""
    x = np.arange(-5, 6, dtype=np.float64)
    g = np.exp(-(x**2) / 4.5)
    g /= g.sum()

    def mean(img):
        # The window is the outer product g g^T, so filter columns, then rows.
        return sliding_window_view(sliding_window_view(img, 11, axis=0) @ g, 11, axis=1) @ g

    mu_a, mu_b = mean(a), mean(b)
    var_a = mean(a * a) - mu_a**2
    var_b = mean(b * b) - mu_b**2
    cov = mean(a * b) - mu_a * mu_b
    c1, c2 = 0.01**2, 0.03**2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


# ------------------------------------------------------- benchmark.csv

BENCHMARK_HEADER = "cr,method,noise_sigma,repeats,ssim_mean,ssim_std,snr_mean,snr_std"
_WRAPPED = re.compile(r"^np\.float64\((.*)\)$")
_DECIMAL = re.compile(r"^-?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")


def _number(text: str) -> float:
    """A field's value, read through a numpy-2 repr such as np.float64(0.5)."""
    match = _WRAPPED.match(text)
    return float(match.group(1) if match else text)


def check_benchmark_rows(text: str, cells: list, repeats: int) -> list:
    """One well-formed row per (cr, method, noise) cell, in grid order.

    Returns the rows as (cr, method, noise, repeats, ssim_mean, ssim_std,
    snr_mean, snr_std).  Noiseless HSPI, DGI and CS-TV are deterministic,
    so their repeats agree and their spreads are exactly 0.
    """
    lines = text.splitlines()
    require(lines and lines[0] == BENCHMARK_HEADER, "benchmark.csv header is wrong")
    require(len(lines) - 1 == len(cells), f"benchmark.csv has {len(lines) - 1} rows, expected {len(cells)}")
    rows = []
    for line, (cr, method, noise) in zip(lines[1:], cells):
        fields = line.split(",")
        require(len(fields) == 8, f"row {line!r} does not have 8 fields")
        row = (_number(fields[0]), fields[1], _number(fields[2]), int(fields[3]),
               *(_number(f) for f in fields[4:]))
        require(row[:3] == (cr, method, noise), f"row {line!r} is not cell {(cr, method, noise)}")
        require(row[3] == repeats, f"row {line!r} reports {row[3]} repeats, expected {repeats}")
        require(-1.0 <= row[4] <= 1.0, f"row {line!r} has SSIM outside [-1, 1]")
        require(row[5] >= 0.0 and row[7] >= 0.0, f"row {line!r} has a negative spread")
        require(math.isfinite(row[6]) and math.isfinite(row[7]), f"row {line!r} has a non-finite SNR")
        if noise == 0.0 and method != "untrained":
            require(row[5] == 0.0 and row[7] == 0.0, f"noiseless {method} varies across repeats")
        rows.append(row)
    return rows


def plain_decimals(text: str) -> bool:
    """Whether every numeric field of benchmark.csv is a plain decimal."""
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if not all(_DECIMAL.match(f) for f in fields[:1] + fields[2:]):
            return False
    return True
