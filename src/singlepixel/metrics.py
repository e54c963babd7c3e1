"""Quantitative evaluation: SSIM and signal-to-noise ratio for the CLI, and
line profiles with dip contrast for the slit-resolution analysis.

SSIM takes the published defaults of Wang et al. (IEEE TIP 13, 600, 2004) as
constants: an 11 x 11 Gaussian window of sigma 1.5 (SSIM_WINDOW, SSIM_SIGMA),
stabilizers K1 = 0.01 and K2 = 0.03, and a unit dynamic range.  The window is
separable, outer(k, k) with k the normalized 1-D Gaussian, so `ssim` forms
each windowed mean of an image X as L @ X @ R, two small matrix products:
L, (rows - SSIM_WINDOW + 1, rows), holds k shifted by one column per row, and
R is the same band for the columns, transposed.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError
from .field import IntensityImage

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_DYNAMIC_RANGE = 1.0


def _kernel() -> np.ndarray:
    """The 1-D Gaussian of the SSIM window, normalized to sum 1."""
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(x**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def _band(k: np.ndarray, n: int) -> np.ndarray:
    """(n - len(k) + 1, n) matrix whose row i is k placed at columns i..i+len(k)-1."""
    rows = n - k.size + 1
    band = np.zeros((rows, n))
    # entry (i, i + j) sits at flat index i * (n + 1) + j
    band.reshape(-1)[np.arange(rows)[:, None] * (n + 1) + np.arange(k.size)] = k
    return band


def ssim(a: IntensityImage, b: IntensityImage) -> float:
    """Mean local structural similarity over all fully valid windows."""
    if a.values.shape != b.values.shape:
        raise DimensionError(f"image shapes differ: {a.values.shape} vs {b.values.shape}")
    if min(a.values.shape) < SSIM_WINDOW:
        raise ParameterError("image smaller than the SSIM window")
    k = _kernel()
    xa, xb = a.values, b.values
    left, right = _band(k, xa.shape[0]), _band(k, xa.shape[1]).T
    mu_a, mu_b, e_aa, e_bb, e_ab = (
        left @ x @ right for x in (xa, xb, xa * xa, xb * xb, xa * xb)
    )
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    c1 = (SSIM_K1 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DYNAMIC_RANGE) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def snr(image: IntensityImage, signal_mask: np.ndarray) -> float:
    """Mean intensity in the signal region over the standard deviation of the
    complement (noise) region.  A perfectly constant noise region gives inf
    rather than raising."""
    mask = np.asarray(signal_mask)
    if mask.shape != image.values.shape:
        raise DimensionError("signal mask shape must match the image")
    sig = mask != 0
    n_signal = int(sig.sum())
    n_noise = sig.size - n_signal
    if n_signal == 0:
        raise ParameterError("signal region is empty")
    if n_noise < 2:
        raise ParameterError("noise region needs at least 2 pixels")
    mu = float(image.values[sig].mean())
    sd = float(image.values[~sig].std())
    if sd == 0.0:
        return float("inf")
    return mu / sd


def line_profile(image: IntensityImage, axis: str = "cols", region=None) -> np.ndarray:
    """Per-column (or per-row) mean intensity, normalized to peak 1.

    `region`, when given, is a (lo, hi) bound on the averaged axis, so the
    profile covers only the imaging region of interest (e.g. the rows spanned
    by a slit mask).
    """
    values = image.values
    if region is not None:
        lo, hi = region
        values = values[lo:hi, :] if axis == "cols" else values[:, lo:hi]
        if values.size == 0:
            raise ParameterError(f"empty profiling region {region}")
    if axis == "cols":
        p = values.mean(axis=0)
    elif axis == "rows":
        p = values.mean(axis=1)
    else:
        raise ParameterError(f"axis must be 'rows' or 'cols', got {axis!r}")
    peak = p.max()
    if peak <= 0:
        raise DegenerateInputError("cannot profile an all-zero image")
    return p / peak


def dip_contrast(profile: np.ndarray, peak_positions, valley_positions) -> float:
    """Mean relative dip depth at known valley positions between known peaks.

    For each valley the reference level is the smaller of the nearest peak
    samples to its left and right; depths are clamped at 0.  With the slit
    and gap columns of `scenes.slit_feature_columns` it measures how well a
    reconstruction resolves the gaps of a three-slit scene.
    """
    p = np.asarray(profile, dtype=np.float64)
    peaks = sorted(int(i) for i in peak_positions)
    if not peaks or len(list(valley_positions)) == 0:
        raise ParameterError("need at least one peak and one valley position")
    depths = []
    for v in valley_positions:
        left = [i for i in peaks if i <= v]
        right = [i for i in peaks if i >= v]
        if not left or not right:
            raise ParameterError(f"valley {v} is not bracketed by peaks")
        ref = min(p[left[-1]], p[right[0]])
        depths.append(max(0.0, (ref - p[int(v)]) / ref) if ref > 0 else 0.0)
    return float(np.mean(depths))
