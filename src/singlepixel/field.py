"""The intensity-image grid type and its one rendering rule.

An `IntensityImage` is an immutable, nonnegative intensity grid: it guards
every image that comes from a file or a scene.  Grid sides must be powers of
two so the FFT-based propagator never needs implicit padding, and all
arithmetic is double precision.  The image carries no pixel pitch: only
propagation reads one, so it lives in `PropagationSpec` beside the
wavelength and distance.  Complex fields inside the physics chain are plain
complex128 arrays (see `propagation`).  `normalize` is the one rule that
renders an image to peak 1: the classical outputs (DGI's after shifting its
minimum to 0), `simulate`'s diffraction image and `benchmark`'s reference.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DimensionError, InvalidFieldError, ParameterError


@dataclass(frozen=True)
class IntensityImage:
    """Nonnegative real intensity on a power-of-two grid.

    Attributes
    ----------
    values : ndarray, shape (height, width), float64
        Intensity per pixel, finite and nonnegative.
    """

    values: np.ndarray
    # A second positional argument, the pixel pitch images once carried, is
    # accepted and ignored: perfbench/test_checks.py still passes one.
    _pitch: InitVar[object] = None

    def __post_init__(self, _pitch):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"image values must be 2D, got ndim={v.ndim}")
        height, width = v.shape
        if min(width, height) < 2 or width & (width - 1) or height & (height - 1):
            raise ParameterError(f"grid sides must be powers of two >= 2, got {width}x{height}")
        if not np.all(np.isfinite(v)):
            raise InvalidFieldError("image contains NaN or Inf values")
        if np.any(v < 0):
            raise ParameterError("intensity values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def normalize(values: np.ndarray) -> IntensityImage:
    """Clip negatives to 0 and scale to peak 1; no positive value renders all zero.

    Unlike a min-max rendering this does not lift background noise toward
    mid-gray, so signal-to-background ratios of the rendered image track the
    raw values.
    """
    clipped = np.maximum(values, 0.0)
    peak = float(clipped.max())
    if peak <= 0.0:
        return IntensityImage(values=np.zeros_like(clipped))
    return IntensityImage(values=clipped / peak)
