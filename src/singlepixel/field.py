"""The intensity-image grid type and its normalization.

An `IntensityImage` is an immutable value object on a uniform square-pixel
grid: it guards every image that comes from a file or a scene.  Grid sides
must be powers of two so the FFT-based propagator never needs implicit
padding, and all arithmetic is double precision.  Complex fields inside the
physics chain are plain complex128 arrays (see `propagation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, InvalidFieldError, ParameterError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_grid(width: int, height: int, pitch: float) -> None:
    if width < 2 or height < 2 or not (_is_power_of_two(width) and _is_power_of_two(height)):
        raise ParameterError(f"grid sides must be powers of two >= 2, got {width}x{height}")
    if not (np.isfinite(pitch) and pitch > 0):
        raise ParameterError(f"pixel pitch must be positive and finite, got {pitch}")


@dataclass(frozen=True)
class IntensityImage:
    """Nonnegative real intensity on a power-of-two grid of square pixels.

    Attributes
    ----------
    values : ndarray, shape (height, width), float64
        Intensity per pixel, finite and nonnegative.
    pitch : float
        Meters per pixel (same in x and y).
    """

    values: np.ndarray
    pitch: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"image values must be 2D, got ndim={v.ndim}")
        _check_grid(v.shape[1], v.shape[0], self.pitch)
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

    def with_values(self, values: np.ndarray) -> "IntensityImage":
        return IntensityImage(values=values, pitch=self.pitch)


def normalize(image: IntensityImage) -> IntensityImage:
    """Scale an image to [0, 1] with max exactly 1.

    Raises
    ------
    DegenerateInputError
        If the image is identically zero.
    """
    peak = float(image.values.max())
    if peak <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero image")
    return image.with_values(image.values / peak)
