"""Angular-spectrum propagation with explicit homogeneous/evanescent handling.

A field is a complex128 array of shape (n_y, n_x); its pixel pitch is passed
beside it.  The propagator is the spectral transfer method: FFT the field,
multiply each plane-wave component by its distance-dependent transfer
factor, inverse FFT.  With normalized transverse frequencies u = lambda*fx,
v = lambda*fy the transfer is

    exp(+i*k*d*sqrt(1 - u^2 - v^2))   for u^2 + v^2 <= 1  (homogeneous)
    exp(-k*d*sqrt(u^2 + v^2 - 1))     for u^2 + v^2 >  1  (evanescent), d >= 0
    0                                 for u^2 + v^2 >  1  (evanescent), d <  0

Backpropagation (d < 0) conjugates the homogeneous phase and zeroes the
evanescent band: its analytic inverse grows exponentially and would only
amplify measurement noise.  The sign of d is the whole rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class PropagationSpec:
    """Parameters of one free-space propagation step.

    Attributes
    ----------
    wavelength : float
        Free-space wavelength in meters.
    distance : float
        Signed propagation distance in meters; negative backpropagates.
    """

    wavelength: float
    distance: float

    def __post_init__(self):
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ParameterError(f"wavelength must be positive, got {self.wavelength}")
        if not np.isfinite(self.distance):
            raise ParameterError("propagation distance must be finite")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


@lru_cache(maxsize=8)
def _transfer(n_y: int, n_x: int, pitch: float, spec: PropagationSpec) -> np.ndarray:
    """Transfer function H on the unshifted FFT grid of an n_y x n_x field.

    Cached per geometry, so a propagate/adjoint pair builds H once; the
    array is shared and therefore read-only.
    """
    k = spec.wavenumber
    d = spec.distance
    fx = np.fft.fftfreq(n_x, d=pitch)
    fy = np.fft.fftfreq(n_y, d=pitch)
    rho_sq = (spec.wavelength**2) * (fy[:, None] ** 2 + fx[None, :] ** 2)
    inside = rho_sq <= 1.0

    transfer = np.zeros((n_y, n_x), dtype=np.complex128)
    transfer[inside] = np.exp(1j * k * d * np.sqrt(1.0 - rho_sq[inside]))
    if d >= 0:
        outside = ~inside
        transfer[outside] = np.exp(-d * (k * np.sqrt(rho_sq[outside] - 1.0)))
    transfer.setflags(write=False)
    return transfer


def propagate(field: np.ndarray, pitch: float, spec: PropagationSpec) -> np.ndarray:
    """Propagate a complex field of the given pixel pitch by spec.distance;
    d = 0 returns the input unchanged."""
    if spec.distance == 0.0:
        return field
    transfer = _transfer(*field.shape, pitch, spec)
    return np.fft.ifft2(np.fft.fft2(field) * transfer)


def transfer_gradient(upstream: np.ndarray, pitch: float, spec: PropagationSpec) -> np.ndarray:
    """Adjoint (conjugate transpose) of the propagate operator.

    Satisfies <propagate(x), y> = <x, transfer_gradient(y)> for every pair
    of fields, which is exactly what reverse-mode differentiation through
    the linear propagation stage requires.
    """
    if spec.distance == 0.0:
        return upstream
    transfer = _transfer(*upstream.shape, pitch, spec)
    return np.fft.ifft2(np.fft.fft2(upstream) * np.conj(transfer))
