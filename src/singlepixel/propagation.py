"""Angular-spectrum propagation with explicit homogeneous/evanescent handling.

The propagator is the spectral transfer method: FFT the field, multiply each
plane-wave component by its distance-dependent transfer factor, inverse FFT.
With normalized transverse frequencies u = lambda*fx, v = lambda*fy the
transfer is

    exp(+i*k*d*sqrt(1 - u^2 - v^2))   for u^2 + v^2 <= 1  (homogeneous)
    exp(-k*|d|*sqrt(u^2 + v^2 - 1))   for u^2 + v^2 >  1  (evanescent, decaying)

Backpropagation (d < 0) conjugates the homogeneous phase; what happens to the
evanescent band is a policy choice because the analytic inverse amplifies it
exponentially and explodes measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .field import ComplexField

ATTENUATE = "attenuate"
ZERO = "zero"
CLAMP = "clamp"

_POLICIES = (ATTENUATE, ZERO, CLAMP)


@dataclass(frozen=True)
class PropagationSpec:
    """Parameters of one free-space propagation step.

    Attributes
    ----------
    wavelength : float
        Free-space wavelength in meters.
    distance : float
        Signed propagation distance in meters; negative backpropagates.
    evanescent_policy : str or None
        One of "attenuate", "zero", "clamp".  None resolves to "attenuate"
        for forward distances and "zero" for backward ones: amplifying
        evanescent waves on backpropagation only amplifies noise.
    gain_cap : float or None
        Maximum evanescent gain under the "clamp" policy (>= 1).
    band_limit : bool
        Apply the aliasing-free circular low-pass for this distance and
        grid extent before the transfer.
    pad_factor : int
        Zero-pad the grid by this integer factor before the FFT to
        suppress periodic wraparound; 1 disables padding and makes the
        operator exactly unitary on the propagating band.
    """

    wavelength: float
    distance: float
    evanescent_policy: str | None = None
    gain_cap: float | None = None
    band_limit: bool = False
    pad_factor: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ParameterError(f"wavelength must be positive, got {self.wavelength}")
        if not np.isfinite(self.distance):
            raise ParameterError("propagation distance must be finite")
        if self.evanescent_policy is not None and self.evanescent_policy not in _POLICIES:
            raise ParameterError(f"unknown evanescent policy {self.evanescent_policy!r}")
        if self.evanescent_policy == CLAMP:
            if self.gain_cap is None or self.gain_cap < 1.0:
                raise ParameterError("clamp policy requires gain_cap >= 1")
        if self.pad_factor < 1 or int(self.pad_factor) != self.pad_factor:
            raise ParameterError("pad_factor must be an integer >= 1")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def resolved_policy(self) -> str:
        if self.evanescent_policy is not None:
            return self.evanescent_policy
        return ATTENUATE if self.distance >= 0 else ZERO

    def with_distance(self, distance: float) -> "PropagationSpec":
        return replace(self, distance=distance)


def _normalized_freq_sq(n_y: int, n_x: int, pitch: float, wavelength: float):
    """(u^2 + v^2, fx^2 + fy^2) on the unshifted FFT grid."""
    fx = np.fft.fftfreq(n_x, d=pitch)
    fy = np.fft.fftfreq(n_y, d=pitch)
    f_sq = fy[:, None] ** 2 + fx[None, :] ** 2
    return (wavelength**2) * f_sq, f_sq


def _transfer_factors(n_y: int, n_x: int, pitch: float, spec: PropagationSpec):
    """Homogeneous and evanescent transfer grids, plus the capped-gain flag."""
    k = spec.wavenumber
    d = spec.distance
    rho_sq, f_sq = _normalized_freq_sq(n_y, n_x, pitch, spec.wavelength)
    inside = rho_sq <= 1.0

    hom = np.zeros((n_y, n_x), dtype=np.complex128)
    hom[inside] = np.exp(1j * k * d * np.sqrt(1.0 - rho_sq[inside]))

    eva = np.zeros((n_y, n_x), dtype=np.complex128)
    capped = False
    policy = spec.resolved_policy()
    outside = ~inside
    if policy != ZERO and np.any(outside):
        decay = k * np.sqrt(rho_sq[outside] - 1.0)
        if policy == ATTENUATE:
            eva[outside] = np.exp(-abs(d) * decay)
        else:  # clamp: analytic transfer exp(-k*d*sqrt(...)), magnitude capped
            gain = np.exp(-d * decay)
            cap = float(spec.gain_cap)
            if np.any(gain > cap):
                capped = True
                gain = np.minimum(gain, cap)
            eva[outside] = gain

    if spec.band_limit and d != 0.0:
        # Aliasing-free limit for the sampled transfer (circular version of
        # the band-limited angular spectrum criterion).
        extent = n_x * pitch
        df = 1.0 / extent
        f_lim = 1.0 / (spec.wavelength * np.sqrt((2.0 * df * d) ** 2 + 1.0))
        keep = f_sq <= f_lim**2
        hom *= keep
        eva *= keep

    return hom, eva, capped


def _pad(values: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return values
    n_y, n_x = values.shape
    out = np.zeros((n_y * factor, n_x * factor), dtype=values.dtype)
    oy = (out.shape[0] - n_y) // 2
    ox = (out.shape[1] - n_x) // 2
    out[oy : oy + n_y, ox : ox + n_x] = values
    return out


def _crop(values: np.ndarray, n_y: int, n_x: int) -> np.ndarray:
    if values.shape == (n_y, n_x):
        return values
    oy = (values.shape[0] - n_y) // 2
    ox = (values.shape[1] - n_x) // 2
    return values[oy : oy + n_y, ox : ox + n_x]


def _apply_transfer(field: ComplexField, spec: PropagationSpec, transfer: np.ndarray) -> np.ndarray:
    v = _pad(field.values, spec.pad_factor)
    out = np.fft.ifft2(np.fft.fft2(v) * transfer)
    return _crop(out, field.height, field.width)


def propagate(field: ComplexField, spec: PropagationSpec) -> ComplexField:
    """Propagate a field by spec.distance; d = 0 returns the input unchanged."""
    if spec.distance == 0.0:
        return field
    n_y = field.height * spec.pad_factor
    n_x = field.width * spec.pad_factor
    hom, eva, capped = _transfer_factors(n_y, n_x, field.pitch, spec)
    out = _apply_transfer(field, spec, hom + eva)
    warnings = ("evanescent-gain-capped",) if capped else ()
    return field.with_values(out, warnings=warnings)


def transfer_gradient(upstream: ComplexField, spec: PropagationSpec) -> ComplexField:
    """Adjoint (conjugate transpose) of the propagate operator.

    Satisfies <propagate(x), y> = <x, transfer_gradient(y)> for every pair
    of fields, which is exactly what reverse-mode differentiation through
    the linear propagation stage requires.
    """
    if spec.distance == 0.0:
        return upstream
    n_y = upstream.height * spec.pad_factor
    n_x = upstream.width * spec.pad_factor
    hom, eva, _ = _transfer_factors(n_y, n_x, upstream.pitch, spec)
    out = _apply_transfer(upstream, spec, np.conj(hom + eva))
    return upstream.with_values(out)
