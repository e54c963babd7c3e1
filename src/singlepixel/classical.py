"""Non-learning reconstructors: inverse-Hadamard SPI, differential ghost
imaging, and TV-regularized compressed sensing (monotone FISTA).

All three operate on the pattern grid.  `raw` on the result keeps each
method's native signed output (HSPI coefficients can dip negative under
undersampling); `image` is the nonnegative [0, 1] rendering by
`field.normalize` (DGI's after shifting its minimum to 0) used for metric
evaluation and file output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .field import IntensityImage, normalize
from .measurement import Measurement, check_compatible, encode, encode_adjoint
from .patterns import PatternSet, synthesize
from .tvreg import check_tv_weight, tv_anisotropic, tv_prox

DEFAULT_CSTV_ITERATIONS = 200


@dataclass(frozen=True)
class ReconResult:
    image: IntensityImage
    raw: np.ndarray
    residual_history: tuple = ()

    @property
    def iterations_used(self) -> int:
        """Iterations run: one recorded loss each, none for hspi and dgi."""
        return len(self.residual_history)


def hspi_reconstruct(meas: Measurement, pattern_set: PatternSet) -> ReconResult:
    """Partial inverse Hadamard transform O = (1/N) * sum_i I_i * P_i.

    Unmeasured coefficients stay zero (minimum-norm completion); for full
    sampling with zero noise this inverts the forward model up to the global
    modulation-depth factor.
    """
    check_compatible(meas, pattern_set)
    raw = synthesize(pattern_set, meas.readings) / pattern_set.pixels
    return ReconResult(image=normalize(raw), raw=raw)


def dgi_reconstruct(meas: Measurement, pattern_set: PatternSet) -> ReconResult:
    """Differential ghost imaging: centered pattern/readout correlation.

    The normalized signal I'_i = I_i - (<I>/<S>) * S_i uses the pattern sums
    S_i, known in closed form: S_i = N for Hadamard row 0 (the DC row) and 0
    for every balanced row.  So only the DC reading is corrected, by
    <I> / (N/M) * N, and an ensemble without the DC row (<S> = 0) is left as
    it is.  The centered correlation over patterns then reduces to one
    synthesis because the mean-pattern term multiplies a zero-sum weight
    vector.  The image is `normalize(raw - raw.min())`, spanning [0, 1]; the
    native affine calibration is arbitrary.

    The image is invariant to a reading gain and to a background
    proportional to S_i (a uniform object or uniform stray light), which the
    correction cancels.  It is not invariant to a constant reading offset:
    every Hadamard row is +1 at pixel (0, 0), so a constant offset is the
    reading of a point at (0, 0) and is imaged as one.
    """
    check_compatible(meas, pattern_set)
    m_count = meas.count
    if m_count < 2:
        raise ParameterError("DGI needs at least 2 measurements")
    n_pixels = pattern_set.pixels
    readings = meas.readings
    normalized = readings.copy()
    dc = pattern_set.rows == 0  # selects nothing in an ensemble without the DC row
    normalized[dc] = readings[dc] - readings.mean() / (n_pixels / m_count) * n_pixels
    weights = (normalized - normalized.mean()) / m_count
    raw = synthesize(pattern_set, weights)
    return ReconResult(image=normalize(raw - raw.min()), raw=raw)


def cstv_reconstruct(
    meas: Measurement,
    pattern_set: PatternSet,
    tv_weight: float | None = None,
    max_iters: int = DEFAULT_CSTV_ITERATIONS,
) -> ReconResult:
    """argmin_O 0.5*||I - A O||^2 + tv_weight * TV(O), O >= 0.

    A is `encode`, the modulation-scaled pattern integration.  Solved with
    proximal gradient + FISTA acceleration in its monotone variant (a trial
    iterate that raises the objective is rejected, so the recorded objective
    never increases); the TV proximal map is `tv_prox` at its default count
    of inner dual iterations.  The step is 1/L with the exact Lipschitz
    constant L = m^2 * N of the data term: A^T A = m^2 * H P_sel H, and
    H H = N * I, so A^T A / (m^2 N) is an orthogonal projection.

    A is linear, so A y is the same combination of A x_next, A z and A x as
    y is of x_next, z and x: each iteration runs one `encode` (of the trial
    z, which the objective needs) and one `encode_adjoint`.
    """
    check_compatible(meas, pattern_set)
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    if tv_weight is None:
        tv_weight = 1e-3 * float(np.abs(meas.readings).max())
    check_tv_weight(tv_weight)

    n = pattern_set.order
    depth = pattern_set.modulation_depth
    step = 1.0 / (depth * depth * pattern_set.pixels)

    def objective(x: np.ndarray, ax: np.ndarray) -> float:
        r = ax - meas.readings
        return 0.5 * float(r @ r) + tv_weight * tv_anisotropic(x)

    x = np.zeros((n, n))
    ax = np.zeros(meas.count)  # encode(x), known without a transform
    y, ay = x, ax
    t = 1.0
    f_x = objective(x, ax)
    f_init = max(f_x, 1e-300)
    history = []
    for _ in range(max_iters):
        grad = encode_adjoint(ay - meas.readings, pattern_set)
        z = tv_prox(y - step * grad, tv_weight * step)
        np.maximum(z, 0.0, out=z)
        az = encode(z, pattern_set)
        f_z = objective(z, az)
        if not np.isfinite(f_z) or f_z > 1e3 * f_init:
            raise NumericalError("CS-TV diverged; step-size failure", stage="fista")
        if f_z <= f_x:
            x_next, ax_next, f_x = z, az, f_z
        else:
            x_next, ax_next = x, ax
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        c1, c2 = t / t_next, (t - 1.0) / t_next
        y = x_next + c1 * (z - x_next) + c2 * (x_next - x)
        ay = ax_next + c1 * (az - ax_next) + c2 * (ax_next - ax)
        x, ax, t = x_next, ax_next, t_next
        history.append(f_x)

    return ReconResult(image=normalize(x), raw=x, residual_history=tuple(history))
