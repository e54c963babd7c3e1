"""The single-pixel forward model, and `objective`, the one data term of a fit.

`diffract` carries an object-plane intensity O to the modulator as the
diffraction image O_d = |propagate(sqrt(O))|^2.  A differential reading
subtracts the bucket signals of the two complementary binary half-masks of
one +/-1 pattern, each pumping the other's cells, so

    I_i = m * <P_i, O_d>  +  (eta_i_plus - eta_i_minus)

with eta zero-mean Gaussian draws per half-measurement from one generator
seeded with the measurement's seed.  `encode` yields every <P_i, O_d> at
once: one separable 2-D Walsh-Hadamard transform of O_d, block-averaged onto
the n x n pattern grid.  So an open aperture (O = 1 everywhere) reads m * N
at the DC pattern and 0 at every other, N = n * n.  `objective` is the one
place where the physics of a fit is written: the data term
|| encode(diffract(O)) - I ||^2 and its exact gradient dL/dO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConsistencyError, DimensionError, FormatError, NumericalError,
                     ParameterError, read_text)
from .field import IntensityImage
from .patterns import PatternSet, project, synthesize
from .propagation import PropagationSpec, propagate, transfer_gradient


@dataclass(frozen=True)
class Measurement:
    """1D detector readout vector with noise metadata."""

    readings: np.ndarray
    pattern_ref: str
    noise_sigma: float
    seed: int

    def __post_init__(self):
        r = np.asarray(self.readings, dtype=np.float64)
        if r.ndim != 1:
            raise DimensionError("readings must be a 1D vector")
        if not np.all(np.isfinite(r)):
            raise ParameterError("readings must be finite")
        r.setflags(write=False)
        object.__setattr__(self, "readings", r)

    @property
    def count(self) -> int:
        return self.readings.shape[0]


def diffract(obj: IntensityImage, prop: PropagationSpec) -> IntensityImage:
    """Intensity that an object-plane intensity, sampled at prop.pitch, casts
    on the recording plane."""
    field_d = propagate(np.sqrt(obj.values).astype(np.complex128), prop)
    return IntensityImage(values=field_d.real * field_d.real + field_d.imag * field_d.imag)


def block_pool(values: np.ndarray, order: int) -> np.ndarray:
    """Mean of the image pixels over the integer block covered by each pattern
    cell, so a scene sampled b times finer than the pattern grid reads the
    intensity scale of the grid itself; at b = 1 the image is returned as is."""
    h, w = values.shape
    if h % order or w % order or h // order != w // order:
        raise DimensionError(f"image {h}x{w} is not an integer replication of order {order}")
    b = h // order
    if b == 1:
        return values
    return values.reshape(order, b, order, b).mean(axis=(1, 3))


def encode(values: np.ndarray, pattern_set: PatternSet) -> np.ndarray:
    """Noiseless readings m * <P_i, block_pool(values)> of an image grid."""
    pooled = block_pool(values, pattern_set.order)
    return pattern_set.modulation_depth * project(pattern_set, pooled)


def encode_adjoint(weights: np.ndarray, pattern_set: PatternSet) -> np.ndarray:
    """Adjoint of `encode` on the pattern grid: m * sum_i w_i P_i."""
    return pattern_set.modulation_depth * synthesize(pattern_set, weights)


def check_compatible(meas: Measurement, pattern_set: PatternSet) -> None:
    if meas.count != pattern_set.count:
        raise ConsistencyError(
            f"measurement has {meas.count} readings but pattern set has {pattern_set.count}"
        )


def objective(values: np.ndarray, meas: Measurement, pattern_set: PatternSet,
              prop: PropagationSpec):
    """(L, dL/dO) of the data term L = || encode(diffract(O)) - I ||^2, with O
    the intensity `values` at prop.pitch and I the readings of `meas` (an open
    aperture, O = 1 everywhere, reads m * N at the DC pattern, 0 elsewhere).

    Reverse mode carries c = dL/d(conj E): encode_adjoint(2 * residual) * E_d,
    then `transfer_gradient`, then Re(c_0) / sqrt(O), which needs O > 0 (the
    floor only guards float underflow).  A non-finite L raises NumericalError
    at stage "loss" before the reverse pass."""
    check_compatible(meas, pattern_set)
    amp = np.sqrt(values)
    field_d = propagate(amp.astype(np.complex128), prop)
    diffracted = field_d.real * field_d.real + field_d.imag * field_d.imag
    residual = encode(diffracted, pattern_set) - meas.readings
    with np.errstate(over="ignore"):  # an overflow is the inf checked below
        data_loss = float(residual @ residual)
    if not np.isfinite(data_loss):
        raise NumericalError("non-finite loss", stage="loss")
    c_d = encode_adjoint(2.0 * residual, pattern_set) * field_d
    return data_loss, transfer_gradient(c_d, prop).real / np.maximum(amp, 1e-200)


def measure(
    diffracted: IntensityImage,
    pattern_set: PatternSet,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> Measurement:
    """Differential single-pixel readout of a diffraction image.

    The noise is one (count, 2) normal draw from a PCG64 generator seeded
    with `seed`; row i holds the two half-measurement draws of pattern i.
    So readings are reproducible bit-for-bit in every process, and the first
    k readings of a set are the readings of its `subset(k)`.
    """
    if not 0 <= noise_sigma < np.inf:
        raise ParameterError(f"noise sigma {noise_sigma} is not finite and >= 0")
    if noise_sigma > 0 and seed < 0:
        raise ParameterError(f"noise seed {seed} is negative")
    readings = encode(diffracted.values, pattern_set)
    if noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        eta = rng.normal(0.0, noise_sigma, (pattern_set.count, 2))
        readings = readings + (eta[:, 0] - eta[:, 1])
    return Measurement(readings=readings, pattern_ref=pattern_set.identifier,
                       noise_sigma=float(noise_sigma), seed=int(seed))


def write_measurement_csv(path, meas: Measurement) -> None:
    """CSV with a leading comment recording the acquisition metadata."""
    lines = [
        f"# noise_sigma={meas.noise_sigma!r} seed={meas.seed} "
        f"differential=true pattern_ref={meas.pattern_ref}",
        "index,reading",
    ]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(meas.readings))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measurement_csv(path) -> Measurement:
    noise_sigma = 0.0
    seed = 0
    pattern_ref = ""
    readings = []
    lines = read_text(path).splitlines()
    body = []
    for ln in lines:
        if ln.startswith("#"):
            for token in ln[1:].split():
                if "=" not in token:
                    continue
                key, val = token.split("=", 1)
                try:
                    if key == "noise_sigma":
                        noise_sigma = float(val)
                        if not 0 <= noise_sigma < np.inf:
                            raise ValueError(val)
                    elif key == "seed":
                        seed = int(val)
                    elif key == "differential" and val != "true":  # readings are differential only
                        raise ValueError(val)
                    elif key == "pattern_ref":
                        pattern_ref = val
                except ValueError:
                    raise FormatError(f"bad {key} {val!r} in the header of {path}") from None
        elif ln.strip():
            body.append(ln)
    if not body or body[0].strip() != "index,reading":
        raise FormatError(f"measurement CSV missing 'index,reading' header in {path}")
    for row_no, ln in enumerate(body[1:]):
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(f"malformed measurement row {row_no} in {path}: {ln!r}")
        try:
            index, reading = int(parts[0]), float(parts[1])
        except ValueError:
            raise FormatError(f"malformed measurement row {row_no} in {path}: {ln!r}") from None
        if index != row_no:
            raise FormatError(f"non-contiguous index at row {row_no} in {path}")
        readings.append(reading)
    return Measurement(readings=np.array(readings, dtype=np.float64), pattern_ref=pattern_ref,
                       noise_sigma=noise_sigma, seed=seed)
