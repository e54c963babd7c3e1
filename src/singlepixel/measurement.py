"""Single-pixel forward model: diffract, encode, integrate, add noise.

`diffract` carries an object-plane intensity O to the modulator as the
diffraction image O_d = |propagate(sqrt(O))|^2, and `diffract_vjp` adds its
reverse mode.  A differential reading subtracts the bucket signals of the
two complementary binary half-masks of one +/-1 pattern.  Because the pumped
(blocked) regions for the positive half are exactly the -1 cells and vice
versa, the two-mask algebra collapses to

    I_i = m * <P_i, O_d>  +  (eta_i_plus - eta_i_minus)

which is how the readings are computed here (`encode`, with its adjoint
`encode_adjoint`): one fast Walsh-Hadamard transform of the (block-pooled)
diffraction image yields every <P_i, O_d> at once.  eta are independent
zero-mean Gaussian draws per half-measurement, all taken from one generator
seeded with the measurement's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, FormatError, ParameterError, read_text
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


def diffract_vjp(values: np.ndarray, pitch: float, prop: PropagationSpec):
    """Diffraction image O_d of an object-plane intensity O, and the
    pullback that maps g = dL/dO_d to dL/dO.

    Through the complex stages the pullback carries c = dL/d(conj E): the
    intensity stage gives c_d = g * E_d, the propagation maps it through its
    adjoint (`transfer_gradient`), and the zero-phase amplitude sqrt(O) lands
    on the real gradient Re(c_0) / sqrt(O).  That needs O > 0; the floor only
    guards float underflow.
    """
    amp = np.sqrt(values)
    field_d = propagate(amp.astype(np.complex128), pitch, prop)

    def pullback(g: np.ndarray) -> np.ndarray:
        return transfer_gradient(g * field_d, pitch, prop).real / np.maximum(amp, 1e-200)

    return field_d.real * field_d.real + field_d.imag * field_d.imag, pullback


def diffract(obj: IntensityImage, prop: PropagationSpec) -> IntensityImage:
    """Intensity that an object-plane intensity casts on the recording plane."""
    return obj.with_values(diffract_vjp(obj.values, obj.pitch, prop)[0])


def block_pool(values: np.ndarray, order: int) -> np.ndarray:
    """Sum image pixels over the integer blocks covered by each pattern cell."""
    h, w = values.shape
    if h % order or w % order or h // order != w // order:
        raise DimensionError(f"image {h}x{w} is not an integer replication of order {order}")
    b = h // order
    if b == 1:
        return values
    return values.reshape(order, b, order, b).sum(axis=(1, 3))


def upsample_mask(mask: np.ndarray, height: int, width: int) -> np.ndarray:
    """Replicate pattern cells into integer blocks of image pixels (the
    adjoint of `block_pool`)."""
    mh, mw = mask.shape
    if height % mh or width % mw or height // mh != width // mw:
        raise DimensionError(
            f"mask {mh}x{mw} does not tile image {height}x{width} by an integer factor"
        )
    b = height // mh
    if b == 1:
        return mask
    return np.repeat(np.repeat(mask, b, axis=0), b, axis=1)


def encode(values: np.ndarray, pattern_set: PatternSet) -> np.ndarray:
    """Noiseless readings m * <P_i, block_pool(values)> of an image grid."""
    pooled = block_pool(values, pattern_set.order)
    return pattern_set.modulation_depth * project(pattern_set, pooled)


def encode_adjoint(weights: np.ndarray, pattern_set: PatternSet, shape) -> np.ndarray:
    """Adjoint of `encode` on a grid of `shape`: m * sum_i w_i P_i, each
    pattern cell replicated over its block of pixels."""
    return upsample_mask(pattern_set.modulation_depth * synthesize(pattern_set, weights), *shape)


def check_compatible(meas: Measurement, pattern_set: PatternSet) -> None:
    if meas.count != pattern_set.count:
        raise ConsistencyError(
            f"measurement has {meas.count} readings but pattern set has {pattern_set.count}"
        )


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
    readings = encode(diffracted.values, pattern_set)
    if noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        eta = rng.normal(0.0, noise_sigma, (pattern_set.count, 2))
        readings = readings + (eta[:, 0] - eta[:, 1])
    return Measurement(
        readings=readings,
        pattern_ref=pattern_set.identifier,
        noise_sigma=float(noise_sigma),
        seed=int(seed),
    )


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
    return Measurement(
        readings=np.array(readings, dtype=np.float64),
        pattern_ref=pattern_ref,
        noise_sigma=noise_sigma,
        seed=seed,
    )
