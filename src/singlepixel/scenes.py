"""Scene construction and the flat key=value scene-file format.

A scene pins the optical geometry shared by every stage of a run: grid size,
field of view, wavelength, object-to-recording-plane distance, object shape,
modulation depth, noise level, and seed.  Lengths in scene files take `mm` or
`um` suffixes; bare numbers are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, read_text
from .field import IntensityImage
from .patterns import DEFAULT_MODULATION_DEPTH

THREE_SLIT = "three_slit"
BITMAP = "bitmap"


@dataclass(frozen=True)
class SceneSpec:
    grid: int
    fov: float
    wavelength: float
    distance: float
    object_kind: str
    slit_widths: tuple = ()
    slit_separations: tuple = ()
    slit_height: float | None = None
    bitmap_path: str | None = None
    modulation_depth: float = DEFAULT_MODULATION_DEPTH
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.grid < 2 or self.grid & (self.grid - 1):
            raise ParameterError(f"grid must be a power of two >= 2, got {self.grid}")
        bounds = {"fov": 0.0, "wavelength": 0.0, "distance": -math.inf, "slit_height": 0.0,
                  "slit_widths": 0.0, "slit_separations": 0.0}
        for key, low in bounds.items():
            values = getattr(self, key)
            for value in values if isinstance(values, tuple) else (values,):
                if value is not None and not low < value < math.inf:  # also rejects nan
                    raise ParameterError(f"{key} {value} outside ({low}, inf)")
        if self.object_kind not in (THREE_SLIT, BITMAP):
            raise ParameterError(f"unknown object kind {self.object_kind!r}")
        if self.object_kind == THREE_SLIT:
            if len(self.slit_widths) != 3 or len(self.slit_separations) != 2:
                raise ParameterError("three_slit needs 3 widths and 2 separations")
            total = sum(self.slit_widths) + sum(self.slit_separations)
            if total > self.fov:
                raise ParameterError(f"slit geometry ({total:.4g} m) exceeds the field of view")
            if self.slit_height is not None and self.slit_height > self.fov:
                raise ParameterError("slit height exceeds the field of view")
        if self.object_kind == BITMAP and not self.bitmap_path:
            raise ParameterError("bitmap object needs bitmap_path")
        if not 0.0 < self.modulation_depth <= 1.0:
            raise ParameterError("modulation_depth must lie in (0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ParameterError(f"noise sigma {self.noise_sigma} is not finite and >= 0")

    @property
    def pitch(self) -> float:
        return self.fov / self.grid


def parse_length(text: str) -> float:
    """Parse a length with optional mm/um suffix into meters."""
    s = text.strip()
    scale = 1.0
    if s.endswith("mm"):
        scale, s = 1e-3, s[:-2]
    elif s.endswith("um"):
        scale, s = 1e-6, s[:-2]
    elif s.endswith("m"):
        s = s[:-1]
    try:
        return float(s) * scale
    except ValueError:
        raise FormatError(f"cannot parse length {text!r}") from None


def parse_scene(text: str) -> SceneSpec:
    entries: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"scene line {line_no} is not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        entries[key] = val

    def pop(key, default=None):
        return entries.pop(key, default)

    kind = pop("object")
    if kind is None:
        raise FormatError("scene is missing the 'object' key")
    try:
        spec = SceneSpec(
            grid=int(pop("grid", "64")),
            fov=parse_length(pop("fov", "10.5mm")),
            wavelength=parse_length(pop("wavelength", "833.3um")),
            distance=parse_length(pop("distance", "0")),
            object_kind=kind,
            slit_widths=tuple(parse_length(t) for t in pop("slit_widths", "").split(",") if t.strip()),
            slit_separations=tuple(
                parse_length(t) for t in pop("slit_separations", "").split(",") if t.strip()
            ),
            slit_height=(parse_length(entries.pop("slit_height")) if "slit_height" in entries else None),
            bitmap_path=pop("bitmap_path"),
            modulation_depth=float(pop("modulation_depth", DEFAULT_MODULATION_DEPTH)),
            noise_sigma=float(pop("noise_sigma", "0")),
            seed=int(pop("seed", "0")),
        )
        if spec.object_kind == THREE_SLIT:
            _slit_and_gap_spans(spec)  # never draw two bars for three slits
    except ValueError as err:  # a ParameterError, or a non-numeric value
        raise FormatError(f"invalid scene: {err}") from err
    if entries:
        raise FormatError(f"unknown scene keys: {sorted(entries)}")
    return spec


def load_scene(path) -> SceneSpec:
    return parse_scene(read_text(path))


def _edge_to_pixel(coord_m: float, pitch: float) -> int:
    """Nearest pixel boundary; quantization error per edge <= pitch/2.

    An edge exactly halfway between two boundaries rounds up, so a slit whose
    edges both sit on half pixels keeps its width.  (Round-half-even would
    draw a one-pixel slit spanning 31.5..32.5 as zero columns.)
    """
    return math.floor(coord_m / pitch + 0.5)


def build_scene(spec: SceneSpec) -> IntensityImage:
    """Rasterize the scene's binary object mask (1 = transmissive)."""
    if spec.object_kind == THREE_SLIT:
        return _build_three_slit(spec)
    return _build_bitmap(spec)


def _slit_column_edges(spec: SceneSpec) -> list:
    """Drawn column range [lo, hi) of each slit of a three-slit scene."""
    pitch = spec.pitch
    widths = spec.slit_widths
    seps = spec.slit_separations
    x = (spec.fov - sum(widths) - sum(seps)) / 2.0
    edges = []
    for i, width in enumerate(widths):
        edges.append((_edge_to_pixel(x, pitch), _edge_to_pixel(x + width, pitch)))
        x += width
        if i < len(seps):
            x += seps[i]
    return edges


def _slit_and_gap_spans(spec: SceneSpec) -> list:
    """Drawn column ranges [lo, hi) of the slits, then of the gaps between them.

    Raises ParameterError when one of them rasterizes to no column.
    """
    edges = _slit_column_edges(spec)
    spans = edges + [(hi, lo) for (_, hi), (lo, _) in zip(edges, edges[1:])]
    if any(hi <= lo for lo, hi in spans):
        raise ParameterError(
            f"a slit or gap covers no pixel column at grid {spec.grid}: {edges}"
        )
    return spans


def _build_three_slit(spec: SceneSpec) -> IntensityImage:
    mask = np.zeros((spec.grid, spec.grid))
    row_lo, row_hi = slit_row_bounds(spec)
    for col_lo, col_hi in _slit_column_edges(spec):
        mask[row_lo:row_hi, col_lo:col_hi] = 1.0
    return IntensityImage(values=mask, pitch=spec.pitch)


def _build_bitmap(spec: SceneSpec) -> IntensityImage:
    from .pgm import read_pgm

    image, _ = read_pgm(spec.bitmap_path, pitch=spec.pitch)
    if image.width != spec.grid or image.height != spec.grid:
        raise ParameterError(
            f"bitmap is {image.width}x{image.height}, scene grid is {spec.grid}"
        )
    return IntensityImage(values=(image.values >= 0.5).astype(np.float64), pitch=spec.pitch)


def slit_feature_columns(spec: SceneSpec) -> tuple:
    """(slit-center columns, gap-center columns) of a three-slit scene.

    Both come from the rasterized edges that `build_scene` draws, so every
    peak column lies inside a drawn slit and every valley column inside a
    drawn gap.  A slit or gap that rasterizes to no column has no such
    column and raises ParameterError.
    """
    if spec.object_kind != THREE_SLIT:
        raise ParameterError("slit_feature_columns needs a three_slit scene")
    centers = tuple((lo + hi) // 2 for lo, hi in _slit_and_gap_spans(spec))
    n_slits = len(spec.slit_widths)
    return centers[:n_slits], centers[n_slits:]


def slit_row_bounds(spec: SceneSpec) -> tuple:
    """Row range [lo, hi) covered by the slits of a three-slit scene."""
    if spec.object_kind != THREE_SLIT:
        raise ParameterError("slit_row_bounds needs a three_slit scene")
    height = spec.slit_height if spec.slit_height is not None else 0.6 * spec.fov
    lo = _edge_to_pixel((spec.fov - height) / 2.0, spec.pitch)
    hi = _edge_to_pixel((spec.fov + height) / 2.0, spec.pitch)
    return lo, hi
