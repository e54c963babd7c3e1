"""Bit-exact 16-bit PGM (P5) reading and writing.

Values in [0, 1] map linearly onto [0, 65535] with round-to-nearest; samples
are stored big-endian per the PGM specification.  Key=value comment lines
after the magic carry optional metadata (e.g. the normalization scale of a
diffraction image) and round-trip byte-identically.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError
from .field import IntensityImage

MAXVAL = 65535


def write_pgm(path, image: IntensityImage, comments: dict | None = None) -> None:
    q = quantize(image.values)
    header = ["P5"]
    for key, val in (comments or {}).items():
        header.append(f"# {key}={val}")
    header.append(f"{image.width} {image.height}")
    header.append(str(MAXVAL))
    payload = "\n".join(header).encode("ascii") + b"\n" + q.astype(">u2").tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)


def quantize(values: np.ndarray) -> np.ndarray:
    v = np.clip(values, 0.0, 1.0)
    return np.rint(v * MAXVAL).astype(np.uint16)


def read_pgm(path):
    """Read a P5 file; returns (IntensityImage with values in [0, 1], comments).

    Raises FormatError with the offending byte offset on malformed input.
    Offsets count from 0 at the start of the file; a raster of the wrong
    length is reported at the byte where the raster begins.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    comments: dict = {}
    pos = 0

    def next_token() -> tuple[bytes, int]:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                end = data.find(b"\n", pos)
                if end < 0:
                    raise FormatError(f"unterminated comment at byte {pos}")
                text = data[pos + 1 : end].decode("ascii", "replace").strip()
                if "=" in text:
                    key, val = text.split("=", 1)
                    comments[key.strip()] = val.strip()
                pos = end + 1
            elif ch.isspace():
                pos += 1
            else:
                start = pos
                while pos < len(data) and not data[pos : pos + 1].isspace():
                    pos += 1
                return data[start:pos], start
        raise FormatError(f"unexpected end of header at byte {pos}")

    magic, off = next_token()
    if magic != b"P5":
        raise FormatError(f"not a P5 PGM (magic {magic!r} at byte {off})")
    fields = []
    for name in ("width", "height", "maxval"):
        token, off = next_token()
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"invalid {name} {token!r} at byte {off}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    if not 0 < maxval <= MAXVAL:
        raise FormatError(f"unsupported maxval {maxval}")
    # Exactly one whitespace byte separates the header from the raster.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"missing raster separator at byte {pos}")
    pos += 1
    bytes_per = 2 if maxval > 255 else 1
    need = width * height * bytes_per
    if len(data) - pos != need:
        raise FormatError(
            f"raster has {len(data) - pos} bytes at byte {pos}; expected {need}"
        )
    dtype = ">u2" if bytes_per == 2 else "u1"
    raster = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)
    above = np.flatnonzero(raster > maxval)
    if above.size:
        raise FormatError(f"sample above maxval {maxval} at byte {pos + int(above[0]) * bytes_per}")
    values = raster.reshape(height, width).astype(np.float64) / maxval
    return IntensityImage(values=values), comments
