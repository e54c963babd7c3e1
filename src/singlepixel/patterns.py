"""Walsh-Hadamard differential pattern sets and the photomodulator model.

A pattern is named by its row r of the Sylvester Hadamard matrix of order
N = n*n; reshaped to n x n, row r1*n + r0 is outer(H_n[r1], H_n[r0]).  Masks
are derived on demand; `project` and `synthesize` apply the pattern operator
and its adjoint through the Walsh-Hadamard transform, computed as two matrix
products with H_a and H_b (N = a*b) in O(N*sqrt(N)).

Physically a +1 logical state is the unpumped (transparent) modulator region;
pumped regions attenuate the probe intensity by the modulation depth m.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import FormatError, ParameterError, SinglePixelError

NATURAL = "natural"
SEQUENCY = "sequency"

_ORDERING_CODES = {NATURAL: 0, SEQUENCY: 1}
_ORDERING_NAMES = {v: k for k, v in _ORDERING_CODES.items()}

_PATTERN_MAGIC = b"SPIP"
_PATTERN_VERSION = 1
_CHECK_BLOCK_BYTES = 1 << 20  # payload bytes `load_patterns` checks at a time

DEFAULT_MODULATION_DEPTH = 0.9


def fwht(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform in natural (Sylvester) order.

    Computes y[r] = sum_c H[r, c] * x[c] with H[r, c] = (-1)**popcount(r & c).
    Operates on the last axis, which must have power-of-two length, and
    returns a new float64 array.  The transform is its own inverse up to a
    factor 1/len.

    H_N is the Kronecker product H_a (x) H_b for N = a*b with a = b or
    a = 2b, so the last axis is reshaped to X of shape (a, b) and
    transformed as H_a @ X @ H_b, two matrix products with cached H_a, H_b.
    """
    x = np.asarray(vec, dtype=np.float64)
    n = x.shape[-1]
    if n & (n - 1) or n == 0:
        raise ParameterError(f"FWHT length must be a power of two, got {n}")
    bits = n.bit_length() - 1
    a, b = 1 << (bits - bits // 2), 1 << (bits // 2)
    lead = x.shape[:-1]
    return (_hadamard(a) @ x.reshape(lead + (a, b)) @ _hadamard(b)).reshape(lead + (n,))


def _sequency_selection(order_n: int, count_m: int) -> list:
    """Natural row indices of the `count_m` lowest-sequency masks.

    A row of H_{n*n} at natural index r = r1*n + r0 reshapes to the separable
    mask walsh(r1) (x) walsh(r0), whose total 2D sign-change count is
    n * (seq(r1) + seq(r0)).  Enumerating 1D-sequency pairs (sy, sx) in
    ascending sum keeps the masks isotropically low-frequency; ties break by
    max component then sx so the order is deterministic.  Each count in
    [0, n) is the sign-change count of exactly one row of H_n, so sorting
    the rows by it gives the natural index of every sequency.
    """
    h = _hadamard(order_n)
    natural = np.argsort(np.count_nonzero(h[:, 1:] != h[:, :-1], axis=1))
    sy, sx = np.divmod(np.arange(order_n * order_n), order_n)
    first = np.lexsort((sy, sx, np.maximum(sx, sy), sx + sy))[:count_m]
    return (natural[sy[first]] * order_n + natural[sx[first]]).tolist()


def _check_order(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ParameterError(f"pattern order must be a power of two >= 2, got {n}")


def _first_repeat(selection) -> tuple | None:
    """(j, k) for the first position k whose row already sits at j < k, else None."""
    first = {}
    for k, row in enumerate(selection):
        if first.setdefault(row, k) != k:
            return first[row], k
    return None


@lru_cache(maxsize=32)
def _hadamard(length: int) -> np.ndarray:
    """H_length as a read-only float64 +/-1 matrix, built once per length.

    Sylvester doubling: H_1 = [1] and H_2k = [[H_k, H_k], [H_k, -H_k]], so
    entry (r, c) is (-1)**popcount(r & c).
    """
    h = np.ones((1, 1))
    while h.shape[0] < length:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _hadamard_masks(order: int, rows) -> np.ndarray:
    """The (M, order, order) int8 masks of the given rows, in O(M*N) (nothing for M = 0)."""
    r1, r0 = np.divmod(np.asarray(rows, dtype=np.int64), order)
    h = _hadamard(order).astype(np.int8)
    return h[r1][:, :, None] * h[r0][:, None, :]


@dataclass(frozen=True)
class PatternSet:
    """Ordered set of +/-1 Walsh-Hadamard masks, named by Hadamard row index.

    The masks, the pattern operator, the pattern sums and the fingerprint
    all follow from the selection.

    Attributes
    ----------
    order : int
        Pixels per side n; the pattern grid is n x n and N = n*n.
    selection : tuple of int
        Natural-order Hadamard row index of each mask, each in [0, N).
    ordering : str
        "natural" or "sequency" (how the selection was generated).
    modulation_depth : float
        Fractional intensity attenuation m in pumped regions, in (0, 1].
    """

    order: int
    selection: tuple
    ordering: str
    modulation_depth: float = DEFAULT_MODULATION_DEPTH

    def __post_init__(self):
        n = self.order
        _check_order(n)
        selection = tuple(int(i) for i in self.selection)
        if len(selection) > n * n:
            raise ParameterError(f"at most N = {n * n} patterns for order {n}")
        if any(not 0 <= i < n * n for i in selection):
            raise ParameterError(f"selection indices must lie in [0, {n * n})")
        if not 0.0 < self.modulation_depth <= 1.0:
            raise ParameterError("modulation depth must lie in (0, 1]")
        if self.ordering not in _ORDERING_CODES:
            raise ParameterError(f"unknown ordering {self.ordering!r}")
        if (repeat := _first_repeat(selection)) is not None:
            j, k = repeat
            raise ParameterError(f"selection repeats row {selection[k]} (positions {j} and {k})")
        object.__setattr__(self, "selection", selection)

    @cached_property
    def logical_masks(self) -> np.ndarray:
        """The (M, n, n) int8 +/-1 masks, derived on first read (read-only)."""
        masks = _hadamard_masks(self.order, self.selection)
        masks.setflags(write=False)
        return masks

    @cached_property
    def rows(self) -> np.ndarray:
        """The selection as a read-only int64 index array, built on first read."""
        rows = np.asarray(self.selection, dtype=np.int64)
        rows.setflags(write=False)
        return rows

    @property
    def count(self) -> int:
        return len(self.selection)

    @property
    def pixels(self) -> int:
        return self.order * self.order

    @property
    def identifier(self) -> str:
        return f"walsh-n{self.order}-m{self.count}-{self.ordering}-{self.fingerprint}"

    @property
    def fingerprint(self) -> str:
        crc = zlib.crc32(np.asarray(self.selection, dtype="<u8").tobytes())
        return f"{crc:08x}"

    def subset(self, count: int) -> "PatternSet":
        """First `count` patterns (a valid undersampling of this set)."""
        if not 1 <= count <= self.count:
            raise ParameterError(f"subset size {count} outside [1, {self.count}]")
        if count == self.count:
            return self
        return replace(self, selection=self.selection[:count])


def project(pattern_set: PatternSet, grid: np.ndarray) -> np.ndarray:
    """<P_i, grid> for every pattern i, for an order x order grid (one FWHT)."""
    return fwht(grid.ravel())[pattern_set.rows]


def synthesize(pattern_set: PatternSet, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * P_i as an order x order grid (one FWHT).

    The adjoint of `project`; for distinct rows project(synthesize(w)) = N*w.
    """
    full = np.zeros(pattern_set.pixels, dtype=np.float64)
    full[pattern_set.rows] = weights
    n = pattern_set.order
    return fwht(full).reshape(n, n)


def pattern_sums(pattern_set: PatternSet) -> np.ndarray:
    """S_i, the sum of the entries of each mask: N for row 0, 0 for every balanced row."""
    return np.where(pattern_set.rows == 0, float(pattern_set.pixels), 0.0)


def walsh_hadamard_patterns(
    order_n: int,
    count_m: int,
    ordering: str = SEQUENCY,
    modulation_depth: float = DEFAULT_MODULATION_DEPTH,
) -> PatternSet:
    """First `count_m` Walsh-Hadamard masks of order n in the chosen ordering.

    Sequency ordering sorts rows by ascending sign-change count of the
    reshaped n x n mask, so an undersampled prefix keeps isotropically
    low-spatial-frequency content; this is what makes low-compression-ratio
    reconstructions meaningful.  (Sorting by the sign changes of the flat
    length-N row instead would keep full detail along one image axis and
    almost none along the other, because the reshape is separable.)
    """
    _check_order(order_n)
    n_pixels = order_n * order_n
    if not 1 <= count_m <= n_pixels:
        raise ParameterError(f"pattern count must lie in [1, {n_pixels}], got {count_m}")
    if ordering not in _ORDERING_CODES:
        raise ParameterError(f"ordering must be one of {sorted(_ORDERING_CODES)}")

    selection = range(count_m) if ordering == NATURAL else _sequency_selection(order_n, count_m)
    return PatternSet(
        order=order_n,
        selection=tuple(selection),
        ordering=ordering,
        modulation_depth=modulation_depth,
    )


def save_patterns(path, pattern_set: PatternSet) -> None:
    """Write a pattern set to the binary SPIP container.

    Layout (little-endian): magic "SPIP", version u16, n u32, M u32,
    ordering u8, then M*N signed bytes holding the +/-1 mask entries.
    """
    header = struct.pack(
        "<4sHIIB",
        _PATTERN_MAGIC,
        _PATTERN_VERSION,
        pattern_set.order,
        pattern_set.count,
        _ORDERING_CODES[pattern_set.ordering],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pattern_set.logical_masks.tobytes())


def load_patterns(path, modulation_depth: float = DEFAULT_MODULATION_DEPTH) -> PatternSet:
    """Read a SPIP pattern file and recover the Hadamard row selection.

    Mask r1*n + r0 is outer(H_n[r1], H_n[r0]), so its row 0 is H_n[r0] and
    its column 0 is H_n[r1]; entry 2^k of H_n[r] is -1 exactly when bit k of
    r is set, which names r0 and r1.  The payload is checked in blocks of
    about 1 MiB against the masks of the rows it names, derived afresh, which
    also rejects every byte that is not +/-1.  Only when a check fails is the
    payload scanned for such a byte, so that one is reported first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head_size = struct.calcsize("<4sHIIB")
    if len(data) < head_size:
        raise FormatError(f"pattern file truncated in header (byte {len(data)})")
    magic, version, order, count, ordering_code = struct.unpack_from("<4sHIIB", data, 0)
    if magic != _PATTERN_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0; expected {_PATTERN_MAGIC!r}")
    if version != _PATTERN_VERSION:
        raise FormatError(f"unsupported pattern file version {version} at byte 4")
    if ordering_code not in _ORDERING_NAMES:
        raise FormatError(f"unknown ordering code {ordering_code} at byte {head_size - 1}")
    n_pixels = order * order
    expected = head_size + count * n_pixels
    if len(data) != expected:
        raise FormatError(
            f"pattern payload has {len(data) - head_size} bytes at byte {head_size}; "
            f"expected {count * n_pixels}"
        )
    body = np.frombuffer(data, dtype=np.int8, offset=head_size)
    try:
        _check_order(order)
        masks = body.reshape(count, order, order)
        bits = np.arange(order.bit_length() - 1, dtype=np.int64)
        r1 = ((masks[:, 1 << bits, 0] < 0) << bits).sum(axis=1, dtype=np.int64)
        r0 = ((masks[:, 0, 1 << bits] < 0) << bits).sum(axis=1, dtype=np.int64)
        selection = r1 * order + r0
        step = max(1, _CHECK_BLOCK_BYTES // n_pixels)
        for first in range(0, count, step):
            derived = _hadamard_masks(order, selection[first : first + step])
            wrong = np.flatnonzero(np.any(masks[first : first + step] != derived, axis=(1, 2)))
            if wrong.size:
                k = first + int(wrong[0])
                raise FormatError(
                    f"mask {k} (starting at byte {head_size + k * n_pixels}) "
                    "is not a Walsh-Hadamard row"
                )
    except SinglePixelError:  # a byte that is not +/-1 is reported first
        for start in range(0, body.size, _CHECK_BLOCK_BYTES):
            bad = np.flatnonzero(np.abs(body[start : start + _CHECK_BLOCK_BYTES]) != 1)
            if bad.size:
                raise FormatError(f"mask byte not +1/-1 at byte {head_size + start + int(bad[0])}")
        raise
    selection = tuple(selection.tolist())
    if (repeat := _first_repeat(selection)) is not None:
        j, k = repeat
        raise FormatError(f"mask {k} (starting at byte {head_size + k * n_pixels}) repeats mask {j}")

    return PatternSet(
        order=order,
        selection=selection,
        ordering=_ORDERING_NAMES[ordering_code],
        modulation_depth=modulation_depth,
    )
