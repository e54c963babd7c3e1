"""Walsh-Hadamard differential pattern sets and the photomodulator model.

A pattern is named by its row r of the Sylvester Hadamard matrix of order
N = n*n; reshaped to n x n, row r1*n + r0 is outer(H_n[r1], H_n[r0]).  Masks
are derived on demand; `project` and `synthesize` apply the pattern operator
and its adjoint on the n x n pattern grid through the separable 2-D
Walsh-Hadamard transform restricted to the sampled rows: with k1 distinct
r1 and k0 distinct r0 in the selection, two matrix products in
O(n^2 (k1 + k0)), against O(n^3) for the full H_n @ X @ H_n.
`save_patterns` and `load_patterns` stream the SPIP file's masks one block
of _BLOCK_BYTES at a time, so no path of the package holds every mask at
once; `PatternSet.logical_masks` builds them all, for tests and tracing.

Physically a +1 logical state is the unpumped (transparent) modulator region;
pumped regions attenuate the probe intensity by the modulation depth m.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ParameterError, SinglePixelError

NATURAL = "natural"
SEQUENCY = "sequency"

_ORDERING_CODES = {NATURAL: 0, SEQUENCY: 1}
_ORDERING_NAMES = {v: k for k, v in _ORDERING_CODES.items()}

_PATTERN_MAGIC = b"SPIP"
_PATTERN_VERSION = 1
_HEADER = "<4sHIIB"
_HEADER_BYTES = struct.calcsize(_HEADER)
_BLOCK_BYTES = 1 << 20  # payload bytes `save_patterns` and `load_patterns` hold at a time

DEFAULT_MODULATION_DEPTH = 0.9
_FACTOR_ALIGN = 8  # distinct factor rows are padded to a multiple of this (see `walsh_factors`)


def fwht(grid: np.ndarray, left: np.ndarray | None = None,
         right: np.ndarray | None = None) -> np.ndarray:
    """Separable 2-D Walsh-Hadamard transform left @ grid @ right.

    By default both sides are H_n of an n x n grid.  Row r1*n + r0 of
    H_{n*n}, reshaped to n x n, is outer(H_n[r1], H_n[r0]), so entry
    (r1, r0) of H_n @ grid @ H_n is the inner product of the grid with that
    row: flattened, the result is H_{n*n} @ grid.ravel() in natural
    (Sylvester) order.  n must be a power of two.  Returns a new float64
    grid; the transform is its own inverse up to a factor 1/n^2.

    `left` and `right` restrict the transform to the Walsh rows a pattern
    set samples (`PatternSet.walsh_factors`), so it costs O(n^2 (k1 + k0))
    instead of O(n^3).
    """
    x = np.asarray(grid, dtype=np.float64)
    if left is None or right is None:
        n = x.shape[0] if x.ndim == 2 else 0
        if x.shape != (n, n) or n & (n - 1) or n == 0:
            raise ParameterError(f"FWHT needs a square power-of-two grid, got shape {x.shape}")
        h = _hadamard(n)
        left = h if left is None else left
        right = h if right is None else right
    return left @ x @ right


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


def _hadamard_masks(order: int, rows, out=None) -> np.ndarray:
    """The (M, order, order) int8 masks of the given rows, in O(M*N), written
    into `out` when given."""
    r1, r0 = np.divmod(np.asarray(rows, dtype=np.int64), order)
    h = _hadamard(order).astype(np.int8)
    return np.multiply(h[r1][:, :, None], h[r0][:, None, :], out=out)


def _padded(count: int, n: int) -> int:
    """`count` rounded up to a multiple of _FACTOR_ALIGN, at most n."""
    return min(n, -(-count // _FACTOR_ALIGN) * _FACTOR_ALIGN)


class WalshFactors(NamedTuple):
    """The pattern operator of a selection, factored over its sampled Walsh rows."""

    left: np.ndarray  # H_n[u1], zero-padded to k1 x n
    right: np.ndarray  # H_n[:, u0], zero-padded to n x k0
    left_t: np.ndarray  # left.T, C-contiguous
    right_t: np.ndarray  # right.T, C-contiguous
    cells: np.ndarray  # flat index i1*k0 + i0 of each mask in the k1 x k0 grid


@dataclass(frozen=True)
class PatternSet:
    """Ordered set of +/-1 Walsh-Hadamard masks, named by Hadamard row index.

    The masks, the pattern operator and the fingerprint all follow from the
    selection, which holds at least one row.

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
        if not 1 <= len(selection) <= n * n:
            raise ParameterError(f"a pattern set of order {n} holds 1 to N = {n * n} patterns")
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
        """The (M, n, n) int8 +/-1 masks, derived on first read (read-only).

        M*N bytes, kept on the set; no path of the package reads them, they
        serve tests and tracing."""
        masks = _hadamard_masks(self.order, self.selection)
        masks.setflags(write=False)
        return masks

    @cached_property
    def rows(self) -> np.ndarray:
        """The selection as a read-only int64 index array, built on first read."""
        rows = np.asarray(self.selection, dtype=np.int64)
        rows.setflags(write=False)
        return rows

    @cached_property
    def walsh_factors(self) -> WalshFactors:
        """The pattern operator factored over the sampled Walsh rows, built on
        first read (read-only).

        With u1 and u0 the sorted distinct r1 and r0 of the selection, `left`
        holds H_n[u1] and `right` holds H_n[:, u0], so left @ X @ right is the
        k1 x k0 block of H_n @ X @ H_n that the masks sample, and `cells`
        picks each mask's entry from it.

        k1 and k0 are padded with zero rows and columns up to a multiple of
        _FACTOR_ALIGN, capped at n, and all four factors are C-contiguous.
        OpenBLAS then computes every sampled entry in the same summation
        order as the full transform: outputs are bit-identical to
        H_n @ X @ H_n, independent of the BLAS thread count, and the
        readings of `subset(k)` are the first k readings of the set.
        Unpadded factors, or transposed views in place of the contiguous
        copies, lose all three at some orders and selections.
        """
        n = self.order
        h = _hadamard(n)
        r1, r0 = np.divmod(self.rows, n)
        u1, i1 = np.unique(r1, return_inverse=True)
        u0, i0 = np.unique(r0, return_inverse=True)
        left = np.zeros((_padded(u1.size, n), n))
        left[: u1.size] = h[u1]
        right_t = np.zeros((_padded(u0.size, n), n))
        right_t[: u0.size] = h[u0]  # H_n is symmetric: H_n[u0] = H_n[:, u0].T
        factors = WalshFactors(left=left, right=np.ascontiguousarray(right_t.T),
                               left_t=np.ascontiguousarray(left.T), right_t=right_t,
                               cells=i1 * right_t.shape[0] + i0)
        for factor in factors:
            factor.setflags(write=False)
        return factors

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
    """<P_i, grid> for every pattern i, for an order x order grid: one Walsh
    transform restricted to the sampled rows, O(n^2 (k1 + k0))."""
    factors = pattern_set.walsh_factors
    return fwht(grid, factors.left, factors.right).ravel()[factors.cells]


def synthesize(pattern_set: PatternSet, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * P_i as an order x order grid: the weights scattered
    into the k1 x k0 grid of sampled Walsh rows, then the transpose of the
    restricted transform, O(n^2 (k1 + k0)).

    The adjoint of `project`; for distinct rows project(synthesize(w)) = N*w.
    """
    factors = pattern_set.walsh_factors
    sampled = np.zeros((factors.left.shape[0], factors.right.shape[1]))
    sampled.ravel()[factors.cells] = weights
    return fwht(sampled, factors.left_t, factors.right_t)


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
    ordering u8, then M*N signed bytes holding the +/-1 mask entries.  The
    masks are derived and written one block of about _BLOCK_BYTES at a
    time, so the file is never held in memory whole.
    """
    order, rows = pattern_set.order, pattern_set.rows
    step = max(1, _BLOCK_BYTES // pattern_set.pixels)
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, _PATTERN_MAGIC, _PATTERN_VERSION, order,
                             pattern_set.count, _ORDERING_CODES[pattern_set.ordering]))
        for first in range(0, pattern_set.count, step):
            fh.write(_hadamard_masks(order, rows[first : first + step]))


def load_patterns(path, modulation_depth: float = DEFAULT_MODULATION_DEPTH) -> PatternSet:
    """Read a SPIP pattern file and recover the Hadamard row selection.

    Mask r1*n + r0 is outer(H_n[r1], H_n[r0]), so its row 0 is H_n[r0] and
    its column 0 is H_n[r1]; entry 2^k of H_n[r] is -1 exactly when bit k of
    r is set, which names r0 and r1.  The payload length is checked against
    the header before any mask.  The payload is then read one block of about
    _BLOCK_BYTES at a time into one reused buffer and checked against the
    masks of the rows it names, derived afresh, which also rejects every byte
    that is not +/-1.  Once a block fails, the rest of the payload is only
    scanned for such a byte, so that one is reported first.  Memory stays at
    a few blocks whatever the file size.
    """
    with open(path, "rb") as fh:
        order, count, ordering_code = _read_header(fh)
        selection = _read_selection(fh, order, count)
    if (repeat := _first_repeat(selection)) is not None:
        j, k = repeat
        raise FormatError(f"mask {k} (starting at byte {_HEADER_BYTES + k * order * order}) "
                          f"repeats mask {j}")
    return PatternSet(
        order=order,
        selection=tuple(selection),
        ordering=_ORDERING_NAMES[ordering_code],
        modulation_depth=modulation_depth,
    )


def _length_error(payload: int, expected: int) -> FormatError:
    return FormatError(f"pattern payload has {payload} bytes at byte {_HEADER_BYTES}; "
                       f"expected {expected}")


def _read_header(fh) -> tuple:
    """(order, count, ordering code) of an open SPIP file, whose payload
    length, taken from the file system, must match them."""
    head = fh.read(_HEADER_BYTES)
    if len(head) < _HEADER_BYTES:
        raise FormatError(f"pattern file truncated in header (byte {len(head)})")
    magic, version, order, count, ordering_code = struct.unpack(_HEADER, head)
    if magic != _PATTERN_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0; expected {_PATTERN_MAGIC!r}")
    if version != _PATTERN_VERSION:
        raise FormatError(f"unsupported pattern file version {version} at byte 4")
    if ordering_code not in _ORDERING_NAMES:
        raise FormatError(f"unknown ordering code {ordering_code} at byte {_HEADER_BYTES - 1}")
    if count == 0:
        raise FormatError("pattern file holds no masks (count 0 at byte 10)")
    payload = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
    if payload != count * order * order:
        raise _length_error(payload, count * order * order)
    return order, count, ordering_code


def _read_selection(fh, order: int, count: int) -> list:
    """The Hadamard row of each of the `count` masks that follow the header,
    read and checked one block at a time."""
    n_pixels = order * order
    try:
        _check_order(order)
        fault = None
    except ParameterError as err:
        fault = err
    step = min(count, max(1, _BLOCK_BYTES // max(n_pixels, 1)))  # order 0 has no payload
    buffer = np.empty(step * n_pixels, dtype=np.int8)
    derived = np.empty((step, order, order), dtype=np.int8)
    bits = np.arange(order.bit_length() - 1, dtype=np.int64)
    selection = []
    for first in range(0, count, step):
        block = buffer[: min(step, count - first) * n_pixels]
        got = fh.readinto(block)
        if got != block.size:
            raise _length_error(first * n_pixels + got, count * n_pixels)
        if fault is None:
            masks = block.reshape(-1, order, order)
            r1 = ((masks[:, 1 << bits, 0] < 0) << bits).sum(axis=1, dtype=np.int64)
            r0 = ((masks[:, 0, 1 << bits] < 0) << bits).sum(axis=1, dtype=np.int64)
            rows = r1 * order + r0
            diff = _hadamard_masks(order, rows, out=derived[: rows.size])
            diff -= masks  # int8 wraps, so only equal bytes cancel
            wrong = np.flatnonzero(np.any(diff, axis=(1, 2)))
            if wrong.size:
                k = first + int(wrong[0])
                fault = FormatError(f"mask {k} (starting at byte {_HEADER_BYTES + k * n_pixels}) "
                                    "is not a Walsh-Hadamard row")
            selection.extend(rows.tolist())
        if fault is not None:  # a byte that is not +/-1 is reported first
            bad = np.flatnonzero(np.abs(block) != 1)
            if bad.size:
                offset = _HEADER_BYTES + first * n_pixels + int(bad[0])
                raise FormatError(f"mask byte not +1/-1 at byte {offset}")
    if fault is not None:
        raise fault
    return selection
