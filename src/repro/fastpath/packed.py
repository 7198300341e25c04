"""Packed-``uint64`` bitset algebra for the vectorized kernels.

The pure-Python fastpath stores node sets as Python big-int bitmasks
(bit *i* = node *i*). This module provides the numpy counterpart: a
node set over *n* nodes becomes a ``(n_words,)`` ``uint64`` array with
``n_words = ceil(n / 64)``; bit *j* of the set lives at word ``j >> 6``,
bit ``j & 63``. The layout is **little-endian across words and bytes**,
so ``int.from_bytes(arr.tobytes(), "little")`` is exactly the big-int
mask — conversions between the two worlds are therefore lossless and
cheap, which is what lets the vectorized kernels interoperate with the
int-mask search layer while staying bit-identical to it.

An adjacency *matrix* is the row-stacked ``(n, n_words)`` form
(:func:`pack_csr`); rows are node masks, so set algebra over whole
neighbourhoods is plain elementwise numpy ``&`` and population counts
come from :func:`popcount_rows` (``np.bitwise_count`` on numpy >= 2, a SWAR
popcount over the uint64 words otherwise — the py3.9 CI leg resolves
numpy 1.26).

Everything here is deliberately dependency-light: numpy (a declared
dependency of the package) only, no compiled extensions.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_WORD_BYTES = 8

#: Masks of the SWAR popcount for numpy < 2 (no bitwise_count): every
#: other bit, every other bit pair, every other nibble, and the byte
#: multiplier that sums the eight byte counts into the top byte.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_SHIFTS = tuple(np.uint64(shift) for shift in (1, 2, 4, 56))

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def n_words(n: int) -> int:
    """Words needed for an *n*-bit set (at least one, so slices exist)."""
    return max(1, (n + WORD_BITS - 1) >> 6)


# ----------------------------------------------------------------------
# packed <-> int-mask conversion
# ----------------------------------------------------------------------
def pack_mask(mask: int, n: int) -> np.ndarray:
    """Pack a big-int bitmask into a ``(n_words(n),)`` uint64 array."""
    words = n_words(n)
    return np.frombuffer(
        mask.to_bytes(words * _WORD_BYTES, "little"), dtype=np.uint64
    ).copy()


def unpack_mask(words: np.ndarray) -> int:
    """Invert :func:`pack_mask`: packed words back to a big-int mask."""
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def pack_bool(flags: np.ndarray) -> np.ndarray:
    """Pack a boolean vector (index = node) into uint64 words."""
    n = flags.shape[0]
    padded = np.zeros(n_words(n) * WORD_BITS, dtype=np.uint8)
    padded[:n] = flags
    return np.packbits(padded, bitorder="little").view(np.uint64)


def unpack_bool(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack uint64 words to an ``(n,)`` boolean vector."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), bitorder="little"
    )
    return bits[:n].astype(bool)


def pack_csr(n: int, xadj, adj) -> np.ndarray:
    """Pack a CSR adjacency (row per node) into a ``(n, n_words)`` matrix.

    Works byte-wise through ``np.bitwise_or.at`` so the intermediate is
    the final 12.5%-density byte matrix, never an O(n^2) boolean dense
    form (100 MB at n = 10k).
    """
    cols = as_int64(adj)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(as_int64(xadj)))
    bytes_matrix = np.zeros((n, n_words(n) * _WORD_BYTES), dtype=np.uint8)
    if rows.size:
        np.bitwise_or.at(
            bytes_matrix,
            (rows, cols >> 3),
            np.left_shift(np.uint8(1), (cols & 7).astype(np.uint8)),
        )
    return bytes_matrix.view(np.uint64)


def as_int64(buffer) -> np.ndarray:
    """View a CSR buffer (``array('q')`` or ndarray) as int64."""
    if isinstance(buffer, np.ndarray):
        return buffer.astype(np.int64, copy=False)
    if len(buffer) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(buffer, dtype=np.int64)


# ----------------------------------------------------------------------
# Algebra
# ----------------------------------------------------------------------
def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row population count of a ``(rows, n_words)`` matrix."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    one, two, four, top = _SHIFTS
    # Bit counts per 2 bits, then per nibble, then per byte; the multiply
    # (wrapping, as uint64 arithmetic does) adds the bytes into the top one.
    x = matrix - ((matrix >> one) & _M1)
    pairs = x >> two
    pairs &= _M2
    x &= _M2
    x += pairs
    x += x >> four
    x &= _M4
    x *= _H01
    x >>= top
    return x.sum(axis=1, dtype=np.int64)


def test_bit(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean vector: is bit ``cols[i]`` set in ``matrix[rows[i]]``?

    Probes single *bytes* of the (contiguous) packed matrix — an 8x
    smaller gather than whole words; MCNew probes one bit per surviving
    directed edge every round.
    """
    view = matrix.view(np.uint8)
    probed = view[rows, cols >> 3]
    shifts = np.bitwise_and(cols, 7).astype(np.uint8)
    return np.bitwise_and(np.right_shift(probed, shifts), np.uint8(1)) != 0


def clear_bits(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Clear bit ``cols[i]`` in ``matrix[rows[i]]`` in place."""
    if rows.size == 0:
        return
    cols_u = cols.astype(np.uint64)
    keep = np.bitwise_not(
        np.left_shift(np.uint64(1), np.bitwise_and(cols_u, np.uint64(63)))
    )
    np.bitwise_and.at(matrix, (rows, cols >> 6), keep)
