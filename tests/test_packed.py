"""Property tests for the packed-uint64 bitset algebra (``fastpath.packed``).

The numpy kernels interoperate with the int-mask search layer through
the conversions in :mod:`repro.fastpath.packed`; the whole bit-identity
contract rests on those conversions being lossless and on the packed
operations the kernels run (CSR packing, batched row intersections,
bit probes and clears, row popcounts) agreeing with Python big-int
arithmetic. Hypothesis drives both directions of the round-trip and
the algebra parity over arbitrary masks and widths (word-boundary
widths included).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.fastpath import packed  # noqa: E402  (needs numpy first)
from repro.fastpath.bitset import bit_count, iter_bits  # noqa: E402
from repro.fastpath.vectorized import pair_popcounts  # noqa: E402

# Widths straddle the uint64 word boundary on purpose: 1..200 covers
# 1-4 words including the exact-multiple edge cases 64 and 128.
widths = st.integers(min_value=1, max_value=200)


def masks_for(n: int):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


mask_pairs = widths.flatmap(
    lambda n: st.tuples(st.just(n), masks_for(n), masks_for(n))
)


def pack_rows(masks, n):
    """The ``(len(masks), n_words)`` matrix of *masks*, via :func:`packed.pack_csr`.

    Rows are the masks read as a CSR adjacency over ``size`` nodes (at
    least *n*, so every bit has a column); only the first ``len(masks)``
    rows of the packed matrix are kept.
    """
    size = max(n, len(masks))
    xadj = [0]
    adj = []
    for mask in masks:
        adj.extend(iter_bits(mask))
        xadj.append(len(adj))
    xadj.extend([len(adj)] * (size - len(masks)))
    matrix = packed.pack_csr(
        size, np.array(xadj, dtype=np.int64), np.array(adj, dtype=np.int64)
    )
    return np.ascontiguousarray(matrix[: len(masks)])


def unpack_rows(matrix):
    return [packed.unpack_mask(row) for row in matrix]


@settings(max_examples=200, deadline=None)
@given(widths.flatmap(lambda n: st.tuples(st.just(n), masks_for(n))))
def test_pack_unpack_roundtrip(spec):
    n, mask = spec
    words = packed.pack_mask(mask, n)
    assert words.dtype == np.uint64
    assert words.shape == (packed.n_words(n),)
    assert packed.unpack_mask(words) == mask


@settings(max_examples=200, deadline=None)
@given(mask_pairs)
def test_algebra_matches_int_masks(spec):
    # The batched row intersection MCNew's deltas come from.
    n, a, b = spec
    matrix = pack_rows([a, b], n)
    rows = np.array([0, 0, 1, 1], dtype=np.int64)
    cols = np.array([0, 1, 0, 1], dtype=np.int64)
    assert pair_popcounts(matrix, matrix, rows, cols).tolist() == [
        bit_count(a),
        bit_count(a & b),
        bit_count(a & b),
        bit_count(b),
    ]


@settings(max_examples=150, deadline=None)
@given(widths.flatmap(lambda n: st.tuples(st.just(n), masks_for(n))))
def test_bit_enumeration_matches_int_layer(spec):
    # The alive vector the kernels peel is the unpacked member mask.
    n, mask = spec
    alive = packed.unpack_bool(packed.pack_mask(mask, n), n)
    assert np.flatnonzero(alive).tolist() == list(iter_bits(mask))


@settings(max_examples=150, deadline=None)
@given(widths.flatmap(lambda n: st.tuples(st.just(n), masks_for(n))))
def test_bool_vector_roundtrip(spec):
    n, mask = spec
    flags = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
    words = packed.pack_bool(flags)
    assert packed.unpack_mask(words) == mask
    assert packed.unpack_bool(words, n).tolist() == flags.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(masks_for(200), min_size=0, max_size=8))
def test_pack_masks_rows_roundtrip(masks):
    assert unpack_rows(pack_rows(masks, 200)) == list(masks)


@settings(max_examples=100, deadline=None)
@given(mask_pairs)
def test_test_and_clear_bits_match_int_ops(spec):
    n, a, b = spec
    matrix = pack_rows([a, b], n)
    positions = np.arange(n, dtype=np.int64)
    rows = np.zeros(n, dtype=np.int64)
    got = packed.test_bit(np.ascontiguousarray(matrix), rows, positions)
    assert got.tolist() == [bool((a >> i) & 1) for i in range(n)]
    # Clearing the set bits of b from row 0 must equal a & ~b.
    hits = np.array(list(iter_bits(b)), dtype=np.int64)
    packed.clear_bits(matrix, np.zeros(hits.shape[0], dtype=np.int64), hits)
    assert packed.unpack_mask(matrix[0]) == a & ~b
    assert packed.unpack_mask(matrix[1]) == b


@settings(max_examples=100, deadline=None)
@given(mask_pairs)
def test_popcount_rows_matches_bit_count(spec):
    n, a, b = spec
    matrix = pack_rows([a, b, a & b], n)
    assert packed.popcount_rows(matrix).tolist() == [
        bit_count(a),
        bit_count(b),
        bit_count(a & b),
    ]


def test_popcount_swar_fallback_matches_bit_count(monkeypatch):
    """Force the SWAR path (the numpy<2 fallback) and pin it to Python's
    popcount, all-zero and all-ones words included."""
    rng = np.random.default_rng(20180414)
    matrix = rng.integers(0, 2**64, size=(40, 7), dtype=np.uint64)
    full = np.uint64(2**64 - 1)
    matrix[0, :] = 0
    matrix[1, :] = full
    matrix[2:, 0] = 0
    matrix[2:, -1] = full
    matrix[5, 3] = np.uint64(1)
    matrix[6, 3] = np.uint64(1 << 63)
    expected = [bin(mask).count("1") for mask in unpack_rows(matrix)]
    monkeypatch.setattr(packed, "_HAS_BITWISE_COUNT", False)
    assert packed.popcount_rows(matrix).tolist() == expected
    # A strided view.
    assert packed.popcount_rows(matrix[::3, 1:]).tolist() == [
        bin(mask).count("1") for mask in unpack_rows(matrix[::3, 1:])
    ]
