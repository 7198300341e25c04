"""Integer-backed bitsets for candidate sets over compiled node indices.

A candidate set over nodes ``0..n-1`` is a single Python ``int`` whose
bit ``i`` is set iff node ``i`` is a member. All set algebra then runs
through CPython's C big-integer kernels — intersection is one ``&`` over
packed 30-bit digits instead of a hashed probe per element — which is
what makes the fastpath pruning loops cheap.

Two layers are provided:

* module functions (:func:`bit_count`, :func:`iter_bits`,
  :func:`mask_of`) operating on raw ``int`` masks — these are what the
  kernels use on hot paths;
* bit-sliced counters (:func:`sliced_counts` and friends): one small
  non-negative counter per node, stored as a list of masks ``planes``
  with bit ``b`` of node ``v``'s count in ``planes[b]``, lowest bit
  first. Comparing every counter against a constant, taking the
  minimum or decrementing a whole set of counters then costs
  O(log(max count)) big-int operations instead of one per node.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

#: bytes.translate table mapping each byte to its popcount, so the 3.9
#: fallback counts bits via two C-level passes (to_bytes + translate).
_POPCOUNT_TABLE = bytes(bin(byte).count("1") for byte in range(256))


def _bit_count_fallback(mask: int) -> int:
    """Chunked popcount for Python < 3.10 (no ``int.bit_count``).

    ``bin(mask).count("1")`` materialises an O(bits) string *and* scans
    it per call — quadratic-ish over a peel that popcounts ever-smaller
    masks of a huge graph. Serialising to bytes and translating each
    byte to its popcount stays in C end to end. Always defined (not just
    on 3.9) so the equality test can pin it against ``int.bit_count``.
    """
    if mask < 0:
        raise ValueError("bit_count is undefined for negative masks")
    if mask == 0:
        return 0
    return sum(
        mask.to_bytes((mask.bit_length() + 7) >> 3, "little").translate(
            _POPCOUNT_TABLE
        )
    )


try:  # int.bit_count is Python >= 3.10; CI also runs 3.9.
    #: Return the number of set bits of a mask (popcount). Bound to the
    #: C method itself: the search calls it hundreds of thousands of
    #: times per run, so a Python-level wrapper frame is measurable.
    bit_count = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on 3.9
    bit_count = _bit_count_fallback
    bit_count.__name__ = "bit_count"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of *mask*, ascending.

    Uses the lowest-set-bit trick ``mask & -mask`` so the cost per
    element is O(words), independent of the highest bit.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """Return the mask with exactly the bits in *indices* set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def sliced_counts(rows: Sequence[int], scope: int) -> List[int]:
    """Bit-sliced ``bit_count(rows[v] & scope)`` for every ``v`` in *scope*.

    *rows* must be symmetric (``u`` in ``rows[v]`` iff ``v`` in
    ``rows[u]``), as adjacency rows are: the counts are then built by
    adding the row ``rows[u] & scope`` of each member ``u`` as a
    ripple-carry increment. Counters of nodes outside *scope* are zero.
    """
    planes: List[int] = []
    rest = scope
    while rest:
        low = rest & -rest
        rest ^= low
        carry = rows[low.bit_length() - 1] & scope
        for b, plane in enumerate(planes):
            planes[b] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def sliced_decrement(planes: List[int], mask: int) -> None:
    """Subtract one from the counter of every node in *mask*, in place.

    Every counter in *mask* must be at least one. Planes that become
    empty at the top are dropped, so ``len(planes)`` stays the bit
    length of the largest counter.
    """
    b = 0
    while mask:
        plane = planes[b]
        planes[b] = plane ^ mask
        mask &= ~plane
        b += 1
    while planes and not planes[-1]:
        planes.pop()


def sliced_below(planes: Sequence[int], scope: int, bound: int) -> int:
    """The nodes of *scope* whose counter is less than *bound*.

    One most-significant-first comparison against the constant: a node
    leaves ``equal`` at the first bit where it differs from *bound*,
    into ``below`` when that bit of *bound* is the set one.
    """
    if bound <= 0:
        return 0
    top = len(planes)
    if bound >> top:  # bound >= 2**top exceeds every counter
        return scope
    below = 0
    equal = scope
    for b in range(top - 1, -1, -1):
        plane = planes[b]
        if (bound >> b) & 1:
            below |= equal & ~plane
            equal &= plane
        else:
            equal &= ~plane
        if not equal:
            break
    return below


def sliced_min(planes: Sequence[int], scope: int) -> int:
    """The nodes of *scope* whose counter is minimal within *scope* (0 if empty)."""
    for plane in reversed(planes):
        zeros = scope & ~plane
        if zeros:
            scope = zeros
    return scope


def sliced_total(planes: Sequence[int]) -> int:
    """The sum of all counters."""
    return sum(bit_count(plane) << b for b, plane in enumerate(planes))
