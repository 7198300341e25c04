"""Signed edge-list I/O.

Reads and writes the de-facto standard formats used by the paper's data
sources:

* **SNAP style** (Slashdot/Epinions releases): whitespace-separated
  ``src dst sign`` with ``sign`` in ``{1, -1}``; ``#`` comment lines.
* **KONECT style** (the Wiki dataset): identical shape, ``%`` comments,
  optionally a weight column whose sign is taken.

:func:`read_signed_edgelist` accepts both (comment prefixes ``#`` and
``%``), tolerates blank lines, and resolves duplicate pairs with a
configurable policy via :class:`~repro.graphs.SignedGraphBuilder`.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Tuple, Union

from repro.exceptions import ParseError
from repro.graphs.builder import SignedGraphBuilder
from repro.graphs.signed_graph import SignedGraph

_COMMENT_PREFIXES = ("#", "%")

PathLike = Union[str, Path]


def _parse_node(token: str):
    """Return an int when the token is numeric, else the raw string."""
    try:
        return int(token)
    except ValueError:
        return token


def iter_signed_edges(lines: Iterable[str]) -> Iterator[Tuple[object, object, int]]:
    """Parse an iterable of edge-list lines into ``(u, v, sign)`` triples.

    Raises :class:`ParseError` with the offending line number on
    malformed input. Self-loops are skipped (real SNAP dumps contain a
    few), since signed cliques are defined on simple graphs.
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(
                f"expected 'src dst sign', got {line!r}", line_number=line_number
            )
        u = _parse_node(parts[0])
        v = _parse_node(parts[1])
        if u == v:
            continue
        token = parts[2]
        try:
            value = float(token)
        except ValueError:
            if token in ("+", "-"):
                yield (u, v, token)
                continue
            raise ParseError(f"unparseable sign {token!r}", line_number=line_number) from None
        if value == 0 or value != value:  # zero or NaN carries no sign
            raise ParseError(
                f"weight {token!r} has no sign", line_number=line_number
            )
        yield (u, v, 1 if value > 0 else -1)


def read_signed_edgelist(
    source: Union[PathLike, TextIO], on_duplicate: str = "last"
) -> SignedGraph:
    """Read a signed graph from a path or an open text stream.

    Duplicate node pairs (real datasets contain reciprocal ratings) are
    resolved by *on_duplicate*: ``"last"`` (default), ``"majority"`` or
    ``"error"``. Paths ending in ``.gz`` are decompressed transparently
    (SNAP distributes its signed networks gzipped).
    """
    builder = SignedGraphBuilder(on_duplicate=on_duplicate)
    if isinstance(source, (str, Path)):
        opener = gzip.open if str(source).endswith(".gz") else open
        try:
            with opener(source, "rt", encoding="utf-8") as handle:
                builder.add_all(iter_signed_edges(handle))
        except UnicodeDecodeError as error:
            raise ParseError(
                f"not UTF-8 text ({error.reason}); expected a signed edge list",
                line_number=_first_undecodable_line(opener, source),
            ) from None
    else:
        builder.add_all(iter_signed_edges(source))
    return builder.build()


def _first_undecodable_line(opener, source: PathLike) -> Optional[int]:
    """Number of the first line of *source* that is not valid UTF-8.

    Re-reads the file with the same line splitting as the failed read;
    undecodable bytes come back as lone surrogates, which do not encode.
    """
    with opener(source, "rt", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_number
    return None


def read_signed_edgelist_string(text: str, on_duplicate: str = "last") -> SignedGraph:
    """Read a signed graph from an in-memory edge-list string."""
    return read_signed_edgelist(io.StringIO(text), on_duplicate=on_duplicate)


def write_signed_edgelist(
    graph: SignedGraph, destination: Union[PathLike, TextIO], header: str = ""
) -> None:
    """Write *graph* as ``src dst sign`` lines (sign is ``1``/``-1``).

    The optional *header* is emitted as ``#``-prefixed comment lines.
    Node order is deterministic (sorted by repr) so round-trips are
    reproducible.
    """

    def _write(handle: TextIO) -> None:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v, sign in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
            handle.write(f"{u} {v} {sign}\n")

    if isinstance(destination, (str, Path)):
        opener = gzip.open if str(destination).endswith(".gz") else open
        with opener(destination, "wt", encoding="utf-8") as handle:
            _write(handle)
    else:
        _write(destination)
