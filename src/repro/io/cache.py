"""Disk-backed caching of enumeration results.

Enumeration is the expensive step of every workflow here; analyses
re-run it over the same (graph, alpha, k) triples constantly. The cache
keys results by a content fingerprint of the graph (the sum mod 2^256
of the SHA-256 of every node and every signed edge, see
:func:`graph_fingerprint`) plus the parameters, so stale hits are
impossible: touch one edge and the key changes. The fingerprint is
content-defined (the same graph always gets the same value, however it
was built), and a :class:`~repro.graphs.SignedGraph` keeps it current
under edits in O(1) per changed node or edge.

>>> import tempfile
>>> from repro.graphs import SignedGraph
>>> g = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
>>> with tempfile.TemporaryDirectory() as tmp:
...     first = cached_enumerate(g, alpha=2, k=1, cache_dir=tmp)   # computes
...     again = cached_enumerate(g, alpha=2, k=1, cache_dir=tmp)   # disk hit
>>> [sorted(c.nodes) for c in again]
[[1, 2, 3]]
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import repro
from repro.core.bbe import MSCE
from repro.core.cliques import SignedClique
from repro.core.params import AlphaK
from repro.graphs.signed_graph import (
    FINGERPRINT_MODULUS,
    Node,
    SignedGraph,
    edge_digest,
    node_digest,
)

PathLike = Union[str, Path]

#: On-disk payload schema revision. Bump whenever the JSON layout written
#: by :meth:`ResultCache.put` changes shape; old entries then miss (their
#: filenames carry the old revision) instead of being misparsed.
#: v2: entries may carry a ``stats`` dict (the SearchStats counters of
#: the run that produced them) next to the cliques.
#: v3: keys carry the signed-cohesion model segment, so answers produced
#: under one constraint (e.g. ``balanced``) can never be served for
#: another (``msce``) sharing the same graph and (alpha, k).
#: v4: the graph fingerprint is the running sum over node and edge
#: digests (:func:`graph_fingerprint`); every fingerprint changed value,
#: so entries written under v3 miss once and are recomputed.
CACHE_SCHEMA_VERSION = 4


def graph_fingerprint(graph: SignedGraph) -> str:
    """Order-independent content hash of *graph* (64 hex digits).

    The sum mod 2^256 of the SHA-256 of every edge line (both endpoints'
    reprs and the sign, :func:`~repro.graphs.signed_graph.edge_digest`)
    and of every node (:func:`~repro.graphs.signed_graph.node_digest`).
    The value is content-defined: it depends on the node and signed-edge
    sets only, not on insertion order, history or process, so a
    restarted engine on the same file gets the same cache keys, and a
    graph rebuilt from the same edges hashes alike. Labels are part of
    the content: isomorphic but differently-labelled graphs hash
    differently (caching is per concrete graph, not per isomorphism
    class).

    Collisions: modelling SHA-256 as a random function, two graphs that
    differ in any node or edge differ by a sum of independent uniform
    summands, so they collide with probability 2^-256 (2^-128 for the
    32-digit key prefix). This is an integrity check for honest inputs,
    not a security boundary: an adversary who chooses many graphs can
    find additive collisions far faster than by brute force.

    The first call on a :class:`SignedGraph` computes the sum over all
    n nodes and m edges and stores it on the graph; every mutation then
    adds or subtracts the digests of what it changes, so later calls
    are O(1) and an edit costs O(1) hashes (removing a node costs one
    per incident edge).
    """
    total = getattr(graph, "_fingerprint_sum", None)
    if total is None:
        total = sum(edge_digest(u, v, sign) for u, v, sign in graph.edges())
        total += sum(map(node_digest, graph.nodes()))
        total %= FINGERPRINT_MODULUS
        try:
            graph._fingerprint_sum = total
        except AttributeError:
            pass  # duck-typed graphs without the running sum still work
    return format(total, "064x")


def entry_key(
    fingerprint: str, params: AlphaK, kind: str, model: str = "msce"
) -> str:
    """The canonical cache key for (graph fingerprint, model, params, kind).

    Shared by the disk tier (as the filename stem) and the serving
    engine's in-memory LRU, so a result can move between tiers without
    re-keying and a hit in either tier denotes the exact same
    computation. The key carries the schema revision and the package
    version next to the graph fingerprint, so entries written by an
    older layout (or an older release with different enumeration
    semantics) are simply never found rather than deserialised into
    wrong results. The ``model`` segment keeps constraints apart: a
    balanced-clique answer can never be served for an MSCE request on
    the same graph and parameters (or vice versa).
    """
    safe_kind = "".join(ch for ch in kind if ch.isalnum() or ch in "-_")
    safe_model = "".join(ch for ch in model if ch.isalnum() or ch in "-_")
    version_tag = f"s{CACHE_SCHEMA_VERSION}-v{repro.__version__}"
    return (
        f"{fingerprint[:32]}-{version_tag}-m{safe_model}"
        f"-a{params.alpha:g}-k{params.k}-{safe_kind}"
    )


class ResultCache:
    """Filesystem cache of clique results under one directory.

    Entries are JSON files named by the combined key; node labels
    round-trip when they are JSON representable (int/str); other label
    types are refused at ``put`` time.
    """

    def __init__(self, directory: PathLike):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    def _path(
        self, fingerprint: str, params: AlphaK, kind: str, model: str = "msce"
    ) -> Path:
        return self._dir / (entry_key(fingerprint, params, kind, model=model) + ".json")

    def get(
        self, graph: SignedGraph, params: AlphaK, kind: str = "all", model: str = "msce"
    ) -> Optional[List[SignedClique]]:
        """Return the cached cliques, or ``None`` on a miss/corrupt entry."""
        entry = self.get_entry(graph, params, kind, model=model)
        return None if entry is None else entry[0]

    def get_entry(
        self, graph: SignedGraph, params: AlphaK, kind: str = "all", model: str = "msce"
    ) -> Optional[Tuple[List[SignedClique], Optional[Dict[str, int]]]]:
        """Return ``(cliques, stats-or-None)``, or ``None`` on a miss.

        ``stats`` is the :class:`~repro.core.bbe.SearchStats` counter
        dict recorded by the run that produced the entry (entries written
        by :meth:`put` without stats yield ``None``). Because the key
        pins the exact graph content and code version, replaying those
        counters on a hit is indistinguishable from recomputing.
        """
        path = self._path(graph_fingerprint(graph), params, kind, model=model)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            cliques = [
                SignedClique(
                    nodes=frozenset(entry["nodes"]),
                    params=params,
                    positive_edges=entry["positive_edges"],
                    negative_edges=entry["negative_edges"],
                )
                for entry in payload["cliques"]
            ]
            stats = payload.get("stats")
            if stats is not None:
                stats = {str(name): int(value) for name, value in stats.items()}
            return cliques, stats
        except (ValueError, KeyError, TypeError, AttributeError):
            return None  # treat corruption as a miss; the entry is rewritten

    def put(
        self,
        graph: SignedGraph,
        params: AlphaK,
        cliques: List[SignedClique],
        kind: str = "all",
        stats: Optional[Dict[str, int]] = None,
        model: str = "msce",
    ) -> None:
        """Store *cliques* (and optionally their run's stats counters)."""
        for clique in cliques:
            for node in clique.nodes:
                if not isinstance(node, (int, str)):
                    raise TypeError(
                        f"cache requires int/str node labels, got {type(node).__name__}"
                    )
        payload = {
            "alpha": params.alpha,
            "k": params.k,
            "cliques": [
                {
                    "nodes": sorted(clique.nodes, key=repr),
                    "positive_edges": clique.positive_edges,
                    "negative_edges": clique.negative_edges,
                }
                for clique in cliques
            ],
        }
        if stats is not None:
            payload["stats"] = dict(stats)
        path = self._path(graph_fingerprint(graph), params, kind, model=model)
        path.write_text(json.dumps(payload), encoding="utf-8")

    def discard_graph(self, fingerprint: str) -> int:
        """Delete every entry of the graph version *fingerprint*; returns the count.

        Entries are matched on the ``fingerprint[:32]`` prefix their
        filenames start with (:func:`entry_key`), across every model,
        setting, kind and schema revision.
        """
        removed = 0
        for path in self._dir.glob(f"{fingerprint[:32]}-*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in self._dir.glob("*.json"):
            path.unlink()
            removed += 1
        return removed


def cached_enumerate(
    graph: SignedGraph,
    alpha: float,
    k: int,
    cache_dir: PathLike,
    **msce_options,
) -> List[SignedClique]:
    """Enumerate with a disk cache wrapped around :class:`MSCE`.

    Results cut short by a ``time_limit``, ``max_results`` or
    ``max_memory_bytes`` cap are *not* cached (they are partial); pass
    no caps for cacheable runs.
    A ``model=`` option participates in the cache key, so constraints
    never share entries.
    """
    from repro.models import resolve_model

    params = AlphaK(alpha, k)
    model = resolve_model(msce_options.get("model"))
    cache = ResultCache(cache_dir)
    hit = cache.get(graph, params, model=model)
    if hit is not None:
        return hit
    result = MSCE(graph, params, **msce_options).enumerate_all()
    if not (result.timed_out or result.truncated or result.interrupted):
        cache.put(graph, params, result.cliques, model=model)
    return result.cliques
