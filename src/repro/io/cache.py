"""Disk-backed caching of enumeration results.

Enumeration is the expensive step of every workflow here; analyses
re-run it over the same (graph, alpha, k) triples constantly. The cache
keys results by a content fingerprint of the graph (order-independent
SHA-256 over the edge multiset and isolated nodes) plus the parameters,
so stale hits are impossible: touch one edge and the key changes.

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

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import repro
from repro.core.bbe import MSCE
from repro.core.cliques import SignedClique
from repro.core.params import AlphaK
from repro.graphs.signed_graph import Node, SignedGraph

PathLike = Union[str, Path]

#: On-disk payload schema revision. Bump whenever the JSON layout written
#: by :meth:`ResultCache.put` changes shape; old entries then miss (their
#: filenames carry the old revision) instead of being misparsed.
#: v2: entries may carry a ``stats`` dict (the SearchStats counters of
#: the run that produced them) next to the cliques.
#: v3: keys carry the signed-cohesion model segment, so answers produced
#: under one constraint (e.g. ``balanced``) can never be served for
#: another (``msce``) sharing the same graph and (alpha, k).
CACHE_SCHEMA_VERSION = 3


def graph_fingerprint(graph: SignedGraph) -> str:
    """Order-independent content hash of *graph* (SHA-256 hex digest).

    Covers every edge with its sign and every isolated node; isomorphic
    but differently-labelled graphs hash differently (labels are part of
    the content — caching is per concrete graph, not per isomorphism
    class).

    The digest is memoised on the graph instance and invalidated by its
    mutation counter, so hot query paths (the serving engine, repeated
    :func:`cached_enumerate` calls) pay the O(m) hash once per graph
    *version* rather than once per call.
    """
    cached = getattr(graph, "_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    edge_lines = sorted(
        f"{min(repr(u), repr(v))}|{max(repr(u), repr(v))}|{sign}"
        for u, v, sign in graph.edges()
    )
    isolated = sorted(
        repr(node) for node in graph.nodes() if graph.degree(node) == 0
    )
    for line in edge_lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    digest.update(b"--isolated--\n")
    for line in isolated:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    fingerprint = digest.hexdigest()
    try:
        graph._fingerprint = fingerprint
    except AttributeError:
        pass  # duck-typed graphs without the memo slot still work
    return fingerprint


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
