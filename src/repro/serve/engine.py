"""The long-lived signed-clique serving engine.

:class:`SignedCliqueEngine` is the process-resident query layer the
ROADMAP's serving story needs: load a :class:`~repro.graphs.SignedGraph`
once, then answer enumeration / top-r / community-search / MCCore
requests against shared state instead of re-compiling, re-hashing and
re-coring per call. Three mechanisms amortise work across requests:

* **one compilation per floor** — a request compiles only the positive
  core that holds its answers (:func:`repro.fastpath.compiled.compile_graph`
  at ``min_positive_degree`` = :func:`~repro.core.bbe.compile_floor`,
  ``ceil(alpha * k)`` for the (alpha, k) reductions, 0 for ``"none"``;
  Lemma 1), lazily, and every request of that floor reuses it until a
  mutation invalidates it; a :meth:`run_grid` batch compiles at the
  smallest floor of its misses;
* **a ceiling-keyed reduction memo** — the MCCore depends only on the
  positive threshold ``ceil(alpha * k)`` (Definition 3 constrains ego
  networks by a ``(ceil(alpha*k) - 1)``-core; ``k`` never enters), so
  all (alpha, k) settings sharing a ceiling and a compiled graph share
  one coring pass. The memo is injected into MSCE / the query planner
  via their ``reducer`` hooks, so the search itself is bit-identical to
  one-shot calls;
* **a two-tier result cache** — a thread-safe in-memory LRU
  (:class:`~repro.serve.lru.MemoryLRU`, bounded by entries and
  approximate bytes) layered over the disk tier
  (:class:`~repro.io.cache.ResultCache`), both keyed by the same
  :func:`~repro.io.cache.entry_key` strings (graph fingerprint +
  ``CACHE_SCHEMA_VERSION`` + package version + params + kind). Entries
  carry the producing run's :class:`~repro.core.bbe.SearchStats`, so a
  hit in either tier replays cliques *and* stats bit-identically to a
  recompute — the differential contract ``tests/test_serve.py`` pins.

Mutations (:meth:`add_edge` / :meth:`remove_edge` / :meth:`flip_sign` /
...) apply through :func:`repro.core.dynamic.apply_edit` and only
invalidate: an edit that disturbs a region drops the compiled graphs,
the reduction memo and the entries of the old fingerprint (memory, and
disk when the engine has a disk tier). The graph keeps its fingerprint
as a running sum (:func:`~repro.io.cache.graph_fingerprint`), so an edit
re-hashes only what it changed. The
next request of each setting misses (the fingerprint changed) and
recomputes, so every answer after an edit is the one a one-shot call
on the current graph returns, stats included. Incremental repair of an
answer set under edits is :class:`repro.core.dynamic.DynamicSignedCliqueIndex`'s
job, not the engine's.

Batched grids go through :meth:`run_grid`, which partitions the whole
(alpha, k) grid over the :class:`~repro.core.scheduler.WorkStealingScheduler`
(see :func:`repro.core.parallel.enumerate_grid`) instead of looping one
query at a time.

Instrumentation rides the ambient observer (:mod:`repro.obs`): each
request opens a ``serve_request`` span, and every cache/grid event
increments a ``serve_*`` counter — visible in the Prometheus export
when observing is enabled — mirrored by the plain :attr:`counters`
dict for uninstrumented callers.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.core.bbe import MSCE, EnumerationResult, SearchStats, compile_floor
from repro.core.cliques import SignedClique
from repro.core.dynamic import apply_edit
from repro.core.params import AlphaK
from repro.core.parallel import enumerate_grid
from repro.core.scheduler import _require_positive_int
from repro.core.query import query_search
from repro.exceptions import GraphError, ParameterError
from repro.fastpath.compiled import CompiledGraph, compile_graph
from repro.fastpath.kernels import reduce_mask
from repro.graphs.signed_graph import Node, SignedGraph
from repro.io.cache import ResultCache, entry_key, graph_fingerprint
from repro.models import get_model, make_constraint, resolve_model
from repro.obs import runtime as obs
from repro.serve.lru import MemoryLRU, approximate_size

#: Default entry bound of the in-memory tier.
DEFAULT_CACHE_MEM_ENTRIES = 256

#: Default approximate-bytes bound of the in-memory tier (64 MiB).
DEFAULT_CACHE_MEM_BYTES = 64 * 1024 * 1024

#: Engine counter names, mirrored as ``serve_<name>`` observer counters.
COUNTER_NAMES = (
    "requests",
    "memory_hits",
    "disk_hits",
    "derived_hits",
    "computes",
    "evictions",
    "reduce_computed",
    "reduce_shared",
    "updates",
    "entries_invalidated",
    "grid_points",
    "grid_cache_hits",
    "grid_computed",
)

GridKey = Union[AlphaK, Tuple[float, int]]


def _stats_from_dict(values: Dict[str, int]) -> SearchStats:
    """Rebuild a :class:`SearchStats` from its :meth:`as_dict` form."""
    stats = SearchStats()
    for name in SearchStats.FIELDS:
        setattr(stats, name, int(values.get(name, 0)))
    return stats


def _require_positive_r(r: int) -> None:
    if r <= 0:
        raise ParameterError(f"r must be positive, got {r}")


def _query_kind(query_set: Set[Node]) -> str:
    """A stable cache-kind string for a community-search query set."""
    payload = "\x1f".join(sorted(repr(node) for node in query_set))
    return "q" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class GridResult:
    """Outcome of :meth:`SignedCliqueEngine.run_grid`.

    ``results`` maps each distinct requested setting, in grid order, to
    the :class:`~repro.core.bbe.EnumerationResult` it would get from a
    one-shot enumeration; ``report`` summarises how the batch was
    served (cache hits vs computed points, worker counts, reduction
    sharing).
    """

    results: "OrderedDict[AlphaK, EnumerationResult]"
    report: Dict[str, object] = field(default_factory=dict)

    def _key(self, key: GridKey) -> AlphaK:
        if isinstance(key, AlphaK):
            return key
        return AlphaK(key[0], key[1])

    def __getitem__(self, key: GridKey) -> EnumerationResult:
        return self.results[self._key(key)]

    def __contains__(self, key: GridKey) -> bool:
        return self._key(key) in self.results

    def __iter__(self) -> Iterator[AlphaK]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def items(self):
        return self.results.items()


class SignedCliqueEngine:
    """Serve signed-clique queries against one long-lived graph.

    Parameters
    ----------
    graph:
        The signed graph to serve (copied; mutate it only through the
        engine's update methods).
    cache_dir:
        Optional directory for the persistent disk tier of results.
        Without it the engine still runs the memory tier; with it,
        results survive process restarts and LRU evictions fall back to
        disk. The compiled graph is never persisted: each engine
        compiles its graph in memory on first use.
    cache_mem_entries / cache_mem_bytes:
        Bounds of the in-memory tier (entries / approximate bytes);
        ``cache_mem_bytes=None`` disables the byte bound.
    workers:
        Default worker-process count for :meth:`run_grid` (``1`` runs
        grids inline, still sharing compilation and coring); values
        below 1 raise :class:`ValueError`.
    selection / reduction / maxtest / seed:
        Enumerator configuration, as in :class:`~repro.core.bbe.MSCE`;
        the defaults match :mod:`repro.core.api`, which is what the
        differential harness compares against.
    model:
        Default signed-cohesion model (:data:`repro.models.MODELS`);
        resolved once at construction. Enumeration requests may
        override it per call with ``model=``; the model name is part of
        every cache key, so constraints never share entries.
    record_requests:
        When ``True``, the engine appends every served request and
        update to :attr:`request_log` in serialisation order (the order
        the internal lock admitted them) — the concurrency hammer test
        replays this log sequentially to pin linearisability.

    Thread safety: every public method serialises on one reentrant
    lock. Requests are therefore linearisable; the two-tier cache can
    never serve a torn entry.
    """

    def __init__(
        self,
        graph: SignedGraph,
        cache_dir: Optional[object] = None,
        cache_mem_entries: int = DEFAULT_CACHE_MEM_ENTRIES,
        cache_mem_bytes: Optional[int] = DEFAULT_CACHE_MEM_BYTES,
        workers: int = 1,
        selection: str = "greedy",
        reduction: str = "mcnew",
        maxtest: str = "exact",
        seed: int = 0,
        record_requests: bool = False,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ):
        self._lock = threading.RLock()
        self._graph = graph.copy()
        #: Lock-free fingerprint mirror: written under the lock at
        #: construction and at the end of every mutation, read without
        #: it (see :attr:`fingerprint`) so the network layer's event
        #: loop never blocks behind a search that holds the lock.
        self._fingerprint = graph_fingerprint(self._graph)
        #: Optional tenant name (multi-graph serving); labels the memory
        #: tier's per-tenant observer counters.
        self.tenant = tenant
        #: compile floor -> the positive core of that floor, compiled.
        #: Cleared, with the reduction memo, on every mutation.
        self._compiled_graphs: Dict[int, CompiledGraph] = {}
        self._selection = selection
        self._reduction = reduction
        self._maxtest = maxtest
        self._seed = seed
        self._model = resolve_model(model)
        self._workers = _require_positive_int("workers", workers)
        #: (floor, method, positive_threshold) -> survivor bitmask in the
        #: index space of ``_compiled_graphs[floor]``.
        self._reduction_masks: Dict[Tuple[int, str, int], int] = {}
        self.memory = MemoryLRU(
            max_entries=cache_mem_entries, max_bytes=cache_mem_bytes, tenant=tenant
        )
        self.disk: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        #: Plain counter mirror of the ``serve_*`` observer counters.
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self._seen_evictions = 0
        self.record_requests = record_requests
        #: Serialisation-order log of ``(op, args)`` tuples (only when
        #: ``record_requests`` is set).
        self.request_log: List[Tuple[str, tuple]] = []

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SignedGraph:
        """The engine's current graph (treat as read-only)."""
        return self._graph

    def snapshot(self) -> SignedGraph:
        """An independent copy of the current graph."""
        with self._lock:
            return self._graph.copy()

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the current graph.

        A lock-free read of a mirror maintained under the engine lock
        (updated as the last step of every mutation), so callers on the
        serving event loop can read it while a long search holds the
        lock. To pin the fingerprint to a computation, read it inside
        :meth:`pinned` instead.
        """
        return self._fingerprint

    @contextmanager
    def pinned(self):
        """Hold the engine lock across several calls as one critical section.

        No mutation can interleave inside the block, so the
        :attr:`fingerprint` observed first is exactly the graph version
        every call in the block computes against. The lock is
        reentrant: the engine's public methods compose freely inside.
        """
        with self._lock:
            yield self

    def _floor(self, params: AlphaK, model: str) -> int:
        """The compile floor of *params* under *model*.

        :func:`~repro.core.bbe.compile_floor` of the model-mapped
        reduction, the rule :func:`repro.core.parallel._compile_for`
        applies to a one-shot run.
        """
        reduction = make_constraint(model, params).reduction_rule(self._reduction)
        return compile_floor(reduction, params)

    def _compiled(self, floor: int) -> CompiledGraph:
        """The graph's positive *floor*-core, compiled once per graph version."""
        compiled = self._compiled_graphs.get(floor)
        if compiled is None:
            compiled = compile_graph(self._graph, min_positive_degree=floor)
            self._compiled_graphs[floor] = compiled
        return compiled

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        obs.counter("serve_" + name).inc(amount)

    def _note_evictions(self) -> None:
        delta = self.memory.evictions - self._seen_evictions
        if delta > 0:
            self._seen_evictions = self.memory.evictions
            self._bump("evictions", delta)

    def _reduce(self, floor: int, compiled, params: AlphaK, method: str) -> int:
        """Ceiling-keyed memoising replacement for ``reduce_mask``.

        *compiled* is ``self._compiled(floor)``; bind *floor* with
        :func:`functools.partial` to get the ``reducer`` hook. Sound
        because every reduction method dispatched here (mcnew, mcbasic,
        positive-core) constrains by ``params.positive_threshold`` only —
        two settings with equal ``ceil(alpha * k)`` have the same MCCore,
        which is what the grid-sharing counters measure. The floor is
        part of the key because a mask is a bitmask in one compiled
        graph's index space.
        """
        key = (floor, method, params.positive_threshold)
        mask = self._reduction_masks.get(key)
        if mask is None:
            mask = reduce_mask(compiled, params, method=method)
            self._reduction_masks[key] = mask
            self._bump("reduce_computed")
        else:
            self._bump("reduce_shared")
        return mask

    def _node_reducer(self, graph, params: AlphaK, method: str) -> Set[Node]:
        """The memo as a node set, for the query planner's contract.

        Reduces on the compiled core of *method*'s own floor (the whole
        graph for ``"none"``).
        """
        floor = compile_floor(method, params)
        compiled = self._compiled(floor)
        return set(compiled.nodes_from_mask(self._reduce(floor, compiled, params, method)))

    @property
    def sharing_ratio(self) -> float:
        """Fraction of reduction requests served from the ceiling memo."""
        total = self.counters["reduce_computed"] + self.counters["reduce_shared"]
        return self.counters["reduce_shared"] / total if total else 0.0

    def _record(self, op: str, *args) -> None:
        if self.record_requests:
            self.request_log.append((op, args))

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _resolve_model(self, model: Optional[str]) -> str:
        """Per-request model override; the engine default when absent."""
        return self._model if model is None else resolve_model(model)

    def _key(self, params: AlphaK, kind: str, model: Optional[str] = None) -> str:
        return entry_key(
            graph_fingerprint(self._graph),
            params,
            kind,
            model=model or self._model,
        )

    def _store(
        self,
        params: AlphaK,
        kind: str,
        cliques: List[SignedClique],
        stats: SearchStats,
        model: Optional[str] = None,
    ) -> None:
        """Write-through store of an answer and its stats into both tiers."""
        model = model or self._model
        stats_dict = stats.as_dict()
        value = {"cliques": list(cliques), "stats": stats_dict}
        self.memory.put(self._key(params, kind, model=model), value)
        self._note_evictions()
        if self.disk is not None:
            try:
                self.disk.put(
                    self._graph, params, cliques, kind=kind, stats=stats_dict, model=model
                )
            except TypeError:
                pass  # non-JSON-serialisable labels: memory tier only

    def _lookup(
        self, params: AlphaK, kind: str, model: Optional[str] = None
    ) -> Optional[Tuple[List[SignedClique], Dict[str, int], str]]:
        """Probe memory then disk; promote disk hits into memory.

        Returns ``(cliques, stats-dict, tier)`` or ``None``. The engine
        stores only stats-bearing entries; a disk entry without stats
        (written by :func:`repro.io.cache.cached_enumerate` into a shared
        directory) cannot replay a run, so it is a miss.
        """
        model = model or self._model
        key = self._key(params, kind, model=model)
        value = self.memory.get(key)
        if value is not None:
            self._bump("memory_hits")
            return value["cliques"], value["stats"], "memory"
        if self.disk is not None:
            entry = self.disk.get_entry(self._graph, params, kind=kind, model=model)
            if entry is not None and entry[1] is not None:
                cliques, stats_dict = entry
                self.memory.put(key, {"cliques": cliques, "stats": stats_dict})
                self._note_evictions()
                self._bump("disk_hits")
                return cliques, stats_dict, "disk"
        return None

    def _result_from_entry(
        self, cliques: List[SignedClique], stats_dict: Dict[str, int], elapsed: float
    ) -> EnumerationResult:
        return EnumerationResult(
            cliques=list(cliques),
            stats=_stats_from_dict(stats_dict),
            elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _answers(
        self,
        points: List[AlphaK],
        started: float,
        top_r: Optional[int] = None,
        workers: Optional[int] = None,
        time_limit: Optional[float] = None,
        model: Optional[str] = None,
    ) -> Tuple["OrderedDict[AlphaK, EnumerationResult]", int]:
        """Cache lookup of *points*, computing the misses.

        Full answers, or the *top_r* largest cliques. With a *workers*
        count (:meth:`run_grid`) the misses go to one
        :func:`~repro.core.parallel.enumerate_grid` call on the compiled
        core of their smallest floor; without one (a single-point
        request) each miss is a one-shot :class:`~repro.core.bbe.MSCE`
        run in this process on the compiled core of its own floor, so
        its stats are the ones a later hit replays. Complete results (not
        interrupted, truncated or with quarantined frames) are stored in
        both tiers. Returns the results in *points* order and the number
        computed.
        """
        model = model or self._model
        msce = model == "msce"  # the ceiling memo is an (alpha, k) rule
        kind = "all" if top_r is None else f"top{top_r}"
        results: "OrderedDict[AlphaK, EnumerationResult]" = OrderedDict()
        missing: List[AlphaK] = []
        for params in points:
            hit = self._lookup(params, kind, model=model)
            if hit is None:
                results[params] = None  # placeholder, filled below
                missing.append(params)
                continue
            cliques, stats_dict, _ = hit
            results[params] = self._result_from_entry(
                cliques, stats_dict, time.perf_counter() - started
            )
        if missing:
            options = dict(
                selection=self._selection,
                reduction=self._reduction,
                maxtest=self._maxtest,
                seed=self._seed,
                model=model,
            )
            if workers is None:
                computed = {}
                for params in missing:
                    floor = self._floor(params, model)
                    search = MSCE(
                        self._compiled(floor),
                        params,
                        time_limit=time_limit,
                        reducer=partial(self._reduce, floor) if msce else None,
                        **options,
                    )
                    computed[params] = (
                        search.enumerate_all() if top_r is None else search.top_r(top_r)
                    )
            else:
                floor = min(self._floor(params, model) for params in missing)
                computed = enumerate_grid(
                    self._compiled(floor),
                    missing,
                    workers=workers,
                    time_limit=time_limit,
                    top_r=top_r,
                    reducer=partial(self._reduce, floor) if msce else None,
                    **options,
                )
            self._bump("computes", len(missing))
            for params, result in computed.items():
                results[params] = result
                quarantined = result.parallel is not None and result.parallel["quarantined_frames"]
                if not (
                    result.timed_out or result.truncated or result.interrupted or quarantined
                ):
                    self._store(params, kind, result.cliques, result.stats, model=model)
        return results, len(missing)

    def _answer(
        self,
        params: AlphaK,
        started: float,
        top_r: Optional[int] = None,
        time_limit: Optional[float] = None,
        model: Optional[str] = None,
    ) -> EnumerationResult:
        """One point through :meth:`_answers`, computed by a one-shot ``MSCE``."""
        results, _ = self._answers(
            [params], started, top_r=top_r, time_limit=time_limit, model=model
        )
        return results[params]

    def enumerate_with_stats(
        self,
        alpha: float,
        k: int,
        time_limit: Optional[float] = None,
        model: Optional[str] = None,
    ) -> EnumerationResult:
        """Full enumeration with bit-identical cliques *and* stats.

        Served from the stats-bearing tiers only: a hit replays the
        producing run's counters; a miss computes (sharing compilation
        and coring) and write-throughs both tiers. Equivalent to
        :func:`repro.core.api.enumerate_with_stats` on a fresh copy of
        the current graph, always.

        ``time_limit`` caps the compute of a cache miss (hits are
        unaffected); a timed-out partial result is returned flagged and
        never cached — this is how the network layer propagates a
        request deadline (:meth:`repro.limits.ResourceGuard.remaining_time`)
        into the search without poisoning the tiers.

        ``model`` overrides the engine's default constraint for this
        request (resolved through :func:`repro.models.resolve_model`).
        """
        params = AlphaK(alpha, k)
        model = self._resolve_model(model)
        with self._lock:
            self._record("enumerate_with_stats", alpha, k, model)
            started = time.perf_counter()
            with obs.span(
                "serve_request", kind="all", alpha=params.alpha, k=params.k, model=model
            ):
                self._bump("requests")
                return self._answer(params, started, time_limit=time_limit, model=model)

    def enumerate(
        self, alpha: float, k: int, model: Optional[str] = None
    ) -> List[SignedClique]:
        """All maximal (alpha, k)-cliques, largest first.

        The cliques of :meth:`enumerate_with_stats`: the same lookup and
        compute, so the two share cache entries.
        """
        params = AlphaK(alpha, k)
        model = self._resolve_model(model)
        with self._lock:
            self._record("enumerate", alpha, k, model)
            started = time.perf_counter()
            with obs.span(
                "serve_request", kind="all", alpha=params.alpha, k=params.k, model=model
            ):
                self._bump("requests")
                return list(self._answer(params, started, model=model).cliques)

    def top_r(
        self,
        alpha: float,
        k: int,
        r: int,
        model: Optional[str] = None,
    ) -> List[SignedClique]:
        """The ``r`` largest maximal (alpha, k)-cliques.

        Derives from a cached full enumeration when one is present (the
        top-r cutoff never changes which cliques sort first — both
        paths order with :func:`~repro.core.cliques.sort_cliques`);
        otherwise serves the dedicated ``top<r>`` entry or runs the
        paper's cutoff search.
        """
        params = AlphaK(alpha, k)
        _require_positive_r(r)
        model = self._resolve_model(model)
        with self._lock:
            self._record("top_r", alpha, k, r, model)
            started = time.perf_counter()
            with obs.span(
                "serve_request",
                kind=f"top{r}",
                alpha=params.alpha,
                k=params.k,
                model=model,
            ):
                self._bump("requests")
                full = self._lookup(params, "all", model=model)
                if full is not None:
                    self._bump("derived_hits")
                    return list(full[0][:r])
                return list(self._answer(params, started, top_r=r, model=model).cliques)

    def top_r_with_stats(
        self,
        alpha: float,
        k: int,
        r: int,
        time_limit: Optional[float] = None,
        model: Optional[str] = None,
    ) -> EnumerationResult:
        """Top-r with the cutoff search's own bit-identical stats.

        ``time_limit`` caps a cache miss's compute, as in
        :meth:`enumerate_with_stats`; ``model`` overrides the engine's
        default constraint for this request.
        """
        params = AlphaK(alpha, k)
        _require_positive_r(r)
        model = self._resolve_model(model)
        with self._lock:
            self._record("top_r_with_stats", alpha, k, r, model)
            started = time.perf_counter()
            with obs.span(
                "serve_request",
                kind=f"top{r}",
                alpha=params.alpha,
                k=params.k,
                model=model,
            ):
                self._bump("requests")
                return self._answer(
                    params, started, top_r=r, time_limit=time_limit, model=model
                )

    def query_with_stats(
        self,
        query: Iterable[Node],
        alpha: float,
        k: int,
        time_limit: Optional[float] = None,
    ) -> EnumerationResult:
        """Community search: maximal cliques containing every query node.

        Mirrors :func:`repro.core.query.query_search` bit-for-bit; the
        engine contributes the compiled core of the point's floor and its
        reduction memo, and caches per query set (a stable digest of the
        node reprs keys the entry).
        """
        params = AlphaK(alpha, k)
        if not get_model(self._model).supports_queries:
            raise ParameterError(
                f"community search is not supported by the {self._model!r} model"
            )
        query_set = set(query)
        kind = _query_kind(query_set)
        with self._lock:
            self._record("query_with_stats", tuple(sorted(map(repr, query_set))), alpha, k)
            started = time.perf_counter()
            with obs.span("serve_request", kind="query", alpha=params.alpha, k=params.k):
                self._bump("requests")
                hit = self._lookup(params, kind)
                if hit is not None:
                    cliques, stats_dict, _ = hit
                    return self._result_from_entry(
                        cliques, stats_dict, time.perf_counter() - started
                    )
                # The core of the point's floor is enough to search on:
                # every answer lies in it (Lemma 1), and so does every
                # node that could refute an answer's maximality, since a
                # feasible strict superset of an answer is itself an
                # (alpha, k)-clique.
                result = query_search(
                    self._graph,
                    query_set,
                    alpha,
                    k,
                    reduction=self._reduction,
                    maxtest=self._maxtest,
                    time_limit=time_limit,
                    reducer=self._node_reducer,
                    search_graph=self._compiled(compile_floor(self._reduction, params)),
                )
                self._bump("computes")
                if not (result.timed_out or result.truncated or result.interrupted):
                    self._store(params, kind, result.cliques, result.stats)
                return result

    def cliques_containing(
        self, query: Iterable[Node], alpha: float, k: int
    ) -> List[SignedClique]:
        """The community-search answer set, largest first."""
        return list(self.query_with_stats(query, alpha, k).cliques)

    def best_clique_for(
        self, query: Iterable[Node], alpha: float, k: int
    ) -> Optional[SignedClique]:
        """The largest maximal clique containing *query*, or ``None``."""
        cliques = self.cliques_containing(query, alpha, k)
        return cliques[0] if cliques else None

    def mccore(self, alpha: float, k: int, method: Optional[str] = None) -> Set[Node]:
        """The MCCore node set (Definition 3), via the ceiling memo.

        Reduced on the compiled core of *method*'s floor: ``ceil(alpha * k)``,
        or the whole graph for ``"none"``.
        """
        params = AlphaK(alpha, k)
        with self._lock:
            self._record("mccore", alpha, k, method)
            with obs.span("serve_request", kind="mccore", alpha=params.alpha, k=params.k):
                self._bump("requests")
                return self._node_reducer(
                    self._graph, params, method or self._reduction
                )

    # ------------------------------------------------------------------
    # Batch grid
    # ------------------------------------------------------------------
    def run_grid(
        self,
        alphas: Iterable[float],
        ks: Iterable[int],
        workers: Optional[int] = None,
        time_limit: Optional[float] = None,
        model: Optional[str] = None,
    ) -> GridResult:
        """Enumerate the whole ``alphas × ks`` grid in one batch.

        Cached settings (stats-bearing, current fingerprint) are served
        straight from the tiers; the rest are computed together by
        :func:`repro.core.parallel.enumerate_grid` — one compilation at
        the smallest floor of the misses, memoised coring per distinct
        ceiling, and all missing settings' frames interleaved through
        one work-stealing pool. Complete
        results are write-through cached, so re-running a grid after a
        partial overlap only computes the new settings.

        Each returned result is bit-identical (cliques and stats) to a
        one-shot enumeration of that setting; settings interrupted by
        *time_limit* are returned partial and not cached. *workers*
        defaults to the engine's count; values below 1 raise
        :class:`ValueError`.
        """
        if workers is not None:
            _require_positive_int("workers", workers)
        grid = [AlphaK(alpha, k) for alpha in alphas for k in ks]
        points = list(dict.fromkeys(grid))
        model = self._resolve_model(model)
        with self._lock:
            self._record(
                "run_grid",
                tuple((p.alpha, p.k) for p in points),
                workers,
                time_limit,
                model,
            )
            if workers is None:
                workers = self._workers
            started = time.perf_counter()
            with obs.span(
                "serve_grid",
                points=len(points),
                workers=workers,
                model=model,
            ):
                self._bump("requests")
                self._bump("grid_points", len(points))
                results, computed = self._answers(
                    points,
                    started,
                    workers=workers,
                    time_limit=time_limit,
                    model=model,
                )
                self._bump("grid_cache_hits", len(points) - computed)
                self._bump("grid_computed", computed)
                report = {
                    "points": len(points),
                    "served_from_cache": len(points) - computed,
                    "computed": computed,
                    "workers": workers,
                    "model": model,
                    "sharing_ratio": self.sharing_ratio,
                    "elapsed_seconds": time.perf_counter() - started,
                }
                return GridResult(results=results, report=report)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node, sign: object) -> None:
        """Add edge ``(u, v)``; raises if present with a different sign."""
        with self._lock:
            self._record("add_edge", u, v, sign)
            self._edit("add", u, v, sign)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``(u, v)``; raises :class:`GraphError` if absent."""
        with self._lock:
            self._record("remove_edge", u, v)
            self._edit("remove", u, v)

    def flip_sign(self, u: Node, v: Node, sign: object) -> None:
        """Add edge ``(u, v)`` or overwrite its sign (last write wins)."""
        with self._lock:
            self._record("flip_sign", u, v, sign)
            self._edit("flip", u, v, sign)

    def add_node(self, node: Node) -> None:
        """Add an isolated node (itself a clique under degenerate params)."""
        with self._lock:
            self._record("add_node", node)
            self._edit("add_node", node)

    def remove_node(self, node: Node) -> None:
        """Remove *node* and every incident edge."""
        with self._lock:
            self._record("remove_node", node)
            self._edit("remove_node", node)

    def apply_edits(self, edits: Iterable) -> None:
        """Apply ``("add"/"remove"/"flip", u, v[, sign])`` edit tuples."""
        for edit in edits:
            operation = edit[0]
            if operation == "add":
                self.add_edge(edit[1], edit[2], edit[3])
            elif operation == "remove":
                self.remove_edge(edit[1], edit[2])
            elif operation == "flip":
                self.flip_sign(edit[1], edit[2], edit[3])
            else:
                raise GraphError(f"unknown edit operation {operation!r}")

    def _edit(self, operation: str, *args) -> None:
        """Apply one edit (:func:`repro.core.dynamic.apply_edit`) and invalidate.

        Post-mutation bookkeeping runs only when the edit disturbed a
        region: the compiled graphs and the reduction memo (whose masks
        index them) rebuild on the next request; cache entries of the
        old fingerprint can never hit again (the key changed), so they
        are dropped from the memory tier and deleted from the disk tier.
        The new fingerprint is the graph's running sum, updated by the
        edit itself, so reading it is O(1). No answer is recomputed
        here: the next request of each setting misses and computes on
        the current graph.
        """
        region = apply_edit(self._graph, operation, *args)
        if not region:
            return
        with obs.span("serve_update", region=len(region)):
            self._bump("updates")
            self._compiled_graphs.clear()
            self._reduction_masks.clear()
            stale = self._fingerprint
            self._fingerprint = graph_fingerprint(self._graph)
            if self.disk is not None and stale != self._fingerprint:
                self.disk.discard_graph(stale)
            fingerprint_prefix = self._fingerprint[:32]
            stale_keys = [
                key for key in self.memory.keys() if not key.startswith(fingerprint_prefix)
            ]
            for key in stale_keys:
                self.memory.remove(key)
            self._bump("entries_invalidated", len(stale_keys))
            obs.journal_event(
                "serve_update", region=len(region), entries_invalidated=len(stale_keys)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, object]:
        """Snapshot of both cache tiers and the engine counters.

        Deliberately taken *without* the engine lock: introspection
        (the network layer's ``/stats`` endpoint runs this on its event
        loop) must never block behind a search that holds the lock for
        its whole compute. Each constituent read is individually
        consistent (the memory tier snapshots under its own lock, dict
        sizes and counter reads are atomic), but counters mid-request
        may be one step apart — best effort, by design.
        """
        return {
            "memory": self.memory.stats(),
            "disk": str(self.disk._dir) if self.disk is not None else None,
            "model": self._model,
            "counters": dict(self.counters),
            "sharing_ratio": self.sharing_ratio,
            "reduction_memo": len(self._reduction_masks),
        }

    def __repr__(self) -> str:
        return (
            f"SignedCliqueEngine(n={self._graph.number_of_nodes()}, "
            f"m={self._graph.number_of_edges()}, "
            f"memory_entries={len(self.memory)}, "
            f"requests={self.counters['requests']})"
        )
