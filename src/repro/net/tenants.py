"""Named-graph (tenant) hosting for the network serving layer.

One server process hosts several independent signed graphs — one per
product surface, per customer, per dataset snapshot. Each tenant owns a
full :class:`~repro.serve.engine.SignedCliqueEngine`: its own resident
graph, compiled fastpath, ceiling-keyed reduction memo, and — the part
that matters for isolation — its own :class:`~repro.serve.lru.MemoryLRU`
budget and disk cache directory. A tenant that thrashes its cache
evicts its *own* entries; a tenant whose cache directory rots
self-heals (or degrades) without touching its neighbours. Per-tenant
LRU traffic reaches Prometheus as ``serve_lru_*{tenant="..."}`` series
(see :mod:`repro.serve.lru`).

Mutations route through the engine's versioned-snapshot machinery: the
graph fingerprint (a running sum the ``SignedGraph`` keeps) changes on
every write, request-coalescing keys embed the fingerprint, and cache
entries are fingerprint-keyed. A flight's compute pins the engine lock
and re-reads the fingerprint inside it, so every response is labelled
with the exact version it was computed against; when a write slips in
between a request's keying and its compute, the response says so
(``version_changed``) instead of mislabelling the result. Each tenant
also keeps the encoded JSON of its complete answers
(:attr:`Tenant.encoded`) for that one version only.

Tenant names double as path components (cache directories) and label
values (Prometheus), so they are restricted to a conservative character
set at creation time.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.graphs.signed_graph import SignedGraph
from repro.obs import runtime as obs
from repro.serve.engine import (
    DEFAULT_CACHE_MEM_BYTES,
    DEFAULT_CACHE_MEM_ENTRIES,
    SignedCliqueEngine,
)
from repro.serve.lru import MemoryLRU

__all__ = ["Tenant", "TenantError", "TenantRegistry", "UnknownTenant"]

#: Tenant names are path- and label-safe: 1-64 chars of [A-Za-z0-9_.-],
#: not starting with a dot or dash.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")


class TenantError(ReproError):
    """Invalid tenant operation (bad name, duplicate, unknown)."""


class UnknownTenant(TenantError):
    """Lookup of a tenant that does not exist."""


class Tenant:
    """One hosted graph: a named engine plus its serving metadata."""

    __slots__ = (
        "name",
        "engine",
        "created_at",
        "requests",
        "errors",
        "encoded",
        "encoded_fingerprint",
    )

    def __init__(self, name: str, engine: SignedCliqueEngine):
        self.name = name
        self.engine = engine
        self.created_at = time.time()
        #: Requests routed to this tenant (any outcome).
        self.requests = 0
        #: Requests that ended in a structured error for this tenant.
        self.errors = 0
        #: JSON text of the ``cliques`` array of complete answers, keyed
        #: by the flight key with the computed-on fingerprint in it and
        #: bounded like the engine's memory tier. It only ever holds
        #: :attr:`encoded_fingerprint`'s answers: the server clears it
        #: when an answer computed on another version arrives.
        self.encoded = MemoryLRU(
            max_entries=engine.memory.max_entries, max_bytes=engine.memory.max_bytes
        )
        self.encoded_fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Current graph-version fingerprint (changes on every write).

        A lock-free read (the engine maintains a fingerprint mirror
        outside its search lock), so the server's event loop can key
        coalescing and answer listing endpoints while a long search
        holds the engine lock.
        """
        return self.engine.fingerprint

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary for the listing / stats endpoints.

        Safe on the event loop: no read here takes the engine lock.
        """
        graph = self.engine.graph
        return {
            "name": self.name,
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "requests": self.requests,
            "errors": self.errors,
        }


class TenantRegistry:
    """The server's mapping of tenant name -> engine.

    Parameters
    ----------
    cache_dir:
        Optional base directory; each tenant gets the subdirectory
        ``<cache_dir>/<name>`` as its private disk result cache.
        ``None`` serves every tenant memory-only.
    cache_mem_entries / cache_mem_bytes:
        Per-tenant memory-tier budgets (every tenant gets its own
        :class:`~repro.serve.lru.MemoryLRU` with these bounds, unless
        overridden at :meth:`create` time).
    workers / seed:
        Engine configuration shared by all tenants.
    """

    def __init__(
        self,
        cache_dir: Optional[object] = None,
        cache_mem_entries: int = DEFAULT_CACHE_MEM_ENTRIES,
        cache_mem_bytes: Optional[int] = DEFAULT_CACHE_MEM_BYTES,
        workers: int = 1,
        seed: int = 0,
    ):
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache_mem_entries = cache_mem_entries
        self._cache_mem_bytes = cache_mem_bytes
        self._workers = workers
        self._seed = seed
        self._tenants: Dict[str, Tenant] = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def names(self) -> List[str]:
        """Tenant names in creation order."""
        return list(self._tenants)

    def tenants(self) -> Iterable[Tenant]:
        return self._tenants.values()

    def get(self, name: str) -> Tenant:
        """The named tenant, or :class:`UnknownTenant`."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(f"unknown graph {name!r}")
        return tenant

    def create(
        self,
        name: str,
        graph: SignedGraph,
        cache_mem_entries: Optional[int] = None,
        cache_mem_bytes: Optional[object] = "inherit",
    ) -> Tenant:
        """Host *graph* under *name* with its own engine and budgets."""
        if not _NAME_PATTERN.match(name or ""):
            raise TenantError(
                f"invalid graph name {name!r}: use 1-64 characters of "
                "letters, digits, '_', '.', '-' (not starting with '.'/'-')"
            )
        if name in self._tenants:
            raise TenantError(f"graph {name!r} already exists")
        tenant_dir = None
        if self._cache_dir is not None:
            tenant_dir = self._cache_dir / name
            tenant_dir.mkdir(parents=True, exist_ok=True)
        engine = SignedCliqueEngine(
            graph,
            cache_dir=tenant_dir,
            cache_mem_entries=(
                cache_mem_entries
                if cache_mem_entries is not None
                else self._cache_mem_entries
            ),
            cache_mem_bytes=(
                self._cache_mem_bytes if cache_mem_bytes == "inherit" else cache_mem_bytes
            ),
            workers=self._workers,
            seed=self._seed,
            tenant=name,
        )
        tenant = Tenant(name, engine)
        self._tenants[name] = tenant
        obs.journal_event(
            "net_tenant_created",
            tenant=name,
            nodes=graph.number_of_nodes(),
            edges=graph.number_of_edges(),
        )
        return tenant

    def drop(self, name: str) -> Tenant:
        """Stop hosting *name* (its on-disk cache, if any, is kept)."""
        tenant = self.get(name)
        del self._tenants[name]
        obs.journal_event("net_tenant_dropped", tenant=name)
        return tenant

    def describe(self) -> List[Dict[str, object]]:
        """JSON-ready tenant summaries, creation order."""
        return [tenant.describe() for tenant in self._tenants.values()]
