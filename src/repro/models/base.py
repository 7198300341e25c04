"""The signed-constraint framework: pluggable cohesion models for BBE.

The branch-and-bound skeleton this repo builds for MSCE — degeneracy
ordered root branching over reduced components, resumable two-integer
frames, work stealing, fault tolerance, observability, serving caches —
is shared by a family of signed-cohesion models (ROADMAP item 2).
What actually differs between models is a small set of rules:

* **feasibility** — is a member set a valid clique under the model?
* **budget updates** — after including a branch node, which candidates
  survive into the child frame (the model's pruning rules)?
* **prune bound** — can a whole subspace be discarded up front?
* **reduction rule** — which pre-search graph reduction is sound?
* **maximality test** — is a found clique maximal in the whole graph?

:class:`SignedConstraint` packages those rules. The one generic search,
:class:`repro.fastpath.search.FrameSearch`, calls through it, so one new
module — a :class:`SignedConstraint` subclass registered with
:func:`register_model` — inherits the CompiledGraph CSR, the
work-stealing scheduler, fault tolerance, ``repro.obs``, the serve cache
and the HTTP layer for free.

The search runs over integer bitmasks of compiled node indices, so a
constraint binds its frame rules once, in that layout:
:meth:`SignedConstraint.bind_masks` returns the :class:`FrameOps`.
The graph-level predicates (:meth:`SignedConstraint.feasible`, the
node-set form of :meth:`SignedConstraint.make_maxtest`) stay over node
sets: they are what the brute-force oracle and the audit check against.

Model selection flows through one resolver, :func:`resolve_model`: an
explicit ``model=`` argument wins over the ``REPRO_MODEL`` environment variable,
which wins over the default (``"msce"``). The resolved name is part of
the serve-cache entry key and is shipped to scheduler workers, so a
parallel run always applies one consistent model.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Optional, Tuple, Type

from repro.core.params import AlphaK
from repro.exceptions import ParameterError
from repro.graphs.signed_graph import Node, SignedGraph

#: Environment variable naming the default model for the process.
MODEL_ENV = "REPRO_MODEL"

#: The default model: the paper's maximal (alpha, k)-clique enumeration.
DEFAULT_MODEL = "msce"

#: Registry of model name -> constraint class (see :func:`register_model`).
MODELS: Dict[str, Type["SignedConstraint"]] = {}


class FrameOps:
    """Per-run frame operations of one constraint.

    A binding holds everything the hot loop needs (masks, budgets,
    flags) resolved once, then processes frames through these methods.
    ``candidates`` / ``included`` / ``members`` are bitmasks over the
    compiled node indices of the graph the search runs on. ``state`` is
    the model's per-frame threaded state, opaque to the search: only the
    binding reads it. ``None`` means "nothing threaded"; frames that
    arrive without state (roots or offloaded frames) must be
    handled by recomputing it, so dropping state never changes results
    or counters.

    The contract every binding must honour:

    ``prune_bound(candidates, included, state)``
        Returns ``(flag, candidates, state)``. ``flag=False`` prunes
        the whole subspace (counted as a core prune); otherwise the
        possibly-shrunk candidates and the state for them replace the
        frame's. The other methods receive the state returned here.
    ``feasible(members, state)``
        ``True`` iff *members* is a valid clique of the model —
        the early-termination check, run once per frame on the full
        candidate set. Excludes reporting thresholds that supersets
        inherit (see :meth:`SignedConstraint.reportable`).
    ``min_degree_set(candidates, included, state)``
        The greedy selector's candidates: the mask of free nodes
        (``candidates - included``) of minimum model degree. The
        selector breaks ties by node ``repr`` rank.
    ``update_budgets(candidates, included, new_included, branch, state)``
        The include-branch candidate filter. Returns
        ``(keep, clique_pruned, negative_pruned, budget)``: the
        surviving candidate set (a superset of ``new_included``), the
        two pruning-counter deltas, and whatever of the state the
        include child inherits from this step (handed on to
        ``include_degrees``).
    ``exclude_degrees(branch, exclude_candidates, state)``
        State for the exclude child ``(candidates - branch)``.
    ``include_degrees(candidates, keep, state, budget)``
        State for the include child ``(keep, new_included)``.
    ``leaf_edges(members, state)``
        ``(positive, negative)`` internal edge counts of a leaf clique
        when the state already holds them, else ``None`` (the emitter
        then counts them in the graph).
    """

    __slots__ = ()

    def leaf_edges(self, members: int, state) -> Optional[Tuple[int, int]]:
        return None


class SignedConstraint:
    """One signed-cohesion model: the rules the generic BBE search calls.

    Subclasses set :attr:`name`, implement the graph-level predicates
    (:meth:`feasible`, :meth:`make_maxtest`) and return their
    :class:`FrameOps` binding from :meth:`bind_masks`. Everything else
    has model-neutral defaults.

    Parameters are the repo-wide :class:`~repro.core.params.AlphaK`
    pair; each model documents its own interpretation (MSCE reads both,
    the balanced model reads ``k`` as the minimum side size).
    """

    #: Registry name; also the cache-key segment and the span attribute.
    name: str = ""

    #: Whether the query-driven community search (:mod:`repro.core.query`)
    #: understands this model's seeded subspaces.
    supports_queries: bool = False

    def __init__(self, params: AlphaK):
        self.params = params

    # ------------------------------------------------------------------
    # Graph-level predicates (oracle, audit, maximality)
    # ------------------------------------------------------------------
    def feasible(self, graph: SignedGraph, members: Iterable[Node]) -> bool:
        """``True`` iff *members* is a valid, reportable clique of the model.

        This is the differential-testing predicate: the brute-force
        oracle (:func:`repro.core.naive.brute_force_constraint`) sweeps
        it over every subset, so it must include *all* of the model's
        requirements — including reporting thresholds the in-search
        :meth:`FrameOps.feasible` omits.
        """
        raise NotImplementedError

    def reportable(self, graph: SignedGraph, members: Iterable[Node]) -> bool:
        """Emission gate: thresholds every superset inherits.

        The search may discover maximal cliques that fail a reporting
        threshold (the balanced model's minimum side size); they are
        still search leaves but are not emitted. Sound exactly when the
        threshold is superset-monotone, so maximality is unaffected.
        """
        return True

    def make_maxtest(self, kind: str, compiled=None) -> Callable:
        """Return the maximality predicate for *kind*.

        *kind* is the enumerator's ``maxtest`` knob (``"exact"`` /
        ``"paper"``); models without a heuristic variant may map both
        kinds to the exact test. Without *compiled* the predicate is
        ``f(graph, members, params)`` over node sets (the oracle's form).
        With a :class:`~repro.fastpath.CompiledGraph` it is ``f(mask)``
        over that graph's indices — the form the search calls on every
        leaf. It must answer as the node-set test does on the input
        graph, also when *compiled* is a slice of it (the MCCore, or a
        seeded search's slice, see :meth:`min_leaf_size`);
        :func:`masks_via_graph` adapts a node-set test for models
        without a mask port.
        """
        raise NotImplementedError

    def audit_check(self, graph: SignedGraph, clique) -> None:
        """Raise unless *clique* satisfies the model (``audit=True`` hook)."""
        if not self.feasible(graph, clique.nodes):
            raise AssertionError(
                f"{self.name} audit: emitted clique violates the model: "
                f"{sorted(map(repr, clique.nodes))}"
            )

    # ------------------------------------------------------------------
    # Search configuration
    # ------------------------------------------------------------------
    def reduction_rule(self, method: str) -> str:
        """Map the user's reduction *method* to one sound for this model.

        MSCE accepts the paper's ladder unchanged; models whose cliques
        are not (alpha, k)-cliques must degrade to ``"none"`` (the
        survivor set would otherwise drop valid members).
        """
        return method

    def search_min_size(self, min_size: Optional[int]) -> Optional[int]:
        """The effective subspace size floor (``None`` = no floor).

        Combines the user's ``min_size`` with any model-implied bound
        (a reportable balanced clique has at least ``2 * tau`` members).
        Used for subspace pruning only; emission gating stays with the
        user's ``min_size`` and :meth:`reportable`.
        """
        return min_size

    def min_leaf_size(self) -> int:
        """A lower bound on the size of every leaf the search maxtests.

        A seeded search on ``SignedGraph`` input compiles only its space
        plus the outside nodes with at least this many neighbours in it
        (:func:`repro.core.bbe.seeded_slice`): every node that could
        extend a leaf is adjacent to all of it. The default, ``1``, keeps
        the whole closed neighbourhood of the space.
        """
        return 1

    # ------------------------------------------------------------------
    # Frame-operation binding
    # ------------------------------------------------------------------
    def bind_masks(self, search) -> FrameOps:
        """Bind the frame operations over compiled-index bitmasks.

        *search* is the :class:`repro.fastpath.search.FrameSearch`
        driving the run; the binding may read its compiled graph and
        the enumerator's knobs.
        """
        raise NotImplementedError


def masks_via_graph(test: Callable, compiled, params: AlphaK) -> Callable[[int], bool]:
    """Adapt a node-set maxtest to a mask predicate over *compiled*.

    Members are mapped back to nodes and tested against the compiled
    graph's source, which the enumerators set to the input graph, so the
    test sees the whole graph even when *compiled* is a slice of it.
    """
    graph = compiled.source

    def test_mask(members: int) -> bool:
        return test(graph, compiled.nodes_from_mask(members), params)

    return test_mask


def register_model(cls: Type[SignedConstraint]) -> Type[SignedConstraint]:
    """Class decorator: add *cls* to the :data:`MODELS` registry."""
    if not cls.name:
        raise ParameterError(f"model class {cls.__name__} must set a name")
    MODELS[cls.name] = cls
    return cls


def available_models() -> tuple:
    """The registered model names, sorted."""
    return tuple(sorted(MODELS))


def resolve_model(model: Optional[str] = None) -> str:
    """Resolve a model request to the registered name that will run.

    Precedence: explicit *model* argument > ``REPRO_MODEL`` env >
    :data:`DEFAULT_MODEL`. Unknown names raise
    :class:`~repro.exceptions.ParameterError`.
    """
    if model is None:
        model = os.environ.get(MODEL_ENV, "").strip() or DEFAULT_MODEL
    if model not in MODELS:
        raise ParameterError(
            f"unknown model {model!r}; expected one of {list(available_models())}"
        )
    return model


def get_model(name: str) -> Type[SignedConstraint]:
    """Return the constraint class registered under *name*."""
    return MODELS[resolve_model(name)]


def make_constraint(model: Optional[str], params: AlphaK) -> SignedConstraint:
    """Instantiate the resolved constraint for *params*."""
    return MODELS[resolve_model(model)](params)
