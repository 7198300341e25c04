"""The branch-and-bound component search of MSCE (Algorithm 4), over bitsets.

:class:`FrameSearch` is the repo's one search loop. Candidate sets and
included sets are integer bitmasks over compiled node indices, so the
model's pruning rules intersect with one C-level AND per candidate
instead of a hashed set intersection. Branch selection breaks ties
through the compiled ``repr``-rank permutation, so the search tree does
not depend on how the nodes were indexed: a slice, a re-indexed MCCore
and a full compilation of the same nodes walk the same tree.

The *rules* themselves are pluggable: the enumerator's
:class:`~repro.models.base.SignedConstraint` supplies a
:class:`~repro.models.base.FrameOps` binding (prune bound, early
termination feasibility, include-branch budget update, greedy
candidates, per-frame state threading), so the skeleton here is
model-neutral — MSCE's (alpha, k) rules live in
:mod:`repro.models.alpha_k`, the balanced-clique rules in
:mod:`repro.models.balanced`, and both inherit the resumable frames,
offload driving loop, and guard handling below unchanged.

The search is *resumable*: a frame ``(candidates, included, state)``
is a self-contained subproblem (``state`` is the model's threaded
bookkeeping, opaque here and recomputable from the two masks),
:meth:`FrameSearch.expand` processes exactly one frame, and
:meth:`FrameSearch.run` drives a DFS over an explicit list of frames
with an optional per-call *budget*. When the budget is exceeded the
deepest unexplored branches — the frames at the bottom of the DFS
stack, which root the largest subtrees — are handed
to an ``offload`` callback instead of being recursed into. This is what
lets the work-stealing scheduler (:mod:`repro.core.scheduler`) re-split
a running task across worker processes: every frame is still processed
exactly once somewhere, so results and aggregated
:class:`~repro.core.bbe.SearchStats` are invariant under any
distribution of frames over workers.

:func:`decompose_root` splits a component's search at the root into
independent frames along the exclude spine: repeatedly process the root
frame, ship the include branch ``(keep, {v_i})`` as a task, and continue
on the exclude branch ``R \\ {v_i}``. With the default greedy selector
(minimum model degree inside ``R``) the branch vertices ``v_1, v_2,
...`` follow a degeneracy-style peel order, so task ``i`` is exactly the
classic degeneracy-ordered root branch: ``v_i`` plus its candidates
among later-ordered vertices, with all earlier branch vertices excluded.
A maximal clique is therefore found in exactly one task — the one rooted
at its earliest branch vertex — and merging needs no cross-task dedup.

A frame search runs over one compiled graph, which need not be the
enumerator's own: :class:`~repro.core.bbe.MSCE` hands it the
re-indexed MCCore survivors. Leaves are maximality-tested in mask space
over that graph, through the predicate the model's
:meth:`~repro.models.base.SignedConstraint.make_maxtest` builds for it.
Cliques are emitted through the enumerator's own ``_emit`` (after
mapping indices back to nodes), which owns dedup, auditing, top-r
bookkeeping and result caps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.fastpath.bitset import bit_count, iter_bits
from repro.limits import ResourceGuard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bbe import MSCE, SearchStats

#: A search frame: (candidates mask, included mask, the model's threaded
#: state or ``None`` to recompute it).
Frame = Tuple[int, int, Any]

#: The :class:`~repro.core.bbe.SearchStats` counters :meth:`FrameSearch.expand`
#: writes, bound once per search.
_EXPAND_COUNTERS = (
    "recursions",
    "core_prunes",
    "topr_prunes",
    "early_terminations",
    "maxtests",
    "clique_pruned_candidates",
    "negative_pruned_candidates",
)

#: How many bottom-of-stack frames one budget overrun may offload.
MAX_OFFLOAD = 16

#: The branch-node selection strategies (see :func:`_make_selector`).
SELECTIONS = ("greedy", "random", "first")


class FrameSearch:
    """A configured BBE frame processor over one compiled graph.

    Binds the enumerator's knobs (constraint model, selector, maxtest)
    and the run's accumulators (``stats``, ``found``, ``size_heap``)
    once, then processes frames through :meth:`expand` / :meth:`run`.
    All state a frame needs travels *in* the frame, which is what makes
    the search resumable and re-splittable across processes.
    """

    __slots__ = (
        "msce",
        "stats",
        "found",
        "size_heap",
        "top_r",
        "guard",
        "tick",
        "interrupted",
        "incomplete",
        "compiled",
        "min_size",
        "ops",
        "select",
        "maxtest",
    ) + tuple("_" + name for name in _EXPAND_COUNTERS)

    def __init__(
        self,
        msce: "MSCE",
        stats: "SearchStats",
        found,
        size_heap: List[int],
        top_r: Optional[int],
        guard: Optional[ResourceGuard],
        tick: Optional[Callable[[], None]] = None,
        compiled=None,
    ):
        if compiled is None:
            compiled = msce.compiled
        self.msce = msce
        self.stats = stats
        self.found = found
        self.size_heap = size_heap
        self.top_r = top_r
        #: Cooperative deadline / memory ceiling (``None`` = unlimited).
        self.guard = guard
        #: Per-frame fault-injection hook (``None`` outside tests).
        self.tick = tick
        #: Trip reason once the guard fired mid-run, else ``None``.
        self.interrupted: Optional[str] = None
        #: Unexpanded ``(candidates, included)`` frames dropped on a trip.
        self.incomplete: List[Tuple[int, int]] = []
        #: The graph the frames index: the enumerator's compilation, or a
        #: re-indexed slice of it (the MCCore survivors).
        self.compiled = compiled
        #: Effective subspace size floor (user min_size folded with the
        #: model's own bound, see SignedConstraint.search_min_size).
        self.min_size = msce._search_min_size
        #: The model's mask-space frame operations.
        self.ops = msce.constraint.bind_masks(self)
        self.select = _make_selector(msce, self.ops, compiled)
        #: The model's maximality test over masks of this graph.
        self.maxtest = msce.constraint.make_maxtest(msce.maxtest_kind, compiled)
        # The registry counters behind `stats`, written directly: a
        # SearchStats property write costs several times a slot write.
        for name in _EXPAND_COUNTERS:
            setattr(self, "_" + name, stats.counter(name))

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    def expand(self, frame: Frame) -> Optional[Tuple[Frame, Frame]]:
        """Process one frame; return its ``(include, exclude)`` children.

        ``None`` means the frame was a leaf — pruned, or terminated
        early with its candidate set emitted as a clique. The frame's
        full accounting (recursion, prune and maxtest counters, clique
        emission) happens here, exactly as in the sequential search, so
        aggregating per-frame work reproduces the sequential
        :class:`~repro.core.bbe.SearchStats` no matter how frames are
        distributed over tasks and processes.
        """
        ops = self.ops
        candidates, included, state = frame
        self._recursions.value += 1

        flag, candidates, state = ops.prune_bound(candidates, included, state)
        if not flag:
            self._core_prunes.value += 1
            return None

        size = bit_count(candidates)
        if self.min_size is not None and size < self.min_size:
            self._topr_prunes.value += 1
            return None
        top_r = self.top_r
        if top_r is not None and len(self.size_heap) >= top_r and size < self.size_heap[0]:
            self._topr_prunes.value += 1
            return None

        if ops.feasible(candidates, state):
            self._early_terminations.value += 1
            self._maxtests.value += 1
            if self.maxtest(candidates):
                self.msce._emit(
                    self.compiled.nodes_from_mask(candidates),
                    self.found,
                    self.size_heap,
                    top_r,
                    self.stats,
                    ops.leaf_edges(candidates, state),
                )
            return None

        free = candidates & ~included
        if not free:
            # Unreachable while the model's invariants hold (R == I
            # implies the feasibility check fired); defensive for
            # ablation modes.
            return None
        branch = self.select(candidates, included, state)
        branch_bit = 1 << branch
        new_included = included | branch_bit

        keep, clique_pruned, negative_pruned, budget = ops.update_budgets(
            candidates, included, new_included, branch, state
        )
        self._clique_pruned_candidates.value += clique_pruned
        self._negative_pruned_candidates.value += negative_pruned

        # Exclude branch: candidates lose the branch node.
        exclude_candidates = candidates & ~branch_bit
        exclude_state = ops.exclude_degrees(branch, exclude_candidates, state)
        include_state = ops.include_degrees(candidates, keep, state, budget)
        return (
            (keep, new_included, include_state),
            (exclude_candidates, included, exclude_state),
        )

    # ------------------------------------------------------------------
    # Driving loops
    # ------------------------------------------------------------------
    def run(
        self,
        frames: List[Frame],
        budget: Optional[int] = None,
        offload: Optional[Callable[[Tuple[int, int]], None]] = None,
    ) -> Optional[str]:
        """DFS over *frames* (include branch explored first).

        With a *budget*, every ``budget`` processed frames up to
        :data:`MAX_OFFLOAD` frames are taken **from the bottom of the stack**
        (the largest unexplored subtrees) and passed to *offload* as
        plain ``(candidates, included)`` pairs — threaded state
        is dropped, which changes nothing observable: the receiving
        frame recomputes it, producing identical results and counters.
        The offload points depend only on the processed-frame count,
        never on wall-clock, so the set of frames a task spawns is a
        pure function of the task itself — the foundation of the
        parallel enumerator's determinism guarantee.

        When the :class:`~repro.limits.ResourceGuard` trips (deadline or
        memory ceiling) the search stops *cooperatively*: the remaining
        stack is recorded in :attr:`incomplete` as plain
        ``(candidates, included)`` pairs, :attr:`interrupted` latches
        the reason, and the reason is returned — work already done
        stays emitted and counted, so callers return a partial result
        instead of discarding completed subtrees. Returns ``None`` when
        the frames ran to exhaustion. Result caps still raise the
        enumerator's internal ``_StopSearch``.
        """
        guard = self.guard
        tick = self.tick
        stack = list(frames)
        processed = 0
        while stack:
            if tick is not None:
                tick()
            if guard is not None:
                reason = guard.check()
                if reason is not None:
                    self.interrupted = reason
                    self.incomplete.extend(
                        (candidates, included) for candidates, included, _d in stack
                    )
                    from repro.obs import runtime as obs

                    obs.journal_event(
                        "frames_abandoned",
                        reason=reason,
                        frames=len(self.incomplete),
                    )
                    return reason
            frame = stack.pop()
            processed += 1
            children = self.expand(frame)
            if children is not None:
                include, exclude = children
                stack.append(exclude)
                stack.append(include)
            if (
                budget is not None
                and offload is not None
                and processed >= budget
                and len(stack) > 1
            ):
                take = min(MAX_OFFLOAD, len(stack) - 1)
                for candidates, included, _state in stack[:take]:
                    offload((candidates, included))
                del stack[:take]
                processed = 0
        return None


def decompose_root(
    search: FrameSearch,
    component_mask: int,
    max_tasks: int,
    guard: Optional[ResourceGuard] = None,
) -> List[Tuple[int, int]]:
    """Split one component's search into up to *max_tasks* root frames.

    Walks the exclude spine of the component's search tree: each step
    processes the current root frame with ``search.expand`` (pruning
    counters, early terminations and any emitted cliques land in the
    search's ``stats`` / ``found``), appends the include branch
    ``(keep, included | {v_i})`` to the task list, and continues on the
    exclude branch. The spine's branch vertices follow the selector's
    order — a degeneracy-style minimum-degree peel for the default
    greedy strategy — so each task is the root branch of one vertex:
    the vertex itself plus its surviving later-ordered neighbours, with
    every earlier branch vertex excluded. The subtree sets are disjoint
    and their union is exactly the sequential search tree, which makes
    the task results a duplicate-free partition of the component's
    maximal cliques.

    When the cap is reached the unprocessed residual spine frame becomes
    the final task. A tripped *guard* short-circuits the spine walk the
    same way — the residual frame is shipped whole so no subtree is
    lost, and the caller's deadline handling decides whether it still
    runs. Returns ``(candidates, included)`` mask pairs.

    With a top-r *search*, the spine walk itself prunes against its
    ``size_heap``: a spine frame cut by the size bound roots only
    subtrees whose cliques are all smaller than the current cutoff, so
    ending the walk there drops no top-r answer.
    """
    tasks: List[Tuple[int, int]] = []
    frame: Frame = (component_mask, 0, None)
    while True:
        if len(tasks) >= max_tasks - 1 or (
            guard is not None and guard.check() is not None
        ):
            tasks.append((frame[0], frame[1]))
            break
        children = search.expand(frame)
        if children is None:
            break
        include, exclude = children
        tasks.append((include[0], include[1]))
        frame = exclude
    return tasks


def _make_selector(msce: "MSCE", ops, compiled):
    """The branch-node selector named by ``msce.selection``.

    ``"greedy"`` picks the free candidate of minimum model degree,
    ``"first"`` the smallest by node ``repr``, ``"random"`` a seeded
    pseudo-random draw. The model names the greedy candidates,
    :meth:`~repro.models.base.FrameOps.min_degree_set` (MSCE: minimum
    positive degree inside ``R``; balanced: sign-blind degree).
    Tie-breaking goes through the compiled ``repr``-rank permutation, so
    the chosen node does not depend on the index space. The random
    strategy hashes the frame's free candidates by node ``repr``
    (:func:`repro.core.bbe.frame_draw`), so the draw is a pure function
    of the frame and the seed: independent of the compiled index space,
    of the order frames are processed in, and of earlier runs.
    """
    from repro.core.bbe import frame_draw

    repr_rank = compiled.repr_rank
    nodes = compiled.nodes
    min_degree_set = ops.min_degree_set

    def greedy(candidates: int, included: int, state) -> int:
        tied = min_degree_set(candidates, included, state)
        if not tied & (tied - 1):
            return tied.bit_length() - 1
        return min(iter_bits(tied), key=repr_rank.__getitem__)

    def first(candidates: int, included: int, state) -> int:
        return min(iter_bits(candidates & ~included), key=repr_rank.__getitem__)

    def randomized(candidates: int, included: int, state) -> int:
        free = sorted(iter_bits(candidates & ~included), key=repr_rank.__getitem__)
        return free[frame_draw(msce.seed, [repr(nodes[i]) for i in free])]

    selectors = {"greedy": greedy, "random": randomized, "first": first}
    return selectors[msce.selection]
