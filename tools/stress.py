"""Randomized differential stress harness.

Runs the full cross-validation battery on a stream of random signed
graphs: MSCE under every branch strategy vs brute force, the compiled
exact maxtest vs the node-set one, MCBasic vs MCNew, query search vs
filtered enumeration, the dynamic index vs recompute (after edge edits,
a new isolated node and a node removal), a warmed serving engine vs a
fresh search after the same edge edits (and its running fingerprint vs
a full recompute), the greedy
heuristic's subset property, the MSCE frame-state invariant (with and
without core pruning), and (every 25th trial) the parallel enumerator at
two and three workers vs the sequential one. Two last runs kill a
helper process mid-run and still expect the sequential answer: at two
workers the pool collapses and the parent re-runs the lost task, at
three a surviving helper shares the replay. This is the long-running
version of `tests/test_cross_validation.py` — run it after touching the
enumeration core:

    python tools/stress.py --trials 500 --seed 7

Exits non-zero on the first divergence with a reproduction recipe.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AlphaK, SignedGraph, brute_force_maximal  # noqa: E402
from repro.core import MSCE, enumerate_parallel  # noqa: E402
from repro.core.scheduler import HELPER_START_BUDGETS  # noqa: E402
from repro.core.dynamic import DynamicSignedCliqueIndex  # noqa: E402
from repro.core.heuristic import greedy_signed_cliques  # noqa: E402
from repro.core.mcbasic import mccore_basic  # noqa: E402
from repro.core.maxtest import is_maximal, make_mask_maxtest  # noqa: E402
from repro.core.mcnew import mccore_new  # noqa: E402
from repro.core.query import signed_cliques_containing  # noqa: E402
from repro.fastpath import compile_graph  # noqa: E402
from repro.fastpath.bitset import bit_count, iter_bits  # noqa: E402
from repro.io.cache import graph_fingerprint  # noqa: E402
from repro.models.alpha_k import AlphaKMaskOps  # noqa: E402
from repro.serve import SignedCliqueEngine  # noqa: E402
from repro.testing import FaultPlan, injected  # noqa: E402

#: Every this many trials, also run the parallel enumerator.
PARALLEL_EVERY = 25

#: Knobs small enough that even these tiny graphs ship frames to the
#: helpers and re-split them: the parent forks its helpers after
#: ``HELPER_START_BUDGETS * 2`` frames.
PARALLEL_KNOBS = dict(small_component=1, split_component=6, task_budget=2)


def _fingerprint(result):
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


def frame_state_mismatch(
    ops: AlphaKMaskOps, candidates: int, included: int, state, complete: bool
) -> Optional[str]:
    """What is wrong with an MSCE frame's threaded state, or ``None``.

    Recounts by plain per-node popcounts: ``planes`` must hold the
    positive degree inside ``candidates`` of exactly its nodes, and
    ``(levels, blocked)`` the negative counts against ``included``. With
    *complete*, a part the frame's rules need must also be present.
    """
    planes, budget = state
    if planes is None:
        if complete and ops.core_pruning:
            return "positive-degree planes missing"
    else:
        if planes and not planes[-1]:
            return "empty top plane"
        if any(plane & ~candidates for plane in planes):
            return "planes hold a node outside R"
        for v in iter_bits(candidates):
            held = sum(((plane >> v) & 1) << b for b, plane in enumerate(planes))
            if held != bit_count(ops.pos_masks[v] & candidates):
                return f"positive degree of index {v} drifted"
    if budget is None:
        if complete and ops.negative_pruning:
            return "negative budget state missing"
        return None
    neg_masks = ops.neg_masks
    k = ops.neg_budget
    counts = {}
    for m in iter_bits(included):
        for v in iter_bits(neg_masks[m]):
            counts[v] = counts.get(v, 0) + 1
    levels = [0] * (k + 1)
    for v, count in counts.items():
        for j in range(min(count, k + 1)):
            levels[j] |= 1 << v
    blocked = 0
    for m in iter_bits(included):
        if counts.get(m, 0) >= k:
            blocked |= neg_masks[m]
    if list(budget[0]) != levels:
        return "negative-count levels drifted"
    if budget[1] != blocked:
        return "blocked mask drifted"
    return None


@contextmanager
def checked_frame_state() -> Iterator[List[int]]:
    """Check every MSCE frame's state on the way into and out of ``prune_bound``.

    Yields a one-item list counting the checked frames; a mismatch
    raises ``AssertionError`` from inside the search.
    """
    checked = [0]
    original = AlphaKMaskOps.prune_bound

    def prune_bound(self, candidates, included, state):
        if state is not None:
            # Parts left for this frame to recompute may be missing.
            problem = frame_state_mismatch(self, candidates, included, state, False)
            if problem is not None:
                raise AssertionError(f"incoming frame state: {problem}")
        flag, candidates, state = original(self, candidates, included, state)
        if flag:
            problem = frame_state_mismatch(self, candidates, included, state, True)
            if problem is not None:
                raise AssertionError(f"frame state after prune_bound: {problem}")
            checked[0] += 1
        return flag, candidates, state

    AlphaKMaskOps.prune_bound = prune_bound
    try:
        yield checked
    finally:
        AlphaKMaskOps.prune_bound = original


def random_instance(rng: random.Random):
    n = rng.randint(4, 11)
    p = rng.uniform(0.2, 0.9)
    q = rng.uniform(0.0, 0.6)
    edges = [
        (u, v, -1 if rng.random() < q else 1)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    graph = SignedGraph(edges, nodes=range(n))
    params = AlphaK(rng.choice([0, 1, 1.5, 2, 3]), rng.choice([0, 1, 2, 3]))
    return graph, params


def run_trial(rng: random.Random, trial: int) -> None:
    graph, params = random_instance(rng)
    context = f"trial={trial} n={graph.number_of_nodes()} params={params}"

    truth = {clique.nodes for clique in brute_force_maximal(graph, params)}

    for selection in ("greedy", "random", "first"):
        got = {
            clique.nodes
            for clique in MSCE(graph, params, selection=selection, audit=True)
            .enumerate_all()
            .cliques
        }
        assert got == truth, f"MSCE[{selection}] diverged: {context}"

    for core_pruning in (True, False):
        with checked_frame_state():
            checked = MSCE(graph, params, core_pruning=core_pruning).enumerate_all()
        assert {clique.nodes for clique in checked.cliques} == truth, (
            f"MSCE[core_pruning={core_pruning}] diverged: {context}"
        )

    compiled = compile_graph(graph)
    mask_exact = make_mask_maxtest("exact", compiled, params)
    probes = list(truth) + [c - {v} for c in truth if len(c) > 1 for v in c]
    for probe in probes:
        assert mask_exact(compiled.mask_from_nodes(probe)) == is_maximal(
            graph, set(probe), params
        ), f"mask maxtest diverged on {sorted(probe)}: {context}"

    if trial % PARALLEL_EVERY == 0:
        sequential = _fingerprint(MSCE(graph, params).enumerate_all())
        for workers in (2, 3):
            parallel = enumerate_parallel(
                graph, params.alpha, params.k, workers=workers, **PARALLEL_KNOBS
            )
            assert _fingerprint(parallel) == sequential, (
                f"parallel enumeration (workers={workers}) diverged: {context}"
            )

    assert mccore_basic(graph, params) == mccore_new(graph, params), (
        f"MCBasic != MCNew: {context}"
    )

    greedy = {clique.nodes for clique in greedy_signed_cliques(
        graph, params.alpha, params.k
    )}
    assert greedy <= truth, f"greedy produced a non-answer: {context}"

    node = rng.randrange(graph.number_of_nodes())
    expected = {clique for clique in truth if node in clique}
    queried = {
        clique.nodes
        for clique in signed_cliques_containing(graph, {node}, params.alpha, params.k)
    }
    assert queried == expected, f"query search diverged (node {node}): {context}"

    engine = SignedCliqueEngine(graph)
    engine.enumerate_with_stats(params.alpha, params.k)
    engine.top_r_with_stats(params.alpha, params.k, 3)
    index = DynamicSignedCliqueIndex(graph, params)
    nodes = sorted(graph.nodes())
    edits = []
    for _ in range(4):
        u, v = rng.sample(nodes, 2)
        if index.graph.has_edge(u, v):
            edits.append(("remove", u, v))
        else:
            edits.append(("add", u, v, rng.choice([1, -1])))
        index.apply_edits(edits[-1:])
    check_index(index, f"dynamic index diverged after edge edits: {context}")
    engine.apply_edits(edits)
    check_engine(engine, params, f"engine diverged after edge edits: {context}")
    index.add_node(len(nodes))  # a new isolated node
    check_index(index, f"dynamic index diverged after add_node: {context}")
    index.remove_node(rng.choice(nodes))
    check_index(index, f"dynamic index diverged after remove_node: {context}")


def check_index(index: DynamicSignedCliqueIndex, failure: str) -> None:
    """The index's cliques must equal a fresh enumeration of its graph."""
    fresh = MSCE(index.graph, index.params).enumerate_all().cliques
    assert {clique.nodes for clique in fresh} == {
        clique.nodes for clique in index.cliques()
    }, failure


def check_engine(engine: SignedCliqueEngine, params: AlphaK, failure: str) -> None:
    """The engine's answers must equal a fresh search of its graph.

    The running fingerprint must equal a full computation on a graph
    rebuilt from the engine's edge and node lists; the full answer must
    match in cliques and stats, the top-3 in cliques.
    """
    graph = engine.graph
    rebuilt = SignedGraph(list(graph.edges()), nodes=list(graph.nodes()))
    assert engine.fingerprint == graph_fingerprint(rebuilt), f"fingerprint drifted: {failure}"
    fresh = MSCE(engine.snapshot(), params)
    full = engine.enumerate_with_stats(params.alpha, params.k)
    assert _fingerprint(full) == _fingerprint(fresh.enumerate_all()), failure
    top = engine.top_r_with_stats(params.alpha, params.k, 3)
    assert top.cliques == fresh.top_r(3).cliques, failure


def run_helper_kill(rng: random.Random) -> None:
    """Kill helper slot 0 at its first frame; the answer must not change.

    Draws instances until one searches three helper thresholds of
    frames, so the helpers are sure to start. At two workers the kill
    collapses the pool and the parent finishes alone; at three the
    other helper survives.
    """
    for _ in range(10_000):
        graph, params = random_instance(rng)
        sequential = MSCE(graph, params).enumerate_all()
        if sequential.stats.recursions > 3 * HELPER_START_BUDGETS * PARALLEL_KNOBS["task_budget"]:
            break
    else:
        raise AssertionError("no instance large enough to start helpers")
    for workers, degraded in ((2, "worker pool collapsed"), (3, None)):
        context = (
            f"helper kill n={graph.number_of_nodes()} params={params} workers={workers}"
        )
        with injected(FaultPlan(kill_at_frame={0: 1})):
            parallel = enumerate_parallel(
                graph, params.alpha, params.k, workers=workers, **PARALLEL_KNOBS
            )
        assert parallel.parallel["workers_lost"] == 1, f"expected one lost helper: {context}"
        assert parallel.parallel["degraded"] == degraded, (
            f"degraded is {parallel.parallel['degraded']!r}, not {degraded!r}: {context}"
        )
        assert _fingerprint(parallel) == _fingerprint(sequential), (
            f"parallel enumeration diverged after a helper kill: {context}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    for trial in range(args.trials):
        try:
            run_trial(rng, trial)
        except AssertionError as failure:
            print(f"DIVERGENCE: {failure}", file=sys.stderr)
            print(
                f"reproduce with: python tools/stress.py --trials {trial + 1} "
                f"--seed {args.seed}",
                file=sys.stderr,
            )
            return 1
        if (trial + 1) % 50 == 0:
            print(f"{trial + 1}/{args.trials} trials clean")
    try:
        run_helper_kill(random.Random(f"helper-kill-{args.seed}"))
    except AssertionError as failure:
        print(f"DIVERGENCE: {failure}", file=sys.stderr)
        print(f"reproduce with: python tools/stress.py --trials 0 --seed {args.seed}", file=sys.stderr)
        return 1
    print(f"all {args.trials} trials clean, helper kill clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
