"""Randomized differential stress harness.

Runs the full cross-validation battery on a stream of random signed
graphs: MSCE under every branch strategy vs brute force, the compiled
exact maxtest vs the node-set one, MCBasic vs MCNew, query search vs
filtered enumeration, the dynamic index vs recompute, the greedy
heuristic's subset property, and (every 25th trial) the two-worker
parallel enumerator vs the sequential one. This is the
long-running version of `tests/test_cross_validation.py` — run it after
touching the enumeration core:

    python tools/stress.py --trials 500 --seed 7

Exits non-zero on the first divergence with a reproduction recipe.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AlphaK, SignedGraph, brute_force_maximal  # noqa: E402
from repro.core import MSCE, enumerate_parallel  # noqa: E402
from repro.core.dynamic import DynamicSignedCliqueIndex  # noqa: E402
from repro.core.heuristic import greedy_signed_cliques  # noqa: E402
from repro.core.mcbasic import mccore_basic  # noqa: E402
from repro.core.maxtest import is_maximal, make_mask_maxtest  # noqa: E402
from repro.core.mcnew import mccore_new  # noqa: E402
from repro.core.query import signed_cliques_containing  # noqa: E402
from repro.fastpath import compile_graph  # noqa: E402

#: Every this many trials, also run the two-worker parallel enumerator.
PARALLEL_EVERY = 25


def _fingerprint(result):
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


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

    compiled = compile_graph(graph)
    mask_exact = make_mask_maxtest("exact", compiled, params)
    probes = list(truth) + [c - {v} for c in truth if len(c) > 1 for v in c]
    for probe in probes:
        assert mask_exact(compiled.mask_from_nodes(probe)) == is_maximal(
            graph, set(probe), params
        ), f"mask maxtest diverged on {sorted(probe)}: {context}"

    if trial % PARALLEL_EVERY == 0:
        # Knobs small enough that even these tiny graphs ship frames to
        # the workers and re-split them.
        parallel = enumerate_parallel(
            graph,
            params.alpha,
            params.k,
            workers=2,
            small_component=1,
            split_component=6,
            task_budget=2,
        )
        assert _fingerprint(parallel) == _fingerprint(
            MSCE(graph, params).enumerate_all()
        ), f"parallel enumeration diverged: {context}"

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

    index = DynamicSignedCliqueIndex(graph, params)
    nodes = sorted(graph.nodes())
    for _ in range(4):
        u, v = rng.sample(nodes, 2)
        if index.graph.has_edge(u, v):
            index.remove_edge(u, v)
        else:
            index.add_edge(u, v, rng.choice([1, -1]))
    fresh = {
        clique.nodes for clique in MSCE(index.graph, params).enumerate_all().cliques
    }
    assert fresh == {clique.nodes for clique in index.cliques()}, (
        f"dynamic index diverged: {context}"
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
    print(f"all {args.trials} trials clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
