"""Fig. 7: time to find the top-r largest maximal (alpha, k)-cliques.

Paper shapes: top-r is substantially cheaper than full enumeration
(13 s vs 54 s on Slashdot at the default point), and the cost grows
with r. We assert the dominance over full enumeration via both time and
(noise-free) recursion counts, and record the r-sweep series.
"""

from benchmarks.conftest import record_exhibits
from repro.core import MSCE, AlphaK
from repro.experiments import fig7_topr_time
from repro.experiments.harness import DEFAULT_R, time_limit_seconds
from repro.experiments.registry import get_dataset


def test_fig7_topr_time(benchmark):
    exhibits = benchmark.pedantic(fig7_topr_time, rounds=1, iterations=1)
    record_exhibits("fig7", exhibits)
    assert len(exhibits) == 6  # 2 datasets x 3 axes


def test_topr_cheaper_than_full_enumeration(benchmark):
    graph = get_dataset("slashdot").graph
    params = AlphaK(4, 3)
    limit = time_limit_seconds()

    def run_both():
        top = MSCE(graph, params, time_limit=limit).top_r(DEFAULT_R)
        full = MSCE(graph, params, time_limit=limit).enumerate_all()
        return top, full

    top, full = benchmark.pedantic(run_both, rounds=1, iterations=1)
    # Paper: top-r search explores less of the tree than enumerating all.
    assert top.stats.recursions <= full.stats.recursions
    assert len(top.cliques) <= DEFAULT_R
    # Top-r results are exactly the size-prefix of the full ranking.
    prefix = full.cliques[: len(top.cliques)]
    assert [c.size for c in top.cliques] == [c.size for c in prefix]


def test_topr_speed_default_point(benchmark):
    graph = get_dataset("dblp").graph

    def run():
        return MSCE(graph, AlphaK(4, 3)).top_r(DEFAULT_R)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.cliques
