"""An oracle independent of the search, at 10^3-10^4 nodes.

On an all-positive graph the negative budget of Definition 1 is
vacuous, and every member of a clique ``C`` has ``|C| - 1`` positive
neighbours inside it. So the maximal (alpha, k)-cliques are exactly the
maximal cliques of size at least ``ceil(alpha * k) + 1``, which
networkx's ``find_cliques`` enumerates with no code shared with this
repository. The repository's own Bron-Kerbosch
(:func:`repro.algorithms.cliques.maximal_cliques`, the engine under the
TClique baseline) must agree with networkx on the same graphs.

The graphs are the positive subgraphs of the Table-I stand-ins, and
all-positive graphs from the LFR-style and planted-partition
generators.
"""

from functools import lru_cache

import networkx as nx
import pytest

from repro.algorithms.cliques import maximal_cliques
from repro.core import MSCE, AlphaK
from repro.generators import (
    CommunitySpec,
    gnp_signed,
    lfr_like_signed,
    planted_partition_graph,
)
from repro.generators.datasets import load_dataset

POINTS = [
    (name, alpha, k)
    for name in ("slashdot", "dblp")
    for alpha, k in ((3, 2), (4, 3))
]


def _with_nx_cliques(graph):
    """*graph* and its networkx maximal cliques."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from((u, v) for u, v, _ in graph.edges())
    return graph, frozenset(frozenset(c) for c in nx.find_cliques(nx_graph))


@lru_cache(maxsize=None)
def _positive_stand_in(name):
    """The stand-in's positive subgraph and its networkx maximal cliques."""
    return _with_nx_cliques(load_dataset(name).graph.positive_subgraph())


def _positive_lfr(n, average_degree=12.0):
    # No sign noise inside communities, every external edge flipped to
    # positive: the LFR topology with all edges positive.
    graph, _truth = lfr_like_signed(
        n=n,
        average_degree=average_degree,
        community_size_range=(10, 40),
        internal_noise=0.0,
        external_noise=1.0,
        seed=3,
    )
    return graph


#: Overlapping planted communities, some of them not quite cliques.
PLANTED_SPECS = [
    CommunitySpec(size, density)
    for size, density in ((12, 1.0), (10, 0.9), (9, 1.0), (14, 0.8), (16, 0.7), (11, 0.95))
] * 3

#: name -> all-positive generated graph (built on first use).
GENERATED = {
    "lfr-2000": lambda: _positive_lfr(2000),
    "lfr-8000": lambda: _positive_lfr(8000),
    "planted-gnp-1500": lambda: planted_partition_graph(
        gnp_signed(1500, 0.004, negative_fraction=0.0, seed=21),
        PLANTED_SPECS,
        seed=22,
        overlap_fraction=0.3,
    )[0],
    "planted-lfr-5000": lambda: planted_partition_graph(
        _positive_lfr(5000, average_degree=8.0), PLANTED_SPECS, seed=23, overlap_fraction=0.3
    )[0],
}

#: (graph, alpha, k); (2, 2) on lfr-8000 would take seconds.
GENERATED_POINTS = [
    ("lfr-2000", 2, 2),
    ("lfr-2000", 3, 2),
    ("lfr-8000", 3, 2),
    ("planted-gnp-1500", 2, 2),
    ("planted-gnp-1500", 3, 2),
    ("planted-lfr-5000", 3, 2),
]


@lru_cache(maxsize=None)
def _generated(name):
    graph = GENERATED[name]()
    assert graph.number_of_negative_edges() == 0
    return _with_nx_cliques(graph)


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
def test_msce_matches_networkx_on_positive_stand_ins(point):
    name, alpha, k = point
    graph, nx_cliques = _positive_stand_in(name)
    params = AlphaK(alpha, k)
    expected = {c for c in nx_cliques if len(c) >= params.positive_threshold + 1}
    assert expected  # the point is not vacuous
    result = MSCE(graph, params).enumerate_all()
    assert {c.nodes for c in result.cliques} == expected
    assert len(result.cliques) == len(expected)


@pytest.mark.parametrize("name", ("slashdot", "dblp"))
def test_bron_kerbosch_matches_networkx_on_positive_stand_ins(name):
    graph, nx_cliques = _positive_stand_in(name)
    ours = list(maximal_cliques(graph))
    assert len(ours) == len(set(ours))
    assert set(ours) == nx_cliques


@pytest.mark.parametrize("point", GENERATED_POINTS, ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
def test_msce_matches_networkx_on_generated_graphs(point):
    name, alpha, k = point
    graph, nx_cliques = _generated(name)
    assert 1000 <= graph.number_of_nodes() <= 10000
    params = AlphaK(alpha, k)
    expected = {c for c in nx_cliques if len(c) >= params.positive_threshold + 1}
    assert expected  # the point is not vacuous
    result = MSCE(graph, params).enumerate_all()
    assert {c.nodes for c in result.cliques} == expected
    assert len(result.cliques) == len(expected)
