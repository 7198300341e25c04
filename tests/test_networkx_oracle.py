"""An oracle independent of the pure search, at Table-I stand-in sizes.

On an all-positive graph the negative budget of Definition 1 is
vacuous, and every member of a clique ``C`` has ``|C| - 1`` positive
neighbours inside it. So the maximal (alpha, k)-cliques are exactly the
maximal cliques of size at least ``ceil(alpha * k) + 1``, which
networkx's ``find_cliques`` enumerates with no code shared with this
repository. The repository's own Bron-Kerbosch
(:func:`repro.algorithms.cliques.maximal_cliques`, the engine under the
TClique baseline) must agree with networkx on the same graphs.
"""

from functools import lru_cache

import networkx as nx
import pytest

from repro.algorithms.cliques import maximal_cliques
from repro.core import MSCE, AlphaK
from repro.generators.datasets import load_dataset

POINTS = [
    (name, alpha, k)
    for name in ("slashdot", "dblp")
    for alpha, k in ((3, 2), (4, 3))
]


@lru_cache(maxsize=None)
def _positive_stand_in(name):
    """The stand-in's positive subgraph and its networkx maximal cliques."""
    graph = load_dataset(name).graph.positive_subgraph()
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from((u, v) for u, v, _ in graph.edges())
    return graph, frozenset(frozenset(c) for c in nx.find_cliques(nx_graph))


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
