"""Metamorphic invariants of the search on the Table-I stand-ins.

Each test changes the input in a way whose effect on the answer is
known without computing it, and checks the search follows:

* **relabelling** — renaming the nodes maps the clique set through the
  renaming. Branch ties are broken by node ``repr``, so a renaming that
  keeps the ``repr`` order keeps the whole search tree, and with it
  every :class:`~repro.core.bbe.SearchStats` counter, however the nodes
  are numbered inside the compiled graph;
* **disjoint union** — adding a component that cannot host a clique of
  ``ceil(alpha*k) + 1`` nodes changes neither the cliques nor the stats;
* **edit and inverse** — a :class:`~repro.serve.SignedCliqueEngine`
  edit followed by its inverse restores the graph fingerprint and the
  answers.
"""

import random
from functools import lru_cache

import pytest

from repro.core import MSCE, AlphaK
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph
from repro.serve import SignedCliqueEngine

POINTS = [("slashdot", 4, 3), ("youtube", 2, 3), ("wiki", 4, 3), ("dblp", 6, 3)]


def _point_id(point):
    return f"{point[0]}-{point[1]}-{point[2]}"


@lru_cache(maxsize=None)
def _stand_in(name):
    return load_dataset(name).graph


@lru_cache(maxsize=None)
def _answer(name, alpha, k):
    return MSCE(_stand_in(name), AlphaK(alpha, k)).enumerate_all()


def _relabelled(graph, mapping, rng):
    """*graph* under *mapping*, its edges inserted in a shuffled order."""
    edges = [(mapping[u], mapping[v], sign) for u, v, sign in graph.edges()]
    rng.shuffle(edges)
    return SignedGraph(edges)


def _cliques(result, mapping=None):
    if mapping is None:
        return {c.nodes for c in result.cliques}
    return {frozenset(mapping[node] for node in c.nodes) for c in result.cliques}


@pytest.mark.parametrize("point", POINTS, ids=_point_id)
def test_relabelling_maps_the_cliques(point):
    name, alpha, k = point
    graph = _stand_in(name)
    rng = random.Random(f"relabel:{name}")
    nodes = sorted(graph.nodes())
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    relabelled = MSCE(_relabelled(graph, mapping, rng), AlphaK(alpha, k)).enumerate_all()
    assert _cliques(relabelled) == _cliques(_answer(name, alpha, k), mapping)


@pytest.mark.parametrize("point", POINTS, ids=_point_id)
def test_order_preserving_relabelling_keeps_the_stats(point):
    name, alpha, k = point
    graph = _stand_in(name)
    rng = random.Random(f"monotone:{name}")
    # Fresh random labels, handed out in the old labels' repr order.
    labels = sorted(rng.sample(range(10**6, 10**7), graph.number_of_nodes()), key=repr)
    mapping = dict(zip(sorted(graph.nodes(), key=repr), labels))
    relabelled = MSCE(_relabelled(graph, mapping, rng), AlphaK(alpha, k)).enumerate_all()
    original = _answer(name, alpha, k)
    assert _cliques(relabelled) == _cliques(original, mapping)
    assert relabelled.stats.as_dict() == original.stats.as_dict()


def _bipartite_component(size, offset):
    """A positive complete bipartite graph: every node has *size*
    positive neighbours, but there is no triangle."""
    left = range(offset, offset + size)
    right = range(offset + size, offset + 2 * size)
    return [(u, v, "+") for u in left for v in right]


@pytest.mark.parametrize("point", POINTS, ids=_point_id)
def test_union_with_a_clique_free_component_changes_nothing(point):
    name, alpha, k = point
    graph = _stand_in(name)
    params = AlphaK(alpha, k)
    # Dense enough to pass any degree floor, but with no clique of
    # ceil(alpha*k) + 1 >= 3 nodes.
    extra = _bipartite_component(params.positive_threshold + 2, offset=10**7)
    union = graph.copy()
    for u, v, sign in extra:
        union.add_edge(u, v, sign)
    original = _answer(name, alpha, k)
    for searcher in (MSCE(union, params), MSCE(union, params, reduction="none")):
        result = searcher.enumerate_all()
        assert [c.nodes for c in result.cliques] == [c.nodes for c in original.cliques]
        if searcher.reduction == "mcnew":
            assert result.stats.as_dict() == original.stats.as_dict()


@pytest.mark.parametrize("point", POINTS[:2], ids=_point_id)
def test_engine_edit_and_inverse_restore_the_answers(point):
    name, alpha, k = point
    graph = _stand_in(name)
    engine = SignedCliqueEngine(graph)
    fingerprint = engine.fingerprint
    before = engine.enumerate_with_stats(alpha, k)
    top = engine.top_r_with_stats(alpha, k, 5)
    # Edit inside the largest clique, so the answer set changes.
    u, v = sorted(before.cliques[0].nodes)[:2]
    sign = graph.sign(u, v)
    for edit, inverse in (
        (("flip", u, v, -sign), ("flip", u, v, sign)),
        (("remove", u, v), ("add", u, v, sign)),
    ):
        engine.apply_edits([edit])
        assert engine.fingerprint != fingerprint
        changed = MSCE(engine.snapshot(), AlphaK(alpha, k)).enumerate_all().cliques
        assert engine.enumerate(alpha, k) == changed
        if edit[0] == "remove":
            assert before.cliques[0] not in changed
        engine.apply_edits([inverse])
        assert engine.fingerprint == fingerprint
        # The edit dropped this fingerprint's entries: the cliques are a
        # recompute, and the stats request replays that recompute.
        assert engine.enumerate(alpha, k) == before.cliques
        after = engine.enumerate_with_stats(alpha, k)
        assert after.cliques == before.cliques
        assert after.stats.as_dict() == before.stats.as_dict()
        ranked = engine.top_r_with_stats(alpha, k, 5)
        assert ranked.cliques == top.cliques
        assert ranked.stats.as_dict() == top.stats.as_dict()
