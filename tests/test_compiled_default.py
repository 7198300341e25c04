"""The compiled search is MSCE's default; ``compile=False`` is its reference.

``MSCE`` compiles ``SignedGraph`` input (only the nodes an (alpha, k)
reduction can keep), reduces, and searches the re-indexed survivors
with mask-space budget updates and maximality tests. On the Table-I
stand-ins at the end-to-end benchmark's narrow points that path must
return the pure search's cliques *and* :class:`SearchStats`, for full
enumeration and for top-r, so both walk the same search tree.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from repro.core import MSCE, AlphaK
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph

#: The enum_narrow points of benchmarks/e2e (dataset, alpha, k).
NARROW_POINTS = [
    ("slashdot", 4, 3),
    ("youtube", 2, 3),
    ("wiki", 4, 3),
    ("dblp", 6, 3),
    ("pokec", 3, 2),
]


@lru_cache(maxsize=None)
def _stand_in(name):
    return load_dataset(name).graph


def _answer(result):
    return [c.nodes for c in result.cliques], result.stats.as_dict()


@pytest.mark.parametrize("point", NARROW_POINTS, ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
def test_default_matches_pure_on_stand_ins(point):
    name, alpha, k = point
    graph = _stand_in(name)
    params = AlphaK(alpha, k)
    default = MSCE(graph, params)
    pure = MSCE(graph, params, compile=False)
    assert default.compiled is not None and pure.compiled is None
    # Only nodes with enough positive neighbours are compiled.
    assert default.compiled.n < graph.number_of_nodes()
    enumerated = default.enumerate_all()
    assert enumerated.cliques
    assert _answer(enumerated) == _answer(pure.enumerate_all())
    assert _answer(default.top_r(10)) == _answer(pure.top_r(10))


def test_seeded_search_on_signed_graph_does_not_compile(monkeypatch):
    # A seeded search is local: on SignedGraph input it runs the pure
    # search rather than paying an O(m) compile per call.
    import repro.core.bbe as bbe

    def refuse(*args, **kwargs):
        raise AssertionError("compile_graph called by a seeded search")

    graph = _stand_in("wiki")
    searcher = MSCE(graph, AlphaK(4, 3))
    monkeypatch.setattr(bbe, "compile_graph", refuse)
    result = searcher.enumerate_seeded(set(graph.nodes()), frozenset())
    pure = MSCE(graph, AlphaK(4, 3), compile=False)
    assert _answer(result) == _answer(pure.enumerate_seeded(set(graph.nodes())))


def test_reduction_none_matches_pure():
    graph = _stand_in("wiki")
    params = AlphaK(4, 3)
    default = MSCE(graph, params, reduction="none")
    assert default.compiled.n == graph.number_of_nodes()
    pure = MSCE(graph, params, reduction="none", compile=False)
    assert _answer(default.enumerate_all()) == _answer(pure.enumerate_all())
    assert _answer(default.top_r(3)) == _answer(pure.top_r(3))


def test_paper_maxtest_reads_nodes_outside_the_mccore():
    # {a,b,c,d} is a positive 4-clique; v is adjacent to all of it with
    # two positive and two negative edges. At (1.5, 2) v has too few
    # positive neighbours to survive the reduction, yet it passes the
    # paper test's negative screen, so that test calls the 4-clique
    # non-maximal. The compiled search must not answer the paper test
    # from the reduced slice it searches, where v is missing.
    edges = [(u, w, "+") for u, w in combinations("abcd", 2)]
    edges += [("v", "a", "+"), ("v", "b", "+"), ("v", "c", "-"), ("v", "d", "-")]
    graph = SignedGraph(edges)
    params = AlphaK(1.5, 2)
    default = MSCE(graph, params, maxtest="paper")
    assert "v" not in default.compiled.index
    pure = MSCE(graph, params, maxtest="paper", compile=False).enumerate_all()
    assert pure.cliques == [] and pure.stats.maxtests == 1
    assert _answer(default.enumerate_all()) == _answer(pure)
    # The exact test finds {a,b,c,d} maximal on either path.
    exact = MSCE(graph, params).enumerate_all()
    assert [set(c.nodes) for c in exact.cliques] == [set("abcd")]
    assert _answer(exact) == _answer(MSCE(graph, params, compile=False).enumerate_all())
