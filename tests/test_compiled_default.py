"""MSCE compiles its input, and the search on that compilation is exact.

``MSCE`` compiles ``SignedGraph`` input (only the nodes an (alpha, k)
reduction can keep), reduces, and searches the re-indexed survivors
with mask-space budget updates and maximality tests. On the Table-I
stand-ins at the end-to-end benchmark's narrow points it must return
the pure-Python search's cliques *and* :class:`SearchStats`, for full
enumeration and for top-r. That search is gone; its answers are frozen
in ``tests/golden/search_reference.json``.

A seeded search on ``SignedGraph`` input compiles only a slice around
its space (see :func:`repro.core.bbe.seeded_slice`); it must equal the
seeded search over a full compilation.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from repro.core import MSCE, AlphaK
from repro.core.bbe import seeded_slice
from repro.fastpath import compile_graph
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph
from tests.test_search_reference import RUNS, TOP_R, summary

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


def _reference(name, alpha, k):
    for run in RUNS:
        if (run["dataset"], run["alpha"], run["k"]) == (name, alpha, k) and not run["options"]:
            return run
    raise KeyError((name, alpha, k))


@pytest.mark.parametrize("point", NARROW_POINTS, ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
def test_default_matches_pure_on_stand_ins(point):
    name, alpha, k = point
    graph = _stand_in(name)
    params = AlphaK(alpha, k)
    default = MSCE(graph, params)
    # Only nodes with enough positive neighbours are compiled.
    threshold = params.positive_threshold
    assert default.compiled.n < graph.number_of_nodes()
    assert set(default.compiled.nodes) == {
        node for node in graph.nodes() if graph.positive_degree(node) >= threshold
    }
    reference = _reference(name, alpha, k)
    enumerated = default.enumerate_all()
    assert enumerated.cliques
    assert summary(enumerated) == reference["enumerate_all"]
    assert summary(default.top_r(TOP_R)) == reference["top_r"]


@pytest.mark.parametrize(
    "point", [("slashdot", 4, 3), ("dblp", 6, 3)], ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}"
)
def test_seeded_search_compiles_only_the_slice(point, monkeypatch):
    # A seeded search is local: on SignedGraph input it compiles its
    # space plus the outside nodes adjacent to at least ceil(alpha*k)+1
    # of it, never the whole graph, and answers as the seeded search
    # over a full compilation does.
    import repro.core.bbe as bbe

    name, alpha, k = point
    graph = _stand_in(name)
    params = AlphaK(alpha, k)
    full = compile_graph(graph)
    top = MSCE(graph, params).enumerate_all().cliques[0]
    anchor, extension = min(top.nodes), max(top.nodes)
    floor = params.positive_threshold + 1
    compiled_sets = []
    real_compile = bbe.compile_graph

    def recording(source, *args, **kwargs):
        result = real_compile(source, *args, **kwargs)
        compiled_sets.append(set(result.nodes))
        return result

    monkeypatch.setattr(bbe, "compile_graph", recording)
    neighbourhood = {anchor} | graph.neighbors(anchor)
    # The top clique minus one member: that member lies outside the
    # space, but every leaf inside it is non-maximal because of it.
    truncated = set(top.nodes) - {extension}
    cases = [
        (neighbourhood, frozenset()),
        (neighbourhood, frozenset({anchor})),
        (truncated, frozenset()),
    ]
    for space, included in cases:
        outside = {
            node
            for node in graph.nodes()
            if node not in space and len(graph.neighbors(node) & space) >= floor
        }
        sliced = MSCE(graph, params).enumerate_seeded(space, included)
        whole = MSCE(full, params).enumerate_seeded(space, included)
        assert compiled_sets.pop() == space | outside
        assert len(space | outside) < graph.number_of_nodes()
        assert _answer(sliced) == _answer(whole)
        if space is truncated:
            assert extension in outside
            assert sliced.cliques == [] and sliced.stats.maxtests > 0
        else:
            assert top.nodes in {c.nodes for c in sliced.cliques}
    assert compiled_sets == []


def test_seeded_slice_without_a_floor_is_the_closed_neighbourhood():
    graph = SignedGraph([(1, 2, "+"), (2, 3, "-"), (3, 4, "+"), (5, 6, "+")])
    assert set(seeded_slice(graph, {2}, 1)) == {1, 2, 3}
    assert set(seeded_slice(graph, {2, 3}, 2)) == {2, 3}
    assert set(seeded_slice(graph, {2, 3}, 1)) == {1, 2, 3, 4}


def test_reduction_none_matches_mcnew():
    # The ablation compiles and searches the whole graph: a larger tree,
    # the same answers.
    graph = _stand_in("wiki")
    params = AlphaK(4, 3)
    ablation = MSCE(graph, params, reduction="none")
    assert ablation.compiled.n == graph.number_of_nodes()
    default = MSCE(graph, params)
    unreduced = ablation.enumerate_all()
    reduced = default.enumerate_all()
    assert [c.nodes for c in unreduced.cliques] == [c.nodes for c in reduced.cliques]
    assert unreduced.stats.recursions >= reduced.stats.recursions
    assert [c.nodes for c in ablation.top_r(3).cliques] == [
        c.nodes for c in default.top_r(3).cliques
    ]


def test_paper_maxtest_reads_nodes_outside_the_mccore():
    # {a,b,c,d} is a positive 4-clique; v is adjacent to all of it with
    # two positive and two negative edges. At (1.5, 2) v has too few
    # positive neighbours to survive the reduction, yet it passes the
    # paper test's negative screen, so that test calls the 4-clique
    # non-maximal. The search must not answer the paper test from the
    # reduced slice it searches, where v is missing.
    edges = [(u, w, "+") for u, w in combinations("abcd", 2)]
    edges += [("v", "a", "+"), ("v", "b", "+"), ("v", "c", "-"), ("v", "d", "-")]
    graph = SignedGraph(edges)
    params = AlphaK(1.5, 2)
    default = MSCE(graph, params, maxtest="paper")
    assert "v" not in default.compiled.index
    paper = default.enumerate_all()
    assert paper.cliques == [] and paper.stats.maxtests == 1
    full = MSCE(compile_graph(graph), params, maxtest="paper").enumerate_all()
    assert _answer(paper) == _answer(full)
    # The exact test finds {a,b,c,d} maximal.
    exact = MSCE(graph, params).enumerate_all()
    assert [set(c.nodes) for c in exact.cliques] == [set("abcd")]
    assert exact.stats.maxtests == 1
