"""MSCE compiles its input, and the search on that compilation is exact.

``MSCE`` compiles ``SignedGraph`` input (only the positive
``ceil(alpha*k)``-core, which holds every node an (alpha, k) reduction
can keep), reduces, and searches the re-indexed survivors
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

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK
from repro.core.bbe import seeded_slice
from repro.core.parallel import enumerate_grid
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


def _networkx_core(graph, threshold, nodes=None):
    """The positive *threshold*-core by networkx, in *nodes* order."""
    nodes = list(graph.nodes()) if nodes is None else list(nodes)
    positive = nx.Graph()
    positive.add_nodes_from(nodes)
    members = set(nodes)
    positive.add_edges_from(
        (u, v) for u, v in graph.positive_edges() if u in members and v in members
    )
    core = set(nx.k_core(positive, threshold))
    return [node for node in nodes if node in core]


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
    # Only the positive ceil(alpha*k)-core is compiled (Lemma 1).
    assert default.compiled.n < graph.number_of_nodes()
    assert default.compiled.nodes == _networkx_core(graph, params.positive_threshold)
    reference = _reference(name, alpha, k)
    enumerated = default.enumerate_all()
    assert enumerated.cliques
    assert summary(enumerated) == reference["enumerate_all"]
    assert summary(default.top_r(TOP_R)) == reference["top_r"]


random_graphs = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from([0, 0, 1, -1]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ),
        st.permutations(range(n)),
    )
)


def _random_graph(spec):
    # Nodes are inserted in a shuffled order, so "graph iteration order"
    # is not the sorted order.
    n, signs, order = spec
    graph = SignedGraph(nodes=order)
    for (u, v), sign in zip(combinations(range(n), 2), signs):
        if sign:
            graph.add_edge(u, v, sign)
    return graph


@settings(max_examples=150, deadline=None)
@given(random_graphs, st.integers(min_value=0, max_value=5), st.data())
def test_compile_is_the_positive_core(spec, threshold, data):
    graph = _random_graph(spec)
    compiled = compile_graph(graph, min_positive_degree=threshold)
    assert compiled.nodes == _networkx_core(graph, threshold)
    assert compiled.to_signed_graph() == graph.subgraph(compiled.nodes)
    # A threshold above every positive degree leaves nothing.
    top = 1 + max((graph.positive_degree(node) for node in graph.nodes()), default=0)
    assert compile_graph(graph, min_positive_degree=top).nodes == []
    # With nodes=, the core of the subgraph they induce, in the order given.
    nodes = data.draw(st.permutations(list(graph.nodes())))
    nodes = nodes[: data.draw(st.integers(min_value=0, max_value=len(nodes)))]
    within = compile_graph(graph, min_positive_degree=threshold, nodes=nodes)
    assert within.nodes == _networkx_core(graph, threshold, nodes)


@pytest.mark.parametrize("reduction", ["mcnew", "mcbasic"])
@pytest.mark.parametrize(
    "point", [("slashdot", 4, 3), ("wiki", 4, 3)], ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}"
)
def test_core_compile_matches_the_unfloored_compile(point, reduction):
    # Compiling the core changes what is compiled, not what is found:
    # same cliques, same search tree.
    name, alpha, k = point
    graph = _stand_in(name)
    params = AlphaK(alpha, k)
    core = MSCE(graph, params, reduction=reduction)
    whole = MSCE(compile_graph(graph), params, reduction=reduction)
    assert core.compiled.n < whole.compiled.n == graph.number_of_nodes()
    assert _answer(core.enumerate_all()) == _answer(whole.enumerate_all())
    assert _answer(core.top_r(TOP_R)) == _answer(whole.top_r(TOP_R))


def test_grid_compiles_at_the_smallest_core(monkeypatch):
    # The grid compiles once, at its smallest ceil(alpha*k); cores nest,
    # so every point's reduction survivors lie inside that core.
    import repro.core.parallel as parallel

    graph = _stand_in("slashdot")
    points = [AlphaK(4, 3), AlphaK(3, 3), AlphaK(8, 1)]
    threshold = min(p.positive_threshold for p in points)
    assert len({p.positive_threshold for p in points}) == 3
    compiled = []
    real_compile = parallel.compile_graph

    def recording(source, *args, **kwargs):
        result = real_compile(source, *args, **kwargs)
        compiled.append(result.nodes)
        return result

    monkeypatch.setattr(parallel, "compile_graph", recording)
    results = enumerate_grid(graph, points)
    assert compiled == [_networkx_core(graph, threshold)]
    for params in points:
        assert _answer(results[params]) == _answer(MSCE(graph, params).enumerate_all())


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
