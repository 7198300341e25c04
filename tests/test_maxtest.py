"""Unit tests for maximality testing (Definition 2), exact vs paper-style.

Includes the two crafted cases from DESIGN.md showing where the paper's
single-extension MaxTest diverges from Definition 2. Every case runs in
both spaces: the graph-space reference tests and their mask-space ports
over a compiled graph, which the compiled search calls.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlphaK, brute_force_maximal, is_alpha_k_clique, is_maximal
from repro.core import maxtest as maxtest_module
from repro.core.maxtest import make_mask_maxtest, make_maxtest, single_extension_test
from repro.exceptions import ParameterError
from repro.fastpath import compile_graph
from repro.graphs import SignedGraph
from tests.conftest import make_random_signed_graph

SPACES = ("graph", "mask")


def _positive_clique(nodes):
    return [(u, v, "+") for u, v in itertools.combinations(nodes, 2)]


def _maxtests(space, graph, params):
    """``(exact, paper)`` node-set predicates evaluated in *space*."""
    if space == "graph":
        return (
            lambda members: is_maximal(graph, members, params),
            lambda members: single_extension_test(graph, members, params),
        )
    compiled = compile_graph(graph)
    exact = make_mask_maxtest("exact", compiled, params)
    paper = make_mask_maxtest("paper", compiled, params)
    return (
        lambda members: exact(compiled.mask_from_nodes(members)),
        lambda members: paper(compiled.mask_from_nodes(members)),
    )


class TestPaperExample:
    def test_31_clique_is_maximal(self, paper_graph):
        members = {1, 2, 3, 4, 5}
        params = AlphaK(3, 1)
        for space in SPACES:
            exact, paper = _maxtests(space, paper_graph, params)
            assert exact(members), space
            assert paper(members), space

    def test_subclique_is_not_maximal(self, paper_graph):
        params = AlphaK(3, 1)
        assert is_alpha_k_clique(paper_graph, {1, 2, 4, 5}, params)
        for space in SPACES:
            exact, paper = _maxtests(space, paper_graph, params)
            assert not exact({1, 2, 4, 5}), space
            assert not paper({1, 2, 4, 5}), space


class TestDivergenceFromPaperTest:
    def test_paper_test_falsely_rejects(self):
        # C = positive 4-clique {a,b,c,d}; v is adjacent to all of C with
        # 2 positive and 2 negative edges. At (alpha=1.5, k=2) =>
        # threshold 3: v passes the negative screen (so the paper's test
        # says "extendable"), but C u {v} fails the positive constraint
        # and no larger superset exists — C IS maximal.
        params = AlphaK(1.5, 2)
        edges = _positive_clique("abcd") + [
            ("v", "a", "+"), ("v", "b", "+"), ("v", "c", "-"), ("v", "d", "-"),
        ]
        graph = SignedGraph(edges)
        members = set("abcd")
        assert is_alpha_k_clique(graph, members, params)
        for space in SPACES:
            exact, paper = _maxtests(space, graph, params)
            assert exact(members), space  # exact: maximal
            assert not paper(members), space  # paper: wrong

    def test_two_node_extension_found_by_exact_search(self):
        # v and w individually fail the positive constraint but lift
        # each other over it: C u {v, w} is a valid (1.5, 2)-clique, so
        # C is NOT maximal — the exact search must look past single
        # extensions to see it.
        params = AlphaK(1.5, 2)
        edges = _positive_clique("abcd") + [
            ("v", "a", "+"), ("v", "b", "+"), ("v", "c", "-"), ("v", "d", "-"),
            ("w", "a", "+"), ("w", "b", "+"), ("w", "c", "-"), ("w", "d", "-"),
            ("v", "w", "+"),
        ]
        graph = SignedGraph(edges)
        members = set("abcd")
        assert is_alpha_k_clique(graph, members, params)
        assert is_alpha_k_clique(graph, members | {"v", "w"}, params)
        for space in SPACES:
            exact, paper = _maxtests(space, graph, params)
            assert not exact(members), space
            assert not paper(members), space

    def test_paper_test_never_wrong_when_reporting_maximal(self):
        # Soundness direction: whenever the paper's test says "maximal",
        # the exact test agrees (see maxtest module docstring).
        rng = random.Random(41)
        for _ in range(40):
            graph = make_random_signed_graph(rng)
            params = AlphaK(rng.choice([1, 1.5, 2]), rng.choice([0, 1, 2]))
            for clique in brute_force_maximal(graph, params):
                members = set(clique.nodes)
                if single_extension_test(graph, members, params):
                    assert is_maximal(graph, members, params)


class TestExactAgainstBruteForce:
    def test_exact_matches_ground_truth(self):
        rng = random.Random(42)
        for _ in range(30):
            graph = make_random_signed_graph(rng, n_range=(4, 9))
            params = AlphaK(rng.choice([1, 1.5, 2]), rng.choice([0, 1, 2]))
            maximal_sets = {c.nodes for c in brute_force_maximal(graph, params)}
            tests = [_maxtests(space, graph, params) for space in SPACES]
            # Every valid (alpha, k)-clique must be classified correctly,
            # and the paper's test may only err towards "not maximal".
            nodes = sorted(graph.nodes(), key=repr)
            for size in range(max(params.min_clique_size, 1), len(nodes) + 1):
                for subset in itertools.combinations(nodes, size):
                    subset_set = set(subset)
                    if not is_alpha_k_clique(graph, subset_set, params):
                        continue
                    expected = frozenset(subset_set) in maximal_sets
                    for exact, paper in tests:
                        assert exact(subset_set) == expected
                        assert not paper(subset_set) or expected


class TestSingleWitnessShortcut:
    """The mask exact test answers single-node witnesses without searching.

    ``icore_fast`` is the first kernel the extension search calls (every
    case here has a positive threshold and viable candidates), so a spy
    on it tells whether the search was entered.
    """

    @staticmethod
    def _spied_exact(monkeypatch, graph, params):
        calls = []
        real = maxtest_module.icore_fast

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(maxtest_module, "icore_fast", spy)
        compiled = compile_graph(graph)
        exact = make_mask_maxtest("exact", compiled, params)
        return (lambda members: exact(compiled.mask_from_nodes(members))), calls

    def test_single_node_witness_skips_extension_search(self, monkeypatch, paper_graph):
        # {1, 2, 4, 5} is a (3, 1)-clique that node 3 extends on its own.
        params = AlphaK(3, 1)
        exact, calls = self._spied_exact(monkeypatch, paper_graph, params)
        assert not exact({1, 2, 4, 5})
        assert calls == []

    def test_two_node_extension_still_searches(self, monkeypatch):
        # Neither v nor w has enough positive edges into C alone, so only
        # the search finds C u {v, w}.
        params = AlphaK(1.5, 2)
        edges = _positive_clique("abcd") + [
            ("v", "a", "+"), ("v", "b", "+"), ("v", "c", "-"), ("v", "d", "-"),
            ("w", "a", "+"), ("w", "b", "+"), ("w", "c", "-"), ("w", "d", "-"),
            ("v", "w", "+"),
        ]
        exact, calls = self._spied_exact(monkeypatch, SignedGraph(edges), params)
        assert not exact(set("abcd"))
        assert calls


class TestFactory:
    def test_make_maxtest(self):
        assert make_maxtest("exact") is is_maximal
        assert make_maxtest("paper") is single_extension_test
        with pytest.raises(ParameterError):
            make_maxtest("hopeful")
        with pytest.raises(ParameterError):
            make_mask_maxtest("hopeful", compile_graph(SignedGraph([(1, 2, "+")])), AlphaK(1, 1))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 1, 1.5, 2, 3]),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_mask_port_agrees_with_graph_space(graph_seed, alpha, k, data):
    """Both ports answer what the graph-space tests answer, for any member set."""
    graph = make_random_signed_graph(random.Random(graph_seed), n_range=(1, 12))
    params = AlphaK(alpha, k)
    nodes = sorted(graph.nodes())
    members = set(data.draw(st.sets(st.sampled_from(nodes), max_size=len(nodes))))
    cliques = [set(c.nodes) for c in brute_force_maximal(graph, params)]
    # Random sets are rarely cliques, so also test every maximal clique
    # and every clique one member short of one.
    probes = [members] + cliques + [c - {v} for c in cliques for v in c if len(c) > 1]
    graph_exact, graph_paper = _maxtests("graph", graph, params)
    mask_exact, mask_paper = _maxtests("mask", graph, params)
    for probe in probes:
        assert mask_exact(probe) == graph_exact(probe), sorted(probe)
        assert mask_paper(probe) == graph_paper(probe), sorted(probe)
