"""Cross-validation of the fastpath CSR/bitset kernels and search.

The fastpath subsystem (``repro.fastpath``) re-implements the kernels
the pipeline runs — ICore (whole-graph and on small masks), the
Lemma-4 ego-triangle deltas, MCNew and MCBasic, the reduction entry
point and connected components — on compact CSR arrays, packed
``uint64`` matrices and big-int bitmasks. Each kernel is called by name
and held to its set-based reference (``repro.algorithms.kcore``,
``repro.algorithms.triangles``, ``repro.core.mcnew`` / ``mcbasic`` /
``reduction``), which take a ``SignedGraph`` only: *bit-identical*
agreement on the generator suite (random, planted-community, LFR-like)
and on arbitrary hypothesis graphs. The MSCE branch-and-bound runs only
on the fastpath; its cliques are held to the brute-force and
Bron–Kerbosch oracles of :mod:`repro.core.naive`, and identical
:class:`repro.core.bbe.SearchStats` across index spaces show the tree
does not depend on how the nodes were compiled.
"""

import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cliques import common_neighbors
from repro.algorithms.kcore import core_numbers, icore
from repro.algorithms.triangles import all_ego_triangle_degrees, triangle_count
from repro.core import MSCE, AlphaK, mccore_basic, mccore_new
from repro.core.cliques import sort_cliques
from repro.core.maxtest import _viable_single_extensions, single_extension_test
from repro.core.naive import brute_force_constraint, reference_enumerate
from repro.core.reduction import reduce_graph, reduction_components
from repro.exceptions import ParameterError
from repro.fastpath import (
    CompiledGraph,
    as_compiled,
    bit_count,
    compile_graph,
    iter_bits,
    packed,
    vectorized,
)
from repro.fastpath.bitset import _bit_count_fallback
from repro.fastpath.kernels import (
    budget_violators,
    component_masks,
    icore_fast,
    mccore_basic_mask,
    reduce_mask,
)
from repro.generators import (
    CommunitySpec,
    gnp_signed,
    lfr_like_signed,
    planted_partition_graph,
)
from repro.graphs import SignedGraph
from repro.models import make_constraint
from tests.conftest import PAPER_EDGES


def _generator_suite():
    """One representative graph per generator family (plus Fig. 1)."""
    paper = SignedGraph(PAPER_EDGES)
    random_small = gnp_signed(24, 0.45, negative_fraction=0.25, seed=11)
    random_sparse = gnp_signed(60, 0.08, negative_fraction=0.4, seed=12)
    planted, _communities = planted_partition_graph(
        gnp_signed(50, 0.06, negative_fraction=0.3, seed=13),
        [CommunitySpec(8, 1.0, 0.1), CommunitySpec(6), CommunitySpec(7, 0.9, 0.05)],
        seed=14,
    )
    lfr, _truth = lfr_like_signed(n=70, average_degree=6.0, seed=15)
    return [
        ("paper", paper),
        ("random-dense", random_small),
        ("random-sparse", random_sparse),
        ("planted", planted),
        ("lfr-like", lfr),
    ]


GRAPHS = _generator_suite()
PARAM_GRID = [AlphaK(3, 1), AlphaK(2, 1), AlphaK(1.5, 2), AlphaK(0, 1)]


def _cases():
    return [
        pytest.param(graph, id=name)
        for name, graph in GRAPHS
    ]


class TestCompiledGraph:
    def test_roundtrip_preserves_graph(self):
        for _name, graph in GRAPHS:
            compiled = compile_graph(graph)
            assert compiled.to_signed_graph() == graph
            assert set(compiled.nodes) == graph.node_set()

    def test_pickle_roundtrip(self):
        graph = dict(GRAPHS)["random-dense"]
        compiled = compile_graph(graph)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.nodes == compiled.nodes
        assert clone.source == graph

    def test_mask_helpers(self):
        graph = SignedGraph(PAPER_EDGES)
        compiled = compile_graph(graph)
        mask = compiled.mask_from_nodes([1, 2, 3, 999])  # absent nodes ignored
        assert compiled.nodes_from_mask(mask) == {1, 2, 3}
        assert bit_count(compiled.full_mask) == compiled.n

    def test_bad_sign_selector_raises(self):
        compiled = compile_graph(SignedGraph(PAPER_EDGES))
        with pytest.raises(ParameterError):
            compiled.csr("bogus")

    def test_as_compiled(self):
        graph = SignedGraph(PAPER_EDGES)
        assert as_compiled(graph) is None
        compiled = compile_graph(graph)
        assert as_compiled(compiled) is compiled

    def test_holds_no_packed_matrix_after_search(self):
        # The packed (n, n/64) matrices of MCNew's kernel live only for
        # the kernel call: a compiled graph an MSCE or a serving engine
        # keeps must not hold them for its lifetime.
        graph = dict(GRAPHS)["lfr-like"]
        searcher = MSCE(graph, AlphaK(2, 1))
        assert searcher.enumerate_all().cliques
        compiled = searcher.compiled
        for slot in CompiledGraph.__slots__:
            value = getattr(compiled, slot, None)
            held = value.values() if isinstance(value, dict) else [value]
            assert not any(isinstance(item, np.ndarray) for item in held), slot


class TestBitset:
    def test_iter_bits_matches_membership(self):
        rng = random.Random(3)
        indices = sorted(rng.sample(range(200), 40))
        mask = 0
        for i in indices:
            mask |= 1 << i
        assert list(iter_bits(mask)) == indices
        assert bit_count(mask) == 40

    def test_bit_count_fallback_matches_reference(self):
        """The py<3.10 chunked popcount must agree with the reference count,
        including on huge masks where the old ``bin(mask)`` path was the
        quadratic-ish hazard."""
        rng = random.Random(9)
        masks = [0, 1, (1 << 64) - 1, 1 << 4096, (1 << 100_000) - 1]
        masks += [rng.getrandbits(bits) for bits in (7, 63, 64, 65, 1000, 50_000)]
        for mask in masks:
            assert _bit_count_fallback(mask) == bin(mask).count("1")


class TestKernelCrossValidation:
    """Each kernel the pipeline runs, by name, against its set-based reference."""

    @pytest.mark.parametrize("graph", _cases())
    @pytest.mark.parametrize("sign", ["all", "positive", "negative"])
    def test_core_numbers_match(self, graph, sign):
        # The tau-core is the set of nodes of core number >= tau, so the
        # whole-graph ICore kernel at every tau is held to core_numbers.
        compiled = compile_graph(graph)
        numbers = core_numbers(graph, sign=sign)
        for tau in range(1, max(numbers.values(), default=0) + 2):
            expected = {node for node, core in numbers.items() if core >= tau}
            flag, mask = vectorized.icore(compiled, 0, tau, sign=sign)
            assert flag == bool(expected)
            assert compiled.nodes_from_mask(mask) == expected

    @pytest.mark.parametrize("graph", _cases())
    def test_icore_matches(self, graph):
        compiled = compile_graph(graph)
        nodes = sorted(graph.nodes(), key=repr)
        for tau in (1, 2, 3):
            for sign in ("all", "positive"):
                for fixed in ((), (nodes[0],), tuple(nodes[:2])):
                    pure = icore(graph, fixed=fixed, tau=tau, sign=sign)
                    fixed_mask = compiled.mask_from_nodes(fixed)
                    for kernel in (vectorized.icore, icore_fast):
                        flag, mask = kernel(compiled, fixed_mask, tau, None, sign)
                        assert (flag, compiled.nodes_from_mask(mask)) == pure

    @pytest.mark.parametrize("graph", _cases())
    def test_icore_within_matches(self, graph):
        compiled = compile_graph(graph)
        nodes = sorted(graph.nodes(), key=repr)
        within = set(nodes[: max(4, len(nodes) // 2)])
        pure = icore(graph, fixed=(), tau=2, within=within, sign="all")
        within_mask = compiled.mask_from_nodes(within)
        for kernel in (vectorized.icore, icore_fast):
            flag, mask = kernel(compiled, 0, 2, within_mask, "all")
            assert (flag, compiled.nodes_from_mask(mask)) == pure

    def test_icore_unknown_fixed_node(self):
        graph = SignedGraph(PAPER_EDGES)
        assert icore(graph, fixed=["nope"], tau=1) == (False, set())
        compiled = compile_graph(graph)
        outside = compiled.mask_from_nodes([1])
        within = compiled.full_mask & ~outside
        for kernel in (vectorized.icore, icore_fast):
            assert kernel(compiled, outside, 1, within) == (False, 0)

    @pytest.mark.parametrize("graph", _cases())
    def test_triangle_count_matches(self, graph):
        # The batched intersection primitive over packed sign-blind rows:
        # each triangle is counted once per ordered pair of its corners.
        compiled = compile_graph(graph)
        rows = packed.pack_csr(compiled.n, compiled.xadj, compiled.adj)
        tails, heads = _directed_edges(compiled.xadj, compiled.adj)
        common = vectorized.pair_popcounts(rows, rows, tails, heads)
        assert int(common.sum()) == 6 * triangle_count(graph)

    @pytest.mark.parametrize("graph", _cases())
    def test_ego_triangle_degrees_match(self, graph):
        # MCNew's Lemma-4 deltas: popcount(pos-row(u) & all-row(v)) per
        # directed positive edge, as mccore_new_mask computes them.
        compiled = compile_graph(graph)
        n = compiled.n
        positive = packed.pack_csr(n, compiled.pxadj, compiled.padj)
        sign_blind = packed.pack_csr(n, compiled.xadj, compiled.adj)
        tails, heads = _directed_edges(compiled.pxadj, compiled.padj)
        deltas = vectorized.pair_popcounts(positive, sign_blind, tails, heads)
        nodes = compiled.nodes
        got = {
            (nodes[u], nodes[v]): delta
            for u, v, delta in zip(tails.tolist(), heads.tolist(), deltas.tolist())
        }
        assert got == all_ego_triangle_degrees(graph)

    @pytest.mark.parametrize("graph", _cases())
    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_mccore_matches(self, graph, params):
        compiled = compile_graph(graph)
        pure = mccore_new(graph, params)
        assert compiled.nodes_from_mask(vectorized.mccore_new_mask(compiled, params)) == pure
        assert compiled.nodes_from_mask(mccore_basic_mask(compiled, params)) == pure
        assert mccore_basic(graph, params) == pure

    @pytest.mark.parametrize("graph", _cases())
    @pytest.mark.parametrize("method", ["none", "positive-core", "mcbasic", "mcnew"])
    def test_reduce_graph_matches(self, graph, method):
        compiled = compile_graph(graph)
        params = AlphaK(2, 1)
        assert compiled.nodes_from_mask(
            reduce_mask(compiled, params, method=method)
        ) == reduce_graph(graph, params, method=method)

    @pytest.mark.parametrize("graph", _cases())
    def test_reduction_components_match(self, graph):
        compiled = compile_graph(graph)
        params = AlphaK(1.5, 1)
        pure = sorted(
            (frozenset(c) for c in reduction_components(graph, params)), key=sorted
        )
        survivors = reduce_mask(compiled, params)
        fast = sorted(
            (
                frozenset(compiled.nodes_from_mask(mask))
                for mask in component_masks(compiled, survivors)
            ),
            key=sorted,
        )
        assert fast == pure

    @pytest.mark.parametrize("graph", _cases())
    def test_budget_violators_match(self, graph):
        # The maxtest's negative-budget filter against its node-set form.
        compiled = compile_graph(graph)
        neg_masks = compiled.masks("negative")
        nodes = sorted(graph.nodes(), key=repr)
        for size in (1, 2, 3):
            members = set(nodes[:size])
            scope = compiled.mask_from_nodes(common_neighbors(graph, members))
            for budget in (0, 1, 2):
                viable = _viable_single_extensions(graph, members, AlphaK(1, budget))
                violators = budget_violators(
                    neg_masks, compiled.mask_from_nodes(members), scope, budget
                )
                assert compiled.nodes_from_mask(scope & ~violators) == set(viable)


def _directed_edges(xadj, adj):
    """``(tails, heads)`` int64 arrays of every CSR entry."""
    xadj = packed.as_int64(xadj)
    tails = np.repeat(np.arange(xadj.shape[0] - 1, dtype=np.int64), np.diff(xadj))
    return tails, packed.as_int64(adj)


def _oracle(graph, params):
    """Definition-2 answer by the paper's straightforward method."""
    return {c.nodes for c in reference_enumerate(graph, params)}


class TestSearchCrossValidation:
    """The search on a full compilation and on MSCE's own compilation.

    ``MSCE(graph)`` compiles only the nodes its reduction can keep, so
    the two runs search different index spaces; identical counters show
    the tree does not depend on the indexing. The cliques are held to
    :func:`~repro.core.naive.reference_enumerate`.
    """

    @pytest.mark.parametrize("graph", _cases())
    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_msce_identical_cliques_and_stats(self, graph, params):
        compiled = compile_graph(graph)
        default = MSCE(graph, params).enumerate_all()
        fast = MSCE(compiled, params).enumerate_all()
        assert {c.nodes for c in fast.cliques} == _oracle(graph, params)
        assert [c.nodes for c in fast.cliques] == [c.nodes for c in default.cliques]
        assert fast.stats.as_dict() == default.stats.as_dict()

    @pytest.mark.parametrize("graph", _cases())
    @pytest.mark.parametrize("selection", ["first", "random"])
    def test_other_selections_match(self, graph, selection):
        params = AlphaK(1.5, 1)
        compiled = compile_graph(graph)
        default = MSCE(graph, params, selection=selection, seed=5).enumerate_all()
        fast = MSCE(compiled, params, selection=selection, seed=5).enumerate_all()
        assert {c.nodes for c in fast.cliques} == _oracle(graph, params)
        assert [c.nodes for c in fast.cliques] == [c.nodes for c in default.cliques]
        assert fast.stats.as_dict() == default.stats.as_dict()

    @pytest.mark.parametrize("graph", _cases())
    def test_paper_maxtest_matches(self, graph):
        # Same tree as the exact run; the paper test's "maximal" answers
        # are always right, so it keeps the exact answers it accepts.
        params = AlphaK(2, 1)
        compiled = compile_graph(graph)
        default = MSCE(graph, params, maxtest="paper").enumerate_all()
        fast = MSCE(compiled, params, maxtest="paper").enumerate_all()
        expected = {
            nodes
            for nodes in _oracle(graph, params)
            if single_extension_test(graph, set(nodes), params)
        }
        assert {c.nodes for c in fast.cliques} == expected
        assert {c.nodes for c in default.cliques} == expected

    @pytest.mark.parametrize("graph", _cases())
    @pytest.mark.parametrize("r", [1, 3])
    def test_top_r_matches(self, graph, r):
        params = AlphaK(1.5, 1)
        compiled = compile_graph(graph)
        default = MSCE(graph, params).top_r(r)
        fast = MSCE(compiled, params).top_r(r)
        ranked = sort_cliques(reference_enumerate(graph, params))[:r]
        assert [c.nodes for c in fast.cliques] == [c.nodes for c in ranked]
        assert [c.nodes for c in default.cliques] == [c.nodes for c in ranked]
        assert fast.stats.as_dict() == default.stats.as_dict()

    def test_enumerate_seeded_matches(self):
        # On SignedGraph input the seeded search compiles a slice; on a
        # full compilation it searches in place. Same tree either way.
        graph = dict(GRAPHS)["paper"]
        compiled = compile_graph(graph)
        params = AlphaK(3, 1)
        space = graph.node_set()
        sliced = MSCE(graph, params).enumerate_seeded(set(space), frozenset({1}))
        fast = MSCE(compiled, params).enumerate_seeded(set(space), frozenset({1}))
        expected = {nodes for nodes in _oracle(graph, params) if 1 in nodes}
        assert {c.nodes for c in fast.cliques} == expected
        assert [c.nodes for c in sliced.cliques] == [c.nodes for c in fast.cliques]
        assert sliced.stats.as_dict() == fast.stats.as_dict()

    def test_every_fast_result_verifies(self):
        for _name, graph in GRAPHS:
            compiled = compile_graph(graph)
            for clique in MSCE(compiled, AlphaK(1.5, 1)).enumerate_all().cliques:
                clique.verify(graph)


class TestBackendSweep:
    """The numpy kernels against the graph-space oracles.

    The whole-graph kernels of :mod:`repro.fastpath.vectorized` must
    return what the set-based implementations return on the compiled
    graph's ``source``, kernel by kernel and end to end through MSCE,
    including the ``SearchStats`` counters.
    """

    @pytest.mark.parametrize("path", ["python", "vectorized"])
    @pytest.mark.parametrize("graph", _cases())
    def test_kernel_outputs_identical(self, graph, path):
        # ``vectorized`` runs the kernels by name on the CompiledGraph;
        # ``python`` runs the set-based references on a SignedGraph
        # rebuilt from the CSR arrays, so they must give the same answers
        # after the compile round trip.
        compiled = compile_graph(graph)
        if path == "vectorized":
            outputs = _kernel_outputs(compiled)
        else:
            outputs = _reference_outputs(compiled.to_signed_graph())
        assert outputs == _reference_outputs(compiled.source)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("graph", _cases())
    def test_msce_identical_across_backends(self, graph, params):
        # The search fed by the graph-space reduction must run the same
        # tree as the search fed by the numpy kernels.
        compiled = compile_graph(graph)

        def oracle_reducer(target, point, method):
            return target.mask_from_nodes(reduce_graph(target.source, point, method=method))

        oracle = MSCE(compiled, params, reducer=oracle_reducer).enumerate_all()
        result = MSCE(compiled, params).enumerate_all()
        assert [c.nodes for c in result.cliques] == [c.nodes for c in oracle.cliques]
        assert result.stats.as_dict() == oracle.stats.as_dict()


def _kernel_outputs(compiled):
    """ICore, MCCore and reduction node sets from the kernels, by name."""
    outputs = {}
    for sign in ("all", "positive", "negative"):
        for tau in (1, 2, 3):
            flag, mask = vectorized.icore(compiled, 0, tau, None, sign)
            outputs["icore", sign, tau] = (flag, compiled.nodes_from_mask(mask))
    for params in PARAM_GRID:
        mask = vectorized.mccore_new_mask(compiled, params)
        outputs["mccore", str(params)] = compiled.nodes_from_mask(mask)
    for method in ("none", "positive-core", "mcbasic", "mcnew"):
        mask = reduce_mask(compiled, AlphaK(2, 1), method=method)
        outputs["reduce", method] = compiled.nodes_from_mask(mask)
    return outputs


def _reference_outputs(graph):
    """The same node sets from the set-based references."""
    outputs = {}
    for sign in ("all", "positive", "negative"):
        for tau in (1, 2, 3):
            outputs["icore", sign, tau] = icore(graph, tau=tau, sign=sign)
    for params in PARAM_GRID:
        outputs["mccore", str(params)] = mccore_new(graph, params)
    for method in ("none", "positive-core", "mcbasic", "mcnew"):
        outputs["reduce", method] = reduce_graph(graph, AlphaK(2, 1), method=method)
    return outputs


# -- hypothesis: arbitrary small graphs, arbitrary (alpha, k) ----------------

graph_specs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from([0, 0, 1, 1, 1, -1]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ),
    )
)

param_specs = st.tuples(
    st.sampled_from([0, 1, 1.5, 2, 3]),
    st.integers(min_value=0, max_value=3),
)


def _build(spec) -> SignedGraph:
    n, signs = spec
    graph = SignedGraph(nodes=range(n))
    for (u, v), sign in zip(itertools.combinations(range(n), 2), signs):
        if sign:
            graph.add_edge(u, v, sign)
    return graph


@settings(max_examples=100, deadline=None)
@given(graph_specs, param_specs)
def test_hypothesis_fast_search_identical(spec, param_spec):
    graph = _build(spec)
    alpha, k = param_spec
    params = AlphaK(alpha, k)
    compiled = compile_graph(graph)
    default = MSCE(graph, params, audit=True).enumerate_all()
    fast = MSCE(compiled, params, audit=True).enumerate_all()
    truth = brute_force_constraint(graph, make_constraint("msce", params))
    assert [c.nodes for c in fast.cliques] == [c.nodes for c in truth]
    assert [c.nodes for c in default.cliques] == [c.nodes for c in truth]
    assert fast.stats.as_dict() == default.stats.as_dict()


@settings(max_examples=60, deadline=None)
@given(graph_specs, param_specs)
def test_hypothesis_mccore_identical(spec, param_spec):
    graph = _build(spec)
    alpha, k = param_spec
    params = AlphaK(alpha, k)
    compiled = compile_graph(graph)
    pure = mccore_new(graph, params)
    assert compiled.nodes_from_mask(vectorized.mccore_new_mask(compiled, params)) == pure
    assert compiled.nodes_from_mask(mccore_basic_mask(compiled, params)) == pure
    assert mccore_basic(graph, params) == pure


@settings(max_examples=60, deadline=None)
@given(graph_specs)
def test_hypothesis_core_numbers_identical(spec):
    # The tau-core is the set of nodes of core number >= tau.
    graph = _build(spec)
    compiled = compile_graph(graph)
    for sign in ("all", "positive", "negative"):
        numbers = core_numbers(graph, sign=sign)
        for tau in range(1, max(numbers.values(), default=0) + 2):
            expected = {node for node, core in numbers.items() if core >= tau}
            for kernel in (vectorized.icore, icore_fast):
                flag, mask = kernel(compiled, 0, tau, None, sign)
                assert flag == bool(expected)
                assert compiled.nodes_from_mask(mask) == expected
