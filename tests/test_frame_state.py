"""The bit-sliced frame state of the MSCE search.

Two layers are held to plain per-node integers here:

* the bit-sliced counter helpers of :mod:`repro.fastpath.bitset`
  (hypothesis properties, empty masks included);
* the state :class:`~repro.models.alpha_k.AlphaKMaskOps` threads
  through the frames: on the way into and out of every ``prune_bound``
  the positive-degree planes must equal a recount over ``R`` and the
  negative-budget levels a recount over ``I``
  (``tools/stress.py:checked_frame_state``). An incremental update that
  drifts fails this even when the answers happen to survive.
"""

import importlib.util
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK
from repro.core.cliques import SignedClique
from repro.core.query import signed_cliques_containing
from repro.fastpath.bitset import (
    bit_count,
    iter_bits,
    sliced_below,
    sliced_counts,
    sliced_decrement,
    sliced_min,
    sliced_total,
)
from repro.generators.datasets import load_dataset
from repro.models.alpha_k import AlphaKMaskOps
from tests.conftest import make_random_signed_graph

ROOT = Path(__file__).resolve().parent.parent


def _load_stress():
    spec = importlib.util.spec_from_file_location("stress", ROOT / "tools" / "stress.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


stress = _load_stress()


def encode(counts):
    """Plain bit-slicing of a list of counters (node ``v`` has ``counts[v]``)."""
    width = max(counts, default=0).bit_length()
    return [
        sum(1 << v for v, count in enumerate(counts) if (count >> b) & 1)
        for b in range(width)
    ]


def decode(planes, n):
    return [sum(((plane >> v) & 1) << b for b, plane in enumerate(planes)) for v in range(n)]


counts_st = st.lists(st.integers(min_value=0, max_value=40), max_size=24)


@st.composite
def counts_and_scope(draw):
    counts = draw(counts_st)
    scope = sum(1 << v for v in range(len(counts)) if draw(st.booleans()))
    return counts, scope


class TestSlicedHelpers:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=16), st.data())
    def test_counts_from_symmetric_rows(self, n, data):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if data.draw(st.booleans()):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        scope = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        planes = sliced_counts(rows, scope)
        expected = [bit_count(rows[v] & scope) if (scope >> v) & 1 else 0 for v in range(n)]
        assert decode(planes, n) == expected
        assert planes == encode(expected)

    @settings(max_examples=150, deadline=None)
    @given(counts_and_scope())
    def test_decrement(self, case):
        counts, scope = case
        mask = sum(1 << v for v in iter_bits(scope) if counts[v] > 0)
        planes = encode(counts)
        sliced_decrement(planes, mask)
        expected = [count - ((mask >> v) & 1) for v, count in enumerate(counts)]
        assert planes == encode(expected)

    @settings(max_examples=150, deadline=None)
    @given(counts_and_scope())
    def test_below_every_bound(self, case):
        counts, scope = case
        planes = encode(counts)
        for bound in range(max(counts, default=0) + 2):
            expected = sum(1 << v for v in iter_bits(scope) if counts[v] < bound)
            assert sliced_below(planes, scope, bound) == expected

    @settings(max_examples=150, deadline=None)
    @given(counts_and_scope())
    def test_min_set_and_total(self, case):
        counts, scope = case
        planes = encode(counts)
        members = list(iter_bits(scope))
        low = min((counts[v] for v in members), default=None)
        expected = sum(1 << v for v in members if counts[v] == low)
        assert sliced_min(planes, scope) == expected
        assert sliced_total(planes) == sum(counts)

    def test_empty_masks(self):
        assert sliced_counts([], 0) == []
        assert sliced_counts([0b10, 0b01], 0) == []
        assert sliced_below([], 0, 3) == 0
        assert sliced_below([0b1], 0b1, 0) == 0
        assert sliced_min([], 0) == 0
        assert sliced_min([0b11], 0) == 0
        assert sliced_total([]) == 0
        planes = [0b1]
        sliced_decrement(planes, 0)
        assert planes == [0b1]


@lru_cache(maxsize=None)
def _stand_in(name):
    return load_dataset(name).graph


def _fingerprint(result):
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


class TestFrameStateInvariant:
    @pytest.mark.parametrize("name, alpha, k", [("slashdot", 3, 3), ("pokec", 2, 2)])
    def test_stand_in(self, name, alpha, k):
        graph = _stand_in(name)
        params = AlphaK(alpha, k)
        with stress.checked_frame_state() as checked:
            result = MSCE(graph, params).enumerate_all()
        assert checked[0] > 1000
        assert _fingerprint(result) == _fingerprint(MSCE(graph, params).enumerate_all())

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"core_pruning": False},
            {"negative_pruning": False},
            {"clique_pruning": False},
            {"selection": "first"},
        ],
    )
    @pytest.mark.parametrize("alpha, k", [(0, 0), (0, 2), (2, 0), (1.5, 1), (3, 2)])
    def test_random_graphs(self, alpha, k, overrides):
        rng = random.Random(f"{alpha}-{k}")
        params = AlphaK(alpha, k)
        frames = 0
        for _ in range(8):
            graph = make_random_signed_graph(
                rng, n_range=(6, 12), edge_probability_range=(0.5, 0.95)
            )
            with stress.checked_frame_state() as checked:
                result = MSCE(graph, params, audit=True, **overrides).enumerate_all()
            frames += checked[0]
            for clique in result.cliques:
                recount = SignedClique.from_nodes(graph, clique.nodes, params)
                assert (clique.positive_edges, clique.negative_edges) == (
                    recount.positive_edges,
                    recount.negative_edges,
                )
        assert frames > 0

    def test_seeded_search_starts_with_members(self):
        # A seeded search's root frame has I != {}, so the budget state
        # is built from a non-empty included set.
        graph = _stand_in("slashdot")
        params = AlphaK(3, 3)
        cliques = MSCE(graph, params).enumerate_all().cliques
        seed = set(list(cliques[0].nodes)[:2])
        with stress.checked_frame_state() as checked:
            found = signed_cliques_containing(graph, seed, params.alpha, params.k)
        assert checked[0] > 0
        assert {c.nodes for c in found} == {c.nodes for c in cliques if seed <= c.nodes}


class TestDriftIsCaught:
    """The invariant check fails on an incremental update that drifts."""

    def _run(self):
        rng = random.Random(3)
        for _ in range(20):
            graph = make_random_signed_graph(
                rng, n_range=(8, 12), edge_probability_range=(0.6, 0.9)
            )
            MSCE(graph, AlphaK(1, 1)).enumerate_all()

    def test_stale_exclude_planes(self, monkeypatch):
        def exclude_degrees(self, branch, exclude_candidates, state):
            planes, budget = state
            if planes is not None:
                planes = [plane & exclude_candidates for plane in planes]
            return planes, budget

        monkeypatch.setattr(AlphaKMaskOps, "exclude_degrees", exclude_degrees)
        with stress.checked_frame_state(), pytest.raises(AssertionError, match="drifted"):
            self._run()

    def test_stale_blocked_mask(self, monkeypatch):
        def extend(self, budget_state, included, branch):
            levels, blocked = budget_state
            row = self.neg_masks[branch]
            levels = [levels[0] | row] + [
                level | (below & row) for below, level in zip(levels, levels[1:])
            ]
            return levels, blocked

        monkeypatch.setattr(AlphaKMaskOps, "_extend_budget", extend)
        with stress.checked_frame_state(), pytest.raises(AssertionError, match="blocked"):
            self._run()

    def test_drift_in_a_scheduled_component_raises(self, monkeypatch):
        """A violation inside a component the scheduler runs as a task
        (slashdot (4.3,3) reduces to one 59-node component, above the
        32-node local sweep and below root decomposition) raises out of
        the plain run; it is never quarantined into a partial answer."""

        def exclude_degrees(self, branch, exclude_candidates, state):
            planes, budget = state
            if planes is not None:
                planes = [plane & exclude_candidates for plane in planes]
            return planes, budget

        monkeypatch.setattr(AlphaKMaskOps, "exclude_degrees", exclude_degrees)
        graph = load_dataset("slashdot").graph
        with stress.checked_frame_state(), pytest.raises(AssertionError, match="drifted"):
            MSCE(graph, AlphaK(4.3, 3)).enumerate_all()
