"""The signed-constraint framework and the balanced-clique model.

Pins the tentpole contracts of ``repro.models``:

* **resolution** — ``resolve_model`` precedence (explicit > env >
  default), unknown names raise;
* **oracle parity** — balanced enumeration matches the model-generic
  brute-force oracle (:func:`repro.core.naive.brute_force_constraint`)
  on hundreds of generated graphs, for ``SignedGraph`` *and*
  ``CompiledGraph`` input, with auditing on;
* **bit-identity** — balanced cliques and ``SearchStats`` are identical
  across worker counts {1, 2, 4}, like MSCE;
* **cache isolation** — the serve cache keys carry the model, so a
  balanced answer is never served for an MSCE request (or vice versa)
  across the memory and disk tiers;
* **end-to-end reach** — the CLI ``--model`` flag and the ``repro.net``
  ``model=`` request parameter run the balanced model through the same
  engines and return its exact answers.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK
from repro.core.naive import brute_force_constraint, brute_force_maximal
from repro.core.parallel import enumerate_parallel
from repro.exceptions import ParameterError
from repro.fastpath.compiled import compile_graph
from repro.generators import gnp_signed
from repro.graphs import SignedGraph
from repro.io.cache import entry_key
from repro.models import (
    MODEL_ENV,
    AlphaKConstraint,
    BalancedConstraint,
    available_models,
    balanced_sides,
    get_model,
    is_balanced_clique,
    make_constraint,
    resolve_model,
)
from repro.serve import SignedCliqueEngine
from tests.conftest import PAPER_EDGES, make_random_signed_graph


def _nodes(result) -> list:
    cliques = result.cliques if hasattr(result, "cliques") else result
    return [clique.nodes for clique in cliques]


# ---------------------------------------------------------------------------
# Model resolution
# ---------------------------------------------------------------------------
class TestResolveModel:
    def test_registry_contents(self):
        assert set(available_models()) >= {"msce", "balanced"}
        assert get_model("msce") is AlphaKConstraint
        assert get_model("balanced") is BalancedConstraint

    def test_default_is_msce(self, monkeypatch):
        monkeypatch.delenv(MODEL_ENV, raising=False)
        assert resolve_model() == "msce"
        assert MSCE(SignedGraph([(1, 2, "+")]), AlphaK(1, 0)).model == "msce"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(MODEL_ENV, "balanced")
        assert resolve_model() == "balanced"
        assert MSCE(SignedGraph([(1, 2, "+")]), AlphaK(1, 0)).model == "balanced"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(MODEL_ENV, "balanced")
        assert resolve_model("msce") == "msce"

    def test_unknown_model_raises(self, monkeypatch):
        with pytest.raises(ParameterError):
            resolve_model("frustration")
        monkeypatch.setenv(MODEL_ENV, "bogus")
        with pytest.raises(ParameterError):
            resolve_model()

    def test_make_constraint_carries_params(self):
        constraint = make_constraint("balanced", AlphaK(2.0, 3))
        assert isinstance(constraint, BalancedConstraint)
        assert constraint.tau == 3


# ---------------------------------------------------------------------------
# Balanced-clique primitives
# ---------------------------------------------------------------------------
class TestBalancedPrimitives:
    #: Two camps {1, 2} / {3, 4}: positive inside, negative across.
    TWO_CAMPS = SignedGraph(
        [
            (1, 2, "+"), (3, 4, "+"),
            (1, 3, "-"), (1, 4, "-"), (2, 3, "-"), (2, 4, "-"),
        ]
    )

    def test_two_camp_clique_is_balanced(self):
        sides = balanced_sides(self.TWO_CAMPS, {1, 2, 3, 4})
        assert sides is not None
        assert {frozenset(sides[0]), frozenset(sides[1])} == {
            frozenset({1, 2}),
            frozenset({3, 4}),
        }
        assert is_balanced_clique(self.TWO_CAMPS, {1, 2, 3, 4}, tau=2)
        assert not is_balanced_clique(self.TWO_CAMPS, {1, 2, 3, 4}, tau=3)

    def test_all_positive_clique_is_one_sided(self):
        graph = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
        sides = balanced_sides(graph, {1, 2, 3})
        assert sides == ({1, 2, 3}, set())
        assert is_balanced_clique(graph, {1, 2, 3}, tau=0)
        assert not is_balanced_clique(graph, {1, 2, 3}, tau=1)

    def test_intra_side_negative_is_unbalanced(self):
        # The paper's 5-clique has one internal negative edge (2, 3) and
        # all other pairs positive: signs to any anchor put 2 and 3 on
        # one side, so the clique cannot be two-sided.
        graph = SignedGraph(PAPER_EDGES)
        assert balanced_sides(graph, {1, 2, 3, 4, 5}) is None

    def test_non_clique_is_not_balanced(self):
        graph = SignedGraph([(1, 2, "+"), (2, 3, "+")])
        assert balanced_sides(graph, {1, 2, 3}) is None


# ---------------------------------------------------------------------------
# The generic brute-force oracle
# ---------------------------------------------------------------------------
class TestBruteForceConstraint:
    def test_msce_constraint_matches_dedicated_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            graph = make_random_signed_graph(rng, n_range=(3, 9))
            alpha = rng.choice([1, 1.5, 2, 3])
            k = rng.randint(0, 3)
            params = AlphaK(alpha, k)
            generic = brute_force_constraint(graph, make_constraint("msce", params))
            dedicated = brute_force_maximal(graph, params)
            assert _nodes(generic) == _nodes(dedicated)

    def test_node_limit_guard(self):
        graph = SignedGraph(nodes=range(25))
        with pytest.raises(ParameterError):
            brute_force_constraint(graph, make_constraint("msce", AlphaK(1, 0)))


# ---------------------------------------------------------------------------
# Balanced enumeration vs. the oracle (the >= 200 graph sweep)
# ---------------------------------------------------------------------------
class TestBalancedOracleParity:
    def test_two_hundred_random_graphs(self):
        rng = random.Random(20260807)
        for index in range(200):
            graph = make_random_signed_graph(rng, n_range=(3, 9))
            tau = rng.randint(0, 2)
            params = AlphaK(1.0, tau)
            expected = _nodes(
                brute_force_constraint(graph, make_constraint("balanced", params))
            )
            default = MSCE(graph, params, model="balanced", audit=True).enumerate_all()
            fast = MSCE(
                compile_graph(graph), params, model="balanced", audit=True
            ).enumerate_all()
            assert _nodes(default) == expected, f"search diverged on graph {index}"
            assert _nodes(fast) == expected, f"compiled input diverged on graph {index}"
            assert default.stats.as_dict() == fast.stats.as_dict(), index
            assert default.stats.model == "balanced"
            for clique in default.cliques:
                assert is_balanced_clique(graph, clique.nodes, tau)

    def test_two_camp_graph_end_to_end(self):
        graph = TestBalancedPrimitives.TWO_CAMPS
        result = MSCE(graph, AlphaK(1.0, 2), model="balanced", audit=True).enumerate_all()
        assert _nodes(result) == [frozenset({1, 2, 3, 4})]

    def test_tau_gate_filters_one_sided_cliques(self):
        graph = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
        everything = MSCE(graph, AlphaK(1.0, 0), model="balanced").enumerate_all()
        assert _nodes(everything) == [frozenset({1, 2, 3})]
        gated = MSCE(graph, AlphaK(1.0, 1), model="balanced").enumerate_all()
        assert _nodes(gated) == []


# ---------------------------------------------------------------------------
# Bit-identity across workers
# ---------------------------------------------------------------------------
class TestBalancedParallel:
    @pytest.fixture(scope="class")
    def medium(self):
        graph = gnp_signed(36, 0.35, negative_fraction=0.35, seed=5)
        params = AlphaK(1.0, 1)
        baseline = MSCE(
            compile_graph(graph), params, model="balanced"
        ).enumerate_all()
        assert baseline.cliques  # the sweep must compare something real
        return graph, params, baseline

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_bit_identical(self, medium, workers):
        graph, params, baseline = medium
        result = enumerate_parallel(
            graph, params.alpha, params.k, workers=workers, model="balanced"
        )
        assert _nodes(result) == _nodes(baseline)
        assert result.stats.as_dict() == baseline.stats.as_dict()
        assert result.stats.model == "balanced"
        assert result.parallel["model"] == "balanced"

    def test_env_model_reaches_the_scheduler(self, monkeypatch, medium):
        graph, params, baseline = medium
        monkeypatch.setenv(MODEL_ENV, "balanced")
        result = enumerate_parallel(graph, params.alpha, params.k, workers=2)
        assert _nodes(result) == _nodes(baseline)
        assert result.stats.as_dict() == baseline.stats.as_dict()


# ---------------------------------------------------------------------------
# Serve-cache isolation between models
# ---------------------------------------------------------------------------
class TestServeModelIsolation:
    PARAMS = AlphaK(3.0, 1)

    def _direct(self, graph, model):
        return MSCE(graph, self.PARAMS, model=model).enumerate_all()

    def test_entry_key_carries_the_model(self):
        fingerprint = "f" * 64
        msce_key = entry_key(fingerprint, self.PARAMS, "all")
        balanced_key = entry_key(fingerprint, self.PARAMS, "all", model="balanced")
        assert msce_key != balanced_key
        assert "-mmsce-" in msce_key
        assert "-mbalanced-" in balanced_key

    def test_balanced_answer_never_served_for_msce(self, tmp_path):
        """Regression: with a shared (graph, alpha, k), the model keyed
        first must not satisfy the other model's request in any tier."""
        graph = SignedGraph(PAPER_EDGES)
        direct_balanced = self._direct(graph, "balanced")
        direct_msce = self._direct(graph, "msce")
        # The paper graph separates the models: its 5-clique has an
        # intra-side negative edge, so the answers differ.
        assert _nodes(direct_balanced) != _nodes(direct_msce)

        engine = SignedCliqueEngine(graph, cache_dir=tmp_path)
        balanced = engine.enumerate_with_stats(
            self.PARAMS.alpha, self.PARAMS.k, model="balanced"
        )
        msce = engine.enumerate_with_stats(self.PARAMS.alpha, self.PARAMS.k)
        assert engine.counters["computes"] == 2  # no cross-model cache hit
        assert _nodes(balanced) == _nodes(direct_balanced)
        assert balanced.stats.as_dict() == direct_balanced.stats.as_dict()
        assert _nodes(msce) == _nodes(direct_msce)
        assert msce.stats.as_dict() == direct_msce.stats.as_dict()

        # Memory tier: each model replays its own entry.
        again_balanced = engine.enumerate_with_stats(
            self.PARAMS.alpha, self.PARAMS.k, model="balanced"
        )
        again_msce = engine.enumerate_with_stats(self.PARAMS.alpha, self.PARAMS.k)
        assert engine.counters["computes"] == 2
        assert engine.counters["memory_hits"] == 2
        assert _nodes(again_balanced) == _nodes(direct_balanced)
        assert _nodes(again_msce) == _nodes(direct_msce)

        # Disk tier: a restarted engine hits both entries, still apart.
        warm = SignedCliqueEngine(graph, cache_dir=tmp_path)
        warm_balanced = warm.enumerate_with_stats(
            self.PARAMS.alpha, self.PARAMS.k, model="balanced"
        )
        warm_msce = warm.enumerate_with_stats(self.PARAMS.alpha, self.PARAMS.k)
        assert warm.counters["computes"] == 0
        assert warm.counters["disk_hits"] == 2
        assert _nodes(warm_balanced) == _nodes(direct_balanced)
        assert warm_balanced.stats.as_dict() == direct_balanced.stats.as_dict()
        assert _nodes(warm_msce) == _nodes(direct_msce)

    def test_engine_default_model(self, tmp_path):
        graph = SignedGraph(PAPER_EDGES)
        engine = SignedCliqueEngine(graph, cache_dir=tmp_path, model="balanced")
        assert _nodes(engine.enumerate(self.PARAMS.alpha, self.PARAMS.k)) == _nodes(
            self._direct(graph, "balanced")
        )
        assert engine.cache_info()["model"] == "balanced"
        with pytest.raises(ParameterError):
            engine.query_with_stats([1], self.PARAMS.alpha, self.PARAMS.k)

    def test_top_r_and_grid_accept_model(self, tmp_path):
        graph = SignedGraph(PAPER_EDGES)
        engine = SignedCliqueEngine(graph, cache_dir=tmp_path)
        direct = self._direct(graph, "balanced")
        grid = engine.run_grid(
            [self.PARAMS.alpha], [self.PARAMS.k], model="balanced"
        )
        assert grid.report["model"] == "balanced"
        assert _nodes(grid[(self.PARAMS.alpha, self.PARAMS.k)]) == _nodes(direct)
        top = engine.top_r(self.PARAMS.alpha, self.PARAMS.k, 2, model="balanced")
        assert _nodes(top) == _nodes(direct)[:2]


# ---------------------------------------------------------------------------
# CLI and HTTP reach
# ---------------------------------------------------------------------------
class TestModelEndToEnd:
    def test_cli_enumerate_balanced(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import write_signed_edgelist

        path = tmp_path / "paper.txt"
        write_signed_edgelist(SignedGraph(PAPER_EDGES), path)
        assert (
            main(
                [
                    "enumerate",
                    str(path),
                    "--alpha",
                    "3",
                    "-k",
                    "1",
                    "--model",
                    "balanced",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        direct = MSCE(
            SignedGraph(PAPER_EDGES), AlphaK(3.0, 1), model="balanced"
        ).enumerate_all()
        assert [frozenset(entry["nodes"]) for entry in payload] == _nodes(direct)

    def test_cli_enumerate_balanced_parallel(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import write_signed_edgelist

        path = tmp_path / "paper.txt"
        write_signed_edgelist(SignedGraph(PAPER_EDGES), path)
        assert (
            main(
                [
                    "enumerate",
                    str(path),
                    "--alpha",
                    "3",
                    "-k",
                    "1",
                    "--model",
                    "balanced",
                    "--workers",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        direct = MSCE(
            SignedGraph(PAPER_EDGES), AlphaK(3.0, 1), model="balanced"
        ).enumerate_all()
        assert [frozenset(entry["nodes"]) for entry in payload] == _nodes(direct)

    def test_http_cliques_route_model_parameter(self):
        from repro.net import ServerConfig
        from repro.testing.chaos import ServerHarness

        graph = SignedGraph(PAPER_EDGES)
        direct_balanced = MSCE(graph, AlphaK(3.0, 1), model="balanced").enumerate_all()
        direct_msce = MSCE(graph, AlphaK(3.0, 1)).enumerate_all()
        with ServerHarness({"g": graph}, config=ServerConfig(port=0)) as h:
            balanced = h.get("/v1/graphs/g/cliques?alpha=3&k=1&model=balanced")
            assert balanced.status == 200
            payload = balanced.json()
            assert payload["params"]["model"] == "balanced"
            assert sorted(frozenset(c["nodes"]) for c in payload["cliques"]) == sorted(
                _nodes(direct_balanced)
            )

            msce = h.get("/v1/graphs/g/cliques?alpha=3&k=1").json()
            assert msce["params"]["model"] == "msce"
            assert sorted(frozenset(c["nodes"]) for c in msce["cliques"]) == sorted(
                _nodes(direct_msce)
            )

            bad = h.get("/v1/graphs/g/cliques?alpha=3&k=1&model=bogus")
            assert bad.status == 400
            assert bad.json()["error"]["code"] == "bad_params"

            top = h.get(
                "/v1/graphs/g/cliques?alpha=3&k=1&mode=top&r=2&model=balanced"
            ).json()
            assert top["params"]["model"] == "balanced"
            assert sorted(frozenset(c["nodes"]) for c in top["cliques"]) == sorted(
                _nodes(direct_balanced)[:2]
            )


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------
graph_specs = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from([0, 0, 1, 1, -1, -1]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ),
    )
)

tau_specs = st.integers(min_value=0, max_value=2)


def _build(spec) -> SignedGraph:
    n, signs = spec
    graph = SignedGraph(nodes=range(n))
    for (u, v), sign in zip(itertools.combinations(range(n), 2), signs):
        if sign:
            graph.add_edge(u, v, sign)
    return graph


@settings(max_examples=80, deadline=None)
@given(graph_specs, tau_specs)
def test_hypothesis_balanced_matches_oracle(spec, tau):
    graph = _build(spec)
    params = AlphaK(1.0, tau)
    constraint = make_constraint("balanced", params)
    expected = _nodes(brute_force_constraint(graph, constraint))
    default = MSCE(graph, params, model="balanced", audit=True).enumerate_all()
    fast = MSCE(
        compile_graph(graph), params, model="balanced", audit=True
    ).enumerate_all()
    assert _nodes(default) == expected
    assert _nodes(fast) == expected
    assert default.stats.as_dict() == fast.stats.as_dict()


@settings(max_examples=60, deadline=None)
@given(graph_specs, tau_specs)
def test_hypothesis_reported_cliques_are_balanced_and_maximal(spec, tau):
    graph = _build(spec)
    params = AlphaK(1.0, tau)
    constraint = make_constraint("balanced", params)
    maxtest = constraint.make_maxtest("exact")
    result = MSCE(graph, params, model="balanced").enumerate_all()
    seen = set()
    for clique in result.cliques:
        assert clique.nodes not in seen  # no duplicates
        seen.add(clique.nodes)
        assert is_balanced_clique(graph, clique.nodes, tau)
        assert maxtest(graph, clique.nodes, params)


@settings(max_examples=40, deadline=None)
@given(spec=graph_specs, tau=tau_specs)
def test_hypothesis_serve_cache_round_trips_balanced(tmp_path_factory, spec, tau):
    graph = _build(spec)
    tmp = tmp_path_factory.mktemp("models-cache")
    engine = SignedCliqueEngine(graph, cache_dir=tmp)
    cold = engine.enumerate_with_stats(1.0, tau, model="balanced")
    warm = engine.enumerate_with_stats(1.0, tau, model="balanced")
    assert _nodes(warm) == _nodes(cold)
    assert warm.stats.as_dict() == cold.stats.as_dict()
    restarted = SignedCliqueEngine(graph, cache_dir=tmp)
    disk = restarted.enumerate_with_stats(1.0, tau, model="balanced")
    assert restarted.counters["computes"] == 0
    assert _nodes(disk) == _nodes(cold)
    assert disk.stats.as_dict() == cold.stats.as_dict()
