"""Backend resolver semantics and per-tier end-to-end oracles.

The kernel-tier resolver (:mod:`repro.fastpath.backend`) is the single
funnel every entry point goes through, so its precedence rules
(kwarg > ``REPRO_BACKEND`` env > default) and its silent degradation
ladder (vectorized -> python) are pinned here. The oracle
classes then re-run the existing parallel and serve differential
contracts under every tier: same cliques, same ``SearchStats``,
regardless of which backend — or how many workers — produced them.
"""

import random

import pytest

from repro.core import AlphaK, MSCE, enumerate_parallel
from repro.exceptions import ParameterError
from repro.fastpath import backend as backend_mod
from repro.fastpath import compile_graph
from repro.fastpath.backend import (
    BACKENDS,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.generators import gnp_signed
from repro.graphs import SignedGraph
from repro.serve import SignedCliqueEngine
from tests.conftest import make_random_signed_graph


class TestResolver:
    def test_backend_names_are_the_ladder(self):
        assert BACKENDS == ("python", "vectorized")

    def test_default_prefers_vectorized_with_numpy(self):
        expected = "vectorized" if backend_mod.HAS_NUMPY else "python"
        assert default_backend() == expected
        assert resolve_backend(None) in BACKENDS

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert resolve_backend(None) == "python"

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        expected = "vectorized" if backend_mod.HAS_NUMPY else "python"
        assert resolve_backend("vectorized") == expected

    def test_unknown_kwarg_raises(self):
        with pytest.raises(ParameterError):
            resolve_backend("cuda")

    def test_unknown_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ParameterError):
            resolve_backend(None)

    def test_retired_native_name_is_unknown(self, monkeypatch):
        with pytest.raises(ParameterError, match="unknown kernel backend"):
            resolve_backend("native")
        monkeypatch.setenv("REPRO_BACKEND", "native")
        with pytest.raises(ParameterError, match="unknown kernel backend"):
            resolve_backend(None)

    def test_everything_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        assert default_backend() == "python"
        assert resolve_backend("vectorized") == "python"
        assert available_backends() == ("python",)

    def test_available_backends_ladder(self):
        tiers = available_backends()
        assert tiers[0] == "python"
        assert set(tiers) <= set(BACKENDS)
        # Requesting any *named* tier always resolves to an available one.
        for name in BACKENDS:
            assert resolve_backend(name) in tiers


def _multi_component_graph(seed: int, components: int = 3) -> SignedGraph:
    """Disjoint random blobs — enough parallel structure to fan out."""
    rng = random.Random(seed)
    graph = SignedGraph()
    offset = 0
    for _ in range(components):
        blob = make_random_signed_graph(
            rng, n_range=(25, 35), edge_probability_range=(0.3, 0.5)
        )
        for u, v, sign in blob.edges():
            graph.add_edge(u + offset, v + offset, sign)
        offset += 100
    return graph


def _fingerprint(result):
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


class TestParallelBackendOracle:
    """enumerate_parallel under every tier x workers in {1, 4}."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_python_sequential_oracle(self, backend, workers):
        graph = _multi_component_graph(seed=23)
        oracle = MSCE(graph, AlphaK(2, 1), backend="python").enumerate_all()
        result = enumerate_parallel(graph, 2, 1, workers=workers, backend=backend)
        assert _fingerprint(result) == _fingerprint(oracle)
        assert result.parallel["backend"] == resolve_backend(backend)
        assert result.stats.backend == resolve_backend(backend)

    def test_env_var_reaches_parallel_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        graph = _multi_component_graph(seed=23)
        result = enumerate_parallel(graph, 2, 1, workers=2)
        assert result.parallel["backend"] == "python"


class TestServeBackendOracle:
    """The serving engine must answer identically under every tier."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_matches_python_oracle(self, backend):
        graph = gnp_signed(36, 0.3, negative_fraction=0.25, seed=11)
        oracle = SignedCliqueEngine(graph, backend="python")
        engine = SignedCliqueEngine(graph, backend=backend)
        assert engine.cache_info()["backend"] == resolve_backend(backend)
        for alpha, k in ((2.0, 1), (2.0, 2), (3.0, 2)):
            want = oracle.enumerate_with_stats(alpha, k)
            got = engine.enumerate_with_stats(alpha, k)
            assert got.cliques == want.cliques, backend
            assert got.stats == want.stats, backend
        top_want = oracle.top_r_with_stats(2.0, 1, 3)
        top_got = engine.top_r_with_stats(2.0, 1, 3)
        assert top_got.cliques == top_want.cliques

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grid_report_stamps_backend(self, backend):
        graph = gnp_signed(30, 0.3, negative_fraction=0.25, seed=7)
        engine = SignedCliqueEngine(graph, backend=backend)
        grid = engine.run_grid([2.0, 3.0], [1], workers=2)
        assert grid.report["backend"] == resolve_backend(backend)
        oracle = SignedCliqueEngine(graph, backend="python")
        for params, result in grid.items():
            reference = oracle.enumerate_with_stats(params.alpha, params.k)
            assert result.cliques == reference.cliques
            assert result.stats == reference.stats
