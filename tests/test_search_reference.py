"""The search held to a frozen reference on the Table-I stand-ins.

``tests/golden/search_reference.json`` records, for every point of the
end-to-end benchmark (``benchmarks/e2e/expected/digests.json``) and for
two extra branch-selection / maxtest settings, the clique digest and the
full :class:`~repro.core.bbe.SearchStats` of ``enumerate_all`` and of
``top_r(10)``. It was frozen while a second, pure-Python search still
existed, and both searches agreed on every entry. Stats equality pins
the whole search tree, not only the answer.

The file has no regeneration switch. It changes only when a change to
the search is meant to change the tree, and then with a note saying why.
The digest is the end-to-end benchmark's: a hash of the sorted
``(sorted nodes, +edges, -edges)`` rows, which depends on the clique
set only, not on the order a run emits it in.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import MSCE, AlphaK
from repro.core.parallel import enumerate_parallel
from repro.generators.datasets import load_dataset

REFERENCE_PATH = Path(__file__).parent / "golden" / "search_reference.json"
REFERENCE = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
TOP_R = REFERENCE["top_r"]
RUNS = REFERENCE["runs"]


def _run_id(run):
    label = f"{run['dataset']}-{run['alpha']:g}-{run['k']}"
    options = run["options"]
    if options:
        label += "-" + options["selection"] + "-" + options["maxtest"]
    return label


@lru_cache(maxsize=None)
def _stand_in(name):
    return load_dataset(name).graph


def digest(cliques):
    """The relabel-invariant clique digest the reference file stores."""
    rows = sorted(
        (tuple(sorted(c.nodes)), c.positive_edges, c.negative_edges) for c in cliques
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def summary(result, with_stats=True):
    """A result in the reference file's shape."""
    entry = {"cliques": len(result.cliques), "digest": digest(result.cliques)}
    if with_stats:
        entry["stats"] = result.stats.as_dict()
    return entry


def _without_stats(entry):
    return {key: value for key, value in entry.items() if key != "stats"}


@pytest.mark.parametrize("run", RUNS, ids=_run_id)
def test_default_msce_matches_reference(run):
    graph = _stand_in(run["dataset"])
    params = AlphaK(run["alpha"], run["k"])
    searcher = MSCE(graph, params, **run["options"])
    assert summary(searcher.enumerate_all()) == run["enumerate_all"]
    searcher = MSCE(graph, params, **run["options"])
    assert summary(searcher.top_r(TOP_R)) == run["top_r"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run", RUNS, ids=_run_id)
def test_parallel_matches_reference(run, workers):
    """Full enumeration matches in cliques and stats at any worker count.

    Under top-r each task prunes against the sizes it has seen, so how
    the frames are spread changes the cutoff counters; the answer is
    held to the reference, the counters are not.
    """
    graph = _stand_in(run["dataset"])
    options = run["options"]
    result = enumerate_parallel(graph, run["alpha"], run["k"], workers=workers, **options)
    assert summary(result) == run["enumerate_all"]
    ranked = enumerate_parallel(
        graph, run["alpha"], run["k"], workers=workers, top_r=TOP_R, **options
    )
    assert summary(ranked, with_stats=False) == _without_stats(run["top_r"])
