"""Storage artifacts: cold-start cost per transport.

One exhibit behind ``BENCH_oocore.json``: the wall-clock cost of
materialising a usable ``CompiledGraph`` in a fresh process stand-in,
per transport: mmap attach of a storage artifact, and the pickle
round-trip a process without the artifact would pay. The mmap attach
skips both the array copies and the ``__setstate__`` sign-splitting
pass, and the gate asserts it beats pickle by at least 2x.
"""

import pickle
import time

from benchmarks.conftest import record_exhibits
from repro.experiments.harness import Exhibit, Series
from repro.fastpath import storage
from repro.fastpath.compiled import CompiledGraph, compile_graph
from repro.generators import gnp_signed

COLD_START_REPEATS = 5


def _best_of(fn, repeats: int = COLD_START_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def oocore_cold_start(tmp_dir) -> Exhibit:
    graph = gnp_signed(3000, 0.004, negative_fraction=0.25, seed=9)
    compiled = compile_graph(graph)
    path = str(tmp_dir / "cold.graph")
    compiled.save(path, packed="none")
    blob = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)

    def via_mmap():
        attached = CompiledGraph.mmap(path)
        storage.release_views(attached)
        attached._storage.close()

    def via_pickle():
        pickle.loads(blob)

    timings = {
        "mmap attach": _best_of(via_mmap),
        "pickle round-trip": _best_of(via_pickle),
    }
    series = Series("cold-start seconds")
    for label, seconds in timings.items():
        series.add(label, round(seconds, 6))
    exhibit = Exhibit(
        title=f"Worker cold start, n={compiled.n} m={len(compiled.adj) // 2}",
        series=[series],
    )
    exhibit.notes.append(
        "best of %d: time to a usable CompiledGraph in a fresh attach"
        % COLD_START_REPEATS
    )
    return exhibit


def test_oocore_cold_start(benchmark, tmp_path):
    cold = benchmark.pedantic(oocore_cold_start, args=(tmp_path,), rounds=1, iterations=1)
    record_exhibits("oocore", [cold])

    timings = dict(zip(*(cold.series[0].x, cold.series[0].y)))
    # Acceptance gate: mmap cold start beats the pickle round-trip >= 2x.
    assert timings["mmap attach"] * 2 <= timings["pickle round-trip"], timings
