"""Shared helpers for the benchmark suite.

Each benchmark file regenerates one exhibit of the paper (see DESIGN.md
section 4), asserts its *shape* claims (who wins, monotone trends), and
records the rendered rows under ``benchmarks/results/`` so EXPERIMENTS.md
can cite exact numbers.

Knobs (environment):

* ``REPRO_BENCH_FULL=1`` — the paper's full alpha/k/r grids instead of
  the fast 3-point grids;
* ``REPRO_BENCH_TIME_LIMIT`` — per-enumeration cap in seconds
  (default 15).
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Iterable, Optional, Union

import repro
from repro.experiments.harness import Exhibit

RESULTS_DIR = Path(__file__).parent / "results"

#: Schema revision of the ``BENCH_<name>.json`` artifacts; bump on shape
#: changes so downstream dashboards can dispatch on it.
#: v2: adds the resolved kernel ``backend`` and an optional
#: benchmark-specific ``extra`` block.
#: v3: drops ``backend``: the vectorized kernels are the only tier.
BENCH_JSON_SCHEMA = 3


def _exhibit_payload(exhibit: Exhibit) -> dict:
    """One exhibit as plain JSON-serialisable data (mirrors the text table)."""
    return {
        "title": exhibit.title,
        "notes": list(exhibit.notes),
        "series": [
            {"label": series.label, "x": list(series.x), "y": list(series.y)}
            for series in exhibit.series
        ],
    }


def record_exhibits(
    name: str,
    exhibits: Union[Exhibit, Iterable[Exhibit]],
    extra: Optional[dict] = None,
) -> str:
    """Render exhibits to text + JSON, save under results/, return the text.

    Two artifacts per benchmark: ``<name>.txt`` (the human-readable table
    EXPERIMENTS.md cites) and ``BENCH_<name>.json`` (the same rows as
    machine-readable data, uploaded by CI for trend tracking). The JSON
    payload merges ``extra`` (e.g. per-kernel speedup maps) under an
    ``"extra"`` key.
    """
    if isinstance(exhibits, Exhibit):
        exhibits = [exhibits]
    exhibits = list(exhibits)
    text = "\n\n".join(exhibit.render() for exhibit in exhibits)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "name": name,
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "exhibits": [_exhibit_payload(exhibit) for exhibit in exhibits],
    }
    if extra:
        payload["extra"] = dict(extra)
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\n{text}\n")
    return text
