"""Exporters: nested-JSON trace dumps and Prometheus text exposition.

Two wire formats cover the two consumption modes of a run's telemetry:

* :func:`trace_to_dict` / :func:`write_trace_json` — the span tree with
  per-phase wall time and counter deltas as nested JSON, for humans and
  for the perf-trajectory tooling (`BENCH_*.json` artifacts);
* :func:`prometheus_text` — the metrics registry in the Prometheus text
  exposition format (version 0.0.4), for scraping a long-lived service.

:func:`trace_shape` reduces a trace dump to its *shape* — span names,
nesting, and the sorted key sets of every object — which is what the CI
golden-file check pins: timings drift every run, the schema must not.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def trace_to_dict(tracer: Tracer) -> Dict[str, object]:
    """The tracer's span tree as a JSON-ready nested dict."""
    return tracer.to_dict()


def write_trace_json(tracer: Tracer, path) -> None:
    """Dump the trace to *path* as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_to_dict(tracer), handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def _metric_name(name: str) -> str:
    """Sanitise *name* into a legal Prometheus metric name."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _label_block(labels: Optional[Dict[str, str]]) -> str:
    """Render *labels* as a ``{key="value",...}`` block ('' when empty)."""
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = str(labels[key]).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{_metric_name(key)}="{value}"')
    return "{" + ",".join(parts) + "}"


def split_inline_labels(name: str) -> "tuple[str, Dict[str, str]]":
    """Split an instrument name carrying inline labels.

    The registry keys instruments by a flat string; multi-series metrics
    (one counter per tenant, say) encode their labels *into* the name as
    ``base|key=value[,key=value...]`` — e.g.
    ``serve_lru_hits|tenant=acme``. The exporter peels the labels back
    off so Prometheus sees one ``repro_serve_lru_hits_total`` family
    with a proper ``tenant`` label instead of a metric name per tenant.
    Names without a ``|`` (or with a malformed label part) pass through
    unchanged — the registry itself never interprets the convention, so
    merge/snapshot semantics are untouched.
    """
    if "|" not in name:
        return name, {}
    base, _, raw = name.partition("|")
    labels: Dict[str, str] = {}
    for part in raw.split(","):
        key, sep, value = part.partition("=")
        if not sep or not key:
            return name, {}  # malformed: treat the whole name as literal
        labels[key] = value
    return base, labels


def prometheus_text(
    registry: MetricsRegistry,
    namespace: str = "repro",
    labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render *registry* in the Prometheus text exposition format.

    Counters get a ``_total`` suffix, histograms the standard
    ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le``
    labels ending in ``+Inf``. Instruments are emitted in sorted name
    order so the export is deterministic. ``labels`` attaches constant
    labels to every sample — the CLI uses it to stamp the run's
    ``model`` on the export.

    Counter and gauge names may carry inline labels
    (:func:`split_inline_labels`): every ``base|key=value`` series of
    one base is emitted as a sample of the *same* metric family with
    the inline labels merged over the constant ones, under a single
    ``# TYPE`` line — this is how the per-tenant LRU counters of
    :mod:`repro.serve.lru` reach Prometheus as one ``serve_lru_hits``
    family with a ``tenant`` label.
    """
    prefix = _metric_name(namespace) + "_" if namespace else ""
    tags = _label_block(labels)
    lines: List[str] = []

    def grouped(names):
        families: Dict[str, List] = {}
        for name in names:
            base, inline = split_inline_labels(name)
            merged = dict(labels or {})
            merged.update(inline)
            families.setdefault(base, []).append((_label_block(merged), name))
        return families

    counter_families = grouped(registry.counters)
    for base in sorted(counter_families):
        metric = f"{prefix}{_metric_name(base)}_total"
        lines.append(f"# TYPE {metric} counter")
        for block, name in sorted(counter_families[base]):
            lines.append(f"{metric}{block} {registry.counters[name].value}")
    gauge_families = grouped(registry.gauges)
    for base in sorted(gauge_families):
        metric = f"{prefix}{_metric_name(base)}"
        lines.append(f"# TYPE {metric} gauge")
        for block, name in sorted(gauge_families[base]):
            lines.append(f"{metric}{block} {registry.gauges[name].value}")
    for name in sorted(registry.histograms):
        histogram = registry.histograms[name]
        metric = f"{prefix}{_metric_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        extra = ("," + tags[1:-1]) if tags else ""
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound:g}"{extra}}} {cumulative}')
        cumulative += histogram.counts[-1]
        lines.append(f'{metric}_bucket{{le="+Inf"{extra}}} {cumulative}')
        lines.append(f"{metric}_sum{tags} {histogram.total:g}")
        lines.append(f"{metric}_count{tags} {histogram.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    registry: MetricsRegistry,
    path,
    namespace: str = "repro",
    labels: Optional[Dict[str, str]] = None,
) -> None:
    """Write :func:`prometheus_text` output to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry, namespace=namespace, labels=labels))


_Shape = Union[str, List, Dict[str, object]]


def trace_shape(payload) -> _Shape:
    """Reduce a trace dump to its schema shape for golden-file checks.

    Scalars collapse to their type name; dicts keep their (sorted) keys
    with shaped values — except ``counters`` and ``attrs`` payloads,
    which collapse to their sorted key list (values are run-dependent);
    span lists keep per-element shapes so names and nesting are pinned.
    Every ``name`` value is preserved verbatim: a renamed or reparented
    phase is schema drift, not noise.
    """
    if isinstance(payload, dict):
        shaped: Dict[str, object] = {}
        for key in sorted(payload):
            value = payload[key]
            if key in ("counters", "attrs") and isinstance(value, dict):
                shaped[key] = sorted(value)
            elif key == "name":
                shaped[key] = value
            else:
                shaped[key] = trace_shape(value)
        return shaped
    if isinstance(payload, list):
        return [trace_shape(item) for item in payload]
    return type(payload).__name__
