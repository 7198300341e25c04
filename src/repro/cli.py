"""Command-line interface: ``signed-clique`` / ``python -m repro``.

Subcommands
-----------
stats
    Print Table-I style statistics of a signed edge-list file.
mccore
    Print the maximal constrained ceil(alpha*k)-core of a graph.
enumerate
    Enumerate all maximal (alpha, k)-cliques of a graph.
top
    Find the top-r largest maximal (alpha, k)-cliques.
conductance
    Score the top-r signed cliques with signed conductance.
generate
    Write one of the named synthetic dataset stand-ins to a file.
query
    Community search: maximal (alpha, k)-cliques containing query nodes.
balance
    Structural-balance report (camps / frustration / triangle census).
percolate
    Community detection via signed clique percolation (optionally DOT).
sweep
    Profile the (alpha, k) landscape of a graph.
serve-grid
    Batch-enumerate an (alpha, k) grid through the serving engine
    (one compilation, shared coring, two-tier cache, optional workers).
serve
    Host one or more graphs over HTTP (:mod:`repro.net`): request
    coalescing, admission control with load shedding, per-request
    deadlines, per-tenant caches, and a Prometheus ``/metrics`` page.
report
    Regenerate the full evaluation report as markdown.

Graphs are read with :func:`repro.io.read_signed_edgelist` (``src dst
sign`` lines, ``#``/``%`` comments).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core import MSCE, AlphaK, find_mccore, signed_cliques_containing
from repro.exceptions import ReproError
from repro.generators import DATASET_BUILDERS, load_dataset
from repro.graphs import graph_stats
from repro.io import read_signed_edgelist, write_signed_edgelist
from repro.metrics import (
    balanced_partition,
    local_search_frustration,
    signed_conductance,
    triangle_sign_census,
)


def _add_alpha_k(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=4.0, help="alpha parameter (default 4)")
    parser.add_argument("-k", type=int, default=3, dest="k", help="k parameter (default 3)")


def _add_graph_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="path to a signed edge-list file (src dst sign)")


def _add_model(parser: argparse.ArgumentParser) -> None:
    from repro.models import available_models

    parser.add_argument(
        "--model",
        choices=available_models(),
        default=None,
        help="signed-cohesion model (default: REPRO_MODEL env or msce)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="signed-clique",
        description="Maximal (alpha, k)-clique search in signed networks (ICDE 2018 reproduction)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's span trace (phase wall times + counter deltas) as JSON",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics in Prometheus text exposition format",
    )
    parser.add_argument(
        "--journal-out",
        default=None,
        metavar="PATH",
        help="stream scheduler/guard lifecycle events to a JSONL file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print dataset statistics (Table I columns)")
    _add_graph_argument(stats)

    mccore = sub.add_parser("mccore", help="compute the maximal constrained core")
    _add_graph_argument(mccore)
    _add_alpha_k(mccore)
    mccore.add_argument(
        "--method",
        choices=("mcnew", "mcbasic", "positive-core"),
        default="mcnew",
        help="reduction algorithm (default mcnew)",
    )

    enumerate_cmd = sub.add_parser("enumerate", help="enumerate all maximal (alpha,k)-cliques")
    _add_graph_argument(enumerate_cmd)
    _add_alpha_k(enumerate_cmd)
    enumerate_cmd.add_argument("--selection", choices=("greedy", "random", "first"), default="greedy")
    _add_model(enumerate_cmd)
    enumerate_cmd.add_argument("--time-limit", type=float, default=None, help="seconds cap")
    enumerate_cmd.add_argument("--json", action="store_true", help="emit JSON instead of text")
    enumerate_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="enumerate through the parallel scheduler with this many workers",
    )

    top = sub.add_parser("top", help="find the top-r largest maximal (alpha,k)-cliques")
    _add_graph_argument(top)
    _add_alpha_k(top)
    top.add_argument("-r", type=int, default=30, help="how many cliques (default 30)")
    _add_model(top)
    top.add_argument("--time-limit", type=float, default=None, help="seconds cap")
    top.add_argument("--json", action="store_true", help="emit JSON instead of text")

    conductance = sub.add_parser("conductance", help="signed conductance of the top-r cliques")
    _add_graph_argument(conductance)
    _add_alpha_k(conductance)
    conductance.add_argument("-r", type=int, default=30)

    generate = sub.add_parser("generate", help="write a synthetic dataset stand-in")
    generate.add_argument("name", choices=sorted(DATASET_BUILDERS), help="dataset name")
    generate.add_argument("output", help="output edge-list path")
    generate.add_argument("--seed", type=int, default=None)

    query = sub.add_parser(
        "query", help="community search: maximal cliques containing the query nodes"
    )
    _add_graph_argument(query)
    _add_alpha_k(query)
    query.add_argument("nodes", nargs="+", help="query node ids")
    query.add_argument("--time-limit", type=float, default=None, help="seconds cap")
    query.add_argument("--json", action="store_true", help="emit JSON instead of text")

    balance = sub.add_parser("balance", help="structural balance report")
    _add_graph_argument(balance)

    report = sub.add_parser("report", help="regenerate the evaluation report (markdown)")
    report.add_argument("output", help="output markdown path")
    report.add_argument("--sections", nargs="*", default=None, help="driver subset")

    percolate = sub.add_parser(
        "percolate", help="community detection via signed clique percolation"
    )
    _add_graph_argument(percolate)
    _add_alpha_k(percolate)
    percolate.add_argument("--overlap", type=int, default=2, help="members shared to merge")
    percolate.add_argument("--time-limit", type=float, default=None)
    percolate.add_argument("--dot", default=None, help="also write a Graphviz DOT file")

    sweep = sub.add_parser(
        "sweep", help="profile the (alpha, k) landscape of a graph"
    )
    _add_graph_argument(sweep)
    sweep.add_argument("--alphas", type=float, nargs="+", default=[2, 3, 4, 5, 6, 7])
    sweep.add_argument("--ks", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    sweep.add_argument("--time-limit", type=float, default=10.0, help="seconds per point")

    serve_grid = sub.add_parser(
        "serve-grid",
        help="batch-enumerate an (alpha, k) grid through the serving engine",
    )
    _add_graph_argument(serve_grid)
    serve_grid.add_argument("--alphas", type=float, nargs="+", default=[2, 3, 4, 5, 6, 7])
    serve_grid.add_argument("--ks", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    serve_grid.add_argument("--workers", type=int, default=1, help="worker processes")
    serve_grid.add_argument("--time-limit", type=float, default=None, help="seconds cap")
    serve_grid.add_argument(
        "--cache-dir", default=None, help="persistent disk cache directory"
    )
    serve_grid.add_argument(
        "--cache-mem-entries",
        type=int,
        default=256,
        help="in-memory cache entry bound (default 256)",
    )
    serve_grid.add_argument(
        "--cache-mem-bytes",
        type=int,
        default=None,
        help="in-memory cache approximate byte bound (default unbounded)",
    )
    _add_model(serve_grid)
    serve_grid.add_argument("--json", action="store_true", help="emit JSON instead of text")

    serve = sub.add_parser(
        "serve",
        help="host graphs over HTTP with coalescing, admission control and deadlines",
    )
    serve.add_argument(
        "graphs",
        nargs="+",
        metavar="NAME=PATH",
        help="graphs to host; bare PATH uses the file stem as the name",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8265, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--max-concurrency", type=int, default=4, help="computations in flight at once"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, help="admitted-but-waiting bound before shedding"
    )
    serve.add_argument(
        "--default-deadline",
        default="30s",
        help="per-request deadline when the client sends none (e.g. 30s, 500ms)",
    )
    serve.add_argument(
        "--max-deadline", default="300s", help="hard cap on client-requested deadlines"
    )
    serve.add_argument(
        "--read-timeout", type=float, default=10.0, help="seconds for a request head to arrive"
    )
    serve.add_argument(
        "--write-timeout", type=float, default=10.0, help="seconds for a response to drain"
    )
    serve.add_argument(
        "--memory-budget",
        default=None,
        help="shed new work when process RSS exceeds this (e.g. 2g, 512m)",
    )
    serve.add_argument("--workers", type=int, default=1, help="worker processes per engine")
    serve.add_argument("--cache-dir", default=None, help="base directory for per-tenant caches")
    serve.add_argument(
        "--cache-mem-entries", type=int, default=256, help="per-tenant memory-cache entries"
    )
    serve.add_argument(
        "--cache-mem-bytes", type=int, default=None, help="per-tenant memory-cache bytes"
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable request coalescing (every request computes; for benchmarks)",
    )
    serve.add_argument(
        "--exit-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop serving after this many seconds (smoke tests)",
    )

    return parser


def _print_cliques(cliques, as_json: bool) -> None:
    if as_json:
        payload = [
            {
                "nodes": sorted(clique.nodes, key=repr),
                "size": clique.size,
                "positive_edges": clique.positive_edges,
                "negative_edges": clique.negative_edges,
            }
            for clique in cliques
        ]
        print(json.dumps(payload, indent=2, default=str))
        return
    for index, clique in enumerate(cliques, start=1):
        members = " ".join(str(node) for node in sorted(clique.nodes, key=repr))
        print(
            f"#{index}: size={clique.size} "
            f"(+{clique.positive_edges}/-{clique.negative_edges}) {members}"
        )


def _load_graph(path: str):
    """Read a signed edge list inside a ``load`` span (the phase tree's root-most phase)."""
    from repro.obs import runtime as obs

    with obs.span("load", path=str(path)):
        return read_signed_edgelist(path)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    With any of ``--trace-out`` / ``--metrics-out`` / ``--journal-out``,
    the command runs under a fresh enabled observer
    (:func:`repro.obs.runtime.observing`) and the requested exports are
    written after the command finishes: the span trace as nested JSON,
    the metrics registry as Prometheus text, and the event journal
    streamed live as JSONL.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trace_out or args.metrics_out or args.journal_out:
            from repro.obs import runtime as obs
            from repro.obs.export import write_prometheus, write_trace_json

            with obs.observing(journal_path=args.journal_out) as observer:
                code = _dispatch(args)
            if args.trace_out:
                write_trace_json(observer.tracer, args.trace_out)
            if args.metrics_out:
                from repro.models import resolve_model

                write_prometheus(
                    observer.registry,
                    args.metrics_out,
                    labels={"model": resolve_model(getattr(args, "model", None))},
                )
            return code
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        print(f"error: --workers must be >= 1, got {workers}", file=sys.stderr)
        return 1
    if args.command == "stats":
        stats = graph_stats(_load_graph(args.graph))
        print(stats.as_table_row(args.graph))
        print(
            f"negative fraction: {stats.negative_fraction:.3f}, "
            f"max degree: {stats.max_degree}, "
            f"max d+: {stats.max_positive_degree}, max d-: {stats.max_negative_degree}"
        )
        return 0

    if args.command == "mccore":
        graph = _load_graph(args.graph)
        nodes = find_mccore(graph, args.alpha, args.k, method=args.method)
        print(f"{len(nodes)} nodes in the maximal constrained core:")
        print(" ".join(str(node) for node in sorted(nodes, key=repr)))
        return 0

    if args.command == "enumerate":
        graph = _load_graph(args.graph)
        params = AlphaK(args.alpha, args.k)
        if args.workers is not None:
            from repro.core.parallel import enumerate_parallel

            result = enumerate_parallel(
                graph,
                params.alpha,
                params.k,
                workers=args.workers,
                selection=args.selection,
                time_limit=args.time_limit,
                model=args.model,
            )
        else:
            result = MSCE(
                graph,
                params,
                selection=args.selection,
                time_limit=args.time_limit,
                model=args.model,
            ).enumerate_all()
        _print_cliques(result.cliques, args.json)
        if result.timed_out:
            print("warning: time limit hit; results are partial", file=sys.stderr)
        return 0

    if args.command == "top":
        graph = _load_graph(args.graph)
        params = AlphaK(args.alpha, args.k)
        result = MSCE(
            graph, params, time_limit=args.time_limit, model=args.model
        ).top_r(args.r)
        _print_cliques(result.cliques, args.json)
        if result.timed_out:
            print("warning: time limit hit; results are partial", file=sys.stderr)
        return 0

    if args.command == "conductance":
        graph = _load_graph(args.graph)
        params = AlphaK(args.alpha, args.k)
        result = MSCE(graph, params).top_r(args.r)
        for index, clique in enumerate(result.cliques, start=1):
            score = signed_conductance(graph, clique.nodes)
            print(f"#{index}: size={clique.size} signed_conductance={score:+.4f}")
        return 0

    if args.command == "query":
        graph = _load_graph(args.graph)
        query_nodes = []
        for token in args.nodes:
            try:
                query_nodes.append(int(token))
            except ValueError:
                query_nodes.append(token)
        cliques = signed_cliques_containing(
            graph, query_nodes, args.alpha, args.k, time_limit=args.time_limit
        )
        if not cliques:
            print("no maximal (alpha,k)-clique contains the query")
            return 0
        _print_cliques(cliques, args.json)
        return 0

    if args.command == "balance":
        graph = _load_graph(args.graph)
        partition = balanced_partition(graph)
        census = triangle_sign_census(graph)
        if partition is not None:
            first, second = partition
            print(f"balanced: yes (camps of {len(first)} and {len(second)} nodes)")
        else:
            violations, _camp = local_search_frustration(graph)
            print(f"balanced: no (frustration <= {violations} edges)")
        print(
            f"triangle census: +++ {census.ppp}, ++- {census.ppm}, "
            f"+-- {census.pmm}, --- {census.mmm} "
            f"(balance ratio {census.balance_ratio:.3f})"
        )
        return 0

    if args.command == "report":
        from repro.experiments.report import DEFAULT_SECTIONS, generate_report

        sections = tuple(args.sections) if args.sections else DEFAULT_SECTIONS
        generate_report(args.output, sections)
        print(f"wrote {args.output}")
        return 0

    if args.command == "percolate":
        from repro.core import signed_clique_percolation
        from repro.io.dot import save_dot

        graph = _load_graph(args.graph)
        communities = signed_clique_percolation(
            graph, args.alpha, args.k, overlap=args.overlap, time_limit=args.time_limit
        )
        for index, community in enumerate(communities, start=1):
            members = " ".join(str(node) for node in sorted(community, key=repr))
            print(f"community #{index} ({len(community)} nodes): {members}")
        if args.dot:
            save_dot(graph, args.dot, highlight=communities, members_only=True)
            print(f"wrote {args.dot}")
        return 0

    if args.command == "sweep":
        from repro.experiments.parameter_map import (
            parameter_map,
            render_parameter_map,
            suggest_parameters,
        )

        graph = _load_graph(args.graph)
        points = parameter_map(
            graph, alphas=args.alphas, ks=args.ks, time_limit=args.time_limit
        )
        print(render_parameter_map(points))
        suggestion = suggest_parameters(points, min_count=1)
        if suggestion is not None:
            print(
                f"strictest non-empty setting: alpha={suggestion.alpha:g} "
                f"k={suggestion.k} ({suggestion.clique_count} cliques, "
                f"largest {suggestion.largest_clique})"
            )
        return 0

    if args.command == "serve-grid":
        from repro.serve import SignedCliqueEngine

        graph = _load_graph(args.graph)
        engine = SignedCliqueEngine(
            graph,
            cache_dir=args.cache_dir,
            cache_mem_entries=args.cache_mem_entries,
            cache_mem_bytes=args.cache_mem_bytes,
            workers=args.workers,
            model=args.model,
        )
        grid = engine.run_grid(
            args.alphas, args.ks, workers=args.workers, time_limit=args.time_limit
        )
        if args.json:
            payload = {
                "report": grid.report,
                "counters": dict(engine.counters),
                "points": [
                    {
                        "alpha": params.alpha,
                        "k": params.k,
                        "cliques": len(result.cliques),
                        "largest": result.cliques[0].size if result.cliques else 0,
                        "recursions": int(result.stats.recursions),
                        "partial": bool(result.timed_out or result.interrupted),
                    }
                    for params, result in grid.items()
                ],
            }
            print(json.dumps(payload, indent=2))
            return 0
        for params, result in grid.items():
            largest = result.cliques[0].size if result.cliques else 0
            flag = " (partial)" if result.timed_out or result.interrupted else ""
            print(
                f"alpha={params.alpha:g} k={params.k}: "
                f"{len(result.cliques)} cliques, largest {largest}{flag}"
            )
        report = grid.report
        print(
            f"served {report['served_from_cache']}/{report['points']} from cache, "
            f"computed {report['computed']} with {report['workers']} worker(s); "
            f"reduction sharing {report['sharing_ratio']:.0%}; "
            f"{report['elapsed_seconds']:.2f}s"
        )
        return 0

    if args.command == "generate":
        dataset = load_dataset(args.name, seed=args.seed)
        write_signed_edgelist(
            dataset.graph,
            args.output,
            header=f"{dataset.name} stand-in: {dataset.description}",
        )
        stats = graph_stats(dataset.graph)
        print(f"wrote {args.output}: n={stats.nodes} m={stats.edges}")
        return 0

    if args.command == "serve":
        return _serve_http(args)

    raise AssertionError(f"unhandled command {args.command!r}")


def _serve_http(args: argparse.Namespace) -> int:
    """Run the :mod:`repro.net` HTTP server until interrupted.

    Hosted graphs are given as ``NAME=PATH`` (or a bare ``PATH``, named
    after the file stem). The server runs under a fresh enabled
    observer when none is installed yet, so ``/metrics`` is live even
    without ``--metrics-out``.
    """
    import asyncio
    from pathlib import Path

    from repro.limits import parse_deadline, parse_memory_budget
    from repro.net import CliqueServer, ServerConfig, TenantRegistry
    from repro.obs import runtime as obs

    try:
        default_deadline = parse_deadline(args.default_deadline)
        max_deadline = parse_deadline(args.max_deadline)
        memory_budget_bytes = (
            parse_memory_budget(args.memory_budget)
            if args.memory_budget is not None
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    registry = TenantRegistry(
        cache_dir=args.cache_dir,
        cache_mem_entries=args.cache_mem_entries,
        cache_mem_bytes=args.cache_mem_bytes,
        workers=args.workers,
    )
    for spec in args.graphs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = Path(spec).stem, spec
        registry.create(name, _load_graph(path))
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue_depth=args.queue_depth,
        default_deadline=default_deadline,
        max_deadline=max_deadline,
        read_timeout=args.read_timeout,
        write_timeout=args.write_timeout,
        memory_budget_bytes=memory_budget_bytes,
        coalesce=not args.no_coalesce,
    )
    server = CliqueServer(registry, config)

    async def run() -> None:
        host, port = await server.start()
        names = ", ".join(registry.names())
        print(f"serving {names} on http://{host}:{port} (Ctrl-C to stop)")
        try:
            if args.exit_after is not None:
                try:
                    await asyncio.wait_for(server.serve_forever(), args.exit_after)
                except asyncio.TimeoutError:
                    pass
            else:
                await server.serve_forever()
        finally:
            await server.stop()

    needs_observer = not obs.get_observer().enabled
    try:
        if needs_observer:
            with obs.observing():
                asyncio.run(run())
        else:
            asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
