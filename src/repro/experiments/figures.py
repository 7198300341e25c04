"""Per-exhibit experiment drivers: one function per table/figure.

Each driver regenerates one exhibit of the paper's evaluation (Section
V) on the scaled dataset stand-ins and returns an
:class:`~repro.experiments.harness.Exhibit` whose series carry the same
rows the paper plots. The benchmark suite wraps these drivers; running
``python -m repro.experiments`` prints them all.

Naming follows the paper: Table I (datasets), Fig. 3 (MCBasic vs MCNew
time), Fig. 4 (MCCore size), Fig. 5 (enumeration time), Fig. 6 (clique
counts), Fig. 7 (top-r time), Fig. 8 (scalability), Fig. 9 (memory),
Table II (signed conductance), Fig. 10 (case study), Fig. 11 (precision
on the PPI network). Three ablations beyond the paper cover the design
choices DESIGN.md calls out.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.baselines import (
    core_communities,
    signed_core_communities,
    tclique_communities,
)
from repro.core import MSCE, AlphaK
from repro.core.mcbasic import mccore_basic
from repro.core.mcnew import mccore_new
from repro.core.reduction import reduce_graph
from repro.experiments.harness import (
    DEFAULT_ALPHA,
    DEFAULT_K,
    DEFAULT_R,
    Exhibit,
    Series,
    full_sweeps_enabled,
    measure,
    measure_peak_memory,
    sweep_alphas,
    sweep_ks,
    sweep_rs,
    time_limit_seconds,
)
from repro.experiments.registry import get_dataset
from repro.generators import PAPER_DATASETS, random_edge_subsample, random_node_subsample
from repro.graphs import estimated_bytes, graph_stats
from repro.graphs.signed_graph import SignedGraph
from repro.metrics import average_precision, average_signed_conductance

#: Datasets the paper uses for the reduction-focused exhibits (Figs. 3/4/6/7).
REDUCTION_DATASETS = ("slashdot", "dblp")


# ----------------------------------------------------------------------
# Table I — dataset statistics
# ----------------------------------------------------------------------
def table1_dataset_stats(names: Sequence[str] = PAPER_DATASETS) -> Exhibit:
    """Table I: n, m, |E+|, |E-| and k_max for every dataset stand-in."""
    exhibit = Exhibit(title="Table I: dataset statistics (scaled stand-ins)")
    columns = ["n", "m", "E+", "E-", "k_max"]
    series = {label: Series(label) for label in columns}
    for name in names:
        stats = graph_stats(get_dataset(name).graph)
        series["n"].add(name, stats.nodes)
        series["m"].add(name, stats.edges)
        series["E+"].add(name, stats.positive_edges)
        series["E-"].add(name, stats.negative_edges)
        series["k_max"].add(name, stats.k_max)
    exhibit.series = [series[label] for label in columns]
    exhibit.notes.append(
        "paper: Slashdot 82k/500k (23% neg), Wiki 139k/716k (12%), DBLP 1.3M/5.4M (77%), "
        "Youtube 1.2M/3.0M (30%), Pokec 1.6M/30.6M (30%); stand-ins scale ~50x down"
    )
    return exhibit


# ----------------------------------------------------------------------
# Fig. 3 — MCBasic vs MCNew reduction time
# ----------------------------------------------------------------------
def fig3_reduction_time(
    names: Sequence[str] = REDUCTION_DATASETS,
    alphas: Optional[Sequence[float]] = None,
    ks: Optional[Sequence[int]] = None,
) -> List[Exhibit]:
    """Fig. 3: MCCore computation time, MCBasic vs MCNew, varying alpha and k."""
    alphas = tuple(alphas if alphas is not None else sweep_alphas())
    ks = tuple(ks if ks is not None else sweep_ks())
    exhibits: List[Exhibit] = []
    for name in names:
        graph = get_dataset(name).graph
        for axis, values in (("alpha", alphas), ("k", ks)):
            basic = Series("MCBasic")
            new = Series("MCNew")
            for value in values:
                params = (
                    AlphaK(value, DEFAULT_K) if axis == "alpha" else AlphaK(DEFAULT_ALPHA, value)
                )
                _nodes, seconds = measure(mccore_basic, graph, params)
                basic.add(value, seconds)
                _nodes, seconds = measure(mccore_new, graph, params)
                new.add(value, seconds)
            exhibits.append(
                Exhibit(
                    title=f"Fig.3 ({name}, vary {axis}): MCCore time [s]",
                    series=[new, basic],
                )
            )
    return exhibits


# ----------------------------------------------------------------------
# Fig. 4 — MCCore size
# ----------------------------------------------------------------------
def fig4_mccore_size(
    names: Sequence[str] = REDUCTION_DATASETS,
    alphas: Optional[Sequence[float]] = None,
    ks: Optional[Sequence[int]] = None,
) -> List[Exhibit]:
    """Fig. 4: total number of MCCore nodes, varying alpha and k."""
    alphas = tuple(alphas if alphas is not None else sweep_alphas())
    ks = tuple(ks if ks is not None else sweep_ks())
    exhibits: List[Exhibit] = []
    for name in names:
        dataset = get_dataset(name)
        n = dataset.graph.number_of_nodes()
        for axis, values in (("alpha", alphas), ("k", ks)):
            series = Series("MCNew")
            for value in values:
                params = (
                    AlphaK(value, DEFAULT_K) if axis == "alpha" else AlphaK(DEFAULT_ALPHA, value)
                )
                series.add(value, len(mccore_new(dataset.graph, params)))
            exhibit = Exhibit(
                title=f"Fig.4 ({name}, vary {axis}): MCCore nodes (graph has {n})",
                series=[series],
            )
            exhibits.append(exhibit)
    return exhibits


# ----------------------------------------------------------------------
# Fig. 5 — enumeration time, MSCE-G vs MSCE-R
# ----------------------------------------------------------------------
def _enumeration_seconds(
    graph: SignedGraph, params: AlphaK, selection: str, limit: float
) -> Tuple[float, bool]:
    """One Fig-5 measurement: wall seconds (capped) and a timeout flag."""
    searcher = MSCE(graph, params, selection=selection, time_limit=limit)
    result = searcher.enumerate_all()
    return result.elapsed_seconds, result.timed_out


def fig5_enumeration_time(
    names: Sequence[str] = PAPER_DATASETS,
    alphas: Optional[Sequence[float]] = None,
    ks: Optional[Sequence[int]] = None,
    limit: Optional[float] = None,
) -> List[Exhibit]:
    """Fig. 5: MSCE-G vs MSCE-R enumeration time on every dataset.

    Runs that exceed the time limit are reported at the cap, mirroring
    the paper's treatment of MSCE-R (capped at 3600 s there).
    """
    alphas = tuple(alphas if alphas is not None else sweep_alphas())
    ks = tuple(ks if ks is not None else sweep_ks())
    limit = limit if limit is not None else time_limit_seconds()
    exhibits: List[Exhibit] = []
    for name in names:
        graph = get_dataset(name).graph
        for axis, values in (("alpha", alphas), ("k", ks)):
            greedy = Series("MSCE-G")
            randomized = Series("MSCE-R")
            timeouts: List[str] = []
            for value in values:
                params = (
                    AlphaK(value, DEFAULT_K) if axis == "alpha" else AlphaK(DEFAULT_ALPHA, value)
                )
                seconds, timed_out = _enumeration_seconds(graph, params, "greedy", limit)
                greedy.add(value, seconds)
                if timed_out:
                    timeouts.append(f"MSCE-G {axis}={value}")
                seconds, timed_out = _enumeration_seconds(graph, params, "random", limit)
                randomized.add(value, seconds)
                if timed_out:
                    timeouts.append(f"MSCE-R {axis}={value}")
            exhibit = Exhibit(
                title=f"Fig.5 ({name}, vary {axis}): enumeration time [s], cap {limit:g}s",
                series=[greedy, randomized],
            )
            if timeouts:
                exhibit.notes.append("hit time cap: " + ", ".join(timeouts))
            exhibits.append(exhibit)
    return exhibits


# ----------------------------------------------------------------------
# Fig. 6 — number of maximal (alpha, k)-cliques
# ----------------------------------------------------------------------
def fig6_clique_counts(
    names: Sequence[str] = REDUCTION_DATASETS,
    alphas: Optional[Sequence[float]] = None,
    ks: Optional[Sequence[int]] = None,
    limit: Optional[float] = None,
) -> List[Exhibit]:
    """Fig. 6: how many maximal (alpha, k)-cliques exist, varying alpha/k."""
    alphas = tuple(alphas if alphas is not None else sweep_alphas())
    ks = tuple(ks if ks is not None else sweep_ks())
    limit = limit if limit is not None else time_limit_seconds()
    exhibits: List[Exhibit] = []
    for name in names:
        graph = get_dataset(name).graph
        for axis, values in (("alpha", alphas), ("k", ks)):
            series = Series("maximal cliques")
            notes: List[str] = []
            for value in values:
                params = (
                    AlphaK(value, DEFAULT_K) if axis == "alpha" else AlphaK(DEFAULT_ALPHA, value)
                )
                result = MSCE(graph, params, time_limit=limit).enumerate_all()
                series.add(value, len(result.cliques))
                if result.timed_out:
                    notes.append(f"{axis}={value}: count is a lower bound (time cap)")
            exhibit = Exhibit(
                title=f"Fig.6 ({name}, vary {axis}): # maximal (alpha,k)-cliques",
                series=[series],
                notes=notes,
            )
            exhibits.append(exhibit)
    return exhibits


def fig6_growth_mechanism(
    block_size: int = 22,
    negative_probability: float = 0.28,
    alpha: float = 2,
    ks: Sequence[int] = (1, 2, 3, 4),
    seed: int = 7,
) -> Exhibit:
    """The mechanism behind Fig. 6(d)'s *rising* DBLP curve, in isolation.

    On the real DBLP the number of signed cliques grows with ``k``
    because huge mixed-sign co-authorship cliques (consortia) admit
    combinatorially more near-maximal subsets as the negative budget
    loosens. The full-scale regime (counts of 10K-10M) is out of reach
    for a pure-Python enumeration, so this driver reproduces the
    mechanism on a single consortium block: a *block_size*-clique whose
    edges are negative with probability *negative_probability*. The
    count rises with ``k`` until the budget stops binding — the paper's
    shape.
    """
    rng = random.Random(seed)
    graph = SignedGraph()
    for u, v in itertools.combinations(range(block_size), 2):
        graph.add_edge(u, v, -1 if rng.random() < negative_probability else 1)
    series = Series(f"alpha={alpha:g}")
    for k in ks:
        result = MSCE(graph, AlphaK(alpha, k)).enumerate_all()
        series.add(k, len(result.cliques))
    return Exhibit(
        title=(
            f"Fig.6(d) mechanism: counts vs k on one {block_size}-node consortium "
            f"(p_neg={negative_probability:g})"
        ),
        series=[series],
        notes=["paper's full-scale regime reaches 10K-10M cliques; see EXPERIMENTS.md"],
    )


# ----------------------------------------------------------------------
# Fig. 7 — top-r search time
# ----------------------------------------------------------------------
def fig7_topr_time(
    names: Sequence[str] = REDUCTION_DATASETS,
    alphas: Optional[Sequence[float]] = None,
    ks: Optional[Sequence[int]] = None,
    rs: Optional[Sequence[int]] = None,
    limit: Optional[float] = None,
) -> List[Exhibit]:
    """Fig. 7: time to find the top-r largest maximal (alpha, k)-cliques."""
    alphas = tuple(alphas if alphas is not None else sweep_alphas())
    ks = tuple(ks if ks is not None else sweep_ks())
    rs = tuple(rs if rs is not None else sweep_rs())
    limit = limit if limit is not None else time_limit_seconds()
    exhibits: List[Exhibit] = []
    for name in names:
        graph = get_dataset(name).graph
        axes: List[Tuple[str, Sequence]] = [("alpha", alphas), ("k", ks), ("r", rs)]
        for axis, values in axes:
            series = Series("MSCE-G (top-r)")
            for value in values:
                if axis == "alpha":
                    params, r = AlphaK(value, DEFAULT_K), DEFAULT_R
                elif axis == "k":
                    params, r = AlphaK(DEFAULT_ALPHA, value), DEFAULT_R
                else:
                    params, r = AlphaK(DEFAULT_ALPHA, DEFAULT_K), int(value)
                result = MSCE(graph, params, time_limit=limit).top_r(r)
                series.add(value, result.elapsed_seconds)
            exhibits.append(
                Exhibit(
                    title=f"Fig.7 ({name}, vary {axis}): top-r search time [s]",
                    series=[series],
                )
            )
    return exhibits


# ----------------------------------------------------------------------
# Fig. 8 — scalability on the largest dataset
# ----------------------------------------------------------------------
def fig8_scalability(
    name: str = "pokec",
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    alpha: float = 2,
    k: int = DEFAULT_K,
    limit: Optional[float] = None,
    seed: int = 17,
) -> List[Exhibit]:
    """Fig. 8: enumeration and top-r time on 20-100% samples of Pokec.

    Two sampling axes, as in the paper: induced node samples (vary |V|)
    and uniform edge samples (vary |E|). The paper runs at its default
    (4, 3); the scaled Pokec stand-in has no (4,3)-cliques (see
    EXPERIMENTS.md), so the default here is (2, 3), where the full graph
    holds a few hundred cliques and the curves measure real work.
    """
    limit = limit if limit is not None else time_limit_seconds()
    graph = get_dataset(name).graph
    params = AlphaK(alpha, k)
    exhibits: List[Exhibit] = []
    for axis, sampler in (("|V|", random_node_subsample), ("|E|", random_edge_subsample)):
        all_series = Series("MSCE-G (All)")
        topr_series = Series("MSCE-G (Top-r)")
        for fraction in fractions:
            sample = graph if fraction >= 1.0 else sampler(graph, fraction, seed=seed)
            result = MSCE(sample, params, time_limit=limit).enumerate_all()
            all_series.add(f"{int(fraction * 100)}%", result.elapsed_seconds)
            result = MSCE(sample, params, time_limit=limit).top_r(DEFAULT_R)
            topr_series.add(f"{int(fraction * 100)}%", result.elapsed_seconds)
        exhibits.append(
            Exhibit(
                title=f"Fig.8 ({name}, vary {axis}): scalability [s]",
                series=[all_series, topr_series],
            )
        )
    return exhibits


# ----------------------------------------------------------------------
# Fig. 8 (extension) — intra-component parallel speedup
# ----------------------------------------------------------------------
def fig8_parallel_speedup(
    n: Optional[int] = None,
    average_degree: Optional[float] = None,
    worker_counts: Sequence[int] = (1, 2, 4),
    alpha: float = 1.5,
    k: int = 2,
    seed: int = 17,
) -> Exhibit:
    """Parallel MSCE on one giant LFR-like component, 1/2/4 workers.

    Beyond the paper: the sequential enumerator leaves cores idle on
    real signed networks, whose MCCore is typically one giant connected
    component. This exhibit measures the intra-component root-branch
    decomposition (:func:`repro.core.parallel.enumerate_parallel`) on a
    single-community-structured LFR-like graph — the adversarial case
    for component-level fan-out, since there is exactly one component
    to fan out. Results are checked bit-identical across worker counts
    before any timing is reported; the notes record how many helper
    processes each run forked (the parent searches as worker 0 and
    forks helpers only once the search outgrows its frame budget).

    Defaults are sized for CI; ``REPRO_BENCH_FULL=1`` runs the 10k-node
    / ~100k-edge configuration the speedup gate quotes.
    """
    import pickle

    from repro.core.parallel import enumerate_parallel
    from repro.fastpath import compile_graph
    from repro.generators import lfr_like_signed

    full = full_sweeps_enabled()
    n = n if n is not None else (10_000 if full else 400)
    if average_degree is None:
        average_degree = 20.0 if full else 12.0
    graph, _communities = lfr_like_signed(
        n=n, average_degree=average_degree, mu=0.3, seed=seed
    )
    compiled = compile_graph(graph)
    time_series = Series("wall seconds")
    speedup_series = Series("speedup vs 1 worker")
    exhibit = Exhibit(
        title=f"Fig.8 ext: intra-component parallel speedup (LFR-like n={n})",
        series=[time_series, speedup_series],
    )
    fingerprint = None
    baseline = None
    for workers in worker_counts:
        result = enumerate_parallel(compiled, alpha, k, workers=workers, seed=seed)
        current = (
            [c.nodes for c in result.cliques],
            result.stats.as_dict(),
        )
        if fingerprint is None:
            fingerprint = current
            baseline = result.elapsed_seconds
            report = result.parallel
            exhibit.notes.append(
                f"{len(result.cliques)} maximal cliques; "
                f"components={result.stats.components}, "
                f"tasks seeded={report['tasks_seeded']}"
            )
        elif current != fingerprint:  # pragma: no cover - determinism bug
            raise AssertionError(
                f"workers={workers} changed the cliques or stats"
            )
        else:
            report = result.parallel
            exhibit.notes.append(
                f"workers={workers}: helpers={report['helpers']}, "
                f"tasks completed={report['tasks_completed']}, "
                f"frames re-split={report['frames_resplit']}"
            )
        time_series.add(workers, round(result.elapsed_seconds, 3))
        speedup_series.add(workers, round(baseline / max(result.elapsed_seconds, 1e-9), 2))
    worst_task = len(pickle.dumps((compiled.full_mask, compiled.full_mask)))
    exhibit.notes.append(
        f"per-task payload <= {worst_task} B (two bitmasks); "
        f"helpers inherit the graph by fork, it never rides the task queue"
    )
    return exhibit


# ----------------------------------------------------------------------
# Fig. 9 — memory overhead
# ----------------------------------------------------------------------
def fig9_memory(names: Sequence[str] = PAPER_DATASETS, limit: Optional[float] = None) -> Exhibit:
    """Fig. 9: MSCE-G peak working memory vs (estimated) graph size.

    The paper reports resident memory of the C++ binary; the Python
    equivalent compares tracemalloc's peak allocation during the
    enumeration against a deterministic estimate of the adjacency
    structure's footprint. The paper's claim — memory stays within ~2x
    of the graph size — is asserted against the same ratio.
    """
    limit = limit if limit is not None else time_limit_seconds()
    graph_series = Series("graph bytes (est.)")
    peak_series = Series("MSCE-G peak bytes")
    exhibit = Exhibit(title="Fig.9: memory overhead of MSCE-G", series=[graph_series, peak_series])
    params = AlphaK(DEFAULT_ALPHA, DEFAULT_K)
    for name in names:
        graph = get_dataset(name).graph
        searcher = MSCE(graph, params, time_limit=limit)
        _result, peak = measure_peak_memory(searcher.enumerate_all)
        graph_series.add(name, estimated_bytes(graph))
        peak_series.add(name, peak)
    exhibit.notes.append("peak = tracemalloc of the enumeration call, graph storage excluded")
    return exhibit


# ----------------------------------------------------------------------
# Table II — signed conductance of the four community models
# ----------------------------------------------------------------------
def _signed_clique_communities(
    graph: SignedGraph, params: AlphaK, r: int, limit: float
) -> List[Set]:
    result = MSCE(graph, params, time_limit=limit).top_r(r)
    return [set(clique.nodes) for clique in result.cliques]


def table2_conductance(
    names: Sequence[str] = PAPER_DATASETS,
    alpha: float = 2,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    limit: Optional[float] = None,
) -> Exhibit:
    """Table II: average signed conductance of each model's top-r communities.

    The paper uses (alpha, k) = (4, 3). Our scaled stand-ins keep every
    model non-empty at (2, 3) instead (the uniformly-random 30% negative
    recipe on Youtube/Pokec leaves no (4,3)-clique at ~50x reduced
    scale), so the cross-model comparison defaults to alpha=2 — the
    relationship the table checks (SignedClique lowest) is
    scale-invariant. Pass ``alpha=4`` for the paper's exact setting.
    """
    limit = limit if limit is not None else time_limit_seconds()
    params = AlphaK(alpha, k)
    model_series = {
        label: Series(label) for label in ("Core", "SignedCore", "TClique", "SignedClique")
    }
    exhibit = Exhibit(
        title=f"Table II: avg signed conductance of top-{r} communities (alpha={alpha:g}, k={k})",
        series=list(model_series.values()),
    )
    for name in names:
        graph = get_dataset(name).graph
        communities = {
            "Core": [set(c) for c in core_communities(graph, params)[:r]],
            "SignedCore": [set(c) for c in signed_core_communities(graph, params)[:r]],
            "TClique": [set(c) for c in tclique_communities(graph, min_size=3)[:r]],
            "SignedClique": _signed_clique_communities(graph, params, r, limit),
        }
        for label, sets in communities.items():
            score = average_signed_conductance(graph, sets)
            model_series[label].add(name, round(score, 4))
            if not sets:
                exhibit.notes.append(f"{name}/{label}: no communities found (scored 0)")
    return exhibit


# ----------------------------------------------------------------------
# Fig. 10 — case study on DBLP
# ----------------------------------------------------------------------
def fig10_case_study(
    alpha: float = 2, k: int = 2, limit: Optional[float] = None
) -> Exhibit:
    """Fig. 10: TClique vs SignedClique communities around one researcher.

    The paper contrasts the communities of two professors: TClique
    (no negative edges allowed) truncates the group, SignedClique keeps
    the full strongly-cooperative group by tolerating a few weak ties.
    We reproduce the comparison around the focal author with the largest
    signed clique in the DBLP stand-in, reporting community sizes and
    internal negative-edge counts for both models.
    """
    limit = limit if limit is not None else time_limit_seconds()
    graph = get_dataset("dblp").graph
    params = AlphaK(alpha, k)
    top = MSCE(graph, params, time_limit=limit).top_r(25)
    if not top.cliques:
        return Exhibit(
            title="Fig.10 case study (dblp)", notes=["no signed cliques found"]
        )
    # The paper's case study showcases a community held together across
    # weak (negative) ties, so pick the largest signed clique that
    # actually contains one; fall back to the overall largest.
    focal_clique = next(
        (clique for clique in top.cliques if clique.negative_edges > 0),
        top.cliques[0],
    )
    focal_author = min(focal_clique.nodes, key=repr)

    tcliques = [
        clique
        for clique in tclique_communities(graph, min_size=2)
        if focal_author in clique
    ]
    best_tclique = max(tcliques, key=len) if tcliques else frozenset()

    size_series = Series("community size")
    negatives_series = Series("internal negative edges")
    for label, members in (
        ("TClique", set(best_tclique)),
        ("SignedClique", set(focal_clique.nodes)),
    ):
        negatives = (
            sum(len(graph.negative_neighbors(node) & members) for node in members) // 2
            if members
            else 0
        )
        size_series.add(label, len(members))
        negatives_series.add(label, negatives)
    exhibit = Exhibit(
        title=f"Fig.10 case study (dblp, alpha={alpha:g}, k={k}): focal author {focal_author}",
        series=[size_series, negatives_series],
    )
    missed = set(focal_clique.nodes) - set(best_tclique)
    if missed:
        exhibit.notes.append(
            f"TClique misses {len(missed)} member(s) that SignedClique keeps via weak ties"
        )
    return exhibit


# ----------------------------------------------------------------------
# Fig. 11 — protein-complex precision on the PPI network
# ----------------------------------------------------------------------
def fig11_precision(
    alphas: Optional[Sequence[float]] = None,
    ks: Optional[Sequence[int]] = None,
    r: int = DEFAULT_R,
    limit: Optional[float] = None,
) -> List[Exhibit]:
    """Fig. 11: avg precision of the top-r complexes per model on FlySign.

    The paper's grid: alpha in [2, 6] at k=3, and k in [1, 5] at
    alpha=4, against COMPLEAT ground-truth complexes; ours uses the
    planted complexes of the FlySign stand-in.
    """
    alphas = tuple(alphas if alphas is not None else [a for a in sweep_alphas() if a <= 6])
    ks = tuple(ks if ks is not None else [k for k in sweep_ks() if k <= 5])
    limit = limit if limit is not None else time_limit_seconds()
    dataset = get_dataset("flysign")
    graph, truth = dataset.graph, dataset.communities or []
    exhibits: List[Exhibit] = []
    for axis, values in (("alpha", alphas), ("k", ks)):
        model_series = {
            label: Series(label) for label in ("Core", "SignedCore", "TClique", "SignedClique")
        }
        for value in values:
            params = (
                AlphaK(value, DEFAULT_K) if axis == "alpha" else AlphaK(DEFAULT_ALPHA, value)
            )
            communities = {
                "Core": [set(c) for c in core_communities(graph, params)[:r]],
                "SignedCore": [set(c) for c in signed_core_communities(graph, params)[:r]],
                "TClique": [set(c) for c in tclique_communities(graph, min_size=3)[:r]],
                "SignedClique": _signed_clique_communities(graph, params, r, limit),
            }
            for label, sets in communities.items():
                model_series[label].add(value, round(average_precision(sets, truth), 4))
        exhibits.append(
            Exhibit(
                title=f"Fig.11 (flysign, vary {axis}): avg precision of top-{r} complexes",
                series=list(model_series.values()),
            )
        )
    return exhibits


# ----------------------------------------------------------------------
# Ablations (beyond the paper)
# ----------------------------------------------------------------------
def ablation_pruning_rules(
    name: str = "slashdot",
    alpha: float = 3,
    k: int = 2,
    limit: Optional[float] = None,
) -> Exhibit:
    """Cost of disabling each BBE pruning rule (recursion counts + time)."""
    limit = limit if limit is not None else time_limit_seconds()
    graph = get_dataset(name).graph
    params = AlphaK(alpha, k)
    configurations = [
        ("all rules", {}),
        ("no negative pruning", {"negative_pruning": False}),
        ("no clique pruning", {"clique_pruning": False}),
        ("no core pruning", {"core_pruning": False}),
    ]
    time_series = Series("seconds")
    recursion_series = Series("recursions")
    count_series = Series("cliques")
    exhibit = Exhibit(
        title=f"Ablation: BBE pruning rules ({name}, alpha={alpha:g}, k={k})",
        series=[time_series, recursion_series, count_series],
    )
    for label, overrides in configurations:
        searcher = MSCE(graph, params, time_limit=limit, **overrides)
        result = searcher.enumerate_all()
        time_series.add(label, round(result.elapsed_seconds, 3))
        recursion_series.add(label, result.stats.recursions)
        count_series.add(label, len(result.cliques))
        if result.timed_out:
            exhibit.notes.append(f"{label}: hit the {limit:g}s cap (partial counts)")
    return exhibit


def ablation_maxtest(
    name: str = "slashdot",
    alpha: float = 2,
    k: int = 2,
    limit: Optional[float] = None,
) -> Exhibit:
    """Exact Definition-2 maximality test vs the paper's single-extension test.

    The paper's test can reject true maximal cliques whose single-node
    extensions fail only the positive constraint; the exhibit reports
    how many results the heuristic loses and what it saves in time.
    """
    limit = limit if limit is not None else time_limit_seconds()
    graph = get_dataset(name).graph
    params = AlphaK(alpha, k)
    time_series = Series("seconds")
    count_series = Series("cliques")
    for label, kind in (("exact", "exact"), ("paper", "paper")):
        result = MSCE(graph, params, maxtest=kind, time_limit=limit).enumerate_all()
        time_series.add(label, round(result.elapsed_seconds, 3))
        count_series.add(label, len(result.cliques))
    exhibit = Exhibit(
        title=f"Ablation: maximality test ({name}, alpha={alpha:g}, k={k})",
        series=[time_series, count_series],
    )
    exact_count = count_series.y[0]
    paper_count = count_series.y[1]
    exhibit.notes.append(
        f"paper-style MaxTest under-reports {exact_count - paper_count} maximal clique(s)"
    )
    return exhibit


def ablation_reduction(
    name: str = "slashdot",
    alpha: float = DEFAULT_ALPHA,
    k: int = DEFAULT_K,
    limit: Optional[float] = None,
) -> Exhibit:
    """Enumeration cost under each reduction strength (none → MCCore)."""
    limit = limit if limit is not None else time_limit_seconds()
    graph = get_dataset(name).graph
    params = AlphaK(alpha, k)
    time_series = Series("seconds")
    survivor_series = Series("surviving nodes")
    for method in ("none", "positive-core", "mcbasic", "mcnew"):
        survivors = len(reduce_graph(graph, params, method=method))
        result = MSCE(graph, params, reduction=method, time_limit=limit).enumerate_all()
        time_series.add(method, round(result.elapsed_seconds, 3))
        survivor_series.add(method, survivors)
    return Exhibit(
        title=f"Ablation: reduction strength ({name}, alpha={alpha:g}, k={k})",
        series=[time_series, survivor_series],
    )


#: Driver registry used by ``python -m repro.experiments`` and the docs.
ALL_DRIVERS = {
    "table1": table1_dataset_stats,
    "fig3": fig3_reduction_time,
    "fig4": fig4_mccore_size,
    "fig5": fig5_enumeration_time,
    "fig6": fig6_clique_counts,
    "fig6_mechanism": fig6_growth_mechanism,
    "fig7": fig7_topr_time,
    "fig8": fig8_scalability,
    "fig8_parallel": fig8_parallel_speedup,
    "fig9": fig9_memory,
    "table2": table2_conductance,
    "fig10": fig10_case_study,
    "fig11": fig11_precision,
    "ablation_pruning": ablation_pruning_rules,
    "ablation_maxtest": ablation_maxtest,
    "ablation_reduction": ablation_reduction,
}
