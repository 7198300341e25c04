"""Compilation of a :class:`SignedGraph` into flat CSR integer arrays.

``SignedGraph`` stores adjacency as per-node hashed sets of arbitrary
hashable nodes — ideal for construction and mutation, expensive to scan.
:class:`CompiledGraph` is the read-only counterpart: nodes are densely
renumbered ``0..n-1`` and each adjacency class (combined / positive /
negative) becomes one CSR (compressed sparse row) pair of stdlib
``array`` buffers, so the kernels in :mod:`repro.fastpath.kernels` scan
neighbours by integer indexing with no hashing at all.

Besides the CSR arrays the compilation carries:

* a stable node<->index mapping (``nodes`` list / :attr:`index`);
* edge signs aligned with the combined adjacency, which is enough to
  reconstruct an equal ``SignedGraph`` (:meth:`to_signed_graph`) — this
  is what makes a ``CompiledGraph`` a *compact pickle* for shipping
  subgraphs to worker processes;
* lazily-built per-node adjacency bitmasks (:meth:`masks`) used by the
  bitset kernels, one ``mask_of`` per CSR row;
* a lazily-built ``repr``-rank permutation used to replicate the pure
  path's deterministic tie-breaking exactly.

Compiled graphs deliberately support no mutation: recompile after
changing the source graph.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.fastpath.bitset import iter_bits, mask_of
from repro.graphs.signed_graph import NEGATIVE, POSITIVE, Node, SignedGraph

_SIGN_SELECTORS = ("all", "positive", "negative")


class CompiledGraph:
    """A read-only CSR compilation of a :class:`SignedGraph`.

    Build one with :func:`compile_graph`; hand it to ``MSCE``, the
    parallel enumerators or the kernels of :mod:`repro.fastpath.kernels`
    and :mod:`repro.fastpath.vectorized` in place of the source graph.

    Attributes
    ----------
    nodes:
        Index -> original node, in source-graph iteration order.
    xadj / adj / signs:
        Combined CSR: the neighbours of node ``i`` are
        ``adj[xadj[i]:xadj[i+1]]`` (ascending indices) and
        ``signs[...]`` carries the aligned ``+1``/``-1`` labels.
    pxadj / padj, nxadj / nadj:
        Positive-only and negative-only CSR adjacency.
    """

    __slots__ = (
        "nodes",
        "n",
        "xadj",
        "adj",
        "signs",
        "pxadj",
        "padj",
        "nxadj",
        "nadj",
        "_index",
        "_source",
        "_masks",
        "_repr_rank",
    )

    def __init__(
        self,
        nodes: Sequence[Node],
        xadj: Sequence[int],
        adj: Sequence[int],
        signs: Sequence[int],
        source: Optional[SignedGraph] = None,
        split: Optional[Tuple[Sequence[int], ...]] = None,
    ):
        self.nodes: List[Node] = list(nodes)
        self.n = len(self.nodes)
        self.xadj = array("q", xadj)
        self.adj = array("q", adj)
        self.signs = array("b", signs)
        if split is None:
            split = _split_by_sign(self.n, self.xadj, self.adj, self.signs)
        pxadj, padj, nxadj, nadj = (array("q", part) for part in split)
        self.pxadj, self.padj = pxadj, padj
        self.nxadj, self.nadj = nxadj, nadj
        self._index: Optional[Dict[Node, int]] = None
        self._source = source
        self._masks: Dict[str, List[int]] = {}
        self._repr_rank: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Mapping between nodes and indices
    # ------------------------------------------------------------------
    @property
    def index(self) -> Dict[Node, int]:
        """The node -> index mapping (built on first use)."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.nodes)}
        return self._index

    def mask_from_nodes(self, members: Iterable[Node]) -> int:
        """Return the bitmask of the compiled indices of *members*.

        Nodes absent from the compilation are ignored silently, matching
        the tolerant ``within`` semantics of the pure kernels.
        """
        index = self.index
        mask = 0
        for node in members:
            i = index.get(node)
            if i is not None:
                mask |= 1 << i
        return mask

    def nodes_from_mask(self, mask: int) -> Set[Node]:
        """Return the original-node set selected by bitmask *mask*."""
        nodes = self.nodes
        return {nodes[i] for i in iter_bits(mask)}

    @property
    def full_mask(self) -> int:
        """The mask with all ``n`` node bits set."""
        return (1 << self.n) - 1

    @property
    def repr_rank(self) -> List[int]:
        """``repr_rank[i]`` = rank of node ``i`` under ``sorted(key=repr)``.

        The pure-Python selectors break ties by ``repr`` of the node;
        comparing these precomputed ranks reproduces that order exactly
        without re-stringifying nodes inside the search.
        """
        if self._repr_rank is None:
            order = sorted(range(self.n), key=lambda i: repr(self.nodes[i]))
            rank = [0] * self.n
            for position, i in enumerate(order):
                rank[i] = position
            self._repr_rank = rank
        return self._repr_rank

    # ------------------------------------------------------------------
    # Adjacency accessors
    # ------------------------------------------------------------------
    def csr(self, sign: str = "all") -> Tuple[array, array]:
        """Return the ``(xadj, adj)`` CSR pair for the sign class."""
        if sign == "all":
            return self.xadj, self.adj
        if sign == "positive":
            return self.pxadj, self.padj
        if sign == "negative":
            return self.nxadj, self.nadj
        from repro.exceptions import ParameterError

        raise ParameterError(
            f"unknown sign selector {sign!r}; expected one of {_SIGN_SELECTORS}"
        )

    def masks(self, sign: str = "all") -> List[int]:
        """Return per-node adjacency bitmasks for the sign class (cached).

        ``masks(sign)[i]`` has bit ``j`` set iff ``j`` is a *sign*-class
        neighbour of ``i``. Memory is O(n^2 / 8) bits, so this is meant
        for the (reduced) graphs the enumerator actually searches, not
        for million-node inputs; the CSR kernels never require it.
        """
        cached = self._masks.get(sign)
        if cached is None:
            xadj, adj = self.csr(sign)
            cached = [mask_of(adj[xadj[i] : xadj[i + 1]]) for i in range(self.n)]
            self._masks[sign] = cached
        return cached

    # ------------------------------------------------------------------
    # Subgraph extraction
    # ------------------------------------------------------------------
    def extract(self, member_mask: int) -> "CompiledGraph":
        """Return the compiled induced subgraph of the *member_mask* nodes.

        Slices the CSR arrays directly — O(sum of member degrees), no
        intermediate dict-of-sets ``SignedGraph`` is ever built — which
        is how the parallel enumerator carves the reduced survivor set
        (or a component) out of a full compilation without the serial
        ``graph.subgraph`` + ``compile_graph`` prefix it used to pay per
        component. Kept nodes are renumbered ``0..k-1`` in ascending
        original-index order, so CSR rows stay ascending and the
        ``repr``-rank tie-breaking of the search is unaffected. The
        result carries no source graph; :attr:`source` reconstructs one
        on demand.
        """
        keep = list(iter_bits(member_mask))
        new_index = [-1] * self.n
        for new, old in enumerate(keep):
            new_index[old] = new
        nodes = [self.nodes[old] for old in keep]
        xadj, adj, signs = self.xadj, self.adj, self.signs
        sub_xadj: List[int] = [0]
        sub_adj: List[int] = []
        sub_signs: List[int] = []
        pxadj: List[int] = [0]
        padj: List[int] = []
        nxadj: List[int] = [0]
        nadj: List[int] = []
        for old in keep:
            for t in range(xadj[old], xadj[old + 1]):
                j = new_index[adj[t]]
                if j >= 0:
                    sign = signs[t]
                    sub_adj.append(j)
                    sub_signs.append(sign)
                    (padj if sign == POSITIVE else nadj).append(j)
            sub_xadj.append(len(sub_adj))
            pxadj.append(len(padj))
            nxadj.append(len(nadj))
        return CompiledGraph(
            nodes,
            sub_xadj,
            sub_adj,
            sub_signs,
            source=None,
            split=(pxadj, padj, nxadj, nadj),
        )

    # ------------------------------------------------------------------
    # Round trips
    # ------------------------------------------------------------------
    @property
    def source(self) -> SignedGraph:
        """The source :class:`SignedGraph` (reconstructed after unpickling).

        When the compilation crossed a process boundary the original
        graph is rebuilt from the CSR arrays on first access; the result
        compares equal (``==``) to the graph that was compiled.
        """
        if self._source is None:
            self._source = self.to_signed_graph()
        return self._source

    def to_signed_graph(self) -> SignedGraph:
        """Materialise a fresh, equal :class:`SignedGraph` from the CSR."""
        graph = SignedGraph(nodes=self.nodes)
        nodes, xadj, adj, signs = self.nodes, self.xadj, self.adj, self.signs
        for i in range(self.n):
            u = nodes[i]
            for t in range(xadj[i], xadj[i + 1]):
                j = adj[t]
                if j > i:  # each undirected edge once
                    graph.add_edge(u, nodes[j], signs[t])
        return graph

    def __getstate__(self):
        # Ship only the compact arrays; the source graph, masks and
        # ranks are all derivable on the far side.
        return (self.nodes, self.xadj, self.adj, self.signs)

    def __setstate__(self, state):
        nodes, xadj, adj, signs = state
        self.__init__(nodes, xadj, adj, signs, source=None)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(n={self.n}, m={len(self.adj) // 2}, "
            f"pos={len(self.padj) // 2}, neg={len(self.nadj) // 2})"
        )


def compile_graph(
    graph: SignedGraph,
    min_positive_degree: int = 0,
    nodes: Optional[Sequence[Node]] = None,
) -> CompiledGraph:
    """Compile *graph* into a :class:`CompiledGraph` (the graph is untouched).

    Node indices follow the graph's iteration order; neighbour lists are
    sorted by index so the kernels can rely on ascending CSR rows.

    With *min_positive_degree* ``t``, only the positive ``t``-core is
    compiled: the largest induced subgraph in which every node keeps at
    least ``t`` positive neighbours, peeled on the graph's own positive
    neighbour sets (:func:`repro.algorithms.kcore.positive_core`). The
    enumerator passes ``ceil(alpha * k)`` when its reduction is an
    (alpha, k) core: by the paper's Lemma 1 every (alpha, k)-clique, and
    so every reduction survivor, lies inside that core, and the kept
    nodes keep their relative order, so every tie-break is unchanged.

    With *nodes*, only those nodes (all in *graph*) are compiled, indexed
    in the order given: the induced subgraph, built in time proportional
    to their volume, with *graph* as its :attr:`~CompiledGraph.source`.
    With both, the core is taken within that induced subgraph.
    """
    if isinstance(graph, CompiledGraph):
        return graph
    from repro.obs import runtime as obs

    with obs.span("compile", nodes=graph.number_of_nodes()):
        within = None if nodes is None else list(nodes)
        nodes = list(graph.nodes()) if within is None else within
        if min_positive_degree > 0:
            from repro.algorithms.kcore import positive_core

            core = positive_core(graph, min_positive_degree, within=within)
            nodes = [node for node in nodes if node in core]
        index = {node: i for i, node in enumerate(nodes)}
        if len(nodes) < graph.number_of_nodes():
            lookup = index.get

            def indices(neighbours) -> List[int]:
                return sorted(i for i in map(lookup, neighbours) if i is not None)

        else:
            lookup = index.__getitem__

            def indices(neighbours) -> List[int]:
                return sorted(map(lookup, neighbours))

        xadj: List[int] = [0]
        adj: List[int] = []
        signs: List[int] = []
        pxadj: List[int] = [0]
        padj: List[int] = []
        nxadj: List[int] = [0]
        nadj: List[int] = []
        for node in nodes:
            positive = indices(graph.positive_neighbors(node))
            negative = indices(graph.negative_neighbors(node))
            padj.extend(positive)
            nadj.extend(negative)
            pxadj.append(len(padj))
            nxadj.append(len(nadj))
            if negative:
                row = sorted(positive + negative)
                negative_set = set(negative)
                signs.extend(NEGATIVE if j in negative_set else POSITIVE for j in row)
            else:
                row = positive
                signs.extend([POSITIVE] * len(row))
            adj.extend(row)
            xadj.append(len(adj))
        compiled = CompiledGraph(
            nodes, xadj, adj, signs, source=graph, split=(pxadj, padj, nxadj, nadj)
        )
        compiled._index = index
        return compiled


def as_compiled(graph) -> Optional[CompiledGraph]:
    """Return *graph* when it is a :class:`CompiledGraph`, else ``None``.

    The dispatch helper used by the fastpath-aware entry points.
    """
    return graph if isinstance(graph, CompiledGraph) else None


def source_graph(graph) -> SignedGraph:
    """Return the underlying :class:`SignedGraph` of either representation."""
    return graph.source if isinstance(graph, CompiledGraph) else graph


def _split_by_sign(
    n: int, xadj: array, adj: array, signs: array
) -> Tuple[array, array, array, array]:
    """Split the combined CSR into positive-only and negative-only CSR."""
    pxadj = array("q", [0])
    nxadj = array("q", [0])
    padj: List[int] = []
    nadj: List[int] = []
    for i in range(n):
        for t in range(xadj[i], xadj[i + 1]):
            if signs[t] == POSITIVE:
                padj.append(adj[t])
            else:
                nadj.append(adj[t])
        pxadj.append(len(padj))
        nxadj.append(len(nadj))
    return pxadj, array("q", padj), nxadj, array("q", nadj)

