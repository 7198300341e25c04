"""The :class:`SignedGraph` data structure.

A signed graph is an undirected simple graph in which every edge carries
a label ``+`` (friendship / trust / strong tie) or ``-`` (antagonism /
distrust / weak tie). This module provides the central data structure
used by every algorithm in the library.

Design notes
------------
The structure keeps, for each node, *two* adjacency sets — one for
positive neighbours and one for negative neighbours — besides a combined
sign lookup table. The signed clique algorithms of the paper constantly
ask three different questions about a node:

* "who are all neighbours of ``u``?"        (clique constraint)
* "who are the positive neighbours of ``u``?" (positive-edge constraint,
  ego networks, positive-edge cores)
* "who are the negative neighbours of ``u``?" (negative-edge constraint)

Maintaining the partition explicitly makes each of those O(1) set
lookups instead of a filter pass, at the cost of one extra set per node.

Nodes may be any hashable object. Signs are normalised to the integers
``+1`` and ``-1``; the constants :data:`POSITIVE` and :data:`NEGATIVE`
are exported for readability.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import EdgeSignError, GraphError, SelfLoopError

Node = Hashable
Edge = Tuple[Node, Node]
SignedEdge = Tuple[Node, Node, int]

#: Canonical integer label for a positive ("+") edge.
POSITIVE = 1
#: Canonical integer label for a negative ("-") edge.
NEGATIVE = -1

_SIGN_ALIASES = {
    1: POSITIVE,
    -1: NEGATIVE,
    "+": POSITIVE,
    "-": NEGATIVE,
    "+1": POSITIVE,
    "-1": NEGATIVE,
    "1": POSITIVE,
    "pos": POSITIVE,
    "neg": NEGATIVE,
    "positive": POSITIVE,
    "negative": NEGATIVE,
}


#: Modulus of the running fingerprint sum (:func:`repro.io.cache.graph_fingerprint`).
FINGERPRINT_MODULUS = 1 << 256


def edge_digest(u: Node, v: Node, sign: int) -> int:
    """SHA-256 of the canonical line of edge ``(u, v)``, as an integer.

    The line is ``"E<min repr>|<max repr>|<sign>"``, so both orientations
    of an edge hash alike. With :func:`node_digest` it is one summand of
    :func:`repro.io.cache.graph_fingerprint`; the ``E``/``N`` prefixes
    keep edge and node inputs apart.
    """
    a, b = repr(u), repr(v)
    if b < a:
        a, b = b, a
    line = f"E{a}|{b}|{sign}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(line).digest(), "big")


def node_digest(node: Node) -> int:
    """SHA-256 of the line of *node*, as an integer (see :func:`edge_digest`)."""
    line = f"N{node!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(line).digest(), "big")


def normalize_sign(sign: object) -> int:
    """Return the canonical ``+1``/``-1`` form of *sign*.

    Accepts the integers ``1``/``-1``, the strings ``"+"``/``"-"`` (and a
    few longer spellings), and booleans (``True`` is positive). Raises
    :class:`EdgeSignError` for anything else — including ``0``, which
    carries no sign.

    >>> normalize_sign("+")
    1
    >>> normalize_sign(-1)
    -1
    """
    # Bools are handled before the table lookup: True/False hash equal
    # to 1/0, which would otherwise make 0 silently alias False.
    if isinstance(sign, bool):
        return POSITIVE if sign else NEGATIVE
    try:
        return _SIGN_ALIASES[sign]
    except (KeyError, TypeError):
        raise EdgeSignError(f"invalid edge sign {sign!r}; expected +1/-1 or '+'/'-'") from None


class SignedGraph:
    """An undirected simple graph whose edges are labelled ``+1`` or ``-1``.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, sign)`` triples used to initialise
        the graph. Signs are normalised with :func:`normalize_sign`.
    nodes:
        Optional iterable of isolated nodes to add up front.

    Examples
    --------
    >>> g = SignedGraph([(1, 2, "+"), (2, 3, "-")])
    >>> g.sign(1, 2)
    1
    >>> sorted(g.positive_neighbors(2))
    [1]
    >>> sorted(g.negative_neighbors(2))
    [3]
    """

    __slots__ = (
        "_sign",
        "_pos",
        "_neg",
        "_num_pos_edges",
        "_num_neg_edges",
        "_version",
        "_fingerprint_sum",
    )

    def __init__(
        self,
        edges: Iterable[Tuple[Node, Node, object]] = (),
        nodes: Iterable[Node] = (),
    ):
        # _sign[u][v] -> +1 / -1 for every edge (u, v); symmetric.
        self._sign: Dict[Node, Dict[Node, int]] = {}
        # _pos[u] / _neg[u] -> neighbour sets partitioned by sign.
        self._pos: Dict[Node, Set[Node]] = {}
        self._neg: Dict[Node, Set[Node]] = {}
        self._num_pos_edges = 0
        self._num_neg_edges = 0
        # Monotone mutation counter, and the running fingerprint sum of
        # `repro.io.cache.graph_fingerprint`: None until its first call,
        # then kept current by the four mutation points below in O(1)
        # per node or edge they add or remove.
        self._version = 0
        self._fingerprint_sum: Optional[int] = None
        for node in nodes:
            self.add_node(node)
        for u, v, sign in edges:
            self.add_edge(u, v, sign)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def _mutated(self, sign: int, digest, *item) -> None:
        # Every structural change funnels through here with the node or
        # edge it adds (sign +1) or removes (-1) and that item's digest
        # function, so the running fingerprint sum can never go stale.
        self._version += 1
        if self._fingerprint_sum is not None:
            self._fingerprint_sum = (
                self._fingerprint_sum + sign * digest(*item)
            ) % FINGERPRINT_MODULUS

    @property
    def version(self) -> int:
        """Monotone counter bumped on every structural mutation."""
        return self._version

    def add_node(self, node: Node) -> None:
        """Add an isolated node; a no-op if *node* is already present."""
        if node not in self._sign:
            self._sign[node] = {}
            self._pos[node] = set()
            self._neg[node] = set()
            self._mutated(1, node_digest, node)

    def add_edge(self, u: Node, v: Node, sign: object) -> None:
        """Add the undirected edge ``(u, v)`` with the given *sign*.

        Endpoints are created if absent. Re-adding an existing edge with
        the *same* sign is a no-op; re-adding it with the opposite sign
        raises :class:`GraphError` (a simple signed graph carries exactly
        one label per edge — callers that want "last write wins" should
        call :meth:`set_sign`).
        """
        if u == v:
            raise SelfLoopError(f"self-loop on node {u!r} is not allowed")
        canonical = normalize_sign(sign)
        self.add_node(u)
        self.add_node(v)
        existing = self._sign[u].get(v)
        if existing is not None:
            if existing != canonical:
                raise GraphError(
                    f"edge ({u!r}, {v!r}) already present with opposite sign; "
                    "use set_sign() to overwrite"
                )
            return
        self._insert(u, v, canonical)

    def set_sign(self, u: Node, v: Node, sign: object) -> None:
        """Add edge ``(u, v)`` or overwrite its sign if it already exists."""
        if u == v:
            raise SelfLoopError(f"self-loop on node {u!r} is not allowed")
        canonical = normalize_sign(sign)
        self.add_node(u)
        self.add_node(v)
        existing = self._sign[u].get(v)
        if existing == canonical:
            return
        if existing is not None:
            self._delete(u, v, existing)
        self._insert(u, v, canonical)

    def _insert(self, u: Node, v: Node, canonical: int) -> None:
        self._mutated(1, edge_digest, u, v, canonical)
        self._sign[u][v] = canonical
        self._sign[v][u] = canonical
        if canonical == POSITIVE:
            self._pos[u].add(v)
            self._pos[v].add(u)
            self._num_pos_edges += 1
        else:
            self._neg[u].add(v)
            self._neg[v].add(u)
            self._num_neg_edges += 1

    def _delete(self, u: Node, v: Node, canonical: int) -> None:
        self._mutated(-1, edge_digest, u, v, canonical)
        del self._sign[u][v]
        del self._sign[v][u]
        if canonical == POSITIVE:
            self._pos[u].discard(v)
            self._pos[v].discard(u)
            self._num_pos_edges -= 1
        else:
            self._neg[u].discard(v)
            self._neg[v].discard(u)
            self._num_neg_edges -= 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``(u, v)``; raises :class:`GraphError` if absent."""
        sign = self._sign.get(u, {}).get(v)
        if sign is None:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._delete(u, v, sign)

    def remove_node(self, node: Node) -> None:
        """Remove *node* and every incident edge."""
        if node not in self._sign:
            raise GraphError(f"node {node!r} not in graph")
        for neighbor in list(self._sign[node]):
            self._delete(node, neighbor, self._sign[node][neighbor])
        del self._sign[node]
        del self._pos[node]
        del self._neg[node]
        self._mutated(-1, node_digest, node)

    def remove_nodes(self, nodes: Iterable[Node]) -> None:
        """Remove every node in *nodes* (each must be present)."""
        for node in nodes:
            self.remove_node(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._sign

    def __len__(self) -> int:
        return len(self._sign)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._sign)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if *node* is in the graph."""
        return node in self._sign

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return v in self._sign.get(u, {})

    def sign(self, u: Node, v: Node) -> int:
        """Return the sign (``+1``/``-1``) of edge ``(u, v)``.

        Raises :class:`GraphError` when the edge does not exist.
        """
        try:
            return self._sign[u][v]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from None

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._sign)

    def node_set(self) -> Set[Node]:
        """Return a fresh set of all nodes."""
        return set(self._sign)

    def edges(self) -> Iterator[SignedEdge]:
        """Iterate over each undirected edge once, as ``(u, v, sign)``.

        The order of endpoints within a triple is arbitrary but each
        edge is reported exactly once.
        """
        seen: Set[Node] = set()
        for u, neighbor_signs in self._sign.items():
            for v, sign in neighbor_signs.items():
                if v not in seen:
                    yield (u, v, sign)
            seen.add(u)

    def positive_edges(self) -> Iterator[Edge]:
        """Iterate over each positive edge once as ``(u, v)``."""
        for u, v, sign in self.edges():
            if sign == POSITIVE:
                yield (u, v)

    def negative_edges(self) -> Iterator[Edge]:
        """Iterate over each negative edge once as ``(u, v)``."""
        for u, v, sign in self.edges():
            if sign == NEGATIVE:
                yield (u, v)

    def neighbors(self, node: Node) -> Set[Node]:
        """Return the set ``N_u`` of all neighbours of *node*.

        The returned set is a fresh copy; mutating it does not affect
        the graph. Use :meth:`neighbor_keys` on hot paths to avoid the
        copy, and :meth:`positive_neighbors` / :meth:`negative_neighbors`
        when only one sign class is needed.
        """
        if node not in self._sign:
            raise GraphError(f"node {node!r} not in graph")
        return set(self._sign[node])

    def neighbor_keys(self, node: Node):
        """Return a live, copy-free view of all neighbours of *node*.

        The returned ``dict_keys`` view supports set operations
        (``& | -``, membership) without materialising a set, which is
        what the enumeration inner loops need. Treat it as read-only; it
        reflects subsequent graph mutations.
        """
        try:
            return self._sign[node].keys()
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def positive_neighbors(self, node: Node) -> Set[Node]:
        """Return the live set ``N+_u`` of positive neighbours of *node*.

        .. warning:: The returned set is the graph's internal storage;
           treat it as read-only (copy before mutating).
        """
        try:
            return self._pos[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def negative_neighbors(self, node: Node) -> Set[Node]:
        """Return the live set ``N-_u`` of negative neighbours of *node*.

        .. warning:: The returned set is the graph's internal storage;
           treat it as read-only (copy before mutating).
        """
        try:
            return self._neg[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def degree(self, node: Node) -> int:
        """Return ``d_u``, the number of neighbours of *node*."""
        if node not in self._sign:
            raise GraphError(f"node {node!r} not in graph")
        return len(self._sign[node])

    def positive_degree(self, node: Node) -> int:
        """Return ``d+_u``, the number of positive neighbours of *node*."""
        return len(self.positive_neighbors(node))

    def negative_degree(self, node: Node) -> int:
        """Return ``d-_u``, the number of negative neighbours of *node*."""
        return len(self.negative_neighbors(node))

    def number_of_nodes(self) -> int:
        """Return ``n = |V|``."""
        return len(self._sign)

    def number_of_edges(self) -> int:
        """Return ``m = |E|`` (positive plus negative)."""
        return self._num_pos_edges + self._num_neg_edges

    def number_of_positive_edges(self) -> int:
        """Return ``|E+|``."""
        return self._num_pos_edges

    def number_of_negative_edges(self) -> int:
        """Return ``|E-|``."""
        return self._num_neg_edges

    def max_negative_degree(self) -> int:
        """Return ``d-_max``, the largest negative degree in the graph.

        Returns 0 for the empty graph. This is the value of *k* under
        which the (alpha, k)-clique model degenerates to classic maximal
        cliques (together with ``alpha = 0``).
        """
        if not self._neg:
            return 0
        return max(len(neighbors) for neighbors in self._neg.values())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "SignedGraph":
        """Return a deep structural copy of the graph."""
        clone = SignedGraph()
        for node, neighbor_signs in self._sign.items():
            clone._sign[node] = dict(neighbor_signs)
            clone._pos[node] = set(self._pos[node])
            clone._neg[node] = set(self._neg[node])
        clone._num_pos_edges = self._num_pos_edges
        clone._num_neg_edges = self._num_neg_edges
        # A copy has identical content, so it carries the running
        # fingerprint sum; its version counter restarts from the copied
        # value and diverges independently from here on.
        clone._version = self._version
        clone._fingerprint_sum = self._fingerprint_sum
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "SignedGraph":
        """Return the induced signed subgraph on *nodes* as a new graph.

        Nodes absent from the graph are ignored silently so callers can
        intersect freely.
        """
        keep = {node for node in nodes if node in self._sign}
        sub = SignedGraph()
        for node in keep:
            sub.add_node(node)
        for node in keep:
            for neighbor, sign in self._sign[node].items():
                if neighbor in keep and neighbor not in sub._sign[node]:
                    sub._insert(node, neighbor, sign)
        return sub

    def positive_subgraph(self) -> "SignedGraph":
        """Return the positive-edge graph ``G+ = (V, E+)`` of the paper.

        All nodes are kept (possibly isolated); only positive edges
        survive.
        """
        sub = SignedGraph()
        for node in self._sign:
            sub.add_node(node)
        for u, v in self.positive_edges():
            sub._insert(u, v, POSITIVE)
        return sub

    def induced_positive_neighborhood(self, node: Node) -> "SignedGraph":
        """Return the *ego network* of *node* (Definition 4 of the paper).

        The ego network of ``u`` is the signed subgraph induced by
        ``N+_u`` — note that it may itself contain negative edges, and
        it does **not** include ``u``.
        """
        return self.subgraph(self.positive_neighbors(node))

    def degrees_within(self, members: Set[Node], node: Node) -> Tuple[int, int]:
        """Return ``(d+_u(C), d-_u(C))`` for *node* within node set *members*.

        *node* never counts itself (the graph has no self-loops), so it
        is safe to pass a *members* set that contains *node*.
        """
        if node not in self._pos:
            raise GraphError(f"node {node!r} not in graph")
        return len(self._pos[node] & members), len(self._neg[node] & members)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"SignedGraph(n={self.number_of_nodes()}, m={self.number_of_edges()}, "
            f"pos={self._num_pos_edges}, neg={self._num_neg_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self._sign == other._sign

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("SignedGraph is mutable and unhashable")
