"""Directed-graph representation, edge-list ingestion, and synthetic graphs.

A graph is stored once, as read-only CSR arrays over dense internal node
ids ``0..n-1``.  When a graph is read from an edge list with arbitrary
external ids, a remapping table is kept and used again on serialization.
"""

from __future__ import annotations

from operator import index

import numpy as np

from .errors import EdgeListParseError, GraphValidationError
from .rng import derive_rng


def _pair_array(edges, n):
    """``edges`` as an (m, 2) ``np.intp`` array.  An integer (m, 2) array
    is taken whole; other input is read pair by pair.  Raises naming the
    first bad pair in input order: a self-link (even when out of range),
    an id outside ``0..n-1``, or an id that is not an integer (booleans,
    which ``operator.index`` would take as 0 or 1, included)."""
    if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"
            and edges.shape[1:] == (2,)):
        ids = []
        for u, v in edges:
            try:
                if isinstance(u, bool) or isinstance(v, bool):
                    raise TypeError
                ids.append((index(u), index(v)))
            except TypeError:
                _pair_array(np.array(ids, dtype=np.intp).reshape(-1, 2), n)
                raise GraphValidationError(f"edge ({u!r}, {v!r}): node ids "
                                           "must be integers") from None
        edges = np.array(ids, dtype=np.intp).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        u, v = int(u[bad][0]), int(v[bad][0])
        raise GraphValidationError(
            f"self-link ({u}, {v}) is not allowed" if u == v else
            f"edge ({u}, {v}) references a node outside 0..{n - 1}")
    return edges.astype(np.intp, copy=False)


class DirectedGraph:
    """Immutable directed graph without self-links, as read-only
    ``np.intp`` CSR arrays.  Edge ids sort the links by (u, v).

    Attributes
    ----------
    node_count, edge_count : int
    out_ptr, tails, heads : edge e is the link ``tails[e] -> heads[e]``;
        the children of u are ``heads[out_ptr[u]:out_ptr[u+1]]``, ascending
    in_ptr, in_edges, in_degree : ``in_edges[in_ptr[v]:in_ptr[v+1]]`` are
        the ids of the ``in_degree[v]`` edges into ``v``, parents ascending
    labels : tuple mapping internal id -> external id
    duplicate_count : number of duplicate input edges that were collapsed
    """

    __slots__ = ("node_count", "edge_count", "out_ptr", "tails", "heads",
                 "in_ptr", "in_edges", "in_degree", "labels",
                 "duplicate_count")

    def __init__(self, node_count, edges, labels=None, duplicate_count=0):
        node_count = int(node_count)
        if node_count < 0:
            raise GraphValidationError("node_count must be non-negative")
        pairs = _pair_array(edges, node_count)
        labels = tuple(range(node_count) if labels is None else labels)
        if len(labels) != node_count:
            raise GraphValidationError("labels length must equal node_count")
        tails, heads = np.divmod(
            np.unique(pairs[:, 0] * node_count + pairs[:, 1]),
            max(node_count, 1))
        # Edge ids grow with the tail, so a stable sort by head keeps each
        # node's parents ascending.
        in_edges = np.argsort(heads, kind="stable")
        in_ptr = np.searchsorted(heads, np.arange(node_count + 1),
                                 sorter=in_edges)
        fields = {
            "node_count": node_count,
            "edge_count": len(tails),
            "out_ptr": np.searchsorted(tails, np.arange(node_count + 1)),
            "tails": tails,
            "heads": heads,
            "in_edges": in_edges,
            "in_ptr": in_ptr,
            "in_degree": np.diff(in_ptr),
            "labels": labels,
            "duplicate_count": int(duplicate_count) + len(pairs) - len(tails),
        }
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DirectedGraph is immutable")

    def __reduce__(self):
        return (DirectedGraph, (self.node_count,
                                np.column_stack((self.tails, self.heads)),
                                self.labels, self.duplicate_count))

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u, v):
        try:
            return self.edge_id(u, v) >= 0
        except KeyError:
            return False

    def edge_id(self, u, v):
        """Position of edge (u, v) in the canonical edge order; raises
        ``KeyError`` if (u, v) is not an edge."""
        if 0 <= u < self.node_count:
            lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
            e = lo + np.searchsorted(self.heads[lo:hi], v)
            if e < hi and self.heads[e] == v:
                return int(e)
        raise KeyError((u, v))

    def __repr__(self):
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


def load_edge_list(text: str) -> DirectedGraph:
    """Parse a UTF-8 edge-list document into a graph.

    One edge per line as ``"u v"`` with any whitespace separator; lines
    beginning with ``#`` are ignored; LF and CRLF both accepted.  External
    ids may be arbitrary non-negative integers and are remapped to dense
    internal ids in order of first appearance.  Duplicate edges are collapsed
    (counted in ``duplicate_count``); self-links are rejected.
    """
    label_index: dict[int, int] = {}
    labels: list[int] = []
    edges = []

    def intern(ext):
        idx = label_index.get(ext)
        if idx is None:
            idx = len(labels)
            label_index[ext] = idx
            labels.append(ext)
        return idx

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected two node ids, got {len(parts)} fields", lineno)
        try:
            ue, ve = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"node ids must be integers: {line!r}", lineno) from None
        if ue < 0 or ve < 0:
            raise EdgeListParseError("node ids must be non-negative", lineno)
        if ue == ve:
            raise GraphValidationError(
                f"line {lineno}: self-link ({ue}, {ve}) is not allowed")
        edges.append((intern(ue), intern(ve)))
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return DirectedGraph(len(labels), pairs, labels=labels)


def dumps_edge_list(g: DirectedGraph) -> str:
    """Serialize a graph back to edge-list text using its external ids."""
    lines = [f"{g.labels[u]} {g.labels[v]}"
             for u, v in zip(g.tails.tolist(), g.heads.tolist())]
    return "\n".join(lines) + ("\n" if lines else "")


def mean_out_degree(g: DirectedGraph) -> float:
    """Average out-degree |E| / |V|.

    Undefined (raises) for a graph with no nodes or no edges.
    """
    if g.node_count == 0 or g.edge_count == 0:
        raise GraphValidationError("mean out-degree undefined: graph has no edges")
    return g.edge_count / g.node_count


# -- synthetic graphs -----------------------------------------------------


def erdos_renyi(n: int, p_edge: float, seed: int) -> DirectedGraph:
    """Directed G(n, p): each ordered pair (u, v), u != v, is an edge w.p. p."""
    if n < 2:
        raise GraphValidationError("erdos-renyi requires n >= 2")
    if not 0.0 <= p_edge <= 1.0:
        raise GraphValidationError("p_edge must lie in [0, 1]")
    rng = derive_rng(seed, "erdos-renyi", n, p_edge)
    rand = rng.random
    edges = []
    if p_edge > 0.0:
        for u in range(n):
            for v in range(n):
                if u != v and rand() < p_edge:
                    edges.append((u, v))
    return DirectedGraph(n, np.array(edges, dtype=np.intp).reshape(-1, 2))


def preferential_attachment(n: int, m: int, seed: int) -> DirectedGraph:
    """Bidirectional preferential-attachment graph.

    Grows from ``m`` initial nodes; every new node attaches to ``m`` distinct
    existing nodes chosen proportionally to their current degree.  Each
    undirected attachment contributes both directed edges, so the result is
    bidirectionally connected.
    """
    if n < 2:
        raise GraphValidationError("preferential-attachment requires n >= 2")
    if not 1 <= m < n:
        raise GraphValidationError("requires 1 <= m < n")
    rng = derive_rng(seed, "preferential-attachment", n, m)
    # Repeated-endpoints urn: picking uniformly from it is degree-proportional.
    urn: list[int] = []
    undirected = []
    # Seed star over the first m+1 nodes so the urn is non-empty and connected.
    for v in range(1, m + 1):
        undirected.append((0, v))
        urn.extend((0, v))
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(urn[rng.randrange(len(urn))])
        for t in sorted(targets):
            undirected.append((new, t))
            urn.extend((new, t))
    edges = []
    for a, b in undirected:
        edges.append((a, b))
        edges.append((b, a))
    return DirectedGraph(n, np.array(edges, dtype=np.intp).reshape(-1, 2))

