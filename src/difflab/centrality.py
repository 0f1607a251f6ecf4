"""Topology-only node-ranking heuristics and ranking comparison.

These are the standard baselines influence rankings are compared against:
out-degree, closeness (reciprocal mean distance), betweenness (number of
shortest paths passing through a node), and the random-surfer stationary
distribution.  All operate on unit edge lengths and take no options; the
random surfer's jump probability and stopping rule are module constants.
Betweenness and the random surfer run on scipy sparse matrices, and import
scipy on their first call; out-degree, closeness (a bit-parallel sweep in
numpy) and the ranking helpers never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import GraphValidationError, ParameterError

METRICS = ("outdegree", "closeness", "betweenness", "pagerank")


@dataclass
class RankedList:
    """Nodes ordered by descending score; ties broken by ascending node id."""

    order: np.ndarray
    scores: np.ndarray

    def top_k(self, k):
        return set(int(v) for v in self.order[:k])


def rank_by_score(scores) -> RankedList:
    scores = np.asarray(scores, dtype=float)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return RankedList(order=order, scores=scores)


def _adjacency(g):
    """Unit-weight CSR adjacency over the graph's out-CSR index."""
    from scipy import sparse
    n = g.node_count
    return sparse.csr_matrix((np.ones(g.edge_count), g.heads, g.out_ptr),
                             shape=(n, n))


def outdegree_scores(g):
    return np.diff(g.out_ptr).astype(float)


# Betweenness sweeps sources in blocks whose working set stays near
# _BLOCK_BYTES.  Per source, a block holds a depth row, an accumulator row and
# the BFS-level entries (about _NODE_BYTES per node), and one level's sparse
# product with its temporaries: at most one product term per edge, about
# _EDGE_BYTES each.  Closeness sweeps 64-target words in blocks under the same
# budget (see _word_blocks).  The scores do not depend on the block size.
_BLOCK_BYTES = 1 << 24
_NODE_BYTES = 32
_EDGE_BYTES = 24


def _source_blocks(adj):
    n = adj.shape[0]
    per_source = _NODE_BYTES * n + _EDGE_BYTES * adj.nnz
    block = max(1, _BLOCK_BYTES // max(1, per_source))
    return [(lo, min(lo + block, n)) for lo in range(0, n, block)]


def _word_blocks(g):
    """Blocks of 64-target words for ``closeness_scores``.  Per word, a block
    holds the reach, frontier and next rows (8 bytes per node each) and the
    gathered child rows (8 bytes per edge)."""
    words = -(-g.node_count // 64)
    per_word = 8 * (3 * g.node_count + g.edge_count)
    block = max(1, _BLOCK_BYTES // per_word)
    return [(lo, min(lo + block, words)) for lo in range(0, words, block)]


def _csr(b, n, r, c, data):
    """A ``(b, n)`` sparse matrix from entries listed in row order."""
    from scipy import sparse
    indptr = np.zeros(b + 1, dtype=np.intp)
    np.cumsum(np.bincount(r, minlength=b), out=indptr[1:])
    return sparse.csr_matrix((data, c, indptr), shape=(b, n))


def _entries(m):
    """Row, column and value arrays of a sparse matrix, in row order."""
    r = np.repeat(np.arange(m.shape[0], dtype=np.int32), np.diff(m.indptr))
    return r, m.indices, m.data


def _bfs(adj, lo, hi):
    """Level-synchronous BFS from the sources ``lo..hi-1`` at once.

    Returns ``(depth, levels)``.  ``depth[i, v]`` is the distance from source
    ``lo + i`` to v (-1 when unreachable).  ``levels[k]`` lists the pairs at
    distance k as row, node and sigma (shortest-path count) arrays.  One
    sparse product per level extends the frontier's path counts by one edge;
    the new frontier is the product masked to unvisited pairs.
    """
    n = adj.shape[0]
    b = hi - lo
    depth = np.full((b, n), -1, dtype=np.int32)
    r = np.arange(b, dtype=np.int32)
    c = r + lo
    sigma = np.ones(b)
    depth[r, c] = 0
    levels = []
    while len(r):
        levels.append((r, c, sigma))
        r, c, sigma = _entries(_csr(b, n, r, c, sigma) @ adj)
        new = depth[r, c] < 0
        r, c, sigma = r[new], c[new], sigma[new]
        depth[r, c] = len(levels)
    return depth, levels


def closeness_scores(g):
    """Reciprocal of the mean distance to all other nodes.

    Unreachable pairs count distance |V|: a finite surrogate that keeps the
    ordering meaningful on disconnected graphs.

    A bit-parallel, level-synchronous sweep over all sources at once (the
    multi-source BFS of Then et al., VLDB 2014).  Row u holds a ``uint64``
    bitset of the targets within k steps of u, starting at {u}.  Each level
    ORs the children's previous frontier rows into u's row; the bits not
    reached before are the next frontier, and their count is the number of
    targets at distance k.  Distance totals are exact integers, so scores
    equal a per-source BFS's to the bit.  O(diameter·(|V|+|E|)·|V|/64) time,
    over the target-word blocks of ``_word_blocks``.
    """
    n = g.node_count
    if n == 1:
        return np.zeros(1)
    # reduceat misreads empty segments: sweep only nodes with children
    parents = np.flatnonzero(np.diff(g.out_ptr))
    starts = g.out_ptr[parents]
    dist_sum = np.zeros(n, dtype=np.int64)
    reached = np.ones(n, dtype=np.int64)  # every node reaches itself
    for lo, hi in _word_blocks(g):
        reach = np.zeros((n, hi - lo), dtype=np.uint64)
        own = np.arange(64 * lo, min(64 * hi, n))
        reach[own, (own >> 6) - lo] = np.left_shift(
            np.uint64(1), (own & 63).astype(np.uint64))
        frontier = reach.copy()
        for k in range(1, n):
            new = np.zeros_like(reach)
            new[parents] = np.bitwise_or.reduceat(frontier[g.heads], starts,
                                                  axis=0)
            new &= ~reach
            count = np.bitwise_count(new).sum(axis=1, dtype=np.int64)
            if not count.any():
                break
            reach |= new
            dist_sum += k * count
            reached += count
            frontier = new
    total = dist_sum + n * (n - reached)
    return 1.0 / np.maximum(total / (n - 1), 1e-300)


def betweenness_scores(g, normalized=False):
    """Shortest paths (over ordered node pairs) passing through a node.

    The default is a raw path count.  With ``normalized=True`` each pair
    (s, t) instead contributes the fraction of its shortest paths through
    the node, so both common readings of the measure are available; the
    two orderings usually agree closely.  Endpoints are excluded: a path
    s -> ... -> v -> ... -> t counts for v only when v differs from both
    s and t.

    Brandes accumulation (Brandes 2001, J. Math. Sociol. 25:163) over a
    blocked BFS: O(|V|·|E|) time, memory bounded by one block of sources,
    and scores independent of the block size.  After the forward BFS, one
    backward sparse product per level walks each source's shortest-path
    DAG from the deepest level up.  The raw count of s's shortest paths
    leaving v is P(v) = sum over DAG children w of (1 + P(w)), and v gains
    sigma_sv * P(v); path counts are integers, so the raw sums are exact
    below 2**53.  The normalized reading accumulates Brandes' dependency
    delta(v) = sum over children w of sigma_sv / sigma_sw * (1 + delta(w)).
    """
    n = g.node_count
    adj = _adjacency(g)
    adj_t = adj.T.tocsr()
    scores = np.zeros(n)
    for lo, hi in _source_blocks(adj):
        depth, levels = _bfs(adj, lo, hi)
        b = hi - lo
        acc = np.zeros((b, n))
        below = None
        for k in range(len(levels) - 1, 0, -1):
            r, c, sigma = levels[k]
            if below is not None:
                # pull the level below back to its DAG parents at level k
                ur, uc, up = _entries(below @ adj_t)
                hit = depth[ur, uc] == k
                acc[ur[hit], uc[hit]] = up[hit]
            pulled = acc[r, c]
            value = sigma * pulled
            acc[r, c] = value
            term = (1.0 + value) / sigma if normalized else 1.0 + pulled
            below = _csr(b, n, r, c, term)
        # one source at a time, so float sums do not depend on the block
        for row in acc:
            scores += row
    return scores


_JUMP = 0.15
_TOLERANCE = 1e-10
_MAX_ITERATIONS = 100_000


def pagerank_scores(g):
    """Stationary vector of the random surfer with uniform-jump probability
    ``_JUMP``.

    Power iteration until the L1 residual drops to ``_TOLERANCE``.
    Dangling-node mass is redistributed uniformly.
    """
    from scipy import sparse
    n = g.node_count
    adj = _adjacency(g)
    out_deg = np.asarray(adj.sum(axis=1)).ravel()
    dangling = out_deg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1.0))
    transition = sparse.diags(inv) @ adj  # row-stochastic on non-dangling rows
    transition_t = transition.T.tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(_MAX_ITERATIONS):
        spread = transition_t @ x + x[dangling].sum() / n
        x_new = (1.0 - _JUMP) * spread + _JUMP / n
        if np.abs(x_new - x).sum() <= _TOLERANCE:
            x = x_new
            break
        x = x_new
    return x


def centrality(g, metric: str) -> RankedList:
    """Rank all nodes by the requested topology-only score."""
    if g.node_count == 0:
        raise GraphValidationError("centrality undefined on an empty graph")
    if metric == "outdegree":
        scores = outdegree_scores(g)
    elif metric == "closeness":
        scores = closeness_scores(g)
    elif metric == "betweenness":
        scores = betweenness_scores(g)
    elif metric == "pagerank":
        scores = pagerank_scores(g)
    else:
        raise ParameterError(f"unknown centrality metric {metric!r}")
    return rank_by_score(scores)


def ranking_similarity(truth: RankedList, candidate: RankedList,
                       k: int) -> float:
    """Fraction of the true top-k nodes recovered by the candidate ranking."""
    if k < 1 or k > len(truth.order) or k > len(candidate.order):
        raise ParameterError(f"k={k} out of range for these rankings")
    return len(truth.top_k(k) & candidate.top_k(k)) / k
