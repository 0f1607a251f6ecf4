"""Influence-degree estimation: how many nodes a single seed activates.

Two estimators are provided.  The percolation estimator samples random
"live-edge" worlds whose reachability distribution matches the final active
set of the diffusion process (delay parameters do not change final sets, so
they never enter): the cascade model keeps each link alive independently
with its diffusion probability, while the threshold model lets every node
keep at most one incoming link, chosen with its weight.  Worlds are
processed in blocks: each world draws from its own substream, and a block is
stacked into one block-diagonal live graph solved with array operations.
The direct estimator simply runs the full continuous-time simulation many
times per seed; it is the slow oracle the percolation shortcut is validated
against.  Only the percolation solver uses scipy, and it imports scipy on
its first call, so the direct estimator never loads it.

Both estimators run their ranges of worlds or seed nodes through one
driver, ``_run_ranges``.  Every world and node draws from its own
substream, so results depend neither on the block size nor on ``threads``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .params import DelayMode, check_model
from .rng import derive_generator, derive_rng
from .simulate import _RUNS, _RunTables


@dataclass
class InfluenceTable:
    """Per-node expected final active-set size, with standard errors.

    ``mean_stderr`` is the standard error of the graph-mean influence degree;
    for the percolation estimator the per-world correlation between nodes is
    accounted for.
    """

    sigma: np.ndarray
    stderr: np.ndarray
    samples: int
    method: str
    model: str
    mean_stderr: float = 0.0

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)


def _aslt_choice_tables(g, params):
    """Cumulative in-weights for vectorized sampling, aligned with
    ``g.in_edges``: node v's entries ``g.in_ptr[v]:g.in_ptr[v+1]`` hold its
    running weight sums in parent order, capped at 1 and offset by 2v so
    each node owns a disjoint value range.  Step j adds the j-th in-weight
    of every node with more than j parents to its running sum."""
    cum = params.edge_values(g, DelayMode.LINK)[0][g.in_edges]
    for j in range(1, int(g.in_degree.max(initial=0))):
        pos = g.in_ptr[np.flatnonzero(g.in_degree > j)] + j
        cum[pos] += cum[pos - 1]
    return 2.0 * g.heads[g.in_edges] + np.minimum(cum, 1.0)


# Worlds are solved in blocks whose working set stays near _BLOCK_BYTES: per
# node, its reachable-set bitset row plus about _NODE_BYTES of graph,
# component and size arrays.  The results do not depend on the block size.
_BLOCK_BYTES = 1 << 20
_NODE_BYTES = 128


def _block_reachable_sizes(n, worlds, world, live_u, live_v):
    """Forward-reachable set size of every node in a block of live worlds.

    Live edge i runs ``live_u[i] -> live_v[i]`` in world ``world[i]`` (node
    ids ``0..n-1``, worlds ``0..worlds-1``).  The worlds are stacked into one
    block-diagonal graph, so a single strongly-connected-components call
    covers all of them (components share their reachable set).  Returns a
    ``(worlds, n)`` integer array of sizes.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    size = worlds * n
    gu = world * n + live_u
    gv = world * n + live_v
    by_tail = np.argsort(gu, kind="stable")
    indptr = np.searchsorted(gu[by_tail], np.arange(size + 1))
    adj = sparse.csr_matrix(
        (np.ones(len(gu), dtype=np.int8), gv[by_tail], indptr),
        shape=(size, size))
    ncc, labels = connected_components(adj, directed=True,
                                       connection="strong")
    # Condensation edges; a repeated one only repeats an OR below.
    dag_u = labels[gu]
    dag_v = labels[gv]
    keep = dag_u != dag_v
    dag_u = dag_u[keep]
    dag_v = dag_v[keep]

    # Member bitsets, packed 64 nodes per word.  A component never spans
    # two worlds, so a node's bit is its id within its world.
    node = np.arange(n, dtype=np.uint64)
    member = np.zeros((ncc, (n + 63) >> 6), dtype=np.uint64)
    np.bitwise_or.at(member, (labels.reshape(worlds, n),
                              (node >> np.uint64(6)).astype(np.intp)),
                     np.uint64(1) << (node & np.uint64(63)))

    # Level of a component: the longest path reaching it from a source of
    # the condensation (Kahn's order, one level at a time).  A child sits on
    # a deeper level than each of its parents, so folding the levels from
    # the deepest up ORs only final reachable sets into each parent.
    indeg = np.bincount(dag_v, minlength=ncc)
    ready = indeg == 0
    level_edges = []
    while True:
        edges = np.flatnonzero(ready[dag_u])
        if not edges.size:
            break
        level_edges.append(edges)
        indeg[ready] = -1
        np.subtract.at(indeg, dag_v[edges], 1)
        ready = indeg == 0
    for edges in reversed(level_edges):
        np.bitwise_or.at(member, dag_u[edges], member[dag_v[edges]])
    counts = np.bitwise_count(member).sum(axis=1, dtype=np.int64)
    return counts[labels].reshape(worlds, n)


def _percolation_partial(g, model, params, rng_seed, lo, hi):
    """Sums of sizes and of squared sizes over worlds [lo, hi), and the
    mean size of each world.

    World w draws from its own substream ``(rng_seed, "percolation", w)``.
    Worlds are processed in blocks of a fixed memory budget.  The sums hold
    integers, so the result does not depend on the block size.
    """
    n = g.node_count
    if model == "asic":
        live_p = params.edge_values(g, DelayMode.LINK)[0]
        width = len(live_p)
    else:
        flat_cum = _aslt_choice_tables(g, params)
        parent_nodes = np.flatnonzero(g.in_degree)
        seg_end = g.in_ptr[parent_nodes + 1]
        width = len(parent_nodes)
    row_bytes = 8 * ((n + 63) >> 6)
    block = max(1, _BLOCK_BYTES // max(1, n * (row_bytes + _NODE_BYTES)))
    total = np.zeros(n)
    total_sq = np.zeros(n)
    wmeans = np.empty(hi - lo)
    for b_lo in range(lo, hi, block):
        worlds = min(block, hi - b_lo)
        draws = np.empty((worlds, width))
        for j in range(worlds):
            rng = derive_generator(rng_seed, "percolation", b_lo + j)
            rng.random(out=draws[j])
        if model == "asic":
            world, chosen = np.nonzero(draws < live_p)
        else:
            draw = 2.0 * parent_nodes + draws
            pos = np.searchsorted(flat_cum, draw, side="left")
            hit = pos < seg_end
            world = np.nonzero(hit)[0]
            chosen = g.in_edges[pos[hit]]
        sizes = _block_reachable_sizes(n, worlds, world, g.tails[chosen],
                                       g.heads[chosen])
        total += sizes.sum(axis=0)
        total_sq += (sizes * sizes).sum(axis=0)
        wmeans[b_lo - lo:b_lo - lo + worlds] = sizes.mean(axis=1)
    return total, total_sq, wmeans


def _mc_partial(g, model, params, delay, samples, rng_seed, node_lo, node_hi):
    """Per-node mean/variance of simulated cascade sizes for a node slice."""
    tables = _RunTables(g, model, params, delay)
    run = _RUNS[model]
    width = node_hi - node_lo
    sigma = np.zeros(width)
    stderr = np.zeros(width)
    for i, v in enumerate(range(node_lo, node_hi)):
        rng = derive_rng(rng_seed, "direct-mc", v)
        seeds = [v]
        tot = 0.0
        tot_sq = 0.0
        for _ in range(samples):
            size = len(run(tables, delay, seeds, rng))
            tot += size
            tot_sq += size * size
        mean = tot / samples
        var = max(tot_sq / samples - mean * mean, 0.0)
        sigma[i] = mean
        stderr[i] = math.sqrt(var / samples)
    return sigma, stderr


def _run_ranges(fn, args, total, threads):
    """``fn(*args, lo, hi)`` over ranges that cover ``[0, total)``, with
    the results in range order.

    With ``threads == 1``, or when the pool would get one worker, one
    range runs in this process.  Otherwise about four ranges per thread go
    to a process pool of min(threads, CPU count, number of ranges) workers:
    a fork start forks every worker at the first submit.
    """
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    per = max(1, -(-total // (threads * 4)))
    ranges = [(lo, min(lo + per, total)) for lo in range(0, total, per)]
    workers = min(threads, os.cpu_count() or 1, len(ranges))
    if workers <= 1:
        return [fn(*args, 0, total)]
    # Imported here: the serial path never pays for it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in ranges]
        return [fut.result() for fut in futures]


def influence_percolation(g, model: str, params, samples: int, rng_seed,
                          threads: int = 1) -> InfluenceTable:
    """Estimate influence degrees from ``samples`` live-edge worlds.

    Every world yields the reachable-set size of all nodes at once (strongly
    connected components of the live subgraph share their reachable set).
    World substreams are indexed and world means are summed in world order,
    so results do not depend on the block size or on ``threads``.
    """
    if samples < 1:
        raise ParameterError("samples must be at least 1")
    check_model(model, params)
    totals, squares, means = zip(*_run_ranges(
        _percolation_partial, (g, model, params, rng_seed), samples, threads))
    # The sums hold integers, so they are exact in any order.
    total, total_sq = sum(totals), sum(squares)
    wmean_sum = 0.0
    wmean_sq = 0.0
    for wm in np.concatenate(means).tolist():
        wmean_sum += wm
        wmean_sq += wm * wm
    sigma = total / samples
    var = np.maximum(total_sq / samples - sigma * sigma, 0.0)
    stderr = np.sqrt(var / samples)
    wm = wmean_sum / samples
    wvar = max(wmean_sq / samples - wm * wm, 0.0)
    return InfluenceTable(sigma, stderr, samples, "percolation", model,
                          mean_stderr=math.sqrt(wvar / samples))


def influence_direct_mc(g, model: str, params, delay: DelayMode,
                        samples: int, rng_seed,
                        threads: int = 1) -> InfluenceTable:
    """Estimate influence degrees by full continuous-time simulation.

    Runs ``samples`` independent cascades seeded at each node and averages
    the final cascade sizes.  Node substreams are indexed, so results do not
    depend on ``threads``.
    """
    if samples < 1:
        raise ParameterError("samples must be at least 1")
    check_model(model, params)
    n = g.node_count
    sigmas, stderrs = zip(*_run_ranges(
        _mc_partial, (g, model, params, delay, samples, rng_seed), n, threads))
    sigma, stderr = np.concatenate(sigmas), np.concatenate(stderrs)
    # Runs are independent across nodes, so the mean's variance is additive.
    mean_se = math.sqrt(float((stderr ** 2).sum())) / n
    return InfluenceTable(sigma, stderr, samples, "direct-mc", model,
                          mean_stderr=mean_se)


class CumulativeInfluence:
    """Step function f(x) = fraction of nodes whose influence degree is >= x."""

    def __init__(self, sigma):
        self._sorted = np.sort(np.asarray(sigma, dtype=float))
        self._n = len(self._sorted)

    def __call__(self, x):
        if self._n == 0:
            raise ParameterError("empty influence table")
        idx = np.searchsorted(self._sorted, x, side="left")
        return float(self._n - idx) / self._n


def cumulative_influence(table: InfluenceTable) -> CumulativeInfluence:
    return CumulativeInfluence(table.sigma)
