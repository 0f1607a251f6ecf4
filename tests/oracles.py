"""Independent reference implementations used as test oracles.

Everything here is written from the model definitions with naive loops and
plain dict/list data, deliberately sharing no code with the package: direct
sum-of-products densities, a from-scratch total log-likelihood for both
models, exhaustive live-edge world enumeration, and brute-force shortest-path
enumeration.

The sufficient-statistics section keeps the package's earlier per-entry
loop that built the EM statistics; the vectorised builder must reproduce
every array of it byte for byte.  The dense all-pairs centrality section
keeps the package's earlier betweenness and closeness; the blocked-BFS
versions must reproduce the raw counts and the closeness scores bit for
bit.  The last section keeps the package's earlier per-world percolation
loop and its earlier closure-based simulator loops.  The faster versions
must reproduce them bit for bit: same draws in the same order, same sums.
The selection section keeps the earlier scalar shared-mode EM loop and the
per-topic cutoff loop; lockstep selection must match them to rel 1e-9.
The per-link threshold-model section keeps the earlier E and M passes that
list every never-active parent, and a fitting loop over them; the
closed-form passes must match them to rel 1e-12 per pass and rel 1e-9 over
a fit.
"""

import itertools
import math
from heapq import heappop, heappush

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, shortest_path


# -- graph structure, read off the CSR arrays ---------------------------------


def edge_list(g):
    """The links of ``g`` as ``(u, v)`` pairs, in edge id order."""
    return list(zip(g.tails.tolist(), g.heads.tolist()))


def parents(g, v):
    """The parents of node ``v``, ascending."""
    return g.tails[g.in_edges[g.in_ptr[v]:g.in_ptr[v + 1]]].tolist()


def children(g, u):
    """The children of node ``u``, ascending."""
    return g.heads[g.out_ptr[u]:g.out_ptr[u + 1]].tolist()


# -- direct density/likelihood transcriptions --------------------------------


def x_asic(p, r, dt):
    return p * r * math.exp(-r * dt)


def y_asic(p, r, dt):
    return p * math.exp(-r * dt) + (1.0 - p)


def h_asic_sum_of_products(parent_gaps, p_list, r_list):
    """Naive first-form density: sum over the firing parent of X * prod(Y)."""
    total = 0.0
    n = len(parent_gaps)
    for j in range(n):
        term = x_asic(p_list[j], r_list[j], parent_gaps[j])
        for i in range(n):
            if i != j:
                term *= y_asic(p_list[i], r_list[i], parent_gaps[i])
        total += term
    return total


def loglik_asic_direct(parents, children, events_list, p_of, r_of,
                       horizon_mode="infinite", horizons=None):
    """Direct cascade-model log-likelihood.

    parents/children: dicts node -> list of neighbors; events_list: one dict
    node -> time per cascade; p_of/r_of: callables (u, v) -> value.
    """
    total = 0.0
    for m, times in enumerate(events_list):
        if not times:
            continue
        t0 = min(times.values())
        for v, tv in times.items():
            # activation density
            if tv == t0:
                h = 1.0
            else:
                eff = [u for u in parents.get(v, [])
                       if u in times and times[u] < tv]
                h = 0.0
                for j, u in enumerate(eff):
                    term = x_asic(p_of(u, v), r_of(u, v), tv - times[u])
                    for z in eff:
                        if z != u:
                            term *= y_asic(p_of(z, v), r_of(z, v),
                                           tv - times[z])
                    h += term
            # survival of inactive children
            gv = 1.0
            for w in children.get(v, []):
                if w in times:
                    continue
                if horizon_mode == "infinite":
                    gv *= 1.0 - p_of(v, w)
                else:
                    gv *= y_asic(p_of(v, w), r_of(v, w), horizons[m] - tv)
            if h == 0.0 or gv == 0.0:
                return -math.inf
            total += math.log(h) + math.log(gv)
    return total


def loglik_aslt_direct(parents, children, events_list, horizons,
                       q_of, slack_of, r_of):
    """Direct threshold-model log-likelihood."""
    total = 0.0
    for m, times in enumerate(events_list):
        if not times:
            continue
        t0 = min(times.values())
        horizon = horizons[m]
        for v, tv in times.items():
            if tv == t0:
                continue
            eff = [u for u in parents.get(v, [])
                   if u in times and times[u] < tv]
            h = 0.0
            for u in eff:
                h += q_of(u, v) * r_of(u, v) * math.exp(
                    -r_of(u, v) * (tv - times[u]))
            if h == 0.0:
                return -math.inf
            total += math.log(h)
        # frontier: inactive nodes with an active parent
        frontier_nodes = set()
        for u in times:
            for w in children.get(u, []):
                if w not in times:
                    frontier_nodes.add(w)
        for v in frontier_nodes:
            gv = slack_of(v)
            for u in parents.get(v, []):
                if u in times:
                    gv += q_of(u, v) * math.exp(
                        -r_of(u, v) * (horizon - times[u]))
                else:
                    gv += q_of(u, v)
            if gv == 0.0:
                return -math.inf
            total += math.log(gv)
    return total


def link_accessors(g, params):
    """``(strength_of(u, v), rate_of(u, v), slack_of(v))`` read from the
    fields of ``params``: shared scalars, or per-link arrays indexed by
    ``g.edge_id``.  A shared weight q splits as q / |B(v)| and leaves slack
    1 - q on a node with parents.  Under node delay a per-link rate file
    gives every in-link of v the same rate, so ``rate_of(u, v)`` serves
    all three delay modes."""
    strength = params.p if hasattr(params, "p") else params.q
    if params.mode == "shared":
        def strength_of(u, v):
            if hasattr(params, "p"):
                return strength
            return strength / len(parents(g, v))

        def slack_of(v):
            return 1.0 - strength if parents(g, v) else 1.0

        return strength_of, lambda u, v: params.r, slack_of

    def strength_of(u, v):
        return float(strength[g.edge_id(u, v)])

    def slack_of(v):
        return max(0.0, 1.0 - sum(strength_of(u, v) for u in parents(g, v)))

    return (strength_of, lambda u, v: float(params.r[g.edge_id(u, v)]),
            slack_of)


def loglik_direct(model, g, params, data, horizon_mode="infinite"):
    """The direct log-likelihood of ``data`` (a list of cascades) on graph
    ``g`` under link-delay ``params`` of either model, read through
    ``link_accessors``."""
    up = {v: parents(g, v) for v in range(g.node_count)}
    down = {v: children(g, v) for v in range(g.node_count)}
    events = [dict(c.events) for c in data]
    horizons = [c.horizon for c in data]
    strength_of, r_of, slack_of = link_accessors(g, params)
    if model == "asic":
        return loglik_asic_direct(up, down, events, strength_of,
                                  r_of, horizon_mode, horizons)
    return loglik_aslt_direct(up, down, events, horizons,
                              strength_of, slack_of, r_of)


def frontier(g, c):
    """Inactive nodes of cascade ``c`` with at least one active parent."""
    times = dict(c.events)
    return {w for u in times for w in children(g, u) if w not in times}


# -- exhaustive live-edge expectation ----------------------------------------


def reachable_from(n, edges, source):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in adj.get(u, []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def exact_sigma_asic(n, edges, p_of):
    """Expected reachable-set sizes by enumerating every live-edge world."""
    edges = list(edges)
    sigma = [0.0] * n
    for mask in itertools.product([0, 1], repeat=len(edges)):
        prob = 1.0
        live = []
        for bit, (u, v) in zip(mask, edges):
            pe = p_of(u, v)
            prob *= pe if bit else (1.0 - pe)
            if bit:
                live.append((u, v))
        if prob == 0.0:
            continue
        for s in range(n):
            sigma[s] += prob * len(reachable_from(n, live, s))
    return sigma


def exact_sigma_aslt(n, edges, q_of):
    """Expected reachable sizes when each node keeps at most one in-edge."""
    in_edges = {v: [] for v in range(n)}
    for u, v in edges:
        in_edges[v].append((u, v))
    choices = []
    for v in range(n):
        opts = [(None, 1.0 - sum(q_of(u, w) for u, w in in_edges[v]))]
        opts.extend(((u, v), q_of(u, v)) for u, _ in in_edges[v])
        choices.append(opts)
    sigma = [0.0] * n
    for combo in itertools.product(*choices):
        prob = 1.0
        live = []
        for edge, pe in combo:
            prob *= pe
            if edge is not None:
                live.append(edge)
        if prob <= 0.0:
            continue
        for s in range(n):
            sigma[s] += prob * len(reachable_from(n, live, s))
    return sigma


# -- random data generation ----------------------------------------------------


def random_consistent_cascades(g, rng, count):
    """Random cascades in which every non-initial event has an earlier
    active parent, so no model assigns them probability zero.

    Returns (cascade_tuples, event_dicts, horizons) where cascade_tuples are
    (events, horizon) pairs ready for Cascade construction.
    """
    out, event_dicts, horizons = [], [], []
    for _ in range(count):
        times = {}
        seed = rng.randrange(g.node_count)
        times[seed] = 0.0
        t = 0.0
        for _ in range(rng.randrange(0, g.node_count * 2)):
            candidates = [v for v in range(g.node_count)
                          if v not in times
                          and any(u in times for u in parents(g, v))]
            if not candidates:
                break
            v = candidates[rng.randrange(len(candidates))]
            earliest = min(times[u] for u in parents(g, v) if u in times)
            t = max(t, earliest) + rng.uniform(0.05, 1.0)
            times[v] = t
        horizon = t + rng.uniform(0.5, 3.0)
        out.append((list(times.items()), horizon))
        event_dicts.append(dict(times))
        horizons.append(horizon)
    return out, event_dicts, horizons


# -- reference sufficient-statistics loop --------------------------------------


class ZeroProbabilityEvent(Exception):
    """An activation with no earlier active parent (the message matches the
    package's estimation error)."""


def em_stats_loop(g, data, model):
    """The EM statistics of ``em._Stats``, one entry at a time.

    Returns a dict of the builder's fields (the graph aside); raises
    ``ZeroProbabilityEvent`` where the builder raises its estimation error.
    """
    edge_index = {e: i for i, e in enumerate(edge_list(g))}
    dts, groups, links, group_m, group_node = [], [], [], [], []
    fail_edges, fail_dts, fail_ms = [], [], []
    f_dts, f_groups, f_links = [], [], []
    f_group_nb, f_group_k, f_group_node, f_group_m = [], [], [], []
    i_links, i_groups = [], []
    for m, c in enumerate(data):
        times = dict(c.events)
        if not c.events:
            continue
        t0 = c.events[0][1]
        for v, tv in c.events:
            if tv == t0:
                continue
            gid = len(group_m)
            opened = False
            for u in parents(g, v):
                tu = times.get(u)
                if tu is None or tu >= tv:
                    continue
                dts.append(tv - tu)
                groups.append(gid)
                links.append(edge_index[(u, v)])
                opened = True
            if not opened:
                raise ZeroProbabilityEvent(
                    f"cascade {m}: node {v} activated at t={tv} with no "
                    f"possible activator (zero-probability event)")
            group_m.append(m)
            group_node.append(v)
        horizon = c.horizon
        if model == "asic":
            for u, tu in c.events:
                for w in children(g, u):
                    if w not in times:
                        fail_edges.append(edge_index[(u, w)])
                        fail_dts.append(horizon - tu)
                        fail_ms.append(m)
            continue
        front = {w for u in times for w in children(g, u) if w not in times}
        for v in sorted(front):
            fgid = len(f_group_m)
            k = 0
            for u in parents(g, v):
                tu = times.get(u)
                if tu is None:
                    i_links.append(edge_index[(u, v)])
                    i_groups.append(fgid)
                    continue
                f_dts.append(horizon - tu)
                f_groups.append(fgid)
                f_links.append(edge_index[(u, v)])
                k += 1
            f_group_nb.append(len(parents(g, v)))
            f_group_k.append(k)
            f_group_node.append(v)
            f_group_m.append(m)
    ints = dict(dtype=np.intp)
    floats = dict(dtype=np.float64)
    out = {
        "dt": np.asarray(dts, **floats),
        "group": np.asarray(groups, **ints),
        "link": np.asarray(links, **ints),
        "n_groups": len(group_m),
        "group_m": np.asarray(group_m, **ints),
        "group_node": np.asarray(group_node, **ints),
        "group_nb": np.asarray([len(parents(g, v)) for v in group_node],
                               **floats),
        "fail_edges": np.asarray(fail_edges, **ints),
        "fail_dt": np.asarray(fail_dts, **floats),
        "fail_m": np.asarray(fail_ms, **ints),
        "f_dt": np.asarray(f_dts, **floats),
        "f_group": np.asarray(f_groups, **ints),
        "f_link": np.asarray(f_links, **ints),
        "n_f_groups": len(f_group_m),
        "f_group_nb": np.asarray(f_group_nb, **floats),
        "f_group_k": np.asarray(f_group_k, **floats),
        "f_group_node": np.asarray(f_group_node, **ints),
        "f_group_m": np.asarray(f_group_m, **ints),
        "i_link": np.asarray(i_links, **ints),
        "i_group": np.asarray(i_groups, **ints),
    }
    return out


# -- brute-force shortest-path counting ---------------------------------------


def all_shortest_paths(adj, s, t):
    """Every shortest s->t path, as node tuples, by iterative deepening BFS."""
    if s == t:
        return [(s,)]
    # breadth-first distance
    dist = {s: 0}
    queue = [s]
    while queue:
        nxt = []
        for u in queue:
            for v in adj.get(u, []):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    if t not in dist:
        return []
    paths = []

    def extend(path):
        u = path[-1]
        if u == t:
            paths.append(tuple(path))
            return
        for v in adj.get(u, []):
            if v in dist and dist[v] == dist[u] + 1 and dist[v] <= dist[t]:
                path.append(v)
                extend(path)
                path.pop()

    extend([s])
    return [p for p in paths if len(p) - 1 == dist[t]]


def betweenness_bruteforce(n, edges, normalized=False):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    scores = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = all_shortest_paths(adj, s, t)
            weight = 1.0 / len(paths) if (normalized and paths) else 1.0
            for path in paths:
                for v in path[1:-1]:
                    scores[v] += weight
    return scores


def closeness_bfs(n, edges):
    """Closeness from plain per-source BFS; unreachable pairs count n."""
    if n == 1:
        return [0.0]
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    scores = []
    for s in range(n):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in adj.get(u, []):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total = sum(dist.values()) + n * (n - len(dist))
        scores.append(1.0 / max(total / (n - 1), 1e-300))
    return scores


# -- reference dense all-pairs centrality ---------------------------------------


def _dense_distances(n, edges):
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    adj = sparse.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                            shape=(n, n))
    return shortest_path(adj, method="D", directed=True, unweighted=True)


def closeness_dense(n, edges):
    """The package's earlier closeness over a dense all-pairs matrix."""
    if n == 1:
        return np.zeros(1)
    dist = _dense_distances(n, edges)
    dist[~np.isfinite(dist)] = n
    np.fill_diagonal(dist, 0.0)
    mean_dist = dist.sum(axis=1) / (n - 1)
    return 1.0 / np.maximum(mean_dist, 1e-300)


def _path_counts_dense(n, edges, dist):
    """counts[s, t] = number of shortest s->t paths (0 when unreachable)."""
    in_adj = [[] for _ in range(n)]
    for u, v in sorted(edges):
        in_adj[v].append(u)
    counts = np.zeros((n, n))
    for s in range(n):
        ds = dist[s]
        counts[s, s] = 1.0
        # Visit nodes by increasing distance; each node's count is the sum
        # over in-neighbors one step closer.
        finite = np.nonzero(np.isfinite(ds))[0]
        order = finite[np.argsort(ds[finite], kind="stable")]
        row = counts[s]
        for v in order:
            dv = ds[v]
            if dv == 0.0:
                continue
            total = 0.0
            for u in in_adj[v]:
                if ds[u] == dv - 1.0:
                    total += row[u]
            row[v] = total
    return counts


def betweenness_dense(n, edges, normalized=False):
    """The package's earlier betweenness: n outer products of dense n x n
    distance and path-count matrices."""
    dist = _dense_distances(n, edges)
    counts = _path_counts_dense(n, edges, dist)
    scores = np.zeros(n)
    through = np.empty((n, n))
    if normalized:
        pair_counts = np.where(counts > 0, counts, 1.0)
    for v in range(n):
        # Paths s->t via v exist iff d(s,v) + d(v,t) = d(s,t); their number
        # is the product of the two leg counts.
        np.add.outer(dist[:, v], dist[v, :], out=through)
        mask = through == dist
        np.multiply.outer(counts[:, v], counts[v, :], out=through)
        through *= mask
        if normalized:
            through /= pair_counts
        through[v, :] = 0.0
        through[:, v] = 0.0
        scores[v] = through.sum()
    return scores


# -- reference percolation and simulator loops --------------------------------


def reachable_sizes_per_world(n, live_u, live_v):
    """Size of the forward-reachable set of every node in one live world."""
    sizes = np.ones(n)
    if len(live_u) == 0:
        return sizes
    incident = np.unique(np.concatenate([live_u, live_v]))
    k = len(incident)
    compact = np.empty(n, dtype=np.intp)
    compact[incident] = np.arange(k)
    cu = compact[live_u]
    cv = compact[live_v]
    adj = sparse.csr_matrix(
        (np.ones(len(cu), dtype=np.int8), (cu, cv)), shape=(k, k))
    ncc, labels = connected_components(adj, directed=True,
                                       connection="strong")
    lu = labels[cu]
    lv = labels[cv]
    keep = lu != lv
    if keep.any():
        pair = np.unique(lu[keep].astype(np.int64) * ncc + lv[keep])
        dag_u = (pair // ncc).astype(np.intp)
        dag_v = (pair % ncc).astype(np.intp)
    else:
        dag_u = dag_v = np.zeros(0, dtype=np.intp)
    words = (k + 63) >> 6
    member = np.zeros((ncc, words), dtype=np.uint64)
    node_idx = np.arange(k)
    np.bitwise_or.at(member, (labels, node_idx >> 6),
                     np.uint64(1) << (node_idx & 63).astype(np.uint64))
    out_lists = [[] for _ in range(ncc)]
    indeg = np.zeros(ncc, dtype=np.intp)
    for a, b in zip(dag_u.tolist(), dag_v.tolist()):
        out_lists[a].append(b)
        indeg[b] += 1
    order = [i for i in range(ncc) if indeg[i] == 0]
    head = 0
    while head < len(order):
        a = order[head]
        head += 1
        for b in out_lists[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                order.append(b)
    for a in reversed(order):
        row = member[a]
        for b in out_lists[a]:
            np.bitwise_or(row, member[b], out=row)
    counts = np.bitwise_count(member).sum(axis=1)
    sizes[incident] = counts[labels]
    return sizes


def percolation_per_world(g, model, params, samples, world_rng, chunks):
    """(sigma, stderr, mean_stderr) from one world at a time.

    ``world_rng(w)`` returns world w's numpy generator; ``chunks`` lists the
    [lo, hi) world ranges whose partial sums are added in order, as worker
    processes would return them.
    """
    n = g.node_count
    edges = edge_list(g)
    edge_u = np.asarray([e[0] for e in edges], dtype=np.intp)
    edge_v = np.asarray([e[1] for e in edges], dtype=np.intp)
    strength_of = link_accessors(g, params)[0]
    if model == "asic":
        live_p = np.asarray([strength_of(u, v) for u, v in edges])
    else:
        ptr = np.zeros(n + 1, dtype=np.intp)
        flat_edge = []
        flat_cum = []
        for v in range(n):
            acc = 0.0
            for u in parents(g, v):
                acc += strength_of(u, v)
                flat_edge.append(edges.index((u, v)))
                flat_cum.append(2.0 * v + min(acc, 1.0))
            ptr[v + 1] = ptr[v] + len(parents(g, v))
        flat_edge = np.asarray(flat_edge, dtype=np.intp)
        flat_cum = np.asarray(flat_cum, dtype=np.float64)
        parent_nodes = np.asarray(
            [v for v in range(n) if parents(g, v)], dtype=np.intp)
        seg_end = ptr[parent_nodes + 1]
    total = np.zeros(n)
    total_sq = np.zeros(n)
    wmean_sum = 0.0
    wmean_sq = 0.0
    for lo, hi in chunks:
        part = np.zeros(n)
        part_sq = np.zeros(n)
        pm = 0.0
        pm_sq = 0.0
        for w in range(lo, hi):
            rng = world_rng(w)
            if model == "asic":
                mask = rng.random(len(live_p)) < live_p
                lu = edge_u[mask]
                lv = edge_v[mask]
            else:
                draw = 2.0 * parent_nodes + rng.random(len(parent_nodes))
                pos = np.searchsorted(flat_cum, draw, side="left")
                hit = pos < seg_end
                chosen = flat_edge[pos[hit]]
                lu = edge_u[chosen]
                lv = edge_v[chosen]
            sizes = reachable_sizes_per_world(n, lu, lv)
            part += sizes
            part_sq += sizes * sizes
            wm = sizes.mean()
            pm += wm
            pm_sq += wm * wm
        total += part
        total_sq += part_sq
        wmean_sum += pm
        wmean_sq += pm_sq
    sigma = total / samples
    var = np.maximum(total_sq / samples - sigma * sigma, 0.0)
    stderr = np.sqrt(var / samples)
    wm = wmean_sum / samples
    wvar = max(wmean_sq / samples - wm * wm, 0.0)
    return sigma, stderr, math.sqrt(wvar / samples)


class ClosureTables:
    """Per-node child, strength (probability or weight) and rate lists."""

    def __init__(self, g, model, params, delay):
        self.children = [children(g, u) for u in range(g.node_count)]
        strength_of, rate_of, _ = link_accessors(g, params)
        self.strength = [[strength_of(u, v) for v in kids]
                         for u, kids in enumerate(self.children)]
        self.rate = [[rate_of(u, v) for v in kids]
                     for u, kids in enumerate(self.children)]


def run_asic_closures(tables, delay, seeds, rng, attempt_log=None):
    """Cascade-model run with a ``try_children`` closure per activation."""
    rand = rng.random
    children = tables.children
    prob = tables.strength
    rate = tables.rate
    active = {}
    events = []
    heap = []
    seq = 0
    node_delay = delay.name != "LINK"
    override = delay.name == "NODE_OVERRIDE"
    committed = set()

    def try_children(u, tu):
        nonlocal seq
        kids = children[u]
        prow = prob[u]
        rrow = rate[u]
        for i in range(len(kids)):
            v = kids[i]
            if v in active:
                continue
            if node_delay and not override and v in committed:
                continue
            if attempt_log is not None:
                attempt_log.append((u, v))
            if rand() < prow[i]:
                delta = -math.log(1.0 - rand()) / rrow[i]
                if node_delay and not override:
                    committed.add(v)
                heappush(heap, (tu + delta, seq, v))
                seq += 1

    for s in seeds:
        active[s] = 0.0
        events.append((s, 0.0))
    for s in seeds:
        try_children(s, 0.0)
    while heap:
        t, _, v = heappop(heap)
        if v in active:
            continue
        active[v] = t
        events.append((v, t))
        try_children(v, t)
    return events


def run_aslt_closures(tables, delay, seeds, rng):
    """Threshold-model run with ``receive``/``activate`` closures."""
    rand = rng.random
    children = tables.children
    weight = tables.strength
    rate = tables.rate
    active = {}
    events = []
    heap = []
    seq = 0
    theta = {}
    acc = {}
    committed = set()
    link_delay = delay.name == "LINK"
    override = delay.name == "NODE_OVERRIDE"

    def receive(v, w, t, rv):
        nonlocal seq
        total = acc.get(v, 0.0) + w
        acc[v] = total
        th = theta.get(v)
        if th is None:
            th = rand()
            theta[v] = th
        if total < th:
            return
        if link_delay:
            activate(v, t)
        elif override:
            heappush(heap, (t - math.log(1.0 - rand()) / rv, seq, v, None))
            seq += 1
        elif v not in committed:
            committed.add(v)
            heappush(heap, (t - math.log(1.0 - rand()) / rv, seq, v, None))
            seq += 1

    def activate(v, t):
        nonlocal seq
        active[v] = t
        events.append((v, t))
        kids = children[v]
        wrow = weight[v]
        rrow = rate[v]
        for i in range(len(kids)):
            w = kids[i]
            if w in active:
                continue
            if link_delay:
                heappush(heap, (t - math.log(1.0 - rand()) / rrow[i], seq, w,
                                wrow[i]))
                seq += 1
            else:
                receive(w, wrow[i], t, rrow[i])

    for s in seeds:
        active[s] = 0.0
        events.append((s, 0.0))
    for s in seeds:
        kids = children[s]
        wrow = weight[s]
        rrow = rate[s]
        for i in range(len(kids)):
            w = kids[i]
            if w in active:
                continue
            if link_delay:
                heappush(heap, (0.0 - math.log(1.0 - rand()) / rrow[i], seq,
                                w, wrow[i]))
                seq += 1
            else:
                receive(w, wrow[i], 0.0, rrow[i])
    while heap:
        t, _, v, w = heappop(heap)
        if v in active:
            continue
        if w is None:
            activate(v, t)
        else:
            receive(v, w, t, None)
    return events


# -- per-topic selection with scalar shared-mode EM ---------------------------
#
# The package's earlier shared-mode fit (scalar theta, every total a pairwise
# ``.sum()``) and the per-topic cutoff loop of ``select`` that called it once
# per cutoff.  The lockstep path sums in entry order instead, so it matches
# these to rounding, not to the bit.  The statistics come from the package's
# builder, which is pinned to ``em_stats_loop`` above.

PROB_FLOOR = 1e-12
RATE_FLOOR = 1e-12
RATE_CEIL = 1e12


def _scalar_density_check(stats, dens):
    from difflab import EstimationError
    zero = dens == 0.0
    if zero.any():
        bad = int(np.argmax(zero))
        raise EstimationError(
            f"cascade {stats.group_m[bad]}: activation density of node "
            f"{stats.group_node[bad]} underflowed to 0")


def _scalar_asic_e(stats, p, r, finite):
    ee = np.exp(-r * stats.dt)
    pe = p * ee
    y = pe + (1.0 - p)
    w = r * pe / y
    group_sum = np.bincount(stats.group, weights=w, minlength=stats.n_groups)
    _scalar_density_check(stats, group_sum)
    alpha = w / group_sum[stats.group]
    beta = pe / y
    if finite:
        pef = p * np.exp(-r * stats.fail_dt)
        yf = pef + (1.0 - p)
        beta_fail = pef / yf
        fail_ll = np.log(yf).sum()
    else:
        beta_fail = None
        with np.errstate(divide="ignore"):
            fail_ll = np.log1p(-np.full(len(stats.fail_dt), p)).sum()
    with np.errstate(divide="ignore"):
        ll = float(np.log(y).sum() + np.log(group_sum).sum() + fail_ll)
    return (alpha, beta, beta_fail), ll


def _scalar_asic_m(stats, terms, theta):
    alpha, beta, beta_fail = terms
    gamma = alpha + (1.0 - alpha) * beta
    den_r = float((gamma * stats.dt).sum())
    num_p = float(gamma.sum())
    if beta_fail is not None:
        den_r += float((beta_fail * stats.fail_dt).sum())
        num_p += float(beta_fail.sum())
    r_new = stats.n_groups / den_r
    p_new = num_p / (len(stats.dt) + len(stats.fail_dt))
    return (min(max(p_new, PROB_FLOOR), 1.0),
            min(max(r_new, RATE_FLOOR), RATE_CEIL))


def _scalar_aslt_e(stats, q, r):
    e_h = np.exp(-r * stats.dt)
    h_sum = np.bincount(stats.group, weights=e_h, minlength=stats.n_groups)
    _scalar_density_check(stats, h_sum)
    phi = e_h / h_sum[stats.group]
    e_g = np.exp(-r * stats.f_dt)
    tail_sum = np.bincount(stats.f_group, weights=e_g,
                           minlength=stats.n_f_groups)
    nb = stats.f_group_nb
    gvals = (1.0 - q) + q * (nb - stats.f_group_k) / nb + (q / nb) * tail_sum
    psi = (q / stats.f_group_nb[stats.f_group]) * e_g / gvals[stats.f_group]
    varphi_slack = (1.0 - q) / gvals
    varphi_inact_total = (nb - stats.f_group_k) * (q / nb) / gvals
    with np.errstate(divide="ignore"):
        ll = float(stats.n_groups * (math.log(q) + math.log(r))
                   - np.log(stats.group_nb).sum()
                   + np.log(h_sum).sum()
                   + np.log(gvals).sum())
    return (phi, psi, varphi_slack, varphi_inact_total), ll


def _scalar_aslt_m(stats, terms, theta):
    phi, psi, varphi_slack, varphi_inact_total = terms
    q, r = theta
    a = stats.n_groups + float(psi.sum()) + float(varphi_inact_total.sum())
    b = float(varphi_slack.sum())
    q_new = a / (a + b) if (a + b) > 0 else q
    denom = float((phi * stats.dt).sum() + (psi * stats.f_dt).sum())
    r_new = stats.n_groups / denom if denom > 0 else r
    return (min(max(q_new, PROB_FLOOR), 1.0),
            min(max(r_new, RATE_FLOOR), RATE_CEIL))


def fit_shared_scalar(model, g, data, config, init_params=None,
                      horizon_mode="infinite"):
    """Shared-mode EM one problem at a time with scalar (strength, rate).

    Returns (params, iterations, converged); raises the package's
    ``EstimationError`` where its earlier ``fit`` did.
    """
    from difflab import AsicParams, AsltParams, EstimationError
    from difflab.em import _Stats
    if len(data) == 0:
        raise EstimationError("cannot fit on an empty cascade set")
    if init_params is None:
        theta = (config.init_p if model == "asic" else config.init_q,
                 config.init_r)
    elif model == "asic":
        theta = (min(init_params.p, 1.0 - 1e-9), init_params.r)
    else:
        theta = (init_params.q, init_params.r)
    stats = _Stats(g, data, model)
    if stats.n_groups == 0:
        raise EstimationError(
            "no non-initial activations: nothing pins the delay rate")
    if model == "asic":
        def e_pass(th):
            return _scalar_asic_e(stats, *th, horizon_mode == "finite")
        m_pass = _scalar_asic_m
    else:
        def e_pass(th):
            return _scalar_aslt_e(stats, *th)
        m_pass = _scalar_aslt_m
    converged = False
    iterations = 0
    for it in range(config.max_iterations):
        terms, ll = e_pass(theta)
        if not math.isfinite(ll):
            raise EstimationError(
                f"non-finite log-likelihood at iteration {it} ({ll})")
        new = m_pass(stats, terms, theta)
        delta = abs(new[0] - theta[0]) + abs(new[1] - theta[1])
        theta = new
        iterations = it + 1
        if delta <= config.tolerance:
            converged = True
            break
    e_pass(theta)
    cls = AsicParams if model == "asic" else AsltParams
    return cls.shared(*theta), iterations, converged


def cutoff_terms_per_topic(model, g, data, periods, config, warm_start=True):
    """The earlier per-topic cutoff loop: one scalar fit per cutoff.

    Yields (tau, node, time, h, iterations) per cutoff, with node, time, h
    and iterations ``None`` for a skipped cutoff.
    """
    from difflab import Cascade, EstimationError, h_asic, h_aslt
    from difflab.params import DelayMode
    prev = None
    for tau in periods.cutoffs:
        held = None
        for m, c in enumerate(data):
            for v, t in c.events:
                if t >= tau:
                    if held is None or (t, m, v) < held:
                        held = (t, m, v)
                    break
        if held is None:
            yield tau, None, None, None, None
            continue
        t_held, m_held, v_held = held
        truncated = [c.truncated(tau) for c in data]
        truncated = [c for c in truncated if len(c)]
        if not truncated:
            yield tau, None, None, None, None
            continue
        try:
            params, iterations, _ = fit_shared_scalar(
                model, g, truncated, config,
                prev if warm_start else None, horizon_mode="finite")
        except EstimationError:
            yield tau, None, None, None, None
            continue
        prev = params
        kept = [e for e in data[m_held].events if e[1] < tau]
        held_cascade = Cascade(kept + [(v_held, t_held)], max(t_held, tau))
        h_fn = h_asic if model == "asic" else h_aslt
        h = h_fn(held_cascade, g, params, DelayMode.LINK, v_held)
        yield tau, v_held, t_held, h, iterations


# -- per-link threshold-model EM over the never-active block -----------------
#
# The package's earlier per-link aslt E and M passes.  They list every
# never-active parent of each frontier node (the ``i_link``/``i_group``
# arrays of ``em_stats_loop``) and add its weight and responsibility one
# entry at a time; node totals are sequential ``np.add.at`` sums.  The
# package takes those sums in closed form (whole-node sums minus the
# frontier block's), so it matches these to rounding, not to the bit.  The
# other statistics come from the package's builder, pinned above.


def aslt_e_per_link_iblock(stats, i_link, i_group, theta):
    """Returns ((phi, psi, varphi_slack, varphi_inact, gvals), loglik,
    activation densities); ``varphi_inact`` is per never-active entry."""
    q_vec, r_vec = theta
    g = stats.g
    slack_vec = np.ones(g.node_count)
    np.subtract.at(slack_vec, g.heads, q_vec)
    slack_vec = np.maximum(slack_vec, 0.0)
    q_arr = q_vec[stats.link]
    r_arr = r_vec[stats.link]
    term = q_arr * r_arr * np.exp(-r_arr * stats.dt)
    h_sum = np.bincount(stats.group, weights=term, minlength=stats.n_groups)
    phi = term / h_sum[stats.group]
    rf = r_vec[stats.f_link]
    tail = q_vec[stats.f_link] * np.exp(-rf * stats.f_dt)
    gvals = slack_vec[stats.f_group_node]
    gvals += np.bincount(stats.f_group, weights=tail,
                         minlength=stats.n_f_groups)
    gvals += np.bincount(i_group, weights=q_vec[i_link],
                         minlength=stats.n_f_groups)
    psi = tail / gvals[stats.f_group]
    varphi_inact = q_vec[i_link] / gvals[i_group]
    varphi_slack = slack_vec[stats.f_group_node] / gvals
    with np.errstate(divide="ignore"):
        ll = float(np.log(h_sum).sum() + np.log(gvals).sum())
    return (phi, psi, varphi_slack, varphi_inact, gvals), ll, h_sum


def aslt_m_per_link_iblock(stats, i_link, terms, theta):
    """The per-edge (q, r) update from the terms above."""
    phi, psi, varphi_slack, varphi_inact, _ = terms
    q_vec, r_vec = theta
    g = stats.g
    n_edges = len(q_vec)
    num_q = np.bincount(stats.link, weights=phi, minlength=n_edges)
    num_q += np.bincount(stats.f_link, weights=psi, minlength=n_edges)
    num_q += np.bincount(i_link, weights=varphi_inact, minlength=n_edges)
    slack_num = np.zeros(g.node_count)
    np.add.at(slack_num, stats.f_group_node, varphi_slack)
    node_tot = slack_num.copy()
    np.add.at(node_tot, g.heads, num_q)
    has_mass = node_tot[g.heads] > 0
    q_new = np.where(has_mass,
                     num_q / np.where(has_mass, node_tot[g.heads], 1.0),
                     q_vec)
    num_r = np.bincount(stats.link, weights=phi, minlength=n_edges)
    den_r = np.bincount(stats.link, weights=phi * stats.dt,
                        minlength=n_edges)
    den_r += np.bincount(stats.f_link, weights=psi * stats.f_dt,
                         minlength=n_edges)
    has_r = num_r > 0
    r_new = np.where(has_r, num_r / np.where(has_r, den_r, 1.0), r_vec)
    np.clip(r_new, RATE_FLOOR, RATE_CEIL, out=r_new)
    return q_new, r_new


def fit_aslt_per_link_iblock(g, data, config):
    """Per-link threshold-model EM over the never-active block.

    Returns ``(theta, logliks, iterations, converged, untouched)``, where
    ``theta`` is the final edge-indexed (q, r) pair, ``logliks`` one value
    per evaluated theta, and ``untouched`` the number of edges that no
    activation, frontier or never-active entry names.  Raises the
    package's ``EstimationError`` on a non-finite log-likelihood.
    """
    from difflab import EstimationError
    from difflab.em import _Stats
    stats = _Stats(g, data, "aslt")
    loop = em_stats_loop(g, data, "aslt")
    i_link, i_group = loop["i_link"], loop["i_group"]
    theta = (config.init_q / g.in_degree[g.heads],
             np.full(g.edge_count, config.init_r))
    logliks, converged = [], False
    for it in range(config.max_iterations + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms, ll, _ = aslt_e_per_link_iblock(stats, i_link, i_group,
                                                  theta)
        if not math.isfinite(ll):
            raise EstimationError(
                f"non-finite log-likelihood at iteration {it} ({ll})")
        logliks.append(ll)
        if converged or it == config.max_iterations:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            new = aslt_m_per_link_iblock(stats, i_link, terms, theta)
        delta = float(np.abs(new[0] - theta[0]).sum()
                      + np.abs(new[1] - theta[1]).sum())
        theta = new
        converged = delta <= config.tolerance
    touched = set(stats.link.tolist()) | set(stats.f_link.tolist())
    touched |= set(i_link.tolist())
    return (theta, logliks, len(logliks) - 1, converged,
            g.edge_count - len(touched))
