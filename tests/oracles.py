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
"""

import itertools
import math
from heapq import heappop, heappush

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, shortest_path


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
                          and any(u in times for u in g.in_adj[v])]
            if not candidates:
                break
            v = candidates[rng.randrange(len(candidates))]
            earliest = min(times[u] for u in g.in_adj[v] if u in times)
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
    edge_index = {e: i for i, e in enumerate(g.edges)}
    dts, groups, links, group_m, group_node = [], [], [], [], []
    fail_edges, fail_dts = [], []
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
            for u in g.in_adj[v]:
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
                for w in g.out_adj[u]:
                    if w not in times:
                        fail_edges.append(edge_index[(u, w)])
                        fail_dts.append(horizon - tu)
            continue
        front = {w for u in times for w in g.out_adj[u] if w not in times}
        for v in sorted(front):
            fgid = len(f_group_m)
            k = 0
            for u in g.in_adj[v]:
                tu = times.get(u)
                if tu is None:
                    i_links.append(edge_index[(u, v)])
                    i_groups.append(fgid)
                    continue
                f_dts.append(horizon - tu)
                f_groups.append(fgid)
                f_links.append(edge_index[(u, v)])
                k += 1
            f_group_nb.append(len(g.in_adj[v]))
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
        "n_plus": len(dts),
        "group_m": np.asarray(group_m, **ints),
        "group_node": np.asarray(group_node, **ints),
        "group_nb": np.asarray([len(g.in_adj[v]) for v in group_node],
                               **floats),
        "fail_edges": np.asarray(fail_edges, **ints),
        "fail_dt": np.asarray(fail_dts, **floats),
        "fail_total": len(fail_edges),
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
    out["f_nb"] = out["f_group_nb"][out["f_group"]]
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
    edge_u = np.asarray([e[0] for e in g.edges], dtype=np.intp)
    edge_v = np.asarray([e[1] for e in g.edges], dtype=np.intp)
    if model == "asic":
        live_p = np.asarray([params.prob(u, v) for u, v in g.edges])
    else:
        ptr = np.zeros(n + 1, dtype=np.intp)
        flat_edge = []
        flat_cum = []
        for v in range(n):
            acc = 0.0
            for u in g.in_adj[v]:
                acc += params.weight(g, u, v)
                flat_edge.append(g.edges.index((u, v)))
                flat_cum.append(2.0 * v + min(acc, 1.0))
            ptr[v + 1] = ptr[v] + len(g.in_adj[v])
        flat_edge = np.asarray(flat_edge, dtype=np.intp)
        flat_cum = np.asarray(flat_cum, dtype=np.float64)
        parent_nodes = np.asarray(
            [v for v in range(n) if len(g.in_adj[v]) > 0], dtype=np.intp)
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
        self.children = g.out_adj
        self.strength = []
        self.rate = []
        for u in range(g.node_count):
            if model == "asic":
                self.strength.append([params.prob(u, v)
                                      for v in g.out_adj[u]])
            else:
                self.strength.append([params.weight(g, u, v)
                                      for v in g.out_adj[u]])
            self.rate.append([params.rate(delay, u, v)
                              for v in g.out_adj[u]])


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
