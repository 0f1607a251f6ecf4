"""Iterative maximum-likelihood estimation for both diffusion models.

Estimation alternates a responsibility computation (which parent most likely
caused each observed activation, and how each observed non-activation splits
between "never fired" and "still pending") with closed-form parameter updates
that maximize the resulting surrogate objective.  Each update can only
increase the data log-likelihood, so the iteration converges to a stationary
point.

Only the link-delay variant is learnable here, so ``fit`` and ``loglik``
take no delay argument; the sufficient statistics are the time gaps between
parent and child activations plus the failure structure of each cascade.
Shared mode pools every link into one (p, r) or (q, r) pair; per-link mode
keeps one pair per edge id e, the link
``g.tails[e] -> g.heads[e]``, and edges never touched by the data keep
their current values (counted as warnings).  A fit keeps no per-iteration
parameters: each problem's theta is taken when it stops, and its
``EmTrace`` records the log-likelihood sequence.

One loop serves both models and both modes, and ``fit`` and ``fit_batch``
are its only entry points; the E and M passes are private.  ``loglik``,
the total log-likelihood under link delay, is the first E pass of a
per-link fit: there is no second evaluation of it.  In shared mode
it fits a batch of independent problems in lockstep (``fit_batch``;
``fit`` is the batch of one, started from the config; only ``fit_batch``
takes warm starts): one statistics build over all their
cascades, theta as one (strength, rate) pair per problem, and each
problem's own convergence test, cap and errors.  Each problem's entries
form one contiguous run of every block, and a shared-mode total is a
segment sum (``np.add.reduceat``) over that run alone, so a problem's
result does not depend on its batch.
Terms that depend only on an entry's owner are formed once per owner: a
cascade-model failure term once per (cascade, window) pair times its entry
count, and the threshold model's pending mass once per frontier group.
Per-link totals stay plain ``.sum()`` reductions.  No fit lists a
frontier node's never-active parents: a sum over them is a whole-node sum
minus the sum over its active parents.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from .cascade import check_in_graph
from .errors import EstimationError, ParameterError
from .params import (PER_LINK, SHARED, AsicParams, AsltParams, DelayMode,
                     check_model, link_array)

_log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12
RATE_FLOOR = 1e-12
RATE_CEIL = 1e12
# A zero or non-finite term turns into a -inf or NaN total, not a warning.
_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


@dataclass
class EmConfig:
    """Knobs of the fitting loop."""

    init_p: float = 0.5
    init_q: float = 0.5
    init_r: float = 1.0
    tolerance: float = 1e-6
    max_iterations: int = 100
    mode: str = SHARED

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParameterError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be at least 1")
        if not (0.0 < self.init_p < 1.0 and 0.0 < self.init_q <= 1.0):
            raise ParameterError("initial p must lie in (0,1), q in (0,1]")
        if not self.init_r > 0:
            raise ParameterError("initial r must be positive")
        if self.mode not in (SHARED, PER_LINK):
            raise ParameterError(f"mode must be {SHARED!r} or {PER_LINK!r}")


@dataclass
class EmTrace:
    """Per-iteration record of a fit.

    ``loglik[i]`` is the log-likelihood after i updates (index 0 is the
    initialization).  The sequence is non-decreasing up to floating-point
    slack.
    """

    loglik: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    untouched_links: int = 0


# -- sufficient statistics ---------------------------------------------------


def _segments(ptr, nodes):
    """Positions ``ptr[v]:ptr[v+1]`` of each ``v`` in ``nodes``, concatenated,
    and for each position the index in ``nodes`` it belongs to."""
    start = ptr[nodes]
    count = ptr[nodes + 1] - start
    owner = np.repeat(np.arange(len(nodes)), count)
    pos = (start - np.cumsum(count) + count)[owner]
    pos += np.arange(len(owner))
    return owner, pos


class _ZeroProbability(EstimationError):
    """An activation with no earlier active parent.  With stacked problems
    (``problem[m]`` owns cascade m) the message counts cascades within the
    problem, and ``problem`` names it."""

    def __init__(self, m, node, t, problem=None):
        b = 0
        if problem is not None:
            b = int(problem[m])
            m -= int(np.searchsorted(problem, b))
        super().__init__(
            f"cascade {m}: node {node} activated at t={float(t)} with no "
            f"possible activator (zero-probability event)")
        self.problem = b


class _Stats:
    """Flattened (cascade, child, parent) structure for vectorized passes.

    Activation block (both models): one group per non-initial activation,
    from cascade ``group_m`` at node ``group_node`` with ``group_nb``
    parents, and one entry per effective parent (edge ``link``, time gap
    ``dt``, group ``group``).

    Failure block (cascade model): one term per active node u and inactive
    child w (edge ``fail_edges``, remaining window ``fail_dt``, cascade
    ``fail_m``).

    Frontier block (threshold model): one group per frontier node, from
    cascade ``f_group_m`` at node ``f_group_node`` with ``f_group_nb``
    parents of which ``f_group_k`` are active, and one ``f_`` entry per
    active parent (window ``f_dt``); ``never_active`` lists the others.

    The block a model does not use stays empty.  Entries follow cascade,
    then node, then parent order, which fixes the order of every sum.
    ``problem`` (one index per cascade, ascending) only numbers the cascade
    of a zero-probability error within its problem.
    """

    __slots__ = ("g", "dt", "group", "link", "n_groups",
                 "group_m", "group_node", "group_nb",
                 "fail_edges", "fail_dt", "fail_m",
                 "f_dt", "f_group", "f_link", "n_f_groups",
                 "f_group_nb", "f_group_k", "f_group_node", "f_group_m")

    def __init__(self, g, data, model, problem=None):
        check_in_graph(g, data)
        n = g.node_count
        lens = np.array([len(c.events) for c in data], dtype=np.intp)
        events = np.fromiter(chain.from_iterable(c.events for c in data),
                             dtype=[("v", np.intp), ("t", np.float64)])
        ev_node, ev_time = events["v"], events["t"]
        ev_m = np.repeat(np.arange(len(lens), dtype=np.intp), lens)
        horizon = np.array([c.horizon for c in data], dtype=np.float64)
        first = np.cumsum(lens) - lens
        # Activation time of node u in cascade m, looked up by m * n + u.
        key = ev_m * n + ev_node
        by_key = np.argsort(key)
        # A sentinel that matches no key catches lookups past the last one.
        sorted_key = np.append(key[by_key], -1)
        sorted_time = np.append(ev_time[by_key], np.nan)

        def time_of(q):
            pos = np.searchsorted(sorted_key[:-1], q)
            found = sorted_key[pos] == q
            return sorted_time[pos], found

        # Activation block: effective parents of each non-initial event.
        act = np.flatnonzero(ev_time != ev_time[first[ev_m]])
        owner, pos = _segments(g.in_ptr, ev_node[act])
        edge = g.in_edges[pos]
        tv = ev_time[act][owner]
        tu, found = time_of(ev_m[act][owner] * n + g.tails[edge])
        keep = found & (tu < tv)
        opened = np.bincount(owner[keep], minlength=len(act))
        if not opened.all():
            i = act[np.argmin(opened)]
            raise _ZeroProbability(ev_m[i], ev_node[i], ev_time[i], problem)
        self.g = g
        self.dt = tv[keep] - tu[keep]
        self.group = owner[keep]
        self.link = edge[keep]
        self.n_groups = len(act)
        self.group_m = ev_m[act]
        self.group_node = ev_node[act]
        self.group_nb = g.in_degree[self.group_node].astype(np.float64)

        # Inactive children of each active node, in event then child order.
        owner, out_edge = _segments(g.out_ptr, ev_node)
        child = ev_m[owner] * n + g.heads[out_edge]
        missed = ~time_of(child)[1]
        owner, out_edge, child = owner[missed], out_edge[missed], child[missed]
        if model == "asic":
            self.fail_edges = out_edge
            self.fail_m = ev_m[owner]
            self.fail_dt = horizon[self.fail_m] - ev_time[owner]
            owner = out_edge = child = owner[:0]  # no frontier block
        else:
            self.fail_edges = np.zeros(0, dtype=np.intp)
            self.fail_dt = np.zeros(0)
            self.fail_m = np.zeros(0, dtype=np.intp)

        # Frontier block: each missed edge u -> w makes w a frontier node
        # with active parent u.  Entries run by cascade, then by w's
        # in-edges, which are ordered by head, then parent.
        in_pos = np.empty(g.edge_count, dtype=np.intp)
        in_pos[g.in_edges] = np.arange(g.edge_count)
        order = np.argsort(ev_m[owner] * g.edge_count + in_pos[out_edge])
        owner, child = owner[order], child[order]
        opens = np.ones(len(child), dtype=bool)
        opens[1:] = child[1:] != child[:-1]
        front = child[opens]
        self.f_dt = horizon[ev_m[owner]] - ev_time[owner]
        self.f_group = np.cumsum(opens) - 1
        self.f_link = out_edge[order]
        self.n_f_groups = len(front)
        f_m, f_node = np.divmod(front, max(n, 1))
        self.f_group_nb = g.in_degree[f_node].astype(np.float64)
        self.f_group_k = np.bincount(
            self.f_group, minlength=len(front)).astype(np.float64)
        self.f_group_node = f_node
        self.f_group_m = f_m

    def subset(self, keep):
        """The statistics of the cascades where ``keep`` is true, entries
        in the same order."""
        out = object.__new__(type(self))
        out.g = self.g
        groups = keep[self.group_m]
        entries = groups[self.group]
        out.dt, out.link = self.dt[entries], self.link[entries]
        out.group = (np.cumsum(groups) - 1)[self.group[entries]]
        out.group_m = self.group_m[groups]
        out.group_node = self.group_node[groups]
        out.group_nb = self.group_nb[groups]
        out.n_groups = len(out.group_m)
        fails = keep[self.fail_m]
        out.fail_edges = self.fail_edges[fails]
        out.fail_dt, out.fail_m = self.fail_dt[fails], self.fail_m[fails]
        groups = keep[self.f_group_m]
        entries = groups[self.f_group]
        out.f_dt, out.f_link = self.f_dt[entries], self.f_link[entries]
        out.f_group = (np.cumsum(groups) - 1)[self.f_group[entries]]
        for name in ("f_group_nb", "f_group_k", "f_group_node", "f_group_m"):
            setattr(out, name, getattr(self, name)[groups])
        out.n_f_groups = len(out.f_group_m)
        return out

    def never_active(self, chosen=True):
        """``(edge, frontier group)`` of each never-active parent of the
        frontier groups ``chosen`` (a mask) selects, by group, then in-edge:
        the in-edges that the frontier block does not list."""
        g, chosen = self.g, np.broadcast_to(chosen, self.n_f_groups)
        groups = np.flatnonzero(chosen)
        owner, pos = _segments(g.in_ptr, self.f_group_node[groups])
        in_pos = np.empty(g.edge_count, dtype=np.intp)
        in_pos[g.in_edges] = np.arange(g.edge_count)
        f = chosen[self.f_group]  # both lists run by group, then position
        key = groups[owner] * g.edge_count + pos
        listed = np.zeros(len(key), dtype=bool)
        listed[np.searchsorted(key, self.f_group[f] * g.edge_count
                               + in_pos[self.f_link[f]])] = True
        return g.in_edges[pos[~listed]], groups[owner[~listed]]


# -- problem indexing --------------------------------------------------------
#
# An E or M pass gathers theta for each entry through an index object and
# reduces per-entry terms to one total per problem with ``total(block, x)``,
# where ``block`` names the entry kind: "link" (activation entries),
# "group" (activation groups), "fail" (failure terms) and "f_group"
# (frontier groups).


class _Problems:
    """Shared mode: ``n`` problems stacked in one statistics build, with
    ``problem[m]`` owning cascade m (ascending).  Theta is a pair of
    length-n arrays.  Blocks list their entries by cascade, so each
    problem's entries form one contiguous run, and ``total`` is a segment
    sum (``np.add.reduceat``) over each run: 0 for an empty run, and the
    same bits whichever other problems share the build.

    Failure entries that share a (cascade, window) pair have the same term,
    so the "fail" block holds one entry per such pair, with its window
    ``fail_dt`` and entry count ``fail_n``; ``fails`` counts each problem's
    failure entries.

    ``link``, ``fail``, ``f_link`` and ``f_group`` gather theta for the
    entries of their block; with one problem they are ``...``, and the
    length-1 theta broadcasts to the same values without a gather."""

    def __init__(self, stats, problem, n):
        self.n = n
        self.problem = problem
        self.first = np.searchsorted(problem, np.arange(n))
        fail_m, fail_dt = stats.fail_m, stats.fail_dt
        opens = np.ones(len(fail_m), dtype=bool)
        opens[1:] = (fail_m[1:] != fail_m[:-1]) | (fail_dt[1:] != fail_dt[:-1])
        owners = np.flatnonzero(opens)
        self.fail_dt = fail_dt[owners]
        self.fail_n = np.diff(owners, append=len(fail_m)).astype(np.float64)
        group = problem[stats.group_m]
        link = group[stats.group]
        fail = problem[fail_m[owners]]
        f_group = problem[stats.f_group_m]
        self.runs = {"group": _runs(group, n), "link": _runs(link, n),
                     "fail": _runs(fail, n), "f_group": _runs(f_group, n)}
        self.group = group
        if n == 1:
            self.link = self.fail = self.f_link = self.f_group = ...
        else:
            self.link, self.fail, self.f_group = link, fail, f_group
            self.f_link = f_group[stats.f_group]
        self.groups = np.bincount(group, minlength=n).astype(np.float64)
        fails = np.bincount(problem[fail_m], minlength=n)
        self.fails = fails.astype(np.float64)
        self.trials = (np.bincount(link, minlength=n) + fails).astype(
            np.float64)
        self.log_nb = self.total("group", np.log(stats.group_nb))

    def total(self, block, values):
        starts, full = self.runs[block]
        if full is None:
            return np.add.reduceat(values, starts)
        out = np.zeros(self.n)
        if len(starts):
            out[full] = np.add.reduceat(values, starts)
        return out

    def per_failure(self, values):
        """Sum over each problem's failure entries of a per-problem value;
        0 without entries, also where the value is infinite."""
        return np.where(self.fails > 0, self.fails * values, 0.0)

    @staticmethod
    def step(new, old):
        return np.abs(new[0] - old[0]) + np.abs(new[1] - old[1])


def _runs(index, n):
    """Where each of problems 0..n-1 starts in ``index`` (ascending), as
    ``np.add.reduceat`` takes it: the starts of the non-empty runs, and a
    mask of the problems they belong to (``None`` when none is empty)."""
    starts = np.searchsorted(index, np.arange(n))
    full = np.diff(starts, append=len(index)) > 0
    if full.all():
        return starts, None
    return starts[full], full


class _Links:
    """Per-link mode: one problem whose theta is edge-indexed; totals are
    plain sums, and each failure entry is its own term (``fail_n`` is 1).
    The M passes read two per-edge counts of the statistics: ``trials``,
    the edge's activation and failure entries, and ``has_inact``, whether
    the edge's parent is never active in some frontier group at its child
    (fewer frontier entries on the edge than frontier groups at the
    child)."""

    n = 1
    first = np.zeros(1, dtype=np.intp)
    fail_n = 1.0

    def __init__(self, stats):
        g = stats.g
        self.link = stats.link
        self.fail, self.fail_dt = stats.fail_edges, stats.fail_dt
        self.group = np.zeros(stats.n_groups, dtype=np.intp)
        self.trials = (np.bincount(stats.link, minlength=g.edge_count)
                       + np.bincount(stats.fail_edges, minlength=g.edge_count)
                       ).astype(np.float64)
        self.has_inact = (
            np.bincount(stats.f_group_node, minlength=g.node_count)[g.heads]
            > np.bincount(stats.f_link, minlength=g.edge_count))

    @staticmethod
    def total(block, values):
        return np.array([values.sum()])

    def per_failure(self, values):
        """Sum over the failure entries of a per-edge value."""
        return self.total("fail", values[self.fail])

    @staticmethod
    def step(new, old):
        return np.array([float(np.abs(new[0] - old[0]).sum()
                               + np.abs(new[1] - old[1]).sum())])


def _underflows(stats, at, dens, open_):
    """Errors of the problems in ``open_`` with an activation density of 0,
    each naming its first such activation."""
    out = {}
    for i in np.flatnonzero(dens == 0.0).tolist():
        b = int(at.group[i])
        if open_[b] and b not in out:
            out[b] = EstimationError(
                f"cascade {stats.group_m[i] - at.first[b]}: activation "
                f"density of node {stats.group_node[i]} underflowed to 0")
    return out


# -- E and M passes ---------------------------------------------------------
#
# theta = (strength, rate): one value per problem in shared mode, one per
# edge in per-link mode.  An E pass returns (terms, loglik per problem,
# activation densities); an M pass maps (terms, theta) to the next theta.


def _asic_e(stats, at, theta, finite=False):
    """Cascade-model terms (alpha, beta, beta_fail) and log-likelihood.

    With ``finite=True`` each observed non-activation keeps the within-window
    survival factor p*exp(-r*(T - t)) + (1 - p) instead of its T -> inf limit
    (1 - p); ``beta_fail`` is then the posterior mass of "succeeded but still
    pending at the horizon", one value per entry of the index's failure
    block.
    """
    p, r = theta
    p_arr, r_arr = p[at.link], r[at.link]
    ee = np.exp(-r_arr * stats.dt)
    pe = p_arr * ee
    y = pe + (1.0 - p_arr)
    w = r_arr * pe / y
    group_sum = np.bincount(stats.group, weights=w, minlength=stats.n_groups)
    alpha = w / group_sum[stats.group]
    beta = pe / y
    if finite:
        fail_p = p[at.fail]
        pef = fail_p * np.exp(-r[at.fail] * at.fail_dt)
        yf = pef + (1.0 - fail_p)
        beta_fail = pef / yf
        fail_ll = at.total("fail", at.fail_n * np.log(yf))
    else:
        beta_fail = None
        fail_ll = at.per_failure(np.log1p(-p))
    ll = (at.total("link", np.log(y)) + at.total("group", np.log(group_sum))
          + fail_ll)
    return (alpha, beta, beta_fail), ll, group_sum


def _asic_m_shared(stats, at, terms, theta):
    alpha, beta, beta_fail = terms
    gamma = alpha + (1.0 - alpha) * beta
    den_r = at.total("link", gamma * stats.dt)
    num_p = at.total("link", gamma)
    if beta_fail is not None:
        beta_fail = at.fail_n * beta_fail
        den_r += at.total("fail", beta_fail * at.fail_dt)
        num_p += at.total("fail", beta_fail)
    return _clamp(num_p / at.trials, at.groups / den_r)


def _asic_m_per_link(stats, at, terms, theta):
    alpha, beta, beta_fail = terms
    p_vec, r_vec = theta
    n_edges = len(p_vec)
    gamma = alpha + (1.0 - alpha) * beta
    num_r = np.bincount(stats.link, weights=alpha, minlength=n_edges)
    den_r = np.bincount(stats.link, weights=gamma * stats.dt,
                        minlength=n_edges)
    num_p = np.bincount(stats.link, weights=gamma, minlength=n_edges)
    if beta_fail is not None:
        den_r += np.bincount(stats.fail_edges,
                             weights=beta_fail * stats.fail_dt,
                             minlength=n_edges)
        num_p += np.bincount(stats.fail_edges, weights=beta_fail,
                             minlength=n_edges)
    has_r = num_r > 0
    has_p = at.trials > 0
    r_new = np.where(has_r, num_r / np.where(has_r, den_r, 1.0), r_vec)
    p_new = np.where(has_p, num_p / np.where(has_p, at.trials, 1.0), p_vec)
    np.clip(p_new, PROB_FLOOR, 1.0, out=p_new)
    np.clip(r_new, RATE_FLOOR, RATE_CEIL, out=r_new)
    return p_new, r_new


def _aslt_e_shared(stats, at, theta):
    """Threshold-model terms and log-likelihood.  The terms are (phi, e_g,
    varphi_slack, q_nb, gvals, free, tail_sum, tail_dt): per frontier entry
    only ``e_g = exp(-r * f_dt)``, and per frontier group the rest, with
    ``free`` the never-active parents and ``tail_sum`` and ``tail_dt`` the
    group's sums of e_g and e_g * f_dt.  The M pass reads a group's
    pending mass as q_nb * tail_sum / gvals."""
    q, r = theta
    neg_r = -r  # negated before the gathers, to the same bits
    e_h = np.exp(neg_r[at.link] * stats.dt)
    h_sum = np.bincount(stats.group, weights=e_h, minlength=stats.n_groups)
    phi = e_h / h_sum[stats.group]
    e_g = np.exp(neg_r[at.f_link] * stats.f_dt)
    tail_sum = np.bincount(stats.f_group, weights=e_g,
                           minlength=stats.n_f_groups)
    tail_dt = np.bincount(stats.f_group, weights=e_g * stats.f_dt,
                          minlength=stats.n_f_groups)
    nb = stats.f_group_nb
    free = nb - stats.f_group_k  # never-active parents per frontier group
    q_g = q[at.f_group]
    slack = 1.0 - q_g
    q_nb = q_g / nb
    gvals = slack + q_g * free / nb + q_nb * tail_sum
    ll = (at.groups * (np.log(q) + np.log(r)) - at.log_nb
          + at.total("group", np.log(h_sum))
          + at.total("f_group", np.log(gvals)))
    return ((phi, e_g, slack / gvals, q_nb, gvals, free, tail_sum, tail_dt),
            ll, h_sum)


def _aslt_e_per_link(stats, at, theta):
    """Threshold-model terms (phi, psi, varphi_slack, None, gvals), per
    edge and with psi per frontier entry, and log-likelihood.  A
    frontier group's never-active weight is its node's in-weight minus its
    active parents', floored at 0.  Both sums run in in-edge order, so it
    is exactly 0 when every parent is active."""
    q_vec, r_vec = theta
    w_node = np.bincount(stats.g.heads, weights=q_vec,
                         minlength=stats.g.node_count)[stats.f_group_node]
    q_arr = q_vec[stats.link]
    r_arr = r_vec[stats.link]
    term = q_arr * r_arr * np.exp(-r_arr * stats.dt)
    h_sum = np.bincount(stats.group, weights=term, minlength=stats.n_groups)
    phi = term / h_sum[stats.group]
    q_f = q_vec[stats.f_link]
    tail = q_f * np.exp(-r_vec[stats.f_link] * stats.f_dt)
    slack = np.maximum(1.0 - w_node, 0.0)
    inact = w_node - np.bincount(stats.f_group, weights=q_f,
                                 minlength=stats.n_f_groups)
    gvals = slack + np.bincount(stats.f_group, weights=tail,
                                minlength=stats.n_f_groups)
    gvals += np.maximum(inact, 0.0)
    psi = tail / gvals[stats.f_group]
    ll = at.total("group", np.log(h_sum)) + at.total("f_group", np.log(gvals))
    return (phi, psi, slack / gvals, None, gvals), ll, h_sum


def _aslt_m_shared(stats, at, terms, theta):
    phi, _, varphi_slack, q_nb, gvals, free, tail_sum, tail_dt = terms
    q, r = theta
    # Per frontier group, the pending mass (sum of psi) plus the
    # never-active mass is q_nb * (tail_sum + free) / gvals.
    pending = q_nb / gvals
    a = at.groups + at.total("f_group", pending * (tail_sum + free))
    b = at.total("f_group", varphi_slack)
    ab = a + b
    denom = (at.total("link", phi * stats.dt)
             + at.total("f_group", pending * tail_dt))
    return _clamp(np.where(ab > 0, a / ab, q),
                  np.where(denom > 0, at.groups / denom, r))


def _clamp(strength, rate):
    """Shared theta kept in (0, 1] x [RATE_FLOOR, RATE_CEIL]."""
    return (np.minimum(np.maximum(strength, PROB_FLOOR), 1.0),
            np.minimum(np.maximum(rate, RATE_FLOOR), RATE_CEIL))


def _aslt_m_per_link(stats, at, terms, theta):
    """Per-edge update.  A never-active parent u of v holds q_uv / gvals
    of each frontier group at v where u is not active: the sum over every
    frontier group at v minus the groups where u is active, and 0 when u
    is active in all of them."""
    phi, psi, varphi_slack, _, gvals = terms
    q_vec, r_vec = theta
    n_edges, n, heads = len(q_vec), stats.g.node_count, stats.g.heads
    inv = 1.0 / gvals
    whole = np.bincount(stats.f_group_node, weights=inv, minlength=n)[heads]
    inact = np.where(at.has_inact, whole - np.bincount(
        stats.f_link, weights=inv[stats.f_group], minlength=n_edges), 0.0)
    # Where the groups with u active hold nearly all of the sum, the
    # difference keeps few digits, and where a survival mass is so small
    # that its 1 / gvals overflows, it is inf - inf: add up those nodes'
    # entries instead.
    lossy = ((inact < 1e-2 * whole) | ~np.isfinite(inact)) & at.has_inact
    if lossy.any():
        i_link, i_group = stats.never_active(
            np.isin(stats.f_group_node, heads[lossy]))
        inact[lossy] = np.bincount(i_link, weights=inv[i_group],
                                   minlength=n_edges)[lossy]
    # An empty block's bincount is integer-typed: no in-place adds.
    num_r = np.bincount(stats.link, weights=phi, minlength=n_edges)
    num_q = (num_r + np.bincount(stats.f_link, weights=psi, minlength=n_edges)
             + q_vec * inact)
    node_tot = (np.bincount(heads, weights=num_q, minlength=n)
                + np.bincount(stats.f_group_node, weights=varphi_slack,
                              minlength=n))
    has_mass = node_tot[heads] > 0
    q_new = np.where(has_mass,
                     num_q / np.where(has_mass, node_tot[heads], 1.0),
                     q_vec)
    den_r = (np.bincount(stats.link, weights=phi * stats.dt,
                         minlength=n_edges)
             + np.bincount(stats.f_link, weights=psi * stats.f_dt,
                           minlength=n_edges))
    has_r = num_r > 0
    r_new = np.where(has_r, num_r / np.where(has_r, den_r, 1.0), r_vec)
    np.clip(r_new, RATE_FLOOR, RATE_CEIL, out=r_new)
    return q_new, r_new


def _to_params(g, model, theta):
    """Parameters holding ``theta``: shared scalars, or edge-indexed vectors
    with per-link weights kept >= PROB_FLOOR."""
    cls = AsicParams if model == "asic" else AsltParams
    strength, r = theta
    if np.ndim(strength) == 0:
        return cls.shared(float(strength), float(r))
    if model == "aslt":
        strength = np.maximum(strength, PROB_FLOOR)
    return cls.per_link(g, strength, r)


def loglik(model: str, g, params, data,
           horizon_mode: str = "infinite") -> float:
    """Total log-likelihood of a cascade set under link delay.

    This is the first E pass of a per-link ``fit`` at ``params``, spread
    over edge ids (shared parameters too).  ``horizon_mode`` is
    ``fit``'s.  A factor of 0, such as an activation that no earlier
    active parent could have caused, gives -inf.  The node-delay variants
    have densities (``h_asic``, ``h_aslt``) but no total.
    """
    _check_args(model, horizon_mode)
    check_model(model, params)
    theta = params.edge_values(g, DelayMode.LINK)
    try:
        stats = _Stats(g, data, model)
    except _ZeroProbability:
        return -math.inf
    at = _Links(stats)
    with np.errstate(**_QUIET):
        if model == "asic":
            _, ll, _ = _asic_e(stats, at, theta, horizon_mode == "finite")
        else:
            _, ll, _ = _aslt_e_per_link(stats, at, theta)
    # NaN is a survival of 0 times an infinite ratio: a factor of 0.
    return -math.inf if math.isnan(ll[0]) else float(ll[0])


# -- fitting loop ---------------------------------------------------------------


def fit(model: str, g, data, config: EmConfig | None = None,
        horizon_mode: str = "infinite"):
    """Fit link-delay model parameters by alternating E and M steps.

    Stops when the L1 change of the parameter vector drops to the configured
    tolerance, or at the iteration cap; a fit that reaches the cap logs a
    warning on the ``difflab.em`` logger.  Returns ``(params, EmTrace)``.
    The fit starts from ``config``; ``fit_batch`` takes warm starts.

    ``horizon_mode`` selects the survival factor of the cascade model's
    failure terms: "infinite" (default; appropriate when every cascade ran to
    completion well before its horizon) or "finite" (right-censored data,
    e.g. observation windows cut mid-diffusion).  The threshold model is
    always horizon-aware and ignores the flag.

    A shared-mode fit is ``fit_batch`` on a batch of one.
    """
    _check_args(model, horizon_mode)
    if config is None:
        config = EmConfig()
    if len(data) == 0:
        raise EstimationError("cannot fit on an empty cascade set")
    (result,) = _fit(model, g, [data], config, [None],
                     horizon_mode == "finite")
    if isinstance(result, EstimationError):
        raise result
    return result


def fit_batch(model: str, g, problems, config: EmConfig | None = None,
              starts=None, horizon_mode: str = "infinite"):
    """Fit one shared-mode parameter pair per problem, all in lockstep.

    ``problems`` is a list of cascade lists and ``starts`` an optional list
    of warm-start parameters (``None`` entries start from ``config``).  One
    statistics build covers every problem, and each E and M pass updates
    all problems still iterating at once.  Each problem keeps its own
    convergence test and cap, and its result does not depend on the other
    problems in the batch: per-problem totals are segment sums over the
    problem's own entries.

    Returns, per problem, ``(params, EmTrace)`` or the ``EstimationError``
    that stopped it (a zero-probability activation, no non-initial
    activation, a density underflow or a non-finite log-likelihood).
    Problems that reach the cap share one warning, which counts them.
    """
    _check_args(model, horizon_mode)
    if config is None:
        config = EmConfig()
    if config.mode != SHARED:
        raise ParameterError("fit_batch fits shared-mode parameters only")
    if not problems:
        return []
    if starts is None:
        starts = [None] * len(problems)
    return _fit(model, g, problems, config, starts, horizon_mode == "finite")


def _check_args(model, horizon_mode):
    if model not in ("asic", "aslt"):
        raise ValueError(f"unknown model {model!r}")
    if horizon_mode not in ("infinite", "finite"):
        raise ValueError(f"unknown horizon mode {horizon_mode!r}")


def _stack(g, problems, model):
    """One statistics build over every problem's cascades, in problem
    order.  A problem whose data pins no fit gets an error in place of its
    cascades.  Returns ``(stats, problem index per cascade, errors)``."""
    errors = {}
    while True:
        kept = [() if b in errors else data for b, data in enumerate(problems)]
        problem = np.repeat(np.arange(len(kept)), [len(d) for d in kept])
        try:
            stats = _Stats(g, list(chain.from_iterable(kept)), model,
                           problem)
        except _ZeroProbability as exc:
            errors[exc.problem] = exc
            continue
        groups = np.bincount(problem[stats.group_m], minlength=len(problems))
        for b in np.flatnonzero(groups == 0).tolist():
            errors.setdefault(b, EstimationError(
                "no non-initial activations: nothing pins the delay rate"))
        return stats, problem, errors


def _start(model, config, params):
    if params is None:
        return (config.init_p if model == "asic" else config.init_q,
                config.init_r)
    if model == "asic":
        return min(params.p, 1.0 - 1e-9), params.r
    return params.q, params.r


def _fit(model, g, problems, config, starts, finite):
    """The one EM loop, over every problem of ``problems`` in lockstep.

    Each pass runs the E step of all problems still open, then the M step.
    A problem stops after the update whose L1 step is within tolerance
    (converged) or after ``max_iterations`` updates (capped); one last E
    pass scores its final theta.  A problem whose pass fails keeps its last
    theta and gets an error instead of a result; the others go on.
    """
    per_link = config.mode == PER_LINK
    stats, problem, errors = _stack(g, problems, model)
    untouched = 0
    if per_link:
        at = _Links(stats)
        theta = _to_params(g, model, _start(model, config, None)).edge_values(
            g, DelayMode.LINK)
        # A frontier node's in-edges are frontier or never-active entries.
        touched = np.isin(g.heads, stats.f_group_node)
        touched[stats.link] = touched[stats.fail_edges] = True
        untouched = int(g.edge_count - np.count_nonzero(touched))
    else:
        at = _Problems(stats, problem, len(problems))
        theta = tuple(np.array(x, dtype=np.float64) for x in zip(
            *(_start(model, config, s) for s in starts)))
    if model == "asic":
        e_pass = partial(_asic_e, finite=finite)
        m_pass = _asic_m_per_link if per_link else _asic_m_shared
    elif per_link:
        e_pass, m_pass = _aslt_e_per_link, _aslt_m_per_link
    else:
        e_pass, m_pass = _aslt_e_shared, _aslt_m_shared

    n = at.n
    live = np.ones(n, dtype=bool)
    live[list(errors)] = False
    n_live = n_view = np.count_nonzero(live)
    last = np.zeros(n, dtype=bool)  # stopped; awaiting the final E pass
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.intp)
    final = [None] * n  # each problem's theta when it stopped
    lls = []
    with np.errstate(**_QUIET):
        for it in range(config.max_iterations + 1):
            terms, ll, dens = e_pass(stats, at, theta)
            lls.append(ll)
            # A zero density makes its problem's loglik -inf, and one
            # non-finite loglik makes the sum non-finite.
            if not math.isfinite(np.add.reduce(ll)):
                for b, exc in _underflows(stats, at, dens,
                                          live | last).items():
                    errors[b] = exc
                    live[b] = False
                for b in np.flatnonzero((live | last)
                                        & ~np.isfinite(ll)).tolist():
                    errors.setdefault(b, EstimationError(
                        f"non-finite log-likelihood at iteration {it} "
                        f"({float(ll[b])})"))
                    live[b] = False
                n_live = np.count_nonzero(live)
            if not n_live:
                break
            # Stopped problems keep updating until the passes drop them;
            # their results are read from the snapshots at their own stop.
            new = m_pass(stats, at, terms, theta)
            delta = at.step(new, theta)
            theta = new
            last = live & (delta <= config.tolerance)
            if it + 1 == config.max_iterations:
                capped = live & ~last
                if capped.any():
                    _log.warning(
                        "%d of %d %s %s fits stopped unconverged at "
                        "max_iterations=%d: largest last step %.3g > "
                        "tolerance %.3g", np.count_nonzero(capped), n, model,
                        config.mode, config.max_iterations,
                        delta[capped].max(), config.tolerance)
                converged |= last
                last = live
            elif np.count_nonzero(last):
                converged |= last
            else:
                continue
            iterations[last] = it + 1
            for b in np.flatnonzero(last).tolist():
                final[b] = theta if per_link else (theta[0][b], theta[1][b])
            live = live & ~last
            n_live = np.count_nonzero(live)
            # Once half the problems in the passes have stopped, the passes
            # drop their entries; no other problem's sums change.
            if 2 * np.count_nonzero(live | last) <= n_view:
                n_view = np.count_nonzero(live | last)
                stats = stats.subset((live | last)[at.problem])
                at = _Problems(stats, at.problem, n)

    lls = np.array(lls)
    results = []
    for b in range(n):
        k = int(iterations[b])
        results.append(errors[b] if b in errors else (
            _to_params(g, model, final[b]),
            EmTrace(loglik=lls[:k + 1, b].tolist(), iterations=k,
                    converged=bool(converged[b]), untouched_links=untouched)))
    return results


def param_error(estimate: float, truth: float) -> float:
    """Relative parameter error |estimate - truth| / truth."""
    if truth == 0:
        raise ParameterError("relative error undefined for a zero true value")
    return abs(estimate - truth) / abs(truth)


# -- parameter file I/O ---------------------------------------------------------


def save_params(path, model: str, params, g, iterations: int = 0,
                loglik_value: float = math.nan) -> None:
    """Write a fitted parameter set as a JSON document.  Per-link values
    are keyed ``"u,v"`` by the internal ids of ``g``'s links."""
    doc = {"model": model, "mode": params.mode,
           "iterations": int(iterations), "loglik": loglik_value}
    strength, r = params.strength, params.r
    if params.mode != SHARED:
        keys = [f"{u},{v}" for u, v in zip(g.tails.tolist(),
                                            g.heads.tolist())]
        strength, r = (dict(zip(keys, x.tolist())) for x in (strength, r))
    doc["p" if model == "asic" else "q"], doc["r"] = strength, r
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path, g):
    """Read a parameter JSON document for graph ``g``; returns (model,
    params).  A document without a known model, mode or parameter field,
    with a malformed or out-of-range value, or whose per-link maps miss a
    link of ``g`` or name one it lacks, raises ``ParameterError`` naming
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = doc.get("model") if isinstance(doc, dict) else None
    strength = "p" if model == "asic" else "q"
    if (model not in ("asic", "aslt") or strength not in doc
            or "r" not in doc or doc.get("mode") not in (SHARED, PER_LINK)):
        raise ParameterError(
            f'{path}: expected a JSON object with "model" (asic or aslt), '
            '"mode" (shared or per_link), "p" or "q", and "r"')
    cls = AsicParams if model == "asic" else AsltParams
    try:
        if doc["mode"] == SHARED:
            return model, cls.shared(doc[strength], doc["r"])
        return model, cls.per_link(g, link_array(g, strength, doc[strength]),
                                   link_array(g, "r", doc["r"]))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
