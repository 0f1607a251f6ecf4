"""Iterative maximum-likelihood estimation for both diffusion models.

Estimation alternates a responsibility computation (which parent most likely
caused each observed activation, and how each observed non-activation splits
between "never fired" and "still pending") with closed-form parameter updates
that maximize the resulting surrogate objective.  Each update can only
increase the data log-likelihood, so the iteration converges to a stationary
point.

Only the link-delay variant is learnable here; the sufficient statistics are
the time gaps between parent and child activations plus the failure structure
of each cascade.  Shared mode pools every link into one (p, r) or (q, r)
pair; per-link mode keeps one parameter per edge, and edges never touched by
the data keep their current values (counted as warnings).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from .cascade import check_in_graph
from .errors import EstimationError, ParameterError
from .params import PER_LINK, SHARED, AsicParams, AsltParams, DelayMode

_log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12
RATE_FLOOR = 1e-12
RATE_CEIL = 1e12


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

    ``loglik[i]`` and ``params_history[i]`` describe the parameters after i
    updates (index 0 is the initialization).  The log-likelihood sequence is
    non-decreasing up to floating-point slack.
    """

    loglik: list = field(default_factory=list)
    params_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    untouched_links: int = 0


@dataclass
class Responsibilities:
    """Posterior attribution of observed events to latent causes.

    Cascade model: ``alpha[(m, u, v)]`` is the posterior probability that
    parent u caused v's activation in cascade m (summing to 1 over v's
    effective parents); ``beta`` is the probability that u's single chance
    succeeded but would have landed past t_v, given that it did not land
    in time.

    Threshold model: ``phi`` attributes each activation to a tipping parent;
    for each frontier node, ``varphi`` (keyed (m, v, v) for the slack weight
    and (m, u, v) for never-active parents) and ``psi`` (still-pending
    active parents) split the survival mass and together sum to 1.
    """

    model: str = "asic"
    alpha: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)
    varphi: dict = field(default_factory=dict)
    psi: dict = field(default_factory=dict)
    _ctx: object = None


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


class _Stats:
    """Flattened (cascade, child, parent) structure for vectorized passes.

    Activation block (both models): one group per non-initial activation,
    from cascade ``group_m`` at node ``group_node`` with ``group_nb``
    parents, and one entry per effective parent (edge ``link``, time gap
    ``dt``, group ``group``).

    Failure block (cascade model): one term per active node u and inactive
    child w (edge ``fail_edges``, remaining window ``fail_dt``).

    Frontier block (threshold model): one group per frontier node, from
    cascade ``f_group_m`` at node ``f_group_node`` with ``f_group_nb``
    parents of which ``f_group_k`` are active; one ``f_`` entry per active
    parent (window ``f_dt``) and one ``i_`` entry per never-active parent.

    The block a model does not use stays empty.  Entries follow cascade,
    then node, then parent order, which fixes the order of every sum.
    """

    __slots__ = ("g", "dt", "group", "link", "n_groups", "n_plus",
                 "group_m", "group_node", "group_nb",
                 "fail_edges", "fail_dt", "fail_total",
                 "f_dt", "f_group", "f_link", "f_nb", "n_f_groups",
                 "f_group_nb", "f_group_k", "f_group_node", "f_group_m",
                 "i_link", "i_group")

    def __init__(self, g, data, model):
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
            raise EstimationError(
                f"cascade {ev_m[i]}: node {ev_node[i]} activated at "
                f"t={float(ev_time[i])} with no possible activator "
                f"(zero-probability event)")
        self.g = g
        self.dt = tv[keep] - tu[keep]
        self.group = owner[keep]
        self.link = edge[keep]
        self.n_groups = len(act)
        self.n_plus = len(self.dt)
        self.group_m = ev_m[act]
        self.group_node = ev_node[act]
        self.group_nb = g.in_degree[self.group_node].astype(np.float64)

        # Inactive children of each active node, in event then child order.
        owner, out_edge = _segments(g.out_ptr, ev_node)
        child = ev_m[owner] * n + g.heads[out_edge]
        missed = ~time_of(child)[1]
        if model == "asic":
            self.fail_edges = out_edge[missed]
            owner = owner[missed]
            self.fail_dt = horizon[ev_m[owner]] - ev_time[owner]
            front = np.zeros(0, dtype=np.intp)
        else:
            self.fail_edges = np.zeros(0, dtype=np.intp)
            self.fail_dt = np.zeros(0)
            # Each frontier node once per cascade (keys m * n + v, sorted).
            front = np.unique(child[missed])
        self.fail_total = len(self.fail_edges)

        # Frontier block: every parent of each frontier node.
        f_m, f_node = np.divmod(front, max(n, 1))
        owner, edge = _segments(g.in_ptr, f_node)
        edge = g.in_edges[edge]
        tu, active = time_of(f_m[owner] * n + g.tails[edge])
        self.f_dt = horizon[f_m[owner[active]]] - tu[active]
        self.f_group = owner[active]
        self.f_link = edge[active]
        self.i_link = edge[~active]
        self.i_group = owner[~active]
        self.n_f_groups = len(front)
        self.f_group_nb = g.in_degree[f_node].astype(np.float64)
        self.f_nb = self.f_group_nb[self.f_group]
        self.f_group_k = np.bincount(
            self.f_group, minlength=len(front)).astype(np.float64)
        self.f_group_node = f_node
        self.f_group_m = f_m

    def keys(self, group_m, group, link):
        """(cascade, parent, child) of each entry of one block, given the
        block's per-group cascades and its entries' groups and edges."""
        edges = self.g.edges
        return [(m, *edges[e])
                for m, e in zip(group_m[group].tolist(), link.tolist())]

    def check_density(self, dens):
        """Raise on an activation whose density underflowed to 0."""
        zero = dens == 0.0
        if zero.any():
            bad = int(np.argmax(zero))
            raise EstimationError(
                f"cascade {self.group_m[bad]}: activation density of node "
                f"{self.group_node[bad]} underflowed to 0")


# -- E and M passes ---------------------------------------------------------
#
# theta = (strength, rate): two scalars in shared mode, two edge-indexed
# vectors in per-link mode.  An E pass returns (terms, loglik); an M pass
# maps (terms, theta) to the next theta.


def _asic_e(stats, theta, finite=False):
    """Cascade-model terms (alpha, beta, beta_fail) and log-likelihood.

    With ``finite=True`` each observed non-activation keeps the within-window
    survival factor p*exp(-r*(T - t)) + (1 - p) instead of its T -> inf limit
    (1 - p); ``beta_fail`` is then the posterior mass of "succeeded but still
    pending at the horizon".
    """
    p, r = theta
    if isinstance(p, np.ndarray):
        p_arr, r_arr, fail_p = p[stats.link], r[stats.link], p[stats.fail_edges]
        fail_r = r[stats.fail_edges] if finite else None
    else:
        p_arr, r_arr, fail_p, fail_r = p, r, np.full(stats.fail_total, p), r
    ee = np.exp(-r_arr * stats.dt)
    pe = p_arr * ee
    y = pe + (1.0 - p_arr)
    w = r_arr * pe / y
    group_sum = np.bincount(stats.group, weights=w, minlength=stats.n_groups)
    stats.check_density(group_sum)
    alpha = w / group_sum[stats.group]
    beta = pe / y
    if finite:
        pef = fail_p * np.exp(-fail_r * stats.fail_dt)
        yf = pef + (1.0 - fail_p)
        beta_fail = pef / yf
        fail_ll = np.log(yf).sum()
    else:
        beta_fail = None
        with np.errstate(divide="ignore"):
            fail_ll = np.log1p(-fail_p).sum()
    with np.errstate(divide="ignore"):
        ll = float(np.log(y).sum() + np.log(group_sum).sum() + fail_ll)
    return (alpha, beta, beta_fail), ll


def _asic_m_shared(stats, terms, theta):
    alpha, beta, beta_fail = terms
    gamma = alpha + (1.0 - alpha) * beta
    den_r = float((gamma * stats.dt).sum())
    num_p = float(gamma.sum())
    if beta_fail is not None:
        den_r += float((beta_fail * stats.fail_dt).sum())
        num_p += float(beta_fail.sum())
    r_new = stats.n_groups / den_r
    p_new = num_p / (stats.n_plus + stats.fail_total)
    return _clamp_prob(p_new), _clamp_rate(r_new)


def _asic_m_per_link(stats, terms, theta):
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
    cnt = np.bincount(stats.link, minlength=n_edges).astype(float)
    cnt += np.bincount(stats.fail_edges, minlength=n_edges)
    has_r = num_r > 0
    has_p = cnt > 0
    r_new = np.where(has_r, num_r / np.where(has_r, den_r, 1.0), r_vec)
    p_new = np.where(has_p, num_p / np.where(has_p, cnt, 1.0), p_vec)
    np.clip(p_new, PROB_FLOOR, 1.0, out=p_new)
    np.clip(r_new, RATE_FLOOR, RATE_CEIL, out=r_new)
    return p_new, r_new


def _aslt_e_shared(stats, theta):
    """Threshold-model terms (phi, psi, varphi_slack, varphi_inact, gvals)
    and log-likelihood; ``varphi_inact`` is per frontier group."""
    q, r = theta
    e_h = np.exp(-r * stats.dt)
    h_sum = np.bincount(stats.group, weights=e_h, minlength=stats.n_groups)
    stats.check_density(h_sum)
    phi = e_h / h_sum[stats.group]
    e_g = np.exp(-r * stats.f_dt)
    tail_sum = np.bincount(stats.f_group, weights=e_g,
                           minlength=stats.n_f_groups)
    nb = stats.f_group_nb
    gvals = (1.0 - q) + q * (nb - stats.f_group_k) / nb + (q / nb) * tail_sum
    psi = (q / stats.f_nb) * e_g / gvals[stats.f_group]
    varphi_slack = (1.0 - q) / gvals
    varphi_inact_total = (nb - stats.f_group_k) * (q / nb) / gvals
    with np.errstate(divide="ignore"):
        ll = float(stats.n_groups * (math.log(q) + math.log(r))
                   - np.log(stats.group_nb).sum()
                   + np.log(h_sum).sum()
                   + np.log(gvals).sum())
    return (phi, psi, varphi_slack, varphi_inact_total, gvals), ll


def _aslt_e_per_link(stats, theta, slack_vec):
    """Like ``_aslt_e_shared``, with ``varphi_inact`` per ``i_`` entry and
    each node's slack weight from ``slack_vec``."""
    q_vec, r_vec = theta
    q_arr = q_vec[stats.link]
    r_arr = r_vec[stats.link]
    term = q_arr * r_arr * np.exp(-r_arr * stats.dt)
    h_sum = np.bincount(stats.group, weights=term, minlength=stats.n_groups)
    stats.check_density(h_sum)
    phi = term / h_sum[stats.group]
    rf = r_vec[stats.f_link]
    tail = q_vec[stats.f_link] * np.exp(-rf * stats.f_dt)
    gvals = slack_vec[stats.f_group_node].astype(float)
    gvals += np.bincount(stats.f_group, weights=tail,
                         minlength=stats.n_f_groups)
    if len(stats.i_link):
        gvals += np.bincount(stats.i_group, weights=q_vec[stats.i_link],
                             minlength=stats.n_f_groups)
    psi = tail / gvals[stats.f_group] if len(tail) else tail
    varphi_inact = (q_vec[stats.i_link] / gvals[stats.i_group]
                    if len(stats.i_link) else np.zeros(0))
    varphi_slack = (slack_vec[stats.f_group_node] / gvals
                    if stats.n_f_groups else np.zeros(0))
    with np.errstate(divide="ignore"):
        ll = float(np.log(h_sum).sum() + np.log(gvals).sum())
    return (phi, psi, varphi_slack, varphi_inact, gvals), ll


def _aslt_m_shared(stats, terms, theta):
    phi, psi, varphi_slack, varphi_inact_total, _ = terms
    q, r = theta
    a = stats.n_groups + float(psi.sum()) + float(varphi_inact_total.sum())
    b = float(varphi_slack.sum())
    q_new = a / (a + b) if (a + b) > 0 else q
    denom = float((phi * stats.dt).sum() + (psi * stats.f_dt).sum())
    r_new = stats.n_groups / denom if denom > 0 else r
    return min(max(q_new, PROB_FLOOR), 1.0), _clamp_rate(r_new)


def _aslt_m_per_link(stats, terms, theta):
    phi, psi, varphi_slack, varphi_inact, _ = terms
    q_vec, r_vec = theta
    n_edges = len(q_vec)
    num_q = np.bincount(stats.link, weights=phi, minlength=n_edges)
    num_q += np.bincount(stats.f_link, weights=psi, minlength=n_edges)
    if len(stats.i_link):
        num_q += np.bincount(stats.i_link, weights=varphi_inact,
                             minlength=n_edges)
    edge_target = stats.g.heads
    slack_num = np.zeros(stats.g.node_count)
    if stats.n_f_groups:
        np.add.at(slack_num, stats.f_group_node, varphi_slack)
    node_tot = slack_num.copy()
    np.add.at(node_tot, edge_target, num_q)
    has_mass = node_tot[edge_target] > 0
    q_new = np.where(has_mass,
                     num_q / np.where(has_mass, node_tot[edge_target], 1.0),
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


def _clamp_prob(p):
    return min(max(p, PROB_FLOOR), 1.0)


def _clamp_rate(r):
    return min(max(r, RATE_FLOOR), RATE_CEIL)


def _check_loglik(ll, iteration=None):
    if not math.isfinite(ll):
        at = "" if iteration is None else f" at iteration {iteration}"
        raise EstimationError(f"non-finite log-likelihood{at} ({ll})")


def _to_theta(g, model, params, per_link):
    """``(strength, rate)`` of ``params``: its shared scalars, or edge-indexed
    vectors when ``per_link`` (a shared weight q splits as q / |B(v)|)."""
    strength = params.p if model == "asic" else params.q
    if not per_link:
        return strength, params.r
    if params.mode == PER_LINK:
        return (np.asarray([strength[e] for e in g.edges]),
                np.asarray([params.r[e] for e in g.edges]))
    if model == "asic":
        s_vec = np.full(g.edge_count, strength)
    else:
        s_vec = strength / g.in_degree[g.heads]
    return s_vec, np.full(g.edge_count, params.r)


def _to_params(g, model, theta):
    """Parameters holding ``theta``; per-link weights are kept >= PROB_FLOOR."""
    cls = AsicParams if model == "asic" else AsltParams
    strength, r = theta
    if not isinstance(strength, np.ndarray):
        return cls.shared(strength, r)
    if model == "aslt":
        strength = np.maximum(strength, PROB_FLOOR)
    return cls.per_link(dict(zip(g.edges, strength.tolist())),
                        dict(zip(g.edges, r.tolist())))


# -- fitting loop ---------------------------------------------------------------


def fit(model: str, g, data, config: EmConfig | None = None,
        delay: DelayMode = DelayMode.LINK, init_params=None,
        horizon_mode: str = "infinite"):
    """Fit model parameters by alternating E and M steps.

    Stops when the L1 change of the parameter vector drops to the configured
    tolerance, or at the iteration cap; a fit that reaches the cap logs a
    warning on the ``difflab.em`` logger.  Returns ``(params, EmTrace)``.
    ``init_params`` warm-starts a shared-mode fit from an earlier solution.

    ``horizon_mode`` selects the survival factor of the cascade model's
    failure terms: "infinite" (default; appropriate when every cascade ran to
    completion well before its horizon) or "finite" (right-censored data,
    e.g. observation windows cut mid-diffusion).  The threshold model is
    always horizon-aware and ignores the flag.
    """
    if delay is not DelayMode.LINK:
        raise EstimationError(
            "learning is only supported for the link-delay variant")
    if model not in ("asic", "aslt"):
        raise ValueError(f"unknown model {model!r}")
    if horizon_mode not in ("infinite", "finite"):
        raise ValueError(f"unknown horizon mode {horizon_mode!r}")
    if config is None:
        config = EmConfig()
    if len(data) == 0:
        raise EstimationError("cannot fit on an empty cascade set")
    if init_params is not None:
        if config.mode != SHARED:
            raise EstimationError("warm starts require shared mode")
        if model == "asic":
            config = replace(config, init_p=min(init_params.p, 1.0 - 1e-9),
                             init_r=init_params.r)
        else:
            config = replace(config, init_q=init_params.q,
                             init_r=init_params.r)
    stats = _Stats(g, data, model)
    if stats.n_groups == 0:
        raise EstimationError(
            "no non-initial activations: nothing pins the delay rate")
    shared = config.mode == SHARED
    trace = EmTrace()
    start = (AsicParams.shared(config.init_p, config.init_r)
             if model == "asic"
             else AsltParams.shared(config.init_q, config.init_r))
    theta = _to_theta(g, model, start, per_link=not shared)
    if not shared:
        touched = np.zeros(g.edge_count, dtype=bool)
        for links in (stats.link, stats.fail_edges, stats.f_link,
                      stats.i_link):
            touched[links] = True
        trace.untouched_links = int(g.edge_count - touched.sum())

    if model == "asic":
        e_pass = partial(_asic_e, stats, finite=horizon_mode == "finite")
        m_pass = _asic_m_shared if shared else _asic_m_per_link
    elif shared:
        e_pass, m_pass = partial(_aslt_e_shared, stats), _aslt_m_shared
    else:
        def e_pass(theta):
            slack = np.ones(g.node_count)
            np.subtract.at(slack, g.heads, theta[0])
            return _aslt_e_per_link(stats, theta, np.maximum(slack, 0.0))

        m_pass = _aslt_m_per_link

    trace.params_history.append(_snap(theta))
    for it in range(config.max_iterations):
        terms, ll = e_pass(theta)
        _check_loglik(ll, it)
        trace.loglik.append(ll)
        new = m_pass(stats, terms, theta)
        if shared:
            delta = abs(new[0] - theta[0]) + abs(new[1] - theta[1])
        else:
            delta = float(np.abs(new[0] - theta[0]).sum()
                          + np.abs(new[1] - theta[1]).sum())
        theta = new
        trace.params_history.append(_snap(theta))
        trace.iterations = it + 1
        if delta <= config.tolerance:
            trace.converged = True
            break
    else:
        _log.warning("%s %s fit stopped unconverged at max_iterations=%d: "
                     "last step %.3g > tolerance %.3g", model, config.mode,
                     config.max_iterations, delta, config.tolerance)
    trace.loglik.append(e_pass(theta)[1])
    return _to_params(g, model, theta), trace


def _snap(theta):
    a, b = theta
    if isinstance(a, np.ndarray):
        return (a.copy(), b.copy())
    return (float(a), float(b))


# -- single-step public surface ----------------------------------------------


def e_step_asic(g, data, params) -> Responsibilities:
    """Responsibilities of the cascade model at the given parameters."""
    stats = _Stats(g, data, "asic")
    terms, ll = _asic_e(stats, _to_theta(g, "asic", params,
                                         params.mode == PER_LINK))
    _check_loglik(ll)
    alpha, beta, _ = terms
    keys = stats.keys(stats.group_m, stats.group, stats.link)
    return Responsibilities(model="asic",
                            alpha=dict(zip(keys, alpha.tolist())),
                            beta=dict(zip(keys, beta.tolist())),
                            _ctx=(stats, terms, params))


def m_step_asic(g, data, resp: Responsibilities, mode: str = SHARED):
    """One closed-form update from cascade-model responsibilities."""
    stats, terms, params = resp._ctx
    if mode == SHARED:
        return _to_params(g, "asic", _asic_m_shared(stats, terms, None))
    theta = _to_theta(g, "asic", params, per_link=True)
    return _to_params(g, "asic", _asic_m_per_link(stats, terms, theta))


def e_step_aslt(g, data, params) -> Responsibilities:
    """Responsibilities of the threshold model at the given parameters."""
    stats = _Stats(g, data, "aslt")
    if params.mode == SHARED:
        terms, ll = _aslt_e_shared(stats, (params.q, params.r))
        gvals = terms[4]
        varphi_inact = ((params.q / stats.f_group_nb[stats.i_group])
                        / gvals[stats.i_group])
    else:
        slack_vec = np.asarray([params.slack(g, v)
                                for v in range(g.node_count)])
        terms, ll = _aslt_e_per_link(
            stats, _to_theta(g, "aslt", params, per_link=True), slack_vec)
        varphi_inact = terms[3]
    _check_loglik(ll)
    phi, psi, varphi_slack = terms[:3]
    varphi = dict(zip(stats.keys(stats.f_group_m, stats.i_group,
                                 stats.i_link), varphi_inact.tolist()))
    for m, v, val in zip(stats.f_group_m.tolist(),
                         stats.f_group_node.tolist(), varphi_slack.tolist()):
        varphi[(m, v, v)] = val
    return Responsibilities(
        model="aslt",
        phi=dict(zip(stats.keys(stats.group_m, stats.group, stats.link),
                     phi.tolist())),
        varphi=varphi,
        psi=dict(zip(stats.keys(stats.f_group_m, stats.f_group,
                                stats.f_link), psi.tolist())),
        _ctx=(stats, terms, varphi_inact, params))


def m_step_aslt(g, data, resp: Responsibilities, mode: str = SHARED):
    """One closed-form update from threshold-model responsibilities."""
    stats, terms, varphi_inact, params = resp._ctx
    if mode == SHARED:
        if params.mode != SHARED:
            raise EstimationError(
                "shared update requires shared-mode responsibilities")
        return _to_params(g, "aslt", _aslt_m_shared(stats, terms,
                                                    (params.q, params.r)))
    # Shared-mode terms hold per-group totals; the update needs per entry.
    terms = terms[:3] + (varphi_inact, None)
    theta = _to_theta(g, "aslt", params, per_link=True)
    return _to_params(g, "aslt", _aslt_m_per_link(stats, terms, theta))


def param_error(estimate: float, truth: float) -> float:
    """Relative parameter error |estimate - truth| / truth."""
    if truth == 0:
        raise ParameterError("relative error undefined for a zero true value")
    return abs(estimate - truth) / abs(truth)


# -- parameter file I/O ---------------------------------------------------------


def _edge_key(e):
    return f"{e[0]},{e[1]}"


def _parse_edge_key(s):
    u, v = s.split(",")
    return (int(u), int(v))


def save_params(path, model: str, params, iterations: int = 0,
                loglik_value: float = math.nan) -> None:
    """Write a fitted parameter set as a JSON document."""
    doc = {"model": model, "mode": params.mode,
           "iterations": int(iterations), "loglik": loglik_value}
    strength_key = "p" if model == "asic" else "q"
    strength = params.p if model == "asic" else params.q
    if params.mode == SHARED:
        doc[strength_key] = strength
        doc["r"] = params.r
    else:
        doc[strength_key] = {_edge_key(e): val for e, val in strength.items()}
        doc["r"] = {_edge_key(e): val for e, val in params.r.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path):
    """Read a parameter JSON document; returns (model, params)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = doc["model"]
    mode = doc["mode"]
    strength_key = "p" if model == "asic" else "q"
    strength = doc[strength_key]
    r = doc["r"]
    if mode == SHARED:
        params = (AsicParams.shared(strength, r) if model == "asic"
                  else AsltParams.shared(strength, r))
    else:
        smap = {_parse_edge_key(k): val for k, val in strength.items()}
        rmap = {_parse_edge_key(k): val for k, val in r.items()}
        params = (AsicParams.per_link(smap, rmap) if model == "asic"
                  else AsltParams.per_link(smap, rmap))
    return model, params
