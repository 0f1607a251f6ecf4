"""Exact per-node densities, survival factors, and total log-likelihood.

For an observed cascade, each active node contributes the probability density
``h`` of activating exactly when it did, and each observed non-activation
contributes a survival probability ``g``:

* independent-cascade model: active nodes contribute ``h * g`` where ``g``
  covers their still-inactive children;
* linear-threshold model: active nodes contribute ``h`` and frontier nodes
  (inactive with an active parent) contribute ``g``.

A node activated at the cascade's initial time contributes density 1.  An
activation that no parent could have caused has density 0; the total
log-likelihood is then ``-inf`` and the offending events are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cascade import check_in_graph, effective_parents, frontier
from .errors import CascadeError
from .params import DelayMode

INFINITE = "infinite"
FINITE = "finite"


@dataclass
class NodeDensityTerms:
    """Per-parent breakdown of one node's activation density.

    ``x_terms[u]`` is the density that parent u fired the activation exactly
    when it happened; ``y_terms[u]`` the probability u had not caused it yet
    (cascade model only; the threshold model carries no survival factors in
    its density).  ``h`` combines them and ``log_h`` is -inf when h is 0.
    """

    node: int
    x_terms: dict = field(default_factory=dict)
    y_terms: dict = field(default_factory=dict)
    h: float = 1.0

    @property
    def log_h(self) -> float:
        return math.log(self.h) if self.h > 0.0 else -math.inf


def node_density_terms(c, g, params, delay: DelayMode, v: int,
                       model: str = "asic") -> NodeDensityTerms:
    """Decompose h for active node v into its per-parent ingredients."""
    if v not in c:
        raise CascadeError(f"node {v} is not active in the cascade")
    terms = NodeDensityTerms(node=v)
    tv = c.time_of(v)
    if tv == c.initial_time:
        return terms
    if model == "asic":
        for u in sorted(effective_parents(g, c, v)):
            dt = tv - c.time_of(u)
            p = params.prob(u, v)
            r = params.rate(delay, u, v)
            terms.x_terms[u] = x_density_asic(p, r, dt)
            terms.y_terms[u] = y_survival_asic(p, r, dt)
        terms.h = h_asic(c, g, params, delay, v)
    elif model == "aslt":
        for u in sorted(effective_parents(g, c, v)):
            dt = tv - c.time_of(u)
            q = params.weight(g, u, v)
            r = params.rate(delay, u, v)
            terms.x_terms[u] = x_density_aslt(q, r, dt)
        terms.h = h_aslt(c, g, params, delay, v)
    else:
        raise ValueError(f"unknown model {model!r}")
    return terms


def x_density_asic(p: float, r: float, dt: float) -> float:
    """Density that a single parent fires the activation after exactly dt."""
    if dt <= 0.0:
        raise CascadeError(f"time gap must be positive, got {dt}")
    return p * r * math.exp(-r * dt)


def y_survival_asic(p: float, r: float, dt: float) -> float:
    """Probability that a parent has not activated the child within dt.

    Either the single attempt failed (1 - p) or it succeeded with a delay
    exceeding dt.
    """
    if dt < 0.0:
        raise CascadeError(f"time gap must be non-negative, got {dt}")
    return p * math.exp(-r * dt) + (1.0 - p)


def x_density_aslt(q: float, r: float, dt: float) -> float:
    """Density that a parent's weight arrives, and tips the node, after dt."""
    if dt <= 0.0:
        raise CascadeError(f"time gap must be positive, got {dt}")
    return q * r * math.exp(-r * dt)


def _sorted_effective_parents(c, v, parents):
    tv = c.time_of(v)
    out = [(c.time_of(u), u) for u in parents]
    out.sort()
    return tv, out


def h_asic(c, g, params, delay: DelayMode, v: int) -> float:
    """Activation density of active node v under the cascade model.

    Initial-time activations have density 1.  With link delay (and with
    overridable node delay, where only the rate lookup changes) this is the
    sum over effective parents of "u fired at exactly t_v while every other
    parent had not yet fired", computed in the factored form
    prod(Y) * sum(X/Y).  Non-overridable node delay instead conditions on all
    earlier parents having failed outright.
    """
    if v not in c:
        raise CascadeError(f"node {v} is not active in the cascade")
    tv = c.time_of(v)
    if tv == c.initial_time:
        return 1.0
    parents = effective_parents(g, c, v)
    if not parents:
        return 0.0
    _, ordered = _sorted_effective_parents(c, v, parents)
    if delay is DelayMode.NODE_NON_OVERRIDE:
        # Parents in activation order; the j-th term needs every earlier
        # parent to have failed its one chance.
        total = 0.0
        fail_prod = 1.0
        for tu, u in ordered:
            p = params.prob(u, v)
            rv = params.rate(delay, u, v)
            total += fail_prod * x_density_asic(p, rv, tv - tu)
            fail_prod *= (1.0 - p)
        return total
    prod_y = 1.0
    sum_ratio = 0.0
    for tu, u in ordered:
        p = params.prob(u, v)
        ruv = params.rate(delay, u, v)
        x = x_density_asic(p, ruv, tv - tu)
        y = y_survival_asic(p, ruv, tv - tu)
        if y == 0.0:
            return 0.0
        prod_y *= y
        sum_ratio += x / y
    return prod_y * sum_ratio


def g_asic(c, g, params, v: int, horizon_mode: str = INFINITE,
           delay: DelayMode = DelayMode.LINK) -> float:
    """Probability that active node v failed to activate its inactive children.

    Infinite-horizon mode treats the observation window as long enough that
    a pending success would already have landed, so each inactive child
    contributes (1 - p).  Finite mode keeps the within-window survival term.
    """
    if v not in c:
        raise CascadeError(f"node {v} is not active in the cascade")
    tv = c.time_of(v)
    prod = 1.0
    for w in g.out_adj[v]:
        if w in c:
            continue
        p = params.prob(v, w)
        if horizon_mode == INFINITE:
            prod *= (1.0 - p)
        elif horizon_mode == FINITE:
            rvw = params.rate(delay, v, w)
            prod *= y_survival_asic(p, rvw, c.horizon - tv)
        else:
            raise ValueError(f"unknown horizon mode {horizon_mode!r}")
    return prod


def h_aslt(c, g, params, delay: DelayMode, v: int) -> float:
    """Activation density of active node v under the threshold model.

    With link delay (or non-overridable node delay, which only swaps the
    rate) each effective parent u contributes q_{u,v} r exp(-r dt): the
    probability its weight is the tipping one, times the arrival density.
    Overridable node delay sums over which parent's weight tipped the
    threshold and which later parent's proposed reaction time came first.
    """
    if v not in c:
        raise CascadeError(f"node {v} is not active in the cascade")
    tv = c.time_of(v)
    if tv == c.initial_time:
        return 1.0
    parents = effective_parents(g, c, v)
    if not parents:
        return 0.0
    _, ordered = _sorted_effective_parents(c, v, parents)
    if delay is DelayMode.NODE_OVERRIDE:
        total = 0.0
        n = len(ordered)
        # Suffix products of the per-parent exponential tails.
        tails = [math.exp(-params.rate(delay, u, v) * (tv - tu))
                 for tu, u in ordered]
        suffix = [1.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * tails[i]
        for j, (tu, u) in enumerate(ordered):
            rv = params.rate(delay, u, v)
            total += params.weight(g, u, v) * (n - j) * rv * suffix[j]
        return total
    total = 0.0
    for tu, u in ordered:
        q = params.weight(g, u, v)
        ruv = params.rate(delay, u, v)
        total += x_density_aslt(q, ruv, tv - tu)
    return total


def g_aslt(c, g, params, v: int, delay: DelayMode = DelayMode.LINK) -> float:
    """Probability that frontier node v stayed inactive through the window.

    The node's threshold exceeded the slack weight plus the weights of
    parents that never activated, plus each active parent's weight whose
    arrival is still pending at the horizon.
    """
    if v in c:
        raise CascadeError(f"node {v} is active, not a frontier node")
    eff = effective_parents(g, c, v)  # raises if v has no active parent
    total = params.slack(g, v)
    for u in g.in_adj[v]:
        q = params.weight(g, u, v)
        if u in eff:
            ruv = params.rate(delay, u, v)
            total += q * math.exp(-ruv * (c.horizon - c.time_of(u)))
        else:
            total += q
    return total


def loglik(model: str, g, params, delay: DelayMode, data,
           horizon_mode: str = INFINITE, diagnostics=None) -> float:
    """Total log-likelihood of a cascade set under the given model.

    Returns -inf if any factor is exactly zero; when a ``diagnostics`` list
    is supplied, each zero factor is reported as (cascade_index, node, kind).
    """
    if model not in ("asic", "aslt"):
        raise ValueError(f"unknown model {model!r}")
    check_in_graph(g, data)
    total = 0.0
    dead = False
    for m, c in enumerate(data):
        if model == "asic":
            for v, _ in c.events:
                h = h_asic(c, g, params, delay, v)
                gv = g_asic(c, g, params, v, horizon_mode, delay)
                if h == 0.0 or gv == 0.0:
                    dead = True
                    if diagnostics is not None:
                        kind = "h" if h == 0.0 else "g"
                        diagnostics.append((m, v, kind))
                    continue
                total += math.log(h) + math.log(gv)
        else:
            for v, _ in c.events:
                h = h_aslt(c, g, params, delay, v)
                if h == 0.0:
                    dead = True
                    if diagnostics is not None:
                        diagnostics.append((m, v, "h"))
                    continue
                total += math.log(h)
            for v in sorted(frontier(g, c)):
                gv = g_aslt(c, g, params, v, delay)
                if gv == 0.0:
                    dead = True
                    if diagnostics is not None:
                        diagnostics.append((m, v, "g"))
                    continue
                total += math.log(gv)
    return -math.inf if dead else total
