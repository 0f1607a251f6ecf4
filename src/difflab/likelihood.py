"""Exact per-node activation densities under all three delay semantics.

For an observed cascade, each active node contributes the probability density
``h`` of activating exactly when it did: ``h_asic`` for the independent-cascade
model and ``h_aslt`` for the linear-threshold model, from the per-parent
arrival densities ``x`` and (cascade model) not-yet-fired survivals ``y``.
A node activated at the cascade's initial time has density 1, and an
activation that no parent could have caused has density 0.

The survival factors of observed non-activations and the total
log-likelihood are formed for link delay only, by the EM E passes
(``em.loglik``).
"""

from __future__ import annotations

import math

from .errors import CascadeError
from .params import DelayMode, check_model


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


def _parents(c, g, params, delay, v):
    """``(t_v - t_u, strength, rate)`` of each effective parent u of active
    node v, in activation order; None when v activated at the initial
    time, where its density is 1."""
    if v not in c:
        raise CascadeError(f"node {v} is not active in the cascade")
    tv = c.time_of(v)
    if tv == c.initial_time:
        return None
    edges = g.in_edges[g.in_ptr[v]:g.in_ptr[v + 1]]
    strength, rate = params.edge_values(g, delay, edges)
    strength, rate = strength.tolist(), rate.tolist()
    # The effective parents: those active strictly before v.
    ordered = sorted((c.time_of(u), i)
                     for i, u in enumerate(g.tails[edges].tolist())
                     if u in c and c.time_of(u) < tv)
    return [(tv - tu, strength[i], rate[i]) for tu, i in ordered]


def h_asic(c, g, params, delay: DelayMode, v: int) -> float:
    """Activation density of active node v under the cascade model.

    Initial-time activations have density 1.  With link delay (and with
    overridable node delay, where only the rate lookup changes) this is the
    sum over effective parents of "u fired at exactly t_v while every other
    parent had not yet fired", computed in the factored form
    prod(Y) * sum(X/Y).  Non-overridable node delay instead conditions on all
    earlier parents having failed outright.
    """
    check_model("asic", params)
    parents = _parents(c, g, params, delay, v)
    if not parents:
        return 1.0 if parents is None else 0.0
    if delay is DelayMode.NODE_NON_OVERRIDE:
        # Parents in activation order; the j-th term needs every earlier
        # parent to have failed its one chance.
        total = 0.0
        fail_prod = 1.0
        for dt, p, rv in parents:
            total += fail_prod * x_density_asic(p, rv, dt)
            fail_prod *= (1.0 - p)
        return total
    prod_y = 1.0
    sum_ratio = 0.0
    for dt, p, ruv in parents:
        x = x_density_asic(p, ruv, dt)
        y = y_survival_asic(p, ruv, dt)
        if y == 0.0:
            return 0.0
        prod_y *= y
        sum_ratio += x / y
    return prod_y * sum_ratio


def h_aslt(c, g, params, delay: DelayMode, v: int) -> float:
    """Activation density of active node v under the threshold model.

    With link delay (or non-overridable node delay, which only swaps the
    rate) each effective parent u contributes q_{u,v} r exp(-r dt): the
    probability its weight is the tipping one, times the arrival density.
    Overridable node delay sums over which parent's weight tipped the
    threshold and which later parent's proposed reaction time came first.
    """
    check_model("aslt", params)
    parents = _parents(c, g, params, delay, v)
    if not parents:
        return 1.0 if parents is None else 0.0
    if delay is DelayMode.NODE_OVERRIDE:
        total = 0.0
        n = len(parents)
        # Suffix products of the per-parent exponential tails.
        tails = [math.exp(-rv * dt) for dt, _, rv in parents]
        suffix = [1.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * tails[i]
        for j, (_, q, rv) in enumerate(parents):
            total += q * (n - j) * rv * suffix[j]
        return total
    total = 0.0
    for dt, q, ruv in parents:
        total += x_density_aslt(q, ruv, dt)
    return total
