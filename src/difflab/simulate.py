"""Event-driven continuous-time simulators for both diffusion models.

Both models run on a priority queue keyed by delivery time, with ties broken
by an insertion sequence number so runs are bit-reproducible.  Exponential
delays are drawn by inverse transform, delta = -ln(U) / rate with U in (0, 1].

Delay semantics:

* LINK: the delay rides on each link; an activation of u schedules per-child
  deliveries at t_u + Exp(rate of (u, v)).
* NODE_NON_OVERRIDE: influence reaches children instantly, the child reacts
  after its own Exp(r_v) delay and never revises the decision.
* NODE_OVERRIDE: as above, but each later influence proposes a new reaction
  time and the earliest proposal wins.
"""

from __future__ import annotations

import math
import random
from heapq import heappush, heappop
from itertools import pairwise

from .cascade import Cascade, CascadeSet
from .errors import (GraphValidationError, ParameterError,
                     SimulationProgressError)
from .params import DelayMode, check_model
from .rng import derive_rng

_LN = math.log
# Enum attribute lookups are slow next to a module global; the run loops
# test the delay mode once per run.
_LINK = DelayMode.LINK
_NODE_OVERRIDE = DelayMode.NODE_OVERRIDE
_NODE_NON_OVERRIDE = DelayMode.NODE_NON_OVERRIDE


def _as_rng(rng_seed) -> random.Random:
    if isinstance(rng_seed, random.Random):
        return rng_seed
    return derive_rng(rng_seed, "simulate")


def _check_seeds(g, seeds):
    seeds = sorted({int(s) for s in seeds})
    if not seeds:
        raise GraphValidationError("seed set must be non-empty")
    for s in seeds:
        if not 0 <= s < g.node_count:
            raise GraphValidationError(f"seed node {s} outside 0..{g.node_count - 1}")
    return seeds


class _RunTables:
    """Per-(graph, params, delay) rows for the run loops.

    ``rows[u]`` holds one ``(child, strength, rate)`` tuple per child of u,
    in child order; the strength is the link's diffusion probability
    (cascade model) or its weight (threshold model).
    """

    __slots__ = ("rows", "min_rate")

    def __init__(self, g, model, params, delay):
        check_model(model, params)
        strength, rate = params.edge_values(g, delay)
        links = list(zip(g.heads.tolist(), strength.tolist(), rate.tolist()))
        self.rows = [links[a:b] for a, b in pairwise(g.out_ptr.tolist())]
        self.min_rate = float(rate.min()) if len(rate) else 1.0


# The run loops below expand every node right after it activates (the seeds
# once all of them are active), so ``events[k:]`` is the queue of activated
# nodes still to expand, and the heap is popped only when that queue is
# empty.

# -- independent-cascade runs ------------------------------------------------


def _run_asic(tables, delay, seeds, rng, attempt_log=None):
    """One cascade run; returns the activation events in time order."""
    rand = rng.random
    ln = _LN
    push = heappush
    pop = heappop
    rows = tables.rows
    log = None if attempt_log is None else attempt_log.append
    # Non-override node delay: the first successful attempt fixes the
    # child's reaction, later attempts on it are not made.
    commit_once = delay is _NODE_NON_OVERRIDE
    committed = set()
    active = {}
    events = []
    for s in seeds:
        active[s] = 0.0
        events.append((s, 0.0))
    heap = []
    seq = 0
    k = 0
    while True:
        if k == len(events):
            while heap:
                t, _, v = pop(heap)
                if v not in active:
                    break
            else:
                return events
            active[v] = t
            events.append((v, t))
        u, tu = events[k]
        k += 1
        for v, p, r in rows[u]:
            if v in active or (commit_once and v in committed):
                continue
            if log is not None:
                log((u, v))
            if rand() < p:
                if commit_once:
                    committed.add(v)
                push(heap, (tu - ln(1.0 - rand()) / r, seq, v))
                seq += 1


# -- linear-threshold runs -----------------------------------------------------


def _run_aslt(tables, delay, seeds, rng):
    """One threshold run; returns the activation events in time order.

    A node's threshold is drawn when its first contribution arrives.  Under
    LINK delay a heap entry is a weight in transit, and the arrival that
    meets the threshold activates the node on the spot.  Under node delay a
    contribution arrives at once; one at or past the threshold proposes a
    reaction time (a heap entry without weight), and the earliest proposal
    to come due wins.  Without override only the first proposal is made.
    """
    rand = rng.random
    ln = _LN
    push = heappush
    pop = heappop
    rows = tables.rows
    link_delay = delay is _LINK
    override = delay is _NODE_OVERRIDE
    state = {}  # node -> [weight received so far, threshold]
    committed = set()
    active = {}
    events = []
    for s in seeds:
        active[s] = 0.0
        events.append((s, 0.0))
    heap = []
    seq = 0
    k = 0
    while True:
        if k == len(events):
            while heap:
                t, _, v, w = pop(heap)
                if v in active:
                    continue
                if w is None:
                    break
                st = state.get(v)
                if st is None:
                    total = 0.0 + w
                    th = rand()
                    state[v] = [total, th]
                else:
                    total = st[0] + w
                    st[0] = total
                    th = st[1]
                if total >= th:
                    break
            else:
                return events
            active[v] = t
            events.append((v, t))
        u, tu = events[k]
        k += 1
        for v, w, r in rows[u]:
            if v in active:
                continue
            if link_delay:
                push(heap, (tu - ln(1.0 - rand()) / r, seq, v, w))
                seq += 1
                continue
            st = state.get(v)
            if st is None:
                total = 0.0 + w
                th = rand()
                state[v] = [total, th]
            else:
                total = st[0] + w
                st[0] = total
                th = st[1]
            if total < th:
                continue
            if not override:
                if v in committed:
                    continue
                committed.add(v)
            push(heap, (tu - ln(1.0 - rand()) / r, seq, v, None))
            seq += 1


_RUNS = {"asic": _run_asic, "aslt": _run_aslt}


def _horizon(events, margin, min_rate):
    last = events[-1][1] if events else 0.0
    if margin is None:
        # Far beyond any surviving exponential tail at the slowest rate.
        margin = 100.0 / min_rate
    return last + margin


def simulate_asic(g, params, delay: DelayMode, seeds, rng_seed,
                  horizon_margin=None, attempt_log=None) -> Cascade:
    """Run the independent-cascade process once and return the cascade.

    Seeds activate at t = 0.  Every activation gives the node a single chance
    per currently inactive child: with probability p the influence takes
    effect after an exponential delay, and the earliest effect activates the
    child.  See the module docstring for the delay variants.
    """
    seeds = _check_seeds(g, seeds)
    rng = _as_rng(rng_seed)
    tables = _RunTables(g, "asic", params, delay)
    events = _run_asic(tables, delay, seeds, rng, attempt_log)
    return Cascade(events, _horizon(events, horizon_margin, tables.min_rate))


def simulate_aslt(g, params, delay: DelayMode, seeds, rng_seed,
                  horizon_margin=None) -> Cascade:
    """Run the linear-threshold process once and return the cascade.

    Each node holds a uniform random threshold, drawn lazily on the first
    contribution.  Active parents contribute their link weights after the
    delay dictated by the delay mode; the node activates the moment the
    accumulated weight reaches its threshold.
    """
    seeds = _check_seeds(g, seeds)
    rng = _as_rng(rng_seed)
    tables = _RunTables(g, "aslt", params, delay)
    events = _run_aslt(tables, delay, seeds, rng)
    return Cascade(events, _horizon(events, horizon_margin, tables.min_rate))


def generate_training_set(g, params, model: str, delay: DelayMode,
                          target_active: int, min_len: int, rng_seed,
                          max_attempts: int = 100_000,
                          horizon_margin=None) -> CascadeSet:
    """Accumulate cascades until the total number of active nodes reaches K.

    Each run starts from a single uniformly random seed; runs shorter than
    ``min_len`` are discarded.  Raises SimulationProgressError if the attempt
    budget is exhausted before K active nodes are collected, and
    ParameterError unless target_active >= min_len >= 1 and max_attempts >= 1.
    """
    if min_len < 1 or target_active < min_len or max_attempts < 1:
        raise ParameterError("need target_active >= min_len >= 1 and "
                             "max_attempts >= 1")
    tables = _RunTables(g, model, params, delay)
    run = _RUNS[model]
    cascades = []
    total = 0
    for attempt in range(max_attempts):
        rng = derive_rng(rng_seed, "train", attempt)
        seed_node = rng.randrange(g.node_count)
        events = run(tables, delay, [seed_node], rng)
        if len(events) < min_len:
            continue
        cascades.append(
            Cascade(events, _horizon(events, horizon_margin, tables.min_rate)))
        total += len(events)
        if total >= target_active:
            return CascadeSet(cascades)
    raise SimulationProgressError(
        f"collected {total}/{target_active} active nodes after "
        f"{max_attempts} attempts (kept {len(cascades)} cascades)")
