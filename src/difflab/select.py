"""Hold-out model selection between the two diffusion models.

For a group of cascades sharing one parameter set, a series of observation
cutoffs is built from the activation times at or past the median time.  At
each cutoff each model is refitted on the truncated data and asked for the
density of the earliest held-out activation, taken on the full cascade;
the mean negative log density over cutoffs scores the model (smaller is
better).  The model with the smaller score is selected.

There is one selection path.  ``select_topics`` refits every topic in
lockstep by cutoff rank: the k-th cutoff of every topic goes into one
shared-mode ``fit_batch`` call per model, warm-started from that topic's
own previous cutoff.  Each shared-mode total is a segment sum over one
topic's own entries, so a topic's report does not depend on which topics
share its batch.  ``select_model`` is the batch of one topic, and its
report's ``score_asic`` and ``score_aslt`` are the two models' predictive
scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import check_in_graph
# ``fit`` stays a module attribute: perfbench's tracer wraps it here.
from .em import EmConfig, fit, fit_batch  # noqa: F401
from .errors import EstimationError, InsufficientDataError, ParameterError
from .likelihood import h_asic, h_aslt
from .params import SHARED, DelayMode

TIE_EPS = 1e-12
MODELS = ("asic", "aslt")


@dataclass
class ObservationPeriods:
    """Ascending prediction cutoffs plus the median time that anchors them."""

    cutoffs: list
    tau0: float

    def __len__(self):
        return len(self.cutoffs)


@dataclass
class SelectionReport:
    """Scores of both models on one topic; ``skipped`` counts, per model,
    the cutoffs whose truncated data could not be fitted, and ``capped``
    the refits that stopped at the iteration cap unconverged."""

    topic: str
    score_asic: float
    score_aslt: float
    j: float
    chosen: str
    indeterminate: bool = False
    cutoffs: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)
    capped: dict = field(default_factory=dict)


def build_observation_periods(data) -> ObservationPeriods:
    """Cutoffs are the distinct activation times at or past the median time.

    Each cutoff tau opens the window [0, tau), which excludes the event at
    tau itself, so there is always at least one held-out activation.
    """
    times = sorted(t for c in data for _, t in c.events)
    if len(times) < 2:
        raise InsufficientDataError(
            "need at least two activation events to build prediction cutoffs")
    tau0 = float(np.median(times))
    cutoffs = sorted({t for t in times if t >= tau0})
    return ObservationPeriods(cutoffs=cutoffs, tau0=tau0)


def _cut(data, tau):
    """The earliest activation at or past tau, as (time, cascade index,
    node), or None; and the non-empty truncated cascades."""
    held = min(((t, m, v) for m, c in enumerate(data) for v, t in c.events
                if t >= tau), default=None)
    if held is None:
        return None, []
    return held, [c for c in (c.truncated(tau) for c in data) if len(c)]


def _lockstep_terms(g, topics, em_config):
    """The cutoff rows of every model on every topic.

    ``topics`` holds (data, periods) per topic, or ``None`` for a topic to
    leave out.  At cutoff rank k, each model refits the k-th cutoff of
    every topic in one ``fit_batch`` call, each warm-started from its own
    last fitted cutoff.  Returns model -> one list of rows per topic, one
    row (tau, node, time, h, capped) per cutoff: ``capped`` flags a refit
    stopped at the iteration cap, and node, time and h are ``None`` for a
    cutoff whose truncated data cannot be fitted.

    The held-out event is the first of its cascade at or past tau, so the
    parents active before it are the ones active before tau, and its
    density is taken on the full cascade.  Truncated windows are
    right-censored mid-diffusion, so the cascade-model refits use the
    finite-horizon survival factors; the threshold model is horizon-aware
    by construction.
    """
    if em_config is None:
        em_config = EmConfig()
    rows = {m: [[] for _ in topics] for m in MODELS}
    prev = {m: [None] * len(topics) for m in MODELS}
    ranks = max((len(t[1]) for t in topics if t is not None), default=0)
    for k in range(ranks):
        cuts = {i: (t[1].cutoffs[k], *_cut(t[0], t[1].cutoffs[k]))
                for i, t in enumerate(topics)
                if t is not None and k < len(t[1])}
        batch = [i for i, (_, _, kept) in cuts.items() if kept]
        for model in MODELS:
            # Looked up here, not at import: perfbench's tracer wraps them.
            h_model = h_asic if model == "asic" else h_aslt
            results = fit_batch(model, g, [cuts[i][2] for i in batch],
                                em_config, [prev[model][i] for i in batch],
                                horizon_mode="finite")
            fitted = dict(zip(batch, results))
            for i, (tau, held, _) in cuts.items():
                result = fitted.get(i)
                if result is None or isinstance(result, EstimationError):
                    rows[model][i].append((tau, None, None, None, False))
                    continue
                params, trace = result
                prev[model][i] = params
                t_held, m_held, v_held = held
                h = h_model(topics[i][0][m_held], g, params, DelayMode.LINK,
                            v_held)
                rows[model][i].append((tau, v_held, t_held, h,
                                       not trace.converged))
    return rows


def _score(model, rows):
    """Mean negative log-density over the scored cutoff rows.  Cutoffs
    whose truncation cannot be fitted are skipped, and a held-out density
    of zero makes the score +inf."""
    total = 0.0
    n = 0
    for _, node, _, h, _ in rows:
        if node is None:
            continue
        total += math.inf if h == 0.0 else -math.log(h)
        n += 1
    if n == 0:
        raise InsufficientDataError(
            f"no cutoff could be scored for model {model}")
    return total / n


def _report(topic, rows):
    """The report of one topic from each model's cutoff rows.

    Near-ties (|difference| < 1e-12) are flagged indeterminate and resolved
    to the cascade model by convention.
    """
    score_asic = _score("asic", rows["asic"])
    score_aslt = _score("aslt", rows["aslt"])
    diff = score_aslt - score_asic  # positive favors the cascade model
    if math.isnan(diff):
        # Both scores infinite; nothing separates the models.
        diff = 0.0
    indeterminate = abs(diff) < TIE_EPS
    chosen = "asic" if (indeterminate or score_asic <= score_aslt) else "aslt"
    return SelectionReport(
        topic=topic,
        score_asic=score_asic,
        score_aslt=score_aslt,
        j=abs(diff),
        chosen=chosen,
        indeterminate=indeterminate,
        cutoffs=[{"tau": tau, "node": node, "time": t, "h_asic": h,
                  "h_aslt": other[3]}
                 for (tau, node, t, h, _), other in zip(rows["asic"],
                                                       rows["aslt"])],
        skipped={m: sum(row[1] is None for row in rows[m]) for m in MODELS},
        capped={m: sum(row[4] for row in rows[m]) for m in MODELS},
    )


def select_model(g, data, em_config=None,
                 topic="default") -> SelectionReport:
    """Score both models on identical cutoffs and pick the smaller score:
    ``select_topics`` on this one topic, raising its error."""
    result = select_topics(g, {topic: data}, em_config)[topic]
    if isinstance(result, Exception):
        raise result
    return result


def select_topics(g, topics, em_config=None) -> dict:
    """Select a model for every topic of ``topics`` (topic -> cascades),
    with the refits of all topics run in lockstep by cutoff rank.

    Returns topic -> ``SelectionReport``, or the ``InsufficientDataError``
    that keeps the topic from being scored: too few events for cutoffs, or
    no scored cutoff for a model.  Each report is the one the topic gets
    alone.
    """
    if em_config is not None and em_config.mode != SHARED:
        raise ParameterError(
            "model selection refits in shared mode; got mode "
            f"{em_config.mode!r}")
    plans = {}
    for topic, data in topics.items():
        try:
            plans[topic] = build_observation_periods(data)
        except InsufficientDataError as exc:
            plans[topic] = exc
            continue
        check_in_graph(g, data)
    rows = _lockstep_terms(
        g, [None if isinstance(periods, Exception) else (topics[t], periods)
            for t, periods in plans.items()], em_config)
    out = {}
    for i, (topic, periods) in enumerate(plans.items()):
        if isinstance(periods, Exception):
            out[topic] = periods
            continue
        try:
            out[topic] = _report(topic, {m: rows[m][i] for m in MODELS})
        except InsufficientDataError as exc:
            out[topic] = exc
    return out
