"""Hold-out model selection between the two diffusion models.

For a group of cascades sharing one parameter set, a series of observation
cutoffs is built from the activation times at or past the median time.  At
each cutoff the candidate model is refitted on the truncated data and asked
for the density of the earliest held-out activation; the mean negative log
density over cutoffs scores the model (smaller is better).  The model with
the smaller score is selected.

Refits run in shared mode.  ``select_topics`` refits all topics in
lockstep by cutoff rank: the k-th cutoff of every topic goes into one
``fit_batch`` call, warm-started from that topic's own previous cutoff.
Shared-mode sums run in input order per topic, so a topic's report does
not depend on which topics share its batch; ``select_model`` is the batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import Cascade, check_in_graph
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


def _earliest_heldout(data, tau):
    """Earliest activation at or past tau: (time, cascade index, node)."""
    best = None
    for m, c in enumerate(data):
        for v, t in c.events:
            if t >= tau:
                key = (t, m, v)
                if best is None or key < best:
                    best = key
                break  # events are time-sorted
    return best


def _heldout_density(model, g, params, cascade, tau, node, t):
    """Density of the held-out activation under freshly fitted parameters."""
    kept = [e for e in cascade.events if e[1] < tau]
    eval_cascade = Cascade(kept + [(node, t)], max(t, tau))
    if model == "asic":
        return h_asic(eval_cascade, g, params, DelayMode.LINK, node)
    return h_aslt(eval_cascade, g, params, DelayMode.LINK, node)


def _cut(data, tau):
    """The earliest held-out activation at tau (or None) and the non-empty
    truncated cascades."""
    held = _earliest_heldout(data, tau)
    if held is None:
        return None, []
    return held, [c for c in (c.truncated(tau) for c in data) if len(c)]


def _lockstep_terms(g, topics, em_config, warm_start, models=MODELS):
    """Evaluate the models across every cutoff of every topic.

    ``topics`` holds (data, periods) per topic, or ``None`` for a topic to
    leave out.  At cutoff rank k, each model refits the k-th cutoff of
    every topic in one ``fit_batch`` call, each warm-started from its own
    last fitted cutoff.  Returns, per model, (rows, error) per topic: rows
    are (tau, node, time, h, capped), with node, time and h ``None`` for a
    cutoff whose truncated data cannot be fitted, and ``error`` is the
    exception that stopped the topic, if any.  A topic stopped for one
    model is not refitted for the models after it.

    Truncated windows are right-censored mid-diffusion, so the cascade-model
    refits use the finite-horizon survival factors; the threshold model is
    horizon-aware by construction.
    """
    if em_config is None:
        em_config = EmConfig()
    rows = {m: [[] for _ in topics] for m in models}
    errors = {m: [None] * len(topics) for m in models}
    prev = {m: [None] * len(topics) for m in models}
    ranks = max((len(t[1]) for t in topics if t is not None), default=0)
    for k in range(ranks):
        cuts = {i: (t[1].cutoffs[k], *_cut(t[0], t[1].cutoffs[k]))
                for i, t in enumerate(topics)
                if t is not None and k < len(t[1])}
        for j, model in enumerate(models):
            batch = []
            for i, (tau, held, kept) in cuts.items():
                if any(errors[m][i] for m in models[:j + 1]):
                    continue
                if kept:
                    batch.append(i)
                else:
                    rows[model][i].append((tau, None, None, None, False))
            results = fit_batch(model, g, [cuts[i][2] for i in batch],
                                em_config, [prev[model][i] if warm_start
                                            else None for i in batch],
                                horizon_mode="finite")
            for i, result in zip(batch, results):
                tau, (t_held, m_held, v_held), _ = cuts[i]
                if isinstance(result, EstimationError):
                    rows[model][i].append((tau, None, None, None, False))
                    continue
                params, trace = result
                prev[model][i] = params
                try:
                    h = _heldout_density(model, g, params,
                                         topics[i][0][m_held], tau, v_held,
                                         t_held)
                except (InsufficientDataError, EstimationError) as exc:
                    errors[model][i] = exc
                    continue
                rows[model][i].append((tau, v_held, t_held, h,
                                       not trace.converged))
    return {m: list(zip(rows[m], errors[m])) for m in models}


def _replay(rows, error):
    yield from rows
    if error is not None:
        raise error


def _cutoff_terms(model, g, data, periods, em_config, warm_start=True):
    """Evaluate one model across all cutoffs of one topic: the rows of
    ``_lockstep_terms`` for a batch of one."""
    check_in_graph(g, data)
    ((rows, error),) = _lockstep_terms(g, [(data, periods)], em_config,
                                       warm_start, (model,))[model]
    yield from _replay(rows, error)


def _require_shared(em_config):
    if em_config is not None and em_config.mode != SHARED:
        raise ParameterError(
            "model selection refits in shared mode; got mode "
            f"{em_config.mode!r}")


def _score(model, terms, details):
    """Mean negative log-density over the scored rows of ``terms``."""
    total = 0.0
    n = 0
    # Rows may carry a trailing capped flag after (tau, node, time, h).
    for tau, node, t, h, *capped in terms:
        if details is not None:
            details.append({"tau": tau, "node": node, "time": t, "h": h,
                            "capped": bool(capped and capped[0])})
        if node is None:
            continue
        total += math.inf if h == 0.0 else -math.log(h)
        n += 1
    if n == 0:
        raise InsufficientDataError(
            f"no cutoff could be scored for model {model}")
    return total / n


def predictive_score(model, g, data, periods, em_config=None,
                     warm_start=True, details=None) -> float:
    """Mean negative log-density of the earliest held-out activation.

    Cutoffs whose truncation cannot be fitted are skipped (the averaging
    count shrinks accordingly).  A held-out density of zero makes the score
    +inf.  Refits run in shared mode; a per-link ``em_config`` raises
    ``ParameterError``.
    """
    _require_shared(em_config)
    return _score(model, _cutoff_terms(model, g, data, periods, em_config,
                                       warm_start), details)


def _report(topic, periods, terms):
    """The report of one topic from each model's cutoff rows.

    Near-ties (|difference| < 1e-12) are flagged indeterminate and resolved
    to the cascade model by convention.
    """
    scores = {}
    rows = {}
    skipped = {}
    capped = {}
    for model in MODELS:
        details = []
        scores[model] = _score(model, terms[model], details)
        for d in details:
            row = rows.setdefault(d["tau"], {"tau": d["tau"],
                                             "node": d["node"],
                                             "time": d["time"]})
            row[f"h_{model}"] = d["h"]
        skipped[model] = sum(d["node"] is None for d in details)
        capped[model] = sum(d["capped"] for d in details)
    score_asic = scores["asic"]
    score_aslt = scores["aslt"]
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
        cutoffs=[rows[tau] for tau in periods.cutoffs],
        skipped=skipped,
        capped=capped,
    )


def select_model(g, data, em_config=None, topic="default",
                 warm_start=True) -> SelectionReport:
    """Score both models on identical cutoffs and pick the smaller score.

    The report equals this topic's entry of ``select_topics``.
    """
    _require_shared(em_config)
    periods = build_observation_periods(data)
    return _report(topic, periods, {
        model: _cutoff_terms(model, g, data, periods, em_config, warm_start)
        for model in MODELS})


def select_topics(g, topics, em_config=None, warm_start=True) -> dict:
    """``select_model`` for every topic of ``topics`` (topic -> cascades),
    with the refits of all topics run in lockstep by cutoff rank.

    Returns topic -> ``SelectionReport``, or the ``InsufficientDataError``
    or ``EstimationError`` that keeps the topic from being scored.  Each
    report is the one ``select_model`` gives for the topic alone.
    """
    _require_shared(em_config)
    plans = {}
    for topic, data in topics.items():
        try:
            plans[topic] = build_observation_periods(data)
        except InsufficientDataError as exc:
            plans[topic] = exc
            continue
        check_in_graph(g, data)
    terms = _lockstep_terms(
        g, [None if isinstance(periods, Exception) else (topics[t], periods)
            for t, periods in plans.items()], em_config, warm_start)
    out = {}
    for i, (topic, periods) in enumerate(plans.items()):
        if isinstance(periods, Exception):
            out[topic] = periods
            continue
        try:
            out[topic] = _report(topic, periods, {
                model: _replay(*terms[model][i]) for model in MODELS})
        except (InsufficientDataError, EstimationError) as exc:
            out[topic] = exc
    return out
