"""Hold-out model selection between the two diffusion models.

For a group of cascades sharing one parameter set, a series of observation
cutoffs is built from the activation times at or past the median time.  At
each cutoff the candidate model is refitted on the truncated data and asked
for the density of the earliest held-out activation; the mean negative log
density over cutoffs scores the model (smaller is better).  The model with
the smaller score is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import Cascade, check_in_graph
from .em import EmConfig, fit
from .errors import EstimationError, InsufficientDataError
from .likelihood import h_asic, h_aslt
from .params import DelayMode

TIE_EPS = 1e-12


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
    the cutoffs whose truncated data could not be fitted."""

    topic: str
    score_asic: float
    score_aslt: float
    j: float
    chosen: str
    indeterminate: bool = False
    cutoffs: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)


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


def _cutoff_terms(model, g, data, periods, em_config, warm_start=True):
    """Evaluate one model across all cutoffs.

    Yields (tau, node, time, h) per scored cutoff and (tau, None, None, None)
    for cutoffs skipped because the truncated data cannot be fitted.

    Truncated windows are right-censored mid-diffusion, so the cascade-model
    refits use the finite-horizon survival factors; the threshold model is
    horizon-aware by construction.
    """
    check_in_graph(g, data)
    if em_config is None:
        em_config = EmConfig()
    prev = None
    for tau in periods.cutoffs:
        held = _earliest_heldout(data, tau)
        if held is None:
            yield tau, None, None, None
            continue
        t_held, m_held, v_held = held
        truncated = [c.truncated(tau) for c in data]
        truncated = [c for c in truncated if len(c)]
        if not truncated:
            yield tau, None, None, None
            continue
        try:
            params, _ = fit(model, g, truncated, em_config,
                            init_params=prev if warm_start else None,
                            horizon_mode="finite")
        except EstimationError:
            yield tau, None, None, None
            continue
        prev = params
        h = _heldout_density(model, g, params, data[m_held], tau,
                             v_held, t_held)
        yield tau, v_held, t_held, h


def predictive_score(model, g, data, periods, em_config=None,
                     warm_start=True, details=None) -> float:
    """Mean negative log-density of the earliest held-out activation.

    Cutoffs whose truncation cannot be fitted are skipped (the averaging
    count shrinks accordingly).  A held-out density of zero makes the score
    +inf.
    """
    total = 0.0
    n = 0
    for tau, node, t, h in _cutoff_terms(model, g, data, periods, em_config,
                                         warm_start):
        if details is not None:
            details.append({"tau": tau, "node": node, "time": t, "h": h})
        if node is None:
            continue
        total += math.inf if h == 0.0 else -math.log(h)
        n += 1
    if n == 0:
        raise InsufficientDataError(
            f"no cutoff could be scored for model {model}")
    return total / n


def select_model(g, data, em_config=None, topic="default",
                 warm_start=True) -> SelectionReport:
    """Score both models on identical cutoffs and pick the smaller score.

    Near-ties (|difference| < 1e-12) are flagged indeterminate and resolved
    to the cascade model by convention.
    """
    periods = build_observation_periods(data)
    scores = {}
    rows = {}
    skipped = {}
    for model in ("asic", "aslt"):
        details = []
        scores[model] = predictive_score(model, g, data, periods, em_config,
                                         warm_start, details)
        for d in details:
            row = rows.setdefault(d["tau"], {"tau": d["tau"],
                                             "node": d["node"],
                                             "time": d["time"]})
            row[f"h_{model}"] = d["h"]
        skipped[model] = sum(d["node"] is None for d in details)
    score_asic = scores["asic"]
    score_aslt = scores["aslt"]
    diff = score_aslt - score_asic  # positive favors the cascade model
    if math.isnan(diff):
        # Both scores infinite; nothing separates the models.
        diff = 0.0
    indeterminate = abs(diff) < TIE_EPS
    chosen = "asic" if (indeterminate or score_asic <= score_aslt) else "aslt"
    j = abs(diff)
    return SelectionReport(
        topic=topic,
        score_asic=score_asic,
        score_aslt=score_aslt,
        j=j,
        chosen=chosen,
        indeterminate=indeterminate,
        cutoffs=[rows[tau] for tau in periods.cutoffs],
        skipped=skipped,
    )
