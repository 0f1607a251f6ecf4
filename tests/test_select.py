import math

import numpy as np
import pytest

import difflab.select as select_mod
from difflab import (AsicParams, AsltParams, Cascade, DelayMode,
                     EmConfig, InsufficientDataError, build_observation_periods,
                     erdos_renyi, generate_training_set,
                     preferential_attachment, select_model)

import oracles


class TestObservationPeriods:
    def test_median_rule_five_events(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        # five events across one cascade
        c = Cascade([(i, float(i)) for i in range(5)], 10.0)
        periods = build_observation_periods([c])
        assert periods.tau0 == 2.0
        assert periods.cutoffs == [2.0, 3.0, 4.0]

    def test_requires_two_events(self):
        with pytest.raises(InsufficientDataError):
            build_observation_periods([Cascade([(0, 0.0)], 1.0)])

    def test_cutoffs_union_across_cascades(self):
        c1 = Cascade([(0, 0.0), (1, 2.0)], 10.0)
        c2 = Cascade([(2, 0.0), (3, 3.0)], 10.0)
        periods = build_observation_periods([c1, c2])
        # times {0, 0, 2, 3}, median 1.0, cutoffs from {2, 3}
        assert periods.tau0 == 1.0
        assert periods.cutoffs == [2.0, 3.0]

    def test_duplicate_times_deduplicated(self):
        c1 = Cascade([(0, 0.0), (1, 2.0)], 10.0)
        c2 = Cascade([(2, 0.0), (3, 2.0)], 10.0)
        periods = build_observation_periods([c1, c2])
        assert periods.cutoffs == [2.0]


def _spread_cascade(n_extra=8, gap=0.5):
    """Deterministic chain-like cascade on a small cycle graph."""
    g = erdos_renyi(12, 0.35, 5)
    events = [(0, 0.0)]
    t = 0.0
    node = 0
    used = {0}
    for _ in range(n_extra):
        nxt = None
        for w in oracles.children(g, node):
            if w not in used:
                nxt = w
                break
        if nxt is None:
            break
        t += gap
        events.append((nxt, t))
        used.add(nxt)
        node = nxt
    return g, Cascade(events, t + 1.0)


def _row(tau, node, h, capped=False):
    """One cutoff row (tau, node, time, h, capped); the held-out event of
    these stubs happens at tau."""
    return (tau, node, None if node is None else tau, h, capped)


class TestPredictiveScore:
    def test_score_is_mean_of_reported_terms(self):
        g, c = _spread_cascade()
        config = EmConfig(max_iterations=40)
        rep = select_model(g, [c], config)
        terms = [-math.log(row["h_asic"]) for row in rep.cutoffs
                 if row["h_asic"] is not None]
        assert terms
        assert rep.score_asic == pytest.approx(np.mean(terms), rel=1e-12)

    def test_mean_arithmetic_via_stub(self):
        # Two cutoffs with densities e^-1 and e^-3 must average to 2.
        rows = [_row(1.0, 7, math.exp(-1)), _row(2.0, 8, math.exp(-3))]
        assert select_mod._score("asic", rows) == pytest.approx(2.0,
                                                                rel=1e-12)

    def test_zero_density_gives_infinite_score(self):
        assert select_mod._score("asic", [_row(1.0, 7, 0.0)]) == math.inf

    def test_skipped_cutoffs_shrink_the_average(self):
        rows = [_row(1.0, None, None), _row(2.0, 7, math.exp(-4))]
        assert select_mod._score("asic", rows) == pytest.approx(4.0)

    def test_no_scored_cutoff_names_the_model(self):
        with pytest.raises(InsufficientDataError,
                           match="no cutoff could be scored for model aslt"):
            select_mod._score("aslt", [_row(1.0, None, None)])

    def test_cold_start_matches_warm_start_at_tight_tolerance(self):
        g, c = _spread_cascade()
        periods = build_observation_periods([c])
        config = EmConfig(max_iterations=3000, tolerance=1e-12)
        warm = select_model(g, [c], config).score_asic
        cold = select_mod._score("asic", list(oracles.cutoff_terms_per_topic(
            "asic", g, [c], periods, config, warm_start=False)))
        assert warm == pytest.approx(cold, abs=1e-6)


class TestSelectModel:
    def test_report_chosen_is_argmin(self):
        g, c = _spread_cascade()
        rep = select_model(g, [c], EmConfig(max_iterations=40))
        if rep.score_asic <= rep.score_aslt:
            assert rep.chosen == "asic"
        else:
            assert rep.chosen == "aslt"
        assert rep.j == pytest.approx(abs(rep.score_asic - rep.score_aslt))

    def test_tie_flagged_indeterminate_and_resolved_to_asic(self):
        rows = [_row(1.0, 7, math.exp(-2))]
        rep = select_mod._report("default", {"asic": rows, "aslt": rows})
        assert rep.indeterminate
        assert rep.chosen == "asic"
        assert rep.j == 0.0

    def test_skipped_counted_per_model(self):
        rows = {"asic": [_row(1.0, None, None), _row(2.0, 7, math.exp(-2)),
                         _row(3.0, 8, math.exp(-1))],
                "aslt": [_row(1.0, None, None), _row(2.0, None, None),
                         _row(3.0, 8, math.exp(-1), capped=True)]}
        rep = select_mod._report("default", rows)
        assert rep.skipped == {"asic": 1, "aslt": 2}
        assert rep.capped == {"asic": 0, "aslt": 1}
        assert rep.cutoffs[1] == {"tau": 2.0, "node": 7, "time": 2.0,
                                  "h_asic": math.exp(-2), "h_aslt": None}
        assert rep.score_asic == pytest.approx(1.5)
        assert rep.score_aslt == pytest.approx(1.0)

    def test_identifies_asic_truth_on_long_cascade(self):
        # Sparse regime (diffusion probability below 1/mean-degree) where a
        # single long sequence carries a usable signal.
        g = preferential_attachment(500, 3, 13)
        truth = AsicParams.shared(0.1, 1.0)
        data = generate_training_set(g, truth, "asic", DelayMode.LINK,
                                     target_active=30, min_len=25,
                                     rng_seed=(55, "asic", 0),
                                     max_attempts=500_000)
        rep = select_model(g, [data[0]], EmConfig(max_iterations=100))
        assert rep.chosen == "asic"

    def test_identifies_aslt_truth_on_long_cascade(self):
        g = preferential_attachment(500, 3, 13)
        truth = AsltParams.shared(0.9, 1.0)
        data = generate_training_set(g, truth, "aslt", DelayMode.LINK,
                                     target_active=30, min_len=25,
                                     rng_seed=(55, "aslt", 1),
                                     max_attempts=500_000)
        rep = select_model(g, [data[0]], EmConfig(max_iterations=100))
        assert rep.chosen == "aslt"

    def test_cutoff_diagnostics_cover_both_models(self):
        g, c = _spread_cascade()
        rep = select_model(g, [c], EmConfig(max_iterations=30))
        assert rep.cutoffs
        for row in rep.cutoffs:
            assert "h_asic" in row and "h_aslt" in row
