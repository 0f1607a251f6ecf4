import math
import random

import numpy as np
import pytest
from scipy import stats

from difflab import (AsicParams, AsltParams, DelayMode, DirectedGraph,
                     GraphValidationError, ParameterError,
                     SimulationProgressError, effective_parents, erdos_renyi,
                     generate_training_set, simulate_asic, simulate_aslt)
from difflab.params import link_array
from difflab.rng import derive_rng
from difflab.simulate import _run_asic, _run_aslt, _RunTables

from oracles import (ClosureTables, edge_list, parents, run_asic_closures,
                     run_aslt_closures)

ALL_DELAYS = (DelayMode.LINK, DelayMode.NODE_NON_OVERRIDE,
              DelayMode.NODE_OVERRIDE)


class TestAsicBasics:
    def test_p_zero_yields_seeds_only(self, chain3):
        params = AsicParams.shared(0.0, 1.0)
        c = simulate_asic(chain3, params, DelayMode.LINK, [0], 1)
        assert c.events == ((0, 0.0),)

    def test_p_one_fills_strongly_connected_graph(self):
        g = DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        params = AsicParams.shared(1.0, 1.0)
        c = simulate_asic(g, params, DelayMode.LINK, [0], 1)
        assert set(c.nodes) == {0, 1, 2, 3}

    def test_multiple_seeds_all_start_at_zero(self, chain3):
        params = AsicParams.shared(0.0, 1.0)
        c = simulate_asic(chain3, params, DelayMode.LINK, [0, 2], 1)
        assert c.events == ((0, 0.0), (2, 0.0))

    def test_seed_out_of_range_rejected(self, chain3):
        with pytest.raises(GraphValidationError):
            simulate_asic(chain3, AsicParams.shared(0.5, 1.0),
                          DelayMode.LINK, [7], 1)

    def test_empty_seed_set_rejected(self, chain3):
        with pytest.raises(GraphValidationError):
            simulate_asic(chain3, AsicParams.shared(0.5, 1.0),
                          DelayMode.LINK, [], 1)

    def test_determinism(self):
        g = DirectedGraph(30, [(i, (i * 7 + j) % 30)
                               for i in range(30) for j in range(1, 4)
                               if i != (i * 7 + j) % 30])
        params = AsicParams.shared(0.4, 2.0)
        for delay in ALL_DELAYS:
            a = simulate_asic(g, params, delay, [0, 3], 99)
            b = simulate_asic(g, params, delay, [0, 3], 99)
            assert a.events == b.events
        a = simulate_asic(g, params, DelayMode.LINK, [0], 1)
        b = simulate_asic(g, params, DelayMode.LINK, [0], 2)
        assert a.events != b.events

    def test_mean_delay_on_chain(self, chain2):
        # Exponential rate 2 has mean 0.5; sample mean of 10k runs must land
        # within three standard errors.
        params = AsicParams.shared(1.0, 2.0)
        runs = 10_000
        gaps = []
        for i in range(runs):
            c = simulate_asic(chain2, params, DelayMode.LINK, [0], (7, i))
            gaps.append(c.time_of(1) - c.time_of(0))
        se = 0.5 / math.sqrt(runs)  # exponential sd equals its mean
        assert abs(np.mean(gaps) - 0.5) < 3 * se

    def test_delay_distribution_ks(self, chain2):
        params = AsicParams.shared(1.0, 1.7)
        gaps = []
        for i in range(10_000):
            c = simulate_asic(chain2, params, DelayMode.LINK, [0], (11, i))
            gaps.append(c.time_of(1))
        res = stats.kstest(gaps, "expon", args=(0, 1 / 1.7))
        assert res.pvalue > 0.01

    def test_horizon_far_beyond_last_event(self, chain2):
        params = AsicParams.shared(1.0, 2.0)
        c = simulate_asic(chain2, params, DelayMode.LINK, [0], 3)
        assert c.horizon >= c.events[-1][1] + 100.0 / 2.0

    def test_single_chance_per_link(self):
        g = DirectedGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                              (1, 3), (4, 0)])
        params = AsicParams.shared(0.6, 1.0)
        for delay in ALL_DELAYS:
            for i in range(200):
                log = []
                simulate_asic(g, params, delay, [0], (5, i),
                              attempt_log=log)
                assert len(log) == len(set(log))


class TestAsltBasics:
    def test_full_weight_single_parent_always_activates(self, chain2):
        params = AsltParams.per_link(
            chain2, link_array(chain2, "q", {(0, 1): 1.0}),
            link_array(chain2, "r", {(0, 1): 1.0}))
        for i in range(50):
            c = simulate_aslt(chain2, params, DelayMode.LINK, [0], (13, i))
            assert 1 in c

    def test_shared_q_zero_rejected(self):
        with pytest.raises(ParameterError):
            AsltParams.shared(0.0, 1.0)

    def test_activation_rate_matches_weight(self, chain2):
        params = AsltParams.per_link(
            chain2, link_array(chain2, "q", {(0, 1): 0.3}),
            link_array(chain2, "r", {(0, 1): 1.0}))
        runs = 10_000
        hits = 0
        for i in range(runs):
            c = simulate_aslt(chain2, params, DelayMode.LINK, [0], (17, i))
            hits += 1 in c
        se = math.sqrt(0.3 * 0.7 / runs)
        assert abs(hits / runs - 0.3) < 3 * se

    def test_weights_accumulate_across_parents(self):
        # Both parents seeded, each weight 0.5: threshold always reached
        # once both arrive.
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        params = AsltParams.shared(1.0, 1.0)
        for i in range(50):
            c = simulate_aslt(g, params, DelayMode.LINK, [0, 1], (19, i))
            assert 2 in c

    def test_determinism(self):
        g = DirectedGraph(20, [(i, (i + k) % 20) for i in range(20)
                               for k in (1, 2)])
        params = AsltParams.shared(0.9, 1.0)
        for delay in ALL_DELAYS:
            a = simulate_aslt(g, params, delay, [0], 23)
            b = simulate_aslt(g, params, delay, [0], 23)
            assert a.events == b.events


class TestCausality:
    @pytest.mark.parametrize("delay", ALL_DELAYS)
    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_every_activation_has_an_earlier_effective_parent(
            self, model, delay):
        rng = derive_rng(31, "graph")
        edges = {(rng.randrange(25), rng.randrange(25)) for _ in range(120)}
        g = DirectedGraph(25, [(u, v) for u, v in edges if u != v])
        if model == "asic":
            params = AsicParams.shared(0.5, 1.3)
            simulate = simulate_asic
        else:
            params = AsltParams.shared(0.9, 1.3)
            simulate = simulate_aslt
        for i in range(60):
            c = simulate(g, params, delay, [rng.randrange(25)], (37, i))
            for v, tv in c.events:
                if tv == 0.0:
                    continue
                eff = effective_parents(g, c, v)
                assert eff, f"node {v} has no effective parent"
                assert min(c.time_of(u) for u in eff) < tv

    def test_node_activates_at_most_once(self):
        g = DirectedGraph(10, [(i, j) for i in range(10) for j in range(10)
                               if i != j])
        params = AsicParams.shared(0.8, 1.0)
        c = simulate_asic(g, params, DelayMode.LINK, [0], 41)
        assert len(c.nodes) == len(set(c.nodes))


class TestNodeDelayVariants:
    def test_single_parent_reduces_to_link_delay_distribution(self, chain2):
        # With one parent and matching rates, all three variants draw the
        # same activation-time law; compare samples pairwise.
        samples = {}
        for delay in ALL_DELAYS:
            params = AsicParams.shared(1.0, 1.0)
            gaps = []
            for i in range(4000):
                c = simulate_asic(chain2, params, delay, [0],
                                  (43, delay.value, i))
                gaps.append(c.time_of(1))
            samples[delay] = gaps
        for other in (DelayMode.NODE_NON_OVERRIDE, DelayMode.NODE_OVERRIDE):
            res = stats.ks_2samp(samples[DelayMode.LINK], samples[other])
            assert res.pvalue > 0.01

    def test_override_activates_no_later_than_non_override(self):
        # With two seeded parents and full weights, the override variant's
        # second proposal can only pull the activation earlier on average.
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        params = AsicParams.shared(1.0, 1.0)
        mean_t = {}
        for delay in (DelayMode.NODE_NON_OVERRIDE, DelayMode.NODE_OVERRIDE):
            ts = []
            for i in range(6000):
                c = simulate_asic(g, params, delay, [0, 1],
                                  (47, delay.value, i))
                ts.append(c.time_of(2))
            mean_t[delay] = np.mean(ts)
        # min of two exponentials (rate 2) vs one exponential: 0.5 vs 1.0
        assert mean_t[DelayMode.NODE_OVERRIDE] < mean_t[
            DelayMode.NODE_NON_OVERRIDE]
        assert abs(mean_t[DelayMode.NODE_OVERRIDE] - 0.5) < 0.05
        assert abs(mean_t[DelayMode.NODE_NON_OVERRIDE] - 1.0) < 0.05


class TestGenerateTrainingSet:
    @pytest.mark.parametrize("model, params, want", [
        ("asic", AsltParams.shared(0.9, 1.0), "AsicParams"),
        ("aslt", AsicParams.shared(0.9, 1.0), "AsltParams")])
    def test_params_of_the_other_model_refused(self, model, params, want):
        g = erdos_renyi(30, 0.1, 1)
        message = (f"the {model} model needs {want}, "
                   f"got {type(params).__name__}")
        with pytest.raises(ParameterError, match=message):
            generate_training_set(g, params, model, DelayMode.LINK, 20, 2, 1)
        run = simulate_asic if model == "asic" else simulate_aslt
        with pytest.raises(ParameterError, match=message):
            run(g, params, DelayMode.LINK, [0], 1)

    def test_reaches_target_and_respects_min_len(self):
        g = DirectedGraph(30, [(i, (i + k) % 30) for i in range(30)
                               for k in (1, 2, 3)])
        params = AsicParams.shared(0.5, 1.0)
        data = generate_training_set(g, params, "asic", DelayMode.LINK,
                                     target_active=200, min_len=5, rng_seed=3)
        assert data.total_active >= 200
        assert all(len(c) >= 5 for c in data)

    def test_single_seed_counts_as_active(self, chain2):
        params = AsicParams.shared(0.0, 1.0)
        data = generate_training_set(chain2, params, "asic", DelayMode.LINK,
                                     target_active=1, min_len=1, rng_seed=3)
        assert len(data) == 1
        assert len(data[0]) == 1

    def test_unreachable_target_fails_with_progress_error(self, chain2):
        params = AsicParams.shared(0.0, 1.0)
        with pytest.raises(SimulationProgressError):
            generate_training_set(chain2, params, "asic", DelayMode.LINK,
                                  target_active=2, min_len=2, rng_seed=3,
                                  max_attempts=50)

    @pytest.mark.parametrize("target_active, min_len, max_attempts", [
        (5, 0, 10), (5, 10, 10), (5, 2, 0)])
    def test_out_of_range_arguments_are_parameter_errors(
            self, chain2, target_active, min_len, max_attempts):
        with pytest.raises(ParameterError, match="target_active >= min_len"):
            generate_training_set(chain2, AsicParams.shared(0.5, 1.0), "asic",
                                  DelayMode.LINK, target_active, min_len,
                                  rng_seed=3, max_attempts=max_attempts)

    def test_deterministic_under_seed(self):
        g = DirectedGraph(20, [(i, (i + 1) % 20) for i in range(20)])
        params = AsltParams.shared(0.9, 1.0)
        a = generate_training_set(g, params, "aslt", DelayMode.LINK,
                                  target_active=30, min_len=2, rng_seed=11)
        b = generate_training_set(g, params, "aslt", DelayMode.LINK,
                                  target_active=30, min_len=2, rng_seed=11)
        assert [c.events for c in a] == [c.events for c in b]


class TestClosureLoopEquivalence:
    """The inlined run loops reproduce the closure-based ones bit for bit:
    same events, same attempts, same number of draws."""

    @staticmethod
    def _setup(model, delay):
        rng = derive_rng(51, model, delay.value)
        g = DirectedGraph(25, [(u, v) for u in range(25) for v in range(25)
                               if u != v and rng.random() < 0.15])
        if delay is DelayMode.LINK:
            rates = {e: rng.uniform(0.5, 3.0) for e in edge_list(g)}
        else:
            # Node delay: every in-link of v carries v's rate.
            node_rate = {v: rng.uniform(0.5, 3.0) for v in range(25)}
            rates = {(u, v): node_rate[v] for u, v in edge_list(g)}
        rates = link_array(g, "r", rates)
        if model == "asic":
            params = AsicParams.per_link(
                g, link_array(g, "p",
                              {e: rng.uniform(0.2, 0.9)
                               for e in edge_list(g)}),
                rates)
        else:
            q = {}
            for v in range(25):
                up = parents(g, v)
                share = rng.uniform(0.4, 1.0) / max(len(up), 1)
                q.update({(u, v): share for u in up})
            params = AsltParams.per_link(g, link_array(g, "q", q), rates)
        return g, params

    @pytest.mark.parametrize("delay", ALL_DELAYS)
    def test_asic_events_and_attempts(self, delay):
        g, params = self._setup("asic", delay)
        tables = _RunTables(g, "asic", params, delay)
        ref_tables = ClosureTables(g, "asic", params, delay)
        for i in range(60):
            seeds = sorted({i % 25, (7 * i) % 25})
            rng, ref_rng = random.Random(i), random.Random(i)
            log, ref_log = [], []
            events = _run_asic(tables, delay, seeds, rng, attempt_log=log)
            ref = run_asic_closures(ref_tables, delay, seeds, ref_rng,
                                    attempt_log=ref_log)
            assert events == ref
            assert log == ref_log
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("delay", ALL_DELAYS)
    def test_aslt_events(self, delay):
        g, params = self._setup("aslt", delay)
        tables = _RunTables(g, "aslt", params, delay)
        ref_tables = ClosureTables(g, "aslt", params, delay)
        for i in range(60):
            seeds = sorted({i % 25, (7 * i) % 25})
            rng, ref_rng = random.Random(i), random.Random(i)
            events = _run_aslt(tables, delay, seeds, rng)
            ref = run_aslt_closures(ref_tables, delay, seeds, ref_rng)
            assert events == ref
            assert rng.getstate() == ref_rng.getstate()
