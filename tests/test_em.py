import logging
import math

import numpy as np
import pytest

from difflab import (AsicParams, AsltParams, Cascade, DelayMode,
                     DirectedGraph, EmConfig, EstimationError, ParameterError,
                     erdos_renyi, fit, fit_batch, generate_training_set,
                     load_params, loglik, param_error,
                     preferential_attachment, save_params)
from difflab.cascade import effective_parents, frontier
from difflab.em import (_Links, _Problems, _Stats, _asic_e, _asic_m_per_link,
                        _asic_m_shared, _aslt_e_per_link, _aslt_e_shared,
                        _aslt_m_per_link, _aslt_m_shared)
from difflab.params import PER_LINK, SHARED
from difflab.rng import derive_rng

from oracles import (ZeroProbabilityEvent, aslt_e_per_link_iblock,
                     aslt_m_per_link_iblock, em_stats_loop,
                     fit_aslt_per_link_iblock, random_consistent_cascades)

LINK = DelayMode.LINK


def _instance(seed, model, n=20, p_edge=0.15, target=80, min_len=2):
    """A random (graph, params, training data) triple for one model."""
    g = erdos_renyi(n, p_edge, seed)
    rng = derive_rng(seed, "inst")
    if model == "asic":
        params = AsicParams.shared(rng.uniform(0.2, 0.7),
                                   rng.uniform(0.5, 2.0))
    else:
        params = AsltParams.shared(rng.uniform(0.5, 0.95),
                                   rng.uniform(0.5, 2.0))
    data = generate_training_set(g, params, model, LINK, target, min_len,
                                 (seed, "train"), max_attempts=50_000)
    return g, params, data


def _one_problem(stats, data):
    """The shared-mode index of a single problem."""
    return _Problems(stats, np.zeros(len(data), dtype=np.intp), 1)


def _shared(strength, rate):
    return np.array([strength]), np.array([rate])


def _per_link(g, strength, rate):
    """Edge-indexed theta from per-edge dicts."""
    return (np.array([strength[e] for e in g.edges]),
            np.array([rate[e] for e in g.edges]))


def _keys(stats, group_m, group, link):
    """(cascade, parent, child) of each entry of one block, given the
    block's per-group cascades and its entries' groups and edges."""
    edges = stats.g.edges
    return [(m, *edges[e])
            for m, e in zip(group_m[group].tolist(), link.tolist())]


class TestEStepAsic:
    @staticmethod
    def _terms(g, data, p, r):
        stats = _Stats(g, data, "asic")
        return stats, _asic_e(stats, _one_problem(stats, data),
                              _shared(p, r))[0]

    def test_single_parent_alpha_is_one(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        _, (alpha, _, _) = self._terms(chain2, [c], 0.5, 1.0)
        assert alpha[0] == pytest.approx(1.0)

    def test_two_parent_alpha_split(self):
        # Edge (0, 1) gives the mid-time activation a legal activator; it
        # does not change node 2's parent set or the split below.
        g = DirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        c = Cascade([(0, 0.0), (1, 0.5), (2, 1.0)], 10.0)
        stats, (alpha, _, _) = self._terms(g, [c], 0.5, 1.0)
        assert [g.edges[e] for e in stats.link] == [(0, 1), (0, 2), (1, 2)]
        assert alpha[1] == pytest.approx(0.4160075359551684, rel=1e-9)
        assert alpha[2] == pytest.approx(0.5839924640448317, rel=1e-9)

    def test_beta_value(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        _, (_, beta, _) = self._terms(chain2, [c], 0.5, 1.0)
        assert beta[0] == pytest.approx(0.2689414213699951, rel=1e-9)

    def test_alpha_normalization_invariant(self):
        rng = derive_rng(101, "resp")
        g = erdos_renyi(15, 0.25, 77)
        raw, _, _ = random_consistent_cascades(g, rng, 4)
        data = [Cascade(ev, hz) for ev, hz in raw]
        stats, (alpha, _, _) = self._terms(g, data, 0.4, 1.2)
        assert ((0.0 <= alpha) & (alpha <= 1.0)).all()
        sums = np.bincount(stats.group, weights=alpha,
                           minlength=stats.n_groups)
        assert len(sums), "expected at least one responsibility group"
        for total in sums:
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_impossible_event_raises(self):
        g = DirectedGraph(3, [(0, 1)])
        c = Cascade([(0, 0.0), (2, 1.0)], 5.0)
        with pytest.raises(EstimationError, match="node 2"):
            _Stats(g, [c], "asic")


class TestMStepAsic:
    def test_single_link_fixed_point(self):
        g = DirectedGraph(2, [(0, 1)])
        data = [Cascade([(0, 0.0), (1, 2.0)], 50.0)]
        stats = _Stats(g, data, "asic")
        at = _one_problem(stats, data)
        theta = _shared(0.5, 1.0)
        p, r = _asic_m_shared(stats, at, _asic_e(stats, at, theta)[0], theta)
        assert r[0] == pytest.approx(0.5)
        assert p[0] == pytest.approx(1.0)

    def test_untouched_link_keeps_value(self):
        g = DirectedGraph(4, [(0, 1), (2, 3)])
        stats = _Stats(g, [Cascade([(0, 0.0), (1, 1.0)], 10.0)], "asic")
        at = _Links(stats)
        theta = _per_link(g, {(0, 1): 0.5, (2, 3): 0.33},
                          {(0, 1): 1.0, (2, 3): 2.5})
        p, r = _asic_m_per_link(stats, at, _asic_e(stats, at, theta)[0],
                                theta)
        edge = {e: i for i, e in enumerate(g.edges)}
        assert p[edge[(2, 3)]] == pytest.approx(0.33)
        assert r[edge[(2, 3)]] == pytest.approx(2.5)
        assert p[edge[(0, 1)]] == pytest.approx(1.0)
        assert r[edge[(0, 1)]] == pytest.approx(1.0)


class TestEStepAslt:
    def test_single_parent_phi_is_one(self, chain2):
        stats = _Stats(chain2, [Cascade([(0, 0.0), (1, 1.0)], 10.0)], "aslt")
        theta = _per_link(chain2, {(0, 1): 0.8}, {(0, 1): 1.0})
        phi = _aslt_e_per_link(stats, _Links(stats), theta)[0][0]
        assert phi[0] == pytest.approx(1.0)

    def test_phi_proportions(self):
        g = DirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        data = [Cascade([(0, 0.0), (1, 0.5), (2, 1.0)], 10.0)]
        stats = _Stats(g, data, "aslt")
        phi = _aslt_e_shared(stats, _one_problem(stats, data),
                             _shared(0.6, 1.0))[0][0]
        assert [g.edges[e] for e in stats.link] == [(0, 1), (0, 2), (1, 2)]
        assert phi[1] == pytest.approx(0.37754066879814546, rel=1e-9)
        assert phi[2] == pytest.approx(0.6224593312018546, rel=1e-9)

    def test_frontier_split_sums_to_one(self):
        # Node 2's parents: 0 active at t=0, 1 never active; window [0, 2];
        # weights 0.3 each, slack 0.4.
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        stats = _Stats(g, [Cascade([(0, 0.0)], 2.0)], "aslt")
        theta = _per_link(g, {(0, 2): 0.3, (1, 2): 0.3},
                          {(0, 2): 1.0, (1, 2): 1.0})
        _, psi, varphi_slack, _, gvals = _aslt_e_per_link(
            stats, _Links(stats), theta)[0]
        i_link, i_group = stats.never_active()
        assert [g.edges[e] for e in i_link] == [(1, 2)]
        assert [g.edges[e] for e in stats.f_link] == [(0, 2)]
        varphi_inact = theta[0][i_link] / gvals[i_group]
        assert varphi_slack[0] == pytest.approx(0.5401021928920995, rel=1e-9)
        assert varphi_inact[0] == pytest.approx(0.4050766446690746, rel=1e-9)
        assert psi[0] == pytest.approx(0.054821162438825934, rel=1e-9)
        total = varphi_slack[0] + varphi_inact[0] + psi[0]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_frontier_normalization_on_random_instances(self):
        rng = derive_rng(103, "resp-aslt")
        g = erdos_renyi(15, 0.25, 78)
        raw, _, _ = random_consistent_cascades(g, rng, 4)
        data = [Cascade(ev, hz) for ev, hz in raw]
        stats = _Stats(g, data, "aslt")
        phi, e_g, varphi_slack, q_nb, gvals = _aslt_e_shared(
            stats, _one_problem(stats, data), _shared(0.7, 1.1))[0][:5]
        phi_sums = np.bincount(stats.group, weights=phi,
                               minlength=stats.n_groups)
        for total in phi_sums:
            assert total == pytest.approx(1.0, abs=1e-12)
        psi = q_nb[stats.f_group] * e_g / gvals[stats.f_group]
        # A shared weight q is q / |B(v)| on each of v's in-edges.
        i_link, i_group = stats.never_active()
        varphi_inact = (0.7 / g.in_degree[g.heads])[i_link] / gvals[i_group]
        survival_sums = (
            varphi_slack
            + np.bincount(i_group, weights=varphi_inact,
                          minlength=stats.n_f_groups)
            + np.bincount(stats.f_group, weights=psi,
                          minlength=stats.n_f_groups))
        assert len(survival_sums), "expected at least one frontier node"
        for total in survival_sums:
            assert total == pytest.approx(1.0, abs=1e-12)


class TestMStepAslt:
    def test_single_link_fixed_point(self):
        g = DirectedGraph(2, [(0, 1)])
        data = [Cascade([(0, 0.0), (1, 2.0)], 2.0)]
        stats = _Stats(g, data, "aslt")
        at = _one_problem(stats, data)
        theta = _shared(0.5, 1.0)
        q, r = _aslt_m_shared(stats, at, _aslt_e_shared(stats, at, theta)[0],
                              theta)
        assert r[0] == pytest.approx(0.5)
        assert q[0] == pytest.approx(1.0)
        assert AsltParams.shared(q[0], r[0]).slack(g, 1) == pytest.approx(0.0)

    def test_per_link_single_link_fixed_point(self):
        g = DirectedGraph(2, [(0, 1)])
        stats = _Stats(g, [Cascade([(0, 0.0), (1, 2.0)], 2.0)], "aslt")
        at = _Links(stats)
        theta = _per_link(g, {(0, 1): 0.5}, {(0, 1): 1.0})
        q, r = _aslt_m_per_link(stats, at, _aslt_e_per_link(stats, at,
                                                             theta)[0], theta)
        assert r[0] == pytest.approx(0.5)
        assert q[0] == pytest.approx(1.0)


def _random_data(seed, n=15, p_edge=0.25, count=5):
    """A random graph and random cascades with no zero-probability event."""
    g = erdos_renyi(n, p_edge, seed)
    raw, _, _ = random_consistent_cascades(g, derive_rng(seed, "keys"), count)
    return g, [Cascade(ev, hz) for ev, hz in raw]


class TestStatsStructure:
    """Entry keys and touched links against brute-force sets."""

    @pytest.mark.parametrize("seed", range(4))
    def test_keys_match_bruteforce(self, seed):
        g, data = _random_data(seed)
        act, front_act, front_inact, slack = set(), set(), set(), set()
        for m, c in enumerate(data):
            for v, _ in c.events:
                act |= {(m, u, v) for u in effective_parents(g, c, v)}
            for v in frontier(g, c):
                front_act |= {(m, u, v) for u in effective_parents(g, c, v)}
                front_inact |= {(m, u, v) for u in g.in_adj[v] if u not in c}
                slack.add((m, v, v))
        assert act and front_act and front_inact
        for model in ("asic", "aslt"):
            stats = _Stats(g, data, model)
            assert set(_keys(stats, stats.group_m, stats.group,
                             stats.link)) == act
        # The threshold model's frontier entries, never-active parents and
        # slack weights.
        assert set(_keys(stats, stats.f_group_m, stats.f_group,
                         stats.f_link)) == front_act
        i_link, i_group = stats.never_active()
        assert set(_keys(stats, stats.f_group_m, i_group,
                         i_link)) == front_inact
        assert set(zip(stats.f_group_m.tolist(), stats.f_group_node.tolist(),
                       stats.f_group_node.tolist())) == slack

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_untouched_links_match_bruteforce(self, model):
        for seed in range(3):
            g, data = _random_data(seed + 10, n=25, p_edge=0.1, count=3)
            touched = set()
            for c in data:
                for v, _ in c.events:
                    touched |= {(u, v) for u in effective_parents(g, c, v)}
                if model == "asic":
                    touched |= {(u, w) for u, _ in c.events
                                for w in g.out_adj[u] if w not in c}
                else:
                    touched |= {(u, v) for v in frontier(g, c)
                                for u in g.in_adj[v]}
            _, trace = fit(model, g, data,
                           EmConfig(max_iterations=1, mode=PER_LINK))
            assert 0 < trace.untouched_links < g.edge_count
            assert trace.untouched_links == g.edge_count - len(touched)

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_underflow_names_cascade_and_node(self, model):
        # exp(-1000) underflows, so node 3's density in cascade 1 is 0.
        g = DirectedGraph(4, [(0, 1), (2, 3)])
        data = [Cascade([(0, 0.0), (1, 1.0)], 5.0),
                Cascade([(2, 0.0), (3, 1000.0)], 1001.0)]
        want = "cascade 1: activation density of node 3 underflowed"
        with pytest.raises(EstimationError, match=want):
            fit(model, g, data)


def assert_stats_match_loop(g, data, model):
    """``_Stats`` equals the reference loop field by field, to the byte, or
    both reject the data with the same message."""
    try:
        want = em_stats_loop(g, data, model)
    except ZeroProbabilityEvent as exc:
        with pytest.raises(EstimationError) as got:
            _Stats(g, data, model)
        assert str(got.value) == str(exc)
        return
    stats = _Stats(g, data, model)
    # The never-active block is listed on demand, not kept.
    got = dict(zip(("i_link", "i_group"), stats.never_active()))
    assert set(_Stats.__slots__) | set(got) == set(want) | {"g"}
    assert stats.g is g
    for name, value in want.items():
        assert _matches(got[name] if name in got else getattr(stats, name),
                        value), name


def _matches(got, value):
    """Same dtype, shape and bytes for arrays; same ``int`` otherwise."""
    if isinstance(value, np.ndarray):
        return (got.dtype == value.dtype and got.shape == value.shape
                and got.tobytes() == value.tobytes())
    return type(got) is int and got == value


class TestStatsAgainstLoop:
    """The vectorised statistics builder against the per-entry loop."""

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_training_sets(self, seed, model):
        g, _, data = _instance(seed, model)
        pa = preferential_attachment(300, 3, seed)
        params = (AsicParams.shared(0.2, 1.0) if model == "asic"
                  else AsltParams.shared(0.9, 1.0))
        pa_data = generate_training_set(pa, params, model, LINK, 600, 5,
                                        (seed, "pa"), max_attempts=50_000)
        for built_for in ("asic", "aslt"):
            assert_stats_match_loop(g, data, built_for)
            assert_stats_match_loop(pa, pa_data, built_for)

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_random_consistent_cascades(self, model):
        for seed in range(4):
            assert_stats_match_loop(*_random_data(seed), model)

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_simultaneous_seeds_and_empty_cascades(self, model):
        g = DirectedGraph(6, [(0, 1), (0, 2), (1, 2), (3, 2), (3, 4),
                              (2, 5), (4, 5), (5, 0)])
        data = [Cascade([], 1.0),
                Cascade([(0, 0.0), (3, 0.0), (1, 0.5), (4, 0.5), (2, 0.5),
                         (5, 1.5)], 4.0),
                Cascade([], 2.0),
                Cascade([(3, 1.0), (0, 1.0)], 1.0),
                Cascade([(1, 0.0), (2, 0.25)], 3.0)]
        assert_stats_match_loop(g, data, model)
        stats = _Stats(g, data, model)
        assert stats.group_m.tolist() == [1, 1, 1, 1, 4]
        assert stats.group_node.tolist() == [1, 2, 4, 5, 2]
        # Node 2 ties with parent 1 at t=0.5, so only 0 and 3 explain it.
        assert [g.edges[e] for e in stats.link[stats.group == 1]] == [
            (0, 2), (3, 2)]

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_zero_probability_event(self, model):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        data = [Cascade([(0, 0.0), (1, 1.0)], 2.0),
                Cascade([(0, 0.0), (2, 0.5), (1, 1.0)], 2.0)]
        want = ("cascade 1: node 2 activated at t=0.5 with no possible "
                "activator (zero-probability event)")
        with pytest.raises(EstimationError) as exc:
            _Stats(g, data, model)
        assert str(exc.value) == want
        assert_stats_match_loop(g, data, model)


class TestAsltSlack:
    """Per-link slack weights of the threshold model's E pass."""

    @pytest.mark.parametrize("seed", range(3))
    def test_e_step_equals_first_e_pass_of_fit(self, seed):
        g, _, data = _instance(seed + 30, "aslt")
        _, trace = fit("aslt", g, data,
                       EmConfig(max_iterations=1, mode=PER_LINK))
        theta0 = trace.params_history[0]
        stats = _Stats(g, data, "aslt")
        terms, ll, _ = _aslt_e_per_link(stats, _Links(stats), theta0)
        assert ll[0] == trace.loglik[0]

    def test_random_weights_some_summing_to_one(self):
        g, _, data = _instance(33, "aslt")
        rng = derive_rng(33, "slack")
        raw = {e: rng.uniform(0.05, 1.0) for e in g.edges}
        total = {}
        for (u, v), w in raw.items():
            total[v] = total.get(v, 0.0) + w
        # Even nodes use up their whole budget, so their slack is about 0.
        share = {v: 1.0 if v % 2 == 0 else rng.uniform(0.2, 0.9)
                 for v in total}
        theta = _per_link(
            g, {(u, v): w / total[v] * share[v] for (u, v), w in raw.items()},
            {e: rng.uniform(0.5, 2.0) for e in g.edges})
        stats = _Stats(g, data, "aslt")
        terms, _, _ = _aslt_e_per_link(stats, _Links(stats), theta)
        assert (terms[2] >= 0.0).all() and terms[2].min() < 1e-12


class TestPerLinkAsltOracle:
    """Per-link threshold-model passes without the never-active block
    against the earlier passes that list it."""

    @staticmethod
    def _pa_instance(seed, model):
        g = preferential_attachment(300, 3, seed)
        params = (AsicParams.shared(0.2, 1.0) if model == "asic"
                  else AsltParams.shared(0.9, 1.0))
        return g, generate_training_set(g, params, model, LINK, 600, 5,
                                        (seed, "pa"), max_attempts=50_000)

    def test_fit_matches_oracle_loop(self):
        g, data = self._pa_instance(7, "aslt")
        config = EmConfig(mode=PER_LINK)
        fitted, trace = fit("aslt", g, data, config)
        (q, r), logliks, iterations, converged, untouched = (
            fit_aslt_per_link_iblock(g, data, config))
        assert trace.iterations == iterations == 100
        assert trace.converged == converged
        assert trace.untouched_links == untouched
        np.testing.assert_allclose(trace.loglik, logliks, rtol=1e-9)
        np.testing.assert_allclose([fitted.q[e] for e in g.edges],
                                   np.maximum(q, 1e-12), rtol=1e-9)
        np.testing.assert_allclose([fitted.r[e] for e in g.edges], r,
                                   rtol=1e-9)

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_untouched_links_match_never_active_union(self, model):
        instances = [_instance(seed, model)[::2] for seed in range(3)]
        instances += [self._pa_instance(seed, model) for seed in range(2)]
        for g, data in instances:
            loop = em_stats_loop(g, data, model)
            touched = set()
            for name in ("link", "fail_edges", "f_link", "i_link"):
                touched |= set(loop[name].tolist())
            _, trace = fit(model, g, data,
                           EmConfig(max_iterations=1, mode=PER_LINK))
            assert trace.untouched_links == g.edge_count - len(touched)

    @pytest.mark.parametrize("rate", [1.0, 30.0, 60.0, 100.0, 900.0])
    def test_m_pass_where_one_group_holds_nearly_all_mass(self, rate):
        # Node 2's parents carry its whole budget.  In cascade 0 both are
        # active and long overdue, so that group's survival mass is tiny;
        # in cascade 1 only node 0 is active.  Edge (1, 2)'s never-active
        # sum is then a small difference of two huge sums; at rate 900 the
        # first group's survival mass is subnormal and its inverse overflows.
        g = DirectedGraph(4, [(0, 2), (1, 2), (3, 0), (3, 1)])
        data = [Cascade([(3, 0.0), (0, 0.1), (1, 0.2)], 1.0),
                Cascade([(3, 0.0), (0, 0.1)], 1.0)]
        into_2 = g.heads == 2
        theta = (np.full(g.edge_count, 0.5),
                 np.where(into_2, rate, 1.0))
        stats = _Stats(g, data, "aslt")
        loop = em_stats_loop(g, data, "aslt")
        want = aslt_e_per_link_iblock(stats, loop["i_link"],
                                      loop["i_group"], theta)[0]
        got = _aslt_e_per_link(stats, _Links(stats), theta)[0]
        # As in ``fit``, floating-point warnings are off during the pass.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            new_theta = _aslt_m_per_link(stats, _Links(stats), got, theta)
        for new, old in zip(
                new_theta,
                aslt_m_per_link_iblock(stats, loop["i_link"], want, theta)):
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_m_step_per_link_matches_oracle_update(self, seed):
        g, _, data = _instance(seed + 40, "aslt")
        stats = _Stats(g, data, "aslt")
        loop = em_stats_loop(g, data, "aslt")
        i_link, i_group = loop["i_link"], loop["i_group"]
        rng = derive_rng(seed, "m-step")
        per_link = _per_link(
            g, {(u, v): rng.uniform(0.1, 0.9) / len(g.in_adj[v])
                for u, v in g.edges},
            {e: rng.uniform(0.5, 2.0) for e in g.edges})
        # A shared start (0.7, 1.3) split over the in-edges, as ``fit``
        # starts a per-link fit.
        shared = (0.7 / g.in_degree[g.heads], np.full(g.edge_count, 1.3))
        at = _Links(stats)
        for theta in (per_link, shared):
            want = aslt_e_per_link_iblock(stats, i_link, i_group, theta)[0]
            q, r = aslt_m_per_link_iblock(stats, i_link, want, theta)
            got_q, got_r = _aslt_m_per_link(
                stats, at, _aslt_e_per_link(stats, at, theta)[0], theta)
            # Fitted per-link weights are floored at 1e-12.
            np.testing.assert_allclose(np.maximum(got_q, 1e-12),
                                       np.maximum(q, 1e-12), rtol=1e-12)
            np.testing.assert_allclose(got_r, r, rtol=1e-12)

    def test_m_step_per_link_without_activations(self):
        # Only seeds: the activation block is empty, and node 1 is a
        # frontier node of cascade 0.
        g = DirectedGraph(3, [(0, 1), (1, 0), (2, 1)])
        stats = _Stats(g, [Cascade([(0, 0.0)], 1.0)], "aslt")
        at = _Links(stats)
        theta = _per_link(g, {(0, 1): 0.5, (1, 0): 0.5, (2, 1): 0.25},
                          {(0, 1): 1.0, (1, 0): 2.0, (2, 1): 3.0})
        q, r = _aslt_m_per_link(stats, at, _aslt_e_per_link(stats, at,
                                                             theta)[0], theta)
        edge = {e: i for i, e in enumerate(g.edges)}
        assert r.tolist() == theta[1].tolist()
        assert q[edge[(1, 0)]] == 0.5
        # Node 1's one frontier group: slack 0.25, (0, 1) still pending
        # and (2, 1) never active.
        mass = 0.25 + 0.5 * math.exp(-1.0) + 0.25
        assert q[edge[(0, 1)]] == pytest.approx(0.5 * math.exp(-1.0) / mass,
                                                rel=1e-12)
        assert q[edge[(2, 1)]] == pytest.approx(0.25 / mass, rel=1e-12)

class TestFinalPassLoglik:
    """A non-finite log-likelihood in the last E pass is an error."""

    GRAPH = DirectedGraph(2, [(0, 1)])
    # One update takes p to 1, where the long gap's density underflows to
    # 0/0 and the log-likelihood to nan.
    BAD = ([Cascade([(0, 0.0), (1, 1e-3)], 1000.0)] * 2000
           + [Cascade([(0, 0.0), (1, 740.0)], 1000.0)])
    WANT = "non-finite log-likelihood at iteration 1 (nan)"

    def test_fit_raises(self):
        with pytest.raises(EstimationError) as exc:
            fit("asic", self.GRAPH, self.BAD, EmConfig(max_iterations=1))
        assert str(exc.value) == self.WANT

    def test_fit_batch_fails_that_problem_only(self):
        good = [Cascade([(0, 0.0), (1, 0.5)], 10.0),
                Cascade([(0, 0.0), (1, 2.0)], 10.0)]
        config = EmConfig(max_iterations=1)
        results = fit_batch("asic", self.GRAPH, [good, self.BAD, good],
                            config)
        assert isinstance(results[1], EstimationError)
        assert str(results[1]) == self.WANT
        solo = fit("asic", self.GRAPH, good, config)
        for result in (results[0], results[2]):
            assert repr(result) == repr(solo)


class TestFitContract:
    def test_trace_length_and_convergence_flag(self):
        g, params, data = _instance(5, "asic")
        fitted, trace = fit("asic", g, data, EmConfig(max_iterations=200))
        assert trace.converged
        assert len(trace.params_history) == trace.iterations + 1
        assert len(trace.loglik) == trace.iterations + 1

    def test_max_iterations_one_does_one_update(self):
        g, params, data = _instance(6, "asic")
        fitted, trace = fit("asic", g, data,
                            EmConfig(max_iterations=1, tolerance=1e-12))
        assert trace.iterations == 1
        assert not trace.converged
        assert len(trace.params_history) == 2

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("mode", [SHARED, PER_LINK])
    def test_iteration_cap_logs_one_warning(self, caplog, model, mode):
        g, params, data = _instance(6, model)
        with caplog.at_level(logging.WARNING, logger="difflab"):
            _, trace = fit(model, g, data, EmConfig(
                max_iterations=2, tolerance=1e-12, mode=mode))
        assert not trace.converged
        records = [r for r in caplog.records if r.name.startswith("difflab")]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        text = records[0].getMessage()
        assert f"{model} {mode} fit" in text
        assert "max_iterations=2" in text and "last step" in text

    def test_converged_fit_logs_nothing(self, caplog):
        g, params, data = _instance(5, "asic")
        with caplog.at_level(logging.DEBUG, logger="difflab"):
            _, trace = fit("asic", g, data, EmConfig(max_iterations=200))
        assert trace.converged
        assert not [r for r in caplog.records
                    if r.name.startswith("difflab")]

    def test_empty_data_rejected(self, chain2):
        with pytest.raises(EstimationError):
            fit("asic", chain2, [])

    def test_node_delay_fit_unsupported(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        with pytest.raises(EstimationError):
            fit("asic", chain2, [c], delay=DelayMode.NODE_OVERRIDE)

    def test_seed_only_data_unfittable(self, chain2):
        c = Cascade([(0, 0.0)], 1.0)
        with pytest.raises(EstimationError):
            fit("asic", chain2, [c])

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_trace_loglik_matches_likelihood_module(self, model):
        # The vectorized internal objective must equal the scalar reference
        # evaluation at every recorded iterate.
        g, params, data = _instance(7, model, n=15, target=40)
        config = EmConfig(max_iterations=5, mode=SHARED)
        fitted, trace = fit(model, g, data, config)
        for snap, ll in zip(trace.params_history, trace.loglik):
            if model == "asic":
                snap_params = AsicParams.shared(*snap)
            else:
                snap_params = AsltParams.shared(*snap)
            want = loglik(model, g, snap_params, LINK, data)
            assert ll == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_trace_loglik_matches_likelihood_module_per_link(self, model):
        g, params, data = _instance(8, model, n=12, target=30)
        config = EmConfig(max_iterations=3, mode=PER_LINK)
        fitted, trace = fit(model, g, data, config)
        edges = list(g.edges)
        for snap, ll in zip(trace.params_history, trace.loglik):
            s_map = {e: float(snap[0][i]) for i, e in enumerate(edges)}
            r_map = {e: float(snap[1][i]) for i, e in enumerate(edges)}
            if model == "asic":
                snap_params = AsicParams.per_link(s_map, r_map)
            else:
                snap_params = AsltParams.per_link(
                    {e: max(val, 1e-12) for e, val in s_map.items()}, r_map)
            want = loglik(model, g, snap_params, LINK, data)
            assert ll == pytest.approx(want, rel=1e-10)


class TestMonotonicity:
    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("mode", [SHARED, PER_LINK])
    def test_loglik_never_decreases(self, model, mode):
        for seed in range(8):
            g, params, data = _instance((seed, model, mode), model, n=18,
                                        target=60)
            config = EmConfig(max_iterations=25, mode=mode)
            _, trace = fit(model, g, data, config)
            ll = np.asarray(trace.loglik)
            drops = np.diff(ll) < -1e-9 * np.abs(ll[:-1])
            assert not drops.any(), f"seed {seed}: decrease at {ll}"

    @pytest.mark.parametrize("mode", [SHARED, PER_LINK])
    def test_finite_horizon_fit_monotone_and_consistent(self, mode):
        # Censored windows: cut every cascade at a horizon that truncates
        # some pending activity, then fit with the within-window survival
        # factors and check the internal objective against the reference.
        from difflab import Cascade, loglik
        for seed in range(5):
            g, params, data = _instance((seed, "fin", mode), "asic", n=18,
                                        target=60)
            censored = []
            for c in data:
                cut = c.initial_time + 0.7 * (c.events[-1][1]
                                              - c.initial_time) + 0.1
                censored.append(c.truncated(cut))
            censored = [c for c in censored if len(c) >= 2]
            config = EmConfig(max_iterations=20, mode=mode)
            fitted, trace = fit("asic", g, censored, config,
                                horizon_mode="finite")
            ll = np.asarray(trace.loglik)
            drops = np.diff(ll) < -1e-9 * np.abs(ll[:-1])
            assert not drops.any(), f"seed {seed}: decrease at {ll}"
            want = loglik("asic", g, fitted, DelayMode.LINK, censored,
                          horizon_mode="finite")
            assert trace.loglik[-1] == pytest.approx(want, rel=1e-10)


class TestFitQuality:
    def test_shared_asic_recovery_smoke(self):
        g = erdos_renyi(60, 0.08, 42)
        truth = AsicParams.shared(0.35, 1.2)
        data = generate_training_set(g, truth, "asic", LINK, 1200, 3, 9)
        fitted, trace = fit("asic", g, data)
        assert param_error(fitted.p, 0.35) < 0.15
        assert param_error(fitted.r, 1.2) < 0.15

    def test_shared_aslt_recovery_smoke(self):
        g = erdos_renyi(60, 0.08, 43)
        truth = AsltParams.shared(0.9, 1.0)
        data = generate_training_set(g, truth, "aslt", LINK, 1200, 3, 10,
                                     max_attempts=500_000)
        fitted, trace = fit("aslt", g, data)
        assert param_error(fitted.q, 0.9) < 0.15
        assert param_error(fitted.r, 1.0) < 0.2

    def test_per_link_and_shared_agree_on_single_link_graph(self):
        g = DirectedGraph(2, [(0, 1)])
        cascades = [Cascade([(0, 0.0), (1, dt)], dt + 30.0)
                    for dt in (0.4, 0.9, 1.7, 2.2)]
        cascades.append(Cascade([(0, 0.0)], 30.0))
        shared_fit, _ = fit("asic", g, cascades,
                            EmConfig(max_iterations=400, tolerance=1e-10))
        link_fit, _ = fit("asic", g, cascades,
                          EmConfig(max_iterations=400, tolerance=1e-10,
                                   mode=PER_LINK))
        assert link_fit.p[(0, 1)] == pytest.approx(shared_fit.p, rel=1e-6)
        assert link_fit.r[(0, 1)] == pytest.approx(shared_fit.r, rel=1e-6)

    def test_initialization_robustness(self):
        g, truth, data = _instance(11, "asic", n=40, p_edge=0.12, target=500)
        results = []
        for p0 in (0.25, 0.5, 0.75):
            for r0 in (0.5, 1.0, 2.0):
                fitted, _ = fit("asic", g, data,
                                EmConfig(init_p=p0, init_r=r0,
                                         max_iterations=500))
                results.append((fitted.p, fitted.r))
        ps = [p for p, _ in results]
        rs = [r for _, r in results]
        assert (max(ps) - min(ps)) / np.mean(ps) < 0.01
        assert (max(rs) - min(rs)) / np.mean(rs) < 0.01

    def test_stationary_at_convergence(self):
        g, truth, data = _instance(12, "asic", n=30, p_edge=0.12, target=300)
        fitted, trace = fit("asic", g, data,
                            EmConfig(max_iterations=2000, tolerance=1e-9))
        ll0 = loglik("asic", g, fitted, LINK, data)
        for which in ("p", "r"):
            base = getattr(fitted, which)
            step = 1e-5 * base
            vals = []
            for sign in (1, -1):
                kw = {"p": fitted.p, "r": fitted.r}
                kw[which] = base + sign * step
                vals.append(loglik("asic", g, AsicParams.shared(**kw),
                                   LINK, data))
            grad = (vals[0] - vals[1]) / (2 * step)
            assert abs(grad) <= 1e-3 * abs(ll0)


class TestWarmStart:
    def test_warm_start_uses_previous_solution(self):
        g, truth, data = _instance(13, "asic", n=30, target=200)
        fitted, trace = fit("asic", g, data, EmConfig(max_iterations=300))
        refit, retrace = fit("asic", g, data, EmConfig(max_iterations=300),
                             init_params=fitted)
        assert retrace.iterations <= 2
        assert refit.p == pytest.approx(fitted.p, rel=1e-4)


class TestParamError:
    def test_values(self):
        assert param_error(0.11, 0.10) == pytest.approx(0.1)
        assert param_error(1.0, 1.0) == 0.0
        assert param_error(0.018, 0.02) == pytest.approx(0.1)

    def test_zero_truth_rejected(self):
        with pytest.raises(ParameterError):
            param_error(0.5, 0.0)


class TestParamsIO:
    def test_shared_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, "asic", AsicParams.shared(0.123456789, 1.5),
                    iterations=17, loglik_value=-12.5)
        model, params = load_params(path)
        assert model == "asic"
        assert params.p == pytest.approx(0.123456789, rel=1e-15)
        assert params.r == 1.5

    def test_per_link_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        orig = AsltParams.per_link({(0, 1): 0.25, (2, 1): 0.5},
                                   {(0, 1): 1.0, (2, 1): 2.0})
        save_params(path, "aslt", orig, 3, -1.0)
        model, params = load_params(path)
        assert model == "aslt"
        assert params.q == orig.q
        assert params.r == orig.r
