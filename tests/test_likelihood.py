import math

import numpy as np
import pytest
from scipy import integrate

from difflab import (AsicParams, AsltParams, Cascade, CascadeError,
                     DelayMode, DirectedGraph, ParameterError, h_asic, h_aslt,
                     loglik, x_density_asic, x_density_aslt, y_survival_asic)
from difflab.params import link_array
from difflab.rng import derive_rng

from oracles import (children, edge_list, h_asic_sum_of_products,
                     loglik_asic_direct, loglik_aslt_direct, parents,
                     random_consistent_cascades)

LINK = DelayMode.LINK
NODE_NO = DelayMode.NODE_NON_OVERRIDE
NODE_OV = DelayMode.NODE_OVERRIDE


class TestScalarDensities:
    def test_x_asic_values(self):
        assert x_density_asic(0.5, 1.0, 1.0) == pytest.approx(
            0.18393972058572117, rel=1e-12)
        assert x_density_asic(0.5, 1.0, 0.5) == pytest.approx(
            0.3032653298563167, rel=1e-12)

    def test_x_asic_small_gap_limit(self):
        assert x_density_asic(0.37, 2.5, 1e-13) == pytest.approx(
            0.37 * 2.5, rel=1e-9)

    def test_x_asic_rejects_non_positive_gap(self):
        with pytest.raises(CascadeError):
            x_density_asic(0.5, 1.0, 0.0)
        with pytest.raises(CascadeError):
            x_density_asic(0.5, 1.0, -1.0)

    def test_y_asic_values(self):
        assert y_survival_asic(0.5, 1.0, 1.0) == pytest.approx(
            0.6839397205857212, rel=1e-12)
        assert y_survival_asic(0.3, 2.0, 0.0) == 1.0
        # long-gap limit leaves only the outright-failure mass
        assert y_survival_asic(0.3, 2.0, 1e6) == pytest.approx(0.7, abs=1e-12)

    def test_y_asic_rejects_negative_gap(self):
        with pytest.raises(CascadeError):
            y_survival_asic(0.5, 1.0, -0.1)

    def test_x_aslt_values(self):
        assert x_density_aslt(0.3, 1.0, 1.0) == pytest.approx(
            0.1103638323514327, rel=1e-12)
        assert x_density_aslt(0.3, 1.0, 0.5) == pytest.approx(
            0.18195919791379003, rel=1e-12)
        assert x_density_aslt(0.3, 2.0, 1e-13) == pytest.approx(0.6, rel=1e-9)


@pytest.fixture
def two_parent_case():
    """Parents 0 and 1 activate at 0 and 0.5; node 2 activates at 1."""
    g = DirectedGraph(3, [(0, 2), (1, 2)])
    c = Cascade([(0, 0.0), (1, 0.5), (2, 1.0)], 10.0)
    return g, c


class TestHAsic:
    def test_single_parent_reduces_to_x(self, chain2):
        params = AsicParams.shared(0.5, 1.0)
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        assert h_asic(c, chain2, params, LINK, 1) == pytest.approx(
            0.18393972058572117, rel=1e-12)

    def test_two_parents_link_delay(self, two_parent_case):
        g, c = two_parent_case
        params = AsicParams.shared(0.5, 1.0)
        assert h_asic(c, g, params, LINK, 2) == pytest.approx(
            0.35516760529523383, rel=1e-12)

    def test_two_parents_node_delay_non_override(self, two_parent_case):
        g, c = two_parent_case
        params = AsicParams.shared(0.5, 1.0)
        assert h_asic(c, g, params, NODE_NO, 2) == pytest.approx(
            0.3355723855138795, rel=1e-12)

    def test_override_equals_link_form_with_node_rate(self, two_parent_case):
        g, c = two_parent_case
        params = AsicParams.shared(0.5, 1.0)
        assert h_asic(c, g, params, NODE_OV, 2) == pytest.approx(
            h_asic(c, g, params, LINK, 2), rel=1e-12)

    def test_initial_node_density_is_one(self, two_parent_case):
        g, c = two_parent_case
        params = AsicParams.shared(0.5, 1.0)
        assert h_asic(c, g, params, LINK, 0) == 1.0

    def test_inactive_node_rejected(self, two_parent_case):
        g, c = two_parent_case
        with pytest.raises(CascadeError):
            h_asic(c, g, AsicParams.shared(0.5, 1.0), LINK, 99)

    def test_orphan_activation_has_zero_density(self):
        g = DirectedGraph(3, [(0, 1)])
        c = Cascade([(0, 0.0), (2, 1.0)], 5.0)
        assert h_asic(c, g, AsicParams.shared(0.5, 1.0), LINK, 2) == 0.0

    def test_matches_sum_of_products_up_to_six_parents(self):
        rng = derive_rng(61, "bruteforce")
        for trial in range(300):
            k = rng.randrange(1, 7)
            g = DirectedGraph(k + 1, [(u, k) for u in range(k)])
            tv = 5.0
            times = sorted(rng.uniform(0.0, 4.9) for _ in range(k))
            events = [(u, times[u]) for u in range(k)] + [(k, tv)]
            c = Cascade(events, 10.0)
            p_map = {(u, k): rng.uniform(0.05, 0.95) for u in range(k)}
            r_map = {(u, k): rng.uniform(0.2, 3.0) for u in range(k)}
            params = AsicParams.per_link(g, link_array(g, "p", p_map),
                                         link_array(g, "r", r_map))
            gaps = [tv - times[u] for u in range(k)]
            want = h_asic_sum_of_products(
                gaps, [p_map[(u, k)] for u in range(k)],
                [r_map[(u, k)] for u in range(k)])
            got = h_asic(c, g, params, LINK, k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_integrates_to_p_over_all_gaps(self, chain2):
        # The density of "parent fires the child after dt" integrates to the
        # diffusion probability.
        p, r = 0.37, 1.7
        val, err = integrate.quad(lambda dt: x_density_asic(p, r, dt),
                                  1e-12, np.inf)
        assert val == pytest.approx(p, abs=1e-6)


class TestNodeDensityTerms:
    """``h`` against its per-parent ingredients: the arrival densities x
    and (cascade model only) the not-yet-fired survivals y."""

    def test_terms_recombine_to_h(self, two_parent_case):
        g, c = two_parent_case
        p, r = 0.5, 1.0
        gaps = [c.time_of(2) - c.time_of(u) for u in (0, 1)]
        x = [x_density_asic(p, r, dt) for dt in gaps]
        y = [y_survival_asic(p, r, dt) for dt in gaps]
        assert all(v >= 0 for v in x) and all(0 < v <= 1 for v in y)
        want = (x[0] / y[0] + x[1] / y[1]) * y[0] * y[1]
        got = h_asic(c, g, AsicParams.shared(p, r), LINK, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_initial_node_has_unit_density(self, two_parent_case):
        g, c = two_parent_case
        assert h_asic(c, g, AsicParams.shared(0.5, 1.0), LINK, 0) == 1.0
        assert h_aslt(c, g, AsltParams.shared(0.6, 1.0), LINK, 0) == 1.0

    def test_threshold_model_terms_sum_to_h(self, two_parent_case):
        g, c = two_parent_case
        params = AsltParams.shared(0.6, 1.0)
        # Shared q splits over node 2's two parents.
        want = sum(x_density_aslt(0.3, 1.0, c.time_of(2) - c.time_of(u))
                   for u in (0, 1))
        assert h_aslt(c, g, params, LINK, 2) == pytest.approx(want,
                                                              rel=1e-12)

    def test_single_parent_node_delay_variants_match_link(self, chain2):
        # With one parent and equal rates, all three delay semantics give
        # the same density value in both models.
        c = Cascade([(0, 0.0), (1, 0.7)], 10.0)
        icp = AsicParams.shared(0.4, 1.3)
        base = h_asic(c, chain2, icp, LINK, 1)
        for mode in (NODE_NO, NODE_OV):
            assert h_asic(c, chain2, icp, mode, 1) == pytest.approx(
                base, rel=1e-12)
        ltp = AsltParams.shared(0.8, 1.3)
        base = h_aslt(c, chain2, ltp, LINK, 1)
        for mode in (NODE_NO, NODE_OV):
            assert h_aslt(c, chain2, ltp, mode, 1) == pytest.approx(
                base, rel=1e-12)


class TestGAsic:
    """The survival factor of an active node's inactive children, as it
    enters ``loglik``: one cascade, minus the log-densities of its
    non-initial activations."""

    def test_no_inactive_children_gives_one(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        params = AsicParams.shared(0.5, 1.0)
        assert loglik("asic", chain2, params, [c]) == pytest.approx(
            math.log(h_asic(c, chain2, params, LINK, 1)), rel=1e-12)

    def test_two_inactive_children_infinite_mode(self, star4):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        params = AsicParams.shared(0.5, 1.0)
        got = (loglik("asic", star4, params, [c])
               - math.log(h_asic(c, star4, params, LINK, 1)))
        assert got == pytest.approx(math.log(0.25), rel=1e-12)

    def test_finite_mode_value(self, chain2):
        c = Cascade([(0, 0.0)], 2.0)
        params = AsicParams.shared(0.5, 1.0)
        assert loglik("asic", chain2, params, [c],
                      "finite") == pytest.approx(
            math.log(0.5676676416183064), rel=1e-12)

    def test_finite_converges_to_infinite(self, chain2):
        params = AsicParams.shared(0.5, 2.0)
        inf_val = math.exp(loglik("asic", chain2, params,
                                  [Cascade([(0, 0.0)], 5.0)]))
        vals = [math.exp(loglik("asic", chain2, params,
                                [Cascade([(0, 0.0)], t)], "finite"))
                for t in (10 / 2.0, 100 / 2.0)]
        assert vals[0] > vals[1] >= inf_val
        assert vals[1] == pytest.approx(inf_val, abs=1e-12)


class TestHAslt:
    def test_two_parents_link_delay(self, two_parent_case):
        g, c = two_parent_case
        params = AsltParams.per_link(
            g, link_array(g, "q", {(0, 2): 0.3, (1, 2): 0.3}),
            link_array(g, "r", {(0, 2): 1.0, (1, 2): 1.0}))
        assert h_aslt(c, g, params, LINK, 2) == pytest.approx(
            0.2923230302652227, rel=1e-12)

    def test_single_parent_override_reduces_to_link_value(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        link = AsltParams.per_link(
            chain2, link_array(chain2, "q", {(0, 1): 0.3}),
            link_array(chain2, "r", {(0, 1): 1.0}))
        # Node 1's rate 1.0 is the rate of its one in-link.
        node = AsltParams.per_link(
            chain2, link_array(chain2, "q", {(0, 1): 0.3}),
            link_array(chain2, "r", {(0, 1): 1.0}))
        assert h_aslt(c, chain2, node, NODE_OV, 1) == pytest.approx(
            h_aslt(c, chain2, link, LINK, 1), rel=1e-12)

    def test_two_parents_override(self, two_parent_case):
        g, c = two_parent_case
        # Node 2's rate 1.0 on each of its in-links.
        params = AsltParams.per_link(
            g, link_array(g, "q", {(0, 2): 0.3, (1, 2): 0.3}),
            link_array(g, "r", {(0, 2): 1.0, (1, 2): 1.0}))
        assert h_aslt(c, g, params, NODE_OV, 2) == pytest.approx(
            0.31583729400284793, rel=1e-12)

    def test_non_override_equals_link_with_node_rate(self, two_parent_case):
        g, c = two_parent_case
        link = AsltParams.shared(0.6, 1.3)
        node = AsltParams.shared(0.6, 1.3)
        assert h_aslt(c, g, node, NODE_NO, 2) == pytest.approx(
            h_aslt(c, g, link, LINK, 2), rel=1e-12)

    def test_integrates_to_link_weight(self, chain2):
        q, r = 0.3, 0.8
        val, err = integrate.quad(lambda dt: x_density_aslt(q, r, dt),
                                  1e-12, np.inf)
        assert val == pytest.approx(q, abs=1e-6)


class TestGAslt:
    """The survival factor of a frontier node, as it enters ``loglik``:
    one seed-only cascade, whose seed has density 1."""

    def test_frontier_value(self):
        # Parents 0 (active at 0) and 1 (never active); equal weights 0.3,
        # slack 0.4, window [0, 2].
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        c = Cascade([(0, 0.0)], 2.0)
        params = AsltParams.per_link(
            g, link_array(g, "q", {(0, 2): 0.3, (1, 2): 0.3}),
            link_array(g, "r", {(0, 2): 1.0, (1, 2): 1.0}))
        assert loglik("aslt", g, params, [c]) == pytest.approx(
            math.log(0.7406005849709838), rel=1e-12)

    def test_active_node_rejected(self):
        # An active node has its density and no survival factor.
        g = DirectedGraph(2, [(0, 1)])
        c = Cascade([(0, 0.0), (1, 1.0)], 2.0)
        params = AsltParams.shared(0.5, 1.0)
        assert loglik("aslt", g, params, [c]) == pytest.approx(
            math.log(h_aslt(c, g, params, LINK, 1)), rel=1e-12)

    def test_node_without_active_parent_rejected(self):
        # Node 2 has no active parent: only frontier node 1 has a factor,
        # slack 0.5 plus parent 0's pending and parent 2's idle weight.
        g = DirectedGraph(3, [(0, 1), (2, 1)])
        c = Cascade([(0, 0.0)], 2.0)
        params = AsltParams.shared(0.5, 1.0)
        assert loglik("aslt", g, params, [c]) == pytest.approx(
            math.log(0.5 + 0.25 * math.exp(-2.0) + 0.25), rel=1e-12)

    def test_long_window_leaves_slack_plus_inactive_weights(self):
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        c = Cascade([(0, 0.0)], 1e9)
        params = AsltParams.per_link(
            g, link_array(g, "q", {(0, 2): 0.3, (1, 2): 0.3}),
            link_array(g, "r", {(0, 2): 1.0, (1, 2): 1.0}))
        assert math.exp(loglik("aslt", g, params, [c])) == pytest.approx(
            0.7, abs=1e-12)


class TestWrongParameterClass:
    @pytest.mark.parametrize("model, params, want", [
        ("asic", AsltParams.shared(0.9, 1.0), "AsicParams"),
        ("aslt", AsicParams.shared(0.9, 1.0), "AsltParams")])
    def test_loglik_refuses_the_other_models_params(self, two_parent_case,
                                                     model, params, want):
        g, c = two_parent_case
        with pytest.raises(ParameterError, match=f"the {model} model needs "
                           f"{want}, got {type(params).__name__}"):
            loglik(model, g, params, [c])

    @pytest.mark.parametrize("h, params, want", [
        (h_asic, AsltParams.shared(0.9, 1.0), "the asic model needs "
         "AsicParams, got AsltParams"),
        (h_aslt, AsicParams.shared(0.9, 1.0), "the aslt model needs "
         "AsltParams, got AsicParams")])
    @pytest.mark.parametrize("delay", [LINK, NODE_NO, NODE_OV])
    def test_h_refuses_the_other_models_params(self, two_parent_case, h,
                                               params, want, delay):
        g, c = two_parent_case
        for v in (0, 2):
            with pytest.raises(ParameterError, match=want):
                h(c, g, params, delay, v)


class TestLoglik:
    def test_isolated_seed_contributes_nothing(self):
        g = DirectedGraph(2, [])
        c = Cascade([(0, 0.0)], 1.0)
        params = AsicParams.shared(0.5, 1.0)
        assert loglik("asic", g, params, [c]) == 0.0

    def test_two_node_value(self, chain2):
        c = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        params = AsicParams.shared(0.5, 1.0)
        assert loglik("asic", chain2, params, [c]) == pytest.approx(
            -1.6931471805599454, rel=1e-12)

    def test_cascade_order_irrelevant(self, chain3):
        c1 = Cascade([(0, 0.0), (1, 1.0)], 10.0)
        c2 = Cascade([(1, 0.0), (2, 0.7)], 10.0)
        params = AsicParams.shared(0.4, 1.5)
        a = loglik("asic", chain3, params, [c1, c2])
        b = loglik("asic", chain3, params, [c2, c1])
        assert a == pytest.approx(b, rel=1e-12)

    def test_impossible_event_gives_minus_inf_with_diagnostics(self):
        g = DirectedGraph(3, [(0, 1)])
        c = Cascade([(0, 0.0), (2, 1.0)], 5.0)
        for model, params in (("asic", AsicParams.shared(0.5, 1.0)),
                              ("aslt", AsltParams.shared(0.5, 1.0))):
            assert loglik(model, g, params, [c]) == -math.inf

    def test_zero_factors_give_minus_inf(self, chain2):
        # p = 1 leaves no failure mass, and with exp(-r dt) underflowed
        # no survival of the one parent either.
        seed_only = Cascade([(0, 0.0)], 5.0)
        late = Cascade([(0, 0.0), (1, 1000.0)], 1001.0)
        sure = AsicParams.shared(1.0, 1.0)
        assert loglik("asic", chain2, sure, [seed_only]) == -math.inf
        assert loglik("asic", chain2, sure, [late]) == -math.inf
        assert loglik("aslt", chain2, AsltParams.shared(1.0, 1.0),
                      [late]) == -math.inf

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_per_link_params_must_cover_every_edge(self, model):
        # The data would touch only 0 -> 1; the map misses 2 -> 3.
        g = DirectedGraph(4, [(0, 1), (2, 3)])
        cls = AsicParams if model == "asic" else AsltParams
        with pytest.raises(ParameterError, match=r"link \(2, 3\)"):
            cls.per_link(g, link_array(g, "p", {(0, 1): 0.5}),
                         link_array(g, "r", {(0, 1): 1.0, (2, 3): 1.0}))

    def test_out_of_range_node_rejected(self, chain2):
        c = Cascade([(0, 0.0), (5, 1.0)], 5.0)
        with pytest.raises(CascadeError):
            loglik("asic", chain2, AsicParams.shared(0.5, 1.0), [c])

    def test_matches_direct_transcription_on_random_instances(self):
        # Modular evaluation against a from-scratch reimplementation on
        # random graphs, parameters, and synthetic-looking cascades.
        rng = derive_rng(71, "loglik-oracle")
        for trial in range(200):
            n = rng.randrange(2, 6)
            edges = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randrange(1, n * n))})
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = DirectedGraph(n, edges)
            raw, event_dicts, horizons = random_consistent_cascades(
                g, rng, rng.randrange(1, 4))
            cascades = [Cascade(ev, hz) for ev, hz in raw]
            if not cascades:
                continue
            up = {v: parents(g, v) for v in range(n)}
            down = {v: children(g, v) for v in range(n)}
            p_map = {e: rng.uniform(0.05, 0.95) for e in edge_list(g)}
            r_map = {e: rng.uniform(0.2, 3.0) for e in edge_list(g)}
            asic = AsicParams.per_link(g, link_array(g, "p", p_map),
                                       link_array(g, "r", r_map))
            got = loglik("asic", g, asic, cascades)
            want = loglik_asic_direct(up, down, event_dicts,
                                      lambda u, v: p_map[(u, v)],
                                      lambda u, v: r_map[(u, v)])
            _assert_ll_close(got, want)
            got_fin = loglik("asic", g, asic, cascades,
                             horizon_mode="finite")
            want_fin = loglik_asic_direct(up, down, event_dicts,
                                          lambda u, v: p_map[(u, v)],
                                          lambda u, v: r_map[(u, v)],
                                          horizon_mode="finite",
                                          horizons=horizons)
            _assert_ll_close(got_fin, want_fin)
            q = rng.uniform(0.2, 1.0)
            aslt = AsltParams.shared(q, 0.9)
            got_lt = loglik("aslt", g, aslt, cascades)
            want_lt = loglik_aslt_direct(
                up, down, event_dicts, horizons,
                lambda u, v: q / len(up[v]),
                lambda v: 1.0 - q if up[v] else 1.0,
                lambda u, v: 0.9)
            _assert_ll_close(got_lt, want_lt)


def _assert_ll_close(got, want):
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
