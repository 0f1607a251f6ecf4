"""Lockstep selection: every topic's cutoff rank k refitted in one batch.

Pins: a topic's report does not depend on its batch (byte for byte against
the solo call), results match the earlier per-topic scalar path in
``oracles`` to rel 1e-9, refit failures stay with their own topic, the
capped-refit count follows the fits' converged flags, and the held-out density
taken on the full cascade equals the one on the rebuilt truncated cascade.
"""

import json
import math
import random

import pytest

from difflab import (AsicParams, AsltParams, Cascade, DelayMode,
                     DirectedGraph, EmConfig, EstimationError,
                     InsufficientDataError, ParameterError,
                     build_observation_periods, erdos_renyi, fit, fit_batch,
                     generate_training_set, h_asic, h_aslt, load_edge_list,
                     preferential_attachment, select_model,
                     select_topics)
from difflab.cli import main
from difflab.params import PER_LINK

import oracles

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_em_properties import graphs_and_cascades  # noqa: E402

LINK = DelayMode.LINK

# 0 -> 1 -> 2 -> 3 -> 4 -> 6 -> 7 -> 8 -> 9 with shortcuts; node 5 has no
# parent, so any activation of it after a cascade's start is impossible.
# Ids appear in order, so internal ids equal external ones.
GRAPH_TEXT = "".join(f"{u} {v}\n" for u, v in [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4), (5, 6), (4, 6),
    (3, 6), (6, 7), (7, 8), (8, 9), (6, 8), (9, 0)])
GRAPH = load_edge_list(GRAPH_TEXT)
PATH = (0, 1, 2, 3, 4, 6, 7, 8, 9)


def _path_cascade(gaps):
    events, t = [], 0.0
    for v, gap in zip(PATH, (0.0,) + tuple(gaps)):
        t += gap
        events.append((v, t))
    return Cascade(events, t + 1.0)


def _mixed_topics():
    return {
        "normal-a": [_path_cascade((0.7, 0.4, 0.8, 0.5, 0.6, 0.8, 0.3, 0.9))],
        # From the cutoff at 4 on, node 5 (no parent) is in the window.
        "unsupported": [Cascade([(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0),
                                 (5, 3.5), (4, 4.0)], 5.0)],
        # The first cutoff (4) leaves only the two seeds in the window.
        "seeds-first": [Cascade([(0, 0.0)], 6.0),
                        Cascade([(1, 3.0), (2, 4.0), (3, 5.0)], 6.0)],
        "single": [Cascade([(0, 0.0)], 1.0)],
        "normal-b": [_path_cascade((0.3, 0.5, 0.2, 0.9, 0.4, 0.6)),
                     _path_cascade((0.9, 0.2, 0.7, 0.3))],
    }


def _same(a, b):
    """Equal reports or equal errors, to the byte (``repr`` is exact)."""
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return repr(a) == repr(b)


def _solo(g, data, config, topic):
    try:
        return select_model(g, data, config, topic=topic)
    except (InsufficientDataError, EstimationError) as exc:
        return exc


class TestBatchIndependence:
    def test_mixed_batch_matches_solo_calls(self):
        topics = _mixed_topics()
        config = EmConfig(max_iterations=60)
        batched = select_topics(GRAPH, topics, config)
        assert list(batched) == list(topics)
        for topic, data in topics.items():
            assert _same(batched[topic], _solo(GRAPH, data, config, topic))
        single = batched["single"]
        assert isinstance(single, InsufficientDataError)
        assert str(single) == ("need at least two activation events to "
                               "build prediction cutoffs")
        unsupported = batched["unsupported"]
        assert [row["tau"] for row in unsupported.cutoffs] == [3.0, 3.5, 4.0]
        assert [row["h_asic"] is None for row in unsupported.cutoffs] == [
            False, False, True]
        assert unsupported.skipped == {"asic": 1, "aslt": 1}
        seeds_first = batched["seeds-first"]
        assert [row["tau"] for row in seeds_first.cutoffs] == [4.0, 5.0]
        assert seeds_first.cutoffs[0]["h_aslt"] is None
        assert seeds_first.cutoffs[1]["h_aslt"] is not None
        for topic in ("normal-a", "normal-b"):
            assert batched[topic].skipped == {"asic": 0, "aslt": 0}

    def test_order_of_topics_does_not_matter(self):
        topics = _mixed_topics()
        forward = select_topics(GRAPH, topics)
        backward = select_topics(GRAPH, dict(reversed(list(topics.items()))))
        for topic in topics:
            assert _same(forward[topic], backward[topic])

    def test_cli_skips_single_event_topic_among_normal_ones(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_TEXT)
        records, labels = [], {}
        for topic, data in _mixed_topics().items():
            for k, c in enumerate(data):
                cid = f"{topic}-{k}"
                records.append({"id": cid, "events": [list(e) for e in
                                                      c.events],
                                "horizon": c.horizon})
                labels[cid] = topic
        casc = tmp_path / "c.jsonl"
        casc.write_text("".join(json.dumps(r) + "\n" for r in records))
        label_file = tmp_path / "labels.json"
        label_file.write_text(json.dumps(labels))
        out = tmp_path / "select.json"
        assert main(["select", "--graph", str(graph), "--cascades", str(casc),
                     "--topic-labels", str(label_file), "--out",
                     str(out)]) == 0
        rows = {row["topic"]: row for row in json.loads(out.read_text())}
        assert rows["single"] == {
            "topic": "single", "skipped": True,
            "reason": "need at least two activation events to build "
                      "prediction cutoffs"}
        for topic in ("normal-a", "normal-b", "unsupported", "seeds-first"):
            assert rows[topic]["chosen"] in ("asic", "aslt")
            assert set(rows[topic]) == {"topic", "score_asic", "score_aslt",
                                        "j", "chosen", "indeterminate",
                                        "cutoffs", "capped",
                                        "skipped_cutoffs"}


@st.composite
def graphs_and_topics(draw):
    n = draw(st.integers(2, 8))
    links = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % n))
    g = DirectedGraph(n, draw(st.sets(links, min_size=n,
                                      max_size=n * (n - 1))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    topics = {}
    for i in range(draw(st.integers(1, 6))):
        raw, _, _ = oracles.random_consistent_cascades(
            g, rng, draw(st.integers(1, 3)))
        topics[f"t{i}"] = [Cascade(ev, hz) for ev, hz in raw]
    return g, topics


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(graphs_and_topics(), st.sampled_from([1, 3, 40]))
def test_batched_report_equals_solo_report(case, cap):
    g, topics = case
    config = EmConfig(max_iterations=cap)
    batched = select_topics(g, topics, config)
    for topic, data in topics.items():
        assert _same(batched[topic], _solo(g, data, config, topic))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(graphs_and_cascades(), st.sampled_from([0.05, 0.5, 1.0]),
                  st.sampled_from([0.3, 1.0, 4.0]))
def test_heldout_density_on_full_cascade_equals_rebuilt(case, strength, r):
    # The held-out event is its cascade's first at or past tau, so its
    # parents active before it are active before tau: h is the same float
    # on the full cascade as on the window plus the held-out event.
    g, data = case
    hypothesis.assume(sum(len(c) for c in data) >= 2)
    for tau in build_observation_periods(data).cutoffs:
        t, m, v = min((t, m, v) for m, c in enumerate(data)
                      for v, t in c.events if t >= tau)
        kept = [e for e in data[m].events if e[1] < tau]
        rebuilt = Cascade(kept + [(v, t)], max(t, tau))
        for h, params in ((h_asic, AsicParams.shared(strength, r)),
                          (h_aslt, AsltParams.shared(strength, r))):
            assert repr(h(data[m], g, params, LINK, v)) == repr(
                h(rebuilt, g, params, LINK, v))


class TestAgainstScalarPath:
    @pytest.mark.parametrize("truth", ["asic", "aslt"])
    def test_seeded_topics_within_rel_1e9(self, truth):
        g = preferential_attachment(300, 3, 21)
        params = (AsicParams.shared(0.15, 1.0) if truth == "asic"
                  else AsltParams.shared(0.9, 1.0))
        data = generate_training_set(g, params, truth, LINK, 120, 10,
                                     (21, truth), max_attempts=200_000)
        topics = {f"c{k}": [c] for k, c in enumerate(data)}
        config = EmConfig()
        reports = select_topics(g, topics, config)
        for topic, cascades in topics.items():
            rep = reports[topic]
            periods = build_observation_periods(cascades)
            scores = {}
            for model in ("asic", "aslt"):
                old = list(oracles.cutoff_terms_per_topic(
                    model, g, cascades, periods, config))
                assert [row["tau"] for row in rep.cutoffs] == [
                    o[0] for o in old]
                terms = []
                for row, (_, node, _, h, _) in zip(rep.cutoffs, old):
                    assert (row[f"h_{model}"] is None) == (node is None)
                    if node is not None:
                        assert row[f"h_{model}"] == pytest.approx(h,
                                                                  rel=1e-9)
                        terms.append(h)
                scores[model] = sum(-math.log(h) for h in terms) / len(terms)
                got = getattr(rep, f"score_{model}")
                assert got == pytest.approx(scores[model], rel=1e-9)
            want = "asic" if scores["asic"] <= scores["aslt"] else "aslt"
            assert rep.chosen == want

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("horizon_mode", ["infinite", "finite"])
    def test_fit_matches_scalar_loop(self, model, horizon_mode):
        for seed in range(3):
            g = erdos_renyi(25, 0.15, seed)
            params = (AsicParams.shared(0.4, 1.3) if model == "asic"
                      else AsltParams.shared(0.8, 0.7))
            data = generate_training_set(g, params, model, LINK, 120, 3,
                                         (seed, "scalar"),
                                         max_attempts=50_000)
            config = EmConfig(max_iterations=200)
            got, trace = fit(model, g, data, config,
                             horizon_mode=horizon_mode)
            want, iterations, converged = oracles.fit_shared_scalar(
                model, g, data, config, horizon_mode=horizon_mode)
            strength = "p" if model == "asic" else "q"
            assert getattr(got, strength) == pytest.approx(
                getattr(want, strength), rel=1e-9)
            assert got.r == pytest.approx(want.r, rel=1e-9)
            assert (trace.iterations, trace.converged) == (iterations,
                                                           converged)


def _good_problem(g, seed, model):
    params = (AsicParams.shared(0.4, 1.0) if model == "asic"
              else AsltParams.shared(0.8, 1.0))
    return generate_training_set(g, params, model, LINK, 40, 3,
                                 (seed, "batch"), max_attempts=50_000)


def _fully_active_problem(g, source):
    """Every node reachable from ``source``, activated in BFS order: no
    active node has an inactive child, so the failure and frontier blocks
    are empty."""
    times, queue = {source: 0.0}, [source]
    for u in queue:
        for v in oracles.children(g, u):
            if v not in times:
                times[v] = times[u] + 0.5 + 0.01 * len(times)
                queue.append(v)
    return [Cascade(list(times.items()), max(times.values()) + 1.0)]


class TestFitBatch:
    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("horizon_mode", ["infinite", "finite"])
    def test_each_problem_equals_its_solo_fit(self, model, horizon_mode):
        g = erdos_renyi(20, 0.2, 7)
        u, v = oracles.edge_list(g)[0]
        a, b = next((a, b) for a in range(20) for b in range(20)
                    if a != b and not g.has_edge(a, b))
        problems = [
            _good_problem(g, 0, model),
            # v's density exp(-1000) underflows to 0.
            [Cascade([(u, 0.0), (v, 1000.0)], 1001.0)],
            _good_problem(g, 1, model),
            [Cascade([(0, 0.0)], 1.0)],
            # b activates with no active parent.
            [Cascade([(u, 0.0)], 1.0), Cascade([(a, 0.0), (b, 0.5)], 2.0)],
            _good_problem(g, 2, model),
            _fully_active_problem(g, 3),
            _good_problem(g, 4, model),
            # Last, so its empty failure or frontier run starts at the end
            # of the block.
            _fully_active_problem(g, 5),
        ]
        config = EmConfig(max_iterations=40)
        starts = [None, None, AsicParams.shared(0.3, 2.0) if model == "asic"
                  else AsltParams.shared(0.6, 2.0)] + [None] * 6
        batched = fit_batch(model, g, problems, config, starts,
                            horizon_mode=horizon_mode)
        assert len(batched) == len(problems)
        for data, start, got in zip(problems, starts, batched):
            (want,) = fit_batch(model, g, [data], config, [start],
                                horizon_mode=horizon_mode)
            if isinstance(want, EstimationError):
                assert isinstance(got, EstimationError)
                assert str(got) == str(want)
                continue
            assert repr(got[0]) == repr(want[0])
            assert repr(got[1]) == repr(want[1])
        assert isinstance(batched[1], EstimationError)
        assert "underflowed" in str(batched[1])
        assert "no non-initial activations" in str(batched[3])
        assert str(batched[4]).startswith("cascade 1: node ")
        for b in (6, 8):
            assert not isinstance(batched[b], EstimationError)

    def test_zero_probability_error_counts_cascades_within_problem(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        good = [Cascade([(0, 0.0), (1, 1.0), (2, 1.5)], 3.0)]
        bad = [Cascade([(0, 0.0), (1, 1.0)], 2.0),
               Cascade([(0, 0.0), (2, 0.5), (1, 1.0)], 2.0)]
        results = fit_batch("asic", g, [good, good, bad, good])
        assert str(results[2]) == (
            "cascade 1: node 2 activated at t=0.5 with no possible "
            "activator (zero-probability event)")
        for b in (0, 1, 3):
            assert repr(results[b]) == repr(fit("asic", g, good))

    def test_final_pass_underflow_fails_only_its_problem(self):
        g = DirectedGraph(4, [(0, 1), (2, 3)])
        # 2000 quick activations pull r to about 2.7 in one update, so the
        # density exp(-r * 740) of the long gap underflows only in the
        # final E pass.
        data = ([Cascade([(0, 0.0), (1, 1e-3)], 1e-3)] * 2000
                + [Cascade([(2, 0.0), (3, 740.0)], 740.0)])
        config = EmConfig(max_iterations=1)
        want = "cascade 2000: activation density of node 3 underflowed to 0"
        with pytest.raises(EstimationError, match=want):
            fit("aslt", g, data, config)
        good = data[:5]
        results = fit_batch("aslt", g, [good, data], config)
        assert str(results[1]) == want
        assert repr(results[0]) == repr(fit("aslt", g, good, config))

    def test_empty_batch_and_per_link_refused(self):
        assert fit_batch("asic", GRAPH, []) == []
        with pytest.raises(ParameterError, match="shared-mode"):
            fit_batch("asic", GRAPH, [[_path_cascade((0.5,))]],
                      EmConfig(mode=PER_LINK))


class TestCapped:
    def test_cap_of_one_caps_every_fitted_refit(self):
        topics = _mixed_topics()
        config = EmConfig(max_iterations=1, tolerance=1e-15)
        for topic, rep in select_topics(GRAPH, topics, config).items():
            if isinstance(rep, Exception):
                continue
            for model in ("asic", "aslt"):
                fitted = sum(row[f"h_{model}"] is not None
                             for row in rep.cutoffs)
                assert rep.capped[model] == fitted > 0

    def test_cap_every_refit_stays_within_caps_none(self):
        topics = _mixed_topics()
        config = EmConfig(max_iterations=20_000, tolerance=1e-6)
        for rep in select_topics(GRAPH, topics, config).values():
            if not isinstance(rep, Exception):
                assert rep.capped == {"asic": 0, "aslt": 0}

    def test_solo_report_counts_capped_refits(self):
        rep = select_model(GRAPH, _mixed_topics()["normal-b"],
                           EmConfig(max_iterations=3, tolerance=1e-15))
        assert rep.capped == {
            m: sum(row[f"h_{m}"] is not None for row in rep.cutoffs)
            for m in ("asic", "aslt")}


class TestPerLinkRefused:
    def test_select_and_score_name_shared_mode(self):
        data = _mixed_topics()["normal-a"]
        config = EmConfig(mode=PER_LINK)
        with pytest.raises(ParameterError, match="shared mode"):
            select_model(GRAPH, data, config)
        with pytest.raises(ParameterError, match="shared mode"):
            select_topics(GRAPH, {"a": data}, config)
