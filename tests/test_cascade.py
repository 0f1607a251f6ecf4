import json

import pytest

from difflab import (AsicParams, AsltParams, Cascade, CascadeError,
                     CascadeSet, DirectedGraph, dumps_cascades,
                     effective_parents, fit, loads_cascades, loglik,
                     select_model)
from difflab.em import _Stats


class TestCascade:
    def test_events_sorted_on_construction(self):
        c = Cascade([(2, 3.0), (0, 1.0), (1, 2.0)], 10.0)
        assert c.events == ((0, 1.0), (1, 2.0), (2, 3.0))
        assert c.initial_time == 1.0

    def test_duplicate_node_rejected(self):
        with pytest.raises(CascadeError):
            Cascade([(0, 1.0), (0, 2.0)], 10.0)

    def test_horizon_before_last_event_rejected(self):
        with pytest.raises(CascadeError):
            Cascade([(0, 0.0), (1, 5.0)], 4.0)

    @pytest.mark.parametrize("events, horizon, part", [
        ([(1.7, 0.5), (0, 0.0)], 2.0, "event (1.7, 0.5) must be a (node, "
         "time) pair with an integer node and a numeric time"),
        ([(True, 0.0)], 1.0, "event (True, 0.0)"),
        ([(0, "0.5")], 1.0, "event (0, '0.5')"),
        ([(0, 0.0, 1.0)], 2.0, "event (0, 0.0, 1.0)"),
        (5, 1.0, "events must be a list of (node, time) pairs, got 5"),
        ([(0, 0.0)], "1", "horizon must be a number, got '1'"),
        ([(0, 0.0)], True, "horizon must be a number, got True"),
        ([(0, 0.0)], None, "horizon must be a number, got None"),
    ])
    def test_malformed_input_rejected(self, events, horizon, part):
        with pytest.raises(CascadeError) as info:
            Cascade(events, horizon)
        assert str(info.value).startswith(part)

    def test_simultaneous_seed_times_allowed(self):
        c = Cascade([(0, 0.0), (1, 0.0), (2, 1.0)], 2.0)
        assert c.initial_time == 0.0
        assert len(c) == 3

    def test_truncated_keeps_strictly_earlier_events(self):
        c = Cascade([(0, 0.0), (1, 1.0), (2, 2.0)], 5.0)
        t = c.truncated(2.0)
        assert t.events == ((0, 0.0), (1, 1.0))
        assert t.horizon == 2.0


class TestCascadeSetIO:
    def test_round_trip_full_precision(self):
        c1 = Cascade([(0, 0.0), (3, 0.12345678901234567)], 7.890123456789012)
        c2 = Cascade([(1, 0.0)], 1.0)
        cs = CascadeSet([c1, c2], ids=["a", "b"], topics=["t1", "t2"])
        back = loads_cascades(dumps_cascades(cs))
        assert back.ids == ["a", "b"]
        assert back.topics == ["t1", "t2"]
        assert back[0].events == c1.events
        assert back[0].horizon == c1.horizon

    def test_events_emitted_in_time_order(self):
        cs = CascadeSet([Cascade([(5, 2.0), (1, 0.0)], 3.0)])
        rec = json.loads(dumps_cascades(cs).splitlines()[0])
        times = [t for _, t in rec["events"]]
        assert times == sorted(times)

    def test_invalid_json_line_reports_position(self):
        with pytest.raises(CascadeError, match="line 1"):
            loads_cascades("{not json}\n")

    @pytest.mark.parametrize("text, want", [
        ('{"events": [[0, 0.0]], "horizon": 1.0}\n'
         '{"events": [[1.9, 0], [true, 1]], "horizon": 2}',
         "line 2: event [1.9, 0] must be a (node, time) pair"),
        ('{"events": [[0, "x"]], "horizon": 2}', "line 1: event [0, 'x']"),
        ('{"events": 5, "horizon": 2}', "line 1: events must be a list"),
        ('[[0, 0.0]]', "line 1: expected a JSON object, got a list"),
        ('{"events": [[0, 0, 1]], "horizon": 2}', "line 1: event [0, 0, 1]"),
        ('{"events": [[0, 0]], "horizon": null}',
         "line 1: horizon must be a number, got None"),
        ('{"events": [[0, 0]], "horizon": 1, "topic": ["x"]}',
         "line 1: topic must be a string, got ['x']"),
        ('{"events": [[0, 0]], "horizon": 1, "topic": "a"}\n'
         '{"events": [[1, 0]], "horizon": 1, "topic": 1}',
         "line 2: topic must be a string, got 1"),
    ])
    def test_malformed_record_names_its_line(self, text, want):
        with pytest.raises(CascadeError) as info:
            loads_cascades(text)
        assert str(info.value).startswith(want)

    def test_topics_must_be_strings(self):
        with pytest.raises(CascadeError,
                           match="cascade b: topic must be a string, got 1"):
            CascadeSet([Cascade([(0, 0.0)], 0.0), Cascade([(1, 0.0)], 0.0)],
                       ids=["a", "b"], topics=["x", 1])

    def test_by_topic_grouping(self):
        cs = CascadeSet([Cascade([(0, 0.0)], 0.0), Cascade([(1, 0.0)], 0.0)],
                        ids=["a", "b"], topics=["x", "y"])
        groups = cs.by_topic()
        assert set(groups) == {"x", "y"}
        assert len(groups["x"]) == 1

    def test_total_active(self):
        cs = CascadeSet([Cascade([(0, 0.0), (1, 1.0)], 2.0),
                         Cascade([(2, 0.0)], 0.0)])
        assert cs.total_active == 3


class TestNodesOutsideGraph:
    """Every entry point that reads cascades against a graph rejects a node
    outside it with one error, before any work."""

    @pytest.fixture(params=[-2, 3, 9])
    def case(self, request):
        node = request.param
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        # The bad node activates last, so a truncation before it is valid.
        data = [Cascade([(0, 0.0), (1, 1.0), (2, 2.0)], 3.0),
                Cascade([(0, 0.0), (1, 0.5), (node, 2.5)], 3.0)]
        return g, data, f"cascade 1 references node {node} outside the graph"

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_fit_and_loglik(self, case, model):
        g, data, want = case
        params = (AsicParams.shared(0.5, 1.0) if model == "asic"
                  else AsltParams.shared(0.5, 1.0))
        with pytest.raises(CascadeError, match=want):
            fit(model, g, data)
        with pytest.raises(CascadeError, match=want):
            loglik(model, g, params, data)

    def test_select_model(self, case):
        g, data, want = case
        with pytest.raises(CascadeError, match=want):
            select_model(g, data)


def _frontier(g, c):
    """The frontier nodes of the EM statistics' frontier block."""
    return _Stats(g, [c], "aslt").f_group_node.tolist()


class TestFrontier:
    def test_empty_cascade_has_empty_frontier(self, chain3):
        assert _frontier(chain3, Cascade([], 0.0)) == []

    def test_chain_first_active(self, chain3):
        assert _frontier(chain3, Cascade([(0, 0.0)], 1.0)) == [1]

    def test_all_active_empty_frontier(self, chain3):
        c = Cascade([(0, 0.0), (1, 1.0), (2, 2.0)], 3.0)
        assert _frontier(chain3, c) == []


class TestEffectiveParents:
    def test_strict_time_filter(self):
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        c = Cascade([(0, 1.0), (2, 5.0), (1, 7.0)], 10.0)
        assert effective_parents(g, c, 2) == {0}

    def test_frontier_node_takes_all_active_parents(self):
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        c = Cascade([(0, 0.0)], 5.0)
        assert effective_parents(g, c, 2) == {0}

    def test_initial_node_has_no_effective_parents(self):
        g = DirectedGraph(2, [(0, 1), (1, 0)])
        c = Cascade([(0, 0.0), (1, 1.0)], 2.0)
        assert effective_parents(g, c, 0) == set()

    def test_detached_node_rejected(self):
        g = DirectedGraph(3, [(0, 1)])
        c = Cascade([(0, 0.0)], 1.0)
        with pytest.raises(CascadeError):
            effective_parents(g, c, 2)

    def test_equal_times_do_not_count(self):
        g = DirectedGraph(2, [(0, 1)])
        c = Cascade([(0, 0.0), (1, 0.0)], 1.0)
        assert effective_parents(g, c, 1) == set()
