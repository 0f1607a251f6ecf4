import pickle
import random

import numpy as np
import pytest

from difflab import (DirectedGraph, EdgeListParseError, GraphValidationError,
                     dumps_edge_list, erdos_renyi, load_edge_list,
                     mean_out_degree, preferential_attachment)
from oracles import children, edge_list, parents


def random_pairs(n, m, seed):
    """``m`` random (u, v) pairs over ``n`` nodes without self-links, many
    of them repeated."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
            if rng.random() < 0.3:
                pairs.append((u, v))
    return pairs


def csr_reference(n, pairs):
    """The CSR arrays of ``pairs`` by brute force from ``sorted(set())``."""
    ref = sorted(set(pairs))
    out_ptr = [sum(1 for u, _ in ref if u < x) for x in range(n + 1)]
    in_edges = [e for v in range(n) for e, (_, h) in enumerate(ref)
                if h == v]
    in_degree = [sum(1 for _, h in ref if h == v) for v in range(n)]
    return {"out_ptr": out_ptr, "tails": [u for u, _ in ref],
            "heads": [v for _, v in ref], "in_edges": in_edges,
            "in_ptr": [sum(in_degree[:v]) for v in range(n + 1)],
            "in_degree": in_degree}



class TestLoadEdgeList:
    def test_basic_two_cycle(self):
        g = load_edge_list("0 1\n1 0\n")
        assert g.node_count == 2
        assert set(edge_list(g)) == {(0, 1), (1, 0)}

    def test_comments_and_blank_lines_skipped(self):
        g = load_edge_list("# comment\n\n0 1\n")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_self_link_rejected(self):
        with pytest.raises(GraphValidationError):
            load_edge_list("3 3\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list("0 1\n0 1 2\n")
        assert exc.value.line_number == 2

    def test_non_integer_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("a b\n")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("-1 0\n")

    def test_duplicates_collapsed_with_counter(self):
        g = load_edge_list("0 1\n0 1\n1 0\n")
        assert g.edge_count == 2
        assert g.duplicate_count == 1

    def test_crlf_and_tabs_accepted(self):
        g = load_edge_list("0\t1\r\n1\t2\r\n")
        assert g.edge_count == 2

    def test_sparse_external_ids_remapped_densely(self):
        g = load_edge_list("10 500\n500 10\n")
        assert g.node_count == 2
        assert g.labels == (10, 500)

    def test_round_trip(self):
        text = "0 1\n1 2\n2 0\n5 1\n"
        g = load_edge_list(text)
        g2 = load_edge_list(dumps_edge_list(g))
        ext = {(g.labels[u], g.labels[v]) for u, v in edge_list(g)}
        ext2 = {(g2.labels[u], g2.labels[v]) for u, v in edge_list(g2)}
        assert ext == ext2


class TestDirectedGraph:
    def test_adjacency_consistency(self):
        g = DirectedGraph(4, [(0, 1), (0, 2), (1, 2), (3, 0)])
        for u, v in edge_list(g):
            assert v in children(g, u)
            assert u in parents(g, v)
        assert sum(len(children(g, u)) for u in range(4)) == g.edge_count
        assert sum(len(parents(g, v)) for v in range(4)) == g.edge_count

    def test_immutable(self):
        g = DirectedGraph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.node_count = 5

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphValidationError):
            DirectedGraph(2, [(0, 2)])

    def test_edge_id_round_trip(self):
        g = DirectedGraph(3, [(2, 0), (0, 1)])
        for i, e in enumerate(edge_list(g)):
            assert g.edge_id(*e) == i

    @pytest.mark.parametrize("u,v", [(1, 0), (0, 2), (2, 2), (-1, 0),
                                     (0, -2), (3, 0), (0, 3)])
    def test_non_edge(self, u, v):
        g = DirectedGraph(3, [(2, 0), (0, 1)])
        assert not g.has_edge(u, v)
        with pytest.raises(KeyError):
            g.edge_id(u, v)

    def test_reversed_edge_absent(self):
        g = erdos_renyi(30, 0.1, seed=4)
        edges = set(edge_list(g))
        assert any((v, u) not in edges for u, v in edges)
        for u, v in edges:
            assert g.has_edge(u, v)
            assert g.has_edge(v, u) == ((v, u) in edges)

    @pytest.mark.parametrize("g", [DirectedGraph(0, []), DirectedGraph(3, []),
                                   DirectedGraph(4, [(3, 0), (0, 2), (1, 2),
                                                     (0, 1), (2, 0)]),
                                   erdos_renyi(40, 0.1, seed=3),
                                   preferential_attachment(60, 2, seed=3)])
    def test_csr_index_is_read_only_and_consistent(self, g):
        n, m = g.node_count, g.edge_count
        assert edge_list(g) == sorted(set(edge_list(g)))
        for arr in (g.out_ptr, g.tails, g.heads, g.in_ptr, g.in_edges,
                    g.in_degree):
            assert arr.dtype == np.intp
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        assert len(g.out_ptr) == len(g.in_ptr) == n + 1
        assert len(g.tails) == len(g.heads) == len(g.in_edges) == m
        assert g.out_ptr[-1] == g.in_ptr[-1] == m
        for u in range(n):
            lo, hi = g.out_ptr[u], g.out_ptr[u + 1]
            assert set(g.tails[lo:hi].tolist()) <= {u}
        for v in range(n):
            ids = g.in_edges[g.in_ptr[v]:g.in_ptr[v + 1]]
            assert set(g.heads[ids].tolist()) <= {v}
            assert parents(g, v) == sorted(parents(g, v))
        assert sorted(g.in_edges.tolist()) == list(range(m))

    @pytest.mark.parametrize("n,pairs", [
        (0, []), (1, []), (5, []), (2, [(0, 1), (0, 1), (0, 1)]),
        (6, [(5, 0), (0, 5), (3, 1), (5, 0), (1, 3), (0, 1)]),
        (12, random_pairs(12, 60, 1)), (30, random_pairs(30, 200, 2)),
        (30, random_pairs(30, 15, 3)), (80, random_pairs(80, 900, 4))])
    def test_csr_arrays_match_brute_force(self, n, pairs):
        g = DirectedGraph(n, pairs)
        want = csr_reference(n, pairs)
        for name, value in want.items():
            assert getattr(g, name).tolist() == value, name
        assert g.node_count == n
        assert g.edge_count == len(set(pairs))
        assert g.duplicate_count == len(pairs) - len(set(pairs))
        for src in (iter(pairs),
                    np.array(pairs, dtype=np.int32).reshape(-1, 2)):
            h = DirectedGraph(n, src)
            for name, value in want.items():
                assert getattr(h, name).tolist() == value, name

    @pytest.mark.parametrize("g", [
        DirectedGraph(0, []), DirectedGraph(1, []),
        DirectedGraph(5, [(4, 0), (0, 2), (1, 2), (0, 2), (2, 4)],
                      labels=[10, 11, 12, 13, 14]),
        DirectedGraph(40, random_pairs(40, 300, 5), duplicate_count=3),
        preferential_attachment(60, 2, seed=3)])
    def test_pickle_round_trip(self, g):
        h = pickle.loads(pickle.dumps(g))
        assert (h.node_count, h.edge_count) == (g.node_count, g.edge_count)
        assert h.labels == g.labels
        assert h.duplicate_count == g.duplicate_count
        for name in ("out_ptr", "tails", "heads", "in_ptr", "in_edges",
                     "in_degree"):
            assert getattr(h, name).dtype == np.intp
            assert np.array_equal(getattr(h, name), getattr(g, name))
            assert not getattr(h, name).flags.writeable

    def test_edge_lookup_matches_brute_force(self):
        n = 15
        pairs = random_pairs(n, 50, 6)
        g = DirectedGraph(n, pairs)
        index = {e: i for i, e in enumerate(sorted(set(pairs)))}
        for u in range(-2, n + 2):
            for v in range(-2, n + 2):
                assert g.has_edge(u, v) == ((u, v) in index)
                if (u, v) in index:
                    assert g.edge_id(u, v) == index[(u, v)]
                else:
                    with pytest.raises(KeyError):
                        g.edge_id(u, v)

    @pytest.mark.parametrize("pairs,message", [
        ([(0, 1.7), (2, "1")], r"edge \(0, 1\.7\): node ids must be integers"),
        ([(0, 1), (2, "1")], r"edge \(2, '1'\): node ids must be integers"),
        ([(0, 1.0)], r"edge \(0, 1\.0\): node ids must be integers"),
        ([(None, 1)], r"edge \(None, 1\): node ids must be integers"),
        ([(1, 1), (0, 1.5)], r"self-link \(1, 1\) is not allowed"),
        ([(0, 5), (0, 1.5)], r"edge \(0, 5\) references a node outside"),
        ([(0, 1.5), (1, 1)], r"edge \(0, 1\.5\): node ids must be"),
    ])
    def test_non_integer_ids_rejected(self, pairs, message):
        with pytest.raises(GraphValidationError, match=message):
            DirectedGraph(3, pairs)
        with pytest.raises(GraphValidationError, match=message):
            DirectedGraph(3, np.array(pairs, dtype=object))

    @pytest.mark.parametrize("pairs,message", [
        ([(0, 1), (4, 4), (0, 7)], r"^self-link \(4, 4\) is not allowed$"),
        ([(0, 1), (0, 7), (4, 4)],
         r"^edge \(0, 7\) references a node outside 0\.\.2$"),
        ([(-1, 0), (1, 1)],
         r"^edge \(-1, 0\) references a node outside 0\.\.2$"),
        ([(2, 2)], r"^self-link \(2, 2\) is not allowed$"),
    ])
    def test_first_bad_edge_in_input_order_is_reported(self, pairs, message):
        with pytest.raises(GraphValidationError, match=message):
            DirectedGraph(3, pairs)

    def test_integer_types_accepted(self):
        g = DirectedGraph(3, [(np.int64(0), np.int32(2)), (True, 2)])
        assert edge_list(g) == [(0, 2), (1, 2)]

    def test_duplicates_counted_by_graph(self):
        g = DirectedGraph(3, [(0, 1), (0, 1), (1, 2), (0, 1)],
                          duplicate_count=4)
        assert g.edge_count == 2
        assert g.duplicate_count == 6


class TestMeanOutDegree:
    def test_two_cycle(self):
        assert mean_out_degree(DirectedGraph(2, [(0, 1), (1, 0)])) == 1.0

    def test_directed_star(self, star4):
        assert mean_out_degree(star4) == pytest.approx(0.75)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            mean_out_degree(DirectedGraph(1, []))

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            mean_out_degree(DirectedGraph(0, []))


class TestSynthetic:
    def test_erdos_renyi_density_one_is_complete(self):
        g = erdos_renyi(10, 1.0, seed=1)
        assert g.edge_count == 90

    def test_erdos_renyi_density_zero_is_empty(self):
        g = erdos_renyi(100, 0.0, seed=1)
        assert g.edge_count == 0

    def test_preferential_attachment_bidirectional(self):
        g = preferential_attachment(1000, 3, seed=5)
        for u, v in edge_list(g):
            assert g.has_edge(v, u)

    def test_same_seed_same_graph(self):
        a = erdos_renyi(50, 0.1, seed=9)
        b = erdos_renyi(50, 0.1, seed=9)
        assert edge_list(a) == edge_list(b)
        c = preferential_attachment(50, 2, seed=9)
        d = preferential_attachment(50, 2, seed=9)
        assert edge_list(c) == edge_list(d)

    def test_different_seed_differs(self):
        a = erdos_renyi(50, 0.1, seed=1)
        b = erdos_renyi(50, 0.1, seed=2)
        assert edge_list(a) != edge_list(b)

    @pytest.mark.parametrize("kind,density", [("erdos-renyi", 0.15),
                                              ("preferential-attachment", 3)])
    def test_generated_graphs_satisfy_invariants(self, kind, density):
        make = {"erdos-renyi": erdos_renyi,
                "preferential-attachment": preferential_attachment}[kind]
        g = make(60, density, seed=3)
        for u, v in edge_list(g):
            assert u != v
            assert v in children(g, u) and u in parents(g, v)
        n = g.node_count
        assert g.edge_count == sum(len(children(g, u)) for u in range(n))
        assert g.edge_count == sum(len(parents(g, v)) for v in range(n))
        # adjacency implies edge membership too
        for u in range(n):
            for v in children(g, u):
                assert g.has_edge(u, v)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GraphValidationError):
            erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(GraphValidationError):
            erdos_renyi(10, 1.5, seed=0)
        with pytest.raises(GraphValidationError):
            preferential_attachment(5, 5, seed=0)
