import pickle

import numpy as np
import pytest

from difflab import (DirectedGraph, EdgeListParseError, GraphValidationError,
                     dumps_edge_list, erdos_renyi, generate_synthetic,
                     load_edge_list, mean_out_degree, preferential_attachment)


class TestLoadEdgeList:
    def test_basic_two_cycle(self):
        g = load_edge_list("0 1\n1 0\n")
        assert g.node_count == 2
        assert set(g.edges) == {(0, 1), (1, 0)}

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
        ext = {(g.labels[u], g.labels[v]) for u, v in g.edges}
        ext2 = {(g2.labels[u], g2.labels[v]) for u, v in g2.edges}
        assert ext == ext2


class TestDirectedGraph:
    def test_adjacency_consistency(self):
        g = DirectedGraph(4, [(0, 1), (0, 2), (1, 2), (3, 0)])
        for u, v in g.edges:
            assert v in g.out_adj[u]
            assert u in g.in_adj[v]
        assert sum(len(a) for a in g.out_adj) == g.edge_count
        assert sum(len(a) for a in g.in_adj) == g.edge_count

    def test_immutable(self):
        g = DirectedGraph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.node_count = 5

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphValidationError):
            DirectedGraph(2, [(0, 2)])

    def test_edge_id_round_trip(self):
        g = DirectedGraph(3, [(2, 0), (0, 1)])
        for i, e in enumerate(g.edges):
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
        edges = set(g.edges)
        assert any((v, u) not in edges for u, v in edges)
        for u, v in edges:
            assert g.has_edge(u, v)
            assert g.has_edge(v, u) == ((v, u) in edges)

    @pytest.mark.parametrize("g", [DirectedGraph(0, []), DirectedGraph(3, []),
                                   DirectedGraph(4, [(3, 0), (0, 2), (1, 2),
                                                     (0, 1), (2, 0)]),
                                   erdos_renyi(40, 0.1, seed=3),
                                   preferential_attachment(60, 2, seed=3)])
    def test_csr_index_matches_tuples(self, g):
        n, m = g.node_count, g.edge_count
        assert list(g.edges) == sorted(g.edges)
        assert g.edge_count == len(g.edges)
        for arr in (g.out_ptr, g.tails, g.heads, g.in_ptr, g.in_edges,
                    g.in_degree):
            assert arr.dtype == np.intp
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        assert len(g.out_ptr) == len(g.in_ptr) == n + 1
        assert list(zip(g.tails.tolist(), g.heads.tolist())) == list(g.edges)
        assert g.out_ptr[-1] == g.in_ptr[-1] == m
        for u in range(n):
            lo, hi = g.out_ptr[u], g.out_ptr[u + 1]
            assert tuple(g.heads[lo:hi].tolist()) == g.out_adj[u]
            assert set(g.tails[lo:hi].tolist()) <= {u}
        for v in range(n):
            ids = g.in_edges[g.in_ptr[v]:g.in_ptr[v + 1]]
            assert tuple(g.tails[ids].tolist()) == g.in_adj[v]
            assert set(g.heads[ids].tolist()) <= {v}
            assert g.in_degree[v] == len(g.in_adj[v])
        assert sorted(g.in_edges.tolist()) == list(range(m))

    def test_pickle_round_trip(self):
        g = DirectedGraph(5, [(4, 0), (0, 2), (1, 2), (0, 2), (2, 4)],
                          labels=[10, 11, 12, 13, 14])
        h = pickle.loads(pickle.dumps(g))
        assert h.edges == g.edges
        assert h.labels == g.labels
        assert h.duplicate_count == g.duplicate_count == 1
        assert h.out_adj == g.out_adj and h.in_adj == g.in_adj
        for name in ("out_ptr", "tails", "heads", "in_ptr", "in_edges",
                     "in_degree"):
            assert np.array_equal(getattr(h, name), getattr(g, name))
            assert not getattr(h, name).flags.writeable

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
        g = generate_synthetic("erdos-renyi", 10, 1.0, seed=1)
        assert g.edge_count == 90

    def test_erdos_renyi_density_zero_is_empty(self):
        g = generate_synthetic("erdos-renyi", 100, 0.0, seed=1)
        assert g.edge_count == 0

    def test_preferential_attachment_bidirectional(self):
        g = generate_synthetic("preferential-attachment", 1000, 3, seed=5)
        for u, v in g.edges:
            assert g.has_edge(v, u)

    def test_same_seed_same_graph(self):
        a = erdos_renyi(50, 0.1, seed=9)
        b = erdos_renyi(50, 0.1, seed=9)
        assert a.edges == b.edges
        c = preferential_attachment(50, 2, seed=9)
        d = preferential_attachment(50, 2, seed=9)
        assert c.edges == d.edges

    def test_different_seed_differs(self):
        a = erdos_renyi(50, 0.1, seed=1)
        b = erdos_renyi(50, 0.1, seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("kind,density", [("erdos-renyi", 0.15),
                                              ("preferential-attachment", 3)])
    def test_generated_graphs_satisfy_invariants(self, kind, density):
        g = generate_synthetic(kind, 60, density, seed=3)
        for u, v in g.edges:
            assert u != v
            assert v in g.out_adj[u] and u in g.in_adj[v]
        assert g.edge_count == sum(len(a) for a in g.out_adj)
        assert g.edge_count == sum(len(a) for a in g.in_adj)
        # adjacency implies edge membership too
        for u in range(g.node_count):
            for v in g.out_adj[u]:
                assert g.has_edge(u, v)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GraphValidationError):
            erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(GraphValidationError):
            erdos_renyi(10, 1.5, seed=0)
        with pytest.raises(GraphValidationError):
            preferential_attachment(5, 5, seed=0)
        with pytest.raises(GraphValidationError):
            generate_synthetic("tree", 5, 1, seed=0)
