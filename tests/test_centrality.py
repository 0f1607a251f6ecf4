import importlib

import numpy as np
import pytest

from difflab import (DirectedGraph, ParameterError, centrality, erdos_renyi,
                     preferential_attachment, rank_by_score,
                     ranking_similarity)
from difflab.centrality import (betweenness_scores, closeness_scores,
                                outdegree_scores, pagerank_scores)
from difflab.rng import derive_rng

from oracles import (betweenness_bruteforce, betweenness_dense,
                     closeness_bfs, closeness_dense, edge_list,
                     pagerank_sparse)

# The package re-exports the function ``centrality`` under the module's name.
centrality_module = importlib.import_module("difflab.centrality")


class TestOutdegree:
    def test_counts_children(self, star4):
        assert list(outdegree_scores(star4)) == [3.0, 0.0, 0.0, 0.0]


class TestCloseness:
    def test_directed_path(self, chain3):
        scores = closeness_scores(chain3)
        assert scores[0] == pytest.approx(2 / 3)
        assert scores[1] == pytest.approx(1 / ((3 + 1) / 2))

    def test_unreachable_counts_as_node_count(self):
        g = DirectedGraph(3, [(0, 1)])
        scores = closeness_scores(g)
        # node 0: distances 1 and 3 (surrogate) -> mean 2
        assert scores[0] == pytest.approx(0.5)


class TestBetweenness:
    def test_bidirectional_star_center(self):
        g = DirectedGraph(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])
        scores = betweenness_scores(g)
        assert scores[0] == pytest.approx(6.0)
        assert scores[1] == scores[2] == scores[3] == 0.0

    def test_matches_bruteforce_enumeration(self):
        rng = derive_rng(301, "btw")
        for trial in range(25):
            n = rng.randrange(3, 13)
            edges = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randrange(2, 3 * n))})
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = DirectedGraph(n, edges)
            want = betweenness_bruteforce(n, edges)
            got = betweenness_scores(g)
            assert np.allclose(got, want), (n, edges)

    def test_normalized_reading_matches_bruteforce(self):
        rng = derive_rng(302, "btw-norm")
        for trial in range(10):
            n = rng.randrange(3, 10)
            edges = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randrange(2, 3 * n))})
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = DirectedGraph(n, edges)
            want = betweenness_bruteforce(n, edges, normalized=True)
            got = betweenness_scores(g, normalized=True)
            assert np.allclose(got, want), (n, edges)


def _path(n):
    return DirectedGraph(n, [(i, i + 1) for i in range(n - 1)])


def _disconnected():
    """A random part, a directed cycle and an isolated node."""
    part = edge_list(erdos_renyi(30, 0.08, 304))
    cycle = [(30 + i, 30 + (i + 1) % 8) for i in range(8)]
    return DirectedGraph(39, list(part) + cycle)


SHAPES = {
    "er-sparse": lambda: erdos_renyi(150, 0.02, 305),
    "er-dense": lambda: erdos_renyi(80, 0.12, 306),
    "er-small": lambda: erdos_renyi(25, 0.2, 311),
    "pa": lambda: preferential_attachment(150, 3, 307),
    "path": lambda: _path(60),
    "out-star": lambda: DirectedGraph(9, [(0, v) for v in range(1, 9)]),
    "two-way-star": lambda: DirectedGraph(
        9, [e for v in range(1, 9) for e in ((0, v), (v, 0))]),
    "edgeless": lambda: DirectedGraph(6, []),
    "single-node": lambda: DirectedGraph(1, []),
    "disconnected": _disconnected,
}

# Small enough for shortest-path enumeration.
SMALL = ("er-small", "path", "out-star", "two-way-star", "edgeless",
         "single-node", "disconnected")


class TestAgainstDenseCode:
    """The blocked BFS against the earlier dense all-pairs code."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_raw_betweenness_identical(self, shape):
        g = SHAPES[shape]()
        want = betweenness_dense(g.node_count, edge_list(g))
        assert np.array_equal(betweenness_scores(g), want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_closeness_identical(self, shape):
        g = SHAPES[shape]()
        want = closeness_dense(g.node_count, edge_list(g))
        assert np.array_equal(closeness_scores(g), want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_normalized_betweenness(self, shape):
        g = SHAPES[shape]()
        got = betweenness_scores(g, normalized=True)
        want = betweenness_dense(g.node_count, edge_list(g), normalized=True)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if shape in SMALL:
            want = betweenness_bruteforce(g.node_count, edge_list(g),
                                          normalized=True)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


BLOCK_SHAPES = {
    "er": lambda: erdos_renyi(60, 0.04, 312),
    "pa": lambda: preferential_attachment(60, 2, 313),
    "path": lambda: _path(25),
    "disconnected": _disconnected,
}


class TestBlockSize:
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    @pytest.mark.parametrize("block", [1, 7])
    def test_scores_do_not_depend_on_block_size(self, monkeypatch, shape,
                                                block):
        g = BLOCK_SHAPES[shape]()
        want = (betweenness_scores(g), betweenness_scores(g, normalized=True),
                closeness_scores(g))
        per_source = (centrality_module._NODE_BYTES * g.node_count
                      + centrality_module._EDGE_BYTES * g.edge_count)
        monkeypatch.setattr(centrality_module, "_BLOCK_BYTES",
                            block * per_source)
        blocks = centrality_module._source_blocks(
            centrality_module._adjacency(g))
        assert max(hi - lo for lo, hi in blocks) == block
        got = (betweenness_scores(g), betweenness_scores(g, normalized=True),
               closeness_scores(g))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _two_parts(n):
    """Two random parts with no link between them, and two isolated nodes."""
    half = (n - 2) // 2
    first = edge_list(erdos_renyi(half, 4 / half, 314))
    second = edge_list(erdos_renyi(n - 2 - half, 4 / half, 315))
    return DirectedGraph(n, list(first)
                         + [(half + u, half + v) for u, v in second])


WORD_SHAPES = {
    "er": lambda n: erdos_renyi(n, 3 / n, 316 + n),
    "pa": lambda n: preferential_attachment(n, 2, 317 + n),
    "disconnected": _two_parts,
    "edgeless": lambda n: DirectedGraph(n, []),
}


class TestClosenessWords:
    """Closeness across 64-target word boundaries against a per-source BFS."""

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("shape", WORD_SHAPES)
    def test_matches_per_source_bfs(self, shape, n):
        g = WORD_SHAPES[shape](n)
        assert np.array_equal(closeness_scores(g),
                              closeness_bfs(n, edge_list(g)))

    def test_single_node(self):
        assert np.array_equal(closeness_scores(DirectedGraph(1, [])),
                              closeness_bfs(1, []))

    @pytest.mark.parametrize("shape", ["er", "pa", "disconnected"])
    @pytest.mark.parametrize("words", [1, 2])
    def test_scores_do_not_depend_on_word_block(self, monkeypatch, shape,
                                                words):
        g = WORD_SHAPES[shape](129)
        want = closeness_scores(g)
        per_word = 8 * (3 * g.node_count + g.edge_count)
        monkeypatch.setattr(centrality_module, "_BLOCK_BYTES",
                            words * per_word)
        blocks = centrality_module._word_blocks(g)
        assert len(blocks) == -(-3 // words)
        assert max(hi - lo for lo, hi in blocks) == words
        assert np.array_equal(closeness_scores(g), want)


def _nx_graph(nx, g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.node_count))
    G.add_edges_from(edge_list(g))
    return G


class TestNetworkx:
    @pytest.mark.parametrize("g", [preferential_attachment(300, 3, 308),
                                   erdos_renyi(200, 0.02, 309)],
                             ids=["pa", "er"])
    def test_normalized_betweenness(self, g):
        nx = pytest.importorskip("networkx")
        want = nx.betweenness_centrality(_nx_graph(nx, g), normalized=False)
        np.testing.assert_allclose(
            betweenness_scores(g, normalized=True),
            [want[v] for v in range(g.node_count)], rtol=1e-12, atol=0)

    def test_closeness_on_strongly_connected_graph(self):
        nx = pytest.importorskip("networkx")
        g = preferential_attachment(300, 3, 310)
        G = _nx_graph(nx, g)
        assert nx.is_strongly_connected(G)
        # networkx measures distance into a node; ours is out of it.
        want = nx.closeness_centrality(G.reverse())
        np.testing.assert_allclose(
            closeness_scores(g), [want[v] for v in range(g.node_count)],
            rtol=1e-12)


class TestPagerank:
    def test_symmetric_two_cycle(self):
        g = DirectedGraph(2, [(0, 1), (1, 0)])
        scores = pagerank_scores(g)
        assert scores == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_one(self):
        g = erdos_renyi(60, 0.06, 31)
        scores = pagerank_scores(g)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_relabeling_invariance(self):
        g = erdos_renyi(25, 0.15, 32)
        perm = list(range(25))
        derive_rng(33, "perm").shuffle(perm)
        g2 = DirectedGraph(25, [(perm[u], perm[v]) for u, v in edge_list(g)])
        s1 = pagerank_scores(g)
        s2 = pagerank_scores(g2)
        assert np.allclose(s1, s2[perm], atol=1e-8)

    def test_dangling_mass_handled(self, chain3):
        scores = pagerank_scores(chain3)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert (scores > 0).all()

    @pytest.mark.parametrize("g", [
        preferential_attachment(2000, 3, 1), erdos_renyi(300, 0.01, 2),
        erdos_renyi(50, 0.08, 3), DirectedGraph(4, [(0, 1), (0, 2), (2, 0)]),
        DirectedGraph(1, [])], ids=["pa", "er-sparse", "er", "dangling",
                                    "one-node"])
    def test_equals_sparse_matrix_iteration(self, g):
        assert np.array_equal(pagerank_scores(g),
                              pagerank_sparse(g.node_count, edge_list(g)))


class TestRankedList:
    def test_descending_with_id_tiebreak(self):
        ranked = rank_by_score([1.0, 3.0, 3.0, 0.5])
        assert list(ranked.order) == [1, 2, 0, 3]

    def test_centrality_dispatch(self, star4):
        ranked = centrality(star4, "outdegree")
        assert ranked.order[0] == 0
        with pytest.raises(ParameterError):
            centrality(star4, "eigenvector")


class TestRankingSimilarity:
    def test_partial_overlap(self):
        truth = rank_by_score([3.0, 2.0, 1.0, 0.5])   # a, b, c, d
        cand = rank_by_score([3.0, 0.5, 2.0, 1.0])    # a, c, d, b
        # top-3 sets {0,1,2} vs {0,2,3}
        assert ranking_similarity(truth, cand, 3) == pytest.approx(2 / 3)

    def test_identical_rankings(self):
        r = rank_by_score([5.0, 4.0, 1.0])
        for k in (1, 2, 3):
            assert ranking_similarity(r, r, k) == 1.0

    def test_disjoint_top_k(self):
        truth = rank_by_score([2.0, 1.0, 0.0, 0.0])
        cand = rank_by_score([0.0, 0.0, 1.0, 2.0])
        assert ranking_similarity(truth, cand, 2) == 0.0

    def test_k_out_of_range(self):
        r = rank_by_score([1.0, 0.5])
        with pytest.raises(ParameterError):
            ranking_similarity(r, r, 0)
        with pytest.raises(ParameterError):
            ranking_similarity(r, r, 3)
