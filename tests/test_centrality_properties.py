"""Property tests: blocked-BFS centrality against brute force on small graphs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from difflab import DirectedGraph  # noqa: E402
from difflab.centrality import betweenness_scores, closeness_scores  # noqa: E402

from oracles import betweenness_bruteforce, closeness_bfs  # noqa: E402


@st.composite
def digraphs(draw, max_nodes=9):
    n = draw(st.integers(1, max_nodes))
    if n == 1:
        return 1, []
    # (u, u + offset mod n) with offset in 1..n-1: every link but self-links
    links = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % n))
    return n, sorted(draw(st.sets(links, max_size=n * (n - 1))))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(digraphs())
def test_matches_bruteforce(graph):
    n, edges = graph
    g = DirectedGraph(n, edges)
    assert np.array_equal(betweenness_scores(g),
                          betweenness_bruteforce(n, edges))
    np.testing.assert_allclose(betweenness_scores(g, normalized=True),
                               betweenness_bruteforce(n, edges,
                                                      normalized=True),
                               rtol=1e-12, atol=0)
    assert np.array_equal(closeness_scores(g), closeness_bfs(n, edges))
