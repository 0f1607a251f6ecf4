"""Property tests: the EM statistics builder against the reference loop
on digraphs of at most 9 nodes."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from difflab import Cascade, DirectedGraph  # noqa: E402

from oracles import random_consistent_cascades  # noqa: E402
from test_em import assert_stats_match_loop  # noqa: E402


@st.composite
def graphs_and_cascades(draw):
    n = draw(st.integers(2, 9))
    # (u, u + offset mod n) with offset in 1..n-1: every link but self-links
    links = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % n))
    g = DirectedGraph(n, draw(st.sets(links, min_size=n,
                                      max_size=n * (n - 1))))
    raw, _, _ = random_consistent_cascades(
        g, random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 4)))
    # Cutoffs leave frontier nodes behind, as select's truncations do; a
    # cutoff of 0 leaves an empty cascade.
    fractions = st.sampled_from([0.0, 0.3, 0.6, 1.0])
    data = [Cascade(ev, hz).truncated(hz * draw(fractions)) for ev, hz in raw]
    if draw(st.booleans()):
        # Arbitrary events on a coarse time grid: ties, simultaneous seeds
        # and zero-probability activations.
        nodes = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                              min_size=len(nodes), max_size=len(nodes)))
        data.insert(draw(st.integers(0, len(data))),
                    Cascade(list(zip(nodes, times)), 3.0))
    return g, data


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(graphs_and_cascades())
def test_stats_match_loop(case):
    for model in ("asic", "aslt"):
        assert_stats_match_loop(*case, model)
