"""Property tests on digraphs of at most 9 nodes: the EM statistics builder
against the reference loop, the first log-likelihood of a fit against the
direct transcription, the per-link threshold-model E and M passes against the
passes that list every never-active parent, and batched shared-mode fits
against solo fits."""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from difflab import (AsicParams, AsltParams, Cascade,  # noqa: E402
                     DelayMode, DirectedGraph, EmConfig, EstimationError,
                     fit, fit_batch)
from difflab.em import (_Links, _Stats, _aslt_e_per_link,  # noqa: E402
                        _aslt_m_per_link)

from oracles import (aslt_e_per_link_iblock,  # noqa: E402
                     aslt_m_per_link_iblock, em_stats_loop, loglik_direct,
                     random_consistent_cascades)
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


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(graphs_and_cascades(), st.sampled_from(["asic", "aslt"]),
                  st.sampled_from(["shared", "per_link"]),
                  st.sampled_from(["infinite", "finite"]))
def test_first_fit_loglik_equals_loglik(case, model, mode, horizon_mode):
    """The vectorised log-likelihood at a fit's start parameters equals the
    direct transcription's; a fit that fails has data of likelihood 0 or
    nothing to fit."""
    g, data = case
    config = EmConfig(max_iterations=1, mode=mode)
    cls = AsicParams if model == "asic" else AsltParams
    start = cls.shared(config.init_p if model == "asic" else config.init_q,
                       config.init_r)
    try:
        _, trace = fit(model, g, data, config, horizon_mode=horizon_mode)
    except EstimationError:
        want = loglik_direct(model, g, start, data, horizon_mode)
        assert want == -np.inf or all(
            t == c.initial_time for c in data for _, t in c.events)
        return
    if mode == "per_link":
        # A per-link fit starts from the shared start spread over the edges.
        start = cls.per_link(g, *start.edge_values(g, DelayMode.LINK))
    want = loglik_direct(model, g, start, data, horizon_mode)
    # Each cascade has at most one log term per event and one per edge;
    # terms that match to 1e-12 each do not give a relative bound on a
    # total near 0.
    terms = sum(len(c.events) + g.edge_count for c in data)
    assert trace.loglik[0] == pytest.approx(want, rel=1e-10,
                                            abs=1e-12 * terms)


@st.composite
def per_link_aslt_cases(draw):
    """Consistent cascades (cut to leave frontier nodes) and edge-indexed
    (q, r) with the corner cases of the never-active sums."""
    n = draw(st.integers(2, 9))
    links = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % n))
    g = DirectedGraph(n, draw(st.sets(links, min_size=n,
                                      max_size=n * (n - 1))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    raw, _, _ = random_consistent_cascades(g, rng, draw(st.integers(1, 4)))
    fractions = st.sampled_from([0.3, 0.6, 1.0])
    # A stretched horizon leaves every pending arrival long overdue.
    stretch = draw(st.sampled_from([1.0, 1e3]))
    data = [Cascade(ev, hz).truncated(hz * draw(fractions))
            for ev, hz in raw]
    data = [Cascade(c.events, c.horizon * stretch) for c in data]
    q = np.zeros(g.edge_count)
    for v in range(n):
        edges = g.in_edges[g.in_ptr[v]:g.in_ptr[v + 1]]
        kind = draw(st.sampled_from(["budget", "zeros", "random"]))
        if kind == "budget":
            # Multiples of 1/16 summing to exactly 1, some of them 0.
            parts = [rng.randrange(3) / 16 for _ in edges[1:]]
            weights = parts + [1.0 - sum(parts)]
        else:
            # The slack stays >= 0.1: with both slack and pending weight
            # near 0 a group's survival mass is an ulp-scale difference.
            weights = [rng.uniform(0.0, 0.9 / len(edges)) for _ in edges]
            if kind == "zeros":
                weights = [w if rng.random() < 0.5 else 0.0
                           for w in weights]
        q[edges] = weights
    # Delays far longer than any window, ordinary ones and very short ones.
    r = np.array([rng.choice([1e-6, rng.uniform(0.2, 3.0), 50.0])
                  for _ in range(g.edge_count)])
    return g, data, (q, r)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(per_link_aslt_cases())
def test_per_link_aslt_passes_match_never_active_block(case):
    g, data, theta = case
    stats = _Stats(g, data, "aslt")
    loop = em_stats_loop(g, data, "aslt")
    i_link, i_group = loop["i_link"], loop["i_group"]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want, want_ll, want_dens = aslt_e_per_link_iblock(
            stats, i_link, i_group, theta)
        got, got_ll, got_dens = _aslt_e_per_link(stats, _Links(stats), theta)
        # The never-active responsibilities
        _assert_close(theta[0][i_link] / got[4][i_group], want[3])
    for i in (0, 1, 2, 4):
        _assert_close(got[i], want[i])
    _assert_close(got_dens, want_dens)
    # A sum of logs of terms that match at rel 1e-12 matches to 1e-12 per
    # term; near 0 (survival masses of about 1) that is not a relative bound.
    np.testing.assert_allclose(got_ll[0], want_ll, rtol=1e-12,
                               atol=1e-12 * (len(got_dens) + len(got[4])))
    if not np.isfinite(want_ll) or not stats.n_groups:
        # A fit stops before the M pass; the earlier M pass also fails on
        # the integer-typed sums of an empty activation block.
        return
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want_theta = aslt_m_per_link_iblock(stats, i_link, want, theta)
        got_theta = _aslt_m_per_link(stats, _Links(stats), got, theta)
    _assert_close(got_theta[0], want_theta[0])
    _assert_close(got_theta[1], want_theta[1])


@st.composite
def batched_problems(draw):
    """Problems of one to three cascades on one digraph, some with a warm
    start, and a split of them, in random order, into batches."""
    g, data = draw(graphs_and_cascades())
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(st.integers(0, len(data) - 1), min_size=1,
                              max_size=3))
        start = draw(st.sampled_from([None, (0.3, 2.0), (0.9, 0.5)]))
        problems.append(([data[i] for i in picks], start))
    order = draw(st.permutations(range(len(problems))))
    cuts = sorted(draw(st.sets(st.integers(1, len(problems) - 1)))
                  if len(problems) > 1 else ())
    bounds = [0, *cuts, len(problems)]
    return g, problems, [order[a:b] for a, b in zip(bounds, bounds[1:])]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(batched_problems(), st.sampled_from(["asic", "aslt"]),
                  st.sampled_from(["infinite", "finite"]))
def test_batched_fit_equals_solo_fit(case, model, horizon_mode):
    g, problems, batches = case
    config = EmConfig(max_iterations=15)
    cls = AsicParams if model == "asic" else AsltParams
    starts = [None if s is None else cls.shared(*s) for _, s in problems]
    solo = [fit_batch(model, g, [data], config, [start],
                      horizon_mode=horizon_mode)[0]
            for (data, _), start in zip(problems, starts)]
    for batch in batches:
        got = fit_batch(model, g, [problems[b][0] for b in batch], config,
                        [starts[b] for b in batch], horizon_mode=horizon_mode)
        for b, result in zip(batch, got):
            want = solo[b]
            if isinstance(want, EstimationError):
                assert isinstance(result, EstimationError)
                assert str(result) == str(want)
            else:
                assert repr(result) == repr(want)
