import math
import os

import numpy as np
import pytest

from difflab import (AsicParams, AsltParams, DelayMode, DirectedGraph,
                     ParameterError, cumulative_influence, erdos_renyi,
                     influence_direct_mc, influence_percolation)
import difflab.influence as influence_mod
from difflab.influence import _block_reachable_sizes
from difflab.params import link_array
from difflab.rng import derive_generator, derive_rng

from oracles import (ClosureTables, edge_list, exact_sigma_asic,
                     exact_sigma_aslt, parents, percolation_per_world,
                     reachable_from, run_asic_closures, run_aslt_closures)

LINK = DelayMode.LINK


def _one_world(n, lu, lv):
    """Reachable sizes of a single live world, as a 1-D array."""
    world = np.zeros(len(lu), dtype=np.intp)
    return _block_reachable_sizes(n, 1, world, lu, lv)[0]


def _random_edges(rng, n, count):
    edges = sorted({(rng.randrange(n), rng.randrange(n))
                    for _ in range(count)})
    return [(u, v) for u, v in edges if u != v]


class TestReachableSizes:
    def test_matches_bruteforce_on_random_live_graphs(self):
        rng = derive_rng(201, "reach")
        for trial in range(150):
            n = rng.randrange(2, 40)
            edges = _random_edges(rng, n, rng.randrange(0, 3 * n))
            lu = np.asarray([u for u, _ in edges], dtype=np.intp)
            lv = np.asarray([v for _, v in edges], dtype=np.intp)
            sizes = _one_world(n, lu, lv)
            for s in range(n):
                assert sizes[s] == len(reachable_from(n, edges, s))

    def test_big_cycle_reaches_everything(self):
        n = 500
        lu = np.arange(n, dtype=np.intp)
        lv = (lu + 1) % n
        sizes = _one_world(n, lu, lv)
        assert (sizes == n).all()

    def test_block_of_worlds_matches_bruteforce_per_world(self):
        # Worlds with different edge counts, some with none at all, and
        # more than 64 nodes so bitsets span several words.
        rng = derive_rng(204, "block")
        n = 70
        counts = [0, 3 * n, 5, 0, n, 2 * n, 0, 1]
        worlds = [_random_edges(rng, n, c) for c in counts]
        world = np.asarray([w for w, edges in enumerate(worlds)
                            for _ in edges], dtype=np.intp)
        lu = np.asarray([u for edges in worlds for u, _ in edges],
                        dtype=np.intp)
        lv = np.asarray([v for edges in worlds for _, v in edges],
                        dtype=np.intp)
        sizes = _block_reachable_sizes(n, len(worlds), world, lu, lv)
        assert sizes.shape == (len(worlds), n)
        for w, edges in enumerate(worlds):
            for s in range(n):
                assert sizes[w, s] == len(reachable_from(n, edges, s))


class TestPercolation:
    @pytest.mark.parametrize("model, params, want", [
        ("asic", AsltParams.shared(0.9, 1.0), "AsicParams"),
        ("aslt", AsicParams.shared(0.9, 1.0), "AsltParams")])
    def test_params_of_the_other_model_refused(self, model, params, want):
        g = erdos_renyi(30, 0.1, 1)
        message = (f"the {model} model needs {want}, "
                   f"got {type(params).__name__}")
        with pytest.raises(ParameterError, match=message):
            influence_percolation(g, model, params, 20, 1)
        with pytest.raises(ParameterError, match=message):
            influence_direct_mc(g, model, params, LINK, 2, 1)

    def test_single_link_expectation(self, chain2):
        params = AsicParams.shared(0.5, 1.0)
        table = influence_percolation(chain2, "asic", params, 10_000, 3)
        se = math.sqrt(0.25 / 10_000)  # Bernoulli(0.5) variance
        assert abs(table.sigma[0] - 1.5) < 3 * se
        assert table.sigma[1] == 1.0

    def test_p_zero_exact(self, chain3):
        params = AsicParams.shared(0.0, 1.0)
        table = influence_percolation(chain3, "asic", params, 200, 3)
        assert (table.sigma == 1.0).all()
        assert (table.stderr == 0.0).all()

    def test_aslt_single_link_expectation(self, chain2):
        params = AsltParams.per_link(
            chain2, link_array(chain2, "q", {(0, 1): 0.3}),
            link_array(chain2, "r", {(0, 1): 1.0}))
        table = influence_percolation(chain2, "aslt", params, 10_000, 4)
        se = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(table.sigma[0] - 1.3) < 3 * se

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_matches_exact_enumeration_on_tiny_graphs(self, model):
        rng = derive_rng(202, model)
        for trial in range(4):
            n = 4
            edges = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(7)})
            edges = [(u, v) for u, v in edges if u != v][:6]
            if not edges:
                continue
            g = DirectedGraph(n, edges)
            if model == "asic":
                p_map = {e: rng.uniform(0.1, 0.7) for e in edge_list(g)}
                params = AsicParams.per_link(
                    g, link_array(g, "p", p_map),
                    link_array(g, "r", {e: 1.0 for e in edge_list(g)}))
                exact = exact_sigma_asic(n, edge_list(g),
                                         lambda u, v: p_map[(u, v)])
            else:
                q_map = {}
                for v in range(n):
                    up = parents(g, v)
                    if up:
                        share = rng.uniform(0.3, 0.9) / len(up)
                        for u in up:
                            q_map[(u, v)] = share
                if not q_map:
                    continue
                params = AsltParams.per_link(
                    g, link_array(g, "q", q_map),
                    link_array(g, "r", {e: 1.0 for e in edge_list(g)}))
                exact = exact_sigma_aslt(n, edge_list(g),
                                         lambda u, v: q_map[(u, v)])
            table = influence_percolation(g, model, params, 20_000,
                                          (203, trial))
            for v in range(n):
                tol = 3 * max(table.stderr[v], 1e-3)
                assert abs(table.sigma[v] - exact[v]) < tol

    def test_sigma_bounds(self):
        g = erdos_renyi(30, 0.1, 5)
        params = AsicParams.shared(0.3, 1.0)
        table = influence_percolation(g, "asic", params, 500, 6)
        assert (table.sigma >= 1.0).all()
        assert (table.sigma <= g.node_count).all()

    @pytest.mark.usefixtures("four_cpus")
    def test_deterministic_and_thread_invariant(self):
        g = erdos_renyi(25, 0.15, 8)
        params = AsicParams.shared(0.2, 1.0)
        a = influence_percolation(g, "asic", params, 300, 9)
        b = influence_percolation(g, "asic", params, 300, 9)
        assert (a.sigma == b.sigma).all()
        c = influence_percolation(g, "asic", params, 300, 9, threads=2)
        assert np.allclose(a.sigma, c.sigma, rtol=0, atol=1e-12)

    def test_monotone_in_p_with_common_random_numbers(self):
        g = erdos_renyi(40, 0.12, 10)
        sig = []
        for p in (0.05, 0.1, 0.2):
            params = AsicParams.shared(p, 1.0)
            sig.append(influence_percolation(g, "asic", params, 3000,
                                             11).sigma.mean())
        assert sig[0] < sig[1] < sig[2]


class TestPerWorldEquivalence:
    """The block solver reproduces the per-world loop bit for bit."""

    @staticmethod
    def _params(model):
        if model == "asic":
            return AsicParams.shared(0.3, 1.0)
        return AsltParams.shared(0.8, 1.0)

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.usefixtures("four_cpus")
    def test_matches_per_world_loop(self, model, threads):
        g = erdos_renyi(40, 0.1, 21)
        params = self._params(model)
        samples = 500  # not a multiple of the block size at n=40
        table = influence_percolation(g, model, params, samples, 22,
                                      threads=threads)
        # World means are summed in world order for any ``threads``, so
        # the reference is a single chunk holding every world.
        sigma, stderr, mean_se = percolation_per_world(
            g, model, params, samples,
            lambda w: derive_generator(22, "percolation", w), [(0, samples)])
        assert table.sigma.tobytes() == sigma.tobytes()
        assert table.stderr.tobytes() == stderr.tobytes()
        assert table.mean_stderr == mean_se

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.usefixtures("four_cpus")
    def test_mean_stderr_does_not_depend_on_threads(self, model):
        g = erdos_renyi(40, 0.1, 21)
        params = self._params(model)
        one = influence_percolation(g, model, params, 500, 22, threads=1)
        two = influence_percolation(g, model, params, 500, 22, threads=2)
        assert one.mean_stderr == two.mean_stderr

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_block_size_does_not_change_results(self, model, monkeypatch):
        g = erdos_renyi(40, 0.1, 23)
        params = self._params(model)
        base = influence_percolation(g, model, params, 101, 24)
        # One world per block, then a few worlds per block.
        for budget in (1, 40_000):
            monkeypatch.setattr(influence_mod, "_BLOCK_BYTES", budget)
            other = influence_percolation(g, model, params, 101, 24)
            assert other.sigma.tobytes() == base.sigma.tobytes()
            assert other.stderr.tobytes() == base.stderr.tobytes()
            assert other.mean_stderr == base.mean_stderr


class TestDirectMc:
    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.parametrize("delay", list(DelayMode))
    def test_matches_closure_loops(self, model, delay):
        g = erdos_renyi(15, 0.2, 25)
        params = TestPerWorldEquivalence._params(model)
        samples = 40
        table = influence_direct_mc(g, model, params, delay, samples, 26)
        tables = ClosureTables(g, model, params, delay)
        run = run_asic_closures if model == "asic" else run_aslt_closures
        for v in range(g.node_count):
            rng = derive_rng(26, "direct-mc", v)
            tot = 0.0
            tot_sq = 0.0
            for _ in range(samples):
                size = len(run(tables, delay, [v], rng))
                tot += size
                tot_sq += size * size
            mean = tot / samples
            var = max(tot_sq / samples - mean * mean, 0.0)
            assert table.sigma[v] == mean
            assert table.stderr[v] == math.sqrt(var / samples)


    def test_p_zero_exact(self, chain3):
        params = AsicParams.shared(0.0, 1.0)
        table = influence_direct_mc(chain3, "asic", params, LINK, 50, 3)
        assert (table.sigma == 1.0).all()

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    def test_agrees_with_percolation(self, model):
        g = erdos_renyi(25, 0.15, 12)
        if model == "asic":
            params = AsicParams.shared(0.2, 1.0)
        else:
            params = AsltParams.shared(0.7, 1.0)
        perc = influence_percolation(g, model, params, 4000, 13)
        mc = influence_direct_mc(g, model, params, LINK, 4000, 14)
        gap = np.abs(perc.sigma - mc.sigma)
        tol = 3 * np.sqrt(perc.stderr**2 + mc.stderr**2) + 1e-9
        assert (gap <= tol).all()

    def test_rate_invariance(self):
        g = erdos_renyi(20, 0.18, 15)
        base = influence_direct_mc(g, "asic", AsicParams.shared(0.25, 1.0),
                                   LINK, 4000, 16)
        fast = influence_direct_mc(g, "asic", AsicParams.shared(0.25, 10.0),
                                   LINK, 4000, 17)
        gap = np.abs(base.sigma - fast.sigma)
        tol = 3 * np.sqrt(base.stderr**2 + fast.stderr**2) + 1e-9
        assert (gap <= tol).all()

    @pytest.mark.usefixtures("four_cpus")
    def test_thread_invariant(self):
        g = erdos_renyi(12, 0.2, 18)
        params = AsicParams.shared(0.3, 1.0)
        a = influence_direct_mc(g, "asic", params, LINK, 200, 19)
        b = influence_direct_mc(g, "asic", params, LINK, 200, 19, threads=3)
        assert np.allclose(a.sigma, b.sigma, rtol=0, atol=1e-12)

    def test_invalid_samples_rejected(self, chain2):
        with pytest.raises(ParameterError):
            influence_direct_mc(chain2, "asic", AsicParams.shared(0.5, 1.0),
                                LINK, 0, 1)


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and
    runs each call in this process, so no worker process starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future
        fut = Future()
        fut.set_result(fn(*args))
        return fut


class TestPoolSize:
    """The pool gets min(threads, CPU count, number of ranges) workers."""

    @pytest.fixture
    def pool(self, monkeypatch):
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        from concurrent.futures import ProcessPoolExecutor
        assert ProcessPoolExecutor is _RecordingPool  # nothing can start
        return _RecordingPool

    @pytest.mark.parametrize("threads, cpus, want", [
        (64, 2, [2]), (3, 64, [3]), (64, 64, [6]), (2, 1, [])])
    def test_direct_mc(self, pool, monkeypatch, threads, cpus, want):
        # Six nodes make six ranges: the pool is capped by the work too.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        g = erdos_renyi(6, 0.3, 23)
        params = AsicParams.shared(0.4, 1.0)
        one = influence_direct_mc(g, "asic", params, LINK, 5, 24)
        got = influence_direct_mc(g, "asic", params, LINK, 5, 24,
                                  threads=threads)
        assert pool.sizes == want
        assert got.sigma.tobytes() == one.sigma.tobytes()

    def test_percolation(self, pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        g = erdos_renyi(10, 0.2, 25)
        params = AsltParams.shared(0.7, 1.0)
        one = influence_percolation(g, "aslt", params, 3, 26)
        got = influence_percolation(g, "aslt", params, 3, 26, threads=64)
        assert pool.sizes == [2]
        assert got.sigma.tobytes() == one.sigma.tobytes()
        assert got.mean_stderr == one.mean_stderr

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused(self, pool, chain2, threads):
        params = AsicParams.shared(0.5, 1.0)
        with pytest.raises(ParameterError, match="threads must be at least"):
            influence_percolation(chain2, "asic", params, 10, 1,
                                  threads=threads)
        with pytest.raises(ParameterError, match="threads must be at least"):
            influence_direct_mc(chain2, "asic", params, LINK, 10, 1,
                                threads=threads)
        assert pool.sizes == []


class TestCumulativeInfluence:
    def test_counting(self):
        f = cumulative_influence(
            type("T", (), {"sigma": np.array([1.0, 2.0, 3.0])})())
        assert f(2.0) == pytest.approx(2 / 3)
        assert f(0.0) == 1.0
        assert f(4.0) == 0.0

    def test_non_increasing(self):
        rng = derive_generator(20, "cum")
        sigma = 1.0 + 10 * rng.random(50)
        f = cumulative_influence(type("T", (), {"sigma": sigma})())
        xs = np.linspace(0, 12, 100)
        vals = [f(x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
