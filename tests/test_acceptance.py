"""Acceptance suite: ten gate criteria, one printed pass/fail line each.

Each criterion pins its full protocol (graphs, parameters, seeds, sample
counts, tolerances, runtime bounds) so the suite is deterministic.  Three
synthetic stand-in graphs are used, mirroring how the original experiments
ran on several networks of different density:

* recovery graph:  preferential attachment, n=1000, m=5  (dense, long runs)
* selection graph: preferential attachment, n=2000, m=3  (sparse, blog-like)
* ranking graph:   preferential attachment, n=300,  m=5  (small, fast MC)
"""

import math
import time

import numpy as np
import pytest

from difflab import (AsicParams, AsltParams, Cascade, DelayMode, EmConfig,
                     centrality, cumulative_influence, erdos_renyi, fit,
                     generate_training_set, influence_direct_mc,
                     influence_percolation, loglik, mean_out_degree,
                     param_error, preferential_attachment, rank_by_score,
                     ranking_similarity, select_topics)
from difflab.params import link_array
from difflab.rng import derive_rng

from oracles import (children, edge_list, loglik_asic_direct,
                     loglik_aslt_direct, parents, random_consistent_cascades)

LINK = DelayMode.LINK
P_TRUE = 0.1
Q_TRUE = 0.9
R_TRUE = 1.0

# Family-wise 3-sigma threshold for a 50-node comparison (Sidak): the max of
# 50 standard normals stays below this with the same confidence a single
# comparison has at 3 sigma.
Z_FAMILY_50 = 4.03


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {num:02d}: {status} — {detail}")
    return ok


@pytest.fixture(scope="module")
def recovery_graph():
    return preferential_attachment(1000, 5, 7)


@pytest.fixture(scope="module")
def selection_graph():
    return preferential_attachment(2000, 3, 11)


@pytest.fixture(scope="module")
def ranking_graph():
    return preferential_attachment(300, 5, 23)


def test_criterion_01_em_monotonicity():
    """Per-iteration log-likelihood never decreases (1e-9 relative slack),
    100 randomized instances per model, within 2 minutes."""
    started = time.monotonic()
    worst = math.inf
    violations = 0
    count = 0
    for model in ("asic", "aslt"):
        for i in range(100):
            rng = derive_rng(1, model, i)
            g = erdos_renyi(20, 0.15, (1, model, i))
            if model == "asic":
                params = AsicParams.shared(rng.uniform(0.2, 0.7),
                                           rng.uniform(0.5, 2.0))
            else:
                params = AsltParams.shared(rng.uniform(0.5, 0.95),
                                           rng.uniform(0.5, 2.0))
            data = generate_training_set(g, params, model, LINK, 60, 2,
                                         (1, model, i, "train"),
                                         max_attempts=100_000)
            _, trace = fit(model, g, data, EmConfig(max_iterations=25))
            ll = np.asarray(trace.loglik)
            slack = -1e-9 * np.abs(ll[:-1])
            margin = float((np.diff(ll) - slack).min())
            worst = min(worst, margin)
            violations += int(margin < 0)
            count += 1
    elapsed = time.monotonic() - started
    ok = count == 200 and violations == 0 and elapsed <= 120
    assert _report(1, ok, f"{count} instances, {violations} decreases, "
                          f"smallest margin {worst:.2e}, {elapsed:.0f}s "
                          f"(limit 120s)")


def _k_sweep(g, model, truth, strength_true, base_seed):
    """Mean recovery errors over 5 trials at K = 1000, 5000, 10000.

    Training sets grow by appending kept cascades, so larger K extends the
    smaller K set (the attempt stream is seed-indexed per trial)."""
    means = []
    for K in (1000, 5000, 10000):
        es, er = [], []
        for trial in range(5):
            data = generate_training_set(g, truth, model, LINK, K, 10,
                                         (base_seed, model, trial),
                                         max_attempts=1_000_000)
            fitted, _ = fit(model, g, data, EmConfig())
            est = fitted.p if model == "asic" else fitted.q
            es.append(param_error(est, strength_true))
            er.append(param_error(fitted.r, R_TRUE))
        means.append((float(np.mean(es)), float(np.mean(er))))
    return means


def test_criterion_02_asic_parameter_recovery(recovery_graph):
    """Shared-mode recovery of (p, r) = (0.1, 1.0): mean errors over 5
    trials within 0.10 / 0.07 / 0.05 at K = 1000 / 5000 / 10000 and
    strictly decreasing in K; within 5 minutes."""
    started = time.monotonic()
    truth = AsicParams.shared(P_TRUE, R_TRUE)
    means = _k_sweep(recovery_graph, "asic", truth, P_TRUE, 42)
    gates = (0.10, 0.07, 0.05)
    within = all(ep <= gate and er <= gate
                 for (ep, er), gate in zip(means, gates))
    decreasing = all(means[i][0] > means[i + 1][0]
                     and means[i][1] > means[i + 1][1] for i in range(2))
    elapsed = time.monotonic() - started
    detail = " ".join(f"K={k}: E_p={ep:.4f} E_r={er:.4f}"
                      for k, (ep, er) in zip((1000, 5000, 10000), means))
    ok = within and decreasing and elapsed <= 300
    assert _report(2, ok, f"{detail}; decreasing={decreasing}, "
                          f"{elapsed:.0f}s (limit 300s)")


@pytest.mark.slow
def test_criterion_03_aslt_parameter_recovery(recovery_graph):
    """Same protocol for the threshold model with (q, r) = (0.9, 1.0):
    mean E_q and E_r at K = 10000 within 0.07; within 5 minutes."""
    started = time.monotonic()
    truth = AsltParams.shared(Q_TRUE, R_TRUE)
    means = _k_sweep(recovery_graph, "aslt", truth, Q_TRUE, 42)
    eq, er = means[-1]
    elapsed = time.monotonic() - started
    ok = eq <= 0.07 and er <= 0.07 and elapsed <= 300
    detail = " ".join(f"K={k}: E_q={a:.4f} E_r={b:.4f}"
                      for k, (a, b) in zip((1000, 5000, 10000), means))
    assert _report(3, ok, f"{detail}; {elapsed:.0f}s (limit 300s)")


def test_criterion_04_single_sequence_learning(recovery_graph):
    """100 single cascades (length >= 10) per model: median errors within
    E_p 0.12 / E_r 0.15 (cascade model) and E_q 0.10 / E_r 0.25 (threshold
    model); within 5 minutes."""
    started = time.monotonic()
    results = {}
    for model, truth, s_true in (
            ("asic", AsicParams.shared(P_TRUE, R_TRUE), P_TRUE),
            ("aslt", AsltParams.shared(Q_TRUE, R_TRUE), Q_TRUE)):
        es, er = [], []
        for trial in range(100):
            data = generate_training_set(recovery_graph, truth, model, LINK,
                                         10, 10, (43, model, trial),
                                         max_attempts=1_000_000)
            fitted, _ = fit(model, recovery_graph, [data[0]], EmConfig())
            est = fitted.p if model == "asic" else fitted.q
            es.append(param_error(est, s_true))
            er.append(param_error(fitted.r, R_TRUE))
        results[model] = (float(np.median(es)), float(np.median(er)))
    elapsed = time.monotonic() - started
    (ep, er_ic), (eq, er_lt) = results["asic"], results["aslt"]
    ok = (ep <= 0.12 and er_ic <= 0.15 and eq <= 0.10 and er_lt <= 0.25
          and elapsed <= 300)
    assert _report(4, ok, f"asic medians E_p={ep:.4f} E_r={er_ic:.4f}; "
                          f"aslt medians E_q={eq:.4f} E_r={er_lt:.4f}; "
                          f"{elapsed:.0f}s (limit 300s)")


@pytest.mark.slow
def test_criterion_05_model_selection(selection_graph):
    """100 single-cascade trials per true model: overall accuracy >= 80%,
    and >= 85% among cascades with at least 20 active nodes; within 15
    minutes."""
    started = time.monotonic()
    config = EmConfig(max_iterations=100)
    topics = {}
    for truth_model in ("asic", "aslt"):
        params = (AsicParams.shared(P_TRUE, R_TRUE) if truth_model == "asic"
                  else AsltParams.shared(Q_TRUE, R_TRUE))
        for trial in range(100):
            data = generate_training_set(selection_graph, params, truth_model,
                                         LINK, 10, 10, (78, truth_model, trial),
                                         max_attempts=500_000)
            topics[(truth_model, trial)] = [data[0]]
    # Each trial is its own topic; the report equals select_model's on it.
    reports = select_topics(selection_graph, topics, config)
    rows = [(truth_model, len(data[0]),
             reports[truth_model, trial].chosen == truth_model)
            for (truth_model, trial), data in topics.items()]
    overall = sum(ok for _, _, ok in rows) / len(rows)
    long_rows = [ok for _, length, ok in rows if length >= 20]
    long_acc = sum(long_rows) / len(long_rows)
    per_model = {m: (sum(ok for mm, _, ok in rows if mm == m),
                     sum(1 for mm, _, _ in rows if mm == m))
                 for m in ("asic", "aslt")}
    elapsed = time.monotonic() - started
    ok = overall >= 0.80 and long_acc >= 0.85 and elapsed <= 900
    assert _report(5, ok,
                   f"overall {overall:.1%}, length>=20 {long_acc:.1%} "
                   f"({len(long_rows)} trials), per model "
                   f"asic {per_model['asic'][0]}/{per_model['asic'][1]} "
                   f"aslt {per_model['aslt'][0]}/{per_model['aslt'][1]}; "
                   f"{elapsed:.0f}s (limit 900s)")


def test_criterion_06_likelihood_oracle_equivalence():
    """Modular log-likelihood matches an independent direct transcription of
    the density/survival formulas on 1000 random small-graph instances to
    relative error 1e-12."""
    started = time.monotonic()
    rng = derive_rng(6, "oracle")
    checked = 0
    mismatches = 0

    def close(a, b):
        if math.isinf(b):
            return a == b
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    while checked < 1000:
        n = rng.randrange(2, 6)
        edges = sorted({(rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randrange(1, n * n))})
        edges = [(u, v) for u, v in edges if u != v]
        if not edges:
            continue
        from difflab import DirectedGraph
        g = DirectedGraph(n, edges)
        raw, event_dicts, horizons = random_consistent_cascades(
            g, rng, rng.randrange(1, 4))
        cascades = [Cascade(ev, hz) for ev, hz in raw]
        up = {v: parents(g, v) for v in range(n)}
        down = {v: children(g, v) for v in range(n)}
        p_map = {e: rng.uniform(0.05, 0.95) for e in edge_list(g)}
        r_map = {e: rng.uniform(0.2, 3.0) for e in edge_list(g)}
        asic = AsicParams.per_link(g, link_array(g, "p", p_map),
                                   link_array(g, "r", r_map))
        for mode in ("infinite", "finite"):
            got = loglik("asic", g, asic, cascades, horizon_mode=mode)
            want = loglik_asic_direct(up, down, event_dicts,
                                      lambda u, v: p_map[(u, v)],
                                      lambda u, v: r_map[(u, v)],
                                      horizon_mode=mode, horizons=horizons)
            mismatches += not close(got, want)
        q = rng.uniform(0.2, 1.0)
        r = rng.uniform(0.3, 2.0)
        aslt = AsltParams.shared(q, r)
        got = loglik("aslt", g, aslt, cascades)
        want = loglik_aslt_direct(up, down, event_dicts, horizons,
                                  lambda u, v: q / len(up[v]),
                                  lambda v: 1.0 - q if up[v] else 1.0,
                                  lambda u, v: r)
        mismatches += not close(got, want)
        checked += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0
    assert _report(6, ok, f"{checked} instances (both models, both horizon "
                          f"modes) at rel 1e-12, {mismatches} mismatches; "
                          f"{elapsed:.0f}s")


def test_criterion_07_stationarity_at_convergence():
    """At shared-mode convergence, central finite differences of the
    log-likelihood w.r.t. each shared parameter stay within 1e-3 |loglik|,
    20 instances per model."""
    started = time.monotonic()
    worst = 0.0
    violations = 0
    for model in ("asic", "aslt"):
        for i in range(20):
            rng = derive_rng(7, model, i)
            g = erdos_renyi(40, 0.1, (7, model, i))
            if model == "asic":
                truth = AsicParams.shared(rng.uniform(0.2, 0.5),
                                          rng.uniform(0.7, 1.5))
            else:
                truth = AsltParams.shared(rng.uniform(0.6, 0.9),
                                          rng.uniform(0.7, 1.5))
            data = generate_training_set(g, truth, model, LINK, 300, 3,
                                         (7, model, i, "train"),
                                         max_attempts=200_000)
            fitted, _ = fit(model, g, data,
                            EmConfig(max_iterations=3000, tolerance=1e-9))
            ll0 = loglik(model, g, fitted, data)
            for which in ("strength", "rate"):
                if model == "asic":
                    base = fitted.p if which == "strength" else fitted.r
                else:
                    base = fitted.q if which == "strength" else fitted.r
                step = 1e-5 * base
                vals = []
                for sign in (1, -1):
                    s = base + sign * step
                    if model == "asic":
                        pert = (AsicParams.shared(s, fitted.r)
                                if which == "strength"
                                else AsicParams.shared(fitted.p, s))
                    else:
                        pert = (AsltParams.shared(min(s, 1.0), fitted.r)
                                if which == "strength"
                                else AsltParams.shared(fitted.q, s))
                    vals.append(loglik(model, g, pert, data))
                grad = abs(vals[0] - vals[1]) / (2 * step)
                rel = grad / abs(ll0)
                worst = max(worst, rel)
                violations += int(rel > 1e-3)
    elapsed = time.monotonic() - started
    ok = violations == 0
    assert _report(7, ok, f"40 instances, max |grad|/|loglik| {worst:.2e} "
                          f"(gate 1e-3), {violations} violations; "
                          f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_influence_cross_check():
    """Percolation and direct-simulation influence degrees agree within
    Monte Carlo error on 5 random 50-node graphs (10,000 samples each,
    both models), and the direct estimate is invariant under a 10x delay
    rate; within 3 minutes.

    Per-graph gates: the mean influence degree within 3x the standard error
    of the mean (per-world correlation accounted for), and every node within
    the family-wise 3-sigma threshold for 50 simultaneous comparisons."""
    started = time.monotonic()
    worst_z = 0.0
    worst_mean_z = 0.0
    for i in range(5):
        g = erdos_renyi(50, 0.08, 100 + i)
        for model in ("asic", "aslt"):
            if model == "asic":
                params = AsicParams.shared(0.15, 1.0)
                params_fast = AsicParams.shared(0.15, 10.0)
            else:
                params = AsltParams.shared(0.6, 1.0)
                params_fast = AsltParams.shared(0.6, 10.0)
            perc = influence_percolation(g, model, params, 10_000,
                                         (200, i, model))
            mc = influence_direct_mc(g, model, params, LINK, 10_000,
                                     (300, i, model))
            mc_fast = influence_direct_mc(g, model, params_fast, LINK,
                                          10_000, (400, i, model))
            for a, b in ((perc, mc), (mc, mc_fast)):
                se = np.sqrt(a.stderr ** 2 + b.stderr ** 2)
                z = np.abs(a.sigma - b.sigma) / np.maximum(se, 1e-12)
                worst_z = max(worst_z, float(z.max()))
                mean_se = math.hypot(a.mean_stderr, b.mean_stderr)
                mean_z = abs(a.sigma.mean() - b.sigma.mean()) / max(mean_se,
                                                                    1e-12)
                worst_mean_z = max(worst_mean_z, float(mean_z))
    elapsed = time.monotonic() - started
    ok = (worst_z <= Z_FAMILY_50 and worst_mean_z <= 3.0
          and elapsed <= 180)
    assert _report(8, ok, f"max node z={worst_z:.2f} (family gate "
                          f"{Z_FAMILY_50}), max mean z={worst_mean_z:.2f} "
                          f"(gate 3.0); {elapsed:.0f}s (limit 180s)")


@pytest.mark.slow
def test_criterion_09_ranking_study(ranking_graph):
    """Rankings from the learned true model recover the true top-10 at
    least as well as every centrality baseline and as the wrong-model
    ranking, averaged over 5 trials (ground-truth influence from 10,000
    percolation worlds)."""
    started = time.monotonic()
    g = ranking_graph
    truth = AsicParams.shared(P_TRUE, R_TRUE)
    truth_rank = rank_by_score(
        influence_percolation(g, "asic", truth, 10_000, 61).sigma)
    baselines = {}
    for metric in ("outdegree", "closeness", "betweenness", "pagerank"):
        baselines[metric] = ranking_similarity(truth_rank,
                                               centrality(g, metric), 10)
    learned, wrong = [], []
    for trial in range(5):
        data = generate_training_set(g, truth, "asic", LINK, 3000, 10,
                                     (62, trial), max_attempts=1_000_000)
        fit_ic, _ = fit("asic", g, data, EmConfig())
        fit_lt, _ = fit("aslt", g, data, EmConfig())
        right = influence_percolation(g, "asic", fit_ic, 10_000, (63, trial))
        bad = influence_percolation(g, "aslt", fit_lt, 10_000, (64, trial))
        learned.append(ranking_similarity(truth_rank,
                                          rank_by_score(right.sigma), 10))
        wrong.append(ranking_similarity(truth_rank,
                                        rank_by_score(bad.sigma), 10))
    mean_learned = float(np.mean(learned))
    mean_wrong = float(np.mean(wrong))
    ok = (all(mean_learned >= b for b in baselines.values())
          and mean_learned >= mean_wrong)
    elapsed = time.monotonic() - started
    base_txt = " ".join(f"{k}={v:.2f}" for k, v in baselines.items())
    assert _report(9, ok, f"learned F(10)={mean_learned:.2f} >= "
                          f"wrong-model {mean_wrong:.2f} and baselines "
                          f"[{base_txt}]; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_behavioral_contrast(recovery_graph):
    """With strengths calibrated so both models carry total weight |V|
    (p = 1/mean-out-degree, full threshold weight), the cascade model's
    cumulative influence curve dominates the threshold model's above the
    90th percentile of the latter's influence degrees."""
    started = time.monotonic()
    g = recovery_graph
    p_cal = 1.0 / mean_out_degree(g)
    ic = influence_percolation(g, "asic", AsicParams.shared(p_cal, R_TRUE),
                               10_000, 51)
    lt = influence_percolation(g, "aslt", AsltParams.shared(1.0, R_TRUE),
                               10_000, 52)
    f_ic = cumulative_influence(ic)
    f_lt = cumulative_influence(lt)
    x90 = float(np.quantile(lt.sigma, 0.9))
    xs = np.unique(np.concatenate([ic.sigma, lt.sigma]))
    xs = xs[xs > x90]
    violations = [x for x in xs if f_ic(x) < f_lt(x)]
    elapsed = time.monotonic() - started
    ok = not violations and len(xs) > 0
    assert _report(10, ok, f"dominance above x90={x90:.2f} holds at "
                           f"{len(xs)} checkpoints "
                           f"(max sigma: cascade {ic.sigma.max():.0f}, "
                           f"threshold {lt.sigma.max():.0f}); {elapsed:.0f}s")
