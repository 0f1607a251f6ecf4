"""Per-layer metrics of the traced run, and what each should move.

``PER_LAYER`` is the single list of layer metrics: name, unit, which is
better, the end-to-end metric it should move and the workload it is homed
on.  A workload that bypasses a layer reports that layer's metrics as 0.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, layer_of, self_seconds

_FIT, _SEL = "fit-pa1000", "select-pa2000"
_MC, _RANK = "mc-er50", "rank-pa1000"
_ALL = "every workload"


def _rows():
    rows = []
    for m in ("asic", "aslt"):
        rows.append((f"em.stats_s.{m}", "s", "lower", "learn_s", _FIT))
    for field, unit, better in (("iter_s", "s", "lower"),
                                ("iterations", "count", "lower"),
                                ("converged", "count", "higher")):
        for m in ("asic", "aslt"):
            for mode in ("shared", "per_link"):
                rows.append((f"em.{field}.{m}.{mode}", unit, better,
                             "learn_s", _FIT))
    rows += [
        ("em.fit_calls", "count", "lower", "select_topics_per_s", _SEL),
        ("em.fit_self_s", "s", "lower", "select_topics_per_s", _SEL),
        ("likelihood.h_calls", "count", "lower", "select_topics_per_s", _SEL),
        ("likelihood.h_s", "s", "lower", "select_topics_per_s", _SEL),
        ("select.select_model_s", "s", "lower", "select_topics_per_s", _SEL),
        ("select.cutoffs", "count", "higher", "select_topics_per_s", _SEL),
        ("select.skipped.asic", "count", "lower", "select_topics_per_s",
         _SEL),
        ("select.skipped.aslt", "count", "lower", "select_topics_per_s",
         _SEL),
        ("simulate.train_s", "s", "lower", "simulate_active_per_s", _FIT),
        ("simulate.active_nodes", "count", "higher", "simulate_active_per_s",
         _FIT),
        ("simulate.cascades", "count", "higher", "simulate_active_per_s",
         _FIT),
    ]
    for m in ("asic", "aslt"):
        rows.append((f"influence.mc_run_us.{m}", "us", "lower",
                     "mc_runs_per_s", _MC))
    for m in ("asic", "aslt"):
        rows.append((f"influence.percolation_world_ms.{m}", "ms", "lower",
                     "percolation_worlds_per_s", f"{_MC} and {_RANK}"))
    for c in ("outdegree", "closeness", "betweenness", "pagerank"):
        rows.append((f"centrality.{c}_s", "s", "lower",
                     "rank_centrality_s and peak_rss_mb", _RANK))
    rows += [
        ("graph.load_s", "s", "lower", "wall_s", _ALL),
        ("graph.loads", "count", "lower", "wall_s", _ALL),
        ("cascade.read_s", "s", "lower", "wall_s", _ALL),
        ("cascade.write_s", "s", "lower", "wall_s", _ALL),
        ("cli.overhead_s", "s", "lower", "wall_s", _ALL),
        ("trace.overhead_s", "s", "lower", "none (traced minus untraced "
         "wall_s)", _ALL),
    ]
    return rows


PER_LAYER = _rows()

# ROADMAP baseline table (shared 2-core VM, one perf_counter run, +-20%):
# (metric, scale to the ROADMAP unit, unit, case, ROADMAP figure).
ROADMAP_ROWS = {
    _FIT: [
        ("em.stats_s.asic", 1e3, "ms", "stats build, fit(max_iterations=1)",
         "69 ms (_AsicStats build)"),
        ("em.stats_s.aslt", 1e3, "ms", "stats build, fit(max_iterations=1)",
         "531 ms (_AsltStats build)"),
        ("em.iter_s.asic.shared", 1e3, "ms", "one E+M pass, asic shared",
         "1.1 ms (one E pass)"),
        ("fit_s.asic.shared", 1e3, "ms", "fit asic shared", "89 ms"),
        ("fit_s.asic.per_link", 1e3, "ms", "fit asic per-link", "256 ms"),
        ("fit_s.aslt.shared", 1e3, "ms", "fit aslt shared", "697 ms"),
        ("train_s.asic", 1e3, "ms", "generate_training_set asic K=10k",
         "35 ms"),
        ("train_s.aslt", 1e3, "ms", "generate_training_set aslt K=10k",
         "333 ms"),
    ],
    _SEL: [
        ("select_model_call_s", 1.0, "s", "select_model per call "
         "(C5 cascades; see events/topic)", "1.14 s (one 209-event cascade)"),
    ],
    _MC: [
        ("influence.mc_run_us.asic", 1.0, "us", "direct MC per run, asic",
         "6.6 us"),
        ("influence.mc_run_us.aslt", 1.0, "us", "direct MC per run, aslt",
         "16.5 us"),
        ("influence.percolation_world_ms.asic", 1.0, "ms",
         "percolation per world, n=50", "0.42 ms"),
    ],
    _RANK: [
        ("influence.percolation_world_ms.asic", 1.0, "ms",
         "percolation per world, n=1000, asic", "2.8 ms"),
        ("influence.percolation_world_ms.aslt", 1.0, "ms",
         "percolation per world, n=1000, aslt", "3.6 ms"),
        ("centrality.betweenness_s", 1.0, "s", "betweenness PA(1000,5)",
         "10.2 s"),
        ("centrality.outdegree_s", 1.0, "s", "outdegree", "-"),
        ("centrality.closeness_s", 1.0, "s", "closeness", "-"),
        ("centrality.pagerank_s", 1.0, "s", "pagerank", "-"),
    ],
}


def _pass_metrics(spans, own, run):
    """Layer figures of one traced pass."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, sp in enumerate(spans):
        if sp.run != run:
            continue
        a = sp.attrs
        layer_self[layer_of(sp.name)] += own[i]
        if sp.name == "graph.load":
            add("graph.load_s", sp.seconds)
            add("graph.loads", 1)
        elif sp.name == "cascade.read":
            add("cascade.read_s", sp.seconds)
        elif sp.name == "cascade.write":
            add("cascade.write_s", sp.seconds)
        elif sp.name == "simulate.train":
            add("simulate.train_s", sp.seconds)
            add(f"train_s.{a['model']}", sp.seconds)
            add("simulate.active_nodes", a["active"])
            add("simulate.cascades", a["cascades"])
        elif sp.name == "em.fit":
            add("em.fit_calls", 1)
            add("em.fit_self_s", own[i])
            if "mode" in a and spans[sp.parent].name == "cli.learn":
                add(f"fit_s.{a['model']}.{a['mode']}", sp.seconds)
        elif sp.name == "likelihood.h":
            add("likelihood.h_calls", 1)
            add("likelihood.h_s", sp.seconds)
        elif sp.name == "select.select_model":
            add("select.select_model_s", own[i])
            add("select_model_calls", 1)
            add("select_model_total_s", sp.seconds)
        elif sp.name == "influence.direct_mc":
            add(f"mc_s.{a['model']}", sp.seconds)
            add(f"mc_runs.{a['model']}", a["samples"] * a["nodes"])
        elif sp.name == "influence.percolation":
            add(f"perc_s.{a['model']}", sp.seconds)
            add(f"perc_worlds.{a['model']}", a["samples"])
        elif sp.name == "centrality":
            add(f"centrality.{a['metric']}_s", sp.seconds)
    add("cli.overhead_s", layer_self["cli"])
    for m in ("asic", "aslt"):
        if out.get(f"mc_runs.{m}"):
            out[f"influence.mc_run_us.{m}"] = (
                1e6 * out[f"mc_s.{m}"] / out[f"mc_runs.{m}"])
        if out.get(f"perc_worlds.{m}"):
            out[f"influence.percolation_world_ms.{m}"] = (
                1e3 * out[f"perc_s.{m}"] / out[f"perc_worlds.{m}"])
    if out.get("select_model_calls"):
        out["select_model_call_s"] = (out["select_model_total_s"]
                                      / out["select_model_calls"])
    out["layer_self"] = layer_self
    return out


def layer_metrics(tracer, traced_runs, observed, probe, walls):
    """Medians over the traced passes, plus counts read from the outputs.

    ``walls`` maps "traced"/"untraced" to the pass wall times of each mode;
    their median difference is the tracing overhead.
    """
    own = self_seconds(tracer.spans)
    per_pass = [_pass_metrics(tracer.spans, own, r) for r in traced_runs]
    keys = {k for p in per_pass for k in p if k != "layer_self"}
    values = {k: statistics.median(p.get(k, 0.0) for p in per_pass)
              for k in keys}
    layer_self = {layer: statistics.median(p["layer_self"][layer]
                                           for p in per_pass)
                  for layer in LAYERS}
    for key, n in observed.get("iterations", {}).items():
        values[f"em.iterations.{key}"] = n
        values[f"em.converged.{key}"] = observed["converged"][key]
        capped = probe.get(key)
        full = values.get(f"fit_s.{key}")
        if capped is not None and full is not None and n > 1:
            # (full fit - fit capped at one iteration) / (iterations - 1)
            values[f"em.iter_s.{key}"] = (full - capped) / (n - 1)
    for m in ("asic", "aslt"):
        if f"{m}.shared" in probe:
            values[f"em.stats_s.{m}"] = probe[f"{m}.shared"]
    if "cutoffs" in observed:
        values["select.cutoffs"] = observed["cutoffs"]
        for m, n in observed["skipped"].items():
            values[f"select.skipped.{m}"] = n
    values["trace.overhead_s"] = (statistics.median(walls["traced"])
                                  - statistics.median(walls["untraced"]))
    metrics = {name: float(values.get(name, 0.0)) for name, *_ in PER_LAYER}
    return metrics, values, layer_self
