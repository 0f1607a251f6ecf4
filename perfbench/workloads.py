"""The four benchmark workloads: inputs, timed CLI commands and output checks.

Each workload writes its inputs under ``inputs/`` in set-up and lists the
CLI commands of one timed pass, all writing under ``out/``.  Paths are
relative to the run's work directory, so manifests do not name it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import inputs

SCALES = {
    "full": {
        "fit-pa1000": {"n": 1000, "m": 5, "target": 10_000, "min_len": 10},
        # Length strata (lo, hi) per model, ``per_stratum`` topics each.
        "select-pa2000": {"n": 2000, "m": 3, "per_stratum": 6,
                          "batch_active": 3000,
                          "strata": ((10, 12), (12, 14), (14, 17), (17, 20),
                                     (20, 24), (24, 28))},
        "mc-er50": {"graphs": 4, "n": 50, "p_edge": 0.08, "worlds": 750,
                    "samples": 750},
        "rank-pa1000": {"n": 1000, "m": 5, "worlds": 300, "k": 100},
    },
    "smoke": {
        "fit-pa1000": {"n": 200, "m": 3, "target": 400, "min_len": 5},
        "select-pa2000": {"n": 300, "m": 3, "per_stratum": 1,
                          "batch_active": 200,
                          "strata": ((10, 14),)},
        "mc-er50": {"graphs": 1, "n": 50, "p_edge": 0.08, "worlds": 200,
                    "samples": 200},
        "rank-pa1000": {"n": 150, "m": 3, "worlds": 40, "k": 20},
    },
}

MODELS = ("asic", "aslt")
MODES = ("shared", "per_link")
CENTRALITIES = ("outdegree", "closeness", "betweenness", "pagerank")
# Criterion 8's gates: family-wise 3-sigma over 50 nodes, and 3 sigma for
# the graph-mean influence degree.
Z_FAMILY_50 = 4.03
Z_MEAN = 3.0


class Checks:
    """Output checks; every failure is counted and described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _write(d: Path, name: str, text: str) -> str:
    (d / name).write_text(text, encoding="utf-8")
    return f"inputs/{name}"


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _float(text, defects):
    """Parse a CSV number, counting numpy reprs such as ``np.float64(2.5)``.

    With NumPy >= 2 the CLI's ``{value!r}`` writes that form into its
    influence and rank tables.  The value is still checked; the defect is
    counted and reported rather than failed, since no run could pass.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        defects["csv_numpy_repr_fields"] += 1
        text = text[len("np.float64("):-1]
    return float(text)


def out_path(argv):
    return argv[argv.index("--out") + 1]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.base = seed * 1000  # program --seed values derive from this

    def setup(self, d: Path) -> dict:
        """Write the inputs under ``d``; return what the commands need."""
        raise NotImplementedError

    def commands(self, info: dict) -> list:
        """(tag, argv) of one timed pass, in order."""
        raise NotImplementedError

    def check(self, info: dict, checks: Checks) -> dict:
        """Check the outputs of a pass; return counts read from them."""
        raise NotImplementedError

    def command_metrics(self, info, observed, passes) -> dict:
        """Per-pass values of this workload's command metrics."""
        raise NotImplementedError


def _seconds(p, prefix):
    return sum(c["seconds"] for c in p["cmds"] if c["tag"].startswith(prefix))


class FitWorkload(Workload):
    name = "fit-pa1000"
    why = ("PA(1000,5): simulate asic and aslt to K active nodes, then learn "
           "both models in shared and per-link mode; mostly em stats build "
           "and E/M passes")
    TRUTH = {"asic": ("--p", 0.1), "aslt": ("--q", 0.9)}

    def setup(self, d):
        s = self.size
        edges = inputs.preferential_attachment(
            s["n"], s["m"], inputs.rng_for(self.seed, self.name))
        graph = _write(d, "graph.txt", inputs.edge_list_text(
            edges, f"PA({s['n']},{s['m']}) seed {self.seed}"))
        return {"graph": graph}

    def commands(self, info):
        s = self.size
        cmds = []
        for i, model in enumerate(MODELS):
            flag, value = self.TRUTH[model]
            cmds.append((f"simulate.{model}", [
                "simulate", "--graph", info["graph"], "--model", model,
                flag, repr(value), "--r", "1.0",
                "--target-active", str(s["target"]),
                "--min-len", str(s["min_len"]),
                "--seed", str(self.base + i), "--out", f"out/{model}.jsonl"]))
        for model in MODELS:
            flag, value = self.TRUTH[model]
            for mode in MODES:
                argv = ["learn", "--graph", info["graph"],
                        "--cascades", f"out/{model}.jsonl", "--model", model,
                        "--mode", mode.replace("_", "-"),
                        "--out", f"out/learn_{model}_{mode}.json"]
                if mode == "shared":
                    argv += ["--truth-" + flag[2:], repr(value),
                             "--truth-r", "1.0"]
                cmds.append((f"learn.{model}.{mode}", argv))
        return cmds

    def check(self, info, checks):
        observed = {"active": {}, "cascades": {}, "iterations": {},
                    "converged": {}}
        for model in MODELS:
            lines = Path(f"out/{model}.jsonl").read_text().splitlines()
            active = sum(len(json.loads(x)["events"]) for x in lines if x)
            observed["active"][model] = active
            observed["cascades"][model] = len(lines)
            checks.check(active >= self.size["target"],
                         f"simulate {model}: {active} active nodes, "
                         f"target {self.size['target']}")
            for mode in MODES:
                key = f"{model}.{mode}"
                with open(f"out/learn_{model}_{mode}.json.trace.json") as fh:
                    trace = json.load(fh)
                ll = trace["loglik"]
                # Criterion 1's rule: no step down beyond 1e-9 relative.
                drops = [i for i in range(1, len(ll))
                         if ll[i] - ll[i - 1] < -1e-9 * abs(ll[i - 1])]
                checks.check(not drops and all(map(math.isfinite, ll)),
                             f"learn {key}: log-likelihood decreases at "
                             f"iterations {drops[:5]}")
                observed["iterations"][key] = trace["iterations"]
                observed["converged"][key] = int(trace["converged"])
        return observed

    def command_metrics(self, info, observed, passes):
        active = sum(observed["active"].values())
        return {
            "simulate_active_per_s": (
                [active / _seconds(p, "simulate.") for p in passes], "1/s",
                "higher"),
            "learn_s": ([_seconds(p, "learn.") for p in passes], "s",
                        "lower"),
        }


class SelectWorkload(Workload):
    name = "select-pa2000"
    why = ("PA(2000,3): one select over single C5 cascades of both models; "
           "hundreds of small warm-started finite-horizon fits plus h "
           "densities")

    def setup(self, d):
        from difflab import (AsicParams, AsltParams, CascadeSet, DelayMode,
                             generate_training_set, load_edge_list,
                             write_cascades)
        s = self.size
        edges = inputs.preferential_attachment(
            s["n"], s["m"], inputs.rng_for(self.seed, self.name))
        text = inputs.edge_list_text(
            edges, f"PA({s['n']},{s['m']}) seed {self.seed}")
        graph = _write(d, "graph.txt", text)
        g = load_edge_list(text)
        cascades, ids = [], []
        for model in MODELS:
            params = (AsicParams.shared(0.1, 1.0) if model == "asic"
                      else AsltParams.shared(0.9, 1.0))
            need = {st: s["per_stratum"] for st in s["strata"]}
            for batch in range(100):
                if not any(need.values()):
                    break
                # Criterion 5's draw is one run from a uniform seed node,
                # kept once it reaches 10 events; a training set with
                # min_len 10 is a stream of such draws from one table build.
                drawn = generate_training_set(
                    g, params, model, DelayMode.LINK, s["batch_active"], 10,
                    (self.seed, "select", model, batch),
                    max_attempts=1_000_000)
                for k, c in enumerate(drawn):
                    for (lo, hi), left in need.items():
                        if left and lo <= len(c) < hi:
                            need[(lo, hi)] -= 1
                            cascades.append(c)
                            ids.append(f"{model}-{batch}-{k}")
                            break
            if any(need.values()):
                raise RuntimeError(f"{model}: length strata not filled: "
                                   f"{need}")
        write_cascades(d / "topics.jsonl", CascadeSet(cascades, ids, ids))
        return {"graph": graph, "cascades": "inputs/topics.jsonl",
                "topics": len(cascades),
                "events": sum(len(c) for c in cascades)}

    def commands(self, info):
        return [("select", ["select", "--graph", info["graph"],
                            "--cascades", info["cascades"],
                            "--out", "out/select.json"])]

    def check(self, info, checks):
        with open("out/select.json") as fh:
            report = json.load(fh)
        checks.check(len(report) == info["topics"],
                     f"select: {len(report)} topics reported, "
                     f"{info['topics']} given")
        cutoffs = 0
        skipped = {m: 0 for m in MODELS}
        for row in report:
            checks.check(row.get("chosen") in MODELS,
                         f"select topic {row['topic']}: chose "
                         f"{row.get('chosen')!r} ({row.get('reason', '')})")
            for cut in row.get("cutoffs", ()):
                cutoffs += 1
                for m in MODELS:
                    skipped[m] += cut.get(f"h_{m}") is None
        return {"cutoffs": cutoffs, "skipped": skipped}

    def command_metrics(self, info, observed, passes):
        return {"select_topics_per_s": (
            [info["topics"] / _seconds(p, "select") for p in passes], "1/s",
            "higher")}


class McWorkload(Workload):
    name = "mc-er50"
    why = ("ER(50,0.08) graphs, C8 shape: influence by percolation and by "
           "direct MC for both models; per-world sparse build and the "
           "simulate event loop")
    PARAMS = {"asic": ["--p", "0.15", "--r", "1.0"],
              "aslt": ["--q", "0.6", "--r", "1.0"]}

    def setup(self, d):
        s = self.size
        graphs, nodes = [], []
        for i in range(s["graphs"]):
            edges = inputs.erdos_renyi(
                s["n"], s["p_edge"], inputs.rng_for(self.seed, self.name, i))
            graphs.append(_write(d, f"er{i}.txt", inputs.edge_list_text(
                edges, f"ER({s['n']},{s['p_edge']}) seed {self.seed} #{i}")))
            nodes.append(inputs.node_count(edges))
        return {"graphs": graphs, "nodes": nodes}

    def _argv(self, graph, model, method, samples, seed, out):
        return (["influence", "--graph", graph, "--model", model,
                 "--method", method] + self.PARAMS[model]
                + ["--samples", str(samples), "--seed", str(seed),
                   "--threads", "1", "--out", out])

    def commands(self, info):
        s = self.size
        cmds = []
        for i, graph in enumerate(info["graphs"]):
            for j, model in enumerate(MODELS):
                seed = self.base + 10 * i + 2 * j
                cmds.append((f"percolation.{model}", self._argv(
                    graph, model, "percolation", s["worlds"], seed,
                    f"out/perc_{i}_{model}.csv")))
                cmds.append((f"mc.{model}", self._argv(
                    graph, model, "mc", s["samples"], seed + 1,
                    f"out/mc_{i}_{model}.csv")))
        return cmds

    def check(self, info, checks):
        import numpy as np
        retests = 0
        defects = {"csv_numpy_repr_fields": 0}
        for i, graph in enumerate(info["graphs"]):
            n = info["nodes"][i]
            for model in MODELS:
                tables = []
                for kind in ("perc", "mc"):
                    rows = _read_table(f"out/{kind}_{i}_{model}.csv")
                    sigma = np.array([_float(r["sigma"], defects)
                                      for r in rows])
                    stderr = np.array([_float(r["stderr"], defects)
                                       for r in rows])
                    checks.check(
                        len(rows) == n and bool(np.all(sigma >= 1.0))
                        and bool(np.all(sigma <= n))
                        and bool(np.all(np.isfinite(stderr))),
                        f"{kind} graph {i} {model}: sigma outside [1, {n}] "
                        f"or non-finite stderr")
                    tables.append((sigma, stderr))
                ok = self._agree(graph, model, i, tables, checks)
                if not ok:
                    # A 3-sigma gate is crossed by chance in about one
                    # comparison in 100 to 200.  Re-test once on fresh,
                    # independent streams; a real disagreement fails both.
                    retests += 1
                    ok = self._agree(graph, model, i, None, checks,
                                     seed_offset=500)
                checks.check(ok, f"graph {i} {model}: percolation and direct "
                                 f"MC disagree under the C8 z-gates twice")
        return {"z_retests": retests, **defects}

    def _agree(self, graph, model, i, tables, checks, seed_offset=0):
        """C8's gates on one graph and model.

        The CSV lacks the percolation estimate's graph-mean standard error
        (it needs the per-world means), so the same call is repeated through
        the library, which must reproduce the CSV exactly.
        """
        import numpy as np
        from difflab import (AsicParams, AsltParams, DelayMode,
                             influence_direct_mc, influence_percolation,
                             load_edge_list)
        g = load_edge_list(Path(graph).read_text(encoding="utf-8"))
        params = (AsicParams.shared(0.15, 1.0) if model == "asic"
                  else AsltParams.shared(0.6, 1.0))
        seed = self.base + 10 * i + 2 * MODELS.index(model) + seed_offset
        perc = influence_percolation(g, model, params, self.size["worlds"],
                                     seed)
        if tables is None:
            mc = influence_direct_mc(g, model, params, DelayMode.LINK,
                                     self.size["samples"], seed + 1)
            b_sigma, b_stderr = mc.sigma, mc.stderr
        else:
            (a_sigma, a_stderr), (b_sigma, b_stderr) = tables
            checks.check(np.array_equal(perc.sigma, a_sigma)
                         and np.array_equal(perc.stderr, a_stderr),
                         f"graph {i} {model}: library percolation differs "
                         f"from the CLI's table")
        n = len(b_sigma)
        # Direct-MC runs are independent across nodes (influence.py).
        b_mean_se = math.sqrt(float((b_stderr ** 2).sum())) / n
        se = np.sqrt(perc.stderr ** 2 + b_stderr ** 2)
        z = np.abs(perc.sigma - b_sigma) / np.maximum(se, 1e-12)
        mean_z = abs(perc.sigma.mean() - b_sigma.mean()) / max(
            math.hypot(perc.mean_stderr, b_mean_se), 1e-12)
        return float(z.max()) <= Z_FAMILY_50 and mean_z <= Z_MEAN

    def command_metrics(self, info, observed, passes):
        s = self.size
        worlds = len(info["graphs"]) * len(MODELS) * s["worlds"]
        runs = sum(info["nodes"]) * len(MODELS) * s["samples"]
        return {
            "percolation_worlds_per_s": (
                [worlds / _seconds(p, "percolation.") for p in passes],
                "1/s", "higher"),
            "mc_runs_per_s": ([runs / _seconds(p, "mc.") for p in passes],
                              "1/s", "higher"),
        }


class RankWorkload(Workload):
    name = "rank-pa1000"
    why = ("PA(1000,5): rank by percolation for both models and by the four "
           "centralities, then compare-rank; dense betweenness and "
           "percolation at n=1000")

    def setup(self, d):
        s = self.size
        edges = inputs.preferential_attachment(
            s["n"], s["m"], inputs.rng_for(self.seed, self.name))
        graph = _write(d, "graph.txt", inputs.edge_list_text(
            edges, f"PA({s['n']},{s['m']}) seed {self.seed}"))
        n = inputs.node_count(edges)
        # Criterion 10's calibration: both models carry total weight |V|.
        return {"graph": graph, "nodes": n, "p": n / len(edges)}

    def commands(self, info):
        s = self.size
        strength = {"asic": ["--p", repr(info["p"])], "aslt": ["--q", "1.0"]}
        cmds = []
        for j, model in enumerate(MODELS):
            cmds.append((f"percolation.{model}", [
                "rank", "--graph", info["graph"], "--method", "percolation",
                "--model", model] + strength[model] + [
                "--r", "1.0", "--samples", str(s["worlds"]),
                "--seed", str(self.base + j), "--threads", "1",
                "--out", f"out/rank_percolation_{model}.csv"]))
        for metric in CENTRALITIES:
            cmds.append((f"centrality.{metric}", [
                "rank", "--graph", info["graph"], "--method", metric,
                "--out", f"out/rank_{metric}.csv"]))
        for cand in ("percolation_aslt",) + CENTRALITIES:
            cmds.append((f"compare.{cand}", [
                "compare-rank", "--truth", "out/rank_percolation_asic.csv",
                "--candidate", f"out/rank_{cand}.csv", "--k", str(s["k"]),
                "--out", f"out/compare_{cand}.csv"]))
        return cmds

    def check(self, info, checks):
        n = info["nodes"]
        labels = sorted(range(n))
        defects = {"csv_numpy_repr_fields": 0}
        for name in ("percolation_asic", "percolation_aslt") + CENTRALITIES:
            rows = _read_table(f"out/rank_{name}.csv")
            nodes = sorted(int(r["node"]) for r in rows)
            checks.check(nodes == labels,
                         f"rank {name}: not a permutation of all {n} nodes")
            if name.startswith("percolation"):
                scores = [_float(r["score"], defects) for r in rows]
                checks.check(all(1.0 <= x <= n for x in scores),
                             f"rank {name}: sigma outside [1, {n}]")
        for cand in ("percolation_aslt",) + CENTRALITIES:
            rows = _read_table(f"out/compare_{cand}.csv")
            checks.check(len(rows) == self.size["k"] and all(
                0.0 <= _float(r["similarity"], defects) <= 1.0 for r in rows),
                f"compare-rank {cand}: bad similarity curve")
        return defects

    def command_metrics(self, info, observed, passes):
        worlds = len(MODELS) * self.size["worlds"]
        return {
            "percolation_worlds_per_s": (
                [worlds / _seconds(p, "percolation.") for p in passes],
                "1/s", "higher"),
            "rank_centrality_s": (
                [_seconds(p, "centrality.") for p in passes], "s", "lower"),
        }


WORKLOADS = {w.name: w for w in (FitWorkload, SelectWorkload, McWorkload,
                                 RankWorkload)}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](seed, SCALES[scale][name])
