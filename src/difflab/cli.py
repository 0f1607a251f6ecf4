"""Command-line interface: reproducible simulate / learn / select / rank runs.

Every command writes its outputs plus a manifest JSON sidecar recording the
resolved configuration, the seed, and digests of all input files.  Two runs
with identical manifests (ignoring the duration field) produce byte-identical
outputs.

Exit codes: 0 success, 1 parse or validation error, 2 usage error,
3 simulation progress failure, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .cascade import CascadeSet, read_cascades, write_cascades
from .centrality import METRICS, centrality, rank_by_score
from .em import EmConfig, fit, load_params, param_error, save_params
from .errors import DiffLabError, EstimationError, SimulationProgressError
from .graph import load_edge_list
from .influence import influence_direct_mc, influence_percolation
from .params import PER_LINK, SHARED, AsicParams, AsltParams, DelayMode
# ``select_model`` stays a module attribute: perfbench's tracer wraps it here.
from .select import select_model, select_topics  # noqa: F401
from .simulate import generate_training_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIMULATION = 3
EXIT_ESTIMATION = 4

_DELAY_FLAGS = {"link": DelayMode.LINK,
                "node-no": DelayMode.NODE_NON_OVERRIDE,
                "node-ov": DelayMode.NODE_OVERRIDE}


def _default_threads():
    env = os.environ.get("DIFFLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_path, command, config, seed, inputs, started):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {p: _digest(p) for p in inputs if p},
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh.read())


def _params_from_args(parser, args, model):
    if args.params:
        file_model, params = load_params(args.params)
        if file_model != model:
            parser.error(f"parameter file is for model {file_model!r}, "
                         f"but --model is {model!r}")
        return params
    if args.r is None:
        parser.error("either --params or --r is required")
    if model == "asic":
        if args.p is None:
            parser.error("--p is required for the asic model (or use --params)")
        return AsicParams.shared(args.p, args.r)
    if args.q is None:
        parser.error("--q is required for the aslt model (or use --params)")
    return AsltParams.shared(args.q, args.r)


# -- subcommands -----------------------------------------------------------


def _cmd_simulate(parser, args):
    started = time.monotonic()
    g = _load_graph(args.graph)
    delay = _DELAY_FLAGS[args.delay]
    params = _params_from_args(parser, args, args.model)
    data = generate_training_set(
        g, params, args.model, delay, args.target_active, args.min_len,
        args.seed, max_attempts=args.max_attempts,
        horizon_margin=args.horizon_margin)
    write_cascades(args.out, data)
    _write_manifest(args.out, "simulate", _config_dict(args), args.seed,
                    [args.graph, args.params], started)
    print(f"wrote {len(data)} cascades, {data.total_active} active nodes "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_learn(parser, args):
    started = time.monotonic()
    g = _load_graph(args.graph)
    data = read_cascades(args.cascades)
    mode = SHARED if args.mode == "shared" else PER_LINK
    config = EmConfig(init_p=args.init_p, init_q=args.init_q,
                      init_r=args.init_r, tolerance=args.tol,
                      max_iterations=args.max_iter, mode=mode)
    params, trace = fit(args.model, g, data, config)
    save_params(args.out, args.model, params, iterations=trace.iterations,
                loglik_value=trace.loglik[-1])
    sidecar = {
        "loglik": trace.loglik,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "untouched_links": trace.untouched_links,
    }
    if mode == SHARED:
        truth_strength = args.truth_p if args.model == "asic" else args.truth_q
        if truth_strength is not None:
            est = params.p if args.model == "asic" else params.q
            key = "E_p" if args.model == "asic" else "E_q"
            sidecar[key] = param_error(est, truth_strength)
        if args.truth_r is not None:
            sidecar["E_r"] = param_error(params.r, args.truth_r)
    with open(str(args.out) + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, "learn", _config_dict(args), None,
                    [args.graph, args.cascades], started)
    print(f"fit {args.model}/{args.mode}: iterations={trace.iterations} "
          f"converged={trace.converged} loglik={trace.loglik[-1]:.6f}")
    return EXIT_OK


def _cmd_select(parser, args):
    started = time.monotonic()
    g = _load_graph(args.graph)
    data = read_cascades(args.cascades)
    if args.topic_labels:
        with open(args.topic_labels, "r", encoding="utf-8") as fh:
            label_map = json.load(fh)
        topics = [label_map.get(cid, "default") for cid in data.ids]
        data = CascadeSet(data.cascades, data.ids, topics)
    config = EmConfig(tolerance=args.tol, max_iterations=args.max_iter)
    reports = []
    results = select_topics(g, dict(sorted(data.by_topic().items())), config)
    for topic, rep in results.items():
        if isinstance(rep, Exception):
            reports.append({"topic": topic, "skipped": True,
                            "reason": str(rep)})
            continue
        reports.append({
            "topic": rep.topic,
            "score_asic": rep.score_asic,
            "score_aslt": rep.score_aslt,
            "j": rep.j,
            "chosen": rep.chosen,
            "indeterminate": rep.indeterminate,
            "cutoffs": rep.cutoffs,
        })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, "select", _config_dict(args), None,
                    [args.graph, args.cascades, args.topic_labels], started)
    for rep in reports:
        tag = "skipped" if rep.get("skipped") else rep["chosen"]
        print(f"topic {rep['topic']}: {tag}")
    return EXIT_OK


def _influence_table(parser, args, g):
    params = _params_from_args(parser, args, args.model)
    if args.method == "percolation":
        return influence_percolation(g, args.model, params, args.samples,
                                     args.seed, threads=args.threads)
    return influence_direct_mc(g, args.model, params,
                               _DELAY_FLAGS[args.delay], args.samples,
                               args.seed, threads=args.threads)


def _cmd_influence(parser, args):
    started = time.monotonic()
    g = _load_graph(args.graph)
    table = _influence_table(parser, args, g)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("node,sigma,stderr\n")
        sigma, stderr = table.sigma.tolist(), table.stderr.tolist()
        for v in range(g.node_count):
            fh.write(f"{g.labels[v]},{sigma[v]!r},{stderr[v]!r}\n")
    _write_manifest(args.out, "influence", _config_dict(args), args.seed,
                    [args.graph, args.params], started)
    print(f"wrote influence table ({table.method}, {table.samples} samples) "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_rank(parser, args):
    started = time.monotonic()
    g = _load_graph(args.graph)
    if args.method in METRICS:
        ranked = centrality(g, args.method)
    else:
        table = _influence_table(parser, args, g)
        ranked = rank_by_score(table.sigma)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("rank,node,score\n")
        scores = ranked.scores.tolist()
        for rank, v in enumerate(ranked.order.tolist(), start=1):
            fh.write(f"{rank},{g.labels[v]},{scores[v]!r}\n")
    _write_manifest(args.out, "rank", _config_dict(args), args.seed,
                    [args.graph, args.params], started)
    print(f"wrote ranking ({args.method}) -> {args.out}")
    return EXIT_OK


def _read_ranked_csv(path):
    order = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("rank,"):
            raise DiffLabError(f"{path}: expected a 'rank,node,score' CSV")
        for line in fh:
            line = line.strip()
            if line:
                order.append(int(line.split(",")[1]))
    return order


def _cmd_compare_rank(parser, args):
    started = time.monotonic()
    truth = _read_ranked_csv(args.truth)
    cand = _read_ranked_csv(args.candidate)
    kmax = min(args.k, len(truth), len(cand))
    if kmax < 1:
        parser.error("rankings are empty")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,similarity\n")
        truth_set, cand_set = set(), set()
        ti, ci = iter(truth), iter(cand)
        for k in range(1, kmax + 1):
            truth_set.add(next(ti))
            cand_set.add(next(ci))
            fh.write(f"{k},{len(truth_set & cand_set) / k!r}\n")
    _write_manifest(args.out, "compare-rank", _config_dict(args), None,
                    [args.truth, args.candidate], started)
    print(f"wrote similarity curve (k=1..{kmax}) -> {args.out}")
    return EXIT_OK


def _config_dict(args):
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# -- parser -----------------------------------------------------------------


def _add_param_flags(sp):
    sp.add_argument("--p", type=float, help="shared diffusion probability")
    sp.add_argument("--q", type=float, help="shared weight coefficient")
    sp.add_argument("--r", type=float, help="shared delay rate")
    sp.add_argument("--params", help="JSON parameter file (overrides flags)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="difflab",
        description="Continuous-time information-diffusion toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate synthetic cascades")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--model", choices=("asic", "aslt"), required=True)
    sp.add_argument("--delay", choices=tuple(_DELAY_FLAGS), default="link")
    _add_param_flags(sp)
    sp.add_argument("--target-active", type=int, required=True,
                    help="stop once this many active nodes are collected")
    sp.add_argument("--min-len", type=int, default=10,
                    help="discard cascades shorter than this")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--max-attempts", type=int, default=100_000)
    sp.add_argument("--horizon-margin", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("learn", help="fit model parameters on cascades")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--cascades", required=True)
    sp.add_argument("--model", choices=("asic", "aslt"), required=True)
    sp.add_argument("--mode", choices=("shared", "per-link"),
                    default="shared")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--init-p", type=float, default=0.5)
    sp.add_argument("--init-q", type=float, default=0.5)
    sp.add_argument("--init-r", type=float, default=1.0)
    sp.add_argument("--truth-p", type=float, default=None,
                    help="report relative error against this true p")
    sp.add_argument("--truth-q", type=float, default=None)
    sp.add_argument("--truth-r", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_learn)

    sp = sub.add_parser("select", help="choose the better model per topic")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--cascades", required=True)
    sp.add_argument("--topic-labels", default=None,
                    help="JSON file mapping cascade id -> topic")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_select)

    sp = sub.add_parser("influence", help="estimate influence degrees")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--model", choices=("asic", "aslt"), required=True)
    sp.add_argument("--method", choices=("percolation", "mc"),
                    default="percolation")
    sp.add_argument("--delay", choices=tuple(_DELAY_FLAGS), default="link")
    _add_param_flags(sp)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--threads", type=int, default=_default_threads())
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_influence)

    sp = sub.add_parser("rank", help="rank nodes by influence or centrality")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--method",
                    choices=METRICS + ("percolation", "mc"), required=True)
    sp.add_argument("--model", choices=("asic", "aslt"), default="asic")
    sp.add_argument("--delay", choices=tuple(_DELAY_FLAGS), default="link")
    _add_param_flags(sp)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=_default_threads())
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_rank)

    sp = sub.add_parser("compare-rank",
                        help="top-k overlap curve of two rankings")
    sp.add_argument("--truth", required=True)
    sp.add_argument("--candidate", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_compare_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except SimulationProgressError as exc:
        print(f"simulation failed to make progress: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except DiffLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
