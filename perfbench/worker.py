"""Benchmark child process: ``setup`` writes inputs, ``run`` times passes.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  ``run`` drives the
real CLI (``difflab.cli.main``) in this one process: a closed loop with one
client, each command starting when the previous one returns.  It writes a
JSON result file for the parent and never prints the result itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracing import Tracer

# A run never starts another pass past this point, whatever --seconds says,
# so that it ends well inside the 180 s a run may take.
HARD_STOP_S = 110.0


def _digests(root: Path) -> dict:
    """sha256 of every output; manifests without their ``duration_s``."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("duration_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
    return out


def _run_command(cli, argv, tracer, tag):
    """Run one CLI command; return (seconds, exit code)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span(f"cli.{argv[0]}", tag=tag):
                rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a failed command is counted, not fatal
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t0, rc


def _pass(cli, commands, tracer, checks):
    cmds = []
    t0 = time.perf_counter()
    for tag, argv in commands:
        seconds, rc = _run_command(cli, argv, tracer, tag)
        cmds.append({"tag": tag, "seconds": seconds, "rc": rc})
    wall = time.perf_counter() - t0
    for (tag, argv), c in zip(commands, cmds):
        manifest = Path(workloads.out_path(argv) + ".manifest.json")
        checks.check(c["rc"] == 0 and manifest.is_file(),
                     f"{tag}: exit code {c['rc']}, manifest "
                     f"{'written' if manifest.is_file() else 'missing'}")
    return {"wall": wall, "cmds": cmds}


def _em_probe(info):
    """Fit capped at one iteration: stats build plus one E/M pass.

    The stats build is not a public function, so ``em.stats_s`` is read off
    this capped fit (best of two), and the per-iteration cost off the
    difference to the full fit.
    """
    from difflab import EmConfig, fit, load_edge_list, read_cascades
    g = load_edge_list(Path(info["graph"]).read_text(encoding="utf-8"))
    probe = {}
    for model in workloads.MODELS:
        data = read_cascades(f"out/{model}.jsonl")
        for mode in workloads.MODES:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                fit(model, g, data, EmConfig(max_iterations=1, mode=mode))
                best = min(best, time.perf_counter() - t0)
            probe[f"{model}.{mode}"] = best
    return probe


def _import_cli(src):
    """Import the checkout's difflab, never an installed copy."""
    import difflab
    from difflab import cli
    found = Path(difflab.__file__).resolve().parent
    if found != Path(src).resolve():
        raise SystemExit(f"perfbench: imported difflab from {found}, "
                         f"expected {src}")
    return cli


def cmd_setup(args):
    # Set-up includes importing the program, which every CLI user pays.
    _import_cli(args.src)
    wl = workloads.make(args.workload, args.seed, args.scale)
    d = Path(args.dir)
    d.mkdir(parents=True, exist_ok=True)
    info = wl.setup(d)
    (d / "info.json").write_text(json.dumps(info, sort_keys=True))
    return 0


def cmd_run(args):
    cli = _import_cli(args.src)
    os.chdir(args.dir)
    Path("out").mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.scale)
    info = json.loads(Path("inputs/info.json").read_text())
    commands = wl.commands(info)
    checks = workloads.Checks()
    tracer = Tracer()
    phases = [("untraced", args.seconds / (2 if args.trace else 1))]
    if args.trace:
        phases.append(("traced", args.seconds / 2))
    min_passes = 1 if args.trace else 2
    started = time.perf_counter()
    passes = []
    for phase, budget in phases:
        if phase == "traced":
            tracer.install()
        t_phase = time.perf_counter()
        done = 0
        while True:
            tracer.run = len(passes)
            rec = _pass(cli, commands, tracer if phase == "traced" else None,
                        checks)
            rec["phase"] = phase
            rec["digests"] = _digests(Path("out"))
            passes.append(rec)
            done += 1
            now = time.perf_counter()
            # Stop once another pass would end nearer past the budget than
            # stopping now falls short of it.
            if done >= min_passes and (now - t_phase + rec["wall"] / 2
                                       >= budget
                                       or now - started >= HARD_STOP_S):
                break
        tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Outputs of every pass, traced or not, must equal the first pass's.
    first = passes[0]["digests"]
    for k, rec in enumerate(passes[1:], start=2):
        for name in sorted(set(first) | set(rec["digests"])):
            checks.check(first.get(name) == rec["digests"].get(name),
                         f"pass {k} ({rec['phase']}): {name} differs "
                         f"from pass 1")
    try:
        observed = wl.check(info, checks)
    except Exception as exc:  # noqa: BLE001 - unreadable output is a failure
        traceback.print_exc()
        checks.check(False, f"output check raised {exc!r}")
        observed = {}

    result = {
        "passes": [{k: v for k, v in p.items() if k != "digests"}
                   for p in passes],
        "peak_rss_kb": peak_rss_kb,
        "info": info,
        "observed": observed,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "command_metrics": {},
    }
    untraced = [p for p in passes if p["phase"] == "untraced"]
    try:
        result["command_metrics"] = wl.command_metrics(info, observed,
                                                       untraced)
    except (KeyError, ZeroDivisionError) as exc:
        print(f"perfbench: command metrics unavailable: {exc!r}",
              file=sys.stderr)
    if args.trace:
        probe = _em_probe(info) if "iterations" in observed else {}
        walls = {ph: [p["wall"] for p in passes if p["phase"] == ph]
                 for ph in ("traced", "untraced")}
        traced_runs = [i for i, p in enumerate(passes)
                       if p["phase"] == "traced"]
        metrics, values, layer_self = layers.layer_metrics(
            tracer, traced_runs, observed, probe, walls)
        result.update(layer_metrics=metrics, layer_values=values,
                      layer_self=layer_self, probe=probe)
        tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", default="")
    ap.add_argument("--result", default="")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        return cmd_setup(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
