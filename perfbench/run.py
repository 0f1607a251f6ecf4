"""difflab pipeline benchmark: four seeded workloads driven through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-pa1000 --seed 1 --seconds 25 \
        --trace 0

The run sets up its inputs from ``--seed`` several times (each time in a
fresh process that imports the program), then starts one fresh worker
process that repeats the workload's CLI commands for ``--seconds`` seconds,
always with ``--threads 1``.  It checks the outputs and prints a readable
report followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run times half its
passes untraced and half with spans around every layer call, and the
metrics are the per-layer ones.

Files: inputs and outputs live in ``.perfbench_work/`` and are removed at
the end; the report (and the spans of a traced run) are kept in
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _provenance(root: Path, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "git": _git_sha(root), "seed": seed,
            "parallelism": "one process, --threads 1; parallel scaling is "
                           "not measured (shared 2-core VM)"}


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(d.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(d)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _p90(values):
    """Nearest-rank 90th percentile (the maximum below ten samples)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _fmt(x):
    return f"{x:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES),
                    default="full", help="'smoke' runs minimal sizes")
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    src = root / "src" / "difflab"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no difflab sources at {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    work = (root / ".perfbench_work"
            / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), DIFFLAB_THREADS="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale, "--src", str(src)]
    worker = [sys.executable, str(HERE / "worker.py")]
    try:
        # Set-up: inputs from the seed, in a fresh process each time.
        setup_times, digests = [], []
        for i in range(SETUP_REPEATS):
            d = work / f"setup{i}"
            t0 = time.perf_counter()
            proc = subprocess.run(
                worker + ["setup", "--dir", str(d)] + common, env=env,
                timeout=DEADLINE_S - (time.monotonic() - started))
            setup_times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"perfbench: set-up failed (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
            digests.append(_tree_digest(d))
        (work / "setup0").rename(work / "inputs")

        result_path = work / "result.json"
        spans_path = out / f"{tag}.spans.jsonl"
        proc = subprocess.run(
            worker + ["run", "--dir", str(work), "--seconds",
                      str(args.seconds), "--trace", str(args.trace),
                      "--result", str(result_path), "--spans",
                      str(spans_path)] + common,
            env=env, stdout=subprocess.DEVNULL,
            timeout=DEADLINE_S - (time.monotonic() - started))
        if proc.returncode != 0 or not result_path.is_file():
            print(f"perfbench: worker failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = res["checks"]
    attempted = checks["attempted"] + 1
    failed = checks["failed"]
    failures = list(checks["failures"])
    if len(set(digests)) != 1:
        failed += 1
        failures.append("set-up: the same seed gave different inputs")

    prov = _provenance(root, args.seed)
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"trace={args.trace} scale={args.scale}",
             "provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()),
             f"why: {workloads.WORKLOADS[args.workload].why}"]
    untraced = [p["wall"] for p in res["passes"] if p["phase"] == "untraced"]
    lines.append(f"passes: {len(res['passes'])} "
                 f"({len(untraced)} untraced), closed loop, one client")
    lines.append(f"setup_s: median {_fmt(statistics.median(setup_times))} "
                 f"of {len(setup_times)} set-ups")
    lines.append(f"wall_s: median {_fmt(statistics.median(untraced))}, "
                 f"p90 {_fmt(_p90(untraced))} (n={len(untraced)})")
    for name, (values, unit, better) in res["command_metrics"].items():
        worst = (max if better == "lower" else min)(values)
        lines.append(f"{name}: median {_fmt(statistics.median(values))} "
                     f"{unit}, worst {_fmt(worst)} (n={len(values)})")
    for name, value in sorted(res["observed"].items()):
        lines.append(f"observed {name}: {value}")
    failed_frac = failed / attempted
    lines.append(f"failed_frac: {_fmt(failed_frac)} "
                 f"({failed} failed of {attempted} commands and checks)")
    lines += [f"FAILED: {msg}" for msg in failures]

    report = {"provenance": prov, "workload": args.workload,
              "setup_s": setup_times, "passes": res["passes"],
              "command_metrics": res["command_metrics"],
              "observed": res["observed"], "failures": failures,
              "attempted": attempted, "failed": failed}
    if args.trace:
        metrics = {name: {"value": res["layer_metrics"][name], "unit": unit}
                   for name, unit, *_ in layers.PER_LAYER}
        lines += _trace_lines(args.workload, res)
        report.update(layer_values=res["layer_values"],
                      layer_self=res["layer_self"], probe=res["probe"])
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": statistics.median(untraced),
                  "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    report["metrics"] = metrics
    (out / f"{tag}.report.json").write_text(json.dumps(report, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _trace_lines(workload, res):
    values = res["layer_values"]
    lines = ["self time per layer (median over traced passes):"]
    lines += [f"  {layer:<11} {_fmt(s)} s"
              for layer, s in res["layer_self"].items()]
    lines.append("per-layer metric -> end-to-end metric it should move, "
                 "on workload:")
    for name, unit, _, target, home in layers.PER_LAYER:
        lines.append(f"  {name} = {_fmt(res['layer_metrics'][name])} {unit}"
                     f" -> {target} on {home}")
    lines.append(f"tracing overhead: {_fmt(values['trace.overhead_s'])} s "
                 f"(traced minus untraced wall_s)")
    rows = layers.ROADMAP_ROWS.get(workload, ())
    if rows:
        lines.append("layer rows beside the ROADMAP baseline:")
    for key, scale, unit, case, figure in rows:
        if key in values:
            lines.append(f"  {case}: {_fmt(values[key] * scale)} {unit} "
                         f"(ROADMAP: {figure})")
    info = res["info"]
    if "events" in info:
        per_topic = info["events"] / info["topics"]
        lines.append(f"  events/topic: {_fmt(per_topic)}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
