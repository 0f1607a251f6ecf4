"""Smoke test of the benchmark itself, at minimal sizes.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Every workload runs once untraced and once traced at the ``smoke`` scale,
with all output checks.  Each run must exit 0, end its output with a JSON
line that reports ``correct: true`` and exactly the metrics (and units) that
``BENCHMARK.json`` lists.  Last, the benchmark is started in a directory that
holds only ``BENCHMARK.json`` and ``perfbench/``, where it must exit non-zero
without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(cwd, argv):
    return subprocess.run([sys.executable, "perfbench/run.py"] + argv,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS), "BENCHMARK.json workloads differ from the code"
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _run(root, ["--workload", name, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--scale", "smoke"])
            where = f"{name} trace={trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: checks failed\n"
                                + "\n".join(x for x in lines
                                            if x.startswith("FAILED")))
            if units != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(units)} differ "
                                f"from BENCHMARK.json")
            print(f"{where}: ok={len(problems) == before} attempted="
                  f"{result['attempted']} failed={result['failed']}",
                  flush=True)

    bare = root / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, ["--workload", "fit-pa1000", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("without src/ the benchmark did not fail cleanly")
        print(f"bare directory: exit {proc.returncode} (must be non-zero)")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
