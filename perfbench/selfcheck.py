"""Fast self-check of the benchmark: tiny scale, short runs (~1.5 min on 2 CPUs).

Usage (from the repository root): ``python3 perfbench/selfcheck.py``

Runs every workload untraced and traced at SF 0.0002 for a few seconds
and checks the result line against ``BENCHMARK.json``: exactly the four
keys, every metric of the run kind with its unit, a correct run with no
failed operation. Then copies ``BENCHMARK.json`` and ``perfbench/`` alone
into a scratch directory and checks that the benchmark refuses to run
there (non-zero exit, no result line). Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK

SCALE = "0.0002"
SECONDS = "4"


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    result = result_line(proc.stdout)
    if proc.returncode != 0 or result is None:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metric names/units differ: {sorted(set(got) ^ set(wanted))}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            problems.append(f"{label}: {name} = {metric['value']}")
        if not trace and metric["value"] == 0:
            problems.append(f"{label}: end-to-end {name} is 0")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, str(bare / BENCH_DIR.name / "run.py"),
                               "--workload", "tables-full", "--seed", "0", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_line(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
