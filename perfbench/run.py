"""The repository benchmark: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables-full --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload serve-upload --seed 3 --seconds 45 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``. Every
metric is printed as ``name value unit``, the run record (seed, machine,
versions, revision, sample counts) as one ``record`` line, and the last
line is the result object. The exit code is 1 when an output is wrong or
an operation failed, 2 when the program sources are missing.

See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time

from common import KERNEL_SEED, ROOT, SCALE, SETUP_REPS, SRC, WORK, db_seed, source_digest

WORKLOADS = ("tables-full", "serve-upload")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--holdout", action="store_true", help="use the held-out database seed (claim checks)"
    )
    parser.add_argument(
        "--scale", type=float, default=SCALE, help="TPC-D scale factor (self-check only)"
    )
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwind, so that the finally blocks stop and reap the program processes
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from repro.experiments.runlog import git_revision
    from repro.tpcd.workload import WorkloadSettings

    import serve_upload
    import tables_full

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    settings = WorkloadSettings(
        scale=args.scale, seed=db_seed(args.seed, args.holdout), kernel_seed=KERNEL_SEED
    )
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_reps = 1 if args.trace else SETUP_REPS
    started = time.time()
    try:
        if args.workload == "tables-full":
            result = tables_full.run(work, settings, args.seconds, bool(args.trace), setup_reps)
        else:
            result = serve_upload.run(
                work, settings, args.seed, args.seconds, bool(args.trace), setup_reps
            )
        if args.trace and result.get("per_layer"):
            shutil.copy(work / "spans.json", WORK / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result.get("per_layer" if args.trace else "end_to_end", {})
    metrics = {}
    for metric in wanted:
        if metric["name"] in measured:
            value = float(measured[metric["name"]])
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{metric['name']} {value:.6g} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "db_seed": settings.seed,
        "kernel_seed": settings.kernel_seed,
        "scale": settings.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "started_at": started,
        "samples": result.get("samples", {}),
        "setup_samples": result.get("setup_samples", []),
        "rss_samples": result.get("rss_samples", []),
        "mismatches": result.get("mismatches", []),
        "errors": result.get("errors", []),
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    with open(WORK / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = bool(result.get("correct")) and not missing
    for problem in result.get("mismatches", []) + result.get("errors", []):
        print(f"perfbench: {problem}", file=sys.stderr)
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 1)) or 1,
        "failed": int(result.get("failed", 0)),
        "metrics": metrics,
    }))
    return 0 if correct and not result.get("failed") else 1


if __name__ == "__main__":
    raise SystemExit(main())
