"""The ``tables-full`` workload: the paper's Tables 3/4 as users compute them.

``run()`` (called by ``run.py``) starts one program process per set-up;
each builds the workload cold into an empty artifact cache. The last one
goes on to run the cold full-grid ``compute_suite`` — every checkpoint
directory empty, ``jobs`` = all cores — until the run's seconds would be
exceeded, at least once. The traced run instead runs one untraced and
one traced suite, the same way; the fork workers write their own spans
as they exit.

Run as a script it is that program process (``src`` on the path,
``REPRO_CACHE_DIR`` an empty directory) and writes its results to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import BENCH_DIR, child_env, quantile, recorded_digest
from spans import Tracer, install, layer_metrics, self_times, wrap_compute_suite

from repro.experiments.config import CACHE_CFA_GRID
from repro.experiments.harness import get_workload, training_profile
from repro.experiments.suite import compute_suite
from repro.serve.codec import result_digest, serialize_suite
from repro.tpcd.workload import WorkloadSettings

#: Suite worker processes: every core, as the table CLIs' ``--jobs 0``.
JOBS = os.cpu_count() or 1
#: Per-layer metrics of the service layer; the batch workload has none.
SERVE_LAYER = (
    "serve.upload_ms", "serve.submit_ms", "serve.poll_ms", "serve.metrics_ms",
    "serve.exec_s", "serve.queue_wait_s", "serve.dedupe_cache", "serve.dedupe_inflight",
    "serve.traces_stored", "serve.rejected_429",
)


# -- the program process ---------------------------------------------------


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _suite(workload, checkpoints: Path, jobs: int, manifest: Path, fn=compute_suite) -> dict:
    """One cold full-grid suite; checkpoints go to an empty directory."""
    os.environ["REPRO_CACHE_DIR"] = str(checkpoints)
    cpu0 = _cpu_seconds(resource.RUSAGE_SELF), _cpu_seconds(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    suite = fn(workload, CACHE_CFA_GRID, jobs=jobs, manifest=manifest)
    wall = time.perf_counter() - t0
    for worker in multiprocessing.active_children():
        worker.join()  # reaped workers count in RUSAGE_CHILDREN
    return {
        "wall_s": wall,
        "jobs": jobs,
        "cpu_parent_s": _cpu_seconds(resource.RUSAGE_SELF) - cpu0[0],
        "cpu_workers_s": _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu0[1],
        "digest": result_digest(serialize_suite(suite)),
        "manifest": json.loads(manifest.read_text()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--db-seed", type=int, required=True)
    parser.add_argument("--kernel-seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True, help="directory for checkpoints")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "suites", "traced"), default="setup")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None, help="trace and write spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans is not None:
        (args.work / "worker-spans").mkdir(parents=True)
        tracer = Tracer(worker_dir=args.work / "worker-spans")
    uninstall = install(tracer) if tracer is not None else None
    settings = WorkloadSettings(scale=args.scale, seed=args.db_seed, kernel_seed=args.kernel_seed)
    t0 = time.perf_counter()
    workload = get_workload(settings)
    training_profile(workload)
    out: dict = {"setup_s": time.perf_counter() - t0, "suites": []}
    out["test_trace"] = workload.test_trace.stats()

    if args.mode == "traced":
        uninstall()
        out["untraced"] = _suite(
            workload, args.work / "ck-untraced", JOBS, args.work / "untraced.manifest.json"
        )
        install(tracer)
        out["suites"].append(_suite(
            workload, args.work / "ck-traced", JOBS, args.work / "traced.manifest.json",
            fn=wrap_compute_suite(tracer, compute_suite),
        ))
    elif args.mode == "suites":
        start = time.perf_counter()
        while True:
            k = len(out["suites"])
            result = _suite(
                workload, args.work / f"ck-{k}", JOBS, args.work / f"suite-{k}.manifest.json"
            )
            out["suites"].append(result)
            if time.perf_counter() - start + result["wall_s"] > args.seconds:
                break
    if tracer is not None:
        tracer.dump(args.spans)
        out["spans"] = str(args.spans)
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    args.out.write_text(json.dumps(out))
    return 0


# -- the benchmark side ----------------------------------------------------


def program(work: Path, settings: WorkloadSettings, name: str, *extra: str) -> dict:
    """Run one program process with an empty artifact cache of its own."""
    out = work / f"{name}.json"
    cache = work / f"cache-{name}"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "tables_full.py"), "--scale", str(settings.scale),
         "--db-seed", str(settings.seed), "--kernel-seed", str(settings.kernel_seed),
         "--work", str(work / name), "--out", str(out), *extra],
        env=child_env(cache), check=True, timeout=175,
    )
    return json.loads(out.read_text())


def run(work: Path, settings: WorkloadSettings, seconds: float, trace: bool,
        setup_reps: int) -> dict:
    """One ``tables-full`` run; returns metrics and the accounting."""
    setups = []
    for rep in range(setup_reps - 1):
        setups.append(program(work, settings, f"setup-{rep}")["setup_s"])
    if trace:
        last = program(work, settings, "traced", "--mode", "traced",
                       "--spans", str(work / "spans.json"))
    else:
        last = program(work, settings, "suites", "--mode", "suites", "--seconds", str(seconds))
    setups.append(last["setup_s"])

    expected = recorded_digest(settings.scale, settings.seed)
    suites = last["suites"] + ([last["untraced"]] if trace else [])
    mismatches = []
    if expected is None:
        mismatches.append(f"no digest recorded for {settings.scale:g}/{settings.seed}")
    for suite in suites:
        if suite["digest"] != expected:
            mismatches.append(f"suite digest {suite['digest']} != recorded {expected}")
    # every task attempt is an operation; a retry is a failed attempt
    attempted = failed = 0
    for suite in suites:
        manifest = suite["manifest"]
        retries = sum(1 for e in manifest["events"] if e["type"] == "retry")
        task_failures = sum(1 for t in manifest["tasks"] if t["status"] != "completed")
        attempted += sum(t["attempts"] for t in manifest["tasks"]) + 1  # + the suite call
        failed += retries + task_failures + (manifest["status"] != "completed")
    out = {
        "setup_s": median(setups), "setup_samples": setups,
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "correct": not mismatches, "digest": suites[0]["digest"],
        "samples": {"suites": len(last["suites"]), "setups": len(setups)},
    }
    walls = [s["wall_s"] for s in last["suites"]]
    wall = median(walls)
    # One request, one job: the compute_suite call. The batch workload has
    # no request layer, so the job and request metrics repeat its wall time.
    out["end_to_end"] = {
        "setup_s": out["setup_s"],
        "wall_s": wall,
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": wall,
        "job_p75_s": quantile(walls, 0.75),
        "req_cycle_ms": 1000.0 * wall,
        "req_p99_ms": 1000.0 * quantile(walls, 0.99),
        "peak_rss_mb": last["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / attempted,
    }
    if trace:
        out["per_layer"] = _per_layer(last)
    return out


def _per_layer(last: dict) -> dict:
    spans = json.loads(Path(last["spans"]).read_text())
    layers = layer_metrics(spans)
    traced, untraced = last["suites"][0], last["untraced"]
    root = next(s for s in spans if s["name"] == "suite.compute")
    in_suite = [s for s in spans if s["start"] >= root["start"] and s is not root]
    own_cpu = self_times(spans, clock="cpu_")
    # engine CPU time (parent and workers) that no layer span covers
    covered = sum(own_cpu[s["id"]] for s in in_suite)
    busy = untraced["cpu_workers_s"] or untraced["cpu_parent_s"]
    layers.update({
        "tracestore.bytes": last["test_trace"]["bytes"],
        "tracestore.compression_ratio": last["test_trace"]["compression_ratio"],
        "suite.tasks": len(untraced["manifest"]["tasks"]),
        "suite.busy_s": busy,
        "suite.parallel_eff": busy / (untraced["wall_s"] * untraced["jobs"]),
        "suite.retries": sum(1 for e in untraced["manifest"]["events"] if e["type"] == "retry"),
        **{name: 0.0 for name in SERVE_LAYER},
        "trace.overhead_pct": 100.0 * (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"],
        "trace.unattributed_s": traced["cpu_parent_s"] + traced["cpu_workers_s"] - covered,
    })
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
