"""Performance smoke benchmark: suite wall-clock and simulator throughput.

Runs the evaluation suite once (uncached), once again resuming from the
per-task checkpoints the first run wrote (the warm-resume path a crashed
run takes), plus the individual simulator hot paths on a small workload,
and records the numbers — including the run's cache hit/miss counters,
the on-disk trace-format footprint/decode throughput, and the process's
peak RSS — to ``BENCH_suite.json`` at the repo root so regressions show
up in review.

Run: ``PYTHONPATH=src python benchmarks/perf_smoke.py [--scale 0.001] [--jobs N]``
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import time

from repro.cache import default_cache
from repro.experiments.config import KB, PRIMARY_ROWS
from repro.experiments.harness import get_workload, layouts_for, resolve_jobs
from repro.experiments.suite import compute_suite
from repro.profiling import TraceStore
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheStream,
    miss_counter,
    run_fused,
)
from repro.tpcd.workload import WorkloadSettings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    """Lifetime peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _TimedFeed:
    """Wrap a miss counter, accounting its feed() time and line count.

    Lets one streaming pass report the fetch unit and the i-cache model
    separately without ever materializing the full line stream (which at
    SF 0.01 would be gigabytes — exactly what the pipeline avoids).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.n_lines = 0

    def feed(self, lines) -> None:
        t0 = time.perf_counter()
        self.inner.feed(lines)
        self.seconds += time.perf_counter() - t0
        self.n_lines += int(lines.size)


def _trace_format_stats(trace, n_instructions: int) -> dict | None:
    """On-disk footprint and streaming decode throughput of a stored trace."""
    if not isinstance(trace, TraceStore):
        return None
    stats = trace.stats()
    t0 = time.perf_counter()
    for _window, _nxt in trace.iter_events():
        pass
    decode_s = time.perf_counter() - t0
    return {
        "bytes": stats["bytes"],
        "raw_bytes": stats["raw_bytes"],
        "compression_ratio": round(stats["compression_ratio"], 3),
        "n_chunks": stats["n_chunks"],
        "chunk_events": stats["chunk_events"],
        "decode_seconds": round(decode_s, 3),
        "decode_minstr_per_s": round(n_instructions / decode_s / 1e6, 3) if decode_s else 0.0,
    }


def _measure(scale: float, jobs: int) -> dict:
    """One full measurement pass at ``scale``: suite, resume, hot paths."""
    t0 = time.perf_counter()
    workload = get_workload(WorkloadSettings(scale=scale))
    workload_s = time.perf_counter() - t0

    grid = PRIMARY_ROWS
    cache = default_cache()
    cache.clear("suite-task")  # make the first suite run genuinely cold
    stats0 = cache.stats.snapshot()
    t0 = time.perf_counter()
    suite = compute_suite(workload, grid, progress=True, jobs=jobs)
    suite_s = time.perf_counter() - t0

    # warm resume: every task checkpointed above, so this is load + assembly
    t0 = time.perf_counter()
    compute_suite(workload, grid, jobs=jobs)
    resume_s = time.perf_counter() - t0
    cache_delta = cache.stats.delta(stats0)

    # one streaming pass measures the fetch unit and the i-cache model
    # separately (the counter's feed time is accounted by the shim); no
    # full-trace line stream is ever held in memory
    layout = layouts_for(workload, grid[0][0], grid[0][1], names=("orig",))["orig"]
    timed = _TimedFeed(miss_counter(CacheConfig(size_bytes=grid[0][0] * KB)))
    fetch = FetchStream(layout.name, consumers=[timed])
    t0 = time.perf_counter()
    run_fused(workload.test_trace, workload.program, [(layout, fetch)])
    fetch_s = time.perf_counter() - t0 - timed.seconds
    icache_s = timed.seconds
    n_lines = timed.n_lines
    n_instructions = fetch.n_instructions

    tc_stream = TraceCacheStream(layout.name)
    t0 = time.perf_counter()
    run_fused(workload.test_trace, workload.program, [(layout, tc_stream)])
    tc_s = time.perf_counter() - t0

    return {
        "scale": scale,
        "jobs": jobs,
        "grid_rows": len(grid),
        "n_instructions": n_instructions,
        "workload_seconds": round(workload_s, 3),
        "suite_seconds": round(suite_s, 3),
        "suite_resume_seconds": round(resume_s, 3),
        "cache_stats": cache_delta,
        "fetch_seconds": round(fetch_s, 3),
        "fetch_minstr_per_s": round(n_instructions / fetch_s / 1e6, 3),
        "icache_seconds": round(icache_s, 3),
        "icache_mlines_per_s": round(n_lines / icache_s / 1e6, 3),
        "trace_cache_seconds": round(tc_s, 3),
        "trace_cache_minstr_per_s": round(n_instructions / tc_s / 1e6, 3),
        "suite_n_instructions": suite.n_instructions,
        "trace_format": _trace_format_stats(workload.test_trace, n_instructions),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.001)
    parser.add_argument(
        "--scale-up",
        type=float,
        default=None,
        help="also measure at this larger scale; nested under 'scale_up'",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_suite.json"))
    args = parser.parse_args(argv)
    jobs = resolve_jobs(args.jobs)

    record = _measure(args.scale, jobs)
    if args.scale_up is not None:
        record["scale_up"] = _measure(args.scale_up, jobs)
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
