"""The ``serve-upload`` workload: a closed loop of tenants against a live
``repro.serve`` process.

Each of ``TENANTS`` tenants repeats one cycle until the run's seconds are
spent, then finishes the cycle it is in:

1. upload a distinct seeded ``SLICE_EVENTS``-event slice of the Test
   trace (a write: spool, CRC verify, atomic rename);
2. submit a ``trace_id`` job over ``GRID`` and poll it to completion;
3. resubmit the identical spec (a read: the ``serve-result`` dedupe hit);
4. read ``/v1/metrics``.

Every server starts with an empty spool. Set-up builds the settings
workload cold into the server's artifact cache and loads it into the
server with one computed warm-up job, so every timed submission computes
and no timed job carries the build or the load. The traced server reuses
the last set-up's cache and gets a warm-up slice no earlier server saw.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import BENCH_DIR, child_env, peak_rss_mb_of, quantile
from spans import layer_metrics, self_times
from tables_full import program

from repro.experiments.harness import get_workload
from repro.experiments.suite import compute_suite
from repro.profiling.trace import BlockTrace
from repro.profiling.tracestore import TraceStore, write_trace
from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.codec import result_digest, serialize_suite
from repro.tpcd.workload import Workload, WorkloadSettings

#: Concurrent tenants. One: two jobs computing at once in the server's
#: engine threads hand its GIL back and forth, and that makes their
#: latency swing with the host's scheduler far more than with the program.
TENANTS = 1
SLICE_EVENTS = 150_000
#: Events in the one job each server runs before timing starts.
WARM_UP_EVENTS = 20_000
GRID = [[8, 2]]
POLL_S = 0.05
#: Computed jobs re-run through the batch engine after timing.
BATCH_CHECKS = 2


class Server:
    """One ``repro.serve`` process on an ephemeral port."""

    def __init__(self, work: Path, cache: Path, spool: Path, spans_out: Path | None) -> None:
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.serve"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), str(spans_out)]
        cmd += ["--port", "0", "--spool", str(spool)]
        self.spool = spool
        self.stderr = open(work / f"server-{spool.name}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, env=child_env(cache), stdout=subprocess.PIPE, stderr=self.stderr
        )
        self.port = None
        for raw in self.proc.stdout:
            line = raw.decode()
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError(f"repro.serve exited with {self.proc.returncode} before listening")

    def client(self, tenant: str | None = None) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, tenant=tenant, timeout=120.0)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> int:
        if self.proc.poll() is None and self.port is not None:
            try:
                asyncio.run(self.client().shutdown())
            except (OSError, ServeError, asyncio.TimeoutError):
                pass
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        return code


def start_server(work: Path, cache: Path, spool: Path, spans_out: Path | None = None):
    """Start a server and wait until ``/healthz`` answers; returns
    ``(server, seconds)``."""
    t0 = time.perf_counter()
    server = Server(work, cache, spool, spans_out)
    asyncio.run(server.client().health())
    return server, time.perf_counter() - t0


def make_slices(test_trace: Path, seed: int, count: int, servers: int, out_dir: Path):
    """``count`` distinct seeded slices of the Test trace as RTRC bytes,
    plus one short warm-up slice per server. The warm-up slices differ
    from each other and, being shorter, from every timed slice, so no
    server finds its warm-up job's result in a cache an earlier one wrote."""
    events = TraceStore(test_trace).materialize().events
    rng = np.random.default_rng([seed, 0x5E])
    starts = rng.choice(events.shape[0] - SLICE_EVENTS, size=count, replace=False)
    path = out_dir / "slice.trace"
    slices = []
    warm = [(i * WARM_UP_EVENTS, WARM_UP_EVENTS) for i in range(servers)]
    for start, length in warm + [(s, SLICE_EVENTS) for s in starts]:
        write_trace(BlockTrace(events[start : start + length]), path)
        slices.append(path.read_bytes())
    path.unlink()
    return slices[:servers], slices[servers:]


class Record:
    """What the load generator saw: request and job timings, failures."""

    def __init__(self) -> None:
        self.requests: dict[str, list[float]] = {}
        self.jobs: list[dict] = []
        self.cycles: list[float] = []
        #: per cycle, ms in its requests other than the status polls
        self.cycle_requests: list[float] = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    async def call(self, kind: str, coro, cycle: list[float] | None = None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = await coro
        except Backpressure:
            self.refused += 1
            raise
        except (ServeError, OSError, asyncio.TimeoutError):
            self.failed += 1
            raise
        ms = 1000.0 * (time.perf_counter() - t0)
        self.requests.setdefault(kind, []).append(ms)
        if cycle is not None:
            cycle.append(ms)
        return result


async def _tenant(server, name, spec_base, slices, deadline, rec: Record) -> None:
    client = server.client(tenant=name)
    while time.perf_counter() < deadline and slices:
        data = slices.pop()
        t_cycle = time.perf_counter()
        own: list[float] = []
        rec.attempted += 1  # the job itself
        try:
            upload = await rec.call("upload", client.upload_trace(data), own)
            spec = {**spec_base, "trace_id": upload["trace_id"]}
            t_submit = time.perf_counter()
            job = await rec.call("submit", client.submit_job(spec), own)
            while job["state"] not in ("completed", "failed"):
                await asyncio.sleep(POLL_S)
                job = await rec.call("poll", client.get_job(job["id"]))
            latency = time.perf_counter() - t_submit
            if job["state"] != "completed" or job["source"] != "computed":
                rec.failed += 1
                rec.errors.append(f"{job['id']}: {job['state']}/{job['source']}: {job['error']}")
                continue
            rec.jobs.append({
                "id": job["id"], "latency_s": latency, "digest": job["result_digest"],
                "trace": server.spool / "traces" / f"{upload['trace_id']}.trace",
                "manifest": server.spool / "manifests" / f"{job['id']}.json",
            })
            again = await rec.call("resubmit", client.submit_job(spec), own)
            if again["state"] != "completed" or again["result_digest"] != job["result_digest"]:
                rec.mismatches.append(f"dedupe of {job['id']} answered {again['result_digest']}")
            await rec.call("metrics", client.metrics(), own)
        except (ServeError, OSError, asyncio.TimeoutError) as exc:
            rec.errors.append(f"{name}: {exc!r}")
            continue
        rec.cycles.append(time.perf_counter() - t_cycle)
        rec.cycle_requests.append(sum(own))


def _spec(settings: WorkloadSettings) -> dict:
    return {"scale": settings.scale, "seed": settings.seed,
            "kernel_seed": settings.kernel_seed, "grid": GRID}


async def warm_up(server: Server, settings: WorkloadSettings, data: bytes) -> None:
    """One computed job, so the server has loaded the settings workload
    before timing starts."""
    client = server.client()
    upload = await client.upload_trace(data)
    job = await client.submit_job({**_spec(settings), "trace_id": upload["trace_id"]})
    done = await client.wait_job(job["id"], poll=POLL_S)
    if done["state"] != "completed" or done["source"] != "computed":
        raise RuntimeError(
            f"warm-up job {done['id']} {done['state']}/{done['source']}: {done['error']}"
        )


async def closed_loop(server: Server, settings: WorkloadSettings, slices, seconds: float,
                      rec: Record) -> dict:
    """Run the tenants for ``seconds`` into ``rec``; returns the server's
    final ``/v1/metrics``."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    await asyncio.gather(*(
        _tenant(server, f"tenant-{i}", _spec(settings), slices, deadline, rec)
        for i in range(TENANTS)
    ))
    rec.elapsed += time.perf_counter() - t0
    return await server.client().metrics()


def batch_check(cache: Path, settings: WorkloadSettings, jobs: list[dict], seed: int):
    """Recompute a seeded sample of served jobs with the batch engine."""
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    base = get_workload(settings)
    rng = np.random.default_rng([seed, 0xBA])
    picks = rng.choice(len(jobs), size=min(BATCH_CHECKS, len(jobs)), replace=False)
    mismatches = []
    for i in sorted(picks):
        job = jobs[i]
        derived = Workload(
            db=base.db, model=base.model, training_trace=base.training_trace,
            test_trace=TraceStore(job["trace"]),
        )
        suite = compute_suite(derived, tuple(tuple(r) for r in GRID), jobs=1)
        digest = result_digest(serialize_suite(suite))
        if digest != job["digest"]:
            mismatches.append(f"{job['id']}: batch {digest} != served {job['digest']}")
    return len(picks), mismatches


def run(work: Path, settings: WorkloadSettings, seed: int, seconds: float, trace: bool,
        setup_reps: int) -> dict:
    """One ``serve-upload`` run; returns metrics and the accounting.

    Each set-up starts a server, builds its workload cold and warms it up
    with one job, then that server takes its share of the run's seconds:
    set-ups and timed segments alternate, so a slow spell of the machine
    weighs on both alike. The traced run adds a traced server after them.
    """
    setups, rss = [], []
    rec, traced = Record(), Record()
    server = None
    slices = None
    try:
        for rep in range(setup_reps):
            name = f"setup-{rep}"
            cache = work / f"cache-{name}"  # where program() builds
            server, start_s = start_server(work, cache, work / f"spool-{rep}")
            spans = ["--spans", str(work / "setup-spans.json")] if trace else []
            build = program(work, settings, name, *spans)
            if slices is None:
                # two cycles a second per tenant is more than twice the rate measured
                count = (int(2 * seconds * TENANTS) + 8) * (2 if trace else 1)
                warm, slices = make_slices(Path(build["test_trace"]["path"]), seed, count,
                                           setup_reps + trace, work)
            t0 = time.perf_counter()
            asyncio.run(warm_up(server, settings, warm[rep]))
            setups.append(start_s + build["setup_s"] + time.perf_counter() - t0)
            asyncio.run(closed_loop(server, settings, slices, seconds / setup_reps, rec))
            rss.append(server.peak_rss_mb())
            _stop(server, rec)
            server = None
        if trace:
            server, _ = start_server(work, cache, work / "spool-traced", work / "spans.json")
            asyncio.run(warm_up(server, settings, warm[-1]))
            timed_from = time.perf_counter()
            final = asyncio.run(closed_loop(server, settings, slices, seconds, traced))
            _stop(server, traced)
            server = None
    finally:
        if server is not None:
            server.stop()

    jobs = rec.jobs + traced.jobs
    n_checked, batch_mismatches = batch_check(work / "cache-setup-0", settings, jobs, seed)
    mismatches = rec.mismatches + traced.mismatches + batch_mismatches
    out = {
        "setup_s": median(setups), "setup_samples": setups, "rss_samples": rss,
        "attempted": rec.attempted + traced.attempted,
        "failed": rec.failed + rec.refused + traced.failed + traced.refused,
        "mismatches": mismatches, "errors": rec.errors + traced.errors,
        "correct": not mismatches and n_checked > 0,
    }
    latencies = [j["latency_s"] for j in rec.jobs]
    requests = [ms for values in rec.requests.values() for ms in values]
    if not latencies:
        out["correct"] = False
        out["mismatches"].append("no job completed")
        return out
    out["samples"] = {
        "jobs": len(latencies), "requests": len(requests), "cycles": len(rec.cycles),
        "setups": len(setups), "servers": len(rss), "batch_checked": n_checked,
    }
    out["end_to_end"] = {
        "setup_s": out["setup_s"],
        "wall_s": median(rec.cycles),
        "jobs_per_s": len(latencies) / rec.elapsed,
        "job_p50_s": quantile(latencies, 0.5),
        "job_p75_s": quantile(latencies, 0.75),
        # Status polls are left to req_p99_ms and serve.poll_ms: each waits
        # for the engine thread to let go of the interpreter lock, and how
        # long flips between two levels with where the scheduler puts the
        # threads.
        "req_cycle_ms": median(rec.cycle_requests),
        "req_p99_ms": quantile(requests, 0.99),
        "peak_rss_mb": median(rss),
        "ok_ratio": 1.0 - (rec.failed + rec.refused) / rec.attempted,
    }
    if trace:
        out["per_layer"] = _per_layer(work, final, timed_from, rec, traced)
    return out


def _stop(server: Server, rec: Record) -> None:
    code = server.stop()
    if code != 0:
        rec.errors.append(f"server exited with {code}")


def _per_layer(work: Path, server: dict, timed_from: float, base: Record, rec: Record) -> dict:
    """Per-layer metrics of the traced server's timed jobs; ``base`` is the
    untraced run. Spans that start before ``timed_from`` belong to the
    warm-up (its job and the workload load outside any job); span clocks
    are ``perf_counter``, which Linux shares across processes."""
    spans = [s for s in json.loads((work / "spans.json").read_text()) if s["start"] >= timed_from]
    setup_spans = json.loads((work / "setup-spans.json").read_text())
    layers = layer_metrics(spans + setup_spans)
    own_cpu = self_times(spans, clock="cpu_")
    manifests = [json.loads(j["manifest"].read_text()) for j in rec.jobs]
    busy = sum(t["seconds"] for m in manifests for t in m["tasks"])
    engine_wall = sum(m["wall_seconds"] * m["jobs"] for m in manifests)
    stored = [TraceStore(j["trace"]).stats() for j in rec.jobs]
    untraced_p50 = median([j["latency_s"] for j in base.jobs])
    traced_p50 = median([j["latency_s"] for j in rec.jobs])
    exec_p50 = server["exec_seconds"]["p50"]
    layers.update({
        "tracestore.bytes": median([s["bytes"] for s in stored]),
        "tracestore.compression_ratio": median([s["compression_ratio"] for s in stored]),
        "suite.tasks": sum(len(m["tasks"]) for m in manifests),
        "suite.busy_s": busy,
        "suite.parallel_eff": busy / engine_wall if engine_wall else 0.0,
        "suite.retries": sum(1 for m in manifests for e in m["events"] if e["type"] == "retry"),
        "serve.upload_ms": median(rec.requests["upload"]),
        "serve.submit_ms": median(rec.requests["submit"] + rec.requests["resubmit"]),
        "serve.poll_ms": median(rec.requests["poll"]),
        "serve.metrics_ms": median(rec.requests["metrics"]),
        "serve.exec_s": exec_p50,
        "serve.queue_wait_s": max(0.0, traced_p50 - exec_p50),
        "serve.dedupe_cache": server["dedupe"]["cache"],
        "serve.dedupe_inflight": server["dedupe"]["inflight"],
        "serve.traces_stored": server["traces"]["uploads"],
        "serve.rejected_429": server["jobs"]["rejected"],
        "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        # engine-thread CPU time inside compute_suite that no layer span covers
        "trace.unattributed_s": sum(
            own_cpu[s["id"]] for s in spans if s["name"] == "suite.compute"
        ),
    })
    return layers
