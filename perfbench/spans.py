"""Span tracing for the benchmark's traced runs.

:func:`install` wraps public functions and methods of each ``repro``
layer so that every call records a span (name, start, end, parent, job
id). Nothing inside ``src/`` changes: the wrappers replace the names in
the module namespaces the engine looks them up in, and :func:`install`
returns a function that puts the originals back.

Spans are kept in memory by a :class:`Tracer` and written out once, at
the end (:meth:`Tracer.dump`). A span's self time is its duration minus
the durations of its direct children, in wall time or in the thread's
CPU time; spans nest per thread, so the two
engine threads of the service keep separate stacks. Every span under a
``suite.compute`` span carries the job id taken from the manifest path
the service passes to ``compute_suite`` (``job-000001.json`` gives
``job-000001``).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans.

    A fork worker inherits the tracer and the wrappers. On its first span
    it drops what it inherited and starts a log of its own, written to
    ``worker_dir`` as the worker exits; :meth:`dump` merges those logs.
    """

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.worker_dir = worker_dir
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))

    def _adopt_fork(self) -> None:
        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        if self.worker_dir is not None:
            # runs when the pool's worker process exits normally
            multiprocessing.util.Finalize(self, self._write_worker_log, exitpriority=10)

    def _write_worker_log(self) -> None:
        path = self.worker_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: str | None = None, **attrs) -> dict:
        if os.getpid() != self._pid:
            self._adopt_fork()
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = f"{self._pid}-{next(self._ids)}"  # unique across processes
        span = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "job": job if job is not None else (parent["job"] if parent else None),
            "pid": self._pid,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "cpu_start": time.thread_time(),
            "cpu_end": None,
            **attrs,
        }
        stack.append(span)
        return span

    def close(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span["cpu_end"] = time.thread_time()
        span.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def dump(self, path: Path | str) -> None:
        spans = list(self.spans)
        if self.worker_dir is not None:
            for log in sorted(self.worker_dir.glob("spans-*.json")):
                spans += json.loads(log.read_text())
        Path(path).write_text(json.dumps(spans))


def self_times(spans: list[dict], clock: str = "") -> dict[str, float]:
    """Span id -> duration minus the durations of its direct children.

    ``clock="cpu_"`` uses the thread CPU time the span consumed instead
    of its wall time.
    """
    start, end = f"{clock}start", f"{clock}end"
    own = {s["id"]: s[end] - s[start] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s[end] - s[start]
    return own


# -- wrappers ------------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    """Span around each call; ``after(args, kwargs, result)`` may return
    counts measured at the call boundary, stored on the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, error=True)
            raise
        extra = after(args, kwargs, result) if after is not None else {}
        tracer.close(span, **extra)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per step of a generator function (each ``next``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            span = tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                tracer.close(span, items=0)
                return
            except BaseException:
                tracer.close(span, error=True)
                raise
            tracer.close(span, items=1)
            yield item

    return wrapper


def wrap_compute_suite(tracer: Tracer, fn):
    """Root span of one engine run; the job id is the manifest's stem."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        manifest = kwargs.get("manifest")
        job = Path(manifest).stem if manifest is not None else None
        span = tracer.open("suite.compute", job=job)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _wrap_stream_feed(tracer: Tracer, name: str, fn, counted: tuple[str, ...] = ()):
    """Span around a stream's ``feed(chunk, lengths)`` with the chunk's
    instruction count and the growth of the ``counted`` attributes."""

    @functools.wraps(fn)
    def wrapper(self, chunk, lengths):
        before = [getattr(self, a) for a in counted]
        span = tracer.open(name)
        try:
            fn(self, chunk, lengths)
        finally:
            deltas = {a: getattr(self, a) - b for a, b in zip(counted, before)}
            tracer.close(span, instr=int(chunk.addr.shape[0]), **deltas)

    return wrapper


_COUNTER_KINDS = {"dm": "dm", "lru2": "2way", "victim": "victim"}


def _wrap_counter_feed(tracer: Tracer, kind: str, fn):
    name = f"icache.{kind}.feed"

    @functools.wraps(fn)
    def wrapper(self, lines):
        before = self.misses
        span = tracer.open(name)
        try:
            fn(self, lines)
        finally:
            tracer.close(span, lines=int(lines.size), misses=self.misses - before)

    return wrapper


def install(tracer: Tracer):
    """Wrap every traced layer boundary; returns the function undoing it."""
    import repro.experiments.harness as harness
    import repro.experiments.suite as suite
    import repro.serve.jobs as jobs
    import repro.simulators.fused as fused
    import repro.tpcd.workload as workload
    from repro.cache import ArtifactCache
    from repro.minidb.engine import Database
    from repro.profiling.tracestore import TraceStore
    from repro.simulators import CacheConfig, FetchStream, TraceCacheStream, miss_counter

    patches: list[tuple[object, str, object, bool]] = []

    def patch(owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, make(original))

    def call(name, after=None):
        return lambda fn: _wrap_call(tracer, name, fn, after)

    def capture_counts(args, kwargs, result):
        return {"events": int(len(result))}

    def load_counts(args, kwargs, result):
        return {"hit": result is not None}

    # tpcd / minidb / kernel / profiling: the cold build and profile
    patch(workload, "build_database", call("tpcd.build_database"))
    patch(Database, "kernel_model", call("kernel.model"))
    patch(workload, "capture_trace", call("kernel.capture", capture_counts))
    patch(harness, "profile_trace", call("profiling.profile"))
    patch(TraceStore, "iter_events",
          lambda fn: _wrap_generator(tracer, "tracestore.decode", fn))
    # core / baselines: the layouts, as layouts_for builds them
    patch(harness, "original_layout", call("layout.orig"))
    patch(harness, "pettis_hansen_layout", call("layout.ph"))
    patch(harness, "torrellas_layout", call("layout.torr"))
    patch(harness, "stc_layout", call("layout.stc"))
    # simulators: the fused pass and its children
    patch(suite, "run_fused", call("fused.pass"))
    patch(fused, "iter_chunk_contexts",
          lambda fn: _wrap_generator(tracer, "fetch.contexts", fn))
    patch(fused, "expand_chunk", call("fetch.expand"))
    patch(FetchStream, "feed", lambda fn: _wrap_stream_feed(tracer, "fetch.feed", fn))
    patch(TraceCacheStream, "feed", lambda fn: _wrap_stream_feed(
        tracer, "tracecache.feed", fn, ("n_hits", "n_misses")))
    for config in (CacheConfig(size_bytes=8192),
                   CacheConfig(size_bytes=8192, associativity=2),
                   CacheConfig(size_bytes=8192, victim_lines=16)):
        cls = type(miss_counter(config))
        kind = _COUNTER_KINDS[cls.kind]
        patch(cls, "feed", lambda fn, kind=kind: _wrap_counter_feed(tracer, kind, fn))
    # cache: checkpoint, workload, profile and serve-result I/O
    patch(ArtifactCache, "load", call("cache.load", load_counts))
    patch(ArtifactCache, "store", call("cache.store"))
    # experiments.suite: the engine run, as the service calls it
    patch(jobs, "compute_suite", lambda fn: wrap_compute_suite(tracer, fn))

    def uninstall() -> None:
        for owner, attr, original, own in reversed(patches):
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the override
                delattr(owner, attr)

    return uninstall



# -- per-layer metrics -----------------------------------------------------

#: Per-layer metrics computed from spans, each the same on both workloads.
SPAN_METRICS = (
    ("tpcd.build_database_s", "s"),
    ("kernel.model_s", "s"),
    ("kernel.capture_s", "s"),
    ("kernel.capture_mevents_per_s", "Mevent/s"),
    ("profiling.profile_s", "s"),
    ("tracestore.decode_s", "s"),
    ("layout.orig_s", "s"),
    ("layout.ph_s", "s"),
    ("layout.torr_s", "s"),
    ("layout.stc_s", "s"),
    ("layout.count", "count"),
    ("fused.passes", "count"),
    ("fused.self_s", "s"),
    ("fetch.contexts_s", "s"),
    ("fetch.expand_s", "s"),
    ("fetch.windows", "count"),
    ("fetch.feed_s", "s"),
    ("fetch.minstr", "Minstr"),
    ("tracecache.feed_s", "s"),
    ("tracecache.minstr", "Minstr"),
    ("tracecache.hit_ratio", "ratio"),
    *(
        (f"icache.{kind}.{what}", unit)
        for kind in ("dm", "2way", "victim")
        for what, unit in (("feed_s", "s"), ("mlines", "Mline"), ("miss_ratio", "ratio"))
    ),
    ("cache.load_s", "s"),
    ("cache.store_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum durations, self times and boundary counts by layer."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    attr: dict[tuple[str, str], float] = {}
    for s in spans:
        name = s["name"]
        dur[name] = dur.get(name, 0.0) + s["end"] - s["start"]
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        count[name] = count.get(name, 0) + 1
        for key in ("events", "items", "instr", "n_hits", "n_misses", "lines", "misses"):
            if key in s:
                attr[name, key] = attr.get((name, key), 0) + s[key]
        if name == "cache.load":
            hit = "hits" if s.get("hit") else "misses"
            attr[name, hit] = attr.get((name, hit), 0) + 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    capture_s = dur.get("kernel.capture", 0.0)
    tc_hits = attr.get(("tracecache.feed", "n_hits"), 0)
    tc_misses = attr.get(("tracecache.feed", "n_misses"), 0)
    out = {
        "tpcd.build_database_s": dur.get("tpcd.build_database", 0.0),
        "kernel.model_s": dur.get("kernel.model", 0.0),
        "kernel.capture_s": capture_s,
        "kernel.capture_mevents_per_s": ratio(
            attr.get(("kernel.capture", "events"), 0) / 1e6, capture_s
        ),
        "profiling.profile_s": dur.get("profiling.profile", 0.0),
        "tracestore.decode_s": dur.get("tracestore.decode", 0.0),
        "layout.orig_s": dur.get("layout.orig", 0.0),
        "layout.ph_s": dur.get("layout.ph", 0.0),
        "layout.torr_s": dur.get("layout.torr", 0.0),
        "layout.stc_s": dur.get("layout.stc", 0.0),
        "layout.count": sum(count.get(f"layout.{k}", 0) for k in ("orig", "ph", "torr", "stc")),
        "fused.passes": count.get("fused.pass", 0),
        "fused.self_s": self_s.get("fused.pass", 0.0),
        "fetch.contexts_s": self_s.get("fetch.contexts", 0.0),
        "fetch.expand_s": dur.get("fetch.expand", 0.0),
        "fetch.windows": attr.get(("fetch.contexts", "items"), 0),
        "fetch.feed_s": self_s.get("fetch.feed", 0.0),
        "fetch.minstr": attr.get(("fetch.feed", "instr"), 0) / 1e6,
        "tracecache.feed_s": self_s.get("tracecache.feed", 0.0),
        "tracecache.minstr": attr.get(("tracecache.feed", "instr"), 0) / 1e6,
        "tracecache.hit_ratio": ratio(tc_hits, tc_hits + tc_misses),
        "cache.load_s": dur.get("cache.load", 0.0),
        "cache.store_s": dur.get("cache.store", 0.0),
        "cache.hits": attr.get(("cache.load", "hits"), 0),
        "cache.misses": attr.get(("cache.load", "misses"), 0),
        "cache.stores": count.get("cache.store", 0),
    }
    for kind in ("dm", "2way", "victim"):
        name = f"icache.{kind}.feed"
        lines = attr.get((name, "lines"), 0)
        out[f"icache.{kind}.feed_s"] = dur.get(name, 0.0)
        out[f"icache.{kind}.mlines"] = lines / 1e6
        out[f"icache.{kind}.miss_ratio"] = ratio(attr.get((name, "misses"), 0), lines)
    return out
