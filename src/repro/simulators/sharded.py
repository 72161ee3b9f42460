"""Sharded chunk-parallel simulation, bit-identical to :func:`run_fused`.

The fused driver streams the whole trace through every simulation stream
sequentially. At paper scale (SF 0.1, ~2 billion instructions) that single
pass is the wall-clock bottleneck, so this module partitions the chunked
trace into contiguous *shard* spans of whole simulation windows and runs
the fused pass per shard in parallel workers. Because window boundaries
fall at the same absolute event offsets whether the trace is walked in one
pass or shard by shard (``iter_events(start_event=, stop_event=)``), the
only coupling between shards is the Python-level carried state of the
streams themselves. Each stream kind is handled by the cheapest mechanism
that reproduces that state exactly:

* **fetch counters** (:class:`~repro.simulators.fetch.FetchStream`) carry
  no cross-window state at all — the SEQ.3 fetch orbit restarts at every
  window — so per-shard counters simply add up;
* **direct-mapped and 2-way LRU miss counters** run cold per shard while
  recording a *journal*: per touched set, the few boundary accesses whose
  hit/miss outcome depends on pre-shard state (the first access for
  direct-mapped; the first two compressed accesses for 2-way LRU, via the
  run-compression identity). The sequential reconciliation pass folds each
  shard's journal onto the carried state in O(touched sets) — it corrects
  the cold miss count and advances the per-set state without replaying a
  single access;
* **victim-cache counters and trace-cache streams** have global,
  trajectory-dependent state (a shared LRU victim buffer; cache entries
  whose walk advances differently on hit and miss), for which no compact
  journal exists. They run as sequential *relay chains*: shard ``k`` is
  simulated seeded with shard ``k-1``'s pickled end state, so the chain is
  trivially exact. Distinct chains still run concurrently with each other
  and with the cold shard jobs. A victim counter attached to a
  :class:`FetchStream` is split off into its own chain with a private
  fetch stream (the line stream it consumes is state-independent), so the
  parent stream's other counters still shard in parallel.

Fault tolerance mirrors the suite engine: each shard job or relay step is
a checkpoint/retry unit (``checkpoint.load/store`` hooks), transient
failures retry with backoff, a parallel run that stalls raises
:class:`ShardTimeoutError`, and a dead worker pool degrades to in-process
execution of the remaining jobs. Results are bit-identical to
:func:`run_fused` for any shard count, any worker count, and any
interleaving of checkpoint resumes.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro.cfg.program import Program
from repro.simulators import native
from repro.simulators.fetch import _DEFAULT_CHUNK_EVENTS, FetchStream
from repro.simulators.fused import run_fused
from repro.simulators.icache import (
    _DirectMappedCounter,
    _TwoWayLRUCounter,
    _VictimCounter,
    counter_from_spec,
    counter_spec,
)
from repro.simulators.tracecache import TraceCacheConfig, TraceCacheStream

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardReport",
    "ShardTimeoutError",
    "plan_shards",
    "run_sharded",
]


# -- shard planning ------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous shard spans over a trace's event stream.

    ``bounds`` has one entry per shard boundary (``n_shards + 1`` in
    total); every interior boundary is a multiple of ``chunk_events``, so
    each shard covers whole simulation windows and shard-wise iteration
    reproduces the exact window sequence of a full pass.
    """

    chunk_events: int
    n_events: int  # total events in the trace, separators included
    bounds: tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.bounds) - 1

    def span(self, shard: int) -> tuple[int, int]:
        return self.bounds[shard], self.bounds[shard + 1]

    def signature(self) -> tuple:
        """Checkpoint-key component identifying this exact partition."""
        return ("shard-plan", self.chunk_events, self.n_events, self.bounds)


def plan_shards(
    n_events: int,
    chunk_events: int = _DEFAULT_CHUNK_EVENTS,
    shards: int = 1,
) -> ShardPlan:
    """Split ``n_events`` into at most ``shards`` window-aligned spans.

    Windows are distributed near-evenly; a request for more shards than
    there are windows collapses to one shard per window.
    """
    if chunk_events <= 0:
        raise ValueError("chunk_events must be positive")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    n_windows = -(-n_events // chunk_events)
    n_shards = max(1, min(int(shards), n_windows))
    base, rem = divmod(n_windows, n_shards)
    bounds = [0]
    w = 0
    for s in range(n_shards):
        w += base + (1 if s < rem else 0)
        bounds.append(min(w * chunk_events, n_events))
    return ShardPlan(int(chunk_events), int(n_events), tuple(bounds))


# -- errors and reporting ------------------------------------------------


class ShardError(RuntimeError):
    """A shard job or relay step failed permanently."""

    def __init__(self, key: tuple, cause: BaseException) -> None:
        super().__init__(f"shard job {key!r} failed: {cause!r}")
        self.key = key
        self.cause = cause


class ShardTimeoutError(RuntimeError):
    """No shard job completed within ``task_timeout`` seconds."""

    def __init__(self, keys: list, timeout: float) -> None:
        super().__init__(
            f"no shard job completed in {timeout:.1f}s; "
            f"still running: {', '.join(map(repr, keys))}"
        )
        self.keys = keys
        self.timeout = timeout


@dataclass
class ShardReport:
    """What a :func:`run_sharded` call actually did."""

    plan: ShardPlan
    computed: list = field(default_factory=list)  # job keys run this call
    checkpointed: list = field(default_factory=list)  # job keys loaded
    degraded: bool = False  # worker pool died; finished in-process

    @property
    def n_jobs(self) -> int:
        return len(self.computed) + len(self.checkpointed)


#: Failure classes worth retrying (environmental pressure, not bugs).
_TRANSIENT_EXCEPTIONS = (OSError, MemoryError, EOFError)

_RETRY_BACKOFF_SECONDS = 0.05


def _is_transient(exc: BaseException) -> bool:
    return isinstance(exc, _TRANSIENT_EXCEPTIONS)


def _backoff(attempt: int) -> float:
    return _RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))


# -- stream classification -----------------------------------------------


@dataclass
class _FamilyEntry:
    """One caller FetchStream that shards in parallel (journal stitching)."""

    layout_index: int
    stream: FetchStream
    consumers: list  # the caller's journal-stitchable miss counters

    def spec(self) -> tuple:
        return (
            self.layout_index,
            self.stream.line_bytes,
            self.stream.line_chunks is not None,
            tuple(counter_spec(c) for c in self.consumers),
        )


@dataclass
class _Chain:
    """One sequential relay chain (victim counters or a trace cache)."""

    kind: str  # "victim" | "tc"
    layout_index: int
    line_bytes: int
    tc_config: tuple | None
    counters: list  # the caller's counter objects
    stream: TraceCacheStream | None
    collect: bool  # tc: caller collects miss-line chunks

    def spec(self) -> tuple:
        return (
            self.kind,
            self.layout_index,
            self.line_bytes,
            self.tc_config,
            tuple(counter_spec(c) for c in self.counters),
            self.collect,
        )

    def seed_state(self) -> dict:
        return {
            "counters": [c.state_dict() for c in self.counters],
            "stream": self.stream.state_dict() if self.stream is not None else None,
        }


def _classify(pairs):
    """Split ``(layout, stream)`` pairs into parallel family entries and
    sequential relay chains; unknown stream/consumer types are rejected
    rather than silently simulated wrong."""
    layouts: list = []
    index: dict[int, int] = {}
    family: list[_FamilyEntry] = []
    chains: list[_Chain] = []
    for layout, stream in pairs:
        li = index.get(id(layout))
        if li is None:
            li = index[id(layout)] = len(layouts)
            layouts.append(layout)
        if isinstance(stream, FetchStream):
            journaled: list = []
            victims: list = []
            for consumer in stream.consumers:
                if isinstance(consumer, (_DirectMappedCounter, _TwoWayLRUCounter)):
                    journaled.append(consumer)
                elif isinstance(consumer, _VictimCounter):
                    victims.append(consumer)
                else:
                    raise TypeError(
                        f"run_sharded cannot shard consumer type "
                        f"{type(consumer).__name__}"
                    )
            family.append(_FamilyEntry(li, stream, journaled))
            if victims:
                chains.append(
                    _Chain("victim", li, stream.line_bytes, None, victims, None, False)
                )
        elif isinstance(stream, TraceCacheStream):
            for consumer in stream.consumers:
                if not isinstance(
                    consumer, (_DirectMappedCounter, _TwoWayLRUCounter, _VictimCounter)
                ):
                    raise TypeError(
                        f"run_sharded cannot shard consumer type "
                        f"{type(consumer).__name__}"
                    )
            cfg = stream.config
            chains.append(
                _Chain(
                    "tc",
                    li,
                    stream.line_bytes,
                    (cfg.n_entries, cfg.trace_instructions, cfg.branch_limit),
                    list(stream.consumers),
                    stream,
                    stream.miss_line_chunks is not None,
                )
            )
        else:
            raise TypeError(
                f"run_sharded cannot shard stream type {type(stream).__name__}"
            )
    return layouts, family, chains


# -- shard workers -------------------------------------------------------

# Worker context for fork-based pools: set in the parent immediately
# before the fork so children inherit the trace handles, program and
# layouts copy-on-write instead of receiving pickled copies.
_SHARD_CTX: tuple | None = None


def _family_shard(trace, program, layouts, chunk_events, plan, family_specs, shard_idx):
    """Cold fused pass of every family stream over one shard span."""
    start, stop = plan.span(shard_idx)
    streams = []
    pairs = []
    for li, line_bytes, collect, cspecs in family_specs:
        consumers = [counter_from_spec(cs, record_journal=True) for cs in cspecs]
        stream = FetchStream(
            layouts[li].name,
            line_bytes=line_bytes,
            consumers=consumers,
            collect_lines=collect,
        )
        streams.append(stream)
        pairs.append((layouts[li], stream))
    run_fused(
        trace, program, pairs,
        chunk_events=chunk_events, start_event=start, stop_event=stop,
    )
    out = []
    for stream in streams:
        entry = {
            "n_instructions": stream.n_instructions,
            "n_fetches": stream.n_fetches,
            "n_taken": stream.n_taken,
            "journals": [c.shard_journal() for c in stream.consumers],
        }
        if stream.line_chunks is not None:
            entry["line_chunks"] = stream.line_chunks
        out.append(entry)
    return out


def _relay_shard(trace, program, layouts, chunk_events, plan, spec, shard_idx, state):
    """One relay step: simulate a shard seeded with the previous shard's
    end state; returns the new end state (plus any collected lines)."""
    kind, li, line_bytes, tc_config, cspecs, collect = spec
    start, stop = plan.span(shard_idx)
    counters = [counter_from_spec(cs) for cs in cspecs]
    for counter, cstate in zip(counters, state["counters"]):
        counter.load_state(cstate)
    if kind == "tc":
        stream = TraceCacheStream(
            layouts[li].name,
            TraceCacheConfig(*tc_config),
            line_bytes=line_bytes,
            consumers=counters,
            collect_lines=collect,
        )
        stream.load_state(state["stream"])
    else:
        # this private fetch stream only regenerates the (state-independent)
        # line stream for the victim counters; its own counters are
        # discarded — the caller's fetch counters come from the family jobs
        stream = FetchStream(layouts[li].name, line_bytes=line_bytes, consumers=counters)
    run_fused(
        trace, program, [(layouts[li], stream)],
        chunk_events=chunk_events, start_event=start, stop_event=stop,
    )
    out_state = {"counters": [c.state_dict() for c in counters]}
    payload = {"state": out_state}
    if kind == "tc":
        out_state["stream"] = stream.state_dict()
        if collect:
            payload["miss_line_chunks"] = stream.miss_line_chunks
    else:
        out_state["stream"] = None
    return payload


def _worker_family(shard_idx):
    trace, program, layouts, chunk_events, plan, family_specs, _ = _SHARD_CTX
    return _family_shard(trace, program, layouts, chunk_events, plan, family_specs, shard_idx)


def _worker_relay(chain_idx, shard_idx, state):
    trace, program, layouts, chunk_events, plan, _, chain_specs = _SHARD_CTX
    return _relay_shard(
        trace, program, layouts, chunk_events, plan, chain_specs[chain_idx], shard_idx, state
    )


# -- journal reconciliation ----------------------------------------------


def _stitch_dm(counter, journal) -> None:
    """Fold a cold direct-mapped shard onto carried state.

    The only state-dependent access per set is the shard's first: the cold
    run counted it as a miss unconditionally (cold tags are -1), so it
    flips to a hit exactly when the incoming tag equals the recorded head.
    Every later access compares against a tag set within the shard and is
    already correct; the end state is the shard's end tags over the
    incoming tags.
    """
    tags = counter._tags
    sets = journal["sets"]
    hits = int((journal["head"] == tags[sets]).sum())
    counter.misses += int(journal["misses"]) - hits
    tags[sets] = journal["end"]


def _stitch_lru2(counter, journal) -> None:
    """Fold a cold 2-way LRU shard onto carried state.

    By the run-compression identity, the warm compressed stream per set is
    the cold one, minus its first entry ``c1`` exactly when ``c1`` equals
    the incoming MRU way ``W0`` (a repeat of the most recent access is
    dropped by compression and always hits). Only the first two surviving
    entries compare against pre-shard state; entry 3 onward compares
    against in-shard entries identically in both runs. The cold run
    counted ``c1`` and ``c2`` as misses unconditionally (cold sentinels
    are -1/-2), so the corrections are pure subtractions:

    * ``c1`` dropped: +1 hit for ``c1``; ``c2`` (if any) hits iff it
      equals the incoming LRU way ``W1``;
    * ``c1`` kept: ``c1`` hits iff it equals ``W1``; ``c2`` (if any) hits
      iff it equals ``W0``.

    End state: two or more cold entries make the cold end pair already
    correct; a single entry rolls the incoming pair forward (or leaves it
    untouched when that entry was dropped).
    """
    w0a, w1a = counter._w0, counter._w1
    sets = journal["sets"]
    c1 = journal["c1"]
    c2 = journal["c2"]
    W0 = w0a[sets]
    W1 = w1a[sets]
    has2 = c2 >= 0
    dropped = c1 == W0
    hits = dropped.astype(np.int64)
    hits += dropped & has2 & (c2 == W1)
    hits += ~dropped & (c1 == W1)
    hits += ~dropped & has2 & (c2 == W0)
    counter.misses += int(journal["misses"]) - int(hits.sum())
    w0a[sets] = np.where(has2, journal["w0"], np.where(dropped, W0, c1))
    w1a[sets] = np.where(has2, journal["w1"], np.where(dropped, W1, W0))


def _stitch(counter, journal) -> None:
    if journal["kind"] == "dm":
        _stitch_dm(counter, journal)
    elif journal["kind"] == "lru2":
        _stitch_lru2(counter, journal)
    else:  # pragma: no cover - journals only come from the two kinds above
        raise ValueError(f"unknown journal kind {journal['kind']!r}")


def _reconcile(family, family_payloads, chains, chain_payloads) -> None:
    """Write shard results back into the caller's live streams, in shard
    order, exactly as one full fused pass would have left them."""
    for idx, entry in enumerate(family):
        stream = entry.stream
        for payload in family_payloads or []:
            p = payload[idx]
            stream.n_instructions += int(p["n_instructions"])
            stream.n_fetches += int(p["n_fetches"])
            stream.n_taken += int(p["n_taken"])
            if stream.line_chunks is not None:
                stream.line_chunks.extend(p["line_chunks"])
            for counter, journal in zip(entry.consumers, p["journals"]):
                _stitch(counter, journal)
    for ci, chain in enumerate(chains):
        steps = chain_payloads[ci]
        if not steps:
            continue
        final = steps[-1]["state"]
        for counter, cstate in zip(chain.counters, final["counters"]):
            counter.load_state(cstate)
        if chain.stream is not None:
            chain.stream.load_state(final["stream"])
            if chain.stream.miss_line_chunks is not None:
                for step in steps:
                    chain.stream.miss_line_chunks.extend(step["miss_line_chunks"])


# -- driver --------------------------------------------------------------


def run_sharded(
    trace,
    program: Program,
    pairs: Sequence[tuple],
    *,
    chunk_events: int = _DEFAULT_CHUNK_EVENTS,
    shards: int | ShardPlan | None = None,
    jobs: int = 1,
    retries: int = 0,
    task_timeout: float | None = None,
    checkpoint=None,
    on_job=None,
) -> ShardReport:
    """Feed every ``(layout, stream)`` pair shard-parallel over ``trace``.

    Drop-in equivalent of :func:`run_fused`: streams are mutated in place
    and end up bit-identical — counters *and* carried state — to a single
    fused pass, for any ``shards``/``jobs`` combination. ``shards`` is a
    shard count or a precomputed :class:`ShardPlan`; ``jobs > 1`` fans the
    shard jobs and relay steps over a fork-based process pool (platforms
    without ``fork``, and ``jobs=1``, run in-process).

    ``checkpoint``, when given, must expose ``load(key) -> payload|None``
    and ``store(key, payload)``; keys are ``("family", shard)`` and
    ``("relay", chain, shard)`` tuples. The caller is responsible for
    scoping the store to this exact trace, stream composition, initial
    stream state, and shard plan (``ShardPlan.signature()``); the suite
    engine scopes by workload settings, task keys and plan. ``on_job``
    receives ``(key, source)`` for every job satisfied, with ``source``
    ``"checkpoint"`` or ``"computed"``. Transient failures (``OSError``,
    ``MemoryError``, ``EOFError``) retry up to ``retries`` times with
    backoff; ``task_timeout`` bounds how long a parallel run may go with
    no job completing; a dead worker pool degrades to in-process
    execution of the remaining jobs.
    """
    global _SHARD_CTX
    n_events = len(trace)
    if isinstance(shards, ShardPlan):
        plan = shards
        if plan.chunk_events != chunk_events or plan.n_events != n_events:
            raise ValueError("shard plan does not match this trace/window size")
    else:
        plan = plan_shards(n_events, chunk_events, shards if shards else max(jobs, 1))
    report = ShardReport(plan=plan)
    if not pairs:
        return report
    layouts, family, chains = _classify(pairs)
    n_shards = plan.n_shards
    family_specs = tuple(e.spec() for e in family)
    chain_specs = tuple(c.spec() for c in chains)
    seeds = [c.seed_state() for c in chains]
    notify = on_job if on_job is not None else (lambda key, source: None)

    family_payloads: list | None = [None] * n_shards if family else None
    chain_payloads: list[list] = [[None] * n_shards for _ in chains]

    if checkpoint is not None:
        if family_payloads is not None:
            for s in range(n_shards):
                payload = checkpoint.load(("family", s))
                if payload is not None:
                    family_payloads[s] = payload
                    report.checkpointed.append(("family", s))
                    notify(("family", s), "checkpoint")
        for ci in range(len(chains)):
            for s in range(n_shards):
                payload = checkpoint.load(("relay", ci, s))
                if payload is not None:
                    chain_payloads[ci][s] = payload
                    report.checkpointed.append(("relay", ci, s))
                    notify(("relay", ci, s), "checkpoint")

    def missing_jobs() -> list[tuple]:
        out: list[tuple] = []
        if family_payloads is not None:
            out.extend(("family", s) for s in range(n_shards) if family_payloads[s] is None)
        for ci, steps in enumerate(chain_payloads):
            out.extend(("relay", ci, s) for s in range(n_shards) if steps[s] is None)
        return out

    def relay_input(ci: int, s: int):
        return seeds[ci] if s == 0 else chain_payloads[ci][s - 1]["state"]

    def run_local(key: tuple):
        if key[0] == "family":
            return _family_shard(
                trace, program, layouts, chunk_events, plan, family_specs, key[1]
            )
        _, ci, s = key
        return _relay_shard(
            trace, program, layouts, chunk_events, plan,
            chain_specs[ci], s, relay_input(ci, s),
        )

    def complete(key: tuple, payload) -> None:
        if key[0] == "family":
            family_payloads[key[1]] = payload
        else:
            chain_payloads[key[1]][key[2]] = payload
        if checkpoint is not None:
            checkpoint.store(key, payload)
        report.computed.append(key)
        notify(key, "computed")

    def run_serial(keys: list[tuple]) -> None:
        for key in sorted(keys):  # "family" sorts first; relay steps ascend
            attempt = 0
            while True:
                attempt += 1
                try:
                    payload = run_local(key)
                    break
                except Exception as exc:
                    if attempt <= retries and _is_transient(exc):
                        time.sleep(_backoff(attempt))
                        continue
                    raise ShardError(key, exc) from exc
            complete(key, payload)

    todo = missing_jobs()
    if todo:
        n_workers = min(max(1, jobs), len(todo))
        if n_workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            native.load()  # workers inherit the loaded kernel
            _SHARD_CTX = (
                trace, program, layouts, chunk_events, plan, family_specs, chain_specs,
            )
            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
            try:
                attempts: dict[tuple, int] = {}
                in_flight: dict = {}
                submitted: set[tuple] = set()

                def try_submit() -> None:
                    for key in missing_jobs():
                        if key in submitted:
                            continue
                        if key[0] == "relay":
                            _, ci, s = key
                            if s > 0 and chain_payloads[ci][s - 1] is None:
                                continue  # predecessor still running
                            future = pool.submit(_worker_relay, ci, s, relay_input(ci, s))
                        else:
                            future = pool.submit(_worker_family, key[1])
                        attempts[key] = attempts.get(key, 0) + 1
                        in_flight[future] = key
                        submitted.add(key)

                try_submit()
                while in_flight:
                    done, not_done = wait(
                        set(in_flight), timeout=task_timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:  # stalled: nothing finished within the budget
                        for future in not_done:
                            future.cancel()
                        raise ShardTimeoutError(sorted(in_flight.values()), task_timeout)
                    for future in done:
                        key = in_flight.pop(future)
                        try:
                            payload = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:
                            if attempts[key] <= retries and _is_transient(exc):
                                submitted.discard(key)  # resubmit below
                                time.sleep(_backoff(attempts[key]))
                            else:
                                for pending in in_flight:
                                    pending.cancel()
                                raise ShardError(key, exc) from exc
                        else:
                            complete(key, payload)
                    try_submit()
            except BrokenProcessPool:
                report.degraded = True
                run_serial(missing_jobs())
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
                _SHARD_CTX = None
        else:
            run_serial(todo)

    _reconcile(family, family_payloads, chains, chain_payloads)
    return report
