"""The Table 3 / Table 4 evaluation suite.

One pass over (layout x geometry) computes everything both tables need:
fetch simulation per layout, vectorized miss counting per cache
configuration, trace-cache simulations for the TC columns. Results are
scalars, cached per workload settings — in memory and in the persistent
artifact cache — so Table 3, Table 4 and the headline module share the
work within and across processes.

The suite is decomposed into self-contained (layout x geometry) tasks,
and the engine executes them *fused*: tasks are grouped (at most
``_FUSE_LIMIT`` per group) and each group makes a single streaming pass
over the trace (:func:`repro.simulators.run_fused`) feeding every task's
incremental fetch/trace-cache streams and attached i-cache miss counters
at once — the trace is decoded and expanded once per group instead of
once per simulation, and peak memory stays one window regardless of group
size. With ``jobs > 1`` the groups fan out over a fork-based
:class:`~concurrent.futures.ProcessPoolExecutor` — the workload's trace
handles are shared copy-on-write, each worker returns only scalar
metrics, and assembly is deterministic, so parallel output is
bit-identical to serial (and to the unfused reference
:func:`_task_payload`). Platforms without ``fork`` (and ``jobs=1``) run
the same groups in-parent.

The engine is fault-tolerant and resumable:

* every completed task's payload is checkpointed through the artifact
  cache (kind ``suite-task``, keyed by the workload settings and task),
  so a crashed, killed, or partially-failed run resumes by recomputing
  only the missing tasks — and produces bit-identical results;
* transient worker failures (fork OOM, cache I/O) are retried with
  exponential backoff, bounded by ``retries``;
* a permanent task failure names the task (:class:`SuiteTaskError`),
  cancels pending work, and leaves every completed task checkpointed;
* ``task_timeout`` bounds how long a parallel run may go with no task
  completing — a stall raises :class:`SuiteTimeoutError` naming the
  still-running tasks instead of hanging forever;
* if the worker pool itself dies, the run degrades to in-parent serial
  execution of the remaining tasks;
* a :class:`~repro.experiments.runlog.RunLog` manifest records per-task
  timing, checkpoint provenance, retries, failures and cache counters.
"""

from __future__ import annotations

import multiprocessing
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import cache_enabled, default_cache
from repro.experiments.config import CACHE_CFA_GRID, KB
from repro.experiments.harness import get_workload, layouts_for, training_profile
from repro.experiments.runlog import RunLog
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheStream,
    count_misses,
    miss_counter,
    native,
    run_fused,
    simulate_fetch,
    simulate_trace_cache,
)
from repro.simulators.fetch import MISS_PENALTY_CYCLES
from repro.simulators.sharded import (
    ShardError,
    ShardTimeoutError,
    plan_shards,
    run_sharded,
)
from repro.tpcd.workload import Workload, WorkloadSettings
from repro.util.progress import Progress

__all__ = [
    "CellMetrics",
    "SuiteResults",
    "SuiteTaskError",
    "SuiteTimeoutError",
    "compute_suite",
    "get_suite",
    "suite_cache_key",
    "suite_for",
]


@dataclass
class CellMetrics:
    """One (geometry, layout) cell shared by Tables 3 and 4."""

    miss_rate: float  # misses per instruction, percent
    ipc: float  # fetch bandwidth with the 5-cycle miss penalty
    ideal_ipc: float
    run_length: float  # instructions between taken branches


@dataclass
class SuiteResults:
    n_instructions: int = 0
    #: (cache KB, CFA KB) -> layout name -> metrics
    cells: dict[tuple[int, int], dict[str, CellMetrics]] = field(default_factory=dict)
    #: cache KB -> miss rate % for the 2-way and victim variants (orig layout)
    assoc_miss: dict[int, float] = field(default_factory=dict)
    victim_miss: dict[int, float] = field(default_factory=dict)
    #: cache KB -> IPC for the 16 KB trace cache over the orig layout
    tc_ipc: dict[int, float] = field(default_factory=dict)
    tc_ideal: float = 0.0
    tc_hit_rate: float = 0.0
    #: (cache KB, CFA KB) -> IPC for trace cache + ops layout
    tc_ops_ipc: dict[tuple[int, int], float] = field(default_factory=dict)
    tc_ops_ideal: dict[tuple[int, int], float] = field(default_factory=dict)

    def ideal_range(self, layout: str) -> tuple[float, float]:
        values = [m[layout].ideal_ipc for m in self.cells.values() if layout in m]
        return (min(values), max(values)) if values else (0.0, 0.0)

    def run_length_of(self, layout: str, row: tuple[int, int] = (64, 16)) -> float:
        return self.cells[row][layout].run_length


def _cell(n: int, n_fetches: int, ideal_ipc: float, run_length: float, misses: int) -> CellMetrics:
    """Shared metric arithmetic for the per-config and fused paths."""
    cycles = n_fetches + MISS_PENALTY_CYCLES * misses
    return CellMetrics(
        miss_rate=100.0 * misses / n if n else 0.0,
        ipc=n / cycles if cycles else 0.0,
        ideal_ipc=ideal_ipc,
        run_length=run_length,
    )


def _metrics(fetch_result, cache_kb: int) -> CellMetrics:
    misses = count_misses(fetch_result.line_chunks, CacheConfig(size_bytes=cache_kb * KB))
    return _cell(
        fetch_result.n_instructions,
        fetch_result.n_fetches,
        fetch_result.ideal_ipc,
        fetch_result.instructions_between_taken,
        misses,
    )


def _tc_bandwidth(n_instructions: int, n_cycles_base: int, misses: int = 0) -> float:
    cycles = n_cycles_base + MISS_PENALTY_CYCLES * misses
    return n_instructions / cycles if cycles else 0.0


# -- task decomposition --------------------------------------------------
#
# A task is a self-contained simulation returning a small scalar payload:
#   ("base", name)  — fetch simulation of a geometry-independent layout,
#                     metrics per cache size (+ 2-way/victim for "orig")
#   ("tc", "orig")  — trace cache over the original layout
#   ("row", row)    — Torr/auto/ops fetch simulations for one grid row
#   ("tc_ops", row) — trace cache over the ops layout for one grid row

_Task = tuple[str, object]


def _suite_tasks(grid, tc_rows) -> list[_Task]:
    """Canonical task order, arranged so that tasks sharing a layout
    (base/tc over ``orig``, row/tc_ops over one geometry) sit next to
    each other — the fused engine groups contiguous tasks, and adjacent
    tasks of one layout share its per-window expansion."""
    if not grid:  # empty grid: nothing to simulate, not even the bases
        return []
    tasks: list[_Task] = [("base", "orig"), ("tc", "orig"), ("base", "P&H")]
    tc_set = set(tc_rows)
    for row in grid:
        tasks.append(("row", row))
        if row in tc_set:
            tasks.append(("tc_ops", row))
    grid_set = set(grid)
    tasks.extend(("tc_ops", row) for row in tc_rows if row not in grid_set)
    return tasks


def _task_label(task: _Task) -> str:
    kind, arg = task
    if kind == "base":
        return f"fetch simulation: {arg}"
    if kind == "tc":
        return "trace cache: orig layout"
    if kind == "row":
        return "fetch simulations: Torr/auto/ops {}/{}".format(*arg)
    return "trace cache: ops layout {}/{}".format(*arg)


def _task_payload(workload: Workload, task: _Task, grid, cache_sizes) -> dict:
    kind, arg = task
    trace = workload.test_trace
    program = workload.program
    if kind == "base":
        layout = layouts_for(workload, grid[0][0], grid[0][1], names=(arg,))[arg]
        fr = simulate_fetch(trace, program, layout)
        payload = {
            "n_instructions": fr.n_instructions,
            "per_cache": {c: _metrics(fr, c) for c in cache_sizes},
        }
        if arg == "orig":
            n = fr.n_instructions
            assoc: dict[int, float] = {}
            victim: dict[int, float] = {}
            for c in cache_sizes:
                a = count_misses(fr.line_chunks, CacheConfig(size_bytes=c * KB, associativity=2))
                v = count_misses(fr.line_chunks, CacheConfig(size_bytes=c * KB, victim_lines=16))
                assoc[c] = 100.0 * a / n
                victim[c] = 100.0 * v / n
            payload["assoc"] = assoc
            payload["victim"] = victim
        return payload
    if kind == "tc":
        layout = layouts_for(workload, grid[0][0], grid[0][1], names=("orig",))["orig"]
        tc = simulate_trace_cache(trace, program, layout)
        return {
            "ideal": tc.bandwidth(None),
            "hit_rate": tc.hit_rate,
            "ipc": {c: tc.bandwidth(CacheConfig(size_bytes=c * KB)) for c in cache_sizes},
        }
    if kind == "row":
        cache_kb, cfa_kb = arg
        layouts = layouts_for(workload, cache_kb, cfa_kb, names=("Torr", "auto", "ops"))
        cells: dict[str, CellMetrics] = {}
        for name in ("Torr", "auto", "ops"):
            fr = simulate_fetch(trace, program, layouts[name])
            cells[name] = _metrics(fr, cache_kb)
            del fr
        return cells
    if kind == "tc_ops":
        cache_kb, cfa_kb = arg
        layout = layouts_for(workload, cache_kb, cfa_kb, names=("ops",))["ops"]
        tc = simulate_trace_cache(trace, program, layout)
        return {
            "ipc": tc.bandwidth(CacheConfig(size_bytes=cache_kb * KB)),
            "ideal": tc.bandwidth(None),
        }
    raise ValueError(f"unknown suite task {task!r}")


# -- fused execution -----------------------------------------------------
#
# The engine does not run tasks one simulation at a time: tasks are
# grouped and each group makes a *single* pass over the trace
# (repro.simulators.run_fused), with every task contributing incremental
# streams whose i-cache configurations are attached miss counters. The
# per-task payloads are assembled from the stream counters with the same
# arithmetic as _task_payload, so they are bit-identical to the
# one-simulation-per-task path (which remains above as the reference
# implementation, exercised by the equivalence tests).

#: Upper bound on tasks fused into one trace pass. Groups stay small so
#: retry, stall detection and checkpointing keep useful granularity.
_FUSE_LIMIT = 8


def _unit_for(workload: Workload, task: _Task, grid, cache_sizes, layout_memo=None):
    """Build one task's fused streams and payload finalizer.

    Returns ``(pairs, finalize)``: ``pairs`` are the ``(layout, stream)``
    contributions to the fused pass, ``finalize()`` assembles the task
    payload from the stream counters afterwards. ``layout_memo`` shares
    layout objects across the units of one group, which lets the fused
    driver share their per-window expansion as well.
    """
    kind, arg = task
    memo = layout_memo if layout_memo is not None else {}

    def layout_of(name: str, cache_kb: int, cfa_kb: int):
        key = (name, cache_kb, cfa_kb)
        if key not in memo:
            memo[key] = layouts_for(workload, cache_kb, cfa_kb, names=(name,))[name]
        return memo[key]

    if kind == "base":
        layout = layout_of(arg, grid[0][0], grid[0][1])
        counters = {c: miss_counter(CacheConfig(size_bytes=c * KB)) for c in cache_sizes}
        consumers = list(counters.values())
        if arg == "orig":
            assoc = {
                c: miss_counter(CacheConfig(size_bytes=c * KB, associativity=2))
                for c in cache_sizes
            }
            victim = {
                c: miss_counter(CacheConfig(size_bytes=c * KB, victim_lines=16))
                for c in cache_sizes
            }
            consumers += list(assoc.values()) + list(victim.values())
        stream = FetchStream(layout.name, consumers=consumers)

        def finalize() -> dict:
            n = stream.n_instructions
            fetches = stream.n_fetches
            ideal = n / fetches if fetches else 0.0
            run_length = n / stream.n_taken if stream.n_taken else float("inf")
            payload = {
                "n_instructions": n,
                "per_cache": {
                    c: _cell(n, fetches, ideal, run_length, counters[c].misses)
                    for c in cache_sizes
                },
            }
            if arg == "orig":
                payload["assoc"] = {c: 100.0 * assoc[c].misses / n for c in cache_sizes}
                payload["victim"] = {c: 100.0 * victim[c].misses / n for c in cache_sizes}
            return payload

        return [(layout, stream)], finalize

    if kind == "tc":
        layout = layout_of("orig", grid[0][0], grid[0][1])
        counters = {c: miss_counter(CacheConfig(size_bytes=c * KB)) for c in cache_sizes}
        stream = TraceCacheStream(layout.name, consumers=list(counters.values()))

        def finalize() -> dict:
            n = stream.n_instructions
            attempts = stream.n_hits + stream.n_misses
            return {
                "ideal": _tc_bandwidth(n, stream.n_cycles_base),
                "hit_rate": stream.n_hits / attempts if attempts else 0.0,
                "ipc": {
                    c: _tc_bandwidth(n, stream.n_cycles_base, counters[c].misses)
                    for c in cache_sizes
                },
            }

        return [(layout, stream)], finalize

    if kind == "row":
        cache_kb, cfa_kb = arg
        streams: dict[str, tuple[FetchStream, object]] = {}
        pairs = []
        for name in ("Torr", "auto", "ops"):
            layout = layout_of(name, cache_kb, cfa_kb)
            counter = miss_counter(CacheConfig(size_bytes=cache_kb * KB))
            stream = FetchStream(layout.name, consumers=[counter])
            streams[name] = (stream, counter)
            pairs.append((layout, stream))

        def finalize() -> dict:
            cells: dict[str, CellMetrics] = {}
            for name, (stream, counter) in streams.items():
                n = stream.n_instructions
                fetches = stream.n_fetches
                ideal = n / fetches if fetches else 0.0
                run_length = n / stream.n_taken if stream.n_taken else float("inf")
                cells[name] = _cell(n, fetches, ideal, run_length, counter.misses)
            return cells

        return pairs, finalize

    if kind == "tc_ops":
        cache_kb, cfa_kb = arg
        layout = layout_of("ops", cache_kb, cfa_kb)
        counter = miss_counter(CacheConfig(size_bytes=cache_kb * KB))
        stream = TraceCacheStream(layout.name, consumers=[counter])

        def finalize() -> dict:
            n = stream.n_instructions
            return {
                "ipc": _tc_bandwidth(n, stream.n_cycles_base, counter.misses),
                "ideal": _tc_bandwidth(n, stream.n_cycles_base),
            }

        return [(layout, stream)], finalize

    raise ValueError(f"unknown suite task {task!r}")


def _run_group(workload: Workload, group, grid, cache_sizes):
    """One fused pass over the trace for a group of tasks.

    Returns ``(payloads, errors)`` keyed by task. A failure while
    building one task's unit (layout construction) is isolated to that
    task; a failure during the shared trace pass fails every task whose
    unit made it into the pass (none of their streams can be trusted).
    """
    payloads: dict[_Task, dict] = {}
    errors: dict[_Task, BaseException] = {}
    memo: dict = {}
    units = []
    for task in group:
        try:
            pairs, finalize = _unit_for(workload, task, grid, cache_sizes, memo)
        except Exception as exc:
            errors[task] = exc
            continue
        units.append((task, pairs, finalize))
    if units:
        try:
            run_fused(
                workload.test_trace,
                workload.program,
                [pair for _, pairs, _ in units for pair in pairs],
            )
        except Exception as exc:
            for task, _, _ in units:
                errors[task] = exc
            return payloads, errors
    for task, _, finalize in units:
        try:
            payloads[task] = finalize()
        except Exception as exc:
            errors[task] = exc
    return payloads, errors


def _split_groups(tasks, n_groups: int):
    """Contiguous, near-even split of the canonical task order."""
    n = len(tasks)
    n_groups = max(1, min(n_groups, n))
    base, rem = divmod(n, n_groups)
    out, start = [], 0
    for g in range(n_groups):
        size = base + (1 if g < rem else 0)
        out.append(list(tasks[start : start + size]))
        start += size
    return out


def _assemble(grid, tc_rows, results: dict[_Task, dict]) -> SuiteResults:
    """Deterministic assembly: iterates tasks in canonical order, so the
    result is independent of parallel completion order."""
    res = SuiteResults()
    if not results:
        return res
    base_orig = results[("base", "orig")]
    res.n_instructions = base_orig["n_instructions"]
    for name in ("orig", "P&H"):
        per_cache = results[("base", name)]["per_cache"]
        for row in grid:
            res.cells.setdefault(row, {})[name] = per_cache[row[0]]
    res.assoc_miss = dict(base_orig["assoc"])
    res.victim_miss = dict(base_orig["victim"])
    tc = results[("tc", "orig")]
    res.tc_ideal = tc["ideal"]
    res.tc_hit_rate = tc["hit_rate"]
    res.tc_ipc = dict(tc["ipc"])
    for row in grid:
        for name, cell in results[("row", row)].items():
            res.cells.setdefault(row, {})[name] = cell
    for row in tc_rows:
        payload = results[("tc_ops", row)]
        res.tc_ops_ipc[row] = payload["ipc"]
        res.tc_ops_ideal[row] = payload["ideal"]
    return res


# -- fault tolerance -----------------------------------------------------

class SuiteTaskError(RuntimeError):
    """A suite task failed permanently.

    Completed tasks remain checkpointed in the artifact cache, so a
    re-run with ``resume=True`` recomputes only what is missing.
    """

    def __init__(self, task: _Task, label: str, cause: BaseException) -> None:
        super().__init__(f"suite task failed: {label}: {cause!r}")
        self.task = task
        self.label = label
        self.cause = cause


class SuiteTimeoutError(RuntimeError):
    """No task completed within ``task_timeout`` seconds of the last one."""

    def __init__(self, labels: list[str], timeout: float) -> None:
        super().__init__(
            f"no suite task completed in {timeout:.1f}s; still running: {', '.join(labels)}"
        )
        self.labels = labels
        self.timeout = timeout


#: Failure classes worth retrying: environmental pressure (fork OOM,
#: cache/trace I/O hiccups) rather than deterministic bugs in a task.
_TRANSIENT_EXCEPTIONS = (OSError, MemoryError, EOFError)

_RETRY_BACKOFF_SECONDS = 0.05


def _is_transient(exc: BaseException) -> bool:
    return isinstance(exc, _TRANSIENT_EXCEPTIONS)


def _backoff(attempt: int) -> float:
    return _RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))


def _task_key(settings: WorkloadSettings, cache_sizes, task: _Task) -> tuple:
    """Checkpoint address of one task's payload.

    ``row``/``tc_ops`` payloads depend only on their own grid row, so
    their checkpoints are shared across grids (a ``--quick`` run seeds
    the full-grid run). ``base``/``tc`` payloads carry per-cache-size
    tables and key on the grid's cache sizes as well.
    """
    if task[0] in ("base", "tc"):
        return (settings, tuple(cache_sizes), task)
    return (settings, task)


# Worker context for fork-based pools: set in the parent immediately before
# the fork so children inherit the workload (and its trace arrays)
# copy-on-write instead of receiving pickled copies.
_WORKER_CTX: tuple | None = None


def _worker_run_group(group):
    workload, grid, cache_sizes = _WORKER_CTX
    payloads, errors = _run_group(workload, group, grid, cache_sizes)
    return payloads, list(errors.items())


def _run_serial(workload, grid, cache_sizes, tasks, retries, on_done, runlog, prog) -> None:
    """In-parent fused execution with bounded retry for transient failures.

    Tasks run in groups of at most ``_FUSE_LIMIT``, each group one pass
    over the trace. Tasks that fail transiently are re-run together as a
    follow-up group; a permanent failure raises after the group's
    successful tasks have been delivered (and checkpointed).
    """
    attempts = {task: 0 for task in tasks}
    queue = [list(tasks[i : i + _FUSE_LIMIT]) for i in range(0, len(tasks), _FUSE_LIMIT)]
    while queue:
        group = queue.pop(0)
        for task in group:
            attempts[task] += 1
        t0 = time.perf_counter()
        payloads, errors = _run_group(workload, group, grid, cache_sizes)
        share = (time.perf_counter() - t0) / max(1, len(group))
        for task in group:
            if task in payloads:
                on_done(task, payloads[task], share, attempts[task])
        retry_group = []
        for task, exc in errors.items():
            label = _task_label(task)
            if attempts[task] <= retries and _is_transient(exc):
                runlog.task_retry(label, exc, attempts[task])
                prog.fail(f"{label}: {exc!r} (attempt {attempts[task]}, retrying)")
                retry_group.append(task)
            else:
                runlog.task_failed(label, task[0], exc, attempts[task])
                prog.fail(f"{label}: {exc!r}")
                raise SuiteTaskError(task, label, exc) from exc
        if retry_group:
            time.sleep(_backoff(max(attempts[task] for task in retry_group)))
            queue.insert(0, retry_group)


def _run_parallel(
    workload, grid, cache_sizes, tasks, n_workers, task_timeout, retries, on_done, runlog, prog
) -> list[_Task]:
    """Fan fused task groups over a fork pool; returns tasks left undone
    by pool death.

    The canonical task order is split contiguously into at least
    ``n_workers`` groups (and enough that no group exceeds
    ``_FUSE_LIMIT``); each worker runs its group as one fused pass.
    A permanent task failure cancels everything pending and raises
    :class:`SuiteTaskError`; transient failures are resubmitted with
    backoff as single-task groups. ``task_timeout`` is a stall bound: if
    *no* group completes for that long, the pending work is cancelled and
    :class:`SuiteTimeoutError` names the still-running tasks. If the pool
    itself breaks (a worker died hard), the unfinished tasks are returned
    for in-parent serial execution instead of failing the run.
    """
    global _WORKER_CTX
    _WORKER_CTX = (workload, grid, cache_sizes)
    completed: set[_Task] = set()
    ctx = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
    try:
        n_groups = max(n_workers, -(-len(tasks) // _FUSE_LIMIT))
        group_of = {
            pool.submit(_worker_run_group, group): group
            for group in _split_groups(tasks, n_groups)
        }
        attempts = {task: 1 for task in tasks}
        started = {task: time.perf_counter() for task in tasks}
        pending = set(group_of)
        while pending:
            done, not_done = wait(pending, timeout=task_timeout, return_when=FIRST_COMPLETED)
            if not done:  # stalled: nothing finished within the budget
                labels = sorted(
                    _task_label(task) for f in not_done for task in group_of[f]
                )
                for f in not_done:
                    f.cancel()
                runlog.event("stall", tasks=labels, timeout=task_timeout)
                prog.fail(f"stalled {task_timeout:.1f}s waiting on: {', '.join(labels)}")
                raise SuiteTimeoutError(labels, task_timeout)
            for future in done:
                pending.discard(future)
                group = group_of.pop(future)
                try:
                    payloads, errors = future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool):
                        raise  # pool is gone: degrade to serial below
                    # the whole group failed in transit (e.g. the result
                    # did not unpickle): treat every task as errored
                    payloads, errors = {}, [(task, exc) for task in group]
                for task in group:
                    if task in payloads:
                        completed.add(task)
                        on_done(
                            task,
                            payloads[task],
                            time.perf_counter() - started[task],
                            attempts[task],
                        )
                for task, exc in errors:
                    label = _task_label(task)
                    if attempts[task] <= retries and _is_transient(exc):
                        runlog.task_retry(label, exc, attempts[task])
                        prog.fail(f"{label}: {exc!r} (attempt {attempts[task]}, retrying)")
                        time.sleep(_backoff(attempts[task]))
                        attempts[task] += 1
                        started[task] = time.perf_counter()
                        retry = pool.submit(_worker_run_group, [task])
                        group_of[retry] = [task]
                        pending.add(retry)
                    else:
                        for f in pending:
                            f.cancel()
                        runlog.task_failed(label, task[0], exc, attempts[task])
                        prog.fail(f"{label}: {exc!r}")
                        raise SuiteTaskError(task, label, exc) from exc
        return []
    except BrokenProcessPool as exc:
        remaining = [t for t in tasks if t not in completed]
        runlog.event("pool-broken", error=repr(exc), remaining=len(remaining))
        prog.fail(f"worker pool died ({exc!r}); running {len(remaining)} tasks serially")
        return remaining
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        _WORKER_CTX = None


class _ShardCheckpoint:
    """Adapter scoping :func:`run_sharded` job checkpoints into the
    artifact cache (kind ``suite-shard``).

    The prefix pins everything a shard payload depends on — workload
    settings, cache sizes, the exact task set (stream composition; suite
    streams always start cold) and the shard plan — so resumed runs only
    ever reuse payloads that are bit-identical to a fresh computation.
    """

    def __init__(self, cache, prefix: tuple) -> None:
        self._cache = cache
        self._prefix = prefix

    def load(self, key: tuple):
        return self._cache.load("suite-shard", self._prefix + (key,))

    def store(self, key: tuple, payload) -> None:
        self._cache.store("suite-shard", self._prefix + (key,), payload)


def _run_sharded_suite(
    workload, grid, cache_sizes, tasks, settings, shards, jobs,
    task_timeout, retries, on_done, runlog, prog, cache,
):
    """Run every missing task in one shard-parallel pass over the trace.

    All tasks' fused streams join a single :func:`run_sharded` call, so
    the checkpoint/retry/resume unit is the *shard job* rather than the
    task: an interrupted run recomputes only the missing shard jobs and
    relay steps. Payloads are finalized from the stitched streams with
    the same arithmetic as the fused path, so results are bit-identical
    for any shard/worker combination.
    """
    trace = workload.test_trace
    memo: dict = {}
    units = []
    for task in tasks:
        try:
            pairs, finalize = _unit_for(workload, task, grid, cache_sizes, memo)
        except Exception as exc:
            label = _task_label(task)
            runlog.task_failed(label, task[0], exc, 1)
            prog.fail(f"{label}: {exc!r}")
            raise SuiteTaskError(task, label, exc) from exc
        units.append((task, pairs, finalize))
    all_pairs = [pair for _, pairs, _ in units for pair in pairs]
    plan = plan_shards(len(trace), shards=shards)
    runlog.event(
        "shard-plan",
        shards=plan.n_shards,
        chunk_events=plan.chunk_events,
        bounds=list(plan.bounds),
    )
    checkpoint = None
    if cache is not None:
        prefix = (settings, tuple(cache_sizes), tuple(tasks), plan.signature())
        checkpoint = _ShardCheckpoint(cache, prefix)

    def on_job(key: tuple, source: str) -> None:
        runlog.event("shard-job", job=list(key), source=source)

    t0 = time.perf_counter()
    try:
        report = run_sharded(
            trace, workload.program, all_pairs,
            shards=plan, jobs=jobs, retries=retries,
            task_timeout=task_timeout, checkpoint=checkpoint, on_job=on_job,
        )
    except ShardTimeoutError as exc:
        labels = [repr(key) for key in exc.keys]
        runlog.event("stall", tasks=labels, timeout=exc.timeout)
        prog.fail(f"stalled {exc.timeout:.1f}s waiting on: {', '.join(labels)}")
        raise SuiteTimeoutError(labels, exc.timeout) from exc
    except ShardError as exc:
        label = f"shard job {exc.key!r}"
        runlog.task_failed(label, "shard", exc.cause, 1)
        prog.fail(f"{label}: {exc.cause!r}")
        raise SuiteTaskError(("shard", exc.key), label, exc.cause) from exc
    if report.degraded:
        runlog.event("pool-broken", remaining=0)
    share = (time.perf_counter() - t0) / max(1, len(units))
    for task, _, finalize in units:
        on_done(task, finalize(), share, 1)
    return report


def compute_suite(
    workload: Workload,
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID,
    *,
    tc_rows: tuple[tuple[int, int], ...] | None = None,
    progress: bool = False,
    jobs: int = 1,
    shards: int | None = None,
    resume: bool = True,
    task_timeout: float | None = None,
    retries: int = 2,
    manifest: Path | str | None = None,
) -> SuiteResults:
    """Evaluate all layouts over the grid on the Test-set trace.

    ``jobs > 1`` fans the (layout x geometry) tasks out over worker
    processes (fork platforms only); results are bit-identical to serial.
    ``shards > 1`` switches the axis of parallelism from tasks to *trace
    spans*: every missing task joins one shard-parallel pass
    (:func:`repro.simulators.run_sharded`) whose shard jobs fan out over
    ``jobs`` workers — still bit-identical, and the checkpoint/retry/
    resume unit becomes the shard job instead of the task.

    With ``resume=True`` (the default) each completed task is
    checkpointed in the artifact cache and an interrupted or failed run
    picks up where it left off; ``retries`` bounds per-task retry of
    transient failures, ``task_timeout`` bounds how long a parallel run
    may sit with no task completing, and ``manifest`` names a JSON file
    to receive the structured run log (written on success *and* failure).
    """
    tc_rows = grid if tc_rows is None else tc_rows
    cache_sizes = sorted({c for c, _ in grid})
    tasks = _suite_tasks(grid, tc_rows)
    settings = workload.settings
    cache = default_cache()
    checkpointing = resume and settings is not None and cache_enabled()
    prog = Progress("suite", total=len(tasks), enabled=progress)
    runlog = RunLog(
        "suite",
        settings=settings,
        jobs=jobs,
        resume=resume,
        task_timeout=task_timeout,
        retries=retries,
        n_tasks=len(tasks),
        cache=cache,
    )
    # build or load the simulator kernel here, before any worker forks,
    # so workers inherit it; the manifest names the backend that ran
    runlog.data["simulator_backend"] = native.status()

    results: dict[_Task, dict] = {}
    if checkpointing:
        for task in tasks:
            payload = cache.load("suite-task", _task_key(settings, cache_sizes, task))
            if payload is not None:
                results[task] = payload
                runlog.task_done(
                    _task_label(task), task[0], seconds=0.0, attempts=0, source="checkpoint"
                )
                prog.step(f"{_task_label(task)} [checkpoint]")

    def on_done(task: _Task, payload: dict, seconds: float, attempts: int) -> None:
        results[task] = payload
        if checkpointing:
            cache.store("suite-task", _task_key(settings, cache_sizes, task), payload)
        runlog.task_done(
            _task_label(task), task[0], seconds=seconds, attempts=attempts, source="computed"
        )
        prog.step(_task_label(task))

    missing = [t for t in tasks if t not in results]
    try:
        if missing:
            # profile once in the parent: workers inherit it copy-on-write
            training_profile(workload)
            if shards is not None and shards > 1:
                _run_sharded_suite(
                    workload, grid, cache_sizes, missing, settings, shards, jobs,
                    task_timeout, retries, on_done, runlog, prog,
                    cache if checkpointing else None,
                )
            elif (
                min(max(1, jobs), len(missing)) > 1
                and "fork" in multiprocessing.get_all_start_methods()
            ):
                n_workers = min(max(1, jobs), len(missing))
                remaining = _run_parallel(
                    workload, grid, cache_sizes, missing, n_workers,
                    task_timeout, retries, on_done, runlog, prog,
                )
                if remaining:  # pool died: finish in-parent
                    _run_serial(
                        workload, grid, cache_sizes, remaining, retries, on_done, runlog, prog
                    )
            else:
                _run_serial(
                    workload, grid, cache_sizes, missing, retries, on_done, runlog, prog
                )
    except BaseException as exc:
        runlog.finish(status="failed", error=repr(exc))
        if manifest is not None:
            runlog.write(manifest)
        raise
    prog.done()
    runlog.finish(status="completed")
    if manifest is not None:
        runlog.write(manifest)
    return _assemble(grid, tc_rows, results)


# -- caching -------------------------------------------------------------

_SUITES: dict[tuple, SuiteResults] = {}
_SUITES_ADHOC: "weakref.WeakKeyDictionary[Workload, dict]" = weakref.WeakKeyDictionary()


def suite_cache_key(settings: WorkloadSettings, grid, tc_rows=None) -> tuple:
    """The artifact-cache address of a full suite result.

    Public so other consumers of the engine (``repro.serve`` job dedupe)
    can probe for finished suites at exactly the address this module
    stores them under — a batch CLI run warms the service and vice versa.
    """
    return (settings, tuple(grid), tuple(grid if tc_rows is None else tc_rows))


def _suite_key(settings: WorkloadSettings, grid, tc_rows) -> tuple:
    return suite_cache_key(settings, grid, tc_rows)


def _write_cached_manifest(manifest: Path | str, settings, source: str) -> None:
    """A full-suite cache hit still documents the run when asked to."""
    runlog = RunLog("suite", settings=settings, n_tasks=0, cache=default_cache())
    runlog.event("suite-cache-hit", source=source)
    runlog.finish(status="cached")
    runlog.write(manifest)


def get_suite(
    workload: Workload,
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID,
    *,
    tc_rows: tuple[tuple[int, int], ...] | None = None,
    progress: bool = False,
    jobs: int = 1,
    shards: int | None = None,
    resume: bool = True,
    task_timeout: float | None = None,
    retries: int = 2,
    manifest: Path | str | None = None,
) -> SuiteResults:
    """Cached :func:`compute_suite`.

    Settings-stamped workloads key by their :class:`WorkloadSettings` (in
    memory and in the artifact cache); ad-hoc workloads key by instance —
    never by ``id()``, which the garbage collector reuses. ``shards`` and
    ``jobs`` only affect how a miss is computed, never the cache key:
    sharded results are bit-identical to fused ones.
    """
    tc_rows = grid if tc_rows is None else tc_rows
    settings = workload.settings
    fault_kwargs = dict(
        shards=shards, resume=resume, task_timeout=task_timeout, retries=retries
    )
    if settings is None:
        per_workload = _SUITES_ADHOC.setdefault(workload, {})
        key = (grid, tc_rows)
        if key not in per_workload:
            per_workload[key] = compute_suite(
                workload, grid, tc_rows=tc_rows, progress=progress, jobs=jobs,
                manifest=manifest, **fault_kwargs,
            )
        return per_workload[key]

    key = _suite_key(settings, grid, tc_rows)
    if key not in _SUITES:
        cache = default_cache()
        suite = cache.load("suite", key)
        if not isinstance(suite, SuiteResults):
            suite = compute_suite(
                workload, grid, tc_rows=tc_rows, progress=progress, jobs=jobs,
                manifest=manifest, **fault_kwargs,
            )
            cache.store("suite", key, suite)
        elif manifest is not None:
            _write_cached_manifest(manifest, settings, "disk")
        _SUITES[key] = suite
    elif manifest is not None:
        _write_cached_manifest(manifest, settings, "memory")
    return _SUITES[key]


def suite_for(
    settings: WorkloadSettings,
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID,
    *,
    tc_rows: tuple[tuple[int, int], ...] | None = None,
    progress: bool = False,
    jobs: int = 1,
    shards: int | None = None,
    resume: bool = True,
    task_timeout: float | None = None,
    retries: int = 2,
    manifest: Path | str | None = None,
) -> SuiteResults:
    """Disk-first suite lookup: a warm artifact-cache hit returns without
    building the workload at all."""
    tc_rows_n = grid if tc_rows is None else tc_rows
    key = _suite_key(settings, grid, tc_rows_n)
    if key in _SUITES:
        if manifest is not None:
            _write_cached_manifest(manifest, settings, "memory")
        return _SUITES[key]
    suite = default_cache().load("suite", key)
    if isinstance(suite, SuiteResults):
        _SUITES[key] = suite
        if manifest is not None:
            _write_cached_manifest(manifest, settings, "disk")
        return suite
    workload = get_workload(settings)
    return get_suite(
        workload, grid, tc_rows=tc_rows, progress=progress, jobs=jobs,
        shards=shards, resume=resume, task_timeout=task_timeout,
        retries=retries, manifest=manifest,
    )
