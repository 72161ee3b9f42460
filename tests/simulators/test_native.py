"""The native simulator kernel and its loader.

* a Hypothesis **property**: on generated programs, layouts and traces,
  the native kernel, the NumPy/Python fallback and the loop-literal
  oracles agree on every counter, line stream and piece of carried state;
* carried state is **backend-agnostic**: a stream fed half a trace on one
  backend resumes on the other from ``state_dict()`` bit-identically;
* the ctypes **wrappers** refuse arrays that are unsafe to pass as raw
  pointers;
* the **loader** falls back (and says why) when the compiler is missing
  or fails, rebuilds a damaged cached artifact, leaves one valid artifact
  when two processes build at once, and is loaded once in the parent
  before ``compute_suite`` forks its workers.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import PRIMARY_ROWS
from repro.experiments.harness import get_workload
from repro.experiments.suite import compute_suite
from repro.serve.codec import result_digest, serialize_suite
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheConfig,
    TraceCacheStream,
    miss_counter,
    native,
    run_fused,
)
from repro.simulators.fetch import _Chunk
from repro.tpcd.workload import WorkloadSettings
from repro.validate.generators import random_layout, random_program, random_trace
from repro.validate.oracles import (
    oracle_direct_mapped,
    oracle_fetch,
    oracle_trace_cache,
    oracle_two_way_lru,
    oracle_victim,
)

SRC = Path(__file__).resolve().parents[2] / "src"

@pytest.fixture(scope="module")
def need_native():
    if native.load() is None:
        pytest.skip(f"native kernel unavailable: {native.status()['reason']}")


requires_native = pytest.mark.usefixtures("need_native")


def _oracle_misses(lines, config):
    if config.victim_lines:
        return oracle_victim(lines, config)
    if config.associativity == 2:
        return oracle_two_way_lru(lines, config)
    return oracle_direct_mapped(lines, config)


def _configs(line_bytes, sets, victim_lines):
    return [
        CacheConfig(size_bytes=sets * line_bytes, line_bytes=line_bytes),
        CacheConfig(size_bytes=2 * sets * line_bytes, line_bytes=line_bytes, associativity=2),
        CacheConfig(size_bytes=sets * line_bytes, line_bytes=line_bytes, victim_lines=victim_lines),
    ]


def _run(backend, case, chunk_events):
    """Fused fetch + trace-cache pass on ``backend``; every observable."""
    program, layout, trace, configs, tc_config = case
    line_bytes = configs[0].line_bytes
    fetch_counters = [miss_counter(c) for c in configs]
    tc_counters = [miss_counter(c) for c in configs]
    fetch = FetchStream(
        layout.name, line_bytes=line_bytes, consumers=fetch_counters, collect_lines=True
    )
    tc = TraceCacheStream(
        layout.name, tc_config, line_bytes=line_bytes, consumers=tc_counters, collect_lines=True
    )
    with native.use(backend):
        run_fused(trace, program, [(layout, fetch), (layout, tc)], chunk_events=chunk_events)
    lines = np.concatenate(fetch.line_chunks).tolist() if fetch.line_chunks else []
    miss_lines = np.concatenate(tc.miss_line_chunks).tolist() if tc.miss_line_chunks else []
    return {
        "fetch": (fetch.n_instructions, fetch.n_fetches, fetch.n_taken),
        "lines": lines,
        "tc": (tc.n_instructions, tc.n_hits, tc.n_misses, tc.n_taken),
        "miss_lines": miss_lines,
        "misses": [c.misses for c in fetch_counters + tc_counters],
        "state": [c.state_dict() for c in fetch_counters + tc_counters] + [tc.state_dict()],
    }


def _assert_state_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_state_equal(a[key], b[key])
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_state_equal(x, y)
    else:
        assert a == b


@requires_native
@given(
    seed=st.integers(0, 2**32 - 1),
    line_bytes=st.sampled_from([16, 32, 64]),
    sets=st.sampled_from([4, 8, 32]),
    victim_lines=st.sampled_from([1, 4, 16]),
    n_entries=st.integers(4, 256),
    trace_instructions=st.sampled_from([8, 16]),
    branch_limit=st.sampled_from([2, 3]),
    chunk_events=st.sampled_from([1, 2, 3, 7, 64, 1_000_000]),
)
@settings(max_examples=40, deadline=None)
def test_native_matches_fallback_and_oracles(
    seed, line_bytes, sets, victim_lines, n_entries, trace_instructions, branch_limit,
    chunk_events,
):
    rng = np.random.default_rng(seed)
    program = random_program(rng)
    layout = random_layout(rng, program)
    trace = random_trace(rng, program)
    configs = _configs(line_bytes, sets, victim_lines)
    tc_config = TraceCacheConfig(
        n_entries=n_entries, trace_instructions=trace_instructions, branch_limit=branch_limit
    )
    case = (program, layout, trace, configs, tc_config)
    fast = _run("native", case, chunk_events)
    slow = _run("python", case, chunk_events)
    for key in ("fetch", "lines", "tc", "miss_lines", "misses"):
        assert fast[key] == slow[key], key
    _assert_state_equal(fast["state"], slow["state"])

    ora = oracle_fetch(trace, program, layout, line_bytes=line_bytes, chunk_events=chunk_events)
    assert fast["fetch"] == (ora.n_instructions, ora.n_fetches, ora.n_taken)
    assert fast["lines"] == ora.lines
    ora_tc = oracle_trace_cache(
        trace, program, layout, tc_config, line_bytes=line_bytes, chunk_events=chunk_events
    )
    assert fast["tc"] == (ora_tc.n_instructions, ora_tc.n_hits, ora_tc.n_misses, ora_tc.n_taken)
    assert fast["miss_lines"] == ora_tc.miss_lines
    expected = [_oracle_misses(ora.lines, c) for c in configs]
    expected += [_oracle_misses(ora_tc.miss_lines, c) for c in configs]
    assert fast["misses"] == expected


@requires_native
@pytest.mark.parametrize("capacity", [1, 4, 16])
def test_full_victim_buffer_matches_across_backends(capacity):
    """Streams over many conflicting lines fill the buffer; both backends
    then carry the same buffer, in the same LRU order, and agree with the
    oracle chunk by chunk."""
    rng = np.random.default_rng(capacity)
    config = CacheConfig(size_bytes=4 * 32, victim_lines=capacity)
    lines = rng.integers(0, 4 * (capacity + 8), size=3000)
    chunks = np.array_split(lines, 7)
    counters = {}
    for backend in ("native", "python"):
        counter = miss_counter(config)
        with native.use(backend):
            for chunk in chunks:
                counter.feed(chunk)
        counters[backend] = counter
    assert counters["native"].misses == oracle_victim(lines.tolist(), config)
    state = counters["native"].state_dict()
    assert len(state["victim"]) == capacity
    _assert_state_equal(state, counters["python"].state_dict())


@pytest.mark.parametrize("backend", ["native", "python"])
def test_empty_chunks_change_nothing(backend):
    if backend not in native.available_backends():
        pytest.skip("native kernel unavailable")
    empty = _Chunk(
        addr=np.empty(0, dtype=np.int64),
        is_branch=np.empty(0, dtype=bool),
        is_taken=np.empty(0, dtype=bool),
        last=True,
    )
    counters = [miss_counter(c) for c in _configs(32, 4, 4)]
    fetch = FetchStream("x", consumers=counters, collect_lines=True)
    tc = TraceCacheStream("x", TraceCacheConfig(n_entries=8))
    before = tc.state_dict()
    with native.use(backend):
        fetch.feed(empty)
        tc.feed(empty)
        for counter in counters:
            counter.feed(np.empty(0, dtype=np.int64))
    assert (fetch.n_instructions, fetch.n_fetches) == (0, 0)
    assert fetch.line_chunks[0].size == 0
    assert [c.misses for c in counters] == [0, 0, 0]
    assert (tc.n_hits, tc.n_misses) == (0, 0)
    _assert_state_equal(tc.state_dict(), before)


# -- backend-agnostic carried state -----------------------------------------


def _resume_case():
    rng = np.random.default_rng(7)
    program = random_program(rng)
    layout = random_layout(rng, program)
    trace = random_trace(rng, program, max_events=2000)
    while len(trace) < 200:
        trace = random_trace(rng, program, max_events=2000)
    return program, layout, trace


def _streams(layout, configs, tc_config):
    fetch = FetchStream(layout.name, consumers=[miss_counter(c) for c in configs])
    tc = TraceCacheStream(layout.name, tc_config, consumers=[miss_counter(c) for c in configs])
    return fetch, tc


@requires_native
@pytest.mark.parametrize("first,second", [("native", "python"), ("python", "native")])
def test_state_resumes_across_backends(first, second):
    """Half a trace on one backend, ``state_dict`` -> ``load_state`` into
    fresh streams, the rest on the other: the same counters and state as
    one full run."""
    program, layout, trace = _resume_case()
    configs = _configs(32, 8, 4)
    tc_config = TraceCacheConfig(n_entries=16)
    chunk_events = 50
    mid = (len(trace) // chunk_events // 2) * chunk_events

    full = _streams(layout, configs, tc_config)
    run_fused(trace, program, [(layout, s) for s in full], chunk_events=chunk_events)

    head = _streams(layout, configs, tc_config)
    with native.use(first):
        run_fused(
            trace, program, [(layout, s) for s in head],
            chunk_events=chunk_events, stop_event=mid,
        )
    tail = _streams(layout, configs, tc_config)
    tail[1].load_state(head[1].state_dict())
    for stream_head, stream_tail in zip(head, tail):
        for a, b in zip(stream_head.consumers, stream_tail.consumers):
            b.load_state(a.state_dict())
    with native.use(second):
        run_fused(
            trace, program, [(layout, s) for s in tail],
            chunk_events=chunk_events, start_event=mid,
        )

    assert tail[0].n_fetches + head[0].n_fetches == full[0].n_fetches
    assert (tail[1].n_hits, tail[1].n_misses) == (full[1].n_hits, full[1].n_misses)
    _assert_state_equal(tail[1].state_dict(), full[1].state_dict())
    for stream_tail, stream_full in zip(tail, full):
        for a, b in zip(stream_tail.consumers, stream_full.consumers):
            assert a.misses == b.misses
            _assert_state_equal(a.state_dict(), b.state_dict())


def test_victim_state_has_no_last_array():
    counter = miss_counter(CacheConfig(size_bytes=4 * 32, victim_lines=4))
    counter.feed(np.array([0, 4, 8, 0], dtype=np.int64))
    assert set(counter.state_dict()) == {"kind", "primary", "victim", "capacity", "misses"}


# -- wrapper argument checks -------------------------------------------------


@requires_native
def test_wrappers_reject_unsafe_arrays():
    kernel = native.load()
    addr = np.arange(0, 64, 4, dtype=np.int64)
    flags = np.zeros(16, dtype=bool)
    geometry = dict(line_bytes=32, line_instrs=8, instr_shift=2, width=16, blimit=3)
    with pytest.raises(TypeError):
        kernel.fetch_walk(addr.astype(np.int32), flags, flags, **geometry)
    with pytest.raises(TypeError):
        kernel.fetch_walk(addr, flags.astype(np.uint8), flags, **geometry)
    with pytest.raises(TypeError):
        kernel.fetch_walk(addr.tolist(), flags, flags, **geometry)
    wide = np.arange(0, 128, 4, dtype=np.int64)
    with pytest.raises(ValueError):
        kernel.fetch_walk(wide[::2], flags, flags, **geometry)
    with pytest.raises(ValueError):
        kernel.fetch_walk(addr, flags[:8], flags, **geometry)

    entries = np.zeros((8, 4), dtype=np.int64)
    tc = dict(tc_width=16, tc_blimit=3, **geometry)
    with pytest.raises(ValueError):
        kernel.tc_walk(addr, flags, flags, np.zeros((8, 3), dtype=np.int64), **tc)
    with pytest.raises(ValueError):
        kernel.tc_walk(addr, flags, flags, entries[:, ::-1], **tc)
    frozen = entries.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        kernel.tc_walk(addr, flags, flags, frozen, **tc)

    lines = np.arange(10, dtype=np.int64)
    tags = np.full(4, -1, dtype=np.int64)
    with pytest.raises(TypeError):
        kernel.dm_feed(lines.astype(np.float64), tags)
    with pytest.raises(TypeError):
        kernel.dm_feed(lines, tags.astype(np.int32))
    with pytest.raises(ValueError):
        kernel.dm_feed(lines, tags, np.full(3, -1, dtype=np.int64))
    with pytest.raises(ValueError):
        kernel.victim_feed(lines, tags, np.zeros(4, dtype=np.int64), 0, 4)
    # sizes the C code divides by: a clear error, never a crash
    with pytest.raises(ValueError):
        kernel.dm_feed(lines, np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError):
        kernel.victim_feed(lines, np.empty(0, dtype=np.int64), np.zeros(5, np.int64), 0, 4)
    with pytest.raises(ValueError):
        kernel.tc_walk(addr, flags, flags, np.zeros((0, 4), dtype=np.int64), **tc)
    with pytest.raises(ValueError):
        kernel.fetch_walk(addr, flags, flags, **dict(geometry, line_bytes=2, line_instrs=0))
    # the checks pass through well-formed arrays
    assert kernel.dm_feed(lines, tags) == 10


# -- loader ------------------------------------------------------------------


def test_missing_compiler_falls_back_with_reason():
    kernel, info = native._build_and_load(["/nonexistent/bin/cc"])
    assert kernel is None
    assert info["backend"] == "python"
    assert "unavailable" in info["reason"]
    kernel, info = native._build_and_load([])
    assert kernel is None and "no C compiler" in info["reason"]


def test_failing_compiler_falls_back_with_reason(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    fake = tmp_path / "fakecc"
    fake.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fakecc 1.0"; exit 0; fi\n'
        'echo "fakecc: internal error" >&2\n'
        "exit 3\n"
    )
    fake.chmod(0o755)
    kernel, info = native._build_and_load([str(fake)])
    assert kernel is None
    assert "compiler exited 3" in info["reason"]
    assert "internal error" in info["reason"]
    assert not list((tmp_path / "cache").rglob("*.so"))
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def _status_in_subprocess(cache_dir, n=1):
    """``native.status()`` of ``n`` fresh processes started together (a
    process never reopens a library path it already loaded)."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir), PYTHONPATH=str(SRC))
    code = "from repro.simulators import native; import json; print(json.dumps(native.status()))"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(n)
    ]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    return [json.loads(out) for out in outputs]


@requires_native
def test_corrupt_cached_artifact_is_rebuilt(tmp_path):
    cache_dir = tmp_path / "cache"
    (first,) = _status_in_subprocess(cache_dir)
    assert first["backend"] == "native" and first["build_s"] > 0
    (artifact,) = cache_dir.rglob("native/*.so")
    (cached,) = _status_in_subprocess(cache_dir)
    assert cached["backend"] == "native" and cached["build_s"] == 0.0
    artifact.write_bytes(b"\x7fELF garbage")
    (rebuilt,) = _status_in_subprocess(cache_dir)
    assert rebuilt["backend"] == "native" and rebuilt["build_s"] > 0
    assert artifact.read_bytes()[:4] == b"\x7fELF" and artifact.stat().st_size > 1000


@requires_native
def test_concurrent_first_use_leaves_one_valid_artifact(tmp_path):
    statuses = _status_in_subprocess(tmp_path / "cache", n=2)
    assert [status["backend"] for status in statuses] == ["native", "native"]
    artifacts = list((tmp_path / "cache").rglob("native/*"))
    assert len(artifacts) == 1 and artifacts[0].suffix == ".so"
    kernel = native._open(artifacts[0])
    assert kernel.dm_feed(np.array([2, 2], dtype=np.int64), np.full(2, -1, np.int64)) == 1


@requires_native
def test_disabled_cache_builds_privately_and_cleans_up(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    kernel, info = native._build_and_load(native._compiler())
    assert kernel is not None and info["backend"] == "native" and info["build_s"] > 0
    assert list(tmp_path.iterdir()) == []  # the loaded mapping outlives the file
    assert kernel.dm_feed(np.array([3, 4, 3], dtype=np.int64), np.full(4, -1, np.int64)) == 2


def test_use_rejects_unknown_backend():
    with pytest.raises(ValueError):
        with native.use("fortran"):
            pass


# -- the suite engine --------------------------------------------------------

SETTINGS = WorkloadSettings(scale=0.0005)
GRID = PRIMARY_ROWS[:1]


@pytest.fixture(scope="module")
def workload():
    return get_workload(SETTINGS)


@pytest.fixture
def _private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@requires_native
def test_suite_without_compiler_matches_and_names_fallback(
    workload, tmp_path, monkeypatch, _private_cache
):
    reference = compute_suite(workload, GRID, jobs=1, resume=False)
    kernel, info = native._build_and_load(["/nonexistent/bin/cc"])
    monkeypatch.setattr(native, "_kernel", kernel)
    monkeypatch.setattr(native, "_status", info)
    manifest = tmp_path / "run.json"
    fallback = compute_suite(workload, GRID, jobs=1, resume=False, manifest=manifest)
    assert result_digest(serialize_suite(fallback)) == result_digest(serialize_suite(reference))
    backend = json.loads(manifest.read_text())["simulator_backend"]
    assert backend["backend"] == "python"
    assert "unavailable" in backend["reason"]


def test_kernel_loads_in_parent_before_workers_fork(
    workload, tmp_path, monkeypatch, _private_cache
):
    log = tmp_path / "loads.txt"
    real = native._build_and_load

    def logged(cc):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(cc)

    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setattr(native, "_build_and_load", logged)
    manifest = tmp_path / "run.json"
    compute_suite(workload, GRID, jobs=2, resume=False, manifest=manifest)
    assert log.read_text().split() == [str(os.getpid())]
    recorded = json.loads(manifest.read_text())["simulator_backend"]
    assert recorded == native.status()
    assert set(recorded) == {"backend", "reason", "build_s", "source_sha256"}


def test_status_reports_selected_backend():
    with native.use("python"):
        assert native.status()["backend"] == "python"
        assert native.active() is None
    assert native.status()["source_sha256"] == native.source_sha256()
