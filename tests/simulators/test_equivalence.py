"""Equivalence properties for the vectorized (NumPy fallback) hot paths.

Each vectorized implementation must match the loop-literal oracles of
:mod:`repro.validate.oracles` exactly: the fetch lengths plus lockstep
orbit walk vs the oracle's SEQ.3 walk, and the batched/chunked cache
models vs the stateful oracle models.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulators import CacheConfig, count_misses
from repro.simulators.fetch import (
    _ORBIT_SCALAR_CUTOFF_ROUNDS,
    _Chunk,
    _fetch_lengths,
    _orbit_starts,
)
from repro.validate.oracles import OracleWindow, oracle_victim, seq3_fetch_length


def _random_window(rng, n):
    """Random instruction stream: block-shaped addresses, branches at
    block ends, a random subset of them taken."""
    addr = np.empty(n, dtype=np.int64)
    is_branch = np.zeros(n, dtype=bool)
    p = 0
    base = int(rng.integers(0, 1 << 12)) * 4
    while p < n:
        size = min(int(rng.integers(1, 9)), n - p)
        addr[p : p + size] = base + 4 * np.arange(size)
        is_branch[p + size - 1] = rng.random() < 0.7
        base = int(rng.integers(0, 1 << 12)) * 4
        p += size
    is_taken = is_branch & (rng.random(n) < 0.5)
    return addr, is_branch, is_taken


@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.sampled_from([16, 32, 64]))
@settings(max_examples=60, deadline=None)
def test_orbit_matches_scalar_walk(seed, n, line_bytes):
    rng = np.random.default_rng(seed)
    addr, is_branch, is_taken = _random_window(rng, n)
    line_instrs = line_bytes // 4
    lengths = _fetch_lengths(_Chunk(addr, is_branch, is_taken, last=True), line_instrs)
    window = OracleWindow(addr.tolist(), is_branch.tolist(), is_taken.tolist())
    ref = []
    p = 0
    while p < n:
        ref.append(p)
        p += seq3_fetch_length(window, p, line_instrs)
    np.testing.assert_array_equal(_orbit_starts(lengths, is_taken), ref)


def test_orbit_scalar_cutoff_path():
    # one taken-branch-free segment much longer than the lockstep cutoff:
    # the stragglers must be finished by the scalar fallback, not dropped
    n = 50 * _ORBIT_SCALAR_CUTOFF_ROUNDS
    lengths = np.ones(n, dtype=np.int64)
    is_taken = np.zeros(n, dtype=bool)
    np.testing.assert_array_equal(_orbit_starts(lengths, is_taken), np.arange(n))


def test_orbit_edge_cases():
    empty = np.empty(0, dtype=np.int64)
    assert _orbit_starts(empty, np.empty(0, dtype=bool)).size == 0
    # stream ending on a taken branch leaves an empty trailing segment
    lengths = np.array([2, 1, 1], dtype=np.int64)
    is_taken = np.array([False, False, True])
    np.testing.assert_array_equal(_orbit_starts(lengths, is_taken), [0, 2])


@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=300),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_chunked_streams_match_whole_stream(lines, n_sets_log, seed):
    """Splitting the access stream into chunks must not change any count:
    the chunked models carry per-set state across chunk boundaries."""
    lines = np.asarray(lines, dtype=np.int64)
    n_sets = 1 << n_sets_log
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, lines.size + 1, size=rng.integers(0, 6)))
    chunks = [c for c in np.split(lines, cuts)]
    configs = [
        CacheConfig(size_bytes=n_sets * 32),
        CacheConfig(size_bytes=2 * n_sets * 32, associativity=2),
        CacheConfig(size_bytes=n_sets * 32, victim_lines=4),
    ]
    for config in configs:
        assert count_misses(chunks, config) == count_misses(lines, config)


@given(st.lists(st.integers(0, 31), min_size=1, max_size=250), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_batched_victim_matches_scalar_reference(lines, victim_lines):
    lines = np.asarray(lines, dtype=np.int64)
    config = CacheConfig(size_bytes=8 * 32, victim_lines=victim_lines)
    assert count_misses(lines, config) == oracle_victim(lines.tolist(), config)
