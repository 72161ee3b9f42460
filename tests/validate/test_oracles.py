"""Property tests pinning the production simulators to the oracles.

Hypothesis draws the *parameters* (case seed, simulation window) and the
seeded generators in :mod:`repro.validate.generators` build the actual
program/layout/trace — so shrinking works at the parameter level while
the inputs stay as adversarial as the CLI harness's.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cfg.blocks import BlockKind
from repro.cfg.layout import Layout
from repro.cfg.program import ProgramBuilder
from repro.profiling.trace import SEPARATOR, BlockTrace
from repro.simulators.fetch import simulate_fetch
from repro.simulators.icache import CacheConfig, count_misses
from repro.simulators.tracecache import TraceCacheConfig, simulate_trace_cache
from repro.validate.generators import random_case
from repro.validate.oracles import (
    oracle_direct_mapped,
    oracle_fetch,
    oracle_trace_cache,
    oracle_two_way_lru,
    oracle_victim,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# Window sizes down to 1 event: the most boundary-straddling shape possible.
windows = st.sampled_from([1, 2, 3, 7, 64, 1_000_000])


@given(seed=seeds, chunk_events=windows)
def test_fetch_matches_oracle(seed, chunk_events):
    case = random_case(seed)
    line_bytes = case.cache_configs[0].line_bytes
    ora = oracle_fetch(
        case.trace, case.program, case.layout,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    prod = simulate_fetch(
        case.trace, case.program, case.layout,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    assert prod.n_instructions == ora.n_instructions
    assert prod.n_fetches == ora.n_fetches
    assert prod.n_taken == ora.n_taken
    lines = np.concatenate(prod.line_chunks).tolist() if prod.line_chunks else []
    assert lines == ora.lines


@given(seed=seeds, chunk_events=windows)
def test_trace_cache_matches_oracle(seed, chunk_events):
    case = random_case(seed)
    line_bytes = case.cache_configs[0].line_bytes
    ora = oracle_trace_cache(
        case.trace, case.program, case.layout, case.tc_config,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    prod = simulate_trace_cache(
        case.trace, case.program, case.layout, case.tc_config,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    assert (prod.n_hits, prod.n_misses) == (ora.n_hits, ora.n_misses)
    assert prod.n_instructions == ora.n_instructions
    miss_lines = (
        np.concatenate(prod.miss_line_chunks).tolist() if prod.miss_line_chunks else []
    )
    assert miss_lines == ora.miss_lines


@given(seed=seeds)
def test_icache_counters_match_oracle(seed):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 200, size=int(rng.integers(0, 500))).tolist()
    line_bytes = 32
    direct = CacheConfig(size_bytes=8 * line_bytes, line_bytes=line_bytes)
    two_way = CacheConfig(size_bytes=16 * line_bytes, line_bytes=line_bytes, associativity=2)
    victim = CacheConfig(size_bytes=8 * line_bytes, line_bytes=line_bytes, victim_lines=4)
    chunks = [np.asarray(lines, dtype=np.int64)] if lines else []
    assert count_misses(chunks, direct) == oracle_direct_mapped(lines, direct)
    assert count_misses(chunks, two_way) == oracle_two_way_lru(lines, two_way)
    expected_victim = oracle_victim(lines, victim)
    assert count_misses(chunks, victim) == expected_victim


def _straight_line_program(n_blocks, block_size=4):
    builder = ProgramBuilder()
    builder.add_procedure(
        "p", "gen", [block_size] * n_blocks, [int(BlockKind.FALL_THROUGH)] * n_blocks
    )
    return builder.build()


def test_window_of_one_restarts_every_fetch():
    """chunk_events=1 puts every event in its own window: no fall-through
    merging is possible, so a 4-instruction block is one fetch each."""
    program = _straight_line_program(3)
    layout = Layout.original(program)
    trace = BlockTrace(np.asarray([0, 1, 2], dtype=np.int32))
    split = oracle_fetch(trace, program, layout, chunk_events=1)
    whole = oracle_fetch(trace, program, layout, chunk_events=1_000_000)
    assert split.n_instructions == whole.n_instructions == 12
    # Whole-trace: the 12 sequential instructions need a single SEQ.3 probe
    # fewer than the boundary-truncated run (fetch width 16 > 12).
    assert whole.n_fetches < split.n_fetches == 3
    prod = simulate_fetch(trace, program, layout, chunk_events=1)
    assert (prod.n_fetches, prod.n_instructions) == (split.n_fetches, 12)


def test_separator_only_window_is_skipped():
    """A window that is all separators must vanish without perturbing the
    sequential-transition detection around it."""
    program = _straight_line_program(4)
    layout = Layout.original(program)
    events = [0, 1, SEPARATOR, SEPARATOR, 2, 3]
    trace = BlockTrace(np.asarray(events, dtype=np.int32))
    for chunk_events in (2, 3, 6, 1_000_000):
        ora = oracle_fetch(trace, program, layout, chunk_events=chunk_events)
        prod = simulate_fetch(trace, program, layout, chunk_events=chunk_events)
        assert prod.n_instructions == ora.n_instructions == 16
        assert prod.n_fetches == ora.n_fetches
        assert prod.n_taken == ora.n_taken


def test_trace_cache_entries_survive_window_boundaries():
    """A loop that fits one entry must keep hitting even when every window
    holds a single event — the cache is hardware, not a per-chunk object."""
    program = _straight_line_program(1, block_size=4)
    layout = Layout.original(program)
    trace = BlockTrace(np.zeros(50, dtype=np.int32))
    config = TraceCacheConfig(n_entries=4, trace_instructions=16, branch_limit=3)
    split = oracle_trace_cache(trace, program, layout, config, chunk_events=1)
    prod = simulate_trace_cache(trace, program, layout, config, chunk_events=1)
    assert (prod.n_hits, prod.n_misses) == (split.n_hits, split.n_misses)
    assert split.n_hits > 0  # the repeated block hits after its first fill


def test_victim_swap_keeps_hot_pair_resident():
    """Jouppi's swap: two conflicting lines ping-pong between the primary
    and a 1-line victim buffer, so only the 2 cold misses remain."""
    config = CacheConfig(size_bytes=4 * 32, line_bytes=32, victim_lines=1)
    lines = [0, 4, 0, 4, 0, 4, 0, 4]  # same set in a 4-set cache
    assert oracle_victim(lines, config) == 2
    no_victim = CacheConfig(size_bytes=4 * 32, line_bytes=32)
    assert oracle_direct_mapped(lines, no_victim) == 8
