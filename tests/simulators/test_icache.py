import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulators import CacheConfig, count_misses


def reference_misses(lines, n_sets, assoc, victim_lines=0):
    """Straightforward stateful LRU model used as ground truth."""
    sets = [[] for _ in range(n_sets)]
    victim = []
    misses = 0
    for line in lines:
        s = line % n_sets
        if line in sets[s]:
            sets[s].remove(line)
            sets[s].append(line)
            continue
        if victim_lines and line in victim:
            victim.remove(line)
            evicted = sets[s].pop(0) if len(sets[s]) >= assoc else None
            sets[s].append(line)
            if evicted is not None:
                victim.append(evicted)
                while len(victim) > victim_lines:
                    victim.pop(0)
            continue
        misses += 1
        if len(sets[s]) >= assoc:
            evicted = sets[s].pop(0)
            if victim_lines:
                victim.append(evicted)
                while len(victim) > victim_lines:
                    victim.pop(0)
        sets[s].append(line)
    return misses


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=100)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1024, associativity=4)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1024, associativity=2, victim_lines=4)


def test_direct_mapped_basics():
    config = CacheConfig(size_bytes=4 * 32)  # 4 sets
    # lines 0 and 4 conflict (same set); 1 does not
    lines = np.array([0, 4, 0, 1, 1, 0])
    assert count_misses(lines, config) == reference_misses(lines, 4, 1) == 4


def test_two_way_absorbs_pairwise_conflict():
    dm = CacheConfig(size_bytes=4 * 32)
    two = CacheConfig(size_bytes=8 * 32, associativity=2)  # 4 sets, 2 ways
    lines = np.array([0, 4, 0, 4, 0, 4])
    assert count_misses(lines, dm) == 6
    assert count_misses(lines, two) == 2


def test_two_way_three_way_conflict_thrashes():
    two = CacheConfig(size_bytes=8 * 32, associativity=2)  # 4 sets
    lines = np.array([0, 4, 8, 0, 4, 8])
    assert count_misses(lines, two) == reference_misses(lines, 4, 2) == 6


def test_victim_cache_rescues_conflicts():
    no_victim = CacheConfig(size_bytes=4 * 32)
    with_victim = CacheConfig(size_bytes=4 * 32, victim_lines=16)
    lines = np.array([0, 4, 0, 4, 0, 4])
    assert count_misses(lines, no_victim) == 6
    assert count_misses(lines, with_victim) == 2


def test_empty_and_chunked_streams():
    config = CacheConfig(size_bytes=4 * 32)
    assert count_misses(np.empty(0, dtype=np.int64), config) == 0
    assert count_misses([], config) == 0
    chunked = [np.array([0, 4]), np.array([0])]
    whole = np.array([0, 4, 0])
    assert count_misses(chunked, config) == count_misses(whole, config)


@given(
    lines=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=300),
    n_sets_log=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_direct_mapped_matches_reference(lines, n_sets_log):
    n_sets = 2**n_sets_log
    config = CacheConfig(size_bytes=n_sets * 32)
    arr = np.asarray(lines, dtype=np.int64)
    assert count_misses(arr, config) == reference_misses(lines, n_sets, 1)


@given(
    lines=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=300),
    n_sets_log=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_two_way_lru_matches_reference(lines, n_sets_log):
    n_sets = 2**n_sets_log
    config = CacheConfig(size_bytes=n_sets * 2 * 32, associativity=2)
    arr = np.asarray(lines, dtype=np.int64)
    assert count_misses(arr, config) == reference_misses(lines, n_sets, 2)


@given(
    lines=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=200),
    victim=st.sampled_from([1, 2, 4, 16]),
)
@settings(max_examples=100, deadline=None)
def test_victim_cache_matches_reference(lines, victim):
    config = CacheConfig(size_bytes=4 * 32, victim_lines=victim)
    arr = np.asarray(lines, dtype=np.int64)
    assert count_misses(arr, config) == reference_misses(lines, 4, 1, victim)


def test_victim_never_worse_than_plain():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 64, size=2000)
    plain = count_misses(lines, CacheConfig(size_bytes=8 * 32))
    rescued = count_misses(lines, CacheConfig(size_bytes=8 * 32, victim_lines=16))
    assert rescued <= plain
