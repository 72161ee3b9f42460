"""Hypothesis drivers for the metamorphic laws.

Each law already runs inside ``python -m repro.validate``; here Hypothesis
owns the seed and the simulation window so the laws are also exercised
(and shrunk) under pytest, including windows small enough that every
fetch and fill window truncates at a chunk boundary.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.validate.laws import (
    LAW_CHUNK_EVENTS,
    law_cfa_conflict_free,
    law_cold_permutation,
    law_concat_vs_chunked,
    law_fused_group_split,
    run_laws,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# 1 and 2 are harsher than the CLI's LAW_CHUNK_EVENTS: every window holds
# at most a couple of events, so *every* transition crosses a boundary.
windows = st.sampled_from([1, 2, 7, 64, 1_000_000])


def test_cli_windows_include_boundary_and_single_chunk():
    assert min(LAW_CHUNK_EVENTS) <= 8  # boundary-heavy window
    assert max(LAW_CHUNK_EVENTS) >= 100_000  # single-chunk fast path


@given(seed=seeds, chunk_events=windows)
def test_law_concat_vs_chunked(seed, chunk_events, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("law1")
    rng = np.random.default_rng(seed)
    assert law_concat_vs_chunked(rng, tmp, chunk_events) == []


@given(seed=seeds, chunk_events=windows)
def test_law_cold_permutation(seed, chunk_events):
    rng = np.random.default_rng(seed)
    assert law_cold_permutation(rng, chunk_events) == []


@given(seed=seeds, chunk_events=windows)
def test_law_cfa_conflict_free(seed, chunk_events):
    rng = np.random.default_rng(seed)
    assert law_cfa_conflict_free(rng, chunk_events) == []


@given(seed=seeds, chunk_events=windows)
def test_law_fused_group_split(seed, chunk_events):
    rng = np.random.default_rng(seed)
    assert law_fused_group_split(rng, chunk_events) == []


@pytest.mark.parametrize("seed", [0, 7])
def test_run_laws_clean(seed):
    n_cases, violations = run_laws(seed, rounds=3)
    assert n_cases == 3 * 4 * len(LAW_CHUNK_EVENTS)  # 4 laws per round/window
    assert violations == []
