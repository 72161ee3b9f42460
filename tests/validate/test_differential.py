"""The differential harness: clean runs find nothing, injected bugs are
caught.

The injected-bug tests are the harness's own test suite: they monkeypatch
a production constant or helper and assert the diff reports a divergence,
proving the harness actually observes the counter it claims to check.
"""

import pytest

import repro.simulators.fetch as fetch_mod
from repro.simulators import native
from repro.validate.differential import (
    diff_fetch_case,
    diff_trace_cache_case,
    run_differential,
)
from repro.validate.generators import random_case

# Seeds whose generated traces are non-trivial (several hundred events);
# used by the injected-bug tests so a patched simulator must diverge.
_BUSY_SEEDS = [3, 5, 11, 17, 23]


def test_clean_slice_has_no_divergences():
    n_cases, divergences = run_differential(seed=0, n_cases=30)
    assert n_cases == 30
    assert divergences == []


def test_divergence_report_is_json_serializable():
    import json

    n_cases, divergences = run_differential(seed=1, n_cases=5)
    assert n_cases == 5
    json.dumps([d.to_json() for d in divergences])


def _total_events(seed):
    return len(random_case(seed).trace)


def test_injected_fetch_width_bug_is_caught(monkeypatch):
    """Shrinking the production fetch width must show up as a fetch-count
    (and usually line-stream) divergence on busy cases, on every backend."""
    monkeypatch.setattr(fetch_mod, "FETCH_WIDTH", 8)
    for backend in native.available_backends():
        found = []
        with native.use(backend):
            for seed in _BUSY_SEEDS:
                found.extend(diff_fetch_case(random_case(seed)))
        assert found, f"harness failed to notice FETCH_WIDTH=8 on {backend}"
        counters = {d.counter for d in found}
        assert any("n_fetches" in c or "lines" in c for c in counters)


def test_injected_orbit_bug_is_caught(monkeypatch):
    """Dropping the last fetch of every chunk must be seen by both the
    one-shot and the fused fetch paths, on every backend: the fallback's
    orbit helper and the native fetch walk are each patched in turn."""
    real_orbit = fetch_mod._orbit_starts
    real_walk = native.Kernel.fetch_walk

    def lopsided_orbit(lengths, is_taken):
        starts = real_orbit(lengths, is_taken)
        return starts[:-1] if len(starts) else starts

    def lopsided_walk(self, *args, **kwargs):
        return real_walk(self, *args, **kwargs)[:-2]

    monkeypatch.setattr(fetch_mod, "_orbit_starts", lopsided_orbit)
    monkeypatch.setattr(native.Kernel, "fetch_walk", lopsided_walk)
    for backend in native.available_backends():
        found = []
        with native.use(backend):
            for seed in _BUSY_SEEDS:
                if _total_events(seed) == 0:
                    continue
                found.extend(diff_fetch_case(random_case(seed)))
        assert found, f"harness failed to notice a dropped fetch on {backend}"


def test_injected_branch_limit_bug_is_caught(monkeypatch):
    """The trace-cache diff shares SEQ.3's branch limit; lowering it
    changes fill lengths and therefore hits/misses, on every backend."""
    monkeypatch.setattr(fetch_mod, "BRANCH_LIMIT", 1)
    for backend in native.available_backends():
        found = []
        with native.use(backend):
            for seed in _BUSY_SEEDS:
                case = random_case(seed)
                found.extend(diff_fetch_case(case))
                found.extend(diff_trace_cache_case(case))
        assert found, f"harness failed to notice BRANCH_LIMIT=1 on {backend}"


@pytest.mark.parametrize("seed", [0, 42])
def test_case_seeds_reproduce(seed):
    """A reported divergence must be reproducible from its seed alone."""
    a = random_case(seed)
    b = random_case(seed)
    assert a.describe() == b.describe()
    assert (a.trace.events == b.trace.events).all()
    assert (a.layout.address == b.layout.address).all()
