"""Simulators: instruction cache, SEQ.3 sequential fetch unit, trace cache.

The methodology mirrors the paper's Section 7.1: simulators are fed the
per-layout block *addresses* (code is never rewritten, block sizes never
change), branch prediction is perfect, the i-cache miss penalty is a fixed
5 cycles, and the fetch unit is SEQ.3 from Rotenberg et al. — two
consecutive cache lines per access, up to the first taken branch, three
branches, or 16 instructions.
"""

from repro.simulators.icache import CacheConfig, count_misses, miss_counter
from repro.simulators.fetch import (
    FetchResult,
    FetchStream,
    MISS_PENALTY_CYCLES,
    expand_chunk,
    iter_chunk_contexts,
    simulate_fetch,
)
from repro.simulators.fused import run_fused
from repro.simulators.sharded import (
    ShardError,
    ShardPlan,
    ShardReport,
    ShardTimeoutError,
    plan_shards,
    run_sharded,
)
from repro.simulators.tracecache import (
    TraceCacheConfig,
    TraceCacheResult,
    TraceCacheStream,
    simulate_trace_cache,
)
from repro.simulators.metrics import (
    miss_rate_percent,
    fetch_bandwidth,
    ideal_fetch_bandwidth,
    instructions_between_taken_branches,
)

__all__ = [
    "CacheConfig",
    "count_misses",
    "miss_counter",
    "FetchResult",
    "FetchStream",
    "simulate_fetch",
    "MISS_PENALTY_CYCLES",
    "expand_chunk",
    "iter_chunk_contexts",
    "run_fused",
    "ShardError",
    "ShardPlan",
    "ShardReport",
    "ShardTimeoutError",
    "plan_shards",
    "run_sharded",
    "TraceCacheConfig",
    "simulate_trace_cache",
    "TraceCacheResult",
    "TraceCacheStream",
    "miss_rate_percent",
    "fetch_bandwidth",
    "ideal_fetch_bandwidth",
    "instructions_between_taken_branches",
]
