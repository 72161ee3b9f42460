"""Trace cache (Rotenberg et al.), paper Section 7.3.

A direct-mapped trace cache of 256 entries (16 instructions each = 16 KB)
in front of the SEQ.3 fetch unit. Each cycle the trace cache is probed with
the fetch address; with perfect branch prediction a stored trace hits when
its starting address matches and its recorded branch outcomes equal the
actual upcoming outcomes. On a hit the whole trace (up to 16 instructions,
up to 3 branches, *crossing taken branches*) is supplied in one cycle with
no i-cache access; on a miss the SEQ.3 unit fetches from the i-cache and
the fill unit stores the newly observed trace.

Output separates the cache-independent cycle count from the miss-path line
stream, so one stateful simulation serves every i-cache configuration —
and the same run reports both the trace-cache-alone and combined
STC+trace-cache numbers of Table 4.

Implementation: the native kernel (:mod:`repro.simulators.native`) walks
each chunk position by position, reading the few instructions after a
visited position to check a stored trace, fill an entry, or take the
SEQ.3 miss-path fetch. The Python fallback precomputes the outcome
bitmask and third-branch distance as functions of the *next-branch
index* of a position, vectorized into per-branch tables (typically 5x
smaller than the instruction stream); beyond the shared SEQ.3 fetch
lengths its only per-instruction table is one prefix count. Cache entries
persist across chunks (:class:`TraceCacheStream`) in one int64 array
shared by both backends; the fill window truncates at chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.profiling.trace import BlockTrace
from repro.simulators import native
from repro.simulators.fetch import (
    BRANCH_LIMIT,
    FETCH_WIDTH,
    MISS_PENALTY_CYCLES,
    _Chunk,
    _fetch_lengths,
    expand_chunk,
    iter_chunk_contexts,
    kernel_arrays,
    seq3_geometry,
)
from repro.simulators.icache import CacheConfig, count_misses

__all__ = [
    "TraceCacheConfig",
    "TraceCacheResult",
    "TraceCacheStream",
    "simulate_trace_cache",
]


@dataclass(frozen=True)
class TraceCacheConfig:
    """Trace cache geometry (256 entries of 16 instructions = 16 KB)."""

    n_entries: int = 256
    trace_instructions: int = FETCH_WIDTH
    branch_limit: int = BRANCH_LIMIT


@dataclass
class TraceCacheResult:
    layout_name: str
    n_instructions: int
    n_cycles_base: int  # one cycle per fetch attempt (hit or miss path)
    n_hits: int
    n_misses: int
    n_taken: int
    miss_line_chunks: list[np.ndarray]

    @property
    def hit_rate(self) -> float:
        total = self.n_hits + self.n_misses
        return self.n_hits / total if total else 0.0

    def bandwidth(self, config: CacheConfig | None) -> float:
        """IPC; ``config=None`` models a perfect backing i-cache."""
        cycles = self.n_cycles_base
        if config is not None:
            cycles += MISS_PENALTY_CYCLES * count_misses(self.miss_line_chunks, config)
        return self.n_instructions / cycles if cycles else 0.0


class TraceCacheStream:
    """Incremental trace-cache simulation fed one expanded chunk at a time.

    Entry state persists across chunks. Each chunk's miss-path line
    accesses are routed to the attached i-cache miss counters
    (``consumers``) and/or collected for the one-shot
    :class:`TraceCacheResult` path.

    The Python fallback's lookup tables are indexed *by branch*, not by
    instruction: both the outcome bitmask and the third-branch distance
    from a position ``p`` are functions of ``first_branch[p]`` alone, so
    the per-instruction vectorized work is a single prefix count and the
    (typically 5x smaller) per-branch tables are read scalar only at the
    ~n/8 positions the walk actually visits.
    """

    def __init__(
        self,
        layout_name: str,
        config: TraceCacheConfig = TraceCacheConfig(),
        *,
        line_bytes: int = 32,
        consumers=None,
        collect_lines: bool = False,
    ) -> None:
        self.layout_name = layout_name
        self.config = config
        self.line_bytes = line_bytes
        self.consumers = list(consumers) if consumers is not None else []
        self.n_instructions = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_taken = 0
        self.miss_line_chunks: list[np.ndarray] | None = [] if collect_lines else None
        # entry rows: (start address, outcome bitmask, n_branches, n_instr);
        # n_instr 0 marks an empty entry
        self._entries = np.zeros((config.n_entries, 4), dtype=np.int64)

    def feed(self, chunk: _Chunk, lengths: np.ndarray | None = None) -> None:
        """Consume one expanded chunk.

        The native kernel walks the chunk itself. The Python fallback
        takes the SEQ.3 miss-path advance from ``lengths``
        (:func:`_fetch_lengths` for this stream's ``line_bytes``,
        computed here when not given).
        """
        n = chunk.addr.shape[0]
        self.n_instructions += n
        self.n_taken += int(chunk.is_taken.sum())
        kernel = native.active()
        if kernel is not None:
            lines_arr, hits, misses = kernel.tc_walk(
                *kernel_arrays(chunk),
                self._entries,
                tc_width=self.config.trace_instructions,
                tc_blimit=self.config.branch_limit,
                **seq3_geometry(self.line_bytes),
            )
        else:
            if lengths is None:
                lengths = _fetch_lengths(chunk, self.line_bytes // INSTR_BYTES)
            lines_arr, hits, misses = self._walk(chunk, lengths)
        self.n_hits += hits
        self.n_misses += misses
        for consumer in self.consumers:
            consumer.feed(lines_arr)
        if self.miss_line_chunks is not None:
            self.miss_line_chunks.append(lines_arr)

    def _walk(self, chunk: _Chunk, lengths: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Python trace-cache walk: (miss-path lines, hits, misses)."""
        config = self.config
        width = config.trace_instructions
        blimit = config.branch_limit
        n = chunk.addr.shape[0]
        is_branch = chunk.is_branch
        branch_pos = np.flatnonzero(is_branch)
        nb = int(branch_pos.size)
        # next-branch index per position (exclusive prefix count of
        # branches) — the only per-instruction table beyond the shared
        # fetch lengths; everything else is indexed by branch
        first_branch = np.cumsum(is_branch, dtype=np.int32)
        first_branch -= is_branch

        # outcome bitmask of the next `blimit` branches from every branch
        # index (including nb = "past the last branch"), zero-padded
        taken_at = chunk.is_taken[branch_pos].astype(np.int64)
        padded = np.concatenate((taken_at, np.zeros(blimit, dtype=np.int64)))
        mask_by_branch = np.zeros(nb + 1, dtype=np.int64)
        for j in range(blimit):
            mask_by_branch |= padded[j : j + nb + 1] << j
        # position of the `blimit`-th branch at or after each branch index;
        # the out-of-range sentinel makes the fill window width-limited
        third_by_branch = np.full(nb + 1, n + width, dtype=np.int64)
        if nb >= blimit:
            third_by_branch[: nb - blimit + 1] = branch_pos[blimit - 1 :]

        # zero-copy memoryviews: the loop touches only the positions it
        # visits, so materializing full Python lists would cost more than
        # the walk itself
        seq_len = np.ascontiguousarray(lengths).data
        addr = np.ascontiguousarray(chunk.addr).data
        fb_of = np.ascontiguousarray(first_branch).data
        mask_of = mask_by_branch.data
        third_of = third_by_branch.data

        entries = self._entry_list()
        low_bits = [(1 << k) - 1 for k in range(blimit + 1)]
        n_entries = config.n_entries
        line_bytes = self.line_bytes
        hits = 0
        misses = 0
        miss_lines: list[int] = []
        append = miss_lines.append
        p = 0
        while p < n:
            a = addr[p]
            index = (a >> 4) % n_entries  # 16-byte granular index bits
            fb = fb_of[p]
            entry = entries[index]
            if entry is not None and entry[0] == a:
                _, mask, k, length = entry
                # actual outcomes of the next k branches
                if (
                    fb + k <= nb
                    and mask_of[fb] & low_bits[k] == mask
                    and p + length <= n
                ):
                    hits += 1
                    p += length
                    continue
            # trace cache miss: SEQ.3 fetch from the i-cache
            misses += 1
            line = a // line_bytes
            append(line)
            append(line + 1)
            # fill unit stores the observed trace: up to `width`
            # instructions or `blimit` branches, crossing taken branches
            until_third = third_of[fb] - p + 1
            length = until_third if until_third < width else width
            rem = n - p
            if length > rem:
                length = rem
            k = (fb_of[p + length] if p + length < n else nb) - fb
            if k > blimit:
                k = blimit
            entries[index] = (a, mask_of[fb] & low_bits[k], k, length)
            p += seq_len[p]
        self._set_entries(entries)
        return np.asarray(miss_lines, dtype=np.int64), hits, misses

    def _entry_list(self) -> list[tuple[int, int, int, int] | None]:
        """Entries as tuples, ``None`` for an empty one."""
        return [tuple(row) if row[3] else None for row in self._entries.tolist()]

    def _set_entries(self, entries: list) -> None:
        if len(entries) != self.config.n_entries:
            raise ValueError(
                f"state has {len(entries)} entries, config wants {self.config.n_entries}"
            )
        self._entries = np.array(
            [entry if entry is not None else (0, 0, 0, 0) for entry in entries],
            dtype=np.int64,
        ).reshape(len(entries), 4)

    @property
    def n_cycles_base(self) -> int:
        return self.n_hits + self.n_misses

    def state_dict(self) -> dict:
        """Complete carried state (counters + entry array), picklable.

        Consumers and collected miss-line chunks are intentionally
        excluded: the sharded relay carries consumer states separately
        and accumulates line chunks per shard.
        """
        return {
            "n_instructions": self.n_instructions,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_taken": self.n_taken,
            "entries": self._entry_list(),
        }

    def load_state(self, state: dict) -> None:
        self._set_entries(list(state["entries"]))
        self.n_instructions = int(state["n_instructions"])
        self.n_hits = int(state["n_hits"])
        self.n_misses = int(state["n_misses"])
        self.n_taken = int(state["n_taken"])

    def result(self) -> TraceCacheResult:
        return TraceCacheResult(
            layout_name=self.layout_name,
            n_instructions=self.n_instructions,
            n_cycles_base=self.n_cycles_base,
            n_hits=self.n_hits,
            n_misses=self.n_misses,
            n_taken=self.n_taken,
            miss_line_chunks=(
                self.miss_line_chunks if self.miss_line_chunks is not None else []
            ),
        )


def simulate_trace_cache(
    trace: BlockTrace,
    program: Program,
    layout: Layout,
    config: TraceCacheConfig = TraceCacheConfig(),
    *,
    line_bytes: int = 32,
    chunk_events: int = 2_000_000,
) -> TraceCacheResult:
    """Stateful trace-cache + SEQ.3 simulation over one trace."""
    stream = TraceCacheStream(layout.name, config, line_bytes=line_bytes, collect_lines=True)
    for ctx in iter_chunk_contexts(trace, program, chunk_events):
        stream.feed(expand_chunk(ctx, layout))
    return stream.result()
