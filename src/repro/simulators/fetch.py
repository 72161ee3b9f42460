"""SEQ.3 sequential fetch unit (Rotenberg et al.), paper Section 7.1.

Each fetch accesses two consecutive cache lines and supplies instructions
from the fetch address up to the first *taken* branch, up to three branches
of any kind (conditional, unconditional, calls, returns — Section 7.3), up
to 16 instructions, or up to the end of the two lines, whichever comes
first. Branch prediction is perfect.

The simulation is layout-dependent but cache-independent: it produces the
fetch count and the line-access stream once per layout; cache organizations
are then evaluated vectorized over that stream
(:func:`repro.simulators.icache.count_misses`).

Implementation: the trace is expanded to instruction-level NumPy arrays in
bounded chunks (memory stays flat for arbitrarily long traces). The native
kernel (:mod:`repro.simulators.native`) walks each chunk fetch by fetch,
computing each fetch length only where a fetch starts. The NumPy fallback
computes the fetch length of every instruction position vectorized
(:func:`_fetch_lengths`); the actual fetch boundaries are the orbit of
position 0 under ``p -> p + n[p]``, extracted by a vectorized jump-table
traversal (:func:`_orbit_starts`) that walks all taken-branch-delimited
segments in lockstep.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES, BlockKind
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.profiling.trace import SEPARATOR, BlockTrace
from repro.simulators import native

__all__ = [
    "ChunkContext",
    "FetchResult",
    "FetchStream",
    "MISS_PENALTY_CYCLES",
    "expand_chunk",
    "instruction_chunks",
    "iter_chunk_contexts",
    "simulate_fetch",
]

#: Fixed i-cache miss penalty (paper Table 4).
MISS_PENALTY_CYCLES = 5

#: SEQ.3 limits.
FETCH_WIDTH = 16
BRANCH_LIMIT = 3

_DEFAULT_CHUNK_EVENTS = 2_000_000


@dataclass
class FetchResult:
    """Per-layout fetch simulation output (cache-independent)."""

    layout_name: str
    n_instructions: int
    n_fetches: int
    n_taken: int
    #: cache-line numbers accessed, 2 per fetch, chunked
    line_chunks: list[np.ndarray]

    @property
    def ideal_ipc(self) -> float:
        """Fetch bandwidth with a perfect i-cache."""
        return self.n_instructions / self.n_fetches if self.n_fetches else 0.0

    @property
    def instructions_between_taken(self) -> float:
        return self.n_instructions / self.n_taken if self.n_taken else float("inf")


@dataclass
class _Chunk:
    """Instruction-level arrays for a span of trace events."""

    addr: np.ndarray  # int64 byte address per instruction
    is_branch: np.ndarray  # bool: last instruction of a branch/call/return block
    is_taken: np.ndarray  # bool: branch whose successor is non-sequential
    last: bool  # final chunk of the trace


@dataclass
class ChunkContext:
    """Layout-independent expansion of one window of trace events.

    Everything here depends only on the trace and the program — block
    ids, sizes, instruction offsets, adjacency — so the fused driver
    computes it once per window and shares it across every layout
    (:func:`expand_chunk` adds the per-layout addresses).
    """

    ids: np.ndarray  # int64 block id per valid event
    ev_size: np.ndarray  # int64 instructions per event
    rep_idx: np.ndarray  # int64: event index of each instruction
    offset_bytes: np.ndarray  # int64: byte offset within its block
    last_idx: np.ndarray  # int64: instruction index of each event's last instr
    branchy_ev: np.ndarray  # bool: event ends in a branch/call/return block
    adjacent: np.ndarray  # bool (len-1): no separator between events i, i+1
    next_id: int | None  # first block id after the window (None: sep/EOF)
    total: int  # instructions in the window
    last: bool  # final window of the trace


def iter_chunk_contexts(
    trace: BlockTrace,
    program: Program,
    chunk_events: int = _DEFAULT_CHUNK_EVENTS,
) -> Iterator[ChunkContext]:
    """Expand the trace into layout-independent chunk contexts.

    ``trace`` may be an in-memory :class:`BlockTrace` or an on-disk
    :class:`~repro.profiling.tracestore.TraceStore` — anything with the
    ``iter_events(chunk_events)`` windowed iterator.
    """
    sizes = program.block_size.astype(np.int64)
    kinds = program.block_kind
    branchy = (kinds == BlockKind.BRANCH) | (kinds == BlockKind.CALL) | (kinds == BlockKind.RETURN)

    for ev, next_event in trace.iter_events(chunk_events):
        valid_idx = np.flatnonzero(ev != SEPARATOR)
        if valid_idx.size == 0:
            continue
        ids = ev[valid_idx].astype(np.int64)
        ev_size = sizes[ids]
        ends = np.cumsum(ev_size)
        total = int(ends[-1])
        block_start = ends - ev_size
        rep_idx = np.repeat(np.arange(ids.shape[0], dtype=np.int64), ev_size)
        offset_bytes = np.arange(total, dtype=np.int64)
        offset_bytes -= block_start[rep_idx]
        offset_bytes *= INSTR_BYTES  # shared across layouts by the fused driver
        yield ChunkContext(
            ids=ids,
            ev_size=ev_size,
            rep_idx=rep_idx,
            offset_bytes=offset_bytes,
            last_idx=ends - 1,
            branchy_ev=branchy[ids],
            adjacent=(valid_idx[1:] - valid_idx[:-1]) == 1,
            next_id=(
                int(next_event)
                if next_event is not None and next_event != SEPARATOR
                else None
            ),
            total=total,
            last=next_event is None,
        )


def expand_chunk(ctx: ChunkContext, layout: Layout) -> _Chunk:
    """Per-layout instruction arrays for one chunk context.

    Run separators force a taken branch on the preceding instruction (two
    profiled runs never fall through into each other).
    """
    addresses = layout.address
    ev_addr = addresses[ctx.ids]
    ev_end = ev_addr + ctx.ev_size * INSTR_BYTES
    # a transition is sequential when the next block starts exactly where
    # this one ends, with no run separator in between
    seq = np.zeros(ctx.ids.shape[0], dtype=bool)
    if ctx.ids.shape[0] > 1:
        seq[:-1] = (ev_addr[1:] == ev_end[:-1]) & ctx.adjacent
    if ctx.next_id is not None:
        seq[-1] = int(addresses[ctx.next_id]) == int(ev_end[-1])

    addr = ev_addr[ctx.rep_idx]
    addr += ctx.offset_bytes
    is_branch = np.zeros(ctx.total, dtype=bool)
    is_taken = np.zeros(ctx.total, dtype=bool)
    # any non-sequential transition behaves as a taken branch — including
    # a fall-through whose successor the layout moved away (the layout
    # step would insert an unconditional jump there)
    non_seq = ~seq
    is_branch[ctx.last_idx] = ctx.branchy_ev | non_seq
    is_taken[ctx.last_idx] = non_seq
    return _Chunk(addr=addr, is_branch=is_branch, is_taken=is_taken, last=ctx.last)


def instruction_chunks(
    trace: BlockTrace,
    program: Program,
    layout: Layout,
    chunk_events: int = _DEFAULT_CHUNK_EVENTS,
) -> Iterator[_Chunk]:
    """Expand the block trace into per-instruction arrays, chunk by chunk."""
    for ctx in iter_chunk_contexts(trace, program, chunk_events):
        yield expand_chunk(ctx, layout)


def _fetch_lengths(chunk: _Chunk, line_instrs: int) -> np.ndarray:
    """Vectorized SEQ.3 fetch length from every instruction position.

    All distance computations are O(n) passes — a prefix count per branch
    kind followed by a monotone (cache-friendly) gather into the branch
    position list — carried out in int32 with in-place combining: this
    function runs once per (layout, line size) per window and its memory
    traffic dominates the fused suite, so every avoided temporary counts.
    """
    n = chunk.addr.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)

    # distance to the next taken branch (inclusive): positions past the
    # last taken branch run to the end of the chunk
    taken_pos = np.flatnonzero(chunk.is_taken)
    if taken_pos.size:
        before_taken = np.cumsum(chunk.is_taken, dtype=np.int32)
        before_taken -= chunk.is_taken  # exclusive prefix count, in place
        np.minimum(before_taken, taken_pos.size - 1, out=before_taken)
        until_taken = taken_pos.astype(np.int32).take(before_taken)
        until_taken -= idx
        until_taken += 1
        tail = int(taken_pos[-1]) + 1  # past the last taken branch:
        if tail < n:  # run to the chunk end
            until_taken[tail:] = np.arange(n - tail, 0, -1, dtype=np.int32)
    else:
        until_taken = np.arange(n, 0, -1, dtype=np.int32)

    # distance to the third branch (inclusive): exclusive prefix count of
    # branches, clip-gathered into the branch positions; positions past
    # the (size - BRANCH_LIMIT)-th branch have no third branch (a
    # contiguous tail, since the count is monotone)
    branch_pos = np.flatnonzero(chunk.is_branch)
    if branch_pos.size >= BRANCH_LIMIT:
        third = np.cumsum(chunk.is_branch, dtype=np.int32)
        third -= chunk.is_branch
        third += BRANCH_LIMIT - 1
        np.minimum(third, branch_pos.size - 1, out=third)
        until_third = branch_pos.astype(np.int32).take(third)
        until_third -= idx
        until_third += 1
        cut = int(branch_pos[branch_pos.size - BRANCH_LIMIT]) + 1
        if cut < n:
            until_third[cut:] = n
        np.minimum(until_taken, until_third, out=until_taken)

    # two consecutive cache lines from the fetch address
    # addr // INSTR_BYTES as a shift (INSTR_BYTES is a power of two)
    instr_pos = np.right_shift(chunk.addr, INSTR_BYTES.bit_length() - 1).astype(np.int32)
    if line_instrs & (line_instrs - 1) == 0:
        instr_pos &= line_instrs - 1
    else:  # non-power-of-two line size: generic modulo
        instr_pos %= line_instrs
    np.subtract(2 * line_instrs, instr_pos, out=instr_pos)
    cap = instr_pos
    np.minimum(cap, FETCH_WIDTH, out=cap)

    np.minimum(until_taken, cap, out=until_taken)
    np.maximum(until_taken, 1, out=until_taken)
    return until_taken


def kernel_arrays(chunk: _Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's arrays as the native kernel takes them (no copy when
    they already are int64/bool and contiguous)."""
    return (
        np.ascontiguousarray(chunk.addr, dtype=np.int64),
        np.ascontiguousarray(chunk.is_branch, dtype=bool),
        np.ascontiguousarray(chunk.is_taken, dtype=bool),
    )


def seq3_geometry(line_bytes: int) -> dict:
    """SEQ.3 parameters of the native walks, read at call time."""
    return {
        "line_bytes": line_bytes,
        "line_instrs": line_bytes // INSTR_BYTES,
        "instr_shift": INSTR_BYTES.bit_length() - 1,
        "width": FETCH_WIDTH,
        "blimit": BRANCH_LIMIT,
    }


#: Lockstep rounds after which the few remaining long segments finish scalar.
_ORBIT_SCALAR_CUTOFF_ROUNDS = 64
_ORBIT_SCALAR_CUTOFF_ACTIVE = 32


def _orbit_starts(lengths: np.ndarray, is_taken: np.ndarray) -> np.ndarray:
    """Orbit of 0 under ``p -> p + lengths[p]``, vectorized.

    Requires the SEQ.3 invariant that a fetch never crosses a taken branch
    (``lengths[p] <= next_taken(p) - p + 1``, which :func:`_fetch_lengths`
    guarantees). The orbit then decomposes into independent segments
    delimited by taken branches: each segment's first fetch starts right
    after the previous taken branch. All segments are walked in lockstep —
    one gather per fetch — and the visited mask yields the starts already
    in stream order. Rare pathological segments (thousands of short
    fetches back to back) are finished with a scalar walk.
    """
    n = lengths.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    taken_pos = np.flatnonzero(is_taken)
    seg_start = np.concatenate(([0], taken_pos + 1))
    seg_end = np.concatenate((taken_pos, [n - 1]))[: seg_start.size]
    alive = seg_start <= seg_end  # drop the empty tail when the last
    cur = seg_start[alive]  # instruction is a taken branch
    end = seg_end[alive]

    visited = np.zeros(n, dtype=bool)
    rounds = 0
    while cur.size:
        visited[cur] = True
        cur = cur + lengths[cur]
        keep = cur <= end
        if not keep.all():
            cur = cur[keep]
            end = end[keep]
        rounds += 1
        if rounds >= _ORBIT_SCALAR_CUTOFF_ROUNDS and cur.size <= _ORBIT_SCALAR_CUTOFF_ACTIVE:
            length_list = lengths.tolist()
            for p, e in zip(cur.tolist(), end.tolist()):
                while p <= e:
                    visited[p] = True
                    p += length_list[p]
            break
    return np.flatnonzero(visited)


class FetchStream:
    """Incremental SEQ.3 fetch simulation fed one expanded chunk at a time.

    The stream accumulates the cache-independent counters and routes each
    chunk's line accesses to any number of attached i-cache miss counters
    (``consumers``, objects with ``feed(lines)``), so one pass over the
    trace evaluates every cache configuration at once. With
    ``collect_lines=True`` the per-chunk line arrays are also kept, which
    is what :func:`simulate_fetch` uses to build a full
    :class:`FetchResult`.
    """

    def __init__(
        self,
        layout_name: str,
        *,
        line_bytes: int = 32,
        consumers: Sequence | None = None,
        collect_lines: bool = False,
    ) -> None:
        self.layout_name = layout_name
        self.line_bytes = line_bytes
        self.consumers = list(consumers) if consumers is not None else []
        self.n_instructions = 0
        self.n_fetches = 0
        self.n_taken = 0
        self.line_chunks: list[np.ndarray] | None = [] if collect_lines else None

    def feed(self, chunk: _Chunk, lengths: np.ndarray | None = None) -> None:
        """Consume one expanded chunk.

        The native kernel walks the chunk itself. The NumPy fallback uses
        ``lengths`` from :func:`_fetch_lengths` for this stream's line
        size (computed here when not given).
        """
        n = chunk.addr.shape[0]
        self.n_instructions += n
        self.n_taken += int(chunk.is_taken.sum())
        kernel = native.active()
        if kernel is not None:
            lines = kernel.fetch_walk(*kernel_arrays(chunk), **seq3_geometry(self.line_bytes))
        else:
            if lengths is None:
                lengths = _fetch_lengths(chunk, self.line_bytes // INSTR_BYTES)
            start_arr = _orbit_starts(lengths, chunk.is_taken)
            first_line = chunk.addr[start_arr]
            if self.line_bytes & (self.line_bytes - 1) == 0:
                first_line >>= self.line_bytes.bit_length() - 1
            else:
                first_line //= self.line_bytes
            lines = np.empty(2 * start_arr.shape[0], dtype=np.int64)
            lines[0::2] = first_line
            lines[1::2] = first_line + 1
        self.n_fetches += lines.shape[0] // 2
        for consumer in self.consumers:
            consumer.feed(lines)
        if self.line_chunks is not None:
            self.line_chunks.append(lines)

    def result(self) -> FetchResult:
        return FetchResult(
            layout_name=self.layout_name,
            n_instructions=self.n_instructions,
            n_fetches=self.n_fetches,
            n_taken=self.n_taken,
            line_chunks=self.line_chunks if self.line_chunks is not None else [],
        )


def simulate_fetch(
    trace: BlockTrace,
    program: Program,
    layout: Layout,
    *,
    line_bytes: int = 32,
    chunk_events: int = _DEFAULT_CHUNK_EVENTS,
) -> FetchResult:
    """Run the SEQ.3 fetch unit over a trace under a layout."""
    stream = FetchStream(layout.name, line_bytes=line_bytes, collect_lines=True)
    for ctx in iter_chunk_contexts(trace, program, chunk_events):
        stream.feed(expand_chunk(ctx, layout))
    return stream.result()
