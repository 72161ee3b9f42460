"""Fused multi-configuration simulation: one trace pass, many streams.

The fetch and trace-cache simulators are incremental streams
(:class:`~repro.simulators.fetch.FetchStream`,
:class:`~repro.simulators.tracecache.TraceCacheStream`) whose i-cache
configurations are attached miss counters. This driver runs any number of
such streams — across layouts and configurations — in a *single* pass
over the trace: each window of events is expanded to the
layout-independent :class:`~repro.simulators.fetch.ChunkContext` once,
then for each distinct layout the per-layout instruction arrays are
computed once and fed to every stream of that layout. With the native
kernel each stream's walk computes SEQ.3 fetch lengths where it visits;
on the NumPy fallback the per-instruction lengths are computed once per
line size and shared.

Peak memory is one window's expansion regardless of how many streams are
fused: layouts are processed sequentially per window and the expansion is
dropped before the next layout's is built. Because every stream carries
its own state across windows exactly as in the one-shot simulators,
fused results are bit-identical to running each simulation alone.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.simulators import native
from repro.simulators.fetch import _fetch_lengths, expand_chunk, iter_chunk_contexts

__all__ = ["run_fused"]


def run_fused(
    trace,
    program: Program,
    pairs: Sequence[tuple[Layout, object]],
    *,
    chunk_events: int = 2_000_000,
    start_event: int = 0,
    stop_event: int | None = None,
) -> None:
    """Feed every ``(layout, stream)`` pair in one pass over ``trace``.

    ``trace`` is a :class:`~repro.profiling.trace.BlockTrace` or an
    on-disk :class:`~repro.profiling.tracestore.TraceStore`. Streams are
    mutated in place; read their counters or ``result()`` afterwards.
    Streams sharing the same layout *object* share the per-window
    expansion, and on the NumPy fallback, streams with equal
    ``line_bytes`` among those share the SEQ.3 fetch-length computation.

    ``start_event``/``stop_event`` restrict the pass to that event slice
    of the trace; the sharded engine (:mod:`repro.simulators.sharded`)
    uses window-aligned slices so consecutive passes splice together
    bit-identically to one full pass.
    """
    if not pairs:
        return
    # group by layout identity, preserving first-seen order
    groups: list[tuple[Layout, list]] = []
    index: dict[int, int] = {}
    for layout, stream in pairs:
        at = index.get(id(layout))
        if at is None:
            index[id(layout)] = len(groups)
            groups.append((layout, [stream]))
        else:
            groups[at][1].append(stream)

    for ctx in iter_chunk_contexts(
        trace, program, chunk_events, start_event=start_event, stop_event=stop_event
    ):
        for layout, streams in groups:
            chunk = expand_chunk(ctx, layout)
            lengths_for: dict[int, object] = {}
            share_lengths = native.active() is None
            for stream in streams:
                line_bytes = stream.line_bytes
                lengths = lengths_for.get(line_bytes)
                if lengths is None and share_lengths:
                    lengths = _fetch_lengths(chunk, line_bytes // INSTR_BYTES)
                    lengths_for[line_bytes] = lengths
                stream.feed(chunk, lengths)
            del chunk, lengths_for  # one expansion live at a time
