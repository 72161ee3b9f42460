"""Instruction cache models (paper Table 3's cache column variants).

Input is a stream of cache-line numbers (from the fetch unit), supplied as
one array or a list of chunk arrays. Chunks are processed one at a time
with per-set state carried across chunk boundaries, so the stream is never
concatenated (peak memory stays one chunk). Three organizations:

* direct-mapped — a native tag loop, or fully vectorized (stable argsort
  groups accesses by set; a miss is a tag change within the group, or
  against the carried tag at the chunk boundary);
* 2-way set associative, LRU — vectorized via the run-compression identity:
  within one set's access stream with consecutive duplicates removed, the
  cache holds exactly the previous two distinct lines, so access ``j`` hits
  iff it equals the compressed stream's entry ``j-2`` (the carried last two
  compressed entries extend the identity across chunks);
* direct-mapped + fully associative victim cache (16 lines) — stateful
  swap behaviour, a native loop. The fallback first run-compresses the
  stream per set against the primary slot (every access leaves its line
  primary, so a repeat of the preceding access to a set is a primary hit
  that changes no state), then runs the surviving accesses — typically a
  small fraction — through the explicit swap loop.

Each model is an incremental counter object (:func:`miss_counter`) with a
``feed(lines)`` method, so the fused multi-configuration driver can push
one chunk of lines through many configurations in a single pass over the
trace. :func:`count_misses` is the one-shot wrapper over the same
counters — chunked and whole-stream counts are identical by construction.
The loop-literal references are in :mod:`repro.validate.oracles`.

The native loops (:mod:`repro.simulators.native`) and the NumPy/Python
fallback keep the same carried state, so ``state_dict()`` is the same on
either backend and a counter may switch between them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.simulators import native

__all__ = [
    "CacheConfig",
    "count_misses",
    "counter_from_spec",
    "counter_from_state",
    "counter_spec",
    "miss_counter",
]


@dataclass(frozen=True)
class CacheConfig:
    """An i-cache organization (sizes in bytes)."""

    size_bytes: int
    line_bytes: int = 32
    associativity: int = 1
    victim_lines: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must be a multiple of line size x associativity")
        if self.associativity not in (1, 2):
            raise ValueError("only direct-mapped and 2-way caches are modeled (as in the paper)")
        if self.victim_lines and self.associativity != 1:
            raise ValueError("the victim cache augments a direct-mapped cache")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


def _as_chunks(lines) -> list[np.ndarray]:
    if isinstance(lines, np.ndarray):
        chunks = [lines]
    else:
        chunks = list(lines)
    return [c for c in chunks if c.size]


def miss_counter(config: CacheConfig) -> "_MissCounter":
    """A stateful cold-start miss counter for ``config``.

    Feed it line chunks in stream order; ``.misses`` is the running count.
    Feeding the stream in any chunking yields the same count as one call.
    """
    if config.victim_lines:
        return _VictimCounter(config.n_sets, config.victim_lines)
    if config.associativity == 1:
        return _DirectMappedCounter(config.n_sets)
    return _TwoWayLRUCounter(config.n_sets)


def count_misses(lines: np.ndarray | Sequence[np.ndarray], config: CacheConfig) -> int:
    """Cold-start miss count of the line stream under ``config``."""
    counter = miss_counter(config)
    for chunk in _as_chunks(lines):
        counter.feed(chunk)
    return counter.misses


def _group_sorted(lines: np.ndarray, n_sets: int):
    """Sort a chunk stably by set; return (sets, lines, group-start mask).

    The set index is computed with a bit mask when ``n_sets`` is a power
    of two and narrowed to uint16 when it fits: NumPy's stable sort is a
    radix sort for 16-bit keys, which turns the dominant cost of every
    cache model from O(n log n) comparisons into O(n) passes.
    """
    if n_sets & (n_sets - 1) == 0:
        sets = lines & (n_sets - 1)
    else:
        sets = lines % n_sets
    if n_sets <= 1 << 16:
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    first = np.empty(lines.shape[0], dtype=bool)
    first[0] = True
    first[1:] = sorted_sets[1:] != sorted_sets[:-1]
    return order, sorted_sets, sorted_lines, first


class _MissCounter:
    """Base: a cache model carrying state across fed chunks.

    Every concrete counter implements the sharding state protocol:
    ``state_dict()``/``load_state()`` capture and restore the *complete*
    carried state (including ``misses``), so a relay worker can resume a
    counter mid-stream bit-identically. Counters built with
    ``record_journal=True`` additionally capture the per-set boundary
    facts (:meth:`shard_journal`) that let the sharded reconciliation
    pass stitch an independently cold-started shard onto arbitrary
    incoming state without replaying it.
    """

    __slots__ = ("misses",)

    kind = "abstract"

    def __init__(self) -> None:
        self.misses = 0

    def feed(self, lines: np.ndarray) -> None:
        if lines.size:
            self._feed(lines)

    def _feed(self, lines: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _DirectMappedCounter(_MissCounter):
    __slots__ = ("_tags", "_head")

    kind = "dm"

    def __init__(self, n_sets: int, *, record_journal: bool = False) -> None:
        super().__init__()
        self._tags = np.full(n_sets, -1, dtype=np.int64)
        self._head = np.full(n_sets, -1, dtype=np.int64) if record_journal else None

    def _feed(self, lines: np.ndarray) -> None:
        kernel = native.active()
        if kernel is not None:
            self.misses += kernel.dm_feed(
                np.ascontiguousarray(lines, dtype=np.int64), self._tags, self._head
            )
            return
        tags = self._tags
        _, sorted_sets, sorted_lines, first = _group_sorted(lines, tags.shape[0])
        miss = np.empty(lines.shape[0], dtype=bool)
        miss[1:] = first[1:] | (sorted_lines[1:] != sorted_lines[:-1])
        first_idx = np.flatnonzero(first)
        miss[first_idx] = sorted_lines[first_idx] != tags[sorted_sets[first_idx]]
        if self._head is not None:
            # first access ever to a set (tag still cold): the only access
            # whose hit/miss outcome depends on pre-shard state
            fresh = first_idx[tags[sorted_sets[first_idx]] == -1]
            self._head[sorted_sets[fresh]] = sorted_lines[fresh]
        self.misses += int(miss.sum())
        last_idx = np.concatenate((first_idx[1:] - 1, [lines.shape[0] - 1]))
        tags[sorted_sets[last_idx]] = sorted_lines[last_idx]

    def state_dict(self) -> dict:
        return {"kind": self.kind, "tags": self._tags.copy(), "misses": self.misses}

    def load_state(self, state: dict) -> None:
        self._tags[:] = state["tags"]
        self.misses = int(state["misses"])

    def shard_journal(self) -> dict:
        """Boundary facts of a cold-started run: per touched set, the
        first accessed line (``head``) and the final tag (``end``)."""
        if self._head is None:
            raise RuntimeError("counter was not built with record_journal=True")
        touched = np.flatnonzero(self._tags != -1)
        return {
            "kind": self.kind,
            "sets": touched,
            "head": self._head[touched],
            "end": self._tags[touched],
            "misses": self.misses,
        }


class _TwoWayLRUCounter(_MissCounter):
    # carried per-set state: the last two entries of the set's run-compressed
    # access stream (w0 most recent); distinct negative sentinels keep the
    # cold-start "first two distinct accesses miss" behaviour
    __slots__ = ("_w0", "_w1", "_c1", "_c2")

    kind = "lru2"

    def __init__(self, n_sets: int, *, record_journal: bool = False) -> None:
        super().__init__()
        self._w0 = np.full(n_sets, -1, dtype=np.int64)
        self._w1 = np.full(n_sets, -2, dtype=np.int64)
        self._c1 = np.full(n_sets, -1, dtype=np.int64) if record_journal else None
        self._c2 = np.full(n_sets, -1, dtype=np.int64) if record_journal else None

    def _feed(self, lines: np.ndarray) -> None:
        w0, w1 = self._w0, self._w1
        _, sorted_sets, sorted_lines, first = _group_sorted(lines, w0.shape[0])
        # compress consecutive duplicates within each set's stream: those are
        # guaranteed hits (the line is MRU); only distinct transitions can
        # miss. At the chunk boundary the previous compressed entry is w0.
        keep = np.empty(lines.shape[0], dtype=bool)
        keep[1:] = first[1:] | (sorted_lines[1:] != sorted_lines[:-1])
        first_idx = np.flatnonzero(first)
        keep[first_idx] = sorted_lines[first_idx] != w0[sorted_sets[first_idx]]
        c_sets = sorted_sets[keep]
        c_lines = sorted_lines[keep]
        n = c_lines.shape[0]
        if n == 0:
            return
        # entry j hits iff it equals entry j-2 of the same set's compressed
        # stream (entry j-1 differs by construction, so {j-1, j-2} is the
        # set state); the carried (w0, w1) stand in for entries -1 and -2
        miss = np.ones(n, dtype=bool)
        if n > 2:
            same_set = c_sets[2:] == c_sets[:-2]
            miss[2:] = ~(same_set & (c_lines[2:] == c_lines[:-2]))
        g_first = np.empty(n, dtype=bool)
        g_first[0] = True
        g_first[1:] = c_sets[1:] != c_sets[:-1]
        g_start = np.flatnonzero(g_first)
        miss[g_start] = c_lines[g_start] != w1[c_sets[g_start]]
        second = g_start + 1
        second = second[second < n]
        second = second[~g_first[second]]
        miss[second] = c_lines[second] != w0[c_sets[second]]
        if self._c1 is not None:
            # record each set's first two compressed entries of the whole
            # run — the only accesses whose outcome depends on pre-run
            # state. Pre-chunk w0 == -1 means no compressed entry yet;
            # w1 == -1 means exactly one (the cold sentinels are -1/-2 and
            # a rolled-forward w1 only ever takes value -1 from w0).
            gs = c_sets[g_start]
            first_ever = w0[gs] == -1
            self._c1[gs[first_ever]] = c_lines[g_start[first_ever]]
            second_ever = ~first_ever & (w1[gs] == -1)
            self._c2[gs[second_ever]] = c_lines[g_start[second_ever]]
            if second.size:
                ss = c_sets[second]
                both_here = w0[ss] == -1
                self._c2[ss[both_here]] = c_lines[second[both_here]]
        self.misses += int(miss.sum())
        # roll the carried state forward to each set's last two entries
        g_last = np.concatenate((g_start[1:] - 1, [n - 1]))
        g_sets = c_sets[g_start]
        single = g_last == g_start
        w1[g_sets[single]] = w0[g_sets[single]]
        w1[g_sets[~single]] = c_lines[g_last[~single] - 1]
        w0[g_sets] = c_lines[g_last]

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "w0": self._w0.copy(),
            "w1": self._w1.copy(),
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        self._w0[:] = state["w0"]
        self._w1[:] = state["w1"]
        self.misses = int(state["misses"])

    def shard_journal(self) -> dict:
        """Boundary facts of a cold-started run: per touched set, the
        first two compressed entries (``c2`` is -1 when only one exists)
        and the final compressed pair (``w1`` is -1 in the same case)."""
        if self._c1 is None:
            raise RuntimeError("counter was not built with record_journal=True")
        touched = np.flatnonzero(self._w0 != -1)
        return {
            "kind": self.kind,
            "sets": touched,
            "c1": self._c1[touched],
            "c2": self._c2[touched],
            "w0": self._w0[touched],
            "w1": self._w1[touched],
            "misses": self.misses,
        }


class _VictimCounter(_MissCounter):
    """Victim-cache simulation over chunked streams.

    The buffer is an int64 array, oldest line first, with room for one
    line past ``capacity``. The fallback's vectorized per-set run
    compression against the primary slots removes the accesses that
    repeat the preceding access to the same set — always primary hits
    with no state change — before the stateful swap loop.
    """

    __slots__ = ("_primary", "_vbuf", "_vlen", "_capacity")

    kind = "victim"

    def __init__(self, n_sets: int, capacity: int) -> None:
        super().__init__()
        self._primary = np.full(n_sets, -1, dtype=np.int64)
        self._vbuf = np.zeros(capacity + 1, dtype=np.int64)
        self._vlen = 0
        self._capacity = capacity

    def _feed(self, lines: np.ndarray) -> None:
        kernel = native.active()
        if kernel is not None:
            misses, self._vlen = kernel.victim_feed(
                np.ascontiguousarray(lines, dtype=np.int64),
                self._primary, self._vbuf, self._vlen, self._capacity,
            )
            self.misses += misses
            return
        primary = self._primary
        victim = dict.fromkeys(self._vbuf[: self._vlen].tolist())
        n_sets = primary.shape[0]
        capacity = self._capacity
        misses = 0
        order, sorted_sets, sorted_lines, first = _group_sorted(lines, n_sets)
        keep_sorted = np.empty(lines.shape[0], dtype=bool)
        keep_sorted[1:] = first[1:] | (sorted_lines[1:] != sorted_lines[:-1])
        first_idx = np.flatnonzero(first)
        keep_sorted[first_idx] = sorted_lines[first_idx] != primary[sorted_sets[first_idx]]
        # back to stream order: the compressed accesses interleave across
        # sets exactly as in the original stream
        keep = np.zeros(lines.shape[0], dtype=bool)
        keep[order] = keep_sorted
        compressed = lines[keep]
        sets = (compressed % n_sets).tolist()
        for line, s in zip(compressed.tolist(), sets):
            resident = primary[s]
            if resident == line:
                continue
            if line in victim:
                del victim[line]
                if resident >= 0:
                    victim[resident] = None
                    while len(victim) > capacity:
                        del victim[next(iter(victim))]
                primary[s] = line
                continue
            misses += 1
            if resident >= 0:
                victim.pop(resident, None)
                victim[resident] = None
                while len(victim) > capacity:
                    del victim[next(iter(victim))]
            primary[s] = line
        self._set_victim(list(victim))
        self.misses += misses

    def _set_victim(self, lines: list) -> None:
        if len(lines) > self._capacity:
            raise ValueError(f"{len(lines)} victim lines exceed capacity {self._capacity}")
        self._vbuf[: len(lines)] = lines
        self._vlen = len(lines)

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "primary": self._primary.copy(),
            "victim": self._vbuf[: self._vlen].tolist(),  # LRU order, oldest first
            "capacity": self._capacity,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        self._primary[:] = state["primary"]
        self._capacity = int(state["capacity"])
        self._vbuf = np.zeros(self._capacity + 1, dtype=np.int64)
        self._set_victim(list(state["victim"]))
        self.misses = int(state["misses"])


# -- sharding construction protocol --------------------------------------


def counter_spec(counter: _MissCounter) -> tuple:
    """A picklable recipe for building a cold twin of ``counter``."""
    if isinstance(counter, _DirectMappedCounter):
        return ("dm", counter._tags.shape[0])
    if isinstance(counter, _TwoWayLRUCounter):
        return ("lru2", counter._w0.shape[0])
    if isinstance(counter, _VictimCounter):
        return ("victim", counter._primary.shape[0], counter._capacity)
    raise TypeError(f"not a miss counter: {type(counter).__name__}")


def counter_from_spec(spec: tuple, *, record_journal: bool = False) -> _MissCounter:
    """Build a cold counter from a :func:`counter_spec` recipe."""
    kind = spec[0]
    if kind == "dm":
        return _DirectMappedCounter(spec[1], record_journal=record_journal)
    if kind == "lru2":
        return _TwoWayLRUCounter(spec[1], record_journal=record_journal)
    if kind == "victim":
        if record_journal:
            raise ValueError("victim counters have no shard journal; relay them")
        return _VictimCounter(spec[1], spec[2])
    raise ValueError(f"unknown counter spec {spec!r}")


def counter_from_state(state: dict) -> _MissCounter:
    """Reconstruct a counter, state and all, from a ``state_dict()``."""
    kind = state["kind"]
    if kind == "dm":
        counter = _DirectMappedCounter(len(state["tags"]))
    elif kind == "lru2":
        counter = _TwoWayLRUCounter(len(state["w0"]))
    elif kind == "victim":
        counter = _VictimCounter(len(state["primary"]), int(state["capacity"]))
    else:
        raise ValueError(f"unknown counter state kind {kind!r}")
    counter.load_state(state)
    return counter
