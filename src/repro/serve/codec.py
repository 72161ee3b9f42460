"""Wire formats for the optimization service.

Two concerns live here, both deliberately boring:

* :class:`JobSpec` — the validated, canonicalized body of a
  ``POST /v1/jobs`` request. Validation is strict (unknown keys are
  errors) so a tenant's typo surfaces as a 400 instead of a silently
  default-valued job, and canonicalization (sorted tuples, floats kept
  exact) makes equal work produce equal cache digests across tenants.
* :func:`serialize_suite` — a deterministic JSON document for
  :class:`~repro.experiments.suite.SuiteResults`. The same function
  serializes a batch-CLI suite and a served job result, so "the service
  returns byte-identical results to the batch pipeline" is checkable by
  comparing digests (:func:`result_digest`).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

from repro.cache import stable_digest
from repro.experiments.config import CACHE_CFA_GRID
from repro.experiments.suite import CellMetrics, SuiteResults
from repro.tpcd.workload import WorkloadSettings

__all__ = [
    "JobSpec",
    "SpecError",
    "canonical_json",
    "result_digest",
    "serialize_suite",
]

#: Upper bound on geometry rows per job; a grid is quadratic work.
MAX_GRID_ROWS = 64

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{40}$")


class SpecError(ValueError):
    """A job request failed validation (the server answers 400)."""


def _require_int(payload: dict, key: str, default: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key!r} must be an integer, got {value!r}")
    return value


def _parse_rows(payload: dict, key: str) -> tuple[tuple[int, int], ...] | None:
    rows = payload.get(key)
    if rows is None:
        return None
    if not isinstance(rows, (list, tuple)) or not rows:
        raise SpecError(f"{key!r} must be a non-empty list of [cache_kb, cfa_kb] pairs")
    if len(rows) > MAX_GRID_ROWS:
        raise SpecError(f"{key!r} has {len(rows)} rows; the limit is {MAX_GRID_ROWS}")
    out = []
    for row in rows:
        if (
            not isinstance(row, (list, tuple))
            or len(row) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) or v <= 0 for v in row)
        ):
            raise SpecError(f"{key!r} rows must be pairs of positive integers, got {row!r}")
        out.append((row[0], row[1]))
    return tuple(out)


@dataclass(frozen=True)
class JobSpec:
    """One tenant's layout-optimization request, canonicalized.

    Without ``trace_id`` the job evaluates the workload generated from
    ``(scale, seed, kernel_seed)`` — exactly what the batch
    ``repro.experiments`` CLIs compute, sharing their artifact-cache
    entries. With ``trace_id`` the Test-set trace is replaced by the
    uploaded stored trace of that id (the static image and Training
    profile still come from the settings).
    """

    scale: float = 0.0005
    seed: int = 7
    kernel_seed: int = 2029
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID
    tc_rows: tuple[tuple[int, int], ...] | None = None
    trace_id: str | None = None

    _KEYS = ("scale", "seed", "kernel_seed", "grid", "tc_rows", "trace_id")

    @classmethod
    def from_dict(cls, payload: object) -> "JobSpec":
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object")
        unknown = sorted(set(payload) - set(cls._KEYS))
        if unknown:
            raise SpecError(f"unknown job spec keys: {', '.join(unknown)}")
        scale = payload.get("scale", 0.0005)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise SpecError(f"'scale' must be a number, got {scale!r}")
        scale = float(scale)
        if not 0.0 < scale <= 1.0:
            raise SpecError(f"'scale' must be in (0, 1], got {scale}")
        grid = _parse_rows(payload, "grid")
        trace_id = payload.get("trace_id")
        if trace_id is not None and (
            not isinstance(trace_id, str) or not _TRACE_ID_RE.fullmatch(trace_id)
        ):
            raise SpecError(f"'trace_id' must be a 40-hex-digit id, got {trace_id!r}")
        return cls(
            scale=scale,
            seed=_require_int(payload, "seed", 7),
            kernel_seed=_require_int(payload, "kernel_seed", 2029),
            grid=grid if grid is not None else CACHE_CFA_GRID,
            tc_rows=_parse_rows(payload, "tc_rows"),
            trace_id=trace_id,
        )

    @property
    def settings(self) -> WorkloadSettings:
        return WorkloadSettings(scale=self.scale, seed=self.seed, kernel_seed=self.kernel_seed)

    def digest(self) -> str:
        """Content address of this spec — the cross-tenant dedupe key."""
        return stable_digest(self)

    def as_dict(self) -> dict:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "kernel_seed": self.kernel_seed,
            "grid": [list(row) for row in self.grid],
            "tc_rows": None if self.tc_rows is None else [list(r) for r in self.tc_rows],
            "trace_id": self.trace_id,
        }


# -- result serialization ------------------------------------------------


def _row_key(row: tuple[int, int]) -> str:
    return f"{row[0]}/{row[1]}"


def _cell_doc(cell: CellMetrics) -> dict:
    return {
        "miss_rate": cell.miss_rate,
        "ipc": cell.ipc,
        "ideal_ipc": cell.ideal_ipc,
        "run_length": cell.run_length,
    }


def serialize_suite(suite: SuiteResults) -> dict:
    """A JSON-safe document for one suite result, deterministically keyed.

    Geometry keys become ``"<cache_kb>/<cfa_kb>"`` strings; all maps are
    emitted in sorted order so two independent serializations of equal
    results are byte-identical under :func:`canonical_json`.
    """
    return {
        "n_instructions": suite.n_instructions,
        "cells": {
            _row_key(row): {name: _cell_doc(cell) for name, cell in sorted(cells.items())}
            for row, cells in sorted(suite.cells.items())
        },
        "assoc_miss": {str(kb): v for kb, v in sorted(suite.assoc_miss.items())},
        "victim_miss": {str(kb): v for kb, v in sorted(suite.victim_miss.items())},
        "tc_ipc": {str(kb): v for kb, v in sorted(suite.tc_ipc.items())},
        "tc_ideal": suite.tc_ideal,
        "tc_hit_rate": suite.tc_hit_rate,
        "tc_ops_ipc": {_row_key(r): v for r, v in sorted(suite.tc_ops_ipc.items())},
        "tc_ops_ideal": {_row_key(r): v for r, v in sorted(suite.tc_ops_ideal.items())},
    }


def canonical_json(doc: dict) -> str:
    """The one serialization used for digests and byte-identity checks."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def result_digest(doc: dict) -> str:
    """Hex SHA-256 of the canonical serialization of a result document."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()
