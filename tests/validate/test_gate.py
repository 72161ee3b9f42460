"""The paper-shape gate: every EXPERIMENTS.md claim holds on the gate
workload, the report schema is stable, and the gate actually fails when a
claim is broken."""

import json

import pytest

from repro.experiments import figure3
from repro.validate.gate import (
    FIGURE3_DISCARDED,
    FIGURE3_MAIN,
    GATE_GRID,
    GATE_SCALE,
    check_figure3,
    check_paper_shape,
    run_validation,
)


def test_figure3_claims_exact():
    claims = check_figure3()
    assert [c.claim_id for c in claims] == [
        "figure3.main_trace",
        "figure3.secondary",
        "figure3.discarded",
    ]
    assert all(c.passed for c in claims), [c.detail for c in claims if not c.passed]
    # The gate pins the paper's worked example verbatim.
    assert FIGURE3_MAIN == ["A1", "A2", "A3", "A4", "C1", "C2", "C3", "C4", "A7", "A8"]
    assert FIGURE3_DISCARDED == {"A6", "B1", "C5"}


def test_figure3_gate_detects_regression(monkeypatch):
    monkeypatch.setattr(
        figure3, "compute", lambda *a, **k: ([["A1", "A2"]], ["A6", "B1", "C5"])
    )
    claims = check_figure3()
    assert not claims[0].passed  # main trace wrong
    assert claims[2].passed  # discarded still right


@pytest.fixture(scope="module")
def paper_shape():
    return check_paper_shape(GATE_SCALE, GATE_GRID)


def test_paper_shape_all_claims_pass(paper_shape):
    claims, meta = paper_shape
    failed = [(c.claim_id, c.detail) for c in claims if not c.passed]
    assert failed == []
    assert meta["scale"] == GATE_SCALE
    assert meta["n_instructions"] > 0


def test_paper_shape_covers_every_table_and_figure(paper_shape):
    claims, _meta = paper_shape
    ids = {c.claim_id for c in claims}
    for row in GATE_GRID:
        assert f"table3.stc_beats_orig[{row[0]},{row[1]}]" in ids
        assert f"table4.stc_beats_orig[{row[0]},{row[1]}]" in ids
        assert f"table4.combined_beats_parts[{row[0]},{row[1]}]" in ids
    largest = max(GATE_GRID)
    assert f"table4.combined_best[{largest[0]},{largest[1]}]" in ids
    prefixes = {claim_id.split(".")[0] for claim_id in ids}
    assert prefixes == {"figure3", "table1", "table2", "figure2", "table3", "table4"}


def test_run_validation_report_schema():
    report = run_validation(seed=0, cases=5, law_rounds=1, paper_shape=False)
    assert report["schema_version"] == 1
    assert report["seed"] == 0
    assert report["differential"]["cases"] == 5
    assert report["laws"]["cases"] == 1 * 4 * 2  # 4 laws x 2 window settings
    assert "paper_shape" not in report
    assert report["passed"] is True
    json.dumps(report)  # the report must serialize as-is
