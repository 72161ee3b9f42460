"""Job-spec validation and deterministic result serialization."""

import pytest

from repro.experiments.config import CACHE_CFA_GRID
from repro.experiments.suite import CellMetrics, SuiteResults
from repro.serve.codec import (
    JobSpec,
    SpecError,
    canonical_json,
    result_digest,
    serialize_suite,
)


def test_defaults_match_batch_cli():
    spec = JobSpec.from_dict({})
    assert spec.scale == 0.0005
    assert spec.seed == 7
    assert spec.kernel_seed == 2029
    assert spec.grid == CACHE_CFA_GRID
    assert spec.tc_rows is None
    assert spec.trace_id is None


def test_grid_normalizes_to_tuples():
    spec = JobSpec.from_dict({"grid": [[8, 2], [16, 4]], "tc_rows": [[8, 2]]})
    assert spec.grid == ((8, 2), (16, 4))
    assert spec.tc_rows == ((8, 2),)


def test_equal_specs_share_a_digest():
    a = JobSpec.from_dict({"scale": 0.0005, "grid": [[8, 2]]})
    b = JobSpec.from_dict({"grid": [[8, 2]], "scale": 0.0005})
    assert a.digest() == b.digest()
    c = JobSpec.from_dict({"grid": [[8, 2]], "scale": 0.001})
    assert a.digest() != c.digest()


@pytest.mark.parametrize(
    "payload",
    [
        [],  # not an object
        {"scal": 0.1},  # typo key
        {"scale": "big"},
        {"scale": 0.0},
        {"scale": 2.0},
        {"scale": True},
        {"seed": 1.5},
        {"seed": True},
        {"grid": []},
        {"grid": [[8]]},
        {"grid": [[8, 0]]},
        {"grid": [[8, -2]]},
        {"grid": [[8, 2.5]]},
        {"grid": "8/2"},
        {"grid": [[8, 2]] * 65},  # over MAX_GRID_ROWS
        {"tc_rows": [[8, "2"]]},
        {"trace_id": "xyz"},
        {"trace_id": "ABC123"},
        {"trace_id": 42},
        {"shards": 2},  # removed field: strict validation names it
    ],
    ids=repr,
)
def test_bad_specs_rejected(payload):
    with pytest.raises(SpecError):
        JobSpec.from_dict(payload)


def test_as_dict_round_trips():
    spec = JobSpec.from_dict({"scale": 0.0005, "grid": [[8, 2]], "trace_id": "a" * 40})
    assert JobSpec.from_dict(spec.as_dict()) == spec


def _tiny_suite() -> SuiteResults:
    suite = SuiteResults(n_instructions=100)
    cell = CellMetrics(miss_rate=1.5, ipc=5.0, ideal_ipc=8.0, run_length=12.0)
    suite.cells[(8, 2)] = {"orig": cell, "ops": cell}
    suite.assoc_miss[8] = 1.1
    suite.victim_miss[8] = 0.9
    suite.tc_ipc[8] = 6.0
    suite.tc_ideal = 9.0
    suite.tc_hit_rate = 0.8
    suite.tc_ops_ipc[(8, 2)] = 7.0
    suite.tc_ops_ideal[(8, 2)] = 9.5
    return suite


def test_serialization_is_deterministic_and_keyed_by_geometry():
    doc_a = serialize_suite(_tiny_suite())
    doc_b = serialize_suite(_tiny_suite())
    assert canonical_json(doc_a) == canonical_json(doc_b)
    assert result_digest(doc_a) == result_digest(doc_b)
    assert doc_a["cells"]["8/2"]["ops"]["miss_rate"] == 1.5
    assert doc_a["assoc_miss"]["8"] == 1.1
    assert doc_a["tc_ops_ipc"]["8/2"] == 7.0


def test_digest_sensitive_to_values():
    suite = _tiny_suite()
    base = result_digest(serialize_suite(suite))
    suite.tc_ideal += 1e-9
    assert result_digest(serialize_suite(suite)) != base
