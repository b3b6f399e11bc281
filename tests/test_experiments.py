"""Experiment registry, row shapes, verdict plumbing, serialization."""

import json

import pytest

from sidonspace import experiments
from sidonspace.experiments import (
    EXPERIMENTS,
    SAMPLE_BANDS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    ExperimentReport,
    ExperimentSpec,
    run_experiment,
)


def test_registry_contents():
    assert set(EXPERIMENTS) == {
        "table2",
        "table3",
        "prop-f26",
        "prop-trace-9",
        "sample-f2-9",
        "brset-316",
    }
    assert len(TABLE2_ROWS) == 13
    assert len(TABLE3_ROWS) == 13
    assert set(SAMPLE_BANDS) == {"two_sidon", "three_sidon"}


def test_unknown_experiment():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec("tables-turned"))


def test_table2_first_row():
    rep = run_experiment(ExperimentSpec("table2", {"limit": 1}))
    assert rep.verdict == "match" and rep.exit_code == 0
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row["index"] == 0
    assert (row["r"], row["n"], row["k"]) == (3, 25, 5)
    assert row["q"] == 2 and row["s"] == 1
    assert row["expected_dim"] == 20
    assert row["delta_count"] == 31  # every nonzero delta of F_32
    assert row["dims_observed"] == {"20": 31}
    assert row["chain_dims_first"] == [5, 15, 20]
    assert row["cap_violations"] == 0
    assert row["verdict"] == "match"
    assert rep.params["rows_total"] == 13


def test_table3_first_row():
    rep = run_experiment(ExperimentSpec("table3", {"limit": 1}))
    assert rep.verdict == "match"
    row = rep.rows[0]
    assert (row["r"], row["n"], row["k"]) == (3, 36, 4)
    assert row["q"] == 3
    assert row["expected_dim"] == 16
    assert row["delta_count"] == 40  # norm filter halves the 80 nonzero deltas
    assert row["dims_observed"] == {"16": 40}
    assert row["chain_dims_first"] == [4, 10, 16]
    assert row["verdict"] == "match"


def test_table_budget_skip():
    rep = run_experiment(ExperimentSpec("table2", {"limit": 1, "budget": 100}))
    assert rep.verdict == "budget-skip" and rep.exit_code == 2
    row = rep.rows[0]
    assert row["verdict"] == "skipped: budget"
    assert row["work"] == 2325
    assert "dims_observed" not in row


def test_table_audit_collection():
    rep = run_experiment(ExperimentSpec("table2", {"limit": 1, "collect_audits": True}))
    assert len(rep.audits) == 2
    first, sweep = rep.audits
    assert first["experiment_row"] == 0
    assert first["audit"]["ok"] is True
    assert first["audit"]["dims"] == [5, 15, 20]
    assert sweep["spaces"] == 31
    assert sweep["checks"] == 31 * 3
    assert sweep["violations"] == 0


def test_table_audits_off():
    rep = run_experiment(ExperimentSpec("table2", {"limit": 1, "collect_audits": False}))
    assert rep.audits == []


@pytest.mark.parametrize("name", ["table2", "prop-f26", "prop-trace-9", "brset-316"])
@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_collect_audits_must_be_a_json_boolean(name, value):
    with pytest.raises(ValueError, match="collect_audits must be true or false"):
        run_experiment(ExperimentSpec(name, {"collect_audits": value}))


@pytest.mark.parametrize(
    "name,key",
    [("prop-f26", "limit"), ("sample-f2-9", "collect_audits"), ("brset-316", "budget"),
     ("table2", "samples"), ("table3", "foo")],
)
def test_an_unread_parameter_is_refused_before_any_field_is_built(monkeypatch, name, key):
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(experiments, "make_field", no_field)
    with pytest.raises(ValueError, match=f"does not read '{key}'"):
        run_experiment(ExperimentSpec(name, {key: 1}))


def test_prop_f26_mismatch_is_visible():
    rep = run_experiment(ExperimentSpec("prop-f26"))
    assert rep.verdict == "mismatch" and rep.exit_code == 1
    by_field = {row["field"]: row for row in rep.rows}
    r6 = by_field["F_(2^6)"]
    assert r6["claimed"] is True
    assert r6["gamma_count"] == 56
    assert r6["computed"] == {"two_sidon": 0, "three_sidon": 0}
    assert r6["verdict"] == "mismatch"
    bad = r6["first_non_two_sidon"]
    assert bad["gamma"] == [0, 1, 0, 0, 0, 0]
    assert set(bad["witness"]) == {
        "multiset_a",
        "multiset_b",
        "indices_a",
        "indices_b",
        "product",
    }
    r9 = by_field["F_(2^9)"]
    assert r9["claimed"] is False
    assert r9["gamma_count"] == 504
    assert r9["computed"] == {"two_sidon": 504, "three_sidon": 0}
    assert r9["verdict"] == "match"


def test_prop_trace_9_first_field():
    rep = run_experiment(ExperimentSpec("prop-trace-9", {"limit": 1}))
    assert rep.verdict == "match"
    assert rep.params["qs"] == [2]
    row = rep.rows[0]
    assert row["field"] == "F_(2^9)"
    assert row["gamma_count"] == 504
    assert row["computed"] == {"two_sidon": 504, "three_sidon": 0}
    assert "first_non_two_sidon" not in row


def test_sample_f2_9_small_run():
    rep = run_experiment(ExperimentSpec("sample-f2-9", {"samples": 300}))
    assert rep.verdict == "match" and rep.exit_code == 0
    by_prop = {row["property"]: row for row in rep.rows}
    two = by_prop["two_sidon"]
    assert two["samples"] == 300 and two["count"] == 287
    assert abs(two["fraction"] - 287 / 300) < 1e-12
    assert tuple(two["printed_range"]) == SAMPLE_BANDS["two_sidon"]
    assert two["band"][0] < two["fraction"] < two["band"][1]
    three = by_prop["three_sidon"]
    assert three["count"] == 38
    assert three["verdict"] == "match"


def test_sample_is_seed_deterministic():
    a = run_experiment(ExperimentSpec("sample-f2-9", {"samples": 120}))
    b = run_experiment(ExperimentSpec("sample-f2-9", {"samples": 120}))
    assert a.rows == b.rows
    c = run_experiment(ExperimentSpec("sample-f2-9", {"samples": 120}, seed=1))
    assert [r["count"] for r in c.rows] != [r["count"] for r in a.rows]
    assert c.params["seed"] == 1


def test_brset_316_honours_the_seed():
    rep = run_experiment(ExperimentSpec("brset-316", seed=1))
    assert rep.verdict == "match"
    assert rep.params["seed"] == 1
    assert rep.rows[0]["computed"] == {
        "size": 40, "modulus": 21523360, "sums": 11480, "verified": True,
    }


def test_report_serialization():
    rep = ExperimentReport(
        name="toy",
        params={"seed": 0},
        rows=[
            {"a": 1, "b": [1, 2], "verdict": "match"},
            {"a": 2, "c": "x", "verdict": "match"},
        ],
        verdict="match",
    )
    d = rep.to_dict()
    assert d["exit_code"] == 0
    assert json.loads(rep.to_json()) == json.loads(json.dumps(d))
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "a,b,verdict,c"
    assert lines[1] == '1,"[1, 2]",match,'
    assert lines[2] == "2,,match,x"


def test_exit_code_mapping():
    base = dict(name="toy", params={}, rows=[])
    assert ExperimentReport(**base, verdict="match").exit_code == 0
    assert ExperimentReport(**base, verdict="mismatch").exit_code == 1
    assert ExperimentReport(**base, verdict="budget-skip").exit_code == 2
