"""CLI surface: report shapes, exit codes, file round trips."""

import json

import pytest

from sidonspace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_field_report(capsys):
    code, rep, _ = run_json(capsys, "field", "2", "9", "--over", "3")
    assert code == 0
    assert rep["q"] == 2 and rep["order"] == 512
    assert rep["subfield_degrees"] == [1, 3, 9]
    assert len(rep["generator"]) == 9
    assert rep["generator_over_m"] == 3
    assert rep["generator_primitive"] is False


def test_field_prime_power_base(capsys):
    code, rep, _ = run_json(capsys, "field", "4", "3")
    assert code == 0
    assert rep["q"] == 4 and rep["order"] == 64
    assert rep["subfield_degrees"] == [1, 3]
    assert len(rep["generator"]) == 6


def test_construct_monomial_and_out(capsys, tmp_path):
    out = tmp_path / "rec.json"
    code, rep, _ = run_json(
        capsys, "construct", "monomial", "--q", "2", "--k", "3", "--t", "3",
        "--r", "2", "--out", str(out),
    )
    assert code == 0
    assert rep["name"] == "monomial"
    assert rep["claims"]["span_dims"] == {"2": 6}
    assert json.loads(out.read_text()) == rep


def test_construct_missing_required(capsys):
    code, out, err = run_cli(capsys, "construct", "monomial", "--q", "2", "--k", "3", "--t", "3")
    assert code == 64
    assert "--r" in err


def test_construct_failure_is_usage_error(capsys):
    # t == r over F_2 is unsatisfiable
    code, out, err = run_cli(
        capsys, "construct", "monomial", "--q", "2", "--k", "3", "--t", "3", "--r", "3"
    )
    assert code == 64 and "error" in err


def make_space_file(capsys, tmp_path, name, *argv):
    out = tmp_path / name
    code, rep, _ = run_json(capsys, *argv, "--out", str(out))
    assert code == 0
    return out


def trace_file(capsys, tmp_path):
    return make_space_file(
        capsys, tmp_path, "trace.json",
        "construct", "trace", "--q", "2", "--k", "3", "--t", "3",
    )


def test_span_of_construct_record(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, rep, _ = run_json(capsys, "span", str(f))
    assert code == 0
    assert rep["dim"] == 3
    assert rep["dims"] == [3, 6, 8, 9]
    assert rep["t"] == 4 and rep["t_bar"] == 4
    assert rep["truncated"] is False
    assert rep["stabilizer_degrees"] == [1, 1, 1, 9]


def test_span_s_max(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, rep, _ = run_json(capsys, "span", str(f), "--s-max", "2")
    assert code == 0
    assert rep["dims"] == [3, 6]
    assert rep["t"] is None and rep["truncated"] is True


def test_check_both_routes(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, rep, _ = run_json(capsys, "check", str(f), "--method", "both")
    assert code == 0
    assert rep["verdict"] is True
    assert set(rep["reports"]) == {"products", "intersection"}


def test_check_false_verdict_still_exits_zero(capsys, tmp_path):
    f = make_space_file(
        capsys, tmp_path, "t4.json",
        "construct", "trace", "--q", "2", "--k", "4", "--t", "2",
    )
    code, rep, _ = run_json(capsys, "check", str(f), "--method", "both")
    assert code == 0
    assert rep["verdict"] is False
    assert rep["reports"]["products"]["witness"] is not None


def test_check_intersection_needs_r2(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, out, err = run_cli(capsys, "check", str(f), "--method", "intersection", "--r", "3")
    assert code == 64


def test_check_budget_exit(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, out, err = run_cli(capsys, "check", str(f), "--r", "3", "--budget", "10")
    assert code == 2
    assert "budget exceeded" in err


def test_check_of_an_oversized_space_is_a_budget_exit(capsys, tmp_path):
    # 2^23 elements: on the products route the enumeration guard fires
    # before anything is allocated
    f = tmp_path / "big.json"
    basis = [[int(i == j) for j in range(23)] for i in range(23)]
    f.write_text(json.dumps({"field": {"p": 2, "n": 23}, "basis": basis}))
    for method in ("products", "intersection"):
        code, out, err = run_cli(capsys, "check", str(f), "--method", method)
        assert code == 2
        assert "budget exceeded" in err


def test_orbit_report_cli(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, rep, _ = run_json(capsys, "orbit", str(f))
    assert code == 0
    assert rep["orbit_size"] == 511
    assert rep["min_distance"] == 4
    assert rep["sidon"] is True


def test_equiv_self_and_inequivalent(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, rep, _ = run_json(capsys, "equiv", str(f), str(f))
    assert code == 0
    assert rep["equivalent"] is True
    assert rep["alpha"] == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert rep["sigma_p_exponent"] == 0
    g = make_space_file(
        capsys, tmp_path, "mono.json",
        "construct", "monomial", "--q", "2", "--k", "3", "--t", "3", "--r", "2",
    )
    code, rep, _ = run_json(capsys, "equiv", str(g), str(f))
    assert code == 0
    assert rep["equivalent"] is False
    assert rep["alpha"] is None and rep["sigma_p_exponent"] is None
    assert rep["dims"] == [3, 3]


def test_brset_verify(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"elements": [0, 1, 3], "r": 2}))
    code, rep, _ = run_json(capsys, "brset", "verify", str(good))
    assert code == 0
    assert rep["verified"] is True and rep["witness"] is None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": [0, 1, 2, 3], "r": 2}))
    code, rep, _ = run_json(capsys, "brset", "verify", str(bad))
    assert code == 1
    assert rep["witness"]["sum"] == 2


def test_brset_extract(capsys, tmp_path):
    f = make_space_file(
        capsys, tmp_path, "t33.json",
        "construct", "trace", "--q", "3", "--k", "3", "--t", "3",
    )
    out = tmp_path / "set.json"
    code, rep, _ = run_json(
        capsys, "brset", "extract", str(f), "--r", "2", "--out", str(out)
    )
    assert code == 0
    bs = rep["brset"]
    assert bs["modulus"] == 9841
    assert len(bs["elements"]) == 13
    assert bs["elements"][0] == 0
    assert bs["verified"] is True
    saved = json.loads(out.read_text())
    assert saved == bs  # --out keeps only the bare set
    code2, rep2, _ = run_json(capsys, "brset", "verify", str(out))
    assert code2 == 0


def test_brset_extract_rejects_non_sidon(capsys, tmp_path):
    f = make_space_file(
        capsys, tmp_path, "t42.json",
        "construct", "trace", "--q", "2", "--k", "4", "--t", "2",
    )
    code, out, err = run_cli(capsys, "brset", "extract", str(f), "--r", "2")
    assert code == 64 and "error" in err
    code, out, err = run_cli(
        capsys, "brset", "extract", str(f), "--r", "2", "--assume-r-sidon"
    )
    assert code == 64


def test_experiment_json_and_exit_codes(capsys):
    code, rep, _ = run_json(capsys, "experiment", "sample-f2-9", "--samples", "120")
    assert code == 0
    assert rep["name"] == "sample-f2-9"
    assert rep["exit_code"] == 0
    code, rep, _ = run_json(capsys, "experiment", "table2", "--limit", "1", "--budget", "100")
    assert code == 2
    code, rep, _ = run_json(capsys, "experiment", "prop-f26")
    assert code == 1


def test_experiment_csv(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "table2", "--limit", "1", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("index,")
    assert "expected_dim" in header


def test_experiment_param_plumbing(capsys):
    code, rep, _ = run_json(
        capsys, "experiment", "sample-f2-9", "--param", "samples=120"
    )
    assert code == 0
    assert rep["params"]["seed"] == 0
    code, out, err = run_cli(capsys, "experiment", "sample-f2-9", "--param", "nonsense")
    assert code == 64
    code, out, err = run_cli(capsys, "experiment", "no-such-table")
    assert code == 64


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "span", str(tmp_path / "absent.json"))
    assert code == 64


def test_malformed_subspace_file(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text(json.dumps({"rows": [1, 2]}))
    code, out, err = run_cli(capsys, "span", str(f))
    assert code == 64


def test_check_rejects_rows_of_the_wrong_width(capsys, tmp_path):
    f = tmp_path / "short.json"
    f.write_text(json.dumps({"field": {"p": 2, "n": 3}, "basis": [[1, 0]]}))
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 64
    assert "length 2, expected 3" in err


def test_field_rejects_a_large_characteristic(capsys):
    code, out, err = run_cli(capsys, "field", "65537", "1")
    assert code == 64
    assert "below 65536" in err


def test_parser_level_errors_use_64(capsys, tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["span", "x.json", "--format", "csv"])
    assert ei.value.code == 64
    with pytest.raises(SystemExit) as ei:
        main(["field", "2", "9", "--budget", "0"])
    assert ei.value.code == 64
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 64
    capsys.readouterr()
