"""CLI surface: report shapes, exit codes, file round trips."""

import argparse
import json

import pytest

from sidonspace import cli, experiments
from sidonspace.cli import build_parser, main
from sidonspace.experiments import ExperimentSpec, run_experiment
from sidonspace.field import MAX_DIM, field_from_spec


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
    with pytest.raises(SystemExit) as ei:
        main(["construct", "monomial", "--q", "2", "--k", "3", "--t", "3"])
    assert ei.value.code == 64
    assert "--r" in capsys.readouterr().err


def test_construct_failure_is_usage_error(capsys):
    # t == r over F_2 is unsatisfiable
    code, out, err = run_cli(
        capsys, "construct", "monomial", "--q", "2", "--k", "3", "--t", "3", "--r", "3"
    )
    assert code == 64 and "error" in err


def test_construct_binomial_refuses_k_zero_before_the_exponent(capsys):
    # the second exponent is reduced mod k, so k = 0 must be refused by the field first
    code, out, err = run_cli(capsys, "construct", "binomial", "--q", "3", "--k", "0", "--t", "3")
    assert code == 64 and out == ""
    assert "a and n must be positive" in err


# a field the builder refuses names the options that set its degree n, with their values
REFUSED_FIELDS = [
    ("binomial --q 3 --k 0 --t 3", "n = k*t for k=0, t=3: a and n must be positive"),
    ("monomial --q 3 --k 0 --t 3 --r 2", "n = k*t for k=0, t=3: a and n must be positive"),
    ("trace --q 2 --k 3 --t 50", f"n = k*t for k=3, t=50: a*n must be at most {MAX_DIM}, got 150"),
    ("maxspan-irreducibles --q 2 --k 16 --r 3",
     f"n = r*Delta*C(k+r-2, r) + 1 for k=16, r=3, Delta=13: a*n must be at most {MAX_DIM}, got 26521"),
    ("maxspan-brset --q 4 --r 2 --n 100 --set 0,1,3",
     f"F_(q^n) for q=4, n=100: a*n must be at most {MAX_DIM}, got 200"),
]


@pytest.mark.parametrize(
    "argv,message", REFUSED_FIELDS, ids=[argv.split()[0] for argv, _ in REFUSED_FIELDS]
)
def test_a_refused_field_names_the_construct_options(capsys, argv, message):
    code, out, err = run_cli(capsys, "construct", *argv.split())
    assert code == 64 and out == ""
    assert err == f"error: {message}\n"


def test_construct_binomial_refuses_a_negative_k(capsys):
    # n = k*t = 3 is a valid field, so the subfield-degree gate names k
    code, out, err = run_cli(capsys, "construct", "binomial", "--q", "2", "--k", "-3", "--t", "-1")
    assert code == 64 and out == ""
    assert err == "error: k must be at least 1, got -3\n"


def test_construct_binomial_refuses_s_sharing_a_factor_with_k(capsys):
    code, out, err = run_cli(
        capsys, "construct", "binomial", "--q", "2", "--k", "3", "--t", "3", "--s", "0"
    )
    assert code == 64 and out == ""
    assert err == "error: gcd(s, k) must be 1, got s=0, k=3\n"


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


@pytest.mark.parametrize("s_max", ["0", "-1"])
def test_span_s_max_below_one_is_a_usage_error(capsys, tmp_path, s_max):
    f = trace_file(capsys, tmp_path)
    code, out, err = run_cli(capsys, "span", str(f), "--s-max", s_max)
    assert code == 64
    assert out == ""
    assert "s_max" in err


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


def test_check_both_refuses_r3_before_either_route_runs(capsys, tmp_path, monkeypatch):
    f = trace_file(capsys, tmp_path)

    def no_route(*args, **kwargs):
        raise AssertionError("a route ran")

    monkeypatch.setattr(cli, "is_r_sidon", no_route)
    monkeypatch.setattr(cli, "is_sidon_intersection", no_route)
    code, out, err = run_cli(capsys, "check", str(f), "--method", "both", "--r", "3")
    assert code == 64
    assert out == ""
    assert "the intersection route only decides r = 2" in err


def test_check_budget_exit(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)
    code, out, err = run_cli(capsys, "check", str(f), "--r", "3", "--budget", "10")
    assert code == 2
    assert "budget exceeded" in err


def test_check_budget_exit_on_the_intersection_route(capsys, tmp_path):
    f = trace_file(capsys, tmp_path)  # 511 scalars in F_2^9
    code, out, err = run_cli(
        capsys, "check", str(f), "--method", "intersection", "--budget", "10"
    )
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
    report = tmp_path / "report.json"  # the whole report is read through its 'brset' member
    report.write_text(json.dumps(rep))
    assert run_json(capsys, "brset", "verify", str(report))[:2] == (code2, rep2)


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


def test_brset_extract_of_the_zero_space_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"field": {"p": 2, "a": 1, "n": 9}, "basis": []}))
    code, out, err = run_cli(capsys, "brset", "extract", str(f))
    assert code == 64 and out == ""
    assert "zero space" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "elements,code,witness",
    [([0, 1, 3], 0, None), ([0, 1, 2, 3], 1, {"sum": 2, "multiset_a": [0, 2], "multiset_b": [1, 1]})],
    ids=["b2", "not-b2"],
)
def test_brset_verify_with_a_modulus_beyond_int64(capsys, tmp_path, elements, code, witness):
    f = tmp_path / "set.json"
    f.write_text(json.dumps({"elements": elements, "modulus": 2**70, "r": 2}))
    got, rep, _ = run_json(capsys, "brset", "verify", str(f))
    assert got == code
    assert rep["verified"] is (code == 0)
    assert rep["witness"] == witness and rep["modulus"] == 2**70


def test_brset_verify_of_elements_beyond_int64_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "set.json"
    f.write_text(json.dumps({"elements": [-(2**70), 0], "r": 2}))
    code, out, err = run_cli(capsys, "brset", "verify", str(f))
    assert code == 64 and out == ""
    assert "too large" in err


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
    # the flags fill ExperimentSpec.params
    code, rep, _ = run_json(capsys, "experiment", "sample-f2-9", "--samples", "120")
    assert code == 0
    assert rep["params"]["seed"] == 0 and rep["params"]["samples"] == 120
    code, rep, _ = run_json(
        capsys, "experiment", "table2", "--limit", "1", "--budget", "100", "--seed", "3"
    )
    assert code == 2
    assert (rep["params"]["limit"], rep["params"]["budget"], rep["params"]["seed"]) == (1, 100, 3)
    code, out, err = run_cli(capsys, "experiment", "no-such-table")
    assert code == 64


# a library caller can pass any value; of these, flags give only negative-limit and zero-samples
@pytest.mark.parametrize(
    "name,params",
    [
        ("table2", {"limit": 1.5}),
        ("table2", {"limit": True}),
        ("table2", {"budget": 0}),
        ("prop-trace-9", {"limit": "x"}),
        ("prop-trace-9", {"limit": -1}),
        ("sample-f2-9", {"samples": 2.5}),
        ("sample-f2-9", {"samples": 0}),
    ],
    ids=["float-limit", "bool-limit", "zero-budget", "string-limit", "negative-limit",
         "float-samples", "zero-samples"],
)
def test_experiment_counts_are_positive_integers(name, params):
    with pytest.raises(ValueError, match="must be"):
        run_experiment(ExperimentSpec(name, params))


@pytest.mark.parametrize(
    "argv", [["prop-trace-9", "--limit", "-1"], ["sample-f2-9", "--samples", "0"]],
    ids=["negative-limit", "zero-samples"],
)
def test_experiment_count_flags_below_one_are_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "experiment", *argv)
    assert code == 64
    assert out == ""
    assert "must be at least 1" in err


@pytest.mark.parametrize("value", ["no", 1, None], ids=['"no"', "1", "null"])
def test_experiment_collect_audits_is_a_json_boolean(value):
    with pytest.raises(ValueError, match="collect_audits must be true or false"):
        run_experiment(ExperimentSpec("prop-f26", {"collect_audits": value}))


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


@pytest.mark.parametrize("over", ["0", "-3"])
def test_field_over_below_one_is_a_usage_error(capsys, over):
    code, out, err = run_cli(capsys, "field", "2", "9", "--over", over)
    assert code == 64 and out == ""
    assert err == f"error: over_m must be at least 1, got {over}\n"


def test_field_rejects_a_large_characteristic(capsys):
    code, out, err = run_cli(capsys, "field", "65537", "1")
    assert code == 64
    assert "below 65536" in err


@pytest.mark.parametrize(
    "field",
    [
        {"p": 2, "a": 1, "n": MAX_DIM + 1},
        {"p": 2, "a": 3, "n": MAX_DIM // 3 + 1},
        {"q": 2 ** (MAX_DIM + 1), "n": 1},
        {"p": 2, "a": 2**70, "n": 1, "modulus": [1, 1]},
    ],
    ids=["n", "a-times-n", "q", "huge-a"],
)
def test_a_field_above_the_dimension_bound_is_a_usage_error(capsys, tmp_path, field):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"field": field, "basis": [[1]]}))
    for argv in (["span", str(f)], ["check", str(f)], ["brset", "extract", str(f)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == ""
        assert f"at most {MAX_DIM}" in err
    code, out, err = run_cli(capsys, "field", "2", str(MAX_DIM + 1))
    assert code == 64 and f"at most {MAX_DIM}" in err


# every (command, option) pair of the parser; each option has a reader in its handler
OPTIONS = {
    "field": "--out --over --primitive --seed",
    "construct monomial": "--k --out --q --r --s --seed --t",
    "construct binomial": "--delta --k --out --q --s --seed --t --variant",
    "construct trace": "--k --out --q --seed --t",
    "construct maxspan-brset": "--n --out --q --r --seed --set",
    "construct maxspan-irreducibles": "--k --out --q --r --seed",
    "span": "--out --s-max",
    "check": "--budget --method --out --r",
    "orbit": "--out",
    "equiv": "--budget --out",
    "brset verify": "--budget --out",
    "brset extract": "--assume-r-sidon --budget --gamma --no-translate --out --r --seed",
    "experiment": "--budget --collect-audits --format --limit --out --samples --seed",
}


def _leaf_options(parser, command=""):
    """{command: its sorted options} for every command without sub-commands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        opts = (o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))
        return {command: " ".join(sorted(opts))}
    table = {}
    for name, sub in subs[0].choices.items():
        table.update(_leaf_options(sub, f"{command} {name}".strip()))
    return table


def test_each_command_declares_only_the_options_it_reads():
    assert _leaf_options(build_parser()) == OPTIONS
    assert sum(len(opts.split()) for opts in OPTIONS.values()) == 60


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "x.json", "--budget", "5"],
        ["span", "x.json", "--seed", "1"],
        ["check", "x.json", "--seed", "1"],
        ["equiv", "x.json", "x.json", "--seed", "1"],
        ["field", "2", "9", "--budget", "5"],
        ["construct", "trace", "--q", "3", "--k", "3", "--t", "3", "--r", "7"],
        ["construct", "maxspan-brset", "--q", "2", "--r", "2", "--n", "9", "--set", "0,1,3", "--k", "3"],
        ["brset", "verify", "x.json", "--r", "2"],
        ["brset", "verify", "x.json", "--gamma", "1,0"],
        ["span", "x.json", "--format", "csv"],
        # abbreviations are refused: a prefix would change meaning as options come and go
        ["span", "x.json", "--s", "2"],
        ["construct", "monomial", "--q", "2", "--k", "3", "--t", "3", "--r", "2", "--se", "1"],
        ["experiment", "table2", "--lim", "1"],
        ["brset", "extract", "x.json", "--no-trans"],
        # the flags are the one way to set an experiment's parameters
        ["experiment", "table2", "--limit", "1", "--param", "limit=1"],
    ],
    ids=["orbit-budget", "span-seed", "check-seed", "equiv-seed", "field-budget",
         "trace-r", "maxspan-brset-k", "verify-r", "verify-gamma", "span-format",
         "abbrev-span-s", "abbrev-monomial-se", "abbrev-experiment-lim", "abbrev-extract-no-trans",
         "experiment-param"],
)
def test_an_option_the_command_does_not_read_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,usage",
    [
        (["experiment", "table2", "--lim", "1"], "usage: sidonspace experiment "),
        (["construct", "trace", "--q", "2", "--k", "3", "--t", "3", "--r", "7"],
         "usage: sidonspace construct trace "),
        (["brset", "extract", "x.json", "--no-trans"], "usage: sidonspace brset extract "),
    ],
    ids=["experiment", "construct-trace", "brset-extract"],
)
def test_an_unrecognized_option_shows_the_usage_of_its_command(capsys, argv, usage):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 64
    assert capsys.readouterr().err.startswith(usage)


def _no_field(*args, **kwargs):
    raise AssertionError("a field was built")


@pytest.mark.parametrize(
    "argv,key",
    [
        (["prop-f26", "--limit", "1"], "limit"),
        (["sample-f2-9", "--collect-audits"], "collect_audits"),
        (["brset-316", "--budget", "10"], "budget"),
        (["table2", "--samples", "3"], "samples"),
    ],
    ids=["prop-f26-limit", "sample-audits", "brset-316-budget", "table2-samples"],
)
def test_experiment_refuses_a_parameter_it_does_not_read(capsys, monkeypatch, argv, key):
    monkeypatch.setattr(experiments, "make_field", _no_field)
    code, out, err = run_cli(capsys, "experiment", *argv)
    assert code == 64 and out == ""
    assert "does not read" in err and repr(key) in err


def test_run_experiment_refuses_a_key_it_does_not_read(monkeypatch):
    monkeypatch.setattr(experiments, "make_field", _no_field)
    with pytest.raises(ValueError, match="does not read 'foo'"):
        run_experiment(ExperimentSpec("table3", {"foo": 1}))


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


F2_3 = {"p": 2, "n": 3}


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["span", "FILE"], {"field": F2_3, "basis": [[1, {}, 0]]}, "basis row"),
        (["orbit", "FILE"], {"field": F2_3, "basis": 7}, "'basis' list"),
        (["check", "FILE"], {"field": F2_3, "basis": [[1, 1.7, 0]]}, "basis row"),
        (["equiv", "FILE", "FILE"], {"field": F2_3, "basis": [[True, 0, 0]]}, "basis row"),
        (["brset", "extract", "FILE"], {"field": F2_3, "basis": [[1, 0.0, 0]]}, "basis row"),
        (["brset", "verify", "FILE"], {"elements": [1, 2.5, 7], "r": 2}, "elements"),
        (["brset", "verify", "FILE"], {"elements": 5, "r": 2}, "elements"),
        (["brset", "verify", "FILE"], {"elements": [1, {"x": 2}, 7], "r": 2}, "elements"),
        # one F_2-row does not span an F_4-subspace
        (["check", "FILE"], {"field": {"p": 2, "a": 2, "n": 3}, "basis": [[1, 0, 0, 0, 0, 0]]}, "F_q-closed"),
        (
            ["brset", "extract", "FILE", "--gamma", "0,1,0,1"],
            {"field": F2_3, "basis": [[1, 0, 0]]},
            "too many coefficients",
        ),
        (["span", "FILE"], {"field": {"p": 2, "n": 3.9}, "basis": [[1, 0, 0]]}, "n must be an integer"),
        (["span", "FILE"], {"field": {"q": 4.0, "n": 3}, "basis": [[1, 0, 0, 0, 0, 0]]}, "q must be an integer"),
        (["span", "FILE"], {"field": {"q": 2, "n": 3.9}, "basis": [[1, 0, 0]]}, "n must be an integer"),
        (
            ["check", "FILE"],
            {"field": {"p": 2, "n": 3, "modulus": [1, 1.5, 0, 1]}, "basis": [[1, 0, 0]]},
            "modulus must be a list of integers",
        ),
        (["orbit", "FILE"], {"field": {"p": 2, "n": 3, "seed": True}, "basis": [[1, 0, 0]]}, "seed must be"),
        (["span", "FILE"], {"field": 5, "basis": [[1, 0, 0]]}, "'field' must be a JSON object"),
        (["span", "FILE"], 5, "must be a JSON object"),
        (["span", "FILE"], {"space": [1, 2]}, "'space' must be a JSON object"),
        (["brset", "verify", "FILE"], {"elements": [0, 1, 3], "r": 2.9}, "r must be an integer"),
        (["brset", "verify", "FILE"], {"elements": [0, 1, 3], "r": 2, "modulus": 7.5}, "modulus must be an integer"),
        (["brset", "verify", "FILE"], [0, 1, 3], "must be a JSON object"),
        (["brset", "verify", "FILE"], {"brset": 3}, "'brset' must be a JSON object"),
        (["brset", "verify", "FILE"], {"elements": [0, 1, 3], "r": 2, "verified": "no"},
         "verified must be true or false"),
        (["span", "FILE"], {"field": {"p": 2, "q": 9, "n": 3}, "basis": [[1, 0, 0]]}, "unknown keys: q"),
        (["check", "FILE"], {"field": {"q": 4, "a": 3, "n": 3}, "basis": [[1, 0, 0, 0, 0, 0]]},
         "unknown keys: a"),
        (["orbit", "FILE"], {"field": {"p": 2, "n": 3, "degree": 5}, "basis": [[1, 0, 0]]},
         "unknown keys: degree"),
        (["span", "FILE"], {"field": {"n": 3}, "basis": [[1, 0, 0]]}, "needs 'p'"),
        (["brset", "verify", "FILE"], {"elements": [0, 1, 3]}, "missing key 'r'"),
        (["brset", "verify", "FILE"], {"r": 2}, "missing key 'elements'"),
        (["brset", "verify", "FILE"], {"elements": [0, 1, 2, 4], "r": 2, "modulo": 5}, "unknown key 'modulo'"),
    ],
    ids=["dict-entry", "scalar-basis", "float-entry", "bool-entry", "float-extract",
         "float-element", "scalar-elements", "dict-element", "not-fq-closed", "long-gamma",
         "float-n", "float-q", "float-n-of-q", "float-modulus-entry", "bool-seed", "scalar-field",
         "scalar-file", "list-space", "float-r", "float-modulus", "list-file", "scalar-brset",
         "string-verified", "field-p-and-q", "field-q-and-a", "field-unknown-key",
         "field-neither-p-nor-q", "brset-missing-r", "brset-missing-elements", "brset-unknown-key"],
)
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, content, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 64
    assert out == ""
    assert message in err


@pytest.mark.parametrize("entry", [10**23 + 1, -1])
def test_basis_entries_are_read_mod_p(capsys, tmp_path, entry):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"field": F2_3, "basis": [[entry, 0, 1]]}))
    g = tmp_path / "reduced.json"
    g.write_text(json.dumps({"field": F2_3, "basis": [[1, 0, 1]]}))
    code, rep, _ = run_json(capsys, "span", str(f))
    assert code == 0
    assert run_json(capsys, "span", str(g))[1] == rep


def test_modulus_entries_are_read_mod_p(capsys, tmp_path):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"field": {"p": 2, "n": 3, "modulus": [10**23 + 1, -1, 0, 1]}, "basis": [[1, 0, 1]]}))
    code, rep, _ = run_json(capsys, "span", str(f))
    assert code == 0
    assert rep["field"]["modulus"] == [1, 1, 0, 1]


# a bad prime power q gives the same error from a field spec and from `sidonspace field`
BAD_Q = [
    (0, "q must be a prime power, got 0"),
    (1, "q must be a prime power, got 1"),
    (-4, "q must be a prime power, got -4"),
    (6, "q must be a prime power, got 6"),
    (65537, "p must be below 65536, got 65537"),
    (131074, "q must be a prime power, got 131074"),
    (2**32 + 1, "q must be a prime power, got 4294967297"),
    (2**70, f"a*n must be at most {MAX_DIM}, got 140"),
    # two prime factors near 10^24: refused without factoring q
    (3000000000000000000000028000000000000000000000049,
     "q must be a prime power, got 3000000000000000000000028000000000000000000000049"),
    ((2**61 - 1) ** 2, "p must be below 65536, got 2305843009213693951"),
]


@pytest.mark.parametrize("q,message", BAD_Q, ids=[str(q) for q, _ in BAD_Q])
def test_a_bad_q_is_a_usage_error(capsys, q, message):
    with pytest.raises(ValueError) as ei:
        field_from_spec({"q": q, "n": 2})
    assert str(ei.value) == message
    code, out, err = run_cli(capsys, "field", "--", str(q), "2")
    assert code == 64 and out == ""
    assert err == f"error: {message}\n"
