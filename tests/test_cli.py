"""End-to-end tests of the command line, driven through main()."""

import argparse
import decimal
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lhca.cli
import lhca.debruijn
import lhca.hypercube
from lhca.cli import main, _decimal, _parse_coeffs
from lhca.debruijn import (build_graph, enumerate_paths, rule_from_path,
                           unrank_path)
from lhca.field import GF
from lhca.hypercube import dump_json, dump_text
from lhca.rules import GeneralBipermutiveRule, LinearRule


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


# ---------------------------------------------------------------- check

def test_check_latin_rule(capsys):
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,1,0")
    assert code == 0
    assert report["latin"] is True
    assert report["windows"] == [{"det": 1}]
    assert report["oracle"] == "agree"
    assert report["coeffs"] == [0, 1, 0]


def test_check_non_latin_rule_exits_1(capsys):
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,0,0")
    assert code == 1
    assert report["latin"] is False
    assert report["failing_window"] == 1
    assert report["windows"] == [{"det": 0}]


def test_check_reports_first_failing_window(capsys):
    # windows (0,0,0) and (0,1,1): only the first is singular
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "4", "--coeffs", "0,0,0,1,1")
    assert code == 1
    assert report["failing_window"] == 1
    assert len(report["windows"]) == 2


def test_check_rule_file(capsys, tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(
        {"q": 2, "b": 2, "k": 3, "coeffs": [0, 1, 0]}))
    code, report = run_json(capsys, "check", "--rule-file", str(path))
    assert code == 0
    assert report["latin"] is True


def test_check_general_rule_file(capsys, tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"q": 2, "d": 4, "g_table": [0, 1, 1, 0]}))
    code, report = run_json(capsys, "check", "--rule-file", str(path))
    assert code == 0
    assert report["latin"] is True
    assert report["oracle"] == "oracle-only"


@pytest.mark.parametrize("rule", [
    LinearRule(GF(9, poly=17), 1, 4, (2, 5)),
    GeneralBipermutiveRule(GF(3), 3, (1, 0, 2)),
], ids=["linear-gf9-poly17", "general"])
def test_check_report_leads_with_the_rule_json(capsys, tmp_path, rule):
    # rule JSON has one writer: the report starts with to_json(), in order
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule.to_json()))
    code, report = run_json(capsys, "check", "--rule-file", str(path))
    assert code == 0
    assert list(report.items())[:len(rule.to_json())] == list(
        rule.to_json().items())


_LINEAR = {"q": 2, "b": 2, "k": 3, "coeffs": [0, 1, 0]}


@pytest.mark.parametrize("data", [
    [1, 2],
    {"q": 2, "b": 1, "k": 3, "coeffs": "a"},  # one coefficient, as "a" has
    {**_LINEAR, "b": "x"},
    {**_LINEAR, "coeffs": [1.5, 1, 0]},
    {**_LINEAR, "coeffs": [True, 1, 0]},
    {**_LINEAR, "q": "2"},
], ids=["list", "coeffs-string", "b-string", "coeffs-float", "coeffs-bool",
        "q-string"])
def test_check_malformed_rule_file_is_usage_error(capsys, tmp_path, data):
    # exit 1 would mean "not Latin"; a malformed file is a usage error
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--rule-file", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_check_rejects_rule_file_plus_coeffs(capsys, tmp_path):
    path = tmp_path / "rule.json"
    path.write_text("{}")
    code, out, err = run(capsys, "check", "--rule-file", str(path),
                         "--coeffs", "0,1,0")
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("command", ["check", "dump"])
@pytest.mark.parametrize("flags", [
    ["--q", "3", "--b", "2", "--k", "5"],
    ["--q", "3"],
    ["--b", "2"],
    ["--k", "5"],
    ["--q", "2", "--b", "1", "--k", "4"],
], ids=["all-three", "q", "b", "k", "only-k"])
def test_rule_file_refuses_a_contradicting_flag(capsys, tmp_path, command,
                                                flags):
    # the file's GF(2), b=1, k=3 rule is never read another way
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"q": 2, "b": 1, "k": 3, "coeffs": [1]}))
    code, out, err = run(capsys, command, *flags, "--rule-file", str(path))
    assert code == 2
    assert out == "" and "contradicts the rule file" in err


@pytest.mark.parametrize("command", ["check", "dump"])
def test_rule_file_accepts_flags_that_match(capsys, tmp_path, command):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"q": 2, "b": 1, "k": 3, "coeffs": [1]}))
    alone = run(capsys, command, "--rule-file", str(path))
    assert alone[0] == 0 and alone[1]
    assert run(capsys, command, "--q", "2", "--b", "1", "--k", "3",
               "--rule-file", str(path)) == alone
    # a general rule of diameter 3 reads as a square: b = 2, k = 2
    path.write_text(json.dumps({"q": 3, "d": 3, "g_table": [1, 0, 2]}))
    alone = run(capsys, command, "--rule-file", str(path))
    assert alone[0] == 0
    assert run(capsys, command, "--q", "3", "--b", "2", "--k", "2",
               "--rule-file", str(path)) == alone
    code, out, _ = run(capsys, command, "--k", "3", "--rule-file", str(path))
    assert code == 2 and out == ""


# ---------------------------------------------------------------- --poly

POLY17 = GF(9, poly=17)  # GF(9) under a modulus other than the default 10


def test_check_reads_the_modulus(capsys):
    args = ("check", "--q", "9", "--b", "2", "--k", "3", "--coeffs", "2,5,7")
    code, report = run_json(capsys, *args, "--poly", "17")
    assert code == 0
    assert list(report.items())[:5] == list(
        LinearRule(POLY17, 2, 3, (2, 5, 7)).to_json().items())
    assert report["windows"] == [{"det": 3}] and report["oracle"] == "agree"
    # the default modulus gives this window another determinant
    assert run_json(capsys, *args)[1]["windows"] == [{"det": 1}]


@pytest.mark.parametrize("argv", [
    ("count", "--k", "3"), ("graph",), ("synth", "--k", "3", "--index", "0"),
    ("check", "--k", "3", "--coeffs", "1")], ids=lambda argv: argv[0])
def test_a_prime_field_refuses_a_meaningless_modulus(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "5", "--b", "1",
                         "--poly", "999")
    assert code == 2 and out == ""
    assert err == "error: poly 999 is not monic of degree 1 over GF(5)\n"


def test_count_reads_the_modulus(capsys):
    code, report = run_json(capsys, "count", "--q", "9", "--b", "1",
                            "--k", "3", "--poly", "17")
    assert code == 0
    assert report == {"q": 9, "poly": 17, "b": 1, "k": 3, "formula": "8",
                      "paths": "8", "exhaustive": "8", "match": True}
    # the default modulus is written as rule JSON writes it: not at all
    _, report = run_json(capsys, "count", "--q", "9", "--b", "1", "--k", "3",
                         "--poly", "10")
    assert "poly" not in report
    code, out, err = run(capsys, "count", "--q", "9", "--b", "1", "--k", "3",
                         "--poly", "9")
    assert code == 2 and out == "" and "reducible" in err


def test_graph_reads_the_modulus(capsys):
    code, report = run_json(capsys, "graph", "--q", "9", "--b", "2",
                            "--poly", "17", "--format", "json")
    assert code == 0
    assert report == build_graph(POLY17, 2).to_json()
    assert report["poly"] == 17
    _, default = run_json(capsys, "graph", "--q", "9", "--b", "2",
                          "--format", "json")
    assert default["vertices"] != report["vertices"]


def test_synth_reads_the_modulus(capsys):
    code, rules = run_json(capsys, "synth", "--q", "9", "--b", "1",
                           "--k", "4", "--all", "--poly", "17")
    assert code == 0
    g = build_graph(POLY17, 1)
    assert rules == [rule_from_path(POLY17, w).to_json()
                     for w in enumerate_paths(g, 1)]
    assert all(r["poly"] == 17 for r in rules)


def test_dump_reads_the_modulus(capsys):
    args = ("dump", "--q", "9", "--b", "1", "--k", "3", "--coeffs", "3",
            "--format", "json")
    code, out, _ = run(capsys, *args, "--poly", "17")
    assert code == 0
    assert out == dump_json(LinearRule(POLY17, 1, 3, (3,)))
    assert json.loads(out)["poly"] == 17
    assert run(capsys, *args)[1] != out


@pytest.mark.parametrize("command", ["check", "dump"])
def test_rule_file_refuses_a_contradicting_modulus(capsys, tmp_path, command):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(LinearRule(POLY17, 1, 3, (3,)).to_json()))
    alone = run(capsys, command, "--rule-file", str(path))
    assert alone[0] == 0
    assert run(capsys, command, "--poly", "17", "--q", "9",
               "--rule-file", str(path)) == alone
    for poly in ("10", "16"):  # the default modulus; a reducible one
        code, out, err = run(capsys, command, "--poly", poly,
                             "--rule-file", str(path))
        assert code == 2 and out == "" and err.startswith("error:")
    # a file in the default field is not read under another modulus
    path.write_text(json.dumps({"q": 9, "b": 1, "k": 3, "coeffs": [3]}))
    code, out, err = run(capsys, command, "--poly", "17",
                         "--rule-file", str(path))
    assert code == 2 and out == "" and "contradicts the rule file" in err


def test_check_missing_rule_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--q", "2")
    assert code == 2
    assert "coeffs" in err


def test_check_bad_coefficient_value(capsys):
    code, _, err = run(capsys, "check", "--q", "2", "--b", "2", "--k", "3",
                       "--coeffs", "0,2,0")
    assert code == 2


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--rule-file", "/nonexistent.json")
    assert code == 2


def test_check_no_verify_skips_oracle(capsys):
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,1,0", "--no-verify")
    assert code == 0
    assert report["oracle"] == "skipped"


def test_check_over_budget_skips_oracle(capsys):
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,1,0", "--budget", "1")
    assert code == 0
    assert report["oracle"] == "skipped"


def test_check_forced_verify_over_budget_exits_3(capsys):
    code, _, err = run(capsys, "check", "--q", "2", "--b", "2", "--k", "3",
                       "--coeffs", "0,1,0", "--budget", "1", "--verify")
    assert code == 3


def test_check_sampled_oracle_above_budget(capsys):
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,1,0",
                            "--budget", "1", "--seed", "7")
    assert code == 0
    assert report["oracle"] == "sampled-agree"


def test_check_sampled_oracle_finds_violation(capsys):
    code, report = run_json(capsys, "check", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,0,0",
                            "--budget", "1", "--seed", "7")
    assert code == 1
    # a thousand sampled lines on a 4x4x4 cube cannot miss
    assert report["oracle"] == "sampled-agree"


def test_check_sampled_line_over_entry_budget_exits_3(capsys):
    # one line of 2^33 rows would need hundreds of GiB of inputs
    code, out, err = run(capsys, "check", "--q", "2", "--b", "33",
                         "--k", "3", "--coeffs", ",".join(["1"] * 65),
                         "--seed", "1")
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_check_samples_a_line_past_the_entry_budget(capsys):
    # one line of 2^17 rows x 136 cells holds more than 2^24 cells
    code, report = run_json(capsys, "check", "--q", "2", "--b", "17",
                            "--k", "8", "--coeffs", ",".join(["0"] * 118),
                            "--seed", "1")
    assert code == 1
    assert report["oracle"] == "sampled-agree"


def test_check_writes_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "check", "--q", "2", "--b", "2",
                          "--k", "3", "--coeffs", "0,1,0", "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["latin"] is True


# ---------------------------------------------------------------- count

def test_count_small_case_verified(capsys):
    code, report = run_json(capsys, "count", "--q", "2", "--b", "2",
                            "--k", "3")
    assert code == 0
    assert report == {"q": 2, "b": 2, "k": 3, "formula": "4",
                      "paths": "4", "exhaustive": "4", "match": True}


@pytest.mark.parametrize("q", [2, 16])
def test_count_verify_builds_its_field_once(capsys, monkeypatch, q):
    # the serial exhaustive recount takes the command's field, not a copy
    # rebuilt from its JSON
    built, init = [], GF.__init__
    monkeypatch.setattr(GF, "__init__", lambda self, *args, **kwargs: (
        built.append(args), init(self, *args, **kwargs))[1])
    code, report = run_json(capsys, "count", "--q", str(q), "--b", "1",
                            "--k", "4", "--verify")
    assert code == 0 and "exhaustive" in report
    assert built == [(q,)]


def test_count_counts_are_decimal_strings(capsys):
    _, report = run_json(capsys, "count", "--q", "3", "--b", "2", "--k", "4")
    assert report["formula"] == "108"
    assert isinstance(report["formula"], str)
    assert report["paths"] == "108"


def test_count_verify_defaults_on_within_budget(capsys):
    # 2^(2*9-1) = 2^17 rules: the walks are recounted by default, and the
    # sweep of every rule is over the entry budget
    code, report = run_json(capsys, "count", "--q", "2", "--b", "2",
                            "--k", "10")
    assert code == 0
    assert report["formula"] == report["paths"] == str(2 ** 9)
    assert report["match"] is True and "exhaustive" not in report


def test_count_verify_on_within_threshold_skips_sweep(capsys):
    # 2^15 rules: walks are recounted, the full sweep is over entry budget
    code, report = run_json(capsys, "count", "--q", "2", "--b", "2",
                            "--k", "9")
    assert code == 0
    assert report["paths"] == report["formula"] == str(2 ** 8)
    assert "exhaustive" not in report
    assert report["match"] is True


@pytest.mark.parametrize("q", [2, 9, 16, 251])
def test_count_no_verify(capsys, q):
    _, report = run_json(capsys, "count", "--q", str(q), "--b", "2",
                         "--k", "3", "--no-verify")
    field = GF(q).short_json()
    assert list(report) == [*field, "b", "k", "formula"]
    assert {key: report[key] for key in field} == field
    if q == 2:
        assert report == {"q": 2, "b": 2, "k": 3, "formula": "4"}


def test_count_squares_by_sweep(capsys):
    code, report = run_json(capsys, "count", "--q", "2", "--b", "2",
                            "--k", "2")
    assert code == 0
    assert report["formula"] == "4"
    assert report["exhaustive"] == "4"
    assert report["match"] is True


def test_count_squares_over_entry_budget_skip_verification(capsys):
    # 2^16 rules x 32^2 entries is 4x the entry budget
    code, report = run_json(capsys, "count", "--q", "2", "--b", "5",
                            "--k", "2")
    assert code == 0
    assert report == {"q": 2, "b": 5, "k": 2, "formula": "65536"}


def test_count_squares_forced_verify_over_budget_exits_3(capsys):
    code, out, err = run(capsys, "count", "--q", "2", "--b", "5", "--k", "2",
                         "--verify")
    assert code == 3
    assert out == "" and "exceeds budget" in err


def _from_decimal(text: str) -> int:
    # int() of more than 4300 digits raises; read them 1000 at a time
    n = 0
    for i in range(0, len(text), 1000):
        n = n * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
    return n


@pytest.mark.parametrize("q,b,k,log2_count", [
    (2, 2, 20000, 19999),   # 6021 digits
    (2, 16, 2, 2 ** 15),    # 9865 digits
])
def test_count_prints_counts_past_the_digit_limit(capsys, q, b, k,
                                                  log2_count):
    limit = sys.get_int_max_str_digits()
    code, report = run_json(capsys, "count", "--q", str(q), "--b", str(b),
                            "--k", str(k))
    assert code == 0
    assert _from_decimal(report["formula"]) == 2 ** log2_count
    assert sys.get_int_max_str_digits() == limit


def test_count_prints_every_digit_near_the_bit_budget(capsys):
    # 3^659998 has 1 046 052 bits of the 2^20 admitted, 314 900 digits;
    # Decimal's own power is an independent route to the same digits
    code, report = run_json(capsys, "count", "--q", "4", "--b", "1",
                            "--k", "660000")
    assert code == 0
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        assert report["formula"] == str(decimal.Decimal(3) ** 659998)


def _decimal_cases():
    rng = random.Random(2)
    cases = [0, 1, 2, 9, 3 ** 20000, 7 ** 9000 - 1]
    for j in [*range(700), 1232, 1233, 1234, 4299, 4300, 4301, 20000]:
        cases += [10 ** j - 1, 10 ** j]
    for w in [*range(1020, 1030), 2047, 2048, 2049, 4096, 60001]:
        cases += [2 ** w - 1, 2 ** w, 2 ** w + 1, rng.getrandbits(w)]
    return cases


def test_decimal_matches_str():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in _decimal_cases():
            assert _decimal(n) == str(n), n.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_count_recount_over_the_graph_budget_is_left_out(capsys):
    # 2^5 windows are over the budget of 16: by default the formula stands
    # alone
    argv = ("count", "--q", "2", "--b", "3", "--k", "3", "--budget", "16")
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report == {"q": 2, "b": 3, "k": 3, "formula": "16"}
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 3 and out == ""
    assert err == "error: enumerating 2^5 windows exceeds budget 16\n"


def test_count_square_over_the_sweep_budget_prints_the_formula(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--b", "2", "--k", "2",
                       "--budget", "8")
    assert code == 0
    assert out == '{\n  "q": 2,\n  "b": 2,\n  "k": 2,\n  "formula": "4"\n}\n'


def test_count_verifies_a_billion_dimensions_on_the_single_loop(capsys):
    code, report = run_json(capsys, "count", "--q", "2", "--b", "1",
                            "--k", "1000000000", "--verify")
    assert code == 0
    assert report == {"q": 2, "b": 1, "k": 10 ** 9, "formula": "1",
                      "paths": "1", "match": True}


def test_count_refusal_gives_the_count_as_a_power(capsys):
    code, out, err = run(capsys, "count", "--q", "2", "--b", "16", "--k", "2",
                         "--verify")
    assert code == 3 and out == ""
    assert err == ("error: 2^32768 rules x 2^32 entries exceeds budget "
                   "16777216\n")


def test_count_has_no_workers_flag(capsys):
    # every rule is counted in one serial sweep; the flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "2", "--b", "2", "--k", "4", "--workers", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--workers" in err


def test_count_missing_k(capsys):
    code, _, err = run(capsys, "count", "--q", "2", "--b", "2")
    assert code == 2
    assert "--k" in err


def test_count_bad_field_order(capsys):
    code, _, err = run(capsys, "count", "--q", "6", "--b", "2", "--k", "3")
    assert code == 2


# ---------------------------------------------------------------- graph

def test_graph_dot_default(capsys):
    code, out, _ = run(capsys, "graph", "--q", "2", "--b", "2")
    assert code == 0
    assert '"010" -> "011";' in out
    assert out.count("->") == 8


def test_graph_json(capsys):
    code, report = run_json(capsys, "graph", "--q", "2", "--b", "2",
                            "--format", "json")
    assert code == 0
    assert report["q"] == 2 and report["b"] == 2
    assert len(report["vertices"]) == 4
    assert len(report["edges"]) == 8


# the first 16 hex digits of the sha256 of the dot and json output, as
# written when the graph was held as a tuple of vertex tuples
GRAPH_DIGESTS = [
    (2, 1, "c1132346fbddb6ca", "b7e2fd0a560078ce"),
    (2, 2, "5fec40082356c515", "30c477c02fb93dc6"),
    (3, 2, "53322be74d8f050b", "94f8e488b2da79d0"),
    (2, 3, "48b31a4e29460607", "30c2cdabee802162"),
    (4, 2, "1dee49ae85212a99", "c308311fbb2c26da"),
    (2, 4, "df61020cfe5ab539", "ab7821a41cfc9293"),
    (9, 1, "259c36d3ce190f50", "f64f22feb14e9318"),
    (8, 2, "4e79bcab5b322db0", "22d8cf135d01d3fe"),
]


@pytest.mark.parametrize("q,b,dot,as_json", GRAPH_DIGESTS,
                         ids=[f"{q}-{b}" for q, b, *_ in GRAPH_DIGESTS])
def test_graph_output_is_pinned(capsys, q, b, dot, as_json):
    for fmt, digest in (("dot", dot), ("json", as_json)):
        code, out, _ = run(capsys, "graph", "--q", str(q), "--b", str(b),
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, fmt


# the same digests of the other JSON commands, as json.dumps(indent=2) wrote
# them before the join-speed writer; RULE_FILE is a general rule over GF(3)
SAMPLED_COEFFS = ",".join(["0", "1", "0"] + ["1", "0"] * 11)
JSON_DIGESTS = [
    ("check-latin", 0, "c28de202a611d936",
     ["check", "--q", "3", "--b", "2", "--k", "4", "--coeffs", "1,2,0,1,2"]),
    ("check-non-latin", 1, "1c24cafc39b07051",
     ["check", "--q", "2", "--b", "2", "--k", "6",
      "--coeffs", "0,1,1,0,0,1,1,0,1"]),
    ("check-sampled", 0, "57df1b085703277e",
     ["check", "--q", "2", "--b", "2", "--k", "14",
      "--coeffs", SAMPLED_COEFFS, "--seed", "7"]),
    ("check-general", 0, "79aae861d2452cf7", ["check", "--rule-file",
                                              "RULE_FILE"]),
    ("count-2-2-4", 0, "5ec1a91128c7293d",
     ["count", "--q", "2", "--b", "2", "--k", "4", "--verify"]),
    ("count-3-1-5", 0, "569f550fd0fe129d",
     ["count", "--q", "3", "--b", "1", "--k", "5", "--verify"]),
    ("count-2-1-8", 0, "b29cfba1c1ec3c6f",
     ["count", "--q", "2", "--b", "1", "--k", "8", "--verify"]),
    ("count-3-2-6", 0, "09eee23399fe1e12",
     ["count", "--q", "3", "--b", "2", "--k", "6", "--verify"]),
    ("synth-2-2-6", 0, "eaab1f73ea44c8ac",
     ["synth", "--q", "2", "--b", "2", "--k", "6", "--index", "29"]),
    ("synth-3-2-4", 0, "053bdd108b5e2ce7",
     ["synth", "--q", "3", "--b", "2", "--k", "4", "--index", "77"]),
    ("synth-4-1-9", 0, "5cad730b50d59b61",
     ["synth", "--q", "4", "--b", "1", "--k", "9", "--index", "1234"]),
    ("synth-all-2-2-8", 0, "7ddc3214e8a2e404",
     ["synth", "--all", "--q", "2", "--b", "2", "--k", "8"]),
    # 16 384 walks of 12 edges: four chunks of enumerate_paths
    ("synth-all-2-2-15", 0, "94fb62684e92da83",
     ["synth", "--all", "--q", "2", "--b", "2", "--k", "15"]),
]


@pytest.mark.parametrize("code,digest,argv", [d[1:] for d in JSON_DIGESTS],
                         ids=[d[0] for d in JSON_DIGESTS])
def test_json_output_is_pinned(capsys, tmp_path, code, digest, argv):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(
        GeneralBipermutiveRule(GF(3), 3, (1, 0, 2)).to_json()))
    got, out, err = run(capsys, *[str(path) if a == "RULE_FILE" else a
                                  for a in argv])
    assert got == code, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_graph_out_file(tmp_path, capsys):
    out = tmp_path / "g.dot"
    code, stdout, _ = run(capsys, "graph", "--q", "2", "--b", "2",
                          "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text().startswith("digraph")


def test_graph_budget_exceeded(capsys):
    code, _, err = run(capsys, "graph", "--q", "3", "--b", "4",
                       "--budget", "100")
    assert code == 3


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_refuses_more_edges_than_the_budget(capsys, fmt):
    # 27^3 windows fit the default budget; their 13 305 708 edges do not
    code, out, err = run(capsys, "graph", "--q", "27", "--b", "2",
                         "--format", fmt)
    assert code == 3
    assert out == "" and "edges exceed" in err


def test_a_graph_that_contradicts_its_closed_form_exits_4(
        capsys, monkeypatch, tmp_path):
    # a support of 3 of the 6 windows in each prefix class at (3, 2)
    # still builds a regular graph, of 27 edges where the closed form
    # (q-1)^2 q^(3b-3) says 108; it is not written
    support_of_det = lhca.debruijn.support_of_det

    def half(field, b, budget):
        supp = support_of_det(field, b, budget)
        return supp.reshape(3, 6, 3)[:, :3].reshape(9, 3)

    monkeypatch.setattr(lhca.debruijn, "support_of_det", half)
    out_file = tmp_path / "g.json"
    for fmt in ("json", "dot"):
        code, out, err = run(capsys, "graph", "--q", "3", "--b", "2",
                             "--format", fmt, "--out", str(out_file))
        assert code == 4
        assert out == "" and not out_file.exists()
        assert err == ("error: 9 vertices of out-degree 3 disagree with "
                       "the closed form's 108 edges for q=3, b=2\n")


def test_a_support_that_is_no_window_graph_exits_4(capsys, monkeypatch):
    # one window dropped leaves one prefix class short: DetGraph refuses
    # the support lhca built, which is lhca's fault, not a usage error
    support_of_det = lhca.debruijn.support_of_det
    monkeypatch.setattr(lhca.debruijn, "support_of_det",
                        lambda *args: support_of_det(*args)[1:])
    for argv in (("graph",), ("count", "--k", "4"),
                 ("synth", "--k", "4", "--index", "0")):
        code, out, err = run(capsys, *argv, "--q", "3", "--b", "2")
        assert (code, out) == (4, "")
        assert err == ("error: GF(3), b=2: out-degrees differ; the window "
                       "graph is regular\n")


def test_a_walk_whose_windows_do_not_overlap_exits_4(capsys, monkeypatch,
                                                     tmp_path):
    # walk 100 at (3, 2) is (0,1,2), (2,2,0), (0,2,1); ending it on (1,2,1)
    # breaks the last overlap, which is lhca's fault, not a usage error
    unrank_path = lhca.cli.unrank_path

    def last_off(g, length, index):
        *head, (_, *rest) = unrank_path(g, length, index)
        return (*head, (1, *rest))

    monkeypatch.setattr(lhca.cli, "unrank_path", last_off)
    out_file = tmp_path / "rule.json"
    code, out, err = run(capsys, "synth", "--q", "3", "--b", "2", "--k", "5",
                         "--index", "100", "--out", str(out_file))
    assert (code, out) == (4, "") and not out_file.exists()
    assert err == ("error: walk from the window graph: consecutive windows "
                   "do not overlap in 1 entries\n")
    # a walk a user passes is the user's input: still a ValueError
    with pytest.raises(ValueError, match="do not overlap"):
        rule_from_path(GF(3), last_off(build_graph(GF(3), 2), 2, 100))


def test_graph_refuses_before_building(capsys, monkeypatch):
    # (q-1)^2 q^(3b-3) edges are known in closed form before any build
    def build_graph(*args, **kwargs):
        raise AssertionError("a refused graph was built")

    monkeypatch.setattr(lhca.cli, "build_graph", build_graph)
    code, out, err = run(capsys, "graph", "--q", "101", "--b", "2")
    assert code == 3
    assert out == "" and "100^2 * 101^3 edges exceed" in err
    # a huge b is refused by its exponent, with no huge integer to print
    code, out, err = run(capsys, "graph", "--q", "3", "--b", "1000000")
    assert code == 3
    assert out == "" and "2^2 * 3^2999997 edges exceed" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LHCA_BUDGET", "1")
    code, _, _ = run(capsys, "graph", "--q", "2", "--b", "2")
    assert code == 3
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "graph", "--q", "2", "--b", "2",
                       "--budget", "4096")
    assert code == 0


def test_budget_env_var_rejects_nonpositive(capsys, monkeypatch):
    # the message names the variable and its value, a non-integer too
    for value in ("0", "abc"):
        monkeypatch.setenv("LHCA_BUDGET", value)
        code, out, err = run(capsys, "count", "--q", "2", "--b", "1",
                             "--k", "3")
        assert code == 2
        assert out == "" and err == (f"error: LHCA_BUDGET='{value}': budget "
                                     "must be a positive integer\n")
    code, _, err = run(capsys, "graph", "--q", "2", "--b", "2",
                       "--budget", "0")
    assert code == 2
    assert err == "error: --budget 0: budget must be a positive integer\n"


# ---------------------------------------------------------------- synth

def test_synth_all_emits_every_latin_rule(capsys):
    code, rules = run_json(capsys, "synth", "--q", "2", "--b", "2",
                           "--k", "4", "--all")
    assert code == 0
    assert len(rules) == 8
    coeff_sets = {tuple(r["coeffs"]) for r in rules}
    assert len(coeff_sets) == 8
    assert all(r["q"] == 2 and r["b"] == 2 and r["k"] == 4 for r in rules)


@pytest.mark.parametrize("fault", ["repeat", "drop"])
def test_synth_all_refuses_walks_that_are_not_every_walk(capsys, monkeypatch,
                                                         fault):
    # a walk repeated in place of the last, or the last dropped
    def faulty(*args):
        walks = list(enumerate_paths(*args))
        return walks[:1] + walks[:-1] if fault == "repeat" else walks[:-1]

    monkeypatch.setattr(lhca.cli, "enumerate_paths", faulty)
    code, out, err = run(capsys, "synth", "--q", "3", "--b", "2", "--k", "4",
                         "--all")
    assert (code, out) == (4, "")
    assert err == (f"error: {108 - (fault == 'drop')} walks are not the 108 "
                   "walks in increasing order\n")


def test_synth_index_picks_one(capsys):
    _, rules = run_json(capsys, "synth", "--q", "2", "--b", "2",
                        "--k", "4", "--all")
    code, rule = run_json(capsys, "synth", "--q", "2", "--b", "2",
                          "--k", "4", "--index", "3")
    assert code == 0
    assert rule == rules[3]


def test_synth_k3_rules_are_the_window_supports(capsys):
    code, rules = run_json(capsys, "synth", "--q", "2", "--b", "2",
                           "--k", "3", "--all")
    assert code == 0
    assert sorted(tuple(r["coeffs"]) for r in rules) == [
        (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_synth_index_out_of_range(capsys):
    code, _, err = run(capsys, "synth", "--q", "2", "--b", "2", "--k", "3",
                       "--index", "4")
    assert code == 2
    assert "out of range" in err


def test_synth_requires_index_or_all(capsys):
    code, _, err = run(capsys, "synth", "--q", "2", "--b", "2", "--k", "3")
    assert code == 2
    code, _, err = run(capsys, "synth", "--q", "2", "--b", "2", "--k", "3",
                       "--index", "0", "--all")
    assert code == 2


def test_synth_walk_longer_than_the_recursion_limit(capsys):
    code, rule = run_json(capsys, "synth", "--q", "2", "--b", "1",
                          "--k", "1200", "--index", "0")
    assert code == 0
    assert rule["coeffs"] == [1] * 1198


def test_synth_index_past_the_enumeration_budget(capsys):
    # 2^29 walks: more than the enumeration budget, but one is unranked
    code, rule = run_json(capsys, "synth", "--q", "2", "--b", "2",
                          "--k", "30", "--index", "0")
    assert code == 0
    assert rule["k"] == 30 and rule["coeffs"][:3] == [0, 1, 0]


def test_synth_index_of_a_long_walk(capsys):
    # 15^31997 walks from each vertex; the index's digits pick one
    code, rule = run_json(capsys, "synth", "--q", "16", "--b", "1",
                          "--k", "32000", "--index", "123456789")
    assert code == 0
    assert rule["k"] == 32000 and len(rule["coeffs"]) == 31998


def test_synth_index_reads_more_digits_than_int_does(capsys):
    # 4 * 2^19997 walks: the last index has 6021 digits, past the 4300
    # that int() reads; --index reads it as _decimal writes it
    digits = sys.get_int_max_str_digits()
    g = build_graph(GF(2), 2)
    last = 4 * 2**19997 - 1
    synth = ("synth", "--q", "2", "--b", "2", "--k", "20000", "--index")
    code, rule = run_json(capsys, *synth, _decimal(last))
    assert code == 0
    assert rule["coeffs"] == list(
        rule_from_path(GF(2), unrank_path(g, 19997, last)).coeffs)
    # longer text must be digits; nothing is written for it
    for text in ("9" * 4400 + "x", " " + "9" * 4400, "-" + "9" * 4400):
        with pytest.raises(SystemExit) as exc:
            main([*synth, text])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    assert sys.get_int_max_str_digits() == digits


@pytest.mark.parametrize("k", [14_000, 20_000, 1_100_000])
def test_synth_all_refuses_a_long_walk_at_once(capsys, k):
    start = time.perf_counter()
    code, out, err = run(capsys, "synth", "--q", "2", "--b", "2",
                         "--k", str(k), "--all")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (f"error: 4 * 2^{k - 3} walks exceed the enumeration "
                   "budget 1048576\n")


@pytest.mark.parametrize("k", [2**20 + 3, 10**20])
@pytest.mark.parametrize("mode", [("--index", "0"), ("--all",)])
def test_synth_refuses_one_walk_past_the_budget(capsys, monkeypatch, k,
                                                mode):
    # at (q, b) = (2, 1) the one vertex has a loop, so there is one walk of
    # every length and only its k - 2 windows can bound it
    def unreachable(*args, **kwargs):
        raise AssertionError("a walk was unranked or enumerated")

    monkeypatch.setattr(lhca.cli, "unrank_path", unreachable)
    monkeypatch.setattr(lhca.cli, "enumerate_paths", unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, "synth", "--q", "2", "--b", "1",
                         "--k", str(k), *mode)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (f"error: a walk of {k - 2} windows exceeds the "
                   "enumeration budget 1048576\n")


def test_synth_walk_bound_is_the_budget(capsys):
    synth = ("synth", "--q", "2", "--b", "1", "--index", "0",
             "--budget", "10")
    code, out, _ = run(capsys, *synth, "--k", "12")
    assert code == 0 and json.loads(out)["k"] == 12
    code, out, err = run(capsys, *synth, "--k", "13")
    assert (code, out) == (3, "")
    assert err == ("error: a walk of 11 windows exceeds the enumeration "
                   "budget 10\n")


def test_synth_all_bounds_its_oracle_by_the_whole_set(capsys, monkeypatch):
    # 256 rules x 4^9 entries are 2^26, past the 2^24 entry budget, so the
    # oracle is skipped; sweeping one rule at a time took about 94 s
    synth = ("synth", "--q", "2", "--b", "2", "--k", "9", "--all")
    start = time.perf_counter()
    code, out, _ = run(capsys, *synth)
    assert time.perf_counter() - start < 5
    # the rules that --no-verify wrote before the bound
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "d5d3048d44ee5398"
    # 256 rules x 1000 lines x 4^1 entries fit: --seed samples every rule
    sampled = []
    monkeypatch.setattr(lhca.cli, "check_random_lines", lambda rule, **kw: (
        sampled.append(rule) or lhca.hypercube.check_random_lines(rule, **kw)))
    code, again, _ = run(capsys, *synth, "--seed", "1")
    assert (code, again) == (0, out) and len(sampled) == 256


def test_synth_all_refuses_a_forced_oracle_over_the_set(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a walk was enumerated or a cube swept")

    monkeypatch.setattr(lhca.cli, "enumerate_paths", unreachable)
    monkeypatch.setattr(lhca.cli, "is_latin", unreachable)
    synth = ("synth", "--q", "2", "--b", "2", "--k", "9", "--all")
    start = time.perf_counter()
    code, out, err = run(capsys, *synth, "--verify")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("error: sweeping 256 rules exceeds the entry budget "
                   "16777216\n")
    # 256 rules x 1000 lines x 4^1 entries pass a budget of 10^5
    code, out, err = run(capsys, *synth, "--seed", "1", "--budget", "100000")
    assert (code, out) == (3, "")
    assert err == ("error: sampling 256 rules exceeds the entry budget "
                   "100000\n")


def test_synth_all_of_one_rule_samples_as_synth_index(capsys, monkeypatch):
    # (2,1,5) has one Latin rule; 1000 lines x 2 entries pass a budget of
    # 16, but one rule samples past the budget, as check and --index do
    sampled = []
    monkeypatch.setattr(lhca.cli, "check_random_lines", lambda rule, **kw: (
        sampled.append(rule) or lhca.hypercube.check_random_lines(rule, **kw)))
    synth = ("synth", "--q", "2", "--b", "1", "--k", "5", "--seed", "1",
             "--budget", "16")
    code, rules = run_json(capsys, *synth, "--all")
    assert code == 0 and len(rules) == 1
    code, rule = run_json(capsys, *synth, "--index", "0")
    assert code == 0 and rules == [rule] and sampled == [sampled[0]] * 2


def test_synth_all_sweeps_every_rule_of_a_set_within_budget(capsys,
                                                            monkeypatch):
    # 128 rules x 4^8 entries are 2^23, within the 2^24 entry budget
    swept = []
    monkeypatch.setattr(lhca.cli, "is_latin", lambda rule, **kw: (
        swept.append(rule) or lhca.hypercube.is_latin(rule, **kw)))
    code, rules = run_json(capsys, "synth", "--q", "2", "--b", "2",
                           "--k", "8", "--all")
    assert code == 0 and len(rules) == len(swept) == 128


def test_synth_k2_is_usage_error(capsys):
    code, _, err = run(capsys, "synth", "--q", "2", "--b", "2", "--k", "2")
    assert code == 2


# ----------------------------------------------------------------- dump

def test_dump_text_default(capsys):
    code, out, _ = run(capsys, "dump", "--q", "2", "--b", "2", "--k", "3",
                       "--coeffs", "0,1,0")
    assert code == 0
    assert out.splitlines()[0] == "z=1"
    assert "1 2 3 4" in out


def test_dump_json(capsys):
    code, report = run_json(capsys, "dump", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,1,0",
                            "--format", "json")
    assert code == 0
    assert report["q"] == 2 and report["coeffs"] == [0, 1, 0]
    assert report["layers"][0][0] == [1, 2, 3, 4]
    assert report["layers"][1][0] == [2, 1, 4, 3]


def test_dump_budget(capsys):
    code, _, err = run(capsys, "dump", "--q", "2", "--b", "2", "--k", "3",
                       "--coeffs", "0,1,0", "--budget", "8")
    assert code == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dump_out_file_matches_stdout(capsys, tmp_path, fmt):
    argv = ["dump", "--q", "3", "--b", "1", "--k", "4", "--coeffs", "1,2",
            "--format", fmt]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "cube.txt"
    code, nothing, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0 and nothing == ""
    assert out.read_bytes() == stdout.encode()


def test_dump_over_budget_writes_nothing(capsys, tmp_path):
    out = tmp_path / "cube.json"
    code, stdout, err = run(capsys, "dump", "--q", "2", "--b", "2",
                            "--k", "3", "--coeffs", "0,1,0", "--format",
                            "json", "--budget", "10", "--out", str(out))
    assert code == 3 and stdout == "" and "exceeds budget" in err
    assert not out.exists()


def test_out_into_a_missing_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--q", "2", "--b", "2", "--k", "3",
                         "--coeffs", "0,1,0", "--out",
                         str(tmp_path / "missing" / "report.json"))
    assert code == 2 and out == "" and "No such file" in err


@pytest.mark.parametrize("fmt,render", [("text", dump_text),
                                        ("json", dump_json)])
def test_dump_is_written_block_by_block(monkeypatch, tmp_path, fmt, render):
    # blocks of one 4 x 4 layer: each is written, the first with the head,
    # before the next one is evaluated
    want = render(LinearRule(GF(2), 2, 3, (0, 1, 0)))
    monkeypatch.setattr(lhca.hypercube, "_BATCH_ROWS", 16)
    layer_blocks, evaluated = lhca.hypercube._layer_blocks, []

    def counted(*args):
        for block in layer_blocks(*args):
            evaluated.append(block)
            yield block

    class Stdout(list):
        def write(self, text):
            self.append((len(evaluated), text))

        def writelines(self, parts):
            for part in parts:
                self.write(part)

    monkeypatch.setattr(lhca.hypercube, "_layer_blocks", counted)
    argv = ["dump", "--q", "2", "--b", "2", "--k", "3", "--coeffs", "0,1,0",
            "--format", fmt]
    stdout, writes = sys.stdout, Stdout()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(argv) == 0
    monkeypatch.setattr(sys, "stdout", stdout)
    assert [n for n, _ in writes] == [1, 2, 3, 4]
    assert "".join(text for _, text in writes) == want
    out = tmp_path / "cube"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == want and len(evaluated) == 8


# ----------------------------------------------------------------- misc

@pytest.mark.parametrize("argv,code", [
    (["count", "--q", "3", "--b", "1000000000", "--k", "2"], 3),
    (["synth", "--q", "3", "--b", "100000000", "--k", "3", "--index", "0"], 3),
    (["count", "--q", "2305843009213693951", "--b", "1", "--k", "3"], 2),
], ids=["count-huge-b", "synth-huge-b", "count-huge-q"])
def test_power_sized_inputs_are_refused_at_once(argv, code):
    # each of these ran past 10 s, building a power or factoring q
    env = {**os.environ,
           "PYTHONPATH": str(Path(lhca.cli.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "lhca.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error:")


# each probe breaks one route of a cross-check, then runs the command
_BROKEN_ROUTES = {
    "sweep": ("lhca.cli.is_latin = lambda rule, **kw: LatinCheck(False)",
              ["check", "--q", "2", "--b", "1", "--k", "3", "--coeffs", "1",
               "--verify"]),
    "walks": ("paths = lhca.debruijn.count_paths\n"
              "lhca.debruijn.count_paths = lambda *a: paths(*a) + 1",
              ["count", "--q", "3", "--b", "1", "--k", "4", "--verify"]),
}


@pytest.mark.parametrize("patch,argv", _BROKEN_ROUTES.values(),
                         ids=_BROKEN_ROUTES)
def test_a_cross_check_that_fails_exits_4_under_python_O(patch, argv):
    # python -O strips assert statements, which once let both probes exit 0
    code = ("import sys, lhca.cli, lhca.debruijn\n"
            "from lhca.hypercube import LatinCheck\n"
            f"{patch}\nsys.exit(lhca.cli.main({argv!r}))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(lhca.cli.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_the_sampled_and_synth_cross_checks_exit_4(capsys, monkeypatch):
    check = ("check", "--q", "2", "--b", "2", "--k", "3", "--coeffs", "0,1,0")
    synth = ("synth", "--q", "2", "--b", "2", "--k", "3", "--index", "0")
    with monkeypatch.context() as patch:
        # a sampled counterexample on a rule the windows call Latin
        patch.setattr(lhca.cli, "check_random_lines",
                      lambda rule, **kw: lhca.hypercube.LatinCheck(False))
        code, out, err = run(capsys, *check, "--no-verify", "--seed", "1")
        assert (code, out) == (4, "") and "sampled counterexample" in err
    # a synthesized rule that the window criterion rejects
    monkeypatch.setattr(lhca.cli, "window_dets", lambda rule: [0])
    code, out, err = run(capsys, *synth, "--no-verify")
    assert (code, out) == (4, "") and "failed validation" in err


def test_synth_all_on_one_long_walk_is_linear_in_its_length():
    # GF(2), b = 1 has one walk of each length; a walk that copied its
    # prefix at every step took about 12 s (2-core VM, Python 3.11)
    env = {**os.environ,
           "PYTHONPATH": str(Path(lhca.cli.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "lhca.cli", "synth", "--q",
                           "2", "--b", "1", "--k", "60003", "--all"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    [rule] = json.loads(proc.stdout)
    assert rule["k"] == 60003 and set(rule["coeffs"]) == {1}


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["graph", "--q", "2", "--b", "2", "--k", "3"],
    ["graph", "--q", "2", "--b", "2", "--verify"],
    ["graph", "--q", "2", "--b", "2", "--seed", "1"],
    ["dump", "--q", "2", "--b", "2", "--k", "3", "--coeffs", "0,1,0",
     "--verify"],
    ["dump", "--q", "2", "--b", "2", "--k", "3", "--coeffs", "0,1,0",
     "--seed", "1"],
    ["count", "--q", "2", "--b", "2", "--k", "3", "--seed", "1"],
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _documented_flags(entries, commands):
    """{command: flags} from (commands text, flags text) pairs, where
    "all five" names every command; --verify stands for --no-verify too."""
    flags = {c: set() for c in commands}
    for names, text in entries:
        for c in commands if names == "all five" else re.findall(
                r"\b(" + "|".join(commands) + r")\b", names):
            flags[c] |= set(re.findall(r"--[a-z-]+", text)) - {"--no-verify"}
    return flags


def test_documented_flags_are_the_parsers():
    # the README's "flag | taken by" table, with the flags of every
    # subcommand before it, and the docstring's "Flags by subcommand"
    [sub] = [a for a in lhca.cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    parsed = {c: {a.option_strings[0] for a in p._actions} - {"-h"}
              for c, p in sub.choices.items()}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    every, table = re.search(r"Every subcommand takes (.*?)\.\n(.*?)\n\n"
                             r"\| flag \| taken by \|\n\|---\|---\|\n"
                             r"((?:\|.*\|\n)+)", readme, re.S).group(1, 3)
    rows = [("all five", every)] + [
        (taken, flag) for flag, taken in
        re.findall(r"^\| (.*?) \| (.*?) \|$", table, re.M)]
    assert _documented_flags(rows, list(parsed)) == parsed
    doc = lhca.cli.__doc__.split("Flags by subcommand", 1)[1]
    entries = []
    for line in doc.split("\n\n", 1)[0].splitlines()[1:]:
        if head := re.match(r"  ([a-z][a-z, ]*?)  +(.*)", line):
            entries.append(list(head.groups()))
        else:
            entries[-1][1] += line
    assert _documented_flags(entries, list(parsed)) == parsed


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.delenv("LHCA_BUDGET", raising=False)
    rule = ("check", "--q", "2", "--b", "2", "--k", "3", "--coeffs", "0,1,0")
    code, out, _ = run(capsys, *rule, "--verify", "--budget", "1")
    assert code == 3 and out == ""
    code, report = run_json(capsys, *rule)
    assert code == 0
    assert report["oracle"] == "agree"


def test_parse_coeffs_formats():
    assert _parse_coeffs("0,1,0") == (0, 1, 0)
    assert _parse_coeffs("0 1 0") == (0, 1, 0)
    assert _parse_coeffs(" 0, 1 ,0 ") == (0, 1, 0)
    assert _parse_coeffs("") == ()
