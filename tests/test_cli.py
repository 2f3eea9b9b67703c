"""End-to-end tests of the command line, driven through main()."""

import decimal
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lhca.cli
import lhca.hypercube
from lhca.cli import main, _decimal, _parse_coeffs
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
    LinearRule(GF(p=3, m=2, poly=17), 1, 4, (2, 5)),
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


def test_count_counts_are_decimal_strings(capsys):
    _, report = run_json(capsys, "count", "--q", "3", "--b", "2", "--k", "4")
    assert report["formula"] == "108"
    assert isinstance(report["formula"], str)
    assert report["paths"] == "108"


def test_count_verify_defaults_off_above_threshold(capsys):
    # 2^(2*9-1) = 2^17 rules is past the auto-verify cutoff
    code, report = run_json(capsys, "count", "--q", "2", "--b", "2",
                            "--k", "10")
    assert code == 0
    assert report["formula"] == str(2 ** 9)
    assert "paths" not in report and "match" not in report


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
    # 2^5 rules pass the auto-verify cutoff, but not their 2^5 windows the
    # budget of 16: by default the formula stands alone
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


def test_count_with_workers(capsys):
    code, report = run_json(capsys, "count", "--q", "2", "--b", "2",
                            "--k", "4", "--workers", "2")
    assert code == 0
    assert report["exhaustive"] == "8"


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
    monkeypatch.setenv("LHCA_BUDGET", "0")
    code, _, err = run(capsys, "graph", "--q", "2", "--b", "2")
    assert code == 2


# ---------------------------------------------------------------- synth

def test_synth_all_emits_every_latin_rule(capsys):
    code, rules = run_json(capsys, "synth", "--q", "2", "--b", "2",
                           "--k", "4", "--all")
    assert code == 0
    assert len(rules) == 8
    coeff_sets = {tuple(r["coeffs"]) for r in rules}
    assert len(coeff_sets) == 8
    assert all(r["q"] == 2 and r["b"] == 2 and r["k"] == 4 for r in rules)


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


@pytest.mark.parametrize("k", [14_000, 20_000, 1_100_000])
def test_synth_all_refuses_a_long_walk_at_once(capsys, k):
    start = time.perf_counter()
    code, out, err = run(capsys, "synth", "--q", "2", "--b", "2",
                         "--k", str(k), "--all")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (f"error: 4 * 2^{k - 3} walks exceed the enumeration "
                   "budget 1048576\n")


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
