"""Smoke test of the benchmark harness at tiny sizes, and of BENCHMARK.json.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lhca  # noqa: E402
import lhca.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
TINY = {
    "SWEEP_POINTS": ((2, 1, 4), (2, 2, 3), (4, 1, 3)),
    "ALGEBRA_GRAPHS": ((2, 2), (3, 1)),
    "ALGEBRA_WALK_COUNTS": ((2, 2, 20),),
    "ALGEBRA_ENUMERATIONS": ((2, 2, 3),),
    "ALGEBRA_WALK_RULES": ((2, 2, 12), (9, 1, 10)),
    "CLI_SWEPT_CHECKS": ((2, 2, 3),),
    "CLI_SAMPLED_CHECKS": ((2, 1, 30),),
    "CLI_COUNTS": ((2, 2, 3),),
    "CLI_SYNTHS": ((2, 2, 4),),
    "CLI_DUMPS": ((2, 2, 3), (4, 1, 3)),
    "CLI_GRAPHS": ((2, 2),),
}


class Fields(dict):
    def __missing__(self, q):
        self[q] = lhca.GF(q)
        return self[q]


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] in range(1, 61)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_round_passes_and_is_seeded(tiny, name):
    wl = workloads.WORKLOADS[name]
    rnd = wl.build(lhca, Fields(), random.Random(7))
    for _ in range(2):  # finish() must reset per-round state
        latencies, failed, _ = run.run_round(rnd)
        assert failed == 0 and len(latencies) == len(rnd.ops) > 0
    again = wl.build(lhca, Fields(), random.Random(7))
    assert [op.kind for op in again.ops] == [op.kind for op in rnd.ops]


def test_failures_are_counted_not_raised(tiny, monkeypatch):
    rnd = workloads.build_sweep(lhca, Fields(), random.Random(1))
    monkeypatch.setattr(lhca, "window_dets", lambda rule: [1])
    _, failed, _ = run.run_round(rnd)
    assert 0 < failed
    monkeypatch.setattr(lhca, "is_latin", lambda rule: 1 / 0)
    _, failed, _ = run.run_round(rnd)
    assert failed >= len(rnd.ops)


def test_traced_round_reports_every_layer_metric(tiny, monkeypatch):
    names = [m["name"] for m in SPEC["per_layer"]]
    # let monkeypatch restore every name the tracer rebinds
    monkeypatch.setattr(lhca.GF, "__init__", lhca.GF.__init__)
    for mod in [m for n, m in sys.modules.items()
                if n.split(".")[0] == "lhca"]:
        for key, value in list(vars(mod).items()):
            monkeypatch.setattr(mod, key, value)
    tracer = tracing.Tracer()
    tracer.install()
    per_workload = {}
    for name, wl in workloads.WORKLOADS.items():
        rnd = wl.build(lhca, Fields(), random.Random(3))
        lo = len(tracer.spans)
        tracer.enabled = True
        _, failed, _ = run.run_round(rnd, tracer)
        tracer.enabled = False
        assert failed == 0 and not tracer.stack
        totals = tracing.totals(tracer.spans, lo, len(tracer.spans))
        op_time = sum(v["incl_s"] for n, v in totals.items()
                      if n.startswith("op."))
        per_workload[name] = tracing.layer_metrics(names, totals, op_time, 0.0)
        assert list(per_workload[name]) == names
    sweep, algebra, cli = map(per_workload.get, ("sweep", "algebra", "cli"))
    assert algebra["rules.apply_ca_batch.rows"] == 0
    assert sweep["rules.apply_ca_batch.rows"] > 0
    assert sweep["hypercube.is_latin.calls"] == sum(
        q ** (b * (k - 1) - 1) for q, b, k in TINY["SWEEP_POINTS"])
    assert 0 < sweep["hypercube.is_latin.useful_row_ratio"] <= 1
    assert algebra["toeplitz.solve_middle_block.calls"] == (
        workloads.RULES_PER_WALK_POINT * len(TINY["ALGEBRA_WALK_RULES"]))
    assert cli["cli.main.calls"] == len(workloads.build_cli(
        lhca, Fields(), random.Random(3)).ops)
    assert cli["cli.main.bytes_out"] > 0
    assert cli["hypercube.check_random_lines.lines"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
