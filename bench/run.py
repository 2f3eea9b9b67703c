"""Closed-loop benchmark of lhca: one process, one call at a time.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Builds the workload's round of ops from the seed, then runs whole rounds
until --seconds have passed, checking every output.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json, scaled for the host's
drift (see CALIBRATION_REF_S); with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics,
per round, plus the tracing overhead.  The last line of standard output
is the result as JSON; the full report goes to bench/out/.
"""

from __future__ import annotations

import os

# pin numeric libraries to one thread before numpy is first imported
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update(dict.fromkeys(PINNED, "1"))
os.environ.pop("LHCA_BUDGET", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
# The speed a shared host gives this process drifts by tens of percent
# over minutes.  A fixed kernel of interpreted Python and small numpy
# lookups, the kinds of work lhca does, runs after every set-up and every
# round; end-to-end times are scaled by CALIBRATION_REF_S over its median
# time in the run, i.e. reported as on a host where it takes that long.
CALIBRATION_REF_S = 0.040

# Set-up as a user pays it: a fresh interpreter imports lhca and builds
# every field the workload uses, lookup tables included.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lhca, lhca.cli
fields = [lhca.GF(int(q)) for q in sys.argv[2:]]
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {v: os.environ[v] for v in PINNED},
    }


def calibration_s() -> float:
    import numpy as np
    table = (np.arange(256, dtype=np.uint8) % 16).reshape(16, 16)
    x = np.arange(64, dtype=np.uint8) % 16
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(120000):
        acc = (acc * 31 + i) % 1000003
        seen[i & 1023] = acc
    for _ in range(6000):
        x = table[x, x]
    return time.perf_counter() - t0


def measure_setup(fields, calibration) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, fields)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
        calibration.append(calibration_s())
    return samples


def run_round(rnd, tracer=None) -> tuple[list[float], int, float]:
    """Every op of the round once; returns latencies, failures, wall time."""
    latencies, failed = [], 0
    start = time.perf_counter()
    for op in rnd.ops:
        span = tracer.open("op." + op.kind) if tracer else None
        t0 = time.perf_counter()
        try:
            result, ok = op.call(), True
        except Exception:
            result, ok = None, False
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
        if ok:
            try:
                ok = bool(op.check(result))
            except Exception:
                ok = False
        failed += not ok
    failed += rnd.finish()
    return latencies, failed, time.perf_counter() - start


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(rounds, setup, scale) -> dict:
    """name -> (value, q1, q3, what the quartiles range over); the value
    pools every op of every timed round.  Times are multiplied by scale."""
    rounds = [([x * scale for x in r[0]], *r[1:]) for r in rounds]
    setup = [x * scale for x in setup]
    lat = [x for r in rounds for x in r[0]]
    rates = [len(r[0]) / sum(r[0]) for r in rounds]
    p50 = [statistics.median(r[0]) * 1e3 for r in rounds]
    p90 = [statistics.quantiles(r[0], n=10)[-1] * 1e3 for r in rounds]
    over = f"{len(rounds)} rounds"
    q1, med, q3 = quartiles(setup)
    out = {"setup_s": (med, q1, q3, f"{len(setup)} set-ups")}
    out["ops_per_s"] = (len(lat) / sum(lat), *quartiles(rates)[::2], over)
    out["op_p50_ms"] = (statistics.median(lat) * 1e3, *quartiles(p50)[::2],
                        over)
    out["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3,
                        *quartiles(p90)[::2], over)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["peak_rss_mb"] = (rss, rss, rss, "1 process")
    return out


def add_totals(acc: dict, t: dict) -> None:
    for name, sums in t.items():
        for key, value in sums.items():
            acc[name][key] += value


def traced_run(lhca, wl, seed, seconds, layer_names):
    """Untraced and traced rounds in turn; per-layer totals are set-up plus
    the mean traced round."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    fields = {q: lhca.GF(q) for q in wl.fields}
    tracer.enabled = False
    setup_hi = len(tracer.spans)
    rnd = wl.build(lhca, fields, random.Random(seed))
    lat, failed, _ = run_round(rnd)  # warm-up
    attempted = len(lat)
    walls = {False: [], True: []}
    ranges = []
    start = time.perf_counter()
    while not ranges or time.perf_counter() - start < seconds:
        for traced in (False, True):
            lo = len(tracer.spans)
            tracer.enabled = traced
            lat, bad, wall = run_round(rnd, tracer if traced else None)
            tracer.enabled = False
            walls[traced].append(wall)
            attempted, failed = attempted + len(lat), failed + bad
            if traced:
                ranges.append((lo, len(tracer.spans)))
    rounds = defaultdict(lambda: defaultdict(float))
    for lo, hi in ranges:
        add_totals(rounds, tracing.totals(tracer.spans, lo, hi))
    acc = defaultdict(lambda: defaultdict(float))
    add_totals(acc, tracing.totals(tracer.spans, 0, setup_hi))
    n = len(ranges)
    add_totals(acc, {name: {key: value / n for key, value in sums.items()}
                     for name, sums in rounds.items()})
    op_time = sum(v["incl_s"] for n, v in acc.items() if n.startswith("op."))
    # each traced round against the untraced round just before it
    overhead = statistics.median(
        t - u for u, t in zip(walls[False], walls[True]))
    metrics = tracing.layer_metrics(layer_names, acc, op_time, overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{seed}-spans.json")
    info = {"input_size": rnd.size, "rounds": len(ranges),
            "untraced_round_s": statistics.median(walls[False]),
            "traced_round_s": statistics.median(walls[True])}
    return metrics, attempted, failed, info


def split_warnings(name: str, m: dict) -> list[str]:
    """The layer split the workloads are built on."""
    out = []
    if name == "algebra" and m["rules.apply_ca_batch.rows"]:
        out.append("algebra ran apply_ca_batch rows")
    if name == "sweep" and m["toeplitz.self_share"] > 0.05:
        out.append("toeplitz self time is over 5% of sweep")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lhca" / "__init__.py").is_file():
        print(f"error: no lhca sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lhca
    import lhca.cli  # noqa: F401
    if Path(lhca.__file__).resolve().parent != SRC / "lhca":
        print(f"error: imported lhca from {lhca.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    if args.trace:
        listed = spec["per_layer"]
        values, attempted, failed, info = traced_run(
            lhca, wl, args.seed, args.seconds, [m["name"] for m in listed])
        table = {m["name"]: (values[m["name"]],) for m in listed}
        report.update(info, warnings=split_warnings(wl.name, values))
    else:
        listed = spec["end_to_end"]
        calibration = []
        setup = measure_setup(wl.fields, calibration)
        fields = {q: lhca.GF(q) for q in wl.fields}
        rnd = wl.build(lhca, fields, random.Random(args.seed))
        warmup = run_round(rnd)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(rnd))
            calibration.append(calibration_s())
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        table = end_to_end(rounds, setup, scale)
        report["unscaled"] = {name: row[0] for name, row in
                              end_to_end(rounds, setup, 1.0).items()}
        report["calibration_s"] = calibration
        attempted = sum(len(r[0]) for r in [warmup, *rounds])
        failed = sum(r[1] for r in [warmup, *rounds])
        timed = attempted - len(rnd.ops)
        report.update(input_size=rnd.size, rounds=len(rounds),
                      ops_per_round=len(rnd.ops), timed_ops=timed,
                      beyond_p90=timed - int(0.9 * timed))

    units = {m["name"]: m["unit"] for m in listed}
    report.update(attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted,
                  metrics={name: dict(zip(("value", "q1", "q3", "over"), row),
                                      unit=units[name])
                           for name, row in table.items()})
    OUT.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {wl.name}  seed {args.seed}  {report['input_size']}")
    print(f"{'metric':40} {'unit':6} {'value':>14} {'q1':>12} {'q3':>12}")
    for name, row in table.items():
        cells = "".join(f" {v:>12.6g}" for v in row[1:3])
        extra = f"  over {row[3]}" if len(row) > 3 else ""
        print(f"{name:40} {units[name]:6} {row[0]:>14.6g}{cells}{extra}")
    print(f"{'failed_ratio':40} {'ratio':6} {failed / attempted:>14.6g}"
          f"  ({failed} of {attempted} ops)")
    if "timed_ops" in report:
        print(f"{report['timed_ops']} ops timed over {report['rounds']} "
              f"rounds, {report['beyond_p90']} beyond p90")
    for w in report.get("warnings", []):
        print(f"warning: {w}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": row[0], "unit": units[name]}
                    for name, row in table.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
