"""The benchmark's workloads: sweep, algebra and cli.

Each workload builds one round: a list of ops generated from the seed
before any timing, each a single call into lhca plus a check of its
output.  A run repeats the round; lhca receives only the generated
inputs.  Expected outputs come from ``reference``, never from the library
under test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import reference as ref


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Round:
    ops: list[Op]
    size: str
    # failures only visible once the whole round has run; resets for the next
    finish: Callable[[], int] = lambda: 0


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[int, ...]  # GF orders built during set-up
    build: Callable  # (lhca, {q: GF}, random.Random) -> Round


# ---------------------------------------------------------------- sweep

# Every linear rule at each point is cross-checked every round: window
# determinants against the brute-force line sweep.  N = q^b runs from 2
# (k = 10) to 27 (k = 3); GF(4), GF(8), GF(9) and GF(27) are extension
# fields.  A round takes about 3.5 s on a 2-vCPU Xeon virtual machine.
SWEEP_POINTS = ((2, 1, 10), (2, 2, 5), (3, 2, 4), (2, 3, 4), (4, 1, 6),
                (8, 1, 4), (5, 1, 5), (9, 1, 4), (27, 1, 3))


def build_sweep(lhca, fields, rng) -> Round:
    latin = dict.fromkeys(SWEEP_POINTS, 0)

    def op(point, rule):
        def call():
            return all(lhca.window_dets(rule)), bool(lhca.is_latin(rule))

        def check(verdicts):
            latin[point] += verdicts[1]
            return verdicts[0] == verdicts[1]
        return Op("rule", call, check)

    def finish():
        # a point whose Latin count misses the closed form is one failure
        bad = sum(n != ref.closed_form(*p) for p, n in latin.items())
        latin.update(dict.fromkeys(latin, 0))
        return bad

    ops = [op((q, b, k), lhca.LinearRule(fields[q], b, k, coeffs))
           for q, b, k in SWEEP_POINTS
           for coeffs in itertools.product(range(q), repeat=b * (k - 1) - 1)]
    rng.shuffle(ops)
    return Round(ops, f"{len(ops)} rules over (q,b,k) in {list(SWEEP_POINTS)}",
                 finish)


# -------------------------------------------------------------- algebra

ALGEBRA_GRAPHS = ((2, 6), (3, 4), (16, 2), (27, 2), (729, 1), (2, 2), (3, 2),
                  (4, 2), (2, 3), (5, 2))              # build_graph (q, b)
ALGEBRA_WALK_COUNTS = ((2, 2, 6000), (3, 2, 1000), (2, 6, 50), (4, 2, 600),
                       (5, 2, 200), (2, 3, 300))  # count_paths (q, b, edges)
ALGEBRA_ENUMERATIONS = ((2, 2, 8), (3, 2, 3), (4, 2, 2), (2, 3, 4))
# Random Latin rules with k in the hundreds: rule_from_path, window_dets
# and solve_middle_block on each.  Their cost depends on the seed, so they
# stay well below the graph builds and walk counts, which are the same for
# every seed and hold the 90th latency percentile.
ALGEBRA_WALK_RULES = ((2, 2, 300), (3, 2, 200), (256, 1, 300), (243, 1, 300),
                      (16, 2, 200), (2, 6, 100), (3, 4, 100))
RULES_PER_WALK_POINT = 3


def reference_graph(lhca, fld, b):
    vertices = ref.support(fld, b)
    succ = [[] for _ in vertices]
    for i, j in ref.edges(vertices, b):
        succ[i].append(j)
    return lhca.DetGraph(fld, b, tuple(vertices), tuple(map(tuple, succ)))


def _valid_walks(walks, vertices, b, expected):
    """``expected`` distinct walks in increasing order, each a chain of
    overlapping nonsingular windows: all walks of that length."""
    vset = set(vertices)
    return (len(walks) == expected
            and all(u < v for u, v in zip(walks, walks[1:]))
            and all(w in vset for walk in walks for w in walk)
            and all(u[len(u) - (b - 1):] == v[:b - 1]
                    for walk in walks for u, v in zip(walk, walk[1:])))


def build_algebra(lhca, fields, rng) -> Round:
    ops = []
    for q, b in ALGEBRA_GRAPHS:
        ops.append(Op(
            "build_graph",
            lambda fld=fields[q], b=b: lhca.build_graph(fld, b),
            lambda g, q=q, b=b: (
                len(g.vertices) == (q - 1) * q ** (2 * b - 2)
                and all(len(s) == (q - 1) * q ** (b - 1) for s in g.succ))))
    graphs = {(q, b): reference_graph(lhca, fields[q], b)
              for q, b, _ in ALGEBRA_WALK_COUNTS + ALGEBRA_ENUMERATIONS}
    for q, b, n in ALGEBRA_WALK_COUNTS:
        ops.append(Op(
            "count_paths",
            lambda g=graphs[q, b], n=n: lhca.count_paths(g, n),
            lambda c, want=ref.closed_form(q, b, n + 3): c == want))
    for q, b, n in ALGEBRA_ENUMERATIONS:
        g = graphs[q, b]
        ops.append(Op(
            "enumerate_paths",
            lambda g=g, n=n: list(lhca.enumerate_paths(g, n)),
            lambda walks, g=g, b=b, want=ref.closed_form(q, b, n + 3):
                _valid_walks(walks, g.vertices, b, want)))
    for q, b, k in ALGEBRA_WALK_RULES:
        fld = fields[q]
        for _ in range(RULES_PER_WALK_POINT):
            coeffs = ref.random_latin_coeffs(fld, b, k, rng)
            rule = lhca.LinearRule(fld, b, k, coeffs)
            i = rng.randrange(1, k - 1)
            blocks = [tuple(rng.randrange(q) for _ in range(b))
                      for _ in range(k)]
            y = ref.apply_rule(fld, (1, *coeffs, 1),
                               [c for blk in blocks for c in blk])
            fixed = blocks[:i] + blocks[i + 1:]
            ops += [
                Op("rule_from_path",
                   lambda fld=fld, w=ref.windows(coeffs, b, k):
                       lhca.rule_from_path(fld, w),
                   lambda r, want=(b, k, coeffs):
                       (r.b, r.k, r.coeffs) == want),
                Op("window_dets",
                   lambda rule=rule: lhca.window_dets(rule),
                   lambda d, want=ref.dets(fld, coeffs, b, k): d == want),
                Op("solve_middle_block",
                   lambda rule=rule, i=i, fixed=fixed, y=y:
                       lhca.solve_middle_block(rule, i, fixed, y),
                   lambda x, want=blocks[i]: x == want),
            ]
    rng.shuffle(ops)
    return Round(ops, (f"{len(ops)} calls: "
                       f"build_graph {list(ALGEBRA_GRAPHS)}, "
                       f"count_paths {list(ALGEBRA_WALK_COUNTS)}, "
                       f"enumerate_paths {list(ALGEBRA_ENUMERATIONS)}, "
                       f"{RULES_PER_WALK_POINT} walk rules at each of "
                       f"{list(ALGEBRA_WALK_RULES)}"))


# ------------------------------------------------------------------ cli

CLI_SWEPT_CHECKS = ((2, 2, 6), (3, 2, 4), (4, 1, 6), (2, 3, 4), (8, 1, 4))
# Cubes above the default entry budget, so check samples 1000 lines.  The
# Latin ones are the costliest commands and cost about the same at these
# three shapes; a tenth of the ops or more, they hold the 90th latency
# percentile inside one kind of op.
CLI_SAMPLED_CHECKS = ((2, 2, 14), (3, 2, 10), (16, 1, 16))
CLI_SWEPT_LATIN = (True, True, False, False)   # per swept shape
CLI_SAMPLED_LATIN = (True, True, True, False)  # per sampled shape
CLI_COUNTS = ((2, 2, 4), (3, 1, 5), (2, 1, 8))
CLI_SYNTHS = ((2, 2, 6), (3, 2, 4), (2, 3, 4), (2, 2, 6), (3, 2, 4), (2, 3, 4))
CLI_DUMPS = ((2, 2, 6), (16, 1, 4), (3, 2, 4), (2, 1, 10))
CLI_GRAPHS = ((2, 3), (3, 2), (4, 2), (2, 4))
CLI_REFUSED = (2, 2, 13)  # 4^13 entries: over the default entry budget


def run_cli(lhca, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lhca.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _rule_args(q, b, k, coeffs):
    return ["--q", str(q), "--b", str(b), "--k", str(k),
            "--coeffs", ",".join(map(str, coeffs))]


def _check_report(fld, b, k, coeffs, oracles):
    latin = ref.is_latin(fld, coeffs, b, k)
    dets = ref.dets(fld, coeffs, b, k)

    def check(res):
        code, out = res
        rep = json.loads(out)
        return (code == (0 if latin else 1) and rep["latin"] == latin
                and [w["det"] for w in rep["windows"]] == dets
                and rep["oracle"] in oracles)
    return check


def _graph_lists(out):
    g = json.loads(out)
    return g["vertices"], sorted(g["edges"])


def build_cli(lhca, fields, rng) -> Round:
    ops = []

    def add(kind, argv, check):
        ops.append(Op(kind, lambda: run_cli(lhca, argv), check))

    for q, b, k in CLI_SWEPT_CHECKS + CLI_SAMPLED_CHECKS:
        fld = fields[q]
        sampled = (q, b, k) in CLI_SAMPLED_CHECKS
        for latin in CLI_SAMPLED_LATIN if sampled else CLI_SWEPT_LATIN:
            coeffs = (ref.random_latin_coeffs if latin
                      else ref.random_non_latin_coeffs)(fld, b, k, rng)
            seed = ["--seed", str(rng.randrange(1 << 30))] if sampled else []
            oracles = ({"agree"} if not sampled else {"sampled-agree"} if latin
                       else {"sampled-agree", "sampled-inconclusive"})
            add("check", ["check", *_rule_args(q, b, k, coeffs), *seed],
                _check_report(fld, b, k, coeffs, oracles))
    for q, b, k in CLI_COUNTS:
        want = str(ref.closed_form(q, b, k))
        add("count", ["count", "--q", str(q), "--b", str(b), "--k", str(k),
                      "--verify"],
            lambda res, want=want: res[0] == 0 and all(
                json.loads(res[1])[key] == want
                for key in ("formula", "paths", "exhaustive")))
    for q, b, k in CLI_SYNTHS:
        index = rng.randrange(ref.closed_form(q, b, k))
        want = list(ref.nth_latin_coeffs(fields[q], b, k, index))
        add("synth", ["synth", "--q", str(q), "--b", str(b), "--k", str(k),
                      "--index", str(index)],
            lambda res, want=want: res[0] == 0
            and json.loads(res[1])["coeffs"] == want)
    for q, b, k in CLI_DUMPS:
        coeffs = ref.random_coeffs(fields[q], b, k, rng)
        want = ref.cube_layers(fields[q], b, k, coeffs)
        add("dump", ["dump", *_rule_args(q, b, k, coeffs), "--format", "json"],
            lambda res, want=want: res[0] == 0
            and json.loads(res[1])["layers"] == want)
    for q, b in CLI_GRAPHS:
        vertices = ref.support(fields[q], b)
        want = ([list(v) for v in vertices],
                [list(e) for e in ref.edges(vertices, b)])
        add("graph",
            ["graph", "--q", str(q), "--b", str(b), "--format", "json"],
            lambda res, want=want: res[0] == 0
            and _graph_lists(res[1]) == want)
    q, b, k = CLI_REFUSED
    coeffs = ref.random_coeffs(fields[q], b, k, rng)
    for argv in (["dump", *_rule_args(q, b, k, coeffs), "--format", "json"],
                 ["check", *_rule_args(q, b, k, coeffs), "--verify"]):
        add("refused", argv, lambda res: res == (3, ""))
    rng.shuffle(ops)
    largest = max(q ** (b * k) for q, b, k in CLI_SWEPT_CHECKS + CLI_DUMPS)
    return Round(ops, f"{len(ops)} lhca commands, cubes of at most {largest} "
                      "entries swept or dumped")


WORKLOADS = {
    "sweep": Workload("sweep", (2, 3, 4, 5, 8, 9, 27), build_sweep),
    "algebra": Workload("algebra", (2, 3, 4, 5, 16, 27, 243, 256, 729),
                        build_algebra),
    "cli": Workload("cli", (2, 3, 4, 8, 16), build_cli),
}
