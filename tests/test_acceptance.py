"""Acceptance gate: the eleven headline results, one test per criterion.

Each test prints a single PASS/FAIL line (visible even under capture)
and enforces its runtime budget where one is stated.  Run alone with

    pytest tests/test_acceptance.py -v
"""

import itertools
import json
import random
import time
from collections import Counter
from contextlib import contextmanager

from helpers import cofactor_det

from lhca import (
    GF,
    LinearRule,
    apply_ca,
    build_graph,
    count_latin_rules,
    count_paths,
    det_of_window,
    determinant,
    entry,
    enumerate_bipermutive_rules,
    enumerate_linear_rules,
    enumerate_paths,
    is_latin,
    is_latin_by_windows,
    latin_hypercube_count,
    rule_from_path,
    solve_middle_block,
    support_of_det,
    toeplitz_matrix,
)
from lhca.cli import main


@contextmanager
def criterion(capsys, n, desc, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {n}: {desc}", flush=True)
        raise
    dt = time.perf_counter() - t0
    ok = limit is None or dt < limit
    tag = f"{dt:.2f}s" + (f" < {limit:g}s" if limit is not None else "")
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc} [{tag}]",
              flush=True)
    assert ok, f"criterion {n} ran {dt:.2f}s, over the {limit}s limit"


GOLDEN_CUBE = [
    [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]],
    [[2, 1, 4, 3], [1, 2, 3, 4], [4, 3, 2, 1], [3, 4, 1, 2]],
    [[3, 4, 1, 2], [4, 3, 2, 1], [1, 2, 3, 4], [2, 1, 4, 3]],
    [[4, 3, 2, 1], [3, 4, 1, 2], [2, 1, 4, 3], [1, 2, 3, 4]],
]


def test_criterion_01_golden_cube(capsys):
    with criterion(capsys, 1, "rule (0,1,0) reproduces the golden 4x4x4 cube",
                   limit=1.0):
        rule = LinearRule(GF(2), 2, 3, (0, 1, 0))
        assert entry(rule, (1, 3, 2)) == 4
        for z in range(1, 5):
            for x in range(1, 5):
                for y in range(1, 5):
                    assert entry(rule, (x, y, z)) == GOLDEN_CUBE[z - 1][x - 1][y - 1]
        assert is_latin(rule)


def test_criterion_02_golden_support_and_graph(capsys):
    with criterion(capsys, 2, "determinant support and its graph at q=2, b=2",
                   limit=1.0):
        fld = GF(2)
        support = set(map(tuple, support_of_det(fld, 2).tolist()))
        assert support == {(0, 1, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
        g = build_graph(fld, 2)
        edges = set(g.edges())
        loops = {(w, w) for w in ((0, 1, 0), (1, 0, 1))}
        two_cycle = {((1, 1, 0), (0, 1, 1)), ((0, 1, 1), (1, 1, 0))}
        four_cycle = {((0, 1, 0), (0, 1, 1)), ((0, 1, 1), (1, 0, 1)),
                      ((1, 0, 1), (1, 1, 0)), ((1, 1, 0), (0, 1, 0))}
        assert edges == loops | two_cycle | four_cycle
        assert len(edges) == 8


def test_criterion_03_latin_cube_counts(capsys):
    with criterion(capsys, 3, "4 of 8 Latin cubes at q=2 and 18 of 27 at q=3",
                   limit=10.0):
        for q, expected in ((2, 4), (3, 18)):
            fld = GF(q)
            rules = list(enumerate_linear_rules(fld, 2, 3))
            assert len(rules) == q ** 3
            latin = sum(bool(is_latin(r)) for r in rules)
            assert latin == expected == (q - 1) * q ** 2


def equivalence_grid():
    """Every (q, b, k) with at most 2^13 rules whose full sweep also stays
    tractable (rule count times cube size at most 2^25); both bounds grow
    monotonically in k, and the work bound keeps the sweep under the stated
    five-minute budget while covering all six mandated triples."""
    points = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for b in (1, 2, 3, 4):
            for k in itertools.count(3):
                rules = q ** (b * (k - 1) - 1)
                if rules > 1 << 13 or rules * q ** (b * k) > 1 << 25:
                    break
                points.append((q, b, k))
    return points


MANDATED = {(2, 2, 4), (2, 2, 5), (2, 3, 3), (3, 2, 3), (3, 2, 4), (2, 3, 4)}

# criterion 4 stores its exhaustive Latin counts here so criterion 5 can
# reuse them; criterion 5 recounts on its own when run in isolation
GRID_LATIN_COUNTS = {}


def test_criterion_04_characterization_equivalence(capsys):
    grid = equivalence_grid()
    assert MANDATED <= set(grid)
    with criterion(capsys, 4,
                   f"window criterion == line sweep on {len(grid)} grid points",
                   limit=300.0):
        for q, b, k in grid:
            fld = GF(q)
            latin = 0
            for rule in enumerate_linear_rules(fld, b, k):
                by_windows = is_latin_by_windows(rule)
                by_sweep = bool(is_latin(rule))
                assert by_windows == by_sweep, (
                    f"verdicts disagree at q={q} b={b} k={k} "
                    f"coeffs={rule.coeffs}")
                latin += by_sweep
            GRID_LATIN_COUNTS[(q, b, k)] = latin


def test_criterion_05_counting_theorem(capsys):
    grid = equivalence_grid()
    with criterion(capsys, 5,
                   f"exhaustive = walk count = formula on {len(grid)} grid points",
                   limit=300.0):
        for q, b, k in grid:
            fld = GF(q)
            expected = (q - 1) ** (k - 2) * q ** ((k - 1) * (b - 1))
            walks = count_paths(build_graph(fld, b), k - 3)
            assert walks == expected, f"walks at q={q} b={b} k={k}"
            exhaustive = GRID_LATIN_COUNTS.get((q, b, k))
            if exhaustive is None:
                exhaustive = count_latin_rules(fld, b, k)
            assert exhaustive == expected, f"sweep at q={q} b={b} k={k}"
        assert latin_hypercube_count(GF(2), 2, 5) == 16
        assert latin_hypercube_count(GF(2), 2, 4) == 8
        assert latin_hypercube_count(GF(3), 2, 4) == 108


DEGREE_GRID = ((2, 2), (2, 3), (2, 4), (3, 2))


def test_criterion_06_regularity(capsys):
    with criterion(capsys, 6,
                   "graph is (q-1)q^(b-1)-regular in and out on the (q,b) grid",
                   limit=60.0):
        for q, b in DEGREE_GRID:
            g = build_graph(GF(q), b)
            degree = (q - 1) * q ** (b - 1)
            assert len(g.vertices) == (q - 1) * q ** (2 * (b - 1))
            assert set(g.out_degrees()) == {degree}
            assert set(g.in_degrees()) == {degree}


def test_criterion_07_balancedness(capsys):
    with criterion(capsys, 7,
                   "every prefix and suffix fixing leaves (q-1)q^(b-1) windows",
                   limit=60.0):
        for q, b in DEGREE_GRID:
            support = list(map(tuple, support_of_det(GF(q), b).tolist()))
            target = (q - 1) * q ** (b - 1)
            fixings = list(itertools.product(range(q), repeat=b - 1))
            prefixes = Counter(w[:b - 1] for w in support)
            suffixes = Counter(w[len(w) - (b - 1):] for w in support)
            for a in fixings:
                assert prefixes[a] == target, f"prefix {a} at q={q} b={b}"
                assert suffixes[a] == target, f"suffix {a} at q={q} b={b}"


def test_criterion_08_triangular_completions(capsys):
    with criterion(capsys, 8,
                   "every strictly lower part has (q-1)q^(n-1) nonsingular "
                   "completions", limit=60.0):
        for q in (2, 3):
            fld = GF(q)
            for n in (2, 3, 4):
                expected = (q - 1) * q ** (n - 1)
                # the lower part is a window's first n-1 coefficients, and
                # it heads the successor run of each vertex ending in it
                g = build_graph(fld, n)
                runs = {v[n:]: s for v, s in zip(g.vertices, g.succ)}
                for lower in itertools.product(range(q), repeat=n - 1):
                    scalar = sum(
                        det_of_window(fld, lower + rest) != 0
                        for rest in itertools.product(range(q), repeat=n))
                    assert scalar == expected, f"{lower} at q={q} n={n}"
                    run = runs[lower]
                    assert len(run) == expected, f"{lower} at q={q} n={n}"
                    assert all(g.vertices[j][:n - 1] == lower for j in run)


def test_criterion_09_latin_square_corollary(capsys):
    with criterion(capsys, 9,
                   "all general bipermutive rules at (2,2) and (2,1) give "
                   "Latin squares"):
        for b, expected in ((2, 4), (1, 2)):
            rules = list(enumerate_bipermutive_rules(GF(2), b))
            assert len(rules) == expected == 2 ** 2 ** (b - 1)
            for rule in rules:
                assert is_latin(rule), rule


def test_criterion_10_example_synthesis(capsys):
    with criterion(capsys, 10,
                   "walk 010 -> 011 -> 101 synthesizes x1+x3+x5+x6+x8+x9, "
                   "Latin at k=5"):
        fld = GF(2)
        walks = list(enumerate_paths(build_graph(fld, 2), 2))
        target = ((0, 1, 0), (0, 1, 1), (1, 0, 1))
        expected_rule = rule_from_path(fld, target)
        assert expected_rule.coeffs == (0, 1, 0, 1, 1, 0, 1)
        taps = [i + 1 for i, c in enumerate(expected_rule.full_coeffs) if c]
        assert taps == [1, 3, 5, 6, 8, 9]

        code = main(["synth", "--q", "2", "--b", "2", "--k", "5",
                     "--index", str(walks.index(target))])
        emitted = json.loads(capsys.readouterr().out)
        assert code == 0
        assert emitted == {"q": 2, "b": 2, "k": 5, "coeffs": [0, 1, 0, 1, 1, 0, 1]}

        code = main(["check", "--q", "2", "--b", "2", "--k", "5",
                     "--coeffs", "0,1,0,1,1,0,1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["latin"] is True
        assert report["oracle"] == "agree"
        assert all(w["det"] != 0 for w in report["windows"])


def test_criterion_11_property_suite(capsys):
    with criterion(capsys, 11,
                   "field axioms, determinant oracle, solver round-trips",
                   limit=120.0):
        # field axioms, exhaustive for every order up to 9
        for q in (2, 3, 4, 5, 7, 8, 9):
            fld = GF(q)
            els = range(q)
            for a in els:
                assert fld.add(a, 0) == a and fld.mul(a, 1) == a
                assert fld.add(a, fld.neg(a)) == 0
                if a:
                    assert fld.mul(a, fld.inv(a)) == 1
                for b_ in els:
                    assert fld.add(a, b_) == fld.add(b_, a)
                    assert fld.mul(a, b_) == fld.mul(b_, a)
                    for c in els:
                        assert (fld.add(fld.add(a, b_), c)
                                == fld.add(a, fld.add(b_, c)))
                        assert (fld.mul(fld.mul(a, b_), c)
                                == fld.mul(a, fld.mul(b_, c)))
                        assert (fld.mul(a, fld.add(b_, c))
                                == fld.add(fld.mul(a, b_), fld.mul(a, c)))

        # Gaussian elimination against cofactor expansion on every window
        checked = 0
        for q in (2, 3, 4, 5, 7, 8, 9):
            fld = GF(q)
            for b in range(1, 7):
                if q ** (2 * b - 1) > 1 << 12:
                    break
                for window in itertools.product(range(q), repeat=2 * b - 1):
                    m = toeplitz_matrix(window)
                    assert determinant(fld, m) == cofactor_det(fld, m)
                    checked += 1
        assert checked > 4000

        # middle-block solver round-trip on random Latin rules
        rng = random.Random(20250814)
        graphs = {}
        for _ in range(1000):
            q = rng.choice((2, 3, 4, 5))
            b = rng.choice((1, 2, 3))
            k = rng.choice((3, 4, 5))
            fld = GF(q)
            if (q, b) not in graphs:
                graphs[(q, b)] = build_graph(fld, b)
            g = graphs[(q, b)]
            walk = [rng.choice(g.vertices)]
            for _ in range(k - 3):
                walk.append(rng.choice(g.successors(walk[-1])))
            rule = rule_from_path(fld, tuple(walk))
            blocks = [tuple(rng.randrange(q) for _ in range(b))
                      for _ in range(k)]
            y = apply_ca(rule, tuple(itertools.chain.from_iterable(blocks)))
            i = rng.randrange(1, k - 1)
            fixed = blocks[:i] + blocks[i + 1:]
            assert solve_middle_block(rule, i, fixed, y) == blocks[i]
