"""Index encoding, cube entries, Latin verification, dumps, rule counting.

The 4x4x4 golden cube below was worked out by hand for the rule
f(x1..x5) = x1 + x3 + x5 over GF(2) with b=2, k=3 and is frozen here;
GOLDEN_CUBE[z-1][x-1][y-1] is the entry at (i1=x, i2=y, i3=z).
"""

import ast
import functools
import itertools
import json
import os
import random
import struct
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import lhca.hypercube
from helpers import dump_text_by_rows, is_latin_by_axes
from lhca.errors import BudgetExceededError
from lhca.field import GF
from lhca.hypercube import (
    LatinCheck,
    block_structure,
    check_random_lines,
    count_latin_rules,
    dump,
    dump_json,
    dump_text,
    entry,
    is_latin,
    psi,
    psi_inverse,
)
from lhca.rules import (
    GeneralBipermutiveRule,
    LinearRule,
    apply_ca_batch,
    unrank_cells,
)
from lhca.toeplitz import window_dets

F2 = GF(2)
F3 = GF(3)

XOR5 = LinearRule(F2, 2, 3, (0, 1, 0))

GOLDEN_CUBE = [
    [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]],
    [[2, 1, 4, 3], [1, 2, 3, 4], [4, 3, 2, 1], [3, 4, 1, 2]],
    [[3, 4, 1, 2], [4, 3, 2, 1], [1, 2, 3, 4], [2, 1, 4, 3]],
    [[4, 3, 2, 1], [3, 4, 1, 2], [2, 1, 4, 3], [1, 2, 3, 4]],
]


def test_psi_encoding_of_small_indices():
    assert psi(1, 2, 2) == (0, 0)
    assert psi(2, 2, 2) == (1, 0)
    assert psi(3, 2, 2) == (0, 1)
    assert psi(4, 2, 2) == (1, 1)
    assert psi(5, 3, 2) == (1, 1)


def test_psi_round_trip():
    for q, b in [(2, 3), (3, 2), (4, 2)]:
        for i in range(1, q**b + 1):
            assert psi_inverse(psi(i, q, b), q) == i


def test_psi_validation():
    with pytest.raises(ValueError, match=r"^index 0 out of range 1\.\.2\^2$"):
        psi(0, 2, 2)
    with pytest.raises(ValueError, match=r"^index 5 out of range 1\.\.2\^2$"):
        psi(5, 2, 2)
    assert psi(9, 3, 2) == (2, 2)
    with pytest.raises(ValueError, match=r"^index 10 out of range 1\.\.3\^2$"):
        psi(10, 3, 2)
    with pytest.raises(ValueError):
        psi_inverse((0, 2), 2)


def test_psi_range_check_builds_no_power():
    # 3^(10^4) has over 4300 digits, and 3^(10^8) takes minutes to build
    start = time.perf_counter()
    for i, b in ((0, 10**4), (0, 10**8), (-5, 10**8)):
        with pytest.raises(ValueError, match=(
                rf"^index {i} out of range 1\.\.3\^{b}$")):
            psi(i, 3, b)
    assert psi(2, 3, 10**4)[:2] == (1, 0)
    assert psi(1, 3, 0) == ()
    with pytest.raises(ValueError, match=r"^index 1 out of range 1\.\.3\^-1$"):
        psi(1, 3, -1)
    assert time.perf_counter() - start < 2


def test_psi_reads_exact_ints():
    # numpy cells rank as ints, not in their own wrapping dtype
    assert psi_inverse(np.ones(9, np.uint8), 2) == 512
    assert psi_inverse(np.full(3, 255, np.uint16), 256) == 256**3
    assert psi(np.int64(3), 2, 2) == (0, 1) and psi(True, 2, 1) == (0,)
    # a float is refused, even one that equals an index
    for bad_index in (1.5, 2.0):
        with pytest.raises(ValueError):
            psi(bad_index, 2, 1)
    for bad_cells in ((0.5,), (1, 1.0)):
        with pytest.raises(ValueError):
            psi_inverse(bad_cells, 2)


def test_block_structure_defaults_and_overrides():
    assert block_structure(XOR5) == (2, 3)
    assert block_structure(XOR5, b=4) == (4, 2)
    assert block_structure(XOR5, k=5) == (1, 5)
    assert block_structure(XOR5, b=2, k=3) == (2, 3)
    gen = GeneralBipermutiveRule(F2, 5, tuple([0] * 8))
    assert block_structure(gen) == (4, 2)
    assert block_structure(gen, k=3) == (2, 3)
    with pytest.raises(ValueError):
        block_structure(XOR5, k=4)       # 4 does not divide into 3 blocks
    with pytest.raises(ValueError):
        block_structure(XOR5, b=3)
    with pytest.raises(ValueError):
        block_structure(XOR5, b=2, k=2)


def test_entry_golden_values():
    assert entry(XOR5, (1, 3, 2)) == 4
    assert entry(XOR5, (4, 1, 1)) == 4
    # order-2 cube of f(x1,x2,x3) = x1 + x2 + x3
    r = LinearRule(F2, 1, 3, (1,))
    assert entry(r, (2, 2, 2)) == 2
    assert entry(r, (1, 1, 1)) == 1
    with pytest.raises(ValueError):
        entry(XOR5, (1, 2))
    with pytest.raises(ValueError):
        entry(XOR5, (1, 2, 5))


def test_full_golden_cube():
    for z, x, y in itertools.product(range(1, 5), repeat=3):
        assert entry(XOR5, (x, y, z)) == GOLDEN_CUBE[z - 1][x - 1][y - 1]


def test_golden_cube_is_latin():
    res = is_latin(XOR5)
    assert res
    assert isinstance(res, LatinCheck)
    assert res.axis is None and res.fixed is None and res.value is None


def test_non_latin_rule_counterexample_is_deterministic():
    # f = x1 + x5 ignores the middle block, so axis-2 lines are constant
    flat = LinearRule(F2, 2, 3, (0, 0, 0))
    res = is_latin(flat)
    assert not res
    assert res.axis == 2
    assert res.fixed == (1, 1)
    assert res.value == 1


def test_alternative_readings_of_one_rule():
    # Latinness depends on the reading: the same diameter-5 rule gives a
    # Latin 16x16 square, but its 2^5 cube has constant axis-2 lines
    # because the rule ignores x2
    assert is_latin(XOR5, b=4, k=2)
    res = is_latin(XOR5, k=5)
    assert not res and res.axis == 2


def test_general_rule_square_is_latin():
    add = GeneralBipermutiveRule(F3, 2, (0,))   # f(x1,x2) = x1 + x2
    assert is_latin(add)
    shifted = GeneralBipermutiveRule(F3, 2, (2,))
    assert is_latin(shifted)


def test_is_latin_budget():
    with pytest.raises(BudgetExceededError):
        is_latin(XOR5, budget=10)


def test_check_random_lines():
    assert check_random_lines(XOR5, n_lines=200, seed=7)
    flat = LinearRule(F2, 2, 3, (0, 0, 0))
    res = check_random_lines(flat, n_lines=200, seed=7)
    assert not res
    assert res.axis == 2
    assert res.value >= 1


def _draws(rng, count, n):
    """``count`` values in 0..n-1 from one randbytes call: each
    little-endian 32-bit word w maps to (w * n) >> 32."""
    words = struct.unpack(f"<{count}I", rng.randbytes(4 * count))
    return [w * n >> 32 for w in words]


def _random_lines_one_at_a_time(rule, n_lines, seed, b, k):
    """check_random_lines as one apply_ca_batch call per drawn line; also
    the draw position of the failing line (n_lines when none fails).
    Each batch draws its axes, then its coordinates line by line."""
    q = rule.field.q
    N = q**b
    blocks = np.array([unrank_cells(i, q, b) for i in range(N)])
    rng = random.Random(seed)
    chunk = max(1, 65536 // N)
    for lo in range(0, n_lines, chunk):
        L = min(chunk, n_lines - lo)
        axes = _draws(rng, L, k)
        coords = _draws(rng, L * (k - 1), N)
        for i in range(L):
            axis = axes[i] + 1
            fixed = coords[i * (k - 1):(i + 1) * (k - 1)]
            others = [np.tile(blocks[c], (N, 1)) for c in fixed]
            rows = np.hstack(others[:axis - 1] + [blocks] + others[axis - 1:])
            outs = apply_ca_batch(rule, rows)
            values, counts = np.unique(outs @ q ** np.arange(b),
                                       return_counts=True)
            if (counts > 1).any():
                return LatinCheck(False, axis, tuple(c + 1 for c in fixed),
                                  int(values[counts > 1][0]) + 1), lo + i
    return LatinCheck(True), n_lines


def _one_broken_cell_rule():
    """x1 + g(x2, x3) + x4 over GF(256) with g the field sum except at one
    cell: only lines along axis 2 with x3 = 7 and along axis 3 with
    x2 = 5 repeat a value, one draw in 512."""
    fld = GF(256)
    g = [fld.add(a, c) for c in range(256) for a in range(256)]
    g[5 + 256 * 7] ^= 1
    return GeneralBipermutiveRule(fld, 4, tuple(g))


def test_check_random_lines_matches_one_line_at_a_time():
    flat = LinearRule(F2, 2, 3, (0, 0, 0))
    rare = _one_broken_cell_rule()
    positions = []
    for seed in range(20):
        for rule, n, b, k in ((XOR5, 200, 2, 3), (flat, 200, 2, 3),
                              (rare, 1000, 1, 4)):
            want, pos = _random_lines_one_at_a_time(rule, n, seed, b, k)
            assert check_random_lines(rule, n, seed, b, k) == want
        positions.append(pos)
    # batches hold 65536 // 256 lines: some seeds fail past the first one,
    # and some pass every line
    assert any(256 <= p < 1000 for p in positions)
    assert 1000 in positions


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_check_random_lines_mixed_axes_report_the_failing_axis(window):
    # b = 1: window j is the coefficient of x_{j+1}, so only lines along
    # axis j+1 repeat, and every batch mixes them with passing lines
    coeffs = [2, 1, 1, 2]
    coeffs[window - 1] = 0
    rule = LinearRule(F3, 1, 6, tuple(coeffs))
    assert [d == 0 for d in window_dets(rule)] == [
        j == window for j in range(1, 5)]
    for seed in range(5):
        res = check_random_lines(rule, n_lines=50, seed=seed)
        assert not res and res.axis == window + 1
        assert res == _random_lines_one_at_a_time(rule, 50, seed, 1, 6)[0]
        line = [entry(rule, (*res.fixed[:window], i, *res.fixed[window:]))
                for i in range(1, 4)]
        assert res.value == min(v for v in line if line.count(v) > 1)


def test_check_random_lines_refuses_a_line_over_its_byte_budget():
    # one line of 2^33 rows x 99 cells would need 792 GiB of inputs
    with pytest.raises(BudgetExceededError):
        check_random_lines(LinearRule(F2, 33, 3, (1,) * 65), seed=1)


def test_check_random_lines_samples_lines_past_the_entry_budget():
    # one line of 2^16 rows x 272 cells holds more than 2^24 cells
    assert 2**16 * 16 * 17 > lhca.hypercube.DEFAULT_ENTRY_BUDGET
    flat = LinearRule(F2, 16, 17, (0,) * 255)
    assert not check_random_lines(flat, n_lines=1, seed=0)


@pytest.mark.parametrize("field,b,k,itemsize", [(F2, 2, 3, 1),
                                                (GF(257), 1, 4, 2)])
def test_check_random_lines_budget_counts_bytes(monkeypatch, field, b, k,
                                                 itemsize):
    rule = LinearRule(field, b, k, (0,) * (b * k - b - 1))
    line_bytes = field.q**b * b * k * itemsize
    monkeypatch.setattr(lhca.hypercube, "SAMPLED_LINE_BYTES", line_bytes)
    check_random_lines(rule, n_lines=1, seed=0)
    monkeypatch.setattr(lhca.hypercube, "SAMPLED_LINE_BYTES", line_bytes - 1)
    with pytest.raises(BudgetExceededError):
        check_random_lines(rule, n_lines=1, seed=0)


def test_check_random_lines_rejects_a_negative_sample():
    flat = LinearRule(F2, 2, 3, (0, 0, 0))
    with pytest.raises(ValueError):
        check_random_lines(flat, n_lines=-5)
    assert check_random_lines(flat, n_lines=0)


def test_sampled_lines_leave_numpy_random_unimported():
    # importing numpy.random adds about 5 MB to the peak RSS of lhca
    code = ("import sys, lhca\n"
            "flat = lhca.LinearRule(lhca.GF(2), 2, 3, (0, 0, 0))\n"
            "assert not lhca.check_random_lines(flat, n_lines=100)\n"
            "assert 'numpy.random' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": str(Path(lhca.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_is_latin_same_cold_and_warm(monkeypatch):
    f9 = GF(9, poly=17)
    rules = [XOR5, LinearRule(F2, 2, 3, (0, 0, 0)),
             LinearRule(f9, 1, 4, (2, 5)), LinearRule(f9, 1, 4, (0, 1)),
             GeneralBipermutiveRule(F3, 3, (1, 0, 2)),
             LinearRule(F3, 2, 3, (1, 2, 0))]
    readings = [(r, None) for r in rules] + [(XOR5, 5), (rules[4], 3)]
    monkeypatch.setattr(lhca.hypercube, "_input_cache", OrderedDict())
    monkeypatch.setattr(lhca.hypercube, "_input_cache_bytes", 0)
    cold = [is_latin(r, k=k) for r, k in readings]
    assert [is_latin(r, k=k) for r, k in readings] == cold
    assert [is_latin(r, k=k) for r, k in reversed(readings)] == cold[::-1]
    assert [bool(c) for c in cold] == [True, False, True, False, True, True,
                                       False, True]


def test_cached_inputs_are_read_only():
    is_latin(XOR5)
    assert lhca.hypercube._input_cache
    for inputs in lhca.hypercube._input_cache.values():
        assert not inputs.flags.writeable
        with pytest.raises(ValueError):
            inputs[0, 0] = 1


def test_input_cache_stays_under_its_cap():
    # one axis of the order-2, 19-dimensional cube takes 2^19 inputs of
    # 19 cells, more than the cap; the rule's first window is singular, so
    # the sweep passes axis 1 whole and fails on the first line of axis 2
    cap = lhca.hypercube._INPUT_CACHE_BYTES
    assert 2**19 * 19 > cap
    res = is_latin(LinearRule(F2, 1, 19, (0,) + (1,) * 16))
    assert not res and res.axis == 2 and res.fixed == (1,) * 18
    cache = lhca.hypercube._input_cache
    size = sum(a.nbytes for a in cache.values())
    assert 0 < size <= cap
    assert lhca.hypercube._input_cache_bytes == size


def test_input_cache_counts_a_key_built_twice_once(monkeypatch):
    # while one caller builds a key, another builds and inserts the same
    # key; the first then finds it cached and adds no bytes
    monkeypatch.setattr(lhca.hypercube, "_input_cache", OrderedDict())
    monkeypatch.setattr(lhca.hypercube, "_input_cache_bytes", 0)
    line_inputs = lhca.hypercube._line_inputs

    def racing(*args):
        monkeypatch.setattr(lhca.hypercube, "_line_inputs", line_inputs)
        lhca.hypercube._scan_inputs(F2, 2, 3, 0, 4)
        return line_inputs(*args)

    monkeypatch.setattr(lhca.hypercube, "_line_inputs", racing)
    inputs = lhca.hypercube._scan_inputs(F2, 2, 3, 0, 4)
    cache = lhca.hypercube._input_cache
    assert list(cache) == [(2, 2, 3, 0, 4)]
    assert (cache[2, 2, 3, 0, 4] == inputs).all()
    assert lhca.hypercube._input_cache_bytes == inputs.nbytes > 0


def test_input_cache_total_holds_under_threads(monkeypatch):
    # four threads sweep the same shapes in batches of 4 lines through a
    # cache small enough to evict: a lost update would break the total
    monkeypatch.setattr(lhca.hypercube, "_input_cache", OrderedDict())
    monkeypatch.setattr(lhca.hypercube, "_input_cache_bytes", 0)
    monkeypatch.setattr(lhca.hypercube, "_INPUT_CACHE_BYTES", 1 << 12)
    batch_rows(monkeypatch, 16)
    rules = [LinearRule(F2, 2, 4, c)
             for c in itertools.product(range(2), repeat=5)]
    want = [is_latin(r) for r in rules]
    got = [None] * 4

    def sweep(i):
        got[i] = [is_latin(r) for r in rules]

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4
    cache = lhca.hypercube._input_cache
    size = sum(a.nbytes for a in cache.values())
    assert lhca.hypercube._input_cache_bytes == size <= 1 << 12


# the benchmark's nine sweep points, each with Latin rules and rules that
# fail on every inner axis, are read rule by rule; the other groups, one
# reading of each outcome: the cli's swept check shape that is not a sweep
# point, general rules, and rules read under another b or k
SWEEP_POINTS = ((2, 1, 10), (2, 2, 5), (3, 2, 4), (2, 3, 4), (4, 1, 6),
                (8, 1, 4), (5, 1, 5), (9, 1, 4), (27, 1, 3))
SCAN_GROUPS = [*SWEEP_POINTS, (2, 2, 6), "general", "re-read"]


def _every_rule(q, b, k):
    return [LinearRule(GF(q), b, k, c)
            for c in itertools.product(range(q), repeat=b * (k - 1) - 1)]


@functools.cache
def scan_readings(group):
    """(rule, b, k, the per-axis scan's LatinCheck) for each reading of a
    group: a (q, b, k) point, "general" (every general rule of
    diameter 2 to 4 over GF(2), 2 and 3 over GF(3) and GF(4), each a
    square) or "re-read" (linear and general rules under another b or k)."""
    if group == "general":
        readings = [(GeneralBipermutiveRule(GF(q), d, g), None, None)
                    for q, d in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (4, 2), (4, 3))
                    for g in itertools.product(range(q), repeat=q**(d - 2))]
    elif group == "re-read":
        general = [GeneralBipermutiveRule(F2, 5, g)
                   for g in itertools.product(range(2), repeat=8)]
        readings = ([(r, b, None) for r in _every_rule(2, 2, 4)
                     for b in (1, 3, 6)]
                    + [(r, None, k) for r in _every_rule(3, 1, 5)
                       for k in (3, 2)]
                    + [(r, b, None) for r in general for b in (1, 2)])
    else:
        readings = [(r, None, None) for r in _every_rule(*group)]
    return [(r, b, k, is_latin_by_axes(r, b, k)) for r, b, k in readings]


def few_readings(group):
    """One reading of each outcome of a group (a pass, or a failure on one
    axis), drawn by a seeded shuffle."""
    readings = scan_readings(group)[:]
    random.Random(str(group)).shuffle(readings)
    return list({want.axis: (r, b, k, want)
                 for r, b, k, want in reversed(readings)}.values())


def readings_of(group):
    """Every reading of a sweep point, and one of each outcome of any
    other group."""
    return (scan_readings(group) if group in SWEEP_POINTS
            else few_readings(group))


def lines_checked(rule, b, k, result):
    """Lines in is_latin's scan order up to and including the first that
    fails, and all k N^(k-1) when none does."""
    b, k = block_structure(rule, b, k)
    N = rule.field.q**b
    if result:
        return k * N ** (k - 1)
    rank = sum((c - 1) * N**i for i, c in enumerate(result.fixed[::-1]))
    return (result.axis - 1) * N ** (k - 1) + rank + 1


def batch_rows(monkeypatch, rows):
    """Patch the batch size to ``rows``."""
    monkeypatch.setattr(lhca.hypercube, "_BATCH_ROWS", rows)


def small_batch_readings(rows):
    """One reading of each outcome of every group, but those that would
    take more than 2^10 map calls in batches of ``rows`` rows."""
    for group in SCAN_GROUPS:
        for rule, b, k, want in few_readings(group):
            N = rule.field.q ** block_structure(rule, b, k)[0]
            if lines_checked(rule, b, k, want) <= max(1, rows // N) << 10:
                yield rule, b, k, want


@pytest.mark.parametrize("group", SCAN_GROUPS, ids=str)
def test_is_latin_equals_the_per_axis_scan(group):
    readings = readings_of(group)
    # a bipermutive square is always Latin
    assert {bool(want) for *_, want in readings} == (
        {True} if group == "general" else {True, False})
    for rule, b, k, want in readings:
        assert is_latin(rule, b=b, k=k) == want, (rule, b, k)


@pytest.mark.parametrize("rows", [1, 16, 40])
def test_is_latin_equals_the_per_axis_scan_in_small_batches(monkeypatch,
                                                            rows):
    # batches of 1 to 20 lines split axes, and those past the first span
    # the end of one axis and the start of the next
    batch_rows(monkeypatch, rows)
    for rule, b, k, want in small_batch_readings(rows):
        assert is_latin(rule, b=b, k=k) == want, (rule, b, k, rows)


@pytest.mark.parametrize("rows", [65536, 40])
def test_is_latin_evaluates_under_twice_the_lines_it_checks(monkeypatch,
                                                            rows):
    # the batches double, so they pass the lines checked by at most twice
    # plus one batch, and bench/test_smoke.py's useful row ratio stays <= 1
    readings = ([r for group in SCAN_GROUPS for r in readings_of(group)]
                if rows == 65536 else list(small_batch_readings(rows)))
    evaluated = []

    def counted(rule, inputs):
        evaluated.append(len(inputs))
        return apply_ca_batch(rule, inputs)
    monkeypatch.setattr(lhca.hypercube, "apply_ca_batch", counted)
    batch_rows(monkeypatch, rows)
    for rule, b, k, want in readings:
        N = rule.field.q ** block_structure(rule, b, k)[0]
        checked = lines_checked(rule, b, k, want) * N
        evaluated.clear()
        assert is_latin(rule, b=b, k=k) == want
        batch = max(1, rows // N) * N
        assert checked <= sum(evaluated) <= 2 * checked + batch, (rule, b, k)


def test_dump_structure_and_goldens():
    data = dump(XOR5)
    assert data["q"] == 2 and data["b"] == 2 and data["k"] == 3
    assert data["coeffs"] == [0, 1, 0]
    assert len(data["layers"]) == 4
    for z in range(4):
        assert data["layers"][z] == GOLDEN_CUBE[z]
    assert data["layers"][0][0] == [1, 2, 3, 4]
    assert data["layers"][3][3] == [1, 2, 3, 4]


def test_dump_square_has_one_layer():
    r = LinearRule(F3, 2, 2, (1,))
    data = dump(r)
    assert len(data["layers"]) == 1
    assert len(data["layers"][0]) == 9


def test_dump_general_rule_records_g_table():
    add = GeneralBipermutiveRule(F3, 2, (0,))
    data = dump(add)
    assert data["g_table"] == [0]
    assert data["d"] == 2
    assert data["layers"][0][0] == [1, 2, 3]


def test_dump_text_layout():
    text = dump_text(XOR5)
    lines = text.splitlines()
    assert lines[0] == "z=1"
    assert lines[1] == "1 2 3 4"
    assert "z=4" in lines
    square = dump_text(LinearRule(F2, 2, 2, (0,)))
    assert square.splitlines()[0].split() == ["1", "2", "3", "4"]


# N from 2 to 256 (widths 1 to 3), k = 2 (one layer, no header), k = 3
# (z=), k = 4 and 5 (layer a,b), non-Latin entries, a general rule's
# d/g_table header, a non-default modulus, and (2,1,17), whose 32 768
# layers span two evaluated and rendered blocks
DUMPED_RULES = [
    LinearRule(F2, 1, 2, ()),
    LinearRule(GF(4), 2, 2, (3,)),
    LinearRule(GF(256), 1, 2, ()),
    XOR5,
    LinearRule(F2, 2, 3, (0, 0, 0)),
    LinearRule(GF(9), 1, 3, (4,)),
    LinearRule(GF(27), 1, 3, (5,)),
    LinearRule(F3, 2, 4, (1, 2, 0, 1, 2)),
    LinearRule(GF(16), 1, 4, (7, 11)),
    LinearRule(GF(8, poly=13), 1, 4, (3, 5)),
    LinearRule(GF(8), 1, 5, (1, 2, 3)),
    LinearRule(F2, 2, 5, (1, 0, 1, 1, 0, 1, 1)),
    LinearRule(F2, 1, 17, (1,) * 15),
    GeneralBipermutiveRule(F3, 2, (0,)),
    GeneralBipermutiveRule(F3, 4, (2, 0, 1, 1, 2, 0, 0, 2, 1)),
]


def assert_same_text(got: str, want: str) -> None:
    # pytest's line diff of two texts of 10^5 lines takes minutes; name
    # the first differing character instead
    if got != want:
        at = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\1"))
                  if a != b)
        lo = max(0, at - 40)
        pytest.fail(f"texts differ at character {at}: "
                    f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


@pytest.mark.parametrize("rule", DUMPED_RULES, ids=str)
def test_dumps_are_byte_identical_to_the_encoder_and_the_row_loop(rule):
    data = dump(rule)
    text = dump_json(rule)
    assert_same_text(text, json.dumps(data, indent=2) + "\n")
    assert ('"poly": ' in text) == (rule.field.poly != GF(rule.field.q).poly)
    assert_same_text(dump_text(rule), dump_text_by_rows(data))


@pytest.mark.parametrize("entries", [1, 4, 12, 17, 40])
def test_dumps_across_render_blocks(monkeypatch, entries):
    # blocks of 1 to 10 layers of 4 or 16 entries, some left short at the
    # end, each evaluated by one batch and rendered by one join
    monkeypatch.setattr(lhca.hypercube, "_BATCH_ROWS", entries)
    for rule in (LinearRule(F2, 1, 5, (1, 1, 1)), XOR5,
                 LinearRule(F2, 2, 2, (1,))):
        data = dump(rule)
        assert_same_text(dump_json(rule), json.dumps(data, indent=2) + "\n")
        assert_same_text(dump_text(rule), dump_text_by_rows(data))


def test_dump_budget():
    with pytest.raises(BudgetExceededError):
        dump(XOR5, budget=10)


def test_count_latin_rules_small():
    assert count_latin_rules(F2, 2, 3) == 4
    assert count_latin_rules(F2, 1, 2) == 1
    assert count_latin_rules(F2, 2, 2) == 2
    assert count_latin_rules(F3, 2, 3) == 18


def test_count_latin_rules_budget():
    with pytest.raises(BudgetExceededError):
        count_latin_rules(F2, 2, 3, budget=100)
    # 2^19998 rules: the message gives the power, not its 6021 digits
    with pytest.raises(BudgetExceededError,
                       match=r"^2\^19998 rules x 2\^20000 entries"):
        count_latin_rules(F2, 1, 20000)


def test_count_latin_rules_refuses_a_huge_space_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"^3\^99999998 rules x 3\^100000000 entries"):
        count_latin_rules(F3, 1, 10**8)
    assert time.perf_counter() - start < 2


def test_sweep_never_imports_the_window_criterion():
    # the line sweep and the window criterion check each other, so the two
    # routes share only rules and field
    for module, forbidden in (("hypercube", {"toeplitz", "debruijn"}),
                              ("toeplitz", {"hypercube", "debruijn"})):
        path = Path(lhca.hypercube.__file__).with_name(f"{module}.py")
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{a.name}"
                                for a in node.names)
        for name in imported:
            assert not forbidden & set(name.split(".")), (module, name)


def test_only_the_field_reads_its_tables():
    # the field owns the choice between lookup tables and the log domain
    private = {"add_table", "mul_table", "neg_table", "inv_table",
               "TABLE_CAP"}
    for path in Path(lhca.hypercube.__file__).parent.glob("*.py"):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            assert not private & names, (path.name, node.lineno)


def test_only_the_field_decides_what_an_element_is():
    # GF._check is the one test of an element; every other module reads
    # elements through GF._as_elements or a function that calls it
    for path in Path(lhca.hypercube.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, a, None) for a in ("attr", "id", "name")}
            assert "_check_cells" not in names, (path.name, node.lineno)
            assert path.name == "field.py" or "_check" not in names, (
                path.name, node.lineno)


def test_no_source_line_is_longer_than_79_characters():
    for path in Path(lhca.hypercube.__file__).parent.glob("*.py"):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert len(line) <= 79, (path.name, number)


def test_no_cross_check_is_an_assert_statement():
    # python -O strips assert statements; a cross-check raises CrossCheckError
    for path in Path(lhca.hypercube.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)



def test_no_private_name_is_dead():
    # a private module-level function, class or assignment, or a private
    # method, must be read somewhere in the package outside its definition
    trees = [ast.parse(path.read_text()) for path in
             Path(lhca.hypercube.__file__).parent.glob("*.py")]
    defined = []
    for node in itertools.chain.from_iterable(tree.body for tree in trees):
        if isinstance(node, ast.Assign):
            defined += [(t.id, node) for t in node.targets
                        if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            defined.append((getattr(node.target, "id", None), node))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defined += [(f.name, f) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
    for name, definition in defined:
        if not name or not name.startswith("_") or name.startswith("__"):
            continue
        inside = set(map(id, ast.walk(definition)))
        assert any(id(node) not in inside
                   and name in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None),
                                getattr(node, "value", None))
                   for tree in trees for node in ast.walk(tree)), (
            f"{name} is never read")
