"""Rule construction, CA global map, batch evaluation, and bipermutivity."""

import itertools
import json
import random
import re
import time

import numpy as np
import pytest

import lhca.field
import lhca.rules
from helpers import (MODULUS_ORDERS, ca_by_windows, every_modulus, mat_vec,
                     restriction_by_configurations)
from lhca.errors import BudgetExceededError
from lhca.field import GF
from lhca.hypercube import dump, dump_json
from lhca.rules import (
    GeneralBipermutiveRule,
    LinearRule,
    apply_ca,
    apply_ca_batch,
    apply_rule,
    count_bipermutive_rules,
    enumerate_bipermutive_rules,
    enumerate_linear_rules,
    rank_cells,
    restriction_is_permutation,
    rule_from_json,
    unrank_cells,
)
from lhca.toeplitz import (determinant, solve_linear_system,
                           solve_middle_block, window_dets)

F2 = GF(2)
F3 = GF(3)
F4 = GF(4)

# f(x1..x5) = x1 + x3 + x5 over GF(2): b=2, k=3
XOR5 = LinearRule(F2, 2, 3, (0, 1, 0))


def test_rank_leftmost_cell_is_least_significant():
    assert rank_cells((0, 0), 2) == 0
    assert rank_cells((1, 0), 2) == 1
    assert rank_cells((0, 1), 2) == 2
    assert rank_cells((1, 1), 2) == 3
    assert rank_cells((2, 1), 3) == 5
    # each cell reads as an exact int: a uint8 product would wrap at 256
    assert rank_cells(np.ones(9, np.uint8), 2) == 511
    assert rank_cells((True, np.int64(2)), 3) == 7
    for bad in ((1, 0.5), (2.0,), ("1",)):
        with pytest.raises(ValueError, match="is not an integer"):
            rank_cells(bad, 3)


def test_rank_unrank_round_trip():
    for q, n in [(2, 5), (3, 4), (4, 3)]:
        for r in range(q**n):
            assert rank_cells(unrank_cells(r, q, n), q) == r


def test_linear_rule_shape():
    assert XOR5.d == 5
    assert XOR5.full_coeffs == (1, 0, 1, 0, 1)
    r = LinearRule(F2, 2, 5, (0, 1, 0, 1, 1, 0, 1))
    assert r.d == 9
    assert r.full_coeffs == (1, 0, 1, 0, 1, 1, 0, 1, 1)


def test_linear_rule_validation():
    with pytest.raises(ValueError):
        LinearRule(F2, 2, 3, (0, 1))        # wrong length
    with pytest.raises(ValueError):
        LinearRule(F2, 2, 3, (0, 1, 2))     # 2 not in GF(2)
    with pytest.raises(ValueError):
        LinearRule(F2, 0, 3, ())
    with pytest.raises(ValueError):
        LinearRule(F2, 2, 1, ())


def test_apply_rule_linear():
    assert apply_rule(XOR5, (1, 0, 1, 0, 1)) == 1
    assert apply_rule(XOR5, (1, 1, 1, 1, 1)) == 1
    assert apply_rule(XOR5, (1, 1, 0, 1, 0)) == 1
    assert apply_rule(XOR5, (0, 1, 0, 1, 0)) == 0
    # 1 + 2*1 + 1 = 1 over GF(3)
    r = LinearRule(F3, 1, 3, (2,))
    assert apply_rule(r, (1, 1, 1)) == 1
    assert apply_rule(r, (1, 2, 0)) == 2


def test_apply_rule_rejects_bad_window():
    with pytest.raises(ValueError):
        apply_rule(XOR5, (1, 0, 1))
    with pytest.raises(ValueError):
        apply_rule(XOR5, (1, 0, 1, 0, 2))


def test_apply_ca_lengths_and_values():
    assert apply_ca(XOR5, (0, 0, 0, 0, 0, 0)) == (0, 0)
    assert apply_ca(XOR5, (1, 0, 0, 0, 1, 1)) == (0, 1)
    assert apply_ca(XOR5, (1, 1, 1, 1, 1, 1, 1)) == (1, 1, 1)
    with pytest.raises(ValueError):
        apply_ca(XOR5, (1, 0, 1, 0))


def test_general_rule_matches_linear_counterpart():
    # g(x2,x3,x4) = x3 reproduces XOR5
    g = tuple((i >> 1) & 1 for i in range(8))
    gen = GeneralBipermutiveRule(F2, 5, g)
    for cells in itertools.product(range(2), repeat=7):
        assert apply_ca(gen, cells) == apply_ca(XOR5, cells)


def test_general_rule_validation():
    with pytest.raises(ValueError):
        GeneralBipermutiveRule(F2, 5, (0, 1))       # needs 8 entries
    with pytest.raises(ValueError):
        GeneralBipermutiveRule(F2, 3, (0, 2))       # 2 not in GF(2)
    with pytest.raises(ValueError):
        GeneralBipermutiveRule(F2, 1, ())


def test_a_map_that_ignores_the_borders_is_not_a_permutation(monkeypatch):
    # every rule that can be built is bipermutive, so stand in a global map
    # that reads only cell `at` of each window: f(x1,x2,x3) = x2 ignores
    # both borders, x1 and x3 each keep one side a permutation
    rule = LinearRule(F2, 1, 3, (1,))
    for at, verdicts in ((1, (False, False)), (0, (True, False)),
                         (2, (False, True))):
        def project(rule, inputs):
            inputs = np.asarray(inputs)
            return inputs[:, at:inputs.shape[1] - rule.d + 1 + at]

        def scalar(rule, cells):
            return tuple(project(rule, [cells])[0].tolist())

        monkeypatch.setattr(lhca.rules, "apply_ca_batch", project)
        assert scalar(rule, (0, 1, 0)) == (at == 1,)
        for side, verdict in zip(("left", "right"), verdicts):
            for fixed in itertools.product(range(2), repeat=2):
                assert restriction_is_permutation(
                    rule, side, fixed) is verdict
                assert restriction_by_configurations(
                    rule, side, fixed, global_map=scalar) is verdict


def test_linear_rules_are_bipermutive():
    # single-cell restrictions are permutations on both sides, all fixings
    for coeffs in itertools.product(range(2), repeat=3):
        rule = LinearRule(F2, 2, 3, coeffs)
        for fixed in itertools.product(range(2), repeat=4):
            assert restriction_is_permutation(rule, "left", fixed, b=1)
            assert restriction_is_permutation(rule, "right", fixed, b=1)


def test_block_restrictions_of_linear_rules_are_permutations():
    rule = LinearRule(F3, 2, 3, (1, 2, 0))
    for fixed in itertools.product(range(3), repeat=4):
        assert restriction_is_permutation(rule, "left", fixed)
        assert restriction_is_permutation(rule, "right", fixed)


def test_restriction_validation():
    with pytest.raises(ValueError):
        restriction_is_permutation(XOR5, "up", (0, 0, 0, 0), b=1)
    with pytest.raises(ValueError):
        restriction_is_permutation(XOR5, "left", (0, 0, 0), b=1)
    for b in (0, -1):
        with pytest.raises(ValueError, match=f"^block size must be >= 1, "
                                             f"got {b}$"):
            restriction_is_permutation(XOR5, "left", (0, 0, 0, 0), b=b)


def _outcome(restriction, *args):
    """The verdict, or the type and message of the error raised."""
    try:
        return restriction(*args)
    except ValueError as exc:
        return ValueError, str(exc)


# every modulus of the central orders, by its encoding
@pytest.mark.parametrize("q, poly", [
    pytest.param(q, f.poly, id=f"{q}-poly{f.poly}")
    for q in MODULUS_ORDERS for f in every_modulus(q)])
def test_maps_and_restrictions_match_the_oracles(q, poly):
    fld, rng = GF(q, poly=poly), random.Random(poly)
    for rule in (LinearRule(fld, 2, 3, [rng.randrange(q) for _ in range(3)]),
                 GeneralBipermutiveRule(fld, 3, [rng.randrange(q)
                                                 for _ in range(q)])):
        d = rule.d
        rows = [[rng.randrange(q) for _ in range(d + 20)] for _ in range(8)]
        want = [ca_by_windows(rule, row) for row in rows]
        assert [apply_ca(rule, row) for row in rows] == want
        got = apply_ca_batch(rule, np.array(rows))
        assert list(map(tuple, got.tolist())) == want
        fixed = [rng.randrange(q) for _ in range(d - 1)]
        good = [(side, fixed, b) for side in ("left", "right")
                for b in (1, None)]
        # each check in its order: side, length, block size, cells
        bad = [("up", fixed, 0), ("left", fixed[1:], 0), ("right", fixed, 0)]
        bad += [(side, cells, None) for x in (q, -1, 2.0)
                for side, cells in (("left", [x] + fixed[1:]),
                                    ("right", fixed[:-1] + [x]))]
        for i, args in enumerate(good + bad):
            verdict = _outcome(restriction_is_permutation, rule, *args)
            assert verdict == _outcome(restriction_by_configurations,
                                       rule, *args)
            assert (verdict is True) == (i < len(good))


def _random_rules(q: int) -> list:
    """A linear and a general bipermutive rule over GF(q) with seeded
    random coefficients and tables."""
    fld, rng = GF(q), random.Random(q)
    coeffs = tuple(rng.randrange(q) for _ in range(3))
    return [LinearRule(fld, 2, 3, coeffs),
            GeneralBipermutiveRule(fld, 3, tuple(rng.randrange(q)
                                                 for _ in range(q)))]


# q = 16 is the last field whose table index acc*q + term fits in 8 bits
# and 256 the largest field with tables; 27 and 243 are odd prime powers;
# 257, 729 and 1024 compute in the log domain, on uint16 elements; the odd
# primes 3, 5, 251, 257 and 65521 sum their terms as machine integers, on
# 8-, 16-, 32- and 64-bit accumulators, and d = 1000 on GF(3) needs 16
@pytest.mark.parametrize("rule", [
    XOR5,
    LinearRule(F3, 2, 3, (1, 2, 0)),
    LinearRule(F4, 2, 2, (3,)),
    GeneralBipermutiveRule(F3, 3, (0, 2, 1)),
    *(rule for q in (16, 27, 243, 256, 257, 729, 1024, 5, 251, 65521)
      for rule in _random_rules(q)),
    LinearRule(F3, 1, 1000, tuple(random.Random(3).randrange(3)
                                  for _ in range(998))),
])
def test_batch_matches_scalar(rule):
    rng = random.Random(2024)
    q, d = rule.field.q, rule.d
    n = d + 3
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(64)]
    got = apply_ca_batch(rule, np.array(rows))
    for row, out in zip(rows, got.tolist()):
        # the window oracle shares no code with either map
        assert tuple(out) == apply_ca(rule, row) == ca_by_windows(rule, row)
    empty = apply_ca_batch(rule, np.zeros((0, n), dtype=int))
    assert empty.shape == (0, n - d + 1) and empty.dtype == rule.field.dtype


@pytest.mark.parametrize("rule", [
    GeneralBipermutiveRule(F2, 5, (0, 1, 1, 0, 1, 0, 0, 1)),
    GeneralBipermutiveRule(GF(16), 4, tuple(
        random.Random(16).randrange(16) for _ in range(256))),
    LinearRule(GF(27), 2, 4, tuple(
        random.Random(27).randrange(27) for _ in range(5))),
], ids=["2-d5", "16-d4", "27-linear"])
def test_a_long_configuration_matches_the_window_oracle(rule):
    rng = random.Random(rule.d)
    cells = [rng.randrange(rule.field.q) for _ in range(10_000)]
    want = ca_by_windows(rule, cells)
    assert apply_ca(rule, cells) == want
    assert apply_ca_batch(rule, np.array([cells])).tolist() == [list(want)]


def test_linear_rules_map_without_the_batch(monkeypatch):
    # apply_ca sums a linear rule's windows with GF.dot alone
    def refuse(*args):
        raise AssertionError("apply_ca_batch called")

    monkeypatch.setattr(lhca.rules, "apply_ca_batch", refuse)
    assert apply_ca(XOR5, (1, 0, 0, 0, 1, 1)) == (0, 1)
    with pytest.raises(AssertionError):
        apply_ca(GeneralBipermutiveRule(F2, 3, (0, 1)), (0, 1, 1))


def test_restriction_refuses_a_batch_past_2_24_cells_at_once():
    rule = LinearRule(F2, 1, 3, (1,))
    # 2^14 rows of 16 cells are mapped, 2^20 rows of 22 are too many
    assert restriction_is_permutation(rule, "right", (0, 1), b=14)
    start = time.perf_counter()
    for b in (20, 40, 10**8):
        with pytest.raises(BudgetExceededError, match=(
                rf"^2\^{b} rows of {b + 2} cells exceed 2\^24$")):
            restriction_is_permutation(rule, "left", (0, 1), b=b)
    assert time.perf_counter() - start < 2


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_ca_batch(XOR5, np.zeros(6, dtype=int))
    for out_of_field in (np.full((2, 6), 2), np.full((2, 6), -1),
                         np.full((2, 6), 2, dtype=np.uint8)):
        with pytest.raises(ValueError):
            apply_ca_batch(XOR5, out_of_field)
    with pytest.raises(ValueError):
        apply_ca_batch(XOR5, np.zeros((2, 3), dtype=int))
    # non-integer inputs are refused, not truncated or cast
    rule = LinearRule(F3, 1, 3, (1,))
    for bad in (np.array([[0.5, 1.7, 2.9]]), np.zeros((2, 3)),
                np.array([["0", "1", "2"]]), np.ones((2, 3), dtype=bool),
                np.zeros((0, 3))):
        with pytest.raises(ValueError):
            apply_ca_batch(rule, bad)


def test_linear_global_map_is_additive():
    rng = random.Random(5)
    for rule in (XOR5, LinearRule(F3, 2, 3, (1, 2, 0)),
                 LinearRule(F4, 2, 2, (3,))):
        fld, q = rule.field, rule.field.q
        n = rule.d + 2
        for _ in range(50):
            x = [rng.randrange(q) for _ in range(n)]
            y = [rng.randrange(q) for _ in range(n)]
            xy = [fld.add(a, c) for a, c in zip(x, y)]
            summed = tuple(fld.add(a, c)
                           for a, c in zip(apply_ca(rule, x), apply_ca(rule, y)))
            assert apply_ca(rule, xy) == summed


def test_apply_ca_coordinates_match_apply_rule():
    rng = random.Random(6)
    for rule in (XOR5, GeneralBipermutiveRule(F3, 3, (0, 2, 1))):
        q, d = rule.field.q, rule.d
        for _ in range(50):
            n = d + rng.randrange(4)
            x = tuple(rng.randrange(q) for _ in range(n))
            out = apply_ca(rule, x)
            for i, v in enumerate(out):
                assert v == apply_rule(rule, x[i:i + d])


# one field of each arithmetic kind: odd primes, characteristic 2 and odd
# extensions, with and without tables, at every accumulator width, and
# every modulus of the central orders
@pytest.mark.parametrize("q, poly", [
    *(pytest.param(q, None, id=str(q)) for q in (
        3, 251, 65521, 2, 4, 256, 1024, 65536, 9, 27, 243, 729)),
    *(pytest.param(q, f.poly, id=f"{q}-poly{f.poly}")
      for q in MODULUS_ORDERS for f in every_modulus(q)),
])
def test_scalar_map_is_the_per_term_fold(q, poly):
    # the definition: acc = add(acc, mul(a, x)) over each window, term by
    # term, on d >= 600 with zero coefficients and runs of zero cells
    fld, rng = GF(q, poly=poly), random.Random(q)

    def element():
        return rng.choice((0, 1, q - 1, rng.randrange(q)))

    rule = LinearRule(fld, 3, 201, [element() for _ in range(599)])
    d, n = rule.d, rule.d + 120
    # more windows than GF.dot reduces in one chunk
    assert n - d + 1 > lhca.field._CHUNK_CELLS // d
    cells = [element() for _ in range(n)]
    cells[:3] = cells[n // 2:n // 2 + 3] = [0] * 3
    band = [[0] * i + list(rule.full_coeffs) + [0] * (n - d - i)
            for i in range(n - d + 1)]
    want = mat_vec(fld, band, cells)
    assert apply_ca(rule, cells) == tuple(want)
    for i, v in enumerate(want):
        assert apply_rule(rule, cells[i:i + d]) == v
    assert apply_ca(rule, [0] * n) == (0,) * (n - d + 1)
    # a value that is not an element raises on every route it enters by,
    # wherever it sits: an int out of range, or any float
    zero = np.zeros(2, fld.dtype)
    blocks = [cells[j:j + 3] for j in range(0, 600, 3)]
    table = (cells * (q // n + 1))[:q]
    routes = (
        (cells, lambda x: apply_ca(rule, x)),
        (cells[:d], lambda x: apply_rule(rule, x)),
        (list(rule.coeffs), lambda x: LinearRule(fld, 3, 201, x)),
        (table, lambda x: GeneralBipermutiveRule(fld, 3, x)),
        (cells[:d], lambda x: fld.combine_array(x, [zero] * len(x))),
        (cells[:9], lambda x: determinant(fld, [x[:3], x[3:6], x[6:]])),
        (cells[:6], lambda x: solve_linear_system(fld, [x[:2], x[2:4]],
                                                  x[4:])),
        (cells[:3], lambda y: solve_middle_block(rule, 1, blocks, y)),
        (cells[:d - 1], lambda x: restriction_is_permutation(rule, "left",
                                                             x, 1)),
    )
    for base, evaluate in routes:
        m = len(base)
        for at, bad in itertools.product((0, m // 2, m - 1),
                                         (q, -1, 2.0, 2.5)):
            x = base[:at] + [bad] + base[at + 1:]
            with pytest.raises(ValueError, match=(
                    f"^{re.escape(str(bad))} is not an element")):
                evaluate(x)


def test_count_bipermutive_rules_small():
    assert count_bipermutive_rules(F2, 1) == 2
    assert count_bipermutive_rules(F2, 2) == 4
    assert count_bipermutive_rules(F2, 3) == 16
    assert count_bipermutive_rules(F3, 2) == 27
    assert count_bipermutive_rules(GF(4), 2) == 256


def test_count_bipermutive_rules_budget():
    # 2^(2^20) needs one bit more than the 2^20-bit cap, 2^(2^19) fits
    with pytest.raises(BudgetExceededError):
        count_bipermutive_rules(F2, 21)
    assert count_bipermutive_rules(F2, 20) == 2 ** (2**19)


def test_count_bipermutive_rules_is_exact_at_its_bit_budget():
    # 3^(3^12) has 842 315 bits, within 2^20, though 3^12 * bits(3) is not
    n = count_bipermutive_rules(F3, 13)
    assert n.bit_length() == 842_315 and n == 3 ** (3**12)
    with pytest.raises(BudgetExceededError):
        count_bipermutive_rules(F3, 14)


def test_count_bipermutive_rules_refuses_a_huge_exponent_at_once():
    # 3^(10^8 - 1) alone would take longer than the test allows
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        count_bipermutive_rules(F3, 10**8)
    assert time.perf_counter() - start < 2


def test_a_short_table_is_refused_before_its_length_is_built():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"needs 3\^999999998 entries"):
        GeneralBipermutiveRule(F3, 10**9, ())
    assert time.perf_counter() - start < 2


def test_enumerate_linear_rules_lex():
    rules = list(enumerate_linear_rules(F2, 2, 3))
    assert len(rules) == 8
    assert rules[0].coeffs == (0, 0, 0)
    assert rules[-1].coeffs == (1, 1, 1)
    assert [r.coeffs for r in rules] == sorted(r.coeffs for r in rules)
    # degenerate smallest case: single rule with no interior coefficients
    assert [r.coeffs for r in enumerate_linear_rules(F2, 1, 2)] == [()]


def test_enumerate_bipermutive_rules_lex():
    rules = list(enumerate_bipermutive_rules(F2, 2))
    assert [r.g_table for r in rules] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(r.d == 3 for r in rules)
    assert len(list(enumerate_bipermutive_rules(F3, 1))) == 3


def test_rule_json_round_trip():
    r = LinearRule(F4, 2, 3, (1, 2, 3))
    data = r.to_json()
    assert data == {"q": 4, "b": 2, "k": 3, "coeffs": [1, 2, 3]}
    assert rule_from_json(data) == r

    g = GeneralBipermutiveRule(F3, 3, (0, 2, 1))
    assert rule_from_json(g.to_json()) == g

    with pytest.raises(ValueError):
        rule_from_json({"q": 2, "b": 2, "k": 3})
    # a prime field reads its modulus too: 999 is no monic x + c
    with pytest.raises(ValueError, match="not monic"):
        rule_from_json({"q": 5, "poly": 999, "b": 1, "k": 3, "coeffs": [1]})
    assert rule_from_json({"q": 5, "poly": 7, "b": 1, "k": 3,
                           "coeffs": [1]}).to_json() == {
        "q": 5, "b": 1, "k": 3, "coeffs": [1]}


@pytest.mark.parametrize("convert", [bool, np.int64, np.uint8],
                         ids=lambda convert: convert.__name__)
def test_bool_and_numpy_elements_are_stored_as_ints(convert):
    # each reads as its int, so every writer takes the rule it builds
    linear = LinearRule(F3, 1, 4, [convert(1), convert(0)])
    general = GeneralBipermutiveRule(F3, 3, list(map(convert, (0, 1, 1))))
    for rule, values in ((linear, linear.coeffs), (general, general.g_table)):
        assert set(map(type, values)) == {int}
        assert rule_from_json(json.loads(json.dumps(rule.to_json()))) == rule
        assert json.loads(dump_json(rule)) == dump(rule)


# q and its number of monic irreducible moduli
@pytest.mark.parametrize("q, moduli", [(4, 1), (8, 2), (9, 3), (16, 3),
                                       (25, 10), (27, 8)])
def test_rule_json_keeps_every_modulus(q, moduli):
    rng = random.Random(q)
    fields = list(every_modulus(q))
    assert len(fields) == moduli
    for fld in fields:
        default = fld.poly == GF(q).poly
        for b, k in ((2, 3), (2, 4), (1, 4)):
            n = b * (k - 1) - 1
            r = LinearRule(fld, b, k, [rng.randrange(q) for _ in range(n)])
            data = json.loads(json.dumps(r.to_json()))
            assert ("poly" in data) != default
            back = rule_from_json(data)
            assert back == r
            assert window_dets(back) == window_dets(r)
        g = GeneralBipermutiveRule(fld, 3, [rng.randrange(q) for _ in range(q)])
        assert rule_from_json(json.loads(json.dumps(g.to_json()))) == g
        small = LinearRule(fld, 1, 3, (rng.randrange(q),))
        assert rule_from_json(dump(small)) == small
