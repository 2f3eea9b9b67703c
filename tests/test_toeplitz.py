"""Window extraction, exact determinants, support counts, block solving."""

import functools
import itertools
import random
import re
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (MODULUS_ORDERS, central_points, cofactor_det,
                     every_modulus, mat_vec)
from lhca import toeplitz
from lhca.debruijn import latin_hypercube_count
from lhca.errors import BudgetExceededError, CrossCheckError
from lhca.field import GF
from lhca.hypercube import entry, is_latin, psi, psi_inverse
from lhca.rules import (GeneralBipermutiveRule, LinearRule, apply_ca,
                        enumerate_linear_rules)
from lhca.toeplitz import (
    det_of_window,
    determinant,
    is_latin_by_windows,
    solve_linear_system,
    solve_middle_block,
    support_of_det,
    toeplitz_matrix,
    window_dets,
    windows,
)

F2 = GF(2)
F3 = GF(3)

XOR5 = LinearRule(F2, 2, 3, (0, 1, 0))
# f(x1..x9) = x1 + x3 + x5 + x6 + x8 + x9
LONG9 = LinearRule(F2, 2, 5, (0, 1, 0, 1, 1, 0, 1))


def test_windows_overlap_and_values():
    assert windows(XOR5) == [(0, 1, 0)]
    assert windows(LONG9) == [(0, 1, 0), (0, 1, 1), (1, 0, 1)]
    # consecutive windows share b-1 coefficients
    ws = windows(LONG9)
    for left, right in zip(ws, ws[1:]):
        assert left[-1:] == right[:1]
    assert windows(LinearRule(F2, 1, 5, XOR5.coeffs)) == [(0,), (1,), (0,)]
    assert windows(LinearRule(F2, 1, 4, (1, 1))) == [(1,), (1,)]
    with pytest.raises(ValueError):
        # squares have no middle block
        windows(LinearRule(F2, 4, 2, XOR5.coeffs))
    with pytest.raises(TypeError):
        windows(GeneralBipermutiveRule(F2, 3, (0, 1)))


def test_toeplitz_matrix_layout():
    assert toeplitz_matrix((0, 1, 0)) == [[1, 0], [0, 1]]
    assert toeplitz_matrix((1, 0, 1)) == [[0, 1], [1, 0]]
    assert toeplitz_matrix((0, 1, 1)) == [[1, 1], [0, 1]]
    assert toeplitz_matrix((1, 0, 1, 0, 1)) == [
        [1, 0, 1],
        [0, 1, 0],
        [1, 0, 1],
    ]
    assert toeplitz_matrix((5,)) == [[5]]
    for even in ((), (1, 0), (1, 0, 1, 0)):
        with pytest.raises(ValueError):
            toeplitz_matrix(even)


def test_determinant_known_values():
    assert determinant(F2, [[1, 0], [0, 1]]) == 1
    assert determinant(F2, [[1, 1], [1, 1]]) == 0
    assert determinant(F3, [[1, 2], [2, 1]]) == 0
    assert determinant(F3, [[0, 1], [2, 0]]) == 1
    assert determinant(F3, [[2]]) == 2
    assert det_of_window(F2, (1, 0, 1, 0, 1)) == 0


def test_determinant_row_swap_sign():
    # swapping two rows negates the determinant
    m = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert determinant(F3, m) == F3.neg(1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_determinant_matches_cofactor_oracle(q):
    fld = GF(q)
    rng = random.Random(100 + q)
    for n in range(1, 5):
        for _ in range(40):
            m = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            assert determinant(fld, m) == cofactor_det(fld, m)


def test_determinant_validation():
    with pytest.raises(ValueError):
        determinant(F2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        determinant(F2, [[0, 2], [1, 0]])
    # a window's 2b-1 entries are read as elements, and its length is odd
    for bad, window in ((2, (0, 2, 1)), (0.5, (1, 1, 0.5)), (-1, (-1,))):
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(bad))} is not an element of GF\\(2\\)$")):
            det_of_window(F2, window)
    for even in ((), (1, 0), (1, 0, 1, 0)):
        with pytest.raises(ValueError, match=(
                f"^window length {len(even)} is not odd$")):
            det_of_window(F2, even)


def _support(fld, b):
    """The rows of ``support_of_det`` as tuples."""
    return list(map(tuple, support_of_det(fld, b).tolist()))


def test_support_of_det_b2_q2():
    supp = support_of_det(F2, 2)
    assert supp.dtype == F2.dtype
    assert supp.tolist() == [[0, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize("q,b", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_nonsingular_count_matches_enumeration(q, b):
    # a k = 3 rule has one window, so its Latin count is the support's size
    fld = GF(q)
    count = latin_hypercube_count(fld, b, 3)
    assert count == len(support_of_det(fld, b))
    assert count == (q - 1) * q ** (2 * (b - 1))


@pytest.mark.parametrize("q,b", [(2, 2), (2, 3), (3, 2)])
def test_support_is_balanced_on_both_sides(q, b):
    # fixing either overlap margin of the window leaves the same number
    # of nonsingular completions
    fld = GF(q)
    supp = _support(fld, b)
    expect = (q - 1) * q ** (b - 1)
    heads = Counter(w[:b - 1] for w in supp)
    tails = Counter(w[-(b - 1):] for w in supp)
    assert set(heads) == set(itertools.product(range(q), repeat=b - 1))
    assert set(heads.values()) == {expect}
    assert set(tails.values()) == {expect}


def _scalar_support(fld, b):
    return [w for w in itertools.product(range(fld.q), repeat=2 * b - 1)
            if det_of_window(fld, w) != 0]


def _completions(fld, lower):
    """Nonsingular windows among the q^n completions of a lower part of
    n-1 coefficients, one scalar determinant each."""
    n = len(lower) + 1
    return [lower + rest for rest in itertools.product(range(fld.q), repeat=n)
            if det_of_window(fld, lower + rest) != 0]


def _support_run(supp, lower):
    """The windows of the sorted support headed by ``lower``, checked to
    be one contiguous run."""
    at = [i for i, w in enumerate(supp) if w[:len(lower)] == lower]
    assert at == list(range(at[0], at[0] + len(at)))
    return supp[at[0]:at[0] + len(at)]


@pytest.mark.parametrize("fld,b", [
    *[(F2, b) for b in range(1, 6)],
    *[(F3, b) for b in range(1, 4)],
    *[(fld, 2) for q in (4, 8, 9, 16, 25, 27) for fld in every_modulus(q)],
    (GF(256), 1),
    (GF(257), 1),  # above the table cap: the log-domain batch
    (GF(729), 1),
], ids=repr)
def test_support_matches_the_scalar_determinants(fld, b):
    supp = support_of_det(fld, b)
    assert supp.dtype == fld.dtype
    assert supp.shape == (latin_hypercube_count(fld, b, 3), 2 * b - 1)
    assert list(map(tuple, supp.tolist())) == _scalar_support(fld, b)


def test_support_reads_the_pivots_and_finishes_no_determinant(monkeypatch):
    # det != 0 is every pivot nonzero: the support keeps exactly the windows
    # whose pivots are all nonzero, and multiplies nothing outside the
    # elimination, so no product of pivots is built
    fld = GF(9)
    batch_pivots, mul_array = toeplitz._batch_pivots, fld.mul_array
    eliminating, nonzero = [], []

    def pivots(field, wins):
        eliminating.append(True)
        piv = batch_pivots(field, wins)
        eliminating.pop()
        nonzero.extend(tuple(w) for w, p in zip(wins.tolist(), piv.tolist())
                       if all(p))
        return piv

    def mul(x, y):
        assert eliminating, "the support multiplied outside the elimination"
        return mul_array(x, y)

    monkeypatch.setattr(toeplitz, "_batch_pivots", pivots)
    monkeypatch.setattr(fld, "mul_array", mul)
    assert _support(fld, 2) == nonzero == _scalar_support(fld, 2)


@pytest.mark.parametrize("fld,b", [(F3, 2), (GF(16), 2), (GF(257), 1)],
                         ids=repr)
def test_enumerations_span_many_chunks(fld, b, monkeypatch):
    # a cap of 7 entries puts one 2x2 matrix, or seven 1x1, in each chunk
    monkeypatch.setattr(toeplitz, "_BATCH_CELLS", 7)
    supp = _support(fld, b)
    assert supp == _scalar_support(fld, b)
    for lower in [(0,) * (b - 1), (1,) * (b - 1)]:
        assert _support_run(supp, lower) == _completions(fld, lower)


# every window with q^(2b-1) <= 2^12, as criterion 11 caps its windows:
# characteristic 2, odd primes, odd extension fields, and GF(729), whose
# array operations go through the Zech logarithms; then every modulus of
# the central cross-checks' fields
BATCH_FIELDS = list(dict.fromkeys(
    [GF(q) for q in (2, 3, 4, 5, 8, 9, 243, 729)]
    + [fld for q in MODULUS_ORDERS for fld in every_modulus(q)]))


# a field under its default modulus is named by its order, q-poly otherwise
@pytest.mark.parametrize("fld", BATCH_FIELDS, ids=lambda fld: "-".join(
    map(str, fld.short_json().values())))
def test_batch_dets_match_the_scalar_and_cofactor_determinants(
        fld, monkeypatch):
    # the product of the batch's pivots is the determinant, with
    # _eliminate as the oracle; no zero pivot is ever inverted
    inv_array = fld.inv_array

    def inverse(x):
        assert x.all(), "a zero pivot was inverted"
        return inv_array(x)

    monkeypatch.setattr(fld, "inv_array", inverse)
    q, b = fld.q, 1
    while q ** (2 * b - 1) <= 1 << 12:
        wins = list(itertools.product(range(q), repeat=2 * b - 1))
        pivots = toeplitz._batch_pivots(fld, np.array(wins, dtype=fld.dtype))
        assert pivots.dtype == fld.dtype and pivots.shape == (len(wins), b)
        dets = functools.reduce(fld.mul_array, pivots.T).tolist()
        assert dets == [det_of_window(fld, w) for w in wins]
        assert dets == [cofactor_det(fld, toeplitz_matrix(w)) for w in wins]
        assert 0 in dets
        if b > 1:
            # a zero top-left entry makes a row swap, and some of those
            # matrices are nonsingular
            assert any(d and w[b - 1] == 0 for w, d in zip(wins, dets))
            # a zero pivot before the last column with nonzero entries to
            # its right: the rows below it stay, and the matrix is singular
            assert any(_zero_pivot_then_nonzero(w, p)
                       for w, p in zip(wins, pivots.tolist()))
        b += 1


def _zero_pivot_then_nonzero(window, pivots):
    """Whether a pivot before the last is 0 while the window's matrix has
    a nonzero entry in a later column."""
    if 0 not in pivots[:-1]:
        return False
    col = pivots.index(0)
    return any(any(row[col + 1:]) for row in toeplitz_matrix(window))


def test_elimination_inverts_only_pivots_with_rows_below():
    fld = GF(729)  # any field would do: the test counts calls to inv
    inverted = []
    inv = fld.inv
    fld.inv = lambda a: inverted.append(a) or inv(a)
    assert determinant(fld, [[5]]) == 5
    assert inverted == []
    assert determinant(fld, [[0, 2], [3, 1]]) == fld.neg(6)
    assert inverted == [3]
    assert solve_linear_system(fld, [[2]], [2]) == [1]
    assert inverted == [3, 2]  # back substitution still divides


def test_support_budget():
    with pytest.raises(BudgetExceededError):
        support_of_det(F2, 12, budget=100)


def test_support_refuses_a_huge_window_length_at_once():
    # 3^(2 * 10^8 - 1) windows: refused by the exponent, no power built
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"^enumerating 3\^199999999 windows"):
        support_of_det(F3, 10**8)
    assert time.perf_counter() - start < 2


def test_triangular_completions_q2_n2():
    # the zero lower part needs a nonzero diagonal
    assert _completions(F2, (0,)) == [(0, 1, 0), (0, 1, 1)]
    assert _completions(F2, (1,)) == [(1, 0, 1), (1, 1, 0)]


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_triangular_completions_closed_form(q, n):
    fld = GF(q)
    expect = (q - 1) * q ** (n - 1)
    supp = _support(fld, n)
    for lower in itertools.product(range(q), repeat=n - 1):
        assert len(_completions(fld, lower)) == expect
        assert len(_support_run(supp, lower)) == expect


def test_triangular_completions_agree_with_support():
    supp = _support(F2, 2)
    for lower in [(0,), (1,)]:
        assert _support_run(supp, lower) == _completions(F2, lower)


def test_window_dets_and_criterion():
    assert window_dets(XOR5) == [1]
    assert is_latin_by_windows(XOR5)
    assert window_dets(LONG9) == [1, 1, 1]
    assert is_latin_by_windows(LONG9)
    flat = LinearRule(F2, 2, 3, (0, 0, 0))
    assert window_dets(flat) == [0]
    assert not is_latin_by_windows(flat)
    # squares have no windows to fail
    assert window_dets(LinearRule(F2, 4, 2, XOR5.coeffs)) == []
    assert is_latin_by_windows(LinearRule(F2, 4, 2, XOR5.coeffs))
    assert not is_latin_by_windows(LinearRule(F2, 1, 5, XOR5.coeffs))
    # general rules have no windows, squares included, as windows() says
    for d in (2, 3, 5):
        gen = GeneralBipermutiveRule(F2, d, (0,) * 2 ** (d - 2))
        for criterion in (window_dets, is_latin_by_windows):
            with pytest.raises(TypeError):
                criterion(gen)


@pytest.mark.parametrize("fld", [F2, F3, GF(4), GF(257)], ids=repr)
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_window_dets_match_the_scalar_path_on_both_sides(fld, b, monkeypatch):
    rng = random.Random(fld.q * 10 + b)
    limit = toeplitz._BATCH_MIN_WINDOWS
    for n in (1, limit - 1, limit, limit + 1, 40):
        k = n + 2
        for _ in range(5):
            # a third of the coefficients zero: singular windows and swaps
            coeffs = [rng.randrange(fld.q) if rng.random() < 2 / 3 else 0
                      for _ in range(b * (k - 1) - 1)]
            rule = LinearRule(fld, b, k, coeffs)
            want = [determinant(fld, toeplitz_matrix(w))
                    for w in windows(rule)]
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(toeplitz, "det_of_window", lambda *args: (
                    calls.append(args[1]) or det_of_window(*args)))
                got = window_dets(rule)
            assert got == want
            assert all(type(d) is int for d in got)
            # below the threshold, one det_of_window call per window; from
            # it on, none
            assert calls == (windows(rule) if n < limit else [])
            if n < limit:
                continue
            # a cap of b*b+1 cells puts one matrix in each batch
            with monkeypatch.context() as patch:
                patch.setattr(toeplitz, "_BATCH_CELLS", b * b + 1)
                assert window_dets(rule) == want


@pytest.mark.parametrize("q,b,k", [(2, 2, 3), (3, 2, 3), (2, 1, 4)])
def test_criterion_agrees_with_brute_force(q, b, k):
    fld = GF(q)
    n = b * (k - 1) - 1
    for coeffs in itertools.product(range(q), repeat=n):
        rule = LinearRule(fld, b, k, coeffs)
        assert bool(is_latin(rule)) == is_latin_by_windows(rule)


@pytest.mark.parametrize("q", MODULUS_ORDERS)
def test_criterion_agrees_with_brute_force_under_every_modulus(q):
    for fld in every_modulus(q):
        for b, k in central_points(q):
            for rule in enumerate_linear_rules(fld, b, k):
                assert bool(is_latin(rule)) == is_latin_by_windows(rule), rule


def test_solve_linear_system_round_trip():
    rng = random.Random(7)
    for q in (2, 3, 4):
        fld = GF(q)
        for _ in range(50):
            n = rng.randrange(1, 5)
            while True:
                m = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                if determinant(fld, m) != 0:
                    break
            x = [rng.randrange(q) for _ in range(n)]
            rhs = mat_vec(fld, m, x)
            assert solve_linear_system(fld, m, rhs) == x


def test_solve_linear_system_singular():
    with pytest.raises(ValueError):
        solve_linear_system(F2, [[1, 1], [1, 1]], [0, 1])


def test_solve_middle_block_golden():
    # fixing the blocks of x=1 and z=2 and asking for output 4 = psi(4)
    # recovers the block of index 3
    blk = solve_middle_block(XOR5, 1, [psi(1, 2, 2), psi(2, 2, 2)],
                             psi(4, 2, 2))
    assert blk == psi(3, 2, 2) == (0, 1)
    # 1 + 2*x2 + 1 = 0 over GF(3) forces x2 = 2
    r = LinearRule(F3, 1, 3, (2,))
    assert solve_middle_block(r, 1, [(1,), (1,)], (0,)) == (2,)


def test_solve_middle_block_round_trip():
    for i1, i3, y in itertools.product(range(1, 5), repeat=3):
        blk = solve_middle_block(XOR5, 1, [psi(i1, 2, 2), psi(i3, 2, 2)],
                                 psi(y, 2, 2))
        i2 = psi_inverse(blk, 2)
        assert entry(XOR5, (i1, i2, i3)) == y


def test_solve_recovers_the_block_that_produced_the_output():
    rng = random.Random(11)
    for _ in range(100):
        blocks = [tuple(rng.randrange(2) for _ in range(2)) for _ in range(5)]
        cells = [c for blk in blocks for c in blk]
        y = apply_ca(LONG9, cells)
        for i in (1, 2, 3):
            fixed = blocks[:i] + blocks[i + 1:]
            assert solve_middle_block(LONG9, i, fixed, y) == blocks[i]


def test_solve_middle_block_errors():
    flat = LinearRule(F2, 2, 3, (0, 0, 0))
    with pytest.raises(ValueError):
        solve_middle_block(flat, 1, [(0, 0), (1, 0)], (1, 1))
    with pytest.raises(ValueError):
        solve_middle_block(XOR5, 2, [(0, 0), (1, 0)], (1, 1))
    with pytest.raises(ValueError):
        solve_middle_block(XOR5, 1, [(0, 0)], (1, 1))
    with pytest.raises(ValueError):
        solve_middle_block(XOR5, 1, [(0, 0), (1, 0)], (1, 1, 0))
    with pytest.raises(ValueError):
        solve_middle_block(XOR5, 1, [(0, 2), (1, 0)], (1, 1))
    with pytest.raises(TypeError):
        solve_middle_block(GeneralBipermutiveRule(F2, 5, tuple([0] * 8)),
                           1, [(0, 0), (1, 0)], (1, 1))


def test_solve_middle_block_rechecks_its_block(monkeypatch):
    # a solver that returns a wrong block is caught by the re-applied map,
    # in every kind of field arithmetic
    solve = toeplitz.solve_linear_system

    def wrong(fld, mat, rhs):
        x = solve(fld, mat, rhs)
        return [fld.add(x[0], 1), *x[1:]]

    monkeypatch.setattr(toeplitz, "solve_linear_system", wrong)
    for rule in (XOR5,
                 LinearRule(GF(251), 2, 4, (7, 250, 0, 3, 1)),  # odd prime
                 LinearRule(GF(256), 2, 4, (9, 0, 200, 17, 1)),  # char 2
                 LinearRule(GF(243), 1, 5, (5, 0, 242))):  # odd extension
        b, k, q = rule.b, rule.k, rule.field.q
        rng = random.Random(q)
        blocks = [tuple(rng.randrange(q) for _ in range(b)) for _ in range(k)]
        y = apply_ca(rule, [c for blk in blocks for c in blk])
        with pytest.raises(CrossCheckError, match="does not map to"):
            solve_middle_block(rule, 1, blocks[:1] + blocks[2:], y)
