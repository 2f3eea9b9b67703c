"""Field arithmetic tests: axioms by exhaustion on small orders, encoding
conventions, and error handling."""

import random

import numpy as np
import pytest

from helpers import every_modulus
from lhca.field import (GF, ORDER_CAP, _digits, _poly_mul_mod, _undigits,
                        default_irreducible_poly)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


@pytest.fixture(params=SMALL_ORDERS)
def field(request):
    return GF(request.param)


def test_elements_are_the_first_q_integers(field):
    assert field.elements() == list(range(field.q))


def test_additive_group_axioms(field):
    els = field.elements()
    for a in els:
        assert field.add(a, 0) == a
        assert field.add(a, field.neg(a)) == 0
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            for c in els:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))


def test_multiplicative_group_axioms(field):
    els = field.elements()
    for a in els:
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1
        for b in els:
            assert field.mul(a, b) == field.mul(b, a)
            for c in els:
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_distributivity(field):
    els = field.elements()
    for a in els:
        for b in els:
            for c in els:
                lhs = field.mul(a, field.add(b, c))
                rhs = field.add(field.mul(a, b), field.mul(a, c))
                assert lhs == rhs


def test_no_zero_divisors(field):
    for a in range(1, field.q):
        for b in range(1, field.q):
            assert field.mul(a, b) != 0


def test_sub_inverts_add(field):
    for a in field.elements():
        for b in field.elements():
            assert field.sub(field.add(a, b), b) == a


def test_inv_is_an_involution(field):
    for a in range(1, field.q):
        assert field.inv(field.inv(a)) == a


def test_characteristic(field):
    # adding any element to itself p times gives zero, and no smaller
    # multiple of 1 does
    p = field.p
    for a in field.elements():
        acc = 0
        for _ in range(p):
            acc = field.add(acc, a)
        assert acc == 0
    acc = 0
    for i in range(1, p):
        acc = field.add(acc, 1)
        assert acc != 0


def test_multiplicative_group_is_cyclic(field):
    q = field.q
    found = False
    for g in range(1, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = field.mul(x, g)
            seen.add(x)
        if len(seen) == q - 1:
            found = True
            break
    assert found


def test_known_values_prime_fields():
    f2 = GF(2)
    assert f2.add(1, 1) == 0
    f3 = GF(3)
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    assert f3.inv(2) == 2
    f5 = GF(5)
    assert f5.inv(3) == 2


def test_known_values_gf4():
    # x^2 + x + 1 encodes to 4 + 2 + 1 = 7
    f4 = GF(4)
    assert f4.poly == 7
    assert f4.add(2, 3) == 1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1


@pytest.mark.parametrize("p,m,enc", [(2, 2, 7), (2, 3, 11), (2, 4, 19), (3, 2, 10)])
def test_default_polynomial_is_smallest_irreducible(p, m, enc):
    assert default_irreducible_poly(p, m) == enc


def test_explicit_polynomial_round_trip():
    # x^2 + 1 is irreducible over GF(3); its encoding is 9 + 1 = 10
    f = GF(9, poly=10)
    assert f.poly == 10
    # (x)(x) = x^2 = -1 = 2 under x^2 + 1
    assert f.mul(3, 3) == 2


def test_reducible_polynomial_rejected():
    # x^2 + 2x + 1 = (x+1)^2 over GF(3) encodes to 9 + 6 + 1 = 16
    with pytest.raises(ValueError):
        GF(9, poly=16)


def test_non_prime_power_order_rejected():
    for q in (1, 6, 10, 12):
        with pytest.raises(ValueError):
            GF(q)


def test_order_cap_enforced():
    assert 2**17 > ORDER_CAP
    with pytest.raises(ValueError):
        GF(p=2, m=17)


def test_out_of_range_elements_rejected(field):
    with pytest.raises(ValueError):
        field.add(0, field.q)
    with pytest.raises(ValueError):
        field.mul(-1, 0)


def test_inverse_of_zero_rejected(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_json_round_trip(field):
    data = field.to_json()
    assert set(data) == {"p", "m", "poly"}
    rebuilt = GF.from_json(data)
    assert rebuilt == field
    assert rebuilt.q == field.q


def test_tables_match_scalar_ops():
    # the lookup tables and the log-domain scalar operations must agree
    f = GF(8)
    assert f.add_table is not None
    for a in f.elements():
        for b in f.elements():
            assert int(f.add_table[a, b]) == f.add(a, b)
            assert int(f.mul_table[a, b]) == f.mul(a, b)


def test_large_prime_field_without_tables():
    f = GF(257)
    assert f.add_table is None
    assert f.add(200, 100) == 43
    assert f.mul(f.inv(123), 123) == 1


def _assert_tables_are_polynomial_arithmetic(f):
    p, m, q = f.p, f.m, f.q
    digits = [_digits(a, p, m) for a in range(q)]
    for a in range(q):
        assert f.add_table[a].tolist() == [
            _undigits([(x + y) % p for x, y in zip(digits[a], digits[b])], p)
            for b in range(q)]
        assert f.mul_table[a].tolist() == [
            _poly_mul_mod(a, b, f._reducer, p, m) for b in range(q)]


# every prime power q <= 256 with m > 1, and primes up to the table cap
@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125,
                               128, 169, 243, 256,
                               2, 3, 11, 13, 127, 251])
def test_tables_are_polynomial_arithmetic(q):
    _assert_tables_are_polynomial_arithmetic(GF(q))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_tables_are_polynomial_arithmetic_for_every_modulus(q):
    for f in every_modulus(q):
        _assert_tables_are_polynomial_arithmetic(f)


def _reference_add(f, a, b):
    p, m = f.p, f.m
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, m),
                                                  _digits(b, p, m))], p)


def _reference_mul(f, a, b):
    if f.m == 1:
        return a * b % f.p
    return _poly_mul_mod(a, b, f._reducer, f.p, f.m)


# above the table cap the log domain is the only arithmetic; 243 and 256
# check the table gathers of the array operations against the same
# references
@pytest.mark.parametrize("q", [257, 512, 625, 729, 1024, 2187, 59049, 65521,
                               65536, 243, 256])
def test_ops_match_polynomial_arithmetic(q):
    f, rng = GF(q), random.Random(q)
    pairs = [(0, 0), (0, 1), (1, 0), (q - 1, q - 1), (1, q - 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(500)]
    add = [_reference_add(f, a, b) for a, b in pairs]
    mul = [_reference_mul(f, a, b) for a, b in pairs]
    assert [f.add(a, b) for a, b in pairs] == add
    assert [f.mul(a, b) for a, b in pairs] == mul
    for a, _ in pairs:
        assert _reference_add(f, a, f.neg(a)) == 0
        if a:
            assert _reference_mul(f, a, f.inv(a)) == 1
    x = np.array([a for a, _ in pairs], dtype=f.dtype)
    y = np.array([b for _, b in pairs], dtype=f.dtype)
    assert f.dtype == (np.uint8 if q <= 256 else np.uint16)
    assert f.add_array(x, y).dtype == f.dtype
    assert f.add_array(x, y).tolist() == add
    assert f.mul_array(x, y).tolist() == mul
    # broadcasting, as the batched elimination uses it
    assert f.mul_array(x[:5, None], y[None, :7]).tolist() == [
        [_reference_mul(f, a, b) for b in y[:7].tolist()]
        for a in x[:5].tolist()]
    for a in (0, 1, 2, q - 1):
        assert f.scale_array(a, x).tolist() == [_reference_mul(f, a, v)
                                                for v in x.tolist()]
    assert f.array(x.tolist()).tolist() == x.tolist()


def _digitwise_add(f, x, y):
    """x + y over integer arrays, broadcast, by adding base-p digits
    modulo p: the definition, with no XOR and no table."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    out = 0
    for t in range(f.m):
        w = f.p**t
        out = out + (x // w % f.p + y // w % f.p) % f.p * w
    return out


def _every_pair(q, dtype):
    every = np.arange(q, dtype=dtype)
    return np.repeat(every, q), np.tile(every, q)


# array addition in characteristic 2 is the XOR of the encodings, which
# must not depend on the modulus; check that for every pair under each one
@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256])
def test_char2_add_array_every_pair_every_modulus(q):
    for f in every_modulus(q):
        x, y = _every_pair(q, f.dtype)
        got = f.add_array(x, y)
        assert got.dtype == f.dtype
        assert np.array_equal(got, _digitwise_add(f, x, y))


# the XOR path at 2^9, 2^10 and the cap; the 16-bit pair index of the
# other tabled fields; the log domain above 256 for odd p
@pytest.mark.parametrize("q", [512, 1024, 65536, 3, 9, 243, 251, 729])
def test_add_array_input_dtypes_and_broadcast(q):
    f, rng = GF(q), np.random.default_rng(q)
    x, y = rng.integers(0, q, (2, 500))
    want = _digitwise_add(f, x, y)
    for dtype in (np.uint8, np.uint16, np.intp):
        if q - 1 > np.iinfo(dtype).max:
            continue
        a, b = x.astype(dtype), y.astype(dtype)
        for pair in ((a, b), (a, y), (x, b)):  # x and y are intp
            got = f.add_array(*pair)
            assert got.dtype == f.dtype
            assert np.array_equal(got, want)
    if q <= 1024:
        # the (q,1) + (q,) broadcast that builds add_table
        every = np.arange(q)
        got = f.add_array(every[:, None], every)
        assert got.dtype == f.dtype
        assert np.array_equal(got, _digitwise_add(f, every[:, None], every))


def test_mul_array_every_pair_at_the_16_bit_index_boundary():
    f = GF(256)
    x, y = _every_pair(256, np.uint8)
    # (255, 255) indexes 255 * 256 + 255 = 65535, the largest uint16
    idx = f._pair_index(x, y)
    assert idx.dtype == np.uint16 and int(idx.max()) == 65535
    want = [_reference_mul(f, a, b) for a, b in zip(x.tolist(), y.tolist())]
    for a, b in ((x, y), (x.astype(np.intp), y), (x, y.astype(np.intp))):
        got = f.mul_array(a, b)
        assert got.dtype == f.dtype
        assert got.tolist() == want


def test_every_element_has_a_negative_and_an_inverse():
    f = GF(729)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        assert _reference_add(f, a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert _reference_mul(f, a, f.inv(a)) == 1


def _scalar_combination(f, coeffs, terms):
    """sum a*x by a fold of scalar GF.add and GF.mul, entry by entry."""
    out = []
    for xs in zip(*(np.ravel(x).tolist() for x in terms)):
        acc = 0
        for a, x in zip(coeffs, xs):
            acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


# characteristic 2 (XOR), odd primes (machine integers, reduced once) with
# and without tables, and odd extension fields (carrying digits)
COMBINE_ORDERS = [2, 4, 256, 3, 5, 251, 257, 65521, 9, 27, 243, 729]


@pytest.mark.parametrize("q", COMBINE_ORDERS)
def test_combine_array_matches_a_scalar_fold(q):
    f, rng = GF(q), np.random.default_rng(q)
    for count in (1, 2, 3, 7, 20):
        coeffs = rng.integers(0, q, count).tolist()
        cells = rng.integers(0, q, (count + 4, 30))
        for dtype in (f.dtype, np.intp):
            # shifted views of one array, as the CA global map passes them
            terms = [cells[t:t + 5].astype(dtype) for t in range(count)]
            for cs in (coeffs, [1] + coeffs[1:], [q - 1] * count):
                want = _scalar_combination(f, cs, terms)
                got = f.combine_array(cs, terms)
                assert got.dtype == f.dtype and got.shape == (5, 30)
                assert got.ravel().tolist() == want
    lone = cells[:5].astype(f.dtype)
    for coeffs in ([1], [0, 1, 0]):
        got = f.combine_array(coeffs, [lone] * len(coeffs))
        assert np.array_equal(got, lone) and not np.shares_memory(got, lone)
    assert not f.combine_array([0, 0], [lone, lone]).any()


@pytest.mark.parametrize("q", COMBINE_ORDERS)
def test_combine_array_of_zero_rows(q):
    f = GF(q)
    terms = [np.zeros((0, 5), dtype=f.dtype)] * 3
    for coeffs in ((1, 1, 1), (0, 0, 0), (q - 1, 0, 1)):
        got = f.combine_array(coeffs, terms)
        assert got.shape == (0, 5) and got.dtype == f.dtype


def test_combine_array_rejects_bad_coefficients():
    f, x = GF(5), np.zeros(4, dtype=np.uint8)
    for coeffs, terms in (((1, 5), (x, x)), ((-1, 1), (x, x)), ((1,), (x, x)),
                          ((), ())):
        with pytest.raises(ValueError):
            f.combine_array(coeffs, terms)


# every cell and every coefficient p - 1, at term counts n on both sides of
# each point where the largest sum n (p-1)^2 outgrows 8, 16 and 32 bits
@pytest.mark.parametrize("p, counts", [
    (3, (63, 64, 16383, 16384)),
    (5, (15, 16, 4095, 4096)),
    (251, (1, 2, 68719, 68720)),
    (257, (1, 65535, 65536)),
    (65521, (1, 2, 3)),
])
def test_combine_array_worst_case_at_each_accumulator_switch(p, counts):
    f = GF(p)
    top = f.mul(p - 1, p - 1)
    for n in counts:
        acc = 0
        for _ in range(n):
            acc = f.add(acc, top)
        got = f.combine_array([p - 1] * n, [np.full(6, p - 1, f.dtype)] * n)
        assert got.tolist() == [acc] * 6 == [n % p] * 6
