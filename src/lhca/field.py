"""Exact arithmetic in small finite fields GF(q), q = p^m.

Elements are encoded as the integers 0 .. q-1.  The base-p digits of an
element are the coefficients of its polynomial representation, least
significant digit first, so 0 is the additive identity and 1 the
multiplicative identity.  For m > 1 the representation is fixed by a monic
irreducible polynomial of degree m over GF(p); by default the one with the
smallest integer encoding (same digit convention, leading term included),
so every run of the library agrees on the meaning of each element.

Every field, up to ``ORDER_CAP``, computes in one log domain: ``exp`` and
``log`` of a primitive element g make a product a sum of logarithms, and
Zech logarithms, Z(n) = log(1 + g^n), make a sum one too, since
a + b = a (1 + b/a).  The scalar operations index these as Python lists.
A sum of products over many windows at once, ``dot``, sums the base-p
digits of its ``mul_array`` products over the terms and reduces each digit
sum modulo p once: in characteristic 2, each bit's parity.  The vectorized
operations (``add_array``, ``mul_array``, ...) gather from q x q lookup
tables (``add_table``, ``mul_table``) for q <= 256, where those fit, and
from the same exp/log/Zech vectors above.  A pair's index into a table,
x*q + y, is at most q^2 - 1 = 65 535, so it is built as ``uint16``.  In
characteristic 2 array addition gathers nothing at any q: digits add
modulo 2, so the sum of two encodings is their XOR.  Vector elements have
the dtype ``dtype``: ``uint8`` up to q = 256, ``uint16`` above.

A linear combination of element arrays with constant coefficients,
``combine_array``, is reduced once, in one of three ways:

* characteristic 2: the scaled terms fold by XOR;
* odd prime (m = 1): the products a*x add up as machine integers, in the
  narrowest unsigned dtype that holds the largest sum, and the sum is
  reduced modulo p once, by one floor division by p in that dtype, so no
  term gathers from a table at any p;
* odd extension fields: base-p digits carry into each other, so the
  scaled terms fold with ``add_array``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

ORDER_CAP = 1 << 16
TABLE_CAP = 256
_CHUNK_CELLS = 1 << 16  # window cells GF.dot reduces at a time


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m, n = 0, q
    while n % p == 0:
        n, m = n // p, m + 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _as_int(a):
    """A bool or numpy integer as its int; anything else, as it is."""
    return int(a) if isinstance(a, (int, np.integer)) else a


def _digits(n: int, p: int, width: int) -> list[int]:
    return [n // p**i % p for i in range(width)]


def _undigits(digits: list[int], p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


def _poly_mul_mod(a: int, b: int, red: list[int], p: int, m: int) -> int:
    """a * b modulo x^m = red(x) over GF(p), both of degree < m."""
    da = _digits(a, p, m)
    db = _digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j, r in enumerate(red):
                prod[i - m + j] = (prod[i - m + j] + c * r) % p
    return _undigits(prod[:m], p)


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over GF(p); inputs are coefficient
    lists, least significant first, den monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(poly_digits: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. m//2."""
    m = len(poly_digits) - 1
    for deg in range(1, m // 2 + 1):
        for low in range(p**deg):
            den = _digits(low, p, deg) + [1]
            if not any(_poly_rem(poly_digits, den, p)):
                return False
    return True


@lru_cache(maxsize=None)
def default_irreducible_poly(p: int, m: int) -> int:
    """The monic irreducible polynomial of degree m over GF(p) with the
    smallest integer encoding (digits base p, leading term included)."""
    top = p**m
    for low in range(top):
        if _is_irreducible(_digits(low, p, m) + [1], p):
            return top + low
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class GF:
    """A finite field GF(q), q = p^m, with exact integer-encoded arithmetic.

    Construct from the order only: ``GF(9)``, or ``GF(9, poly=10)`` for
    another modulus.  ``poly`` is the integer encoding of a monic
    irreducible degree-m polynomial over GF(p), p^m <= poly < 2 p^m;
    ValueError for any other.  For m = 1 every x + c gives the same field,
    so ``poly`` is checked and then kept as None.
    """

    def __init__(self, q: int, *, poly: int | None = None):
        if q > ORDER_CAP:  # factoring grows with q
            raise ValueError(f"field order {q} exceeds cap {ORDER_CAP}")
        p, m = _factor_prime_power(q)
        self.p, self.m, self.q = p, m, p**m

        if poly is None:
            poly = default_irreducible_poly(p, m)
        # monic of degree m: p^m <= poly < 2 p^m, any x + c when m = 1
        if not self.q <= poly < 2 * self.q:
            raise ValueError(
                f"poly {poly} is not monic of degree {m} over GF({p})")
        digits = _digits(poly, p, m + 1)
        if not _is_irreducible(digits, p):
            raise ValueError(f"poly {poly} is reducible over GF({p})")
        # a prime field has one representation, so no modulus is kept
        self.poly = poly if m > 1 else None
        # x^m = -(low part), precomputed for reduction
        self._reducer = [(-c) % p for c in digits[:m]]

        # an element fits one byte up to q = 256, two bytes up to ORDER_CAP
        self.dtype = np.uint8 if self.q <= 256 else np.uint16
        self._build_logs()
        self.add_table: np.ndarray | None = None
        self.mul_table: np.ndarray | None = None
        if self.q <= TABLE_CAP:
            every = np.arange(self.q)
            self.add_table = self.add_array(every[:, None], every)
            self.mul_table = self.mul_array(every[:, None], every)

    def _build_logs(self) -> None:
        """The log domain of a primitive element g: numpy arrays for the
        array operations, ``dot`` included, and lists for the scalar ones.

        With n = q - 1, log 0 is the sentinel 2n, and exp holds g^i for
        i < 2n and 0 from 2n to 4n, so a sum of two logarithms is a valid
        exp index and lands on 0 exactly when a term is log 0.  For a + b,
        zech is indexed by d + 2n with d = log b - log a, and the three
        cases take disjoint ranges of d:
          a, b != 0: zech = log(1 + g^d), so exp[log a + zech] = a + b;
          a = 0:     zech = d, so exp[log a + zech] = exp[log b] = b;
          b = 0:     zech = 0, so exp[log a + zech] = a (0 when a = 0 too).
        """
        p, q, n = self.p, self.q, self.q - 1
        zero = 2 * n
        powers = self._primitive_powers()
        exp = np.zeros(4 * n + 1, dtype=self.dtype)
        exp[:zero] = powers[np.arange(zero) % n]
        log = np.full(q, zero, dtype=np.intp)
        log[powers] = np.arange(n)
        # 1 + g^d differs from g^d in its constant digit only
        one_plus = powers - powers % p + (powers + 1) % p
        zech = np.zeros(4 * n + 1, dtype=np.intp)
        zech[:n] = np.arange(n) - zero
        zech[n + 1:3 * n] = log[one_plus[np.arange(1 - n, n) % n]]
        self._zero_log = zero
        self._exps, self._logs, self._zechs = exp, log, zech
        self._exp, self._log, self._zech = (exp.tolist(), log.tolist(),
                                            zech.tolist())

    def _primitive_powers(self) -> np.ndarray:
        """g^0, g^1, ..., g^(q-2) as integers, for the smallest element g
        whose powers run through every nonzero element.

        Each candidate's powers are built as base-p digit rows by doubling:
        the first t powers times the matrix of multiplication by g^t give
        the next t, and squaring that matrix gives the one of g^(2t).  A
        candidate of smaller order e < q-1 shows itself when 1 = g^e turns
        up, by the time the table reaches e.
        """
        p, m, n = self.p, self.m, self.q - 1
        weights = p ** np.arange(m)
        for g in range(1, self.q):
            powers = np.zeros((n, m), dtype=np.int64)
            powers[0, 0] = 1
            # row i holds the digits of g x^i
            step = np.array([_digits(_poly_mul_mod(g, p**i, self._reducer,
                                                   p, m), p, m)
                             for i in range(m)])
            t = 1
            while t < n:
                more = powers[:min(t, n - t)] @ step % p
                if (more @ weights == 1).any():
                    break
                powers[t:t + len(more)] = more
                step = step @ step % p
                t += len(more)
            else:
                return powers @ weights
        raise ValueError("no element generates the multiplicative group, so "
                         "some element has no unique inverse; "
                         "field construction is inconsistent")

    def _check(self, a) -> int:
        """The package's one test of an element: an integer 0 .. q-1,
        returned as an int (a bool or numpy integer reads as its int);
        ValueError for anything else, a float included."""
        if type(a) is not int:
            a = _as_int(a)
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")
        return a

    def _as_elements(self, values) -> tuple[int, ...]:
        """``values`` as a tuple of ints, each read by :meth:`_check`; a
        tuple of ints in range passes on one inline compare per value."""
        values, q = tuple(values), self.q
        for a in values:
            if type(a) is not int or not 0 <= a < q:
                return tuple(map(self._check, values))
        return values

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la + self._zero_log]]

    def neg(self, a: int) -> int:
        self._check(a)
        # -a = (-1) a, and -1 is encoded as p - 1
        return self._exp[self._log[a] + self._log[self.p - 1]]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._exp[self._log[a] + self._log[b]]

    @cached_property
    def _digit_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every element's m base-p digits, one row each, in the narrowest
        unsigned dtype, and the weights p^i that rebuild an element."""
        weights = self.p ** np.arange(self.m, dtype=self.dtype)
        digits = np.arange(self.q)[:, None] // weights % self.p
        return digits.astype(np.min_scalar_type(self.p - 1)), weights

    @cached_property
    def _ints(self) -> np.ndarray:
        """The q elements as Python ints, shared by every gather from it."""
        return np.arange(self.q).astype(object)

    def dot(self, coeffs, windows: np.ndarray) -> np.ndarray:
        """The sum of a * x over ``coeffs`` and each row of the (N, d)
        element array ``windows``, unchecked, as N elements of ``dtype``:
        the base-p digits of the :meth:`mul_array` products summed over the
        terms, reduced modulo p once, ``_CHUNK_CELLS`` cells at a time."""
        coeffs, p = self.array(coeffs), self.p
        acc = np.min_scalar_type(len(coeffs) * (p - 1))
        table, weights = self._digit_table
        out = np.empty(len(windows), self.dtype)
        rows = max(1, _CHUNK_CELLS // len(coeffs))
        for lo in range(0, len(windows), rows):
            terms = self.mul_array(coeffs, windows[lo:lo + rows])
            sums = table.take(terms, axis=0).sum(1, dtype=acc)
            np.matmul(sums % p, weights, out=out[lo:lo + rows])
        return out

    def inv(self, a: int) -> int:
        if not self._check(a):
            raise ZeroDivisionError(
                f"0 has no multiplicative inverse in {self!r}")
        return self._exp[self.q - 1 - self._log[a]]

    def _pair_index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x*q + y, the index of each pair into a raveled q x q table, as
        ``uint16``: tables exist up to q = 256, so an index is at most
        65 535, and a 16-bit index is cheaper to build than an ``intp`` one."""
        idx = x.astype(np.uint16)
        idx *= self.q
        # in place where the shapes agree, one allocation where
        # broadcasting needs two; values below q fit whatever y's dtype
        return np.add(idx, y, out=idx if idx.shape == y.shape else None,
                      dtype=np.uint16, casting="unsafe")

    def add_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x + y elementwise over integer arrays of elements, broadcast;
        the result has the field's ``dtype``.  Inputs are not checked.

        In characteristic 2 this is the XOR of the encodings, at every q;
        otherwise a gather from ``add_table`` by 16-bit pair indexes up to
        q = 256, and through the Zech logarithms above."""
        if self.p == 2:
            return np.bitwise_xor(x, y).astype(self.dtype, copy=False)
        if self.add_table is not None:
            return self.add_table.ravel().take(self._pair_index(x, y))
        lx = self._logs.take(x)
        d = self._logs.take(y) - lx
        d += self._zero_log
        return self._exps.take(lx + self._zechs.take(d))

    def mul_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x * y elementwise, as :meth:`add_array`."""
        if self.mul_table is not None:
            return self.mul_table.ravel().take(self._pair_index(x, y))
        return self._exps.take(self._logs.take(x) + self._logs.take(y))

    def inv_array(self, x: np.ndarray) -> np.ndarray:
        """The inverse of every entry of an integer array of nonzero
        elements, as :meth:`add_array`; zero entries are not checked for.

        g^-i = g^(q-1-i), and q-1-i is an index into ``exp`` for every
        log i of a nonzero element."""
        return self._exps.take(self.q - 1 - self._logs.take(x))

    def scale_array(self, a: int, x: np.ndarray) -> np.ndarray:
        """The element a times every entry of x, as :meth:`add_array`."""
        if self.mul_table is not None:
            return self.mul_table[a].take(x)
        return self._exps.take(self._logs.take(x) + self._log[a])

    def combine_array(self, coeffs, terms) -> np.ndarray:
        """The sum of a * x over the constant coefficients ``coeffs`` and
        the element arrays ``terms``, which have one shape; the result has
        the field's ``dtype``.  The coefficients are read as elements,
        the terms are not checked.  Every term is scaled and summed, also
        one whose coefficient is 0; ``rules.apply_ca_batch`` drops those.

        In characteristic 2 the scaled terms fold by XOR, in place.  Over
        an odd prime the products a*x add up as machine integers, in the
        narrowest unsigned dtype that holds both p and their largest sum,
        (p-1)*sum(a) (at most len(coeffs)*(p-1)^2), and the sum is reduced
        modulo p once, by one floor division.  In odd extension fields
        base-p digits carry into each other, so the scaled terms fold with
        :meth:`add_array`."""
        coeffs = self._as_elements(coeffs)
        if len(coeffs) != len(terms) or not terms:
            raise ValueError("need one coefficient per term, and a term")
        if self.p == 2 or self.m > 1:
            acc = None
            for a, x in zip(coeffs, terms):
                x = x if a == 1 else self.scale_array(a, x)
                if acc is None:
                    acc = np.array(x, dtype=self.dtype)
                elif self.p == 2:
                    np.bitwise_xor(acc, x, out=acc, casting="unsafe")
                else:
                    acc = self.add_array(acc, x)
            return acc
        # the floor division needs p in the dtype, also when every
        # coefficient is 0; fewer than 2^32 terms keep it below 2^64
        acc_type = np.min_scalar_type(max((self.p - 1) * sum(coeffs), self.p))
        acc = np.multiply(terms[0], coeffs[0], dtype=acc_type,
                          casting="unsafe")
        scaled = None
        for a, x in zip(coeffs[1:], terms[1:]):
            if a != 1:
                x = scaled = np.multiply(x, a, out=scaled, dtype=acc_type,
                                         casting="unsafe")
            np.add(acc, x, out=acc, casting="unsafe")
        quot = acc // self.p
        quot *= self.p
        # acc - p*(acc // p) is below p, so exact modulo 2^8 or 2^16
        return np.subtract(acc, quot, dtype=self.dtype, casting="unsafe")

    def array(self, values) -> np.ndarray:
        """A sequence of elements as a 1-d array of the field's ``dtype``;
        a byte string converts several times faster than an int list."""
        if self.dtype == np.uint8:
            return np.frombuffer(bytes(values), dtype=np.uint8)
        return np.fromiter(values, dtype=self.dtype, count=len(values))

    def elements(self) -> list[int]:
        """All q elements exactly once, in encoding order."""
        return list(range(self.q))

    def short_json(self) -> dict:
        """{"q": q}, plus "poly" if the modulus is not the default one."""
        if self.poly not in (None, default_irreducible_poly(self.p, self.m)):
            return {"q": self.q, "poly": self.poly}
        return {"q": self.q}

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF) and (self.p, self.m, self.poly)
                == (other.p, other.m, other.poly))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.poly))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, poly={self.poly})"
