"""Exact arithmetic in small finite fields GF(q), q = p^m.

Elements are encoded as the integers 0 .. q-1.  The base-p digits of an
element are the coefficients of its polynomial representation, least
significant digit first, so 0 is the additive identity and 1 the
multiplicative identity.  For m > 1 the representation is fixed by a monic
irreducible polynomial of degree m over GF(p); by default the one with the
smallest integer encoding (same digit convention, leading term included),
so every run of the library agrees on the meaning of each element.

For q <= 256 all arithmetic is table-driven; the q x q numpy tables are
exposed (``add_table``, ``mul_table``, ...) so that enumeration hot loops
can run vectorized.  Larger fields compute on the fly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ORDER_CAP = 1 << 16
TABLE_CAP = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = 2
    while q % p != 0:
        p += 1
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(n: int, p: int, width: int) -> list[int]:
    out = [0] * width
    for i in range(width):
        n, out[i] = divmod(n, p)
    return out


def _undigits(digits: list[int], p: int) -> int:
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def _poly_mul_mod(a: int, b: int, reducer: list[int], p: int, m: int) -> int:
    """Product of two degree-<m polynomials modulo x^m = reducer(x), over GF(p)."""
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
            for j, r in enumerate(reducer):
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
    """A finite field GF(p^m) with exact integer-encoded arithmetic.

    Construct from the order (``GF(9)``) or explicitly as
    ``GF(p=3, m=2, poly=10)``.  ``poly`` is the integer encoding of a monic
    irreducible degree-m polynomial over GF(p) and is ignored for m = 1.
    """

    def __init__(self, q: int | None = None, *, p: int | None = None,
                 m: int | None = None, poly: int | None = None,
                 order_cap: int = ORDER_CAP):
        if q is not None:
            p, m = _factor_prime_power(q)
        elif p is None or m is None:
            raise ValueError("give either q or both p and m")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.q = p**m
        if self.q > order_cap:
            raise ValueError(f"field order {self.q} exceeds cap {order_cap}")

        if m == 1:
            self.poly = None
            self._reducer = None
        else:
            if poly is None:
                poly = default_irreducible_poly(p, m)
            digits = _digits(poly, p, m + 1)
            if poly >= p ** (m + 1) or digits[m] != 1:
                raise ValueError(
                    f"poly {poly} is not monic of degree {m} over GF({p})")
            if not _is_irreducible(digits, p):
                raise ValueError(f"poly {poly} is reducible over GF({p})")
            self.poly = poly
            # x^m = -(low part), precomputed for reduction
            self._reducer = [(-c) % p for c in digits[:m]]

        self.add_table: np.ndarray | None = None
        self.mul_table: np.ndarray | None = None
        self.neg_table: np.ndarray | None = None
        self.inv_table: np.ndarray | None = None
        if self.q <= TABLE_CAP:
            self._build_tables()

    def _build_tables(self) -> None:
        """The four tables, built with numpy: ``add`` and ``neg`` digit-wise
        on the base-p digits of every element, ``mul`` and ``inv`` from the
        powers of a primitive element found by polynomial multiplication."""
        p, m, q = self.p, self.m, self.q
        weights = p ** np.arange(m)
        digits = (np.arange(q)[:, None] // weights) % p
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        neg = ((-digits) % p) @ weights
        # log[x] is the exponent of x as a power of the primitive element
        powers = self._primitive_powers()
        log = np.zeros(q, dtype=np.int64)
        log[powers] = np.arange(q - 1)
        exp = np.array(powers, dtype=np.int64)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = mul[:, 0] = 0
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(-log[1:]) % (q - 1)]
        self.add_table = add.astype(np.uint8)
        self.mul_table = mul.astype(np.uint8)
        self.neg_table = neg.astype(np.uint8)
        self.inv_table = inv.astype(np.uint8)

    def _primitive_powers(self) -> list[int]:
        """g^0, g^1, ..., g^(q-2) for the smallest element g whose powers
        run through every nonzero element."""
        for g in range(1, self.q):
            powers = [1]
            x = g
            while x != 1 and len(powers) < self.q - 1:
                powers.append(x)
                x = _poly_mul_mod(x, g, self._reducer, self.p, self.m)
            if x == 1 and len(powers) == self.q - 1:
                return powers
        raise ValueError("no element generates the multiplicative group, so "
                         "some element has no unique inverse; "
                         "field construction is inconsistent")

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.add_table is not None:
            return int(self.add_table[a, b])
        if self.m == 1:
            return (a + b) % self.p
        da = _digits(a, self.p, self.m)
        db = _digits(b, self.p, self.m)
        return _undigits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        self._check(a)
        if self.neg_table is not None:
            return int(self.neg_table[a])
        if self.m == 1:
            return (-a) % self.p
        return _undigits([(-c) % self.p for c in _digits(a, self.p, self.m)],
                         self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        if self.m == 1:
            return (a * b) % self.p
        return _poly_mul_mod(a, b, self._reducer, self.p, self.m)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in {self!r}")
        if self.inv_table is not None:
            return int(self.inv_table[a])
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) by square and multiply
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self) -> list[int]:
        """All q elements exactly once, in encoding order."""
        return list(range(self.q))

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "poly": self.poly}

    def short_json(self) -> dict:
        """{"q": q}, plus "poly" if the modulus is not the default one."""
        if self.m > 1 and self.poly != default_irreducible_poly(self.p, self.m):
            return {"q": self.q, "poly": self.poly}
        return {"q": self.q}

    @classmethod
    def from_json(cls, data: dict) -> "GF":
        return cls(p=data["p"], m=data["m"], poly=data.get("poly"))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF)
                and (self.p, self.m, self.poly) == (other.p, other.m, other.poly))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.poly))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, poly={self.poly})"
