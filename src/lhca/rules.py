"""Local rules and the no-boundary cellular automaton global map.

A configuration ("cell vector") is a plain tuple of field elements; rules
and cells are read once through ``GF._as_elements`` and keep its ints.
The global map of a rule of diameter d sends a configuration of length
n >= d to the length n-d+1 configuration obtained by evaluating the rule
on every window of d consecutive cells.

Two rule representations are supported, both bipermutive by construction:

* ``LinearRule``       -- a linear combination of the window cells whose
  border coefficients are fixed to 1, stored as the d-2 interior
  coefficients.  Declared with a block size b and dimension k with
  d = b(k-1)+1, which is the one reading of it everywhere downstream;
  to read the same coefficients with another (b, k), build
  ``LinearRule(field, b, k, rule.coeffs)``.
* ``GeneralBipermutiveRule`` -- first cell, plus a table-backed function of
  the d-2 interior cells, plus last cell; read as a square, b = d-1, k = 2.

Table indices follow the same convention used everywhere in this package:
a tuple of cells (c_0, ..., c_{n-1}) has rank sum(c_i * q^i), i.e. the
leftmost cell is the least significant digit.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, bounded_power
from .field import GF, _as_int

DEFAULT_INT_BITS = 1 << 20
_INT_CAP = (1 << DEFAULT_INT_BITS) - 1  # the largest count within the bits


def rank_cells(cells: Sequence[int], q: int) -> int:
    """Rank of a tuple of integer cells, leftmost cell least significant."""
    r = 0
    for c in reversed(cells):
        if type(c) is not int and type(c := _as_int(c)) is not int:
            raise ValueError(f"cell {c!r} is not an integer")
        r = r * q + c
    return r


def unrank_cells(r: int, q: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_cells` for tuples of length n."""
    out = []
    for _ in range(n):
        r, c = divmod(r, q)
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class LinearRule:
    """Linear rule x_1 + a_2 x_2 + ... + a_{d-1} x_{d-1} + x_d over GF(q).

    ``coeffs`` holds the interior coefficients (a_2, ..., a_{d-1}); the
    border coefficients are hardwired to 1, which makes the rule
    bipermutive.  d = b(k-1)+1.
    """

    field: GF
    b: int
    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.b < 1:
            raise ValueError(f"block size must be >= 1, got {self.b}")
        if self.k < 2:
            raise ValueError(f"dimension must be >= 2, got {self.k}")
        object.__setattr__(self, "coeffs",
                           self.field._as_elements(self.coeffs))
        if len(self.coeffs) != self.d - 2:
            raise ValueError(
                f"expected {self.d - 2} interior coefficients for "
                f"b={self.b}, k={self.k}, got {len(self.coeffs)}")

    @property
    def d(self) -> int:
        return self.b * (self.k - 1) + 1

    @property
    def full_coeffs(self) -> tuple[int, ...]:
        """(a_1, ..., a_d) with the unit border coefficients included."""
        return (1,) + self.coeffs + (1,)

    def to_json(self) -> dict:
        return {**self.field.short_json(), "b": self.b, "k": self.k,
                "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class GeneralBipermutiveRule:
    """Rule x_1 + g(x_2, ..., x_{d-1}) + x_d with g given as a value table.

    ``g_table`` has q^(d-2) entries, indexed by the rank of the interior
    window.  For d = 2 the table is the single constant g().
    """

    field: GF
    d: int
    g_table: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"diameter must be >= 2, got {self.d}")
        object.__setattr__(self, "g_table",
                           self.field._as_elements(self.g_table))
        q, n, e = self.field.q, len(self.g_table), self.d - 2
        if bounded_power(q, e, n) != n:
            raise ValueError(f"g table needs {q}^{e} entries, got {n}")

    def to_json(self) -> dict:
        return {**self.field.short_json(), "d": self.d,
                "g_table": list(self.g_table)}


Rule = LinearRule | GeneralBipermutiveRule


def block_structure(rule: Rule, b: int | None = None,
                    k: int | None = None) -> tuple[int, int]:
    """Resolve the (block size, dimension) reading of a rule.

    A rule of diameter d supports any splitting with b(k-1) = d-1.  Linear
    rules default to their declared (b, k); other rules default to the
    square reading b = d-1, k = 2.
    """
    span = rule.d - 1
    if b is None and k is None:
        if isinstance(rule, LinearRule):
            return rule.b, rule.k
        return span, 2
    if b is None:
        if k < 2 or span % (k - 1):
            raise ValueError(
                f"diameter {rule.d} does not split into k={k} blocks")
        b = span // (k - 1)
    elif k is None:
        if b < 1 or span % b:
            raise ValueError(
                f"diameter {rule.d} does not split into blocks of size {b}")
        k = span // b + 1
    if b < 1 or k < 2 or b * (k - 1) != span:
        raise ValueError(f"(b={b}, k={k}) inconsistent with diameter {rule.d}")
    return b, k


def rule_from_json(data: dict) -> LinearRule | GeneralBipermutiveRule:
    """Rebuild a rule from its JSON dict form; ``poly`` selects a
    non-default field modulus.

    Values of the wrong type raise ValueError: the input comes from
    outside, and a JSON ``true`` or ``1.5`` must not pass as an element.
    """
    if not isinstance(data, dict):
        raise ValueError("rule JSON must be an object")
    for key, value in data.items():
        if key in ("q", "b", "k", "d", "poly"):
            # a missing modulus may also be written as null
            ok = type(value) is int or (key == "poly" and value is None)
        elif key in ("coeffs", "g_table"):
            ok = type(value) is list and all(type(v) is int for v in value)
        else:
            continue
        if not ok:
            raise ValueError(f"rule JSON has a malformed {key!r}: {value!r}")
    fld = GF(data["q"], poly=data.get("poly"))
    if "coeffs" in data:
        return LinearRule(fld, data["b"], data["k"], tuple(data["coeffs"]))
    if "g_table" in data:
        return GeneralBipermutiveRule(fld, data["d"], tuple(data["g_table"]))
    raise ValueError("rule JSON needs either 'coeffs' or 'g_table'")


def apply_rule(rule: Rule, window: Sequence[int]) -> int:
    """Evaluate the rule on one window of exactly d cells, each read as an
    element: :func:`apply_ca` on those d cells."""
    if len(window) != rule.d:
        raise ValueError(f"window length {len(window)} != diameter {rule.d}")
    return apply_ca(rule, window)[0]


def apply_ca(rule: Rule, cells: Sequence[int]) -> tuple[int, ...]:
    """Global map: the rule applied to every window of d consecutive cells.

    The configuration is read once through :meth:`GF._as_elements`, so the
    first cell that is not an element raises ValueError; a linear rule then
    sums every window at once, one :meth:`GF.dot` over a read-only strided
    (n-d+1, d) view of the cells, and a general rule maps the cells as one
    row of :func:`apply_ca_batch`."""
    d, fld = rule.d, rule.field
    if len(cells) < d:
        raise ValueError(f"input length {len(cells)} < diameter {d}")
    cells = fld.array(fld._as_elements(cells))  # frees the tuple
    if isinstance(rule, LinearRule):
        view = np.lib.stride_tricks.as_strided(
            cells, (len(cells) - d + 1, d), cells.strides * 2, writeable=False)
        out = fld.dot(rule.full_coeffs, view)
    else:
        out = apply_ca_batch(rule, cells[None])[0]
    return tuple(fld._ints.take(out).tolist())


def apply_ca_batch(rule: Rule, inputs: np.ndarray) -> np.ndarray:
    """Vectorized global map over a batch of configurations.

    ``inputs`` is an (M, n) integer array of configurations; returns the
    (M, n-d+1) array of outputs in the field's ``dtype``.  The batch is
    evaluated cells major: cell i of every configuration is row i of the
    transposed batch, which costs no copy when ``inputs`` is a
    column-major array of the field's ``dtype``, so rows t .. t+n-d of it
    are cell t of every window of every configuration, and each field
    operation is one of the field's array operations on such a block.
    A linear rule, and the border sum of a general bipermutive one, is
    one :meth:`GF.combine_array` call over these blocks (for a linear
    rule, those with a nonzero coefficient): an XOR fold in
    characteristic 2, a machine-integer sum reduced once modulo p over an
    odd prime, and an ``add_array`` fold in odd extension fields.  The
    result, being the transpose of the cells-major output, is
    column-major.  Inputs whose dtype is not an integer one (bool
    included) raise ValueError.
    """
    fld = rule.field
    inputs = np.asarray(inputs)
    if inputs.dtype.kind not in "iu":
        raise ValueError(f"inputs must be integers, not {inputs.dtype}")
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-d array of configurations")
    n = inputs.shape[1]
    d = rule.d
    if n < d:
        raise ValueError(f"input length {n} < diameter {d}")
    # an unsigned array has no negative entry to look for
    if inputs.size and ((inputs.dtype.kind == "i" and inputs.min() < 0)
                        or inputs.max() >= fld.q):
        raise ValueError("inputs contain values outside the field")

    width = n - d + 1
    cells = np.ascontiguousarray(inputs.T, dtype=fld.dtype)
    if isinstance(rule, LinearRule):
        coeffs = rule.full_coeffs
        live = [t for t, a in enumerate(coeffs) if a]
        out = fld.combine_array([coeffs[t] for t in live],
                                [cells[t:t + width] for t in live])
    else:
        # rank of the interior cells of every window, leftmost least
        # significant; d = 2 has none: every rank is 0, g[0]
        ranks = np.zeros((width, len(inputs)), dtype=np.intp)
        for t in range(d - 2, 0, -1):
            ranks *= fld.q
            ranks += cells[t:t + width]
        mid = fld.array(rule.g_table).take(ranks)
        out = fld.combine_array((1, 1, 1), (cells[:width], mid, cells[d - 1:]))
    return out.T


def restriction_is_permutation(rule: Rule, side: str,
                               fixed: Sequence[int],
                               b: int | None = None) -> bool:
    """Exhaustively test whether varying one border block is a bijection.

    The free block of b cells sits on the given side ('left' or 'right');
    ``fixed`` supplies the remaining d-1 cells.  Returns True iff the map
    from the free block to the CA output (also b cells) is a permutation
    of GF(q)^b.  The free block size defaults to rule.b for linear rules
    and to d-1 otherwise.  The q^b free blocks, block r the digits of r,
    are mapped as one :func:`apply_ca_batch` batch, refused past 2^24 cells.
    """
    fld, d = rule.field, rule.d
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if b is None:
        b = rule.b if isinstance(rule, LinearRule) else d - 1
    if len(fixed) != d - 1:
        raise ValueError(
            f"fixed part must have d-1 = {d - 1} cells, got {len(fixed)}")
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    fixed, q, n = fld._as_elements(fixed), fld.q, d - 1 + b
    if (rows := bounded_power(q, b, (1 << 24) // n)) is None:
        raise BudgetExceededError(f"{q}^{b} rows of {n} cells exceed 2^24")
    free = np.indices((q,) * b, fld.dtype).reshape(b, rows)[::-1].T
    fixed = np.broadcast_to(fld.array(fixed), (rows, d - 1))
    cells = np.hstack((free, fixed) if side == "left" else (fixed, free))
    ranks = apply_ca_batch(rule, cells) @ q ** np.arange(b)  # one per row
    return np.unique(ranks).size == rows


def count_bipermutive_rules(field: GF, b: int) -> int:
    """Number of bipermutive rules of diameter b+1: q^(q^(b-1))."""
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    q = field.q
    bits = DEFAULT_INT_BITS
    width = bounded_power(q, b - 1, bits)  # past it q^width >= 2^(bits+1)
    if width is None or (count := bounded_power(q, width, _INT_CAP)) is None:
        raise BudgetExceededError(
            f"q^(q^(b-1)) for q={q}, b={b} exceeds the {bits}-bit budget")
    return count


def enumerate_linear_rules(field: GF, b: int, k: int) -> Iterator[LinearRule]:
    """All q^(b(k-1)-1) linear rules, coefficient vectors in lexicographic
    order (leftmost coefficient most significant)."""
    n = b * (k - 1) - 1
    if n < 0:
        raise ValueError(f"b={b}, k={k} give a negative coefficient count")
    for coeffs in itertools.product(range(field.q), repeat=n):
        yield LinearRule(field, b, k, coeffs)


def enumerate_bipermutive_rules(field: GF,
                                b: int) -> Iterator[GeneralBipermutiveRule]:
    """All q^(q^(b-1)) bipermutive rules of diameter b+1, g tables in
    lexicographic order."""
    count_bipermutive_rules(field, b)  # budget guard
    for g in itertools.product(range(field.q), repeat=field.q ** (b - 1)):
        yield GeneralBipermutiveRule(field, b + 1, g)
