"""Reference computations the benchmark checks lhca's outputs against.

Only the field's scalar operations (``GF.add``, ``GF.mul``, ...) and its
lookup tables come from lhca.  Windows, determinants, walks, graphs and
cube entries are recomputed here from their definitions, so a check
passes only when the library agrees with an independent route.
"""

from __future__ import annotations

import itertools

import numpy as np


def closed_form(q: int, b: int, k: int) -> int:
    """Number of linear rules with a Latin (b, k) cube, k >= 3."""
    return (q - 1) ** (k - 2) * q ** ((k - 1) * (b - 1))


def det(fld, matrix) -> int:
    """Determinant over the field by row reduction."""
    m = [list(row) for row in matrix]
    n = len(m)
    out = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = fld.neg(out)
        out = fld.mul(out, m[col][col])
        inv = fld.inv(m[col][col])
        for r in range(col + 1, n):
            f = fld.mul(m[r][col], inv)
            for c in range(col, n):
                m[r][c] = fld.sub(m[r][c], fld.mul(f, m[col][c]))
    return out


def window_det(fld, window, b: int) -> int:
    """Determinant of the b x b Toeplitz matrix whose (r, s) entry is
    window[b - 1 + s - r]."""
    return det(fld, [[window[b - 1 + s - r] for s in range(b)]
                     for r in range(b)])


def windows(coeffs, b: int, k: int) -> list[tuple[int, ...]]:
    """The k-2 windows of length 2b-1 of an interior coefficient vector."""
    return [tuple(coeffs[b * i:b * i + 2 * b - 1]) for i in range(k - 2)]


def dets(fld, coeffs, b: int, k: int) -> list[int]:
    return [window_det(fld, w, b) for w in windows(coeffs, b, k)]


def is_latin(fld, coeffs, b: int, k: int) -> bool:
    return all(dets(fld, coeffs, b, k))


def random_coeffs(fld, b: int, k: int, rng) -> tuple[int, ...]:
    """A uniformly random interior coefficient vector."""
    return tuple(rng.randrange(fld.q) for _ in range(b * (k - 1) - 1))


def random_non_latin_coeffs(fld, b: int, k: int, rng) -> tuple[int, ...]:
    """A uniformly random coefficient vector with a singular window."""
    while True:
        coeffs = random_coeffs(fld, b, k, rng)
        if not is_latin(fld, coeffs, b, k):
            return coeffs


def random_latin_coeffs(fld, b: int, k: int, rng) -> tuple[int, ...]:
    """A uniformly random Latin rule: a random walk on nonsingular windows.

    Each step draws the b new coefficients uniformly and redraws until the
    window they close is nonsingular; every window has the same number of
    successors, so every walk, and hence every Latin rule, is equally
    likely.
    """
    q = fld.q
    coeffs: list[int] = []
    for step in range(k - 2):
        keep = coeffs[len(coeffs) - (b - 1):] if step and b > 1 else []
        fresh = 2 * b - 1 - len(keep)
        while True:
            tail = [rng.randrange(q) for _ in range(fresh)]
            if window_det(fld, keep + tail, b):
                break
        coeffs += tail
    return tuple(coeffs)


def nth_latin_coeffs(fld, b: int, k: int, index: int) -> tuple[int, ...]:
    """The index-th Latin coefficient vector in lexicographic order, which
    is also the index-th walk in lexicographic order of its windows."""
    latin = (c for c in itertools.product(range(fld.q), repeat=b * (k - 1) - 1)
             if is_latin(fld, c, b, k))
    return next(itertools.islice(latin, index, None))


def apply_rule(fld, full_coeffs, cells) -> tuple[int, ...]:
    """Global map of a linear rule on one configuration."""
    d = len(full_coeffs)
    out = []
    for t in range(len(cells) - d + 1):
        acc = 0
        for a, x in zip(full_coeffs, cells[t:t + d]):
            acc = fld.add(acc, fld.mul(a, x))
        out.append(acc)
    return tuple(out)


def support(fld, b: int) -> list[tuple[int, ...]]:
    """Nonsingular windows of length 2b-1, in lexicographic order."""
    return [w for w in itertools.product(range(fld.q), repeat=2 * b - 1)
            if window_det(fld, w, b)]


def edges(vertices, b: int) -> list[tuple[int, int]]:
    """Index pairs (u, v) where the last b-1 entries of u start v."""
    heads: dict = {}
    for j, v in enumerate(vertices):
        heads.setdefault(v[:b - 1], []).append(j)
    return [(i, j) for i, u in enumerate(vertices)
            for j in heads.get(u[len(u) - (b - 1):], ())]


def cube_layers(fld, b: int, k: int, coeffs) -> list:
    """Every entry of the cube, in the layout of ``lhca.dump``: one N x N
    block (rows i_1, columns i_2) per (i_3, ..., i_k), lexicographic."""
    q, N = fld.q, fld.q ** b
    digits = np.array([[v // q ** t % q for t in range(b)] for v in range(N)])
    # grid axes in output order (i_3, ..., i_k, i_1, i_2); block j of the
    # configuration holds the digits of i_{j+1}
    grids = np.meshgrid(*[np.arange(N)] * k, indexing="ij")
    axis_of_block = [k - 2, k - 1, *range(k - 2)]
    cells = np.concatenate([digits[grids[a].ravel()] for a in axis_of_block],
                           axis=1)
    full = (1, *coeffs, 1)
    add, mul = fld.add_table, fld.mul_table
    value = np.zeros(len(cells), dtype=np.int64)
    for t in range(b):
        acc = np.zeros(len(cells), dtype=np.uint8)
        for s, a in enumerate(full):
            acc = add[acc, mul[a, cells[:, t + s]]]
        value += acc.astype(np.int64) * q ** t
    return (value + 1).reshape(N ** (k - 2), N, N).tolist()
