"""Independent oracles used to cross-check the library implementations."""

import itertools

from lhca.field import GF
from lhca.hypercube import (
    LatinCheck,
    _line_coords,
    _line_inputs,
    _line_values,
)
from lhca.rules import LinearRule, block_structure, unrank_cells


def cofactor_det(field: GF, matrix) -> int:
    """Determinant by Laplace expansion along the first row; exponential,
    but shares no code with the elimination-based implementation."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    det = 0
    for c in range(n):
        if matrix[0][c] == 0:
            continue
        minor = [list(row[:c]) + list(row[c + 1:]) for row in matrix[1:]]
        term = field.mul(matrix[0][c], cofactor_det(field, minor))
        det = field.add(det, term) if c % 2 == 0 else field.sub(det, term)
    return det


def mat_vec(field: GF, matrix, vec) -> list[int]:
    out = []
    for row in matrix:
        acc = 0
        for a, x in zip(row, vec):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return out


def fuse(u, v, s: int):
    """Overlap two tuples in their s boundary entries: the concatenation
    keeping the shared part once when the last s entries of u equal the
    first s of v, and None when they differ; s = 0 always fuses."""
    if s < 0 or s > len(u) or s > len(v):
        raise ValueError(f"overlap {s} out of range")
    if s and tuple(u[-s:]) != tuple(v[:s]):
        return None
    return tuple(u) + tuple(v[s:])


def ca_by_windows(rule, cells) -> tuple[int, ...]:
    """The global map one window at a time on the field's scalar add and
    mul: a linear rule as acc = add(acc, mul(a, x)) term by term, a
    general one as x_1 + g[rank of the interior] + x_d, the interior
    ranked leftmost cell least significant."""
    fld, d = rule.field, rule.d
    cells = fld._as_elements(cells)
    if len(cells) < d:
        raise ValueError(f"input length {len(cells)} < diameter {d}")
    out = []
    for w in (cells[i:i + d] for i in range(len(cells) - d + 1)):
        if isinstance(rule, LinearRule):
            acc = 0
            for a, x in zip(rule.full_coeffs, w):
                acc = fld.add(acc, fld.mul(a, x))
        else:
            rank = sum(c * fld.q**j for j, c in enumerate(w[1:-1]))
            acc = fld.add(fld.add(w[0], rule.g_table[rank]), w[-1])
        out.append(acc)
    return tuple(out)


def restriction_by_configurations(rule, side: str, fixed, b=None,
                                  global_map=ca_by_windows) -> bool:
    """Whether varying one border block of b cells, on the given side of
    the d-1 ``fixed`` cells, is a bijection, decided one configuration at
    a time through ``global_map``; b is rule.b for a linear rule and d-1
    otherwise, unless given."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if b is None:
        b = rule.b if isinstance(rule, LinearRule) else rule.d - 1
    fixed, q = tuple(fixed), rule.field.q
    seen = set()
    for free in itertools.product(range(q), repeat=b):
        cells = free + fixed if side == "left" else fixed + free
        seen.add(global_map(rule, cells))
    return len(seen) == q**b


def every_modulus(q: int):
    """GF(q) under each monic irreducible modulus, in encoding order; a
    prime field has no modulus and is yielded once."""
    base = GF(q)
    if base.m == 1:
        yield base
        return
    for low in range(q):
        try:
            yield GF(q, poly=q + low)
        except ValueError:  # reducible
            continue


# fields whose every modulus the central cross-checks run under
MODULUS_ORDERS = [4, 8, 9, 16, 25, 27]


def central_points(q: int) -> list[tuple[int, int]]:
    """(b, k) points small enough to sweep every linear rule of GF(q)
    under each of its moduli: (1, 3), (1, 4) up to q = 9, and (2, 3) at
    q = 4."""
    return [(1, 3)] + [(1, 4)] * (q <= 9) + [(2, 3)] * (q == 4)


def unrank_by_suffix_counts(graph, length: int, index: int):
    """Walk number ``index`` of the lexicographic walk enumeration, each
    vertex chosen by the counts of the walks that continue from it; uses
    no regularity and shares no code with the digit unranking."""
    counts = [[1] * len(graph.vertices)]
    for _ in range(length):
        counts.append([sum(counts[-1][j] for j in s) for s in graph.succ])
    assert 0 <= index < sum(counts[-1])
    walk = []
    choices = range(len(graph.vertices))
    for weight in reversed(counts):
        for i in choices:
            if index < weight[i]:
                break
            index -= weight[i]
        walk.append(graph.vertices[i])
        choices = graph.succ[i]
    return tuple(walk)


def unrank_by_divmod(graph, length: int, index: int):
    """Walk number ``index`` from its base-D digits, D the out-degree,
    split off with one ``divmod`` of the whole index per edge."""
    digits = []
    for _ in range(length):
        index, digit = divmod(index, graph.degree)
        digits.append(digit)
    walk = [index]
    for digit in reversed(digits):
        walk.append(graph.succ[walk[-1]][digit])
    return tuple(graph.vertices[i] for i in walk)


def dump_text_by_rows(data: dict) -> str:
    """Text rendering of a ``dump`` dict, one row of right-justified
    entries at a time, each layer of a cube headed by ``z=i`` (k = 3) or
    ``layer a,b,...`` (k > 3) and followed by a blank line."""
    b, k = data["b"], data["k"]
    N = data["q"] ** b
    width = len(str(N))
    lines = []
    for idx, layer in zip(itertools.product(range(1, N + 1), repeat=k - 2),
                          data["layers"]):
        if k == 3:
            lines.append(f"z={idx[0]}")
        elif k > 3:
            lines.append("layer " + ",".join(str(i) for i in idx))
        for row in layer:
            lines.append(" ".join(str(v).rjust(width) for v in row))
        if k > 2:
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def first_repeat_by_rows(vals) -> tuple[int, int] | None:
    """(row, value) for the first row of ``vals`` (entries 0..N-1) whose
    sorted entries are not 0..N-1, with the smallest value it holds twice;
    None when there is no such row.  One row at a time, in plain Python."""
    perm = list(range(vals.shape[1]))
    for i, row in enumerate(map(sorted, vals.tolist())):
        if row != perm:
            return i, next(a for a, b in zip(row, row[1:]) if a == b)
    return None


def is_latin_by_axes(rule, b=None, k=None, rows=65536) -> LatinCheck:
    """The line sweep one axis at a time: axes in order, each in chunks of
    ``rows`` // N lines in lexicographic order of their fixed coordinates,
    one map call and fresh inputs per chunk; the verdict, with the first
    failing line and its smallest repeated value."""
    b, k = block_structure(rule, b, k)
    N = rule.field.q**b
    n_lines = N ** (k - 1)
    chunk = max(1, rows // N)
    for axis in range(1, k + 1):
        for lo in range(0, n_lines, chunk):
            coords = _line_coords(lo, min(lo + chunk, n_lines), N, k)
            inputs = _line_inputs(rule.field, b, k, axis, coords)
            failure = first_repeat_by_rows(_line_values(rule, inputs, b))
            if failure is not None:
                line, value = failure
                fixed = unrank_cells(lo + line, N, k - 1)[::-1]
                return LatinCheck(False, axis, tuple(c + 1 for c in fixed),
                                  value + 1)
    return LatinCheck(True)
