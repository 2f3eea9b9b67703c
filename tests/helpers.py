"""Independent oracles used to cross-check the library implementations."""

import itertools

from lhca.field import GF


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
