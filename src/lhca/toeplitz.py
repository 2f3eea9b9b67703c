"""Invertibility windows of linear rules.

Writing a linear rule's coefficients as (a_1, ..., a_d) with a_1 = a_d = 1
and d = b(k-1)+1, window i (for 1 <= i <= k-2) is the run of 2b-1
consecutive interior coefficients starting at a_{b(i-1)+2}.  Arranged as a
b x b Toeplitz matrix, window i is exactly the linear map from input block
i+1 to the output block once all other blocks are fixed.  The cube of the
rule is therefore Latin if and only if every window's matrix is
nonsingular; ``hypercube.is_latin`` never looks at windows, so the two
routes can be played against each other.

Also here: exact determinants and linear solves over GF(q), which share
one forward elimination, the support of the window determinant map, the
count of nonsingular completions of a partially specified window, and
the solver that recovers a middle block from a target output.

Single matrices, the windows of one rule, and every matrix over a field
without tables go through the scalar elimination ``_eliminate``.  The two
exhaustive enumerations, ``support_of_det`` and
``count_triangular_completions``, instead reduce all q^n windows of a
field with tables at once: ``_batch_nonsingular`` runs the same
elimination on a stack of matrices, with every field operation a
``take`` on a lookup table, in chunks of at most ``_BATCH_CELLS`` matrix
entries.  An enumeration of thousands of small matrices is almost all
per-window interpreter overhead, which the batch removes; for the
handful of windows of one rule the batch's set-up costs more than it
saves, so those stay scalar.  The scalar path is also the reference the
batch is tested against.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
import itertools

import numpy as np

from .errors import BudgetExceededError
from .field import GF
from .hypercube import block_structure
from .rules import LinearRule, apply_ca

DEFAULT_SUPPORT_BUDGET = 1 << 20
# matrix entries reduced at once by the batched elimination; its largest
# temporaries are intp arrays of this many entries (8 MiB)
_BATCH_CELLS = 1 << 20


def windows(rule: LinearRule, b: int | None = None,
            k: int | None = None) -> list[tuple[int, ...]]:
    """The k-2 interior windows of length 2b-1, in order.

    Consecutive windows overlap in b-1 coefficients.  Needs k >= 3; a
    square reading has no middle block and hence no windows.
    """
    if not isinstance(rule, LinearRule):
        raise TypeError("windows are defined for linear rules only")
    b, k = block_structure(rule, b, k)
    if k < 3:
        raise ValueError(f"windows need k >= 3, got k={k}")
    return [tuple(rule.coeffs[b * (i - 1):b * (i - 1) + 2 * b - 1])
            for i in range(1, k - 1)]


def toeplitz_matrix(window: Sequence[int], b: int | None = None) -> list[list[int]]:
    """The b x b Toeplitz matrix of a window (c_1, ..., c_{2b-1}):
    row r is (c_{b-r+1}, ..., c_{2b-r}), so entry (r, s) is c_{b+s-r}."""
    if b is None:
        b = (len(window) + 1) // 2
    if len(window) != 2 * b - 1:
        raise ValueError(f"window length {len(window)} != 2b-1 for b={b}")
    return [[window[b + s - r - 1] for s in range(b)] for r in range(b)]


def _eliminate(field: GF, m: list[list[int]], width: int) -> int:
    """The single row reduction: forward Gaussian elimination with row
    swaps, in place, on the n rows of m, each of ``width`` >= n field
    elements.  Returns the determinant of the leading n x n block, or 0 as
    soon as a column has no pivot, where elimination stops.
    """
    n = len(m)
    for row in m:
        if len(row) != width:
            raise ValueError("matrix must be square")
        for v in row:
            field._check(v)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = field.neg(det)
        det = field.mul(det, m[col][col])
        if col + 1 == n:
            break  # no rows below, so the pivot needs no inverse
        pinv = field.inv(m[col][col])
        for r in range(col + 1, n):
            f = field.mul(m[r][col], pinv)
            if f:
                for c in range(col, width):
                    m[r][c] = field.sub(m[r][c], field.mul(f, m[col][c]))
    return det


def determinant(field: GF, matrix: Sequence[Sequence[int]]) -> int:
    """Determinant over GF(q) by Gaussian elimination with row swaps."""
    return _eliminate(field, [list(row) for row in matrix], len(matrix))


def det_of_window(field: GF, window: Sequence[int]) -> int:
    return determinant(field, toeplitz_matrix(window))


def window_dets(rule: LinearRule, b: int | None = None,
                k: int | None = None) -> list[int]:
    """Determinant of each window's matrix, in window order; empty for a
    square reading."""
    b, k = block_structure(rule, b, k)
    if k == 2:
        return []
    return [det_of_window(rule.field, w) for w in windows(rule, b, k)]


def is_latin_by_windows(rule: LinearRule, b: int | None = None,
                        k: int | None = None) -> bool:
    """Latin test through the algebraic criterion: every window
    nonsingular (vacuous for squares).  Constant time in the cube size."""
    return all(d != 0 for d in window_dets(rule, b, k))


def _batch_nonsingular(field: GF, wins: np.ndarray) -> np.ndarray:
    """Whether the Toeplitz matrix of each window of an (N, 2b-1) ``uint8``
    stack is nonsingular, over a field with tables.

    The forward elimination of ``_eliminate`` on all N matrices at once,
    keeping only whether every pivot is nonzero, which row swaps do not
    change.  A column without a pivot needs no branch: its pivot is 0,
    whose ``inv_table`` entry is 0, so the row factors vanish and the
    matrix is left as it is.
    """
    q = field.q
    add, mul = field.add_table.ravel(), field.mul_table.ravel()
    neg, inv = field.neg_table, field.inv_table

    def times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return mul.take(x.astype(np.intp) * q + y)

    b = (wins.shape[1] + 1) // 2
    # entry (r, s) of a window's matrix is its coefficient b-1+s-r (0-based)
    span = np.arange(b)
    m = wins[:, b - 1 + span[None, :] - span[:, None]]
    ok = np.ones(len(wins), dtype=bool)
    for col in range(b):
        piv = col + (m[:, col:, col] != 0).argmax(axis=1)
        swap = np.flatnonzero(piv != col)
        if len(swap):
            top = m[swap, col]
            m[swap, col] = m[swap, piv[swap]]
            m[swap, piv[swap]] = top
        ok &= m[:, col, col] != 0
        if col + 1 == b:
            break
        # row r -= f_r * row col, as row r += (-f_r) * row col; column col
        # is never read again, so only the columns right of it are updated
        pinv = inv.take(m[:, col, col])[:, None]
        negf = neg.take(times(m[:, col + 1:, col], pinv))
        idx = m[:, col + 1:, col + 1:].astype(np.intp)
        idx *= q
        idx += times(negf[:, :, None], m[:, None, col, col + 1:])
        m[:, col + 1:, col + 1:] = add.take(idx)
    return ok


def _nonsingular_chunks(field: GF, prefix: Sequence[int],
                        free: int) -> Iterator[np.ndarray]:
    """For each window ``prefix + rest``, rest running over GF(q)^free in
    lexicographic order, whether its Toeplitz matrix is nonsingular, as
    consecutive boolean chunks of a bounded size.

    Fields with tables reduce each chunk in one batch; larger fields call
    :func:`det_of_window` on each window.
    """
    q, prefix = field.q, tuple(prefix)
    total = q ** free
    width = len(prefix) + free
    b = (width + 1) // 2
    per_chunk = max(1, _BATCH_CELLS // (b * b))
    if field.add_table is None:
        rests = itertools.product(range(q), repeat=free)
        for _ in range(0, total, per_chunk):
            yield np.fromiter(
                (det_of_window(field, prefix + rest) != 0
                 for rest in itertools.islice(rests, per_chunk)), dtype=bool)
        return
    for lo in range(0, total, per_chunk):
        rest = np.arange(lo, min(lo + per_chunk, total))
        wins = np.empty((len(rest), width), dtype=np.uint8)
        wins[:, :len(prefix)] = prefix
        for j in range(width - 1, len(prefix) - 1, -1):
            rest, wins[:, j] = np.divmod(rest, q)
        yield _batch_nonsingular(field, wins)


def support_of_det(field: GF, b: int,
                   budget: int = DEFAULT_SUPPORT_BUDGET) -> list[tuple[int, ...]]:
    """All windows in GF(q)^{2b-1} with nonsingular matrix, in
    lexicographic order."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    q = field.q
    if q ** (2 * b - 1) > budget:
        raise BudgetExceededError(
            f"enumerating {q}^{2 * b - 1} windows exceeds budget {budget}")
    chunks = _nonsingular_chunks(field, (), 2 * b - 1)
    return list(itertools.compress(
        itertools.product(range(q), repeat=2 * b - 1),
        itertools.chain.from_iterable(c.tolist() for c in chunks)))


def count_nonsingular_toeplitz(field: GF, b: int, verify: bool = False,
                               budget: int = DEFAULT_SUPPORT_BUDGET) -> int:
    """Number of windows with nonsingular matrix: (q-1) q^{2(b-1)}.

    With ``verify`` the closed form is checked against the exhaustive
    support enumeration.
    """
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    q = field.q
    count = (q - 1) * q ** (2 * (b - 1))
    if verify:
        found = len(support_of_det(field, b, budget))
        assert found == count, (
            f"support size {found} contradicts closed form {count} "
            f"for q={q}, b={b}")
    return count


def count_triangular_completions(field: GF, n: int,
                                 lower: Sequence[int]) -> int:
    """Completions of a window whose first n-1 coefficients are fixed.

    ``lower`` fills the part of an n x n Toeplitz matrix strictly below
    the diagonal; the remaining n coefficients are exhausted and the
    nonsingular outcomes counted.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if len(lower) != n - 1:
        raise ValueError(f"expected {n - 1} fixed coefficients, got {len(lower)}")
    for v in lower:
        field._check(v)
    return sum(int(np.count_nonzero(c))
               for c in _nonsingular_chunks(field, lower, n))


def solve_linear_system(field: GF, matrix: Sequence[Sequence[int]],
                        rhs: Sequence[int]) -> list[int]:
    """Unique solution of a square system over GF(q); ValueError when the
    matrix is singular."""
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError(f"rhs length {len(rhs)} != {n}")
    m = [list(row) + [v] for row, v in zip(matrix, rhs)]
    if _eliminate(field, m, n + 1) == 0:
        raise ValueError("matrix is singular")
    x = [0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc = field.sub(acc, field.mul(m[r][c], x[c]))
        x[r] = field.mul(acc, field.inv(m[r][r]))
    return x


def solve_middle_block(rule: LinearRule, i: int,
                       fixed_blocks: Sequence[Sequence[int]],
                       y: Sequence[int], b: int | None = None,
                       k: int | None = None) -> tuple[int, ...]:
    """The unique block i+1 making the global map output equal y.

    ``fixed_blocks`` gives the other k-1 blocks of b cells each, in block
    order; ``y`` is the desired b-cell output; ``i`` selects which window
    inverts, 1 <= i <= k-2.  Because the global map is linear, the output
    decomposes as the fixed blocks' contribution plus window i's matrix
    applied to the unknown block, so one linear solve recovers it; the
    result is re-verified by applying the map.  ValueError when the
    window is singular.
    """
    if not isinstance(rule, LinearRule):
        raise TypeError("middle-block solving needs a linear rule")
    b, k = block_structure(rule, b, k)
    if not 1 <= i <= k - 2:
        raise ValueError(f"window index {i} out of range 1..{k - 2}")
    if len(fixed_blocks) != k - 1:
        raise ValueError(
            f"expected {k - 1} fixed blocks, got {len(fixed_blocks)}")
    fld = rule.field
    if len(y) != b:
        raise ValueError(f"target must have {b} cells, got {len(y)}")
    for c in y:
        fld._check(c)
    blocks = [tuple(blk) for blk in fixed_blocks]
    for blk in blocks:
        if len(blk) != b:
            raise ValueError(f"fixed blocks must have {b} cells each")
        for c in blk:
            fld._check(c)
    blocks.insert(i, (0,) * b)
    cells = [c for blk in blocks for c in blk]
    base = apply_ca(rule, cells)
    rhs = [fld.sub(t, c) for t, c in zip(y, base)]
    mat = toeplitz_matrix(windows(rule, b, k)[i - 1])
    block = tuple(solve_linear_system(fld, mat, rhs))
    blocks[i] = block
    assert apply_ca(rule, [c for blk in blocks for c in blk]) == tuple(y)
    return block
