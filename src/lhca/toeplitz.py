"""Invertibility windows of linear rules.

Writing a linear rule's coefficients as (a_1, ..., a_d) with a_1 = a_d = 1
and d = b(k-1)+1, window i (for 1 <= i <= k-2) is the run of 2b-1
consecutive interior coefficients starting at a_{b(i-1)+2}.  Arranged as a
b x b Toeplitz matrix, window i is exactly the linear map from input block
i+1 to the output block once all other blocks are fixed.  The cube of the
rule is therefore Latin if and only if every window's matrix is
nonsingular; ``hypercube.is_latin`` never looks at windows, so the two
routes can be played against each other.  Windows are read off a rule's
declared (b, k); they are defined for linear rules only, and every
function here that takes a rule raises TypeError for any other.

Also here: exact determinants and linear solves over GF(q), which share
one forward elimination, the support of the window determinant map, and
the solver that recovers a middle block from a target output.  Matrices
and targets are read through ``GF._as_elements``; a rule's coefficients
were read when it was built, so no window is checked again.

Single matrices go through the scalar elimination ``_eliminate``, the
reference the batch is tested against.  Stacks of windows go through
``_batch_pivots``: the same elimination on all of them at once, each field
operation one array operation, in chunks of at most ``_BATCH_CELLS``
matrix entries; the product of a matrix's pivots is its determinant.
``support_of_det`` keeps the windows with no zero pivot among all
q^(2b-1); ``window_dets`` batches a rule's k-2 windows once there are
``_BATCH_MIN_WINDOWS`` = 8 or more, and reduces fewer one at a time.  Up
to 16 windows a batch costs a nearly fixed 5, 35, 65 and 155 us at b = 1,
2, 3 and 6 on a 2-vCPU Xeon virtual machine, the scalar path about 2.5,
5, 10 and 45 us per window, so at b = 2 and 3 they cross between 4 and 8
windows.
"""

from __future__ import annotations

from collections.abc import Sequence
import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BudgetExceededError, CrossCheckError, bounded_power
from .field import GF
from .rules import _INT_CAP, DEFAULT_INT_BITS, LinearRule, apply_ca

DEFAULT_SUPPORT_BUDGET = 1 << 20
# matrix entries reduced at once by the batched elimination; its largest
# temporaries are a few intp arrays of this many entries (8 MiB each)
_BATCH_CELLS = 1 << 20
# rules with fewer windows reduce them one at a time: below this count
# the batch's fixed cost of a few dozen array operations outweighs the
# scalar eliminations it saves
_BATCH_MIN_WINDOWS = 8


def windows(rule: LinearRule) -> list[tuple[int, ...]]:
    """The k-2 interior windows of length 2b-1, in order.

    Consecutive windows overlap in b-1 coefficients.  Needs k >= 3; a
    square has no middle block and hence no windows.
    """
    if not isinstance(rule, LinearRule):
        raise TypeError("windows are defined for linear rules only")
    if rule.k < 3:
        raise ValueError(f"windows need k >= 3, got k={rule.k}")
    return [_window(rule, i) for i in range(1, rule.k - 1)]


def _window(rule: LinearRule, i: int) -> tuple[int, ...]:
    """Window i (1-based): the 2b-1 interior coefficients from b(i-1)."""
    return rule.coeffs[rule.b * (i - 1):rule.b * (i + 1) - 1]


def toeplitz_matrix(window: Sequence[int]) -> list[list[int]]:
    """The b x b Toeplitz matrix of a window (c_1, ..., c_{2b-1}):
    row r is (c_{b-r+1}, ..., c_{2b-r}), so entry (r, s) is c_{b+s-r}."""
    b, even = divmod(len(window) + 1, 2)
    if even:
        raise ValueError(f"window length {len(window)} is not odd")
    return [[window[b + s - r - 1] for s in range(b)] for r in range(b)]


def _eliminate(field: GF, m: list[list[int]], width: int) -> int:
    """The single row reduction: forward Gaussian elimination with row
    swaps, in place, on the n rows of m, each of ``width`` >= n field
    elements.  Returns the determinant of the leading n x n block, or 0 as
    soon as a column has no pivot, where elimination stops.
    """
    n = len(m)
    if any(len(row) != width for row in m):
        raise ValueError("matrix must be square")
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
    rows = [list(field._as_elements(row)) for row in matrix]
    return _eliminate(field, rows, len(rows))


def det_of_window(field: GF, window: Sequence[int]) -> int:
    """Determinant of the b x b Toeplitz matrix of one window of length
    2b-1, by the scalar elimination; ValueError when an entry is not an
    element of the field."""
    return determinant(field, toeplitz_matrix(window))


def window_dets(rule: LinearRule) -> list[int]:
    """Determinant of each window's matrix, in window order; empty for a
    square.

    A rule with fewer than ``_BATCH_MIN_WINDOWS`` windows reduces them one
    at a time through ``_eliminate``; a longer one is sliced from its
    coefficients into one stack, reduced in batches of at most
    ``_BATCH_CELLS`` matrix entries, and multiplies out the pivots."""
    if not isinstance(rule, LinearRule):
        raise TypeError("windows are defined for linear rules only")
    b, k, fld = rule.b, rule.k, rule.field
    if k - 2 < _BATCH_MIN_WINDOWS:
        return [_eliminate(fld, toeplitz_matrix(_window(rule, i)), b)
                for i in range(1, k - 1)]
    # a rule holds elements, read when it was built; window i starts at
    # coefficient b(i-1): a read-only view, which the batch copies
    coeffs = fld.array(rule.coeffs)
    step = coeffs.strides[0]
    wins = as_strided(coeffs, (k - 2, 2 * b - 1), (b * step, step),
                      writeable=False)
    per_chunk = max(1, _BATCH_CELLS // (b * b))
    pivots = (_batch_pivots(fld, wins[lo:lo + per_chunk])
              for lo in range(0, k - 2, per_chunk))
    return [d for piv in pivots
            for d in functools.reduce(fld.mul_array, piv.T).tolist()]


def is_latin_by_windows(rule: LinearRule) -> bool:
    """Latin test through the algebraic criterion: every window
    nonsingular (vacuous for squares).  Constant time in the cube size."""
    return all(d != 0 for d in window_dets(rule))


def _batch_pivots(field: GF, wins: np.ndarray) -> np.ndarray:
    """The (N, b) pivots, in the field's ``dtype``, of ``_eliminate``'s
    forward elimination run on the Toeplitz matrices of an (N, 2b-1) stack
    of windows at once, so the product of a matrix's pivots is its
    determinant.  A row swap negates one of the two rows, which keeps the
    determinant; each row below a pivot then loses m[r, col] / pivot times
    the pivot row, with one inversion of the N pivots per column.  Under a
    zero pivot the column below is zero too, so those rows stay and the
    matrix is singular; its later pivots are unspecified."""
    b = (wins.shape[1] + 1) // 2
    # entry (r, s) of a window's matrix is its coefficient b-1+s-r (0-based);
    # the windows run along the last axis, so each operation below works on
    # contiguous runs of N entries
    span = np.arange(b)
    m = wins.T[b - 1 + span[None, :] - span[:, None]]
    minus_one = field.p - 1  # -1 is encoded as p - 1
    # the last column has no rows below its pivot, so no step
    for col in range(b - 1):
        # a zero pivot swaps with the first row below it that is nonzero
        # in this column; when there is none, argmax gives row col itself
        zero = np.flatnonzero(m[col, col] == 0)
        piv = col + (m[col:, col, zero] != 0).argmax(axis=0)
        swap, piv = zero[piv != col], piv[piv != col]
        top = m[col, :, swap]
        m[col, :, swap] = field.scale_array(minus_one, m[piv, :, swap])
        m[piv, :, swap] = top
        # -1 / pivot; a zero pivot reads as 1, since its column below is 0
        minus_inv = field.inv_array(
            field.scale_array(minus_one, np.maximum(m[col, col], 1)))
        factors = field.mul_array(m[col + 1:, col], minus_inv)
        # only the block right of and below the pivot changes
        m[col + 1:, col + 1:] = field.add_array(
            m[col + 1:, col + 1:],
            field.mul_array(factors[:, None], m[None, col, col + 1:]))
    return m[span, span].T


def support_of_det(field: GF, b: int,
                   budget: int = DEFAULT_SUPPORT_BUDGET) -> np.ndarray:
    """All windows in GF(q)^{2b-1} with nonsingular matrix, in
    lexicographic order, as the rows of a (V, 2b-1) array of the field's
    ``dtype``.  The q^(2b-1) windows are built in chunks of consecutive
    ranks of at most ``_BATCH_CELLS`` matrix entries, and a window is kept
    when no pivot of its elimination is zero; no determinant is finished.
    BudgetExceededError when the windows pass ``budget``."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    q, width = field.q, 2 * b - 1
    total = bounded_power(q, width, budget)
    if total is None:
        raise BudgetExceededError(
            f"enumerating {q}^{width} windows exceeds budget {budget}")
    per_chunk = max(1, _BATCH_CELLS // (b * b))
    kept = []
    for lo in range(0, total, per_chunk):
        rank = np.arange(lo, min(lo + per_chunk, total))
        wins = np.empty((len(rank), width), dtype=field.dtype)
        for j in range(width - 1, -1, -1):
            rank, wins[:, j] = np.divmod(rank, q)
        kept.append(wins[_batch_pivots(field, wins).all(axis=1)])
    return np.concatenate(kept)


def count_nonsingular_toeplitz(field: GF, b: int) -> int:
    """Number of windows with nonsingular matrix: (q-1) q^{2(b-1)}, the
    size of :func:`support_of_det`, refused past ``DEFAULT_INT_BITS`` bits."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    q = field.q
    power = bounded_power(q, 2 * (b - 1), _INT_CAP)
    if power is None or (count := (q - 1) * power) > _INT_CAP:
        raise BudgetExceededError(f"count for q={q}, b={b} exceeds the "
                                  f"{DEFAULT_INT_BITS}-bit budget")
    return count


def solve_linear_system(field: GF, matrix: Sequence[Sequence[int]],
                        rhs: Sequence[int]) -> list[int]:
    """Unique solution of a square system over GF(q); ValueError when the
    matrix is singular."""
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError(f"rhs length {len(rhs)} != {n}")
    m = [[*field._as_elements(row), v]
         for row, v in zip(matrix, field._as_elements(rhs))]
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
                       y: Sequence[int]) -> tuple[int, ...]:
    """The unique block i+1 making the global map output equal y.

    ``fixed_blocks`` gives the other k-1 blocks of b cells each, in block
    order; ``y`` is the desired b-cell output; ``i`` selects which window
    inverts, 1 <= i <= k-2.  Because the global map is linear, the output
    decomposes as the fixed blocks' contribution plus window i's matrix
    applied to the unknown block, so one linear solve recovers it; the
    result is re-verified by applying the map, and CrossCheckError
    reports a block that misses y.  ValueError when the window is
    singular.
    """
    if not isinstance(rule, LinearRule):
        raise TypeError("middle-block solving needs a linear rule")
    b, k = rule.b, rule.k
    if not 1 <= i <= k - 2:
        raise ValueError(f"window index {i} out of range 1..{k - 2}")
    if len(fixed_blocks) != k - 1:
        raise ValueError(
            f"expected {k - 1} fixed blocks, got {len(fixed_blocks)}")
    fld = rule.field
    y = fld._as_elements(y)
    if len(y) != b:
        raise ValueError(f"target must have {b} cells, got {len(y)}")
    # apply_ca reads the fixed cells as elements
    blocks = [tuple(blk) for blk in fixed_blocks]
    if any(len(blk) != b for blk in blocks):
        raise ValueError(f"fixed blocks must have {b} cells each")
    blocks.insert(i, (0,) * b)
    base = apply_ca(rule, [c for blk in blocks for c in blk])
    rhs = [fld.sub(t, c) for t, c in zip(y, base)]
    mat = toeplitz_matrix(_window(rule, i))
    block = tuple(solve_linear_system(fld, mat, rhs))
    blocks[i] = block
    if apply_ca(rule, [c for blk in blocks for c in blk]) != y:
        raise CrossCheckError(f"solved block {block} of {rule} does not "
                              f"map to {y}")
    return block
