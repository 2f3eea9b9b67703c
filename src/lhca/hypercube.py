"""Hypercubes of order q^b built by running a cellular automaton once.

The cube of a rule read with parameters (b, k) is the k-dimensional array
of order N = q^b whose entry at (i_1, ..., i_k) is computed by encoding
each 1-based index as a block of b cells (the base-q digits of i-1,
leftmost cell least significant), concatenating the k blocks into a
configuration of bk cells, applying the global map once, and decoding the
b output cells back to an index.

The array is Latin when every axis-parallel line hits every value exactly
once.  ``is_latin`` verifies this by direct evaluation of every line, in
vectorized chunks; it deliberately knows nothing about the algebraic
criterion in ``toeplitz`` so the two routes stay independently checkable.

``is_latin``, ``check_random_lines`` and ``dump`` all read the cube through
one line evaluator: build the inputs of a batch of lines along one axis,
run the global map once, decode.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .field import GF
from .rules import (
    GeneralBipermutiveRule,
    LinearRule,
    Rule,
    apply_ca,
    apply_ca_batch,
    enumerate_linear_rules,
    rank_cells,
    unrank_cells,
)

DEFAULT_ENTRY_BUDGET = 1 << 24


def psi(i: int, q: int, b: int) -> tuple[int, ...]:
    """Encode a 1-based index 1 <= i <= q^b as a block of b cells; the
    leftmost cell is the least significant base-q digit of i-1."""
    if not 1 <= i <= q**b:
        raise ValueError(f"index {i} out of range 1..{q**b}")
    return unrank_cells(i - 1, q, b)


def psi_inverse(cells: Sequence[int], q: int) -> int:
    """Decode a block of cells back to its 1-based index."""
    for c in cells:
        if not 0 <= c < q:
            raise ValueError(f"cell value {c} out of range for q={q}")
    return rank_cells(cells, q) + 1


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


def entry(rule: Rule, idx: Sequence[int], b: int | None = None,
          k: int | None = None) -> int:
    """The cube entry at the 1-based position idx = (i_1, ..., i_k)."""
    b, k = block_structure(rule, b, k)
    q = rule.field.q
    if len(idx) != k:
        raise ValueError(f"expected {k} indices, got {len(idx)}")
    cells: list[int] = []
    for i in idx:
        cells.extend(psi(i, q, b))
    return psi_inverse(apply_ca(rule, cells), q)


@dataclass(frozen=True)
class LatinCheck:
    """Outcome of a Latin verification; falsy iff a line repeats a value.

    On failure ``axis`` (1-based) names the direction of the offending
    line, ``fixed`` gives its other k-1 coordinates in increasing axis
    order, and ``value`` is the smallest entry hit more than once.
    """

    ok: bool
    axis: int | None = None
    fixed: tuple[int, ...] | None = None
    value: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _psi_array(q: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Row v holds the block of b cells encoding the 0-based index v; the
    digit weights, second, decode a block back to its index."""
    weights = q ** np.arange(b, dtype=np.int64)
    cells = np.arange(q**b, dtype=np.int64)[:, None] // weights % q
    return cells.astype(np.uint8 if q <= 256 else np.int64), weights


def _cube_shape(rule: Rule, b: int | None, k: int | None,
                budget: int) -> tuple[int, int, int]:
    """(b, k, N) of the cube; BudgetExceededError above ``budget`` entries."""
    b, k = block_structure(rule, b, k)
    N = rule.field.q**b
    if N**k > budget:
        raise BudgetExceededError(
            f"cube with {N}^{k} entries exceeds budget {budget}")
    return b, k, N


def _line_coords(lo: int, hi: int, N: int, k: int) -> np.ndarray:
    """Rows of fixed coordinates (0-based) of lines lo..hi-1 in order."""
    weights = np.array([N**t for t in range(k - 2, -1, -1)])  # exact past int64
    return (np.arange(lo, hi)[:, None] // weights % N).astype(np.int64)


def _line_inputs(psi_arr: np.ndarray, coords: np.ndarray, axis: int,
                 b: int, k: int) -> np.ndarray:
    """Inputs for a batch of lines: every line repeated N times with the
    block of the swept axis running through all of GF(q)^b."""
    N = psi_arr.shape[0]
    L = coords.shape[0]
    inputs = np.zeros((L * N, b * k), dtype=psi_arr.dtype)
    others = [j for j in range(k) if j != axis - 1]
    for t, j in enumerate(others):
        inputs[:, b * j:b * (j + 1)] = np.repeat(psi_arr[coords[:, t]], N, axis=0)
    j = axis - 1
    inputs[:, b * j:b * (j + 1)] = np.tile(psi_arr, (L, 1))
    return inputs


def _line_values(rule: Rule, enc: tuple, axis: int, coords: np.ndarray,
                 b: int, k: int) -> np.ndarray:
    """0-based entries of the lines along ``axis`` through each row of
    ``coords`` (the other k-1 coordinates, 0-based), as an (L, N) array;
    ``enc`` is the encoding from :func:`_psi_array`."""
    outs = apply_ca_batch(rule, _line_inputs(enc[0], coords, axis, b, k))
    return (outs.astype(np.int64) @ enc[1]).reshape(len(coords), -1)


def _first_failure(rule: Rule, enc: tuple, axis: int, coords: np.ndarray,
                   b: int, k: int) -> LatinCheck | None:
    """The first of the lines given as for :func:`_line_values` that
    repeats a value, as a failed LatinCheck; None when there is none."""
    svals = np.sort(_line_values(rule, enc, axis, coords, b, k), axis=1)
    # N entries in 0..N-1 form a permutation iff no two are equal
    dup = svals[:, 1:] == svals[:, :-1]
    bad_lines = dup.any(axis=1)
    bad = int(np.argmax(bad_lines))
    if not bad_lines[bad]:
        return None
    value = int(svals[bad, 1:][dup[bad]][0])
    return LatinCheck(False, axis, tuple(int(c) + 1 for c in coords[bad]),
                      value + 1)


def is_latin(rule: Rule, b: int | None = None, k: int | None = None,
             budget: int = DEFAULT_ENTRY_BUDGET,
             axis_subset: Iterable[int] | None = None) -> LatinCheck:
    """Brute-force Latin test: evaluate every axis-parallel line and check
    each is a permutation of 1..N.

    Axes are scanned in order and lines in lexicographic order of their
    fixed coordinates, so the reported counterexample is deterministic.
    Raises BudgetExceededError for cubes with more than ``budget`` entries.
    """
    b, k, N = _cube_shape(rule, b, k, budget)
    axes = tuple(range(1, k + 1)) if axis_subset is None else tuple(axis_subset)
    for a in axes:
        if not 1 <= a <= k:
            raise ValueError(f"axis {a} out of range 1..{k}")
    enc = _psi_array(rule.field.q, b)
    n_lines = N ** (k - 1)
    chunk = max(1, 65536 // N)
    for axis in axes:
        for lo in range(0, n_lines, chunk):
            coords = _line_coords(lo, min(lo + chunk, n_lines), N, k)
            failure = _first_failure(rule, enc, axis, coords, b, k)
            if failure is not None:
                return failure
    return LatinCheck(True)


def check_random_lines(rule: Rule, n_lines: int = 1000, seed: int = 0,
                       b: int | None = None,
                       k: int | None = None) -> LatinCheck:
    """Sampled Latin test for cubes too large to sweep exhaustively.

    Checks ``n_lines`` independently random axis-parallel lines.  A pass
    is evidence, not proof; a failure is a genuine counterexample.
    """
    b, k = block_structure(rule, b, k)
    N = rule.field.q**b
    rng = random.Random(seed)
    enc = _psi_array(rule.field.q, b)
    for _ in range(n_lines):
        axis = rng.randrange(k) + 1
        coords = np.array([[rng.randrange(N) for _ in range(k - 1)]])
        failure = _first_failure(rule, enc, axis, coords, b, k)
        if failure is not None:
            return failure
    return LatinCheck(True)


def dump(rule: Rule, b: int | None = None, k: int | None = None,
         budget: int = DEFAULT_ENTRY_BUDGET) -> dict:
    """All cube entries as nested lists, plus the rule parameters.

    ``layers`` holds one N x N block (rows i_1, columns i_2) for each
    assignment of the remaining indices, in lexicographic order of
    (i_3, ..., i_k); a square has exactly one layer.  Entries are the
    1-based values.  The header records the field as rule JSON does.
    """
    b, k, N = _cube_shape(rule, b, k, budget)
    enc = _psi_array(rule.field.q, b)
    # layer rows are the lines along axis 2 through (i_1, i_3, ..., i_k)
    n_lines, chunk = N ** (k - 1), N * max(1, 65536 // N**2)
    layers = []
    for lo in range(0, n_lines, chunk):
        coords = np.roll(_line_coords(lo, min(lo + chunk, n_lines), N, k), 1,
                         axis=1)
        vals = _line_values(rule, enc, 2, coords, b, k) + 1
        layers += vals.reshape(-1, N, N).tolist()
    out = {**rule.field.short_json(), "b": b, "k": k}
    if isinstance(rule, LinearRule):
        out["coeffs"] = list(rule.coeffs)
    elif isinstance(rule, GeneralBipermutiveRule):
        out["d"] = rule.d
        out["g_table"] = list(rule.g_table)
    out["layers"] = layers
    return out


def dump_text(rule: Rule, b: int | None = None, k: int | None = None,
              budget: int = DEFAULT_ENTRY_BUDGET) -> str:
    """Human-readable rendering of :func:`dump`."""
    data = dump(rule, b, k, budget)
    b, k = data["b"], data["k"]
    N = data["q"] ** b
    width = len(str(N))
    lines: list[str] = []
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


def _count_latin_range(args: tuple) -> int:
    field_json, b, k, lo, hi, budget = args
    rules = enumerate_linear_rules(GF.from_json(field_json), b, k)
    return sum(bool(is_latin(rule, budget=budget))
               for rule in itertools.islice(rules, lo, hi))


def count_latin_rules(field: GF, b: int, k: int,
                      budget: int = DEFAULT_ENTRY_BUDGET,
                      workers: int | None = None) -> int:
    """Count, by exhaustive verification, the linear rules whose (b, k)
    cube is Latin.

    ``budget`` bounds rules times cube entries; ``workers`` greater than 1
    spreads the rule range over that many processes.
    """
    if b < 1 or k < 2:
        raise ValueError(f"need b >= 1 and k >= 2, got b={b}, k={k}")
    q = field.q
    n = b * (k - 1) - 1
    total = q**n
    if total * q ** (b * k) > budget:
        raise BudgetExceededError(
            f"{total} rules x {q**b}^{k} entries exceeds budget {budget}")
    if workers and workers > 1 and total > 1:
        chunks = min(total, workers * 4)
        bounds = [total * i // chunks for i in range(chunks + 1)]
        jobs = [(field.to_json(), b, k, bounds[i], bounds[i + 1], budget)
                for i in range(chunks)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(_count_latin_range, jobs))
    return _count_latin_range((field.to_json(), b, k, 0, total, budget))
