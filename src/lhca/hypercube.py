"""Hypercubes of order q^b built by running a cellular automaton once.

The cube of a rule with parameters (b, k) is the k-dimensional array
of order N = q^b whose entry at (i_1, ..., i_k) is computed by encoding
each 1-based index as a block of b cells (the base-q digits of i-1,
leftmost cell least significant), concatenating the k blocks into a
configuration of bk cells, applying the global map once, and decoding the
b output cells back to an index.  A rule is read with its own (b, k):
a linear rule's declared pair, a general one's square b = d-1, k = 2.
Only ``is_latin`` and ``check_random_lines`` take another reading.

The array is Latin when every axis-parallel line hits every value exactly
once.  ``is_latin`` verifies this by direct evaluation of every line, in
vectorized chunks; it deliberately knows nothing about the algebraic
criterion in ``toeplitz`` so the two routes stay independently checkable.

``is_latin``, ``check_random_lines`` and ``dump`` all read the cube through
one line evaluator: build the inputs of a batch of lines, each along its
own axis, column-major, run the global map once with the cells-major
``apply_ca_batch``, decode.  ``dump`` gives axis 2 to a whole batch,
``is_latin`` each line the axis of its place in its scan order, and
``check_random_lines`` each drawn line its drawn axis.  The inputs of
``is_latin``'s batches depend only on the cube shape, never on the rule,
so they are built once and shared through a module cache of read-only
arrays capped at 8 MiB.  Dumps read the cube as blocks of whole N x N
layers, about 65536 entries each, and render each block with one join.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, bounded_power
from .field import GF, _as_int
from .rules import (
    Rule,
    apply_ca,
    apply_ca_batch,
    block_structure,
    enumerate_linear_rules,
    rank_cells,
    unrank_cells,
)

DEFAULT_ENTRY_BUDGET = 1 << 24
_BATCH_ROWS = 65536  # rows per apply_ca_batch call; --seed lines depend on it
# Largest inputs of one sampled line, in bytes; also keeps N below 2^32.
SAMPLED_LINE_BYTES = 1 << 30


def psi(i: int, q: int, b: int) -> tuple[int, ...]:
    """Encode a 1-based index 1 <= i <= q^b as a block of b cells; the
    leftmost cell is the least significant base-q digit of i-1."""
    if (type(i := _as_int(i)) is not int or i < 1 or b < 0
            or bounded_power(q, b, i - 1) is not None):
        raise ValueError(f"index {i} out of range 1..{q}^{b}")
    return unrank_cells(i - 1, q, b)


def psi_inverse(cells: Sequence[int], q: int) -> int:
    """Decode a block of cells back to its 1-based index."""
    for c in cells:
        if not 0 <= c < q:
            raise ValueError(f"cell value {c} out of range for q={q}")
    return rank_cells(cells, q) + 1


def entry(rule: Rule, idx: Sequence[int]) -> int:
    """The cube entry at the 1-based position idx = (i_1, ..., i_k)."""
    b, k = block_structure(rule)
    q = rule.field.q
    if len(idx) != k:
        raise ValueError(f"expected {k} indices, got {len(idx)}")
    cells = [c for i in idx for c in psi(i, q, b)]
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


def _cube_shape(rule: Rule, b: int | None, k: int | None,
                budget: int) -> tuple[int, int, int]:
    """(b, k, N) of the cube; BudgetExceededError above ``budget`` entries."""
    b, k = block_structure(rule, b, k)
    N = rule.field.q**b
    if bounded_power(N, k, budget) is None:
        raise BudgetExceededError(
            f"cube with {N}^{k} entries exceeds budget {budget}")
    return b, k, N


def _line_coords(lo: int, hi: int, N: int, k: int) -> np.ndarray:
    """Rows of fixed coordinates (0-based) of lines lo..hi-1, mod N^(k-1)."""
    weights = np.array([N**t for t in range(k - 2, -1, -1)])  # exact past 2^63
    return (np.arange(lo, hi)[:, None] // weights % N).astype(np.int64)


def _line_inputs(field: GF, b: int, k: int, axis: int | np.ndarray,
                 coords: np.ndarray) -> np.ndarray:
    """Inputs for a batch of lines, column-major, in the field's ``dtype``:
    the line along ``axis[l]`` (1-based; one int stands for every line)
    through row l of ``coords`` (its other k-1 coordinates, 0-based, in
    increasing axis order) fills rows l*N .. l*N+N-1, with the block of
    its swept axis running through all of GF(q)^b.  Each block holds the
    base-q digits of its coordinate, least significant first."""
    q = field.q
    N = q**b
    L = len(coords)
    swept = np.reshape(np.asarray(axis) - 1, -1)
    j = np.arange(k)
    ct = coords.T
    # coordinate of block j of each line; the swept block reads a stand-in
    full = np.where(j[:, None] > swept, ct[np.maximum(j - 1, 0)],
                    ct[np.minimum(j, k - 2)])
    cells = np.empty((k, b, L, N), dtype=field.dtype)
    for c in range(b):
        full, digit = np.divmod(full, q)
        cells[:, c] = digit.astype(field.dtype)[:, :, None]
        cells[swept, c, np.arange(L)] = np.arange(N) // q**c % q
    return cells.reshape(b * k, L * N).T


# Inputs of is_latin's batches, keyed on (q, b, k, lo, hi) over the scan
# order: they do not depend on the rule, so every rule of a cube shape
# shares them.  Least recently used entries go once the arrays pass the cap.
_INPUT_CACHE_BYTES = 8 << 20
_input_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
_input_cache_bytes = 0
_input_cache_lock = threading.Lock()


def _scan_inputs(field: GF, b: int, k: int, lo: int, hi: int) -> np.ndarray:
    """Read-only inputs of lines lo..hi-1 of is_latin's scan, cached."""
    global _input_cache_bytes
    key = (field.q, b, k, lo, hi)
    with _input_cache_lock:
        inputs = _input_cache.get(key)
        if inputs is not None:
            _input_cache.move_to_end(key)
            return inputs
    N = field.q**b
    inputs = _line_inputs(field, b, k, np.arange(lo, hi) // N ** (k - 1) + 1,
                          _line_coords(lo, hi, N, k))
    inputs.flags.writeable = False
    with _input_cache_lock:
        # another thread may have built the same key meanwhile
        if _input_cache.setdefault(key, inputs) is inputs:
            _input_cache_bytes += inputs.nbytes
        while _input_cache_bytes > _INPUT_CACHE_BYTES:
            _input_cache_bytes -= _input_cache.popitem(last=False)[1].nbytes
    return inputs


def _line_values(rule: Rule, inputs: np.ndarray, b: int) -> np.ndarray:
    """0-based entries of the lines whose inputs :func:`_line_inputs`
    built, as an (L, N) array."""
    q = rule.field.q
    outs = apply_ca_batch(rule, inputs).T
    vals = outs[b - 1].astype(np.intp)
    for c in range(b - 2, -1, -1):
        vals *= q
        vals += outs[c]
    return vals.reshape(-1, q**b)


def _first_repeat(vals: np.ndarray) -> tuple[int, int] | None:
    """(row, value) for the first row of ``vals`` that repeats a value,
    with the smallest value it repeats; None when every row of N entries
    in 0..N-1 is a permutation."""
    L, N = vals.shape
    seen = np.zeros(L * N, dtype=bool)
    seen[(vals + np.arange(0, L * N, N)[:, None]).ravel()] = True
    if seen.all():
        return None
    bad = int(np.argmin(seen.reshape(L, N).all(axis=1)))
    return bad, int(np.argmax(np.bincount(vals[bad], minlength=N) > 1))


def is_latin(rule: Rule, b: int | None = None, k: int | None = None,
             budget: int = DEFAULT_ENTRY_BUDGET) -> LatinCheck:
    """Brute-force Latin test: evaluate every axis-parallel line and check
    each is a permutation of 1..N.

    The lines form one sequence, axis by axis, each axis in lexicographic
    order of its fixed coordinates; the first failing line is reported.
    Each batch is one ``apply_ca_batch`` call: the first holds axes 1 and
    2, each later one twice as many lines, none over ``_BATCH_ROWS`` rows
    (or one line); its inputs, keyed on (q, b, k, lo, hi), are cached.
    Raises BudgetExceededError for cubes with more than ``budget`` entries.
    """
    b, k, N = _cube_shape(rule, b, k, budget)
    n_lines = N ** (k - 1)
    chunk = max(1, _BATCH_ROWS // N)
    lo, size = 0, 2 * n_lines
    while lo < k * n_lines:
        hi = min(lo + size, lo + chunk, k * n_lines)
        inputs = _scan_inputs(rule.field, b, k, lo, hi)
        failure = _first_repeat(_line_values(rule, inputs, b))
        if failure is not None:
            axis, rank = divmod(lo + failure[0], n_lines)
            fixed = tuple(c + 1 for c in unrank_cells(rank, N, k - 1)[::-1])
            return LatinCheck(False, axis + 1, fixed, failure[1] + 1)
        lo, size = hi, 2 * size
    return LatinCheck(True)


def _draw(rng: random.Random, count: int, n: int) -> np.ndarray:
    """``count`` values in 0..n-1 (n < 2^32) from one ``rng.randbytes``:
    little-endian 32-bit words w mapped to (w * n) >> 32."""
    words = np.frombuffer(rng.randbytes(4 * count), dtype="<u4")
    return (words * np.uint64(n) >> np.uint64(32)).astype(np.uint32)


def check_random_lines(rule: Rule, n_lines: int = 1000, seed: int = 0,
                       b: int | None = None,
                       k: int | None = None) -> LatinCheck:
    """Sampled Latin test for cubes too large to sweep exhaustively.

    Checks ``n_lines`` random axis-parallel lines and reports the first
    drawn line that fails.  A pass is evidence, not proof; a failure is a
    genuine counterexample.

    Lines come in batches of ``max(1, 65536 // N)``.  For a batch of L
    lines, ``random.Random(seed)`` gives L axes, then L*(k-1) coordinates
    (line by line, in increasing axis order), each draw one
    ``randbytes`` call read as little-endian 32-bit words w, mapped to
    (w * n) >> 32 for n choices: exactly uniform when n is a power of
    two, and otherwise each value within 2^-32 of probability 1/n.  The
    whole batch, whatever its axes, is one ``apply_ca_batch`` call in
    draw order, so its first failing row is the first failing draw.

    Raises ValueError for a negative ``n_lines``, and BudgetExceededError,
    before allocating, when the inputs of one line (N rows of bk cells in
    the field's ``dtype``) exceed ``SAMPLED_LINE_BYTES``.
    """
    if n_lines < 0:
        raise ValueError(f"n_lines must be >= 0, got {n_lines}")
    b, k = block_structure(rule, b, k)
    N = rule.field.q**b
    line_bytes = N * b * k * np.dtype(rule.field.dtype).itemsize
    if line_bytes > SAMPLED_LINE_BYTES:
        raise BudgetExceededError(
            f"one line of {N} x {b * k} input cells ({line_bytes} bytes) "
            f"exceeds the sampling budget of {SAMPLED_LINE_BYTES} bytes")
    rng = random.Random(seed)
    chunk = max(1, _BATCH_ROWS // N)
    for lo in range(0, n_lines, chunk):
        L = min(chunk, n_lines - lo)
        axes = _draw(rng, L, k) + 1
        coords = _draw(rng, L * (k - 1), N).reshape(L, k - 1)
        inputs = _line_inputs(rule.field, b, k, axes, coords)
        failure = _first_repeat(_line_values(rule, inputs, b))
        if failure is not None:
            i, value = failure
            return LatinCheck(False, int(axes[i]),
                              tuple(int(c) + 1 for c in coords[i]), value + 1)
    return LatinCheck(True)


def _layer_blocks(rule: Rule, b: int, k: int, N: int) -> Iterator[np.ndarray]:
    """The cube's N x N layers in order of (i_3, ..., i_k), as (layers, N, N)
    arrays of 0-based values, one batch each; row i_1 is a line on axis 2."""
    n_lines, chunk = N ** (k - 1), N * max(1, _BATCH_ROWS // N**2)
    for lo in range(0, n_lines, chunk):
        coords = _line_coords(lo, min(lo + chunk, n_lines), N, k)
        inputs = _line_inputs(rule.field, b, k, 2, np.roll(coords, 1, axis=1))
        yield _line_values(rule, inputs, b).reshape(-1, N, N)


def _dump_header(rule: Rule, b: int, k: int) -> dict:
    return {**rule.field.short_json(), "b": b, "k": k, **rule.to_json()}


def dump(rule: Rule, budget: int = DEFAULT_ENTRY_BUDGET) -> dict:
    """All cube entries as nested lists, plus the rule parameters.

    ``layers`` holds one N x N block (rows i_1, columns i_2) for each
    assignment of the remaining indices, in lexicographic order of
    (i_3, ..., i_k); a square has exactly one layer.  Entries are the
    1-based values.  The header records the field as rule JSON does.
    """
    b, k, N = _cube_shape(rule, None, None, budget)
    layers = [layer for block in _layer_blocks(rule, b, k, N)
              for layer in (block + 1).tolist()]
    return {**_dump_header(rule, b, k), "layers": layers}


def _dump_parts(rule: Rule, fmt: str, budget: int) -> Iterator[str]:
    """:func:`dump_json` (``fmt`` "json") or :func:`dump_text` in parts, the
    budget checked at the call: each block of :func:`_layer_blocks`, the
    first after the head, rendered as one list of pieces and one ``join``."""
    b, k, N = _cube_shape(rule, None, None, budget)
    names = [str(v) for v in range(1, N + 1)]
    if fmt == "json":
        # json.dumps(indent=2) opens layers at depth 2, rows at 3, entries 4
        d2, d3, d4 = "\n" + " " * 4, "\n" + " " * 6, "\n" + " " * 8
        # "layers" is the last key: cut its placeholder "[]" and the "}"
        js = json.dumps({**_dump_header(rule, b, k), "layers": []}, indent=2)
        head = js[:-len("[]\n}")] + "[" + d2 + "[" + d3 + "[" + d4
        entry_sep, row_sep = "," + d4, d3 + "]," + d3 + "[" + d4
        layer_seps = itertools.chain(itertools.repeat(
            d3 + "]" + d2 + "]," + d2 + "[" + d3 + "[" + d4, N ** (k - 2) - 1),
            [d3 + "]" + d2 + "]\n  ]\n}\n"])
    else:
        label = "z=" if k == 3 else "layer "
        heads = (label + i + "\n" if k > 2 else "" for i in
                 map(",".join, itertools.product(names, repeat=k - 2)))
        head, entry_sep, row_sep = next(heads), " ", "\n"
        layer_seps = itertools.chain(("\n\n" + h for h in heads), ["\n"])
        names = [v.rjust(len(names[-1])) for v in names]
    strs = np.array(names, dtype=object)
    # the head leads the first block, so a one-block dump is one string
    leads = itertools.chain([head], itertools.repeat(""))

    def render(block: np.ndarray) -> str:
        pieces = [entry_sep] * (2 * block.size + 1)
        pieces[0] = next(leads)
        pieces[1::2] = strs[block.ravel()].tolist()
        pieces[2 * N::2 * N] = [row_sep] * (N * len(block))
        pieces[2 * N * N::2 * N * N] = itertools.islice(layer_seps, len(block))
        return "".join(pieces)
    return map(render, _layer_blocks(rule, b, k, N))


def dump_text(rule: Rule, budget: int = DEFAULT_ENTRY_BUDGET) -> str:
    """Human-readable rendering of :func:`dump`: rows of right-justified
    entries; in a cube (k > 2) each layer is headed by ``z=i`` (k = 3) or
    ``layer a,b,...`` (k > 3), and a blank line parts the layers."""
    return "".join(_dump_parts(rule, "text", budget))


def dump_json(rule: Rule, budget: int = DEFAULT_ENTRY_BUDGET) -> str:
    """:func:`dump` as JSON: exactly ``json.dumps(dump(...), indent=2)``
    and a newline, with the layers written by one join per block instead
    of the encoder's one step per entry."""
    return "".join(_dump_parts(rule, "json", budget))


def count_latin_rules(field: GF, b: int, k: int,
                      budget: int = DEFAULT_ENTRY_BUDGET) -> int:
    """Count the linear rules whose (b, k) cube is Latin by sweeping each in
    turn with :func:`is_latin`; ``budget`` bounds rules times entries."""
    if b < 1 or k < 2:
        raise ValueError(f"need b >= 1 and k >= 2, got b={b}, k={k}")
    q = field.q
    n = b * (k - 1) - 1
    if bounded_power(q, n + b * k, budget) is None:
        raise BudgetExceededError(
            f"{q}^{n} rules x {q}^{b * k} entries exceeds budget {budget}")
    return sum(bool(is_latin(rule, budget=budget))
               for rule in enumerate_linear_rules(field, b, k))
