"""De Bruijn graph of the nonsingular windows, and counting through it.

Vertices are the windows of length 2b-1 whose Toeplitz matrix is
nonsingular; there is an edge u -> v exactly when the last b-1
coefficients of u equal the first b-1 of v, i.e. when u and v can appear
as consecutive windows of one linear rule.  A rule with parameters (b, k)
is Latin precisely when its k-2 windows trace a walk in this graph, so
Latin rules are in bijection with walks on k-2 vertices (vertices may
repeat) and counting them is an exact integer walk count.

A graph is two arrays: the sorted vertices, the rows ``support_of_det``
returns, and the tail rank of each, the base-q rank of its last b-1
coefficients.  The graph is regular, every out-degree D = (q-1) q^(b-1),
and :class:`DetGraph` refuses one that is not: the D completions of each
(b-1)-prefix are one run, so u's successors are the indices tail[u]*D to
tail[u]*D + D-1.  Each vertex starts D^L walks of L edges; walk i starts
at vertex i // D^L and steps by the base-D digits of the rest, which
``unrank_path`` reads off one index and ``enumerate_paths`` off an array.
Counts are Python integers; they grow far beyond any fixed-width type.
"""

from __future__ import annotations

import bisect
import contextlib
import operator
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, CrossCheckError, bounded_power
from .field import GF
from .hypercube import DEFAULT_ENTRY_BUDGET, count_latin_rules, is_latin
from .rules import (_INT_CAP, DEFAULT_INT_BITS, LinearRule,
                    count_bipermutive_rules, enumerate_bipermutive_rules)
from .toeplitz import DEFAULT_SUPPORT_BUDGET, support_of_det

_CHUNK_CELLS = 1 << 16  # walk cells per chunk of enumerate_paths


class _View(Sequence):
    """A read-only sequence, item i ``make(rows[i].tolist())`` built as it
    is read; a slice is a list, and iterating reads ``rows`` once."""

    def __init__(self, rows: np.ndarray, make):
        self._rows, self._make = rows, make

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return map(self._make, self._rows.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._make, self._rows[i].tolist()))
        return self._make(self._rows[i].tolist())


class DetGraph:
    """The de Bruijn graph on nonsingular windows for one (q, b).

    ``support`` holds the V vertices, strictly increasing, as the rows of
    a read-only (V, 2b-1) array of the field's dtype, and ``tail`` the
    base-q rank of each one's last b-1 coefficients.  Each (b-1)-prefix
    heads ``degree`` = D vertices, so u's successors are ``succ[u]`` =
    ``range(tail[u]*D, tail[u]*D + D)``.  ``vertices`` and ``succ`` are
    read-only sequences of vertex tuples and of these ranges.  ``succ``,
    when given, must be exactly these runs.  ValueError otherwise.  A
    read-only array already in the field's dtype is held, not copied.
    """

    def __init__(self, field: GF, b: int, vertices,
                 succ: Sequence[Sequence[int]] | None = None):
        q, classes = field.q, field.q ** (b - 1)
        rows = np.asarray(vertices)  # every cell checked before the cast
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                          or rows.max() >= q) or len(rows := rows.astype(
                field.dtype, copy=rows.flags.writeable).reshape(
                    -1, 2 * b - 1)) != len(vertices):
            raise ValueError(f"vertices are not windows over {field!r}")
        degree, uneven = divmod(len(rows), classes)
        rank = np.zeros(len(rows), dtype=np.int64)
        for column in rows.T:
            rank = rank * q + column
        # bincount only once the classes are known to be at most V
        if uneven or len(rows) and (np.bincount(
                rank // q ** b, minlength=classes) != degree).any():
            raise ValueError("out-degrees differ; the window graph is regular")
        if (np.diff(rank) <= 0).any():
            raise ValueError("vertices are not strictly increasing")
        self.field, self.b, self.degree = field, b, degree
        self.support, self.tail = rows, rank % classes
        rows.flags.writeable = self.tail.flags.writeable = False
        self.vertices = _View(rows, tuple)
        self.succ = _View(self.tail,
                          lambda t: range(t * degree, (t + 1) * degree))
        if succ is not None and (len(succ) != len(rows) or any(
                map(operator.ne, map(tuple, succ), map(tuple, self.succ)))):
            raise ValueError("successors are not the overlap runs")

    def index(self, vertex: Sequence[int]) -> int:
        i = bisect.bisect_left(self.vertices, vertex := tuple(vertex))
        if i == len(self.vertices) or self.vertices[i] != vertex:
            raise ValueError(f"{vertex} is not a vertex")
        return i

    def successors(self, vertex: Sequence[int]) -> list[tuple[int, ...]]:
        return [self.vertices[j] for j in self.succ[self.index(vertex)]]

    def _edge_array(self) -> np.ndarray:
        """Every edge as a row (u, v) of vertex indices, in order."""
        heads = self.tail[:, None] * self.degree + np.arange(self.degree)
        return np.stack((np.repeat(np.arange(len(heads)), self.degree),
                         heads.ravel()), axis=1)

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        vs = list(map(tuple, self.support.tolist()))
        return [(vs[i], vs[j]) for i, j in self._edge_array().tolist()]

    def in_degrees(self) -> list[int]:
        # the predecessors of v are the vertices whose tail heads v's run
        classes = len(self.tail) // max(self.degree, 1)
        return np.repeat(np.bincount(self.tail, minlength=classes),
                         self.degree).tolist()

    def to_json(self) -> dict:
        """Vertices as cell lists, edges as index pairs into ``vertices``;
        the field is written as rule JSON writes it."""
        return {**self.field.short_json(), "b": self.b,
                "vertices": self.support.tolist(),
                "edges": self._edge_array().tolist()}

    def to_dot(self) -> str:
        labels = ["".join(map(str, v)) for v in self.support.tolist()]
        return "\n".join(["digraph det_support {",
                          *(f'  "{v}";' for v in labels),
                          *(f'  "{labels[i]}" -> "{labels[j]}";'
                            for i, j in self._edge_array().tolist()),
                          "}", ""])


def build_graph(field: GF, b: int,
                budget: int = DEFAULT_SUPPORT_BUDGET) -> DetGraph:
    """Graph over the nonsingular windows of length 2b-1, the sorted rows
    of ``support_of_det``; at b = 1 every tail is empty, so the graph is
    complete, loops included; CrossCheckError if DetGraph refuses it."""
    support = support_of_det(field, b, budget)
    support.flags.writeable = False  # the graph's own: held, not copied
    try:
        return DetGraph(field, b, support)
    except ValueError as exc:
        raise CrossCheckError(f"{field!r}, b={b}: {exc}") from None


def count_paths(graph: DetGraph, length: int) -> int:
    """Number of walks with ``length`` edges; vertices may repeat.

    Every vertex starts D^length walks, so there are V * D^length, V and
    D read off the built graph: a graph with wrong windows or edges still
    disagrees with the closed form.  BudgetExceededError when the count
    passes ``DEFAULT_INT_BITS`` bits, D^length built once at most.
    """
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    walks = bounded_power(graph.degree, length, _INT_CAP)
    if walks is None or (total := len(graph.vertices) * walks) > _INT_CAP:
        raise BudgetExceededError(
            f"walk count exceeds the {DEFAULT_INT_BITS}-bit budget")
    return total


def unrank_path(graph: DetGraph, length: int,
                index: int) -> tuple[tuple[int, ...], ...]:
    """Walk number ``index`` (0-based) of :func:`enumerate_paths`, found
    without enumerating.

    Each vertex starts D^length walks, D the out-degree, so the walk
    starts at vertex ``index // D**length`` and the base-D digits of the
    rest, most significant first, pick the successors.  Digit t steps
    from vertex v to tail[v]*D + t.  Only the visited vertices are built,
    each once, and all visits of one vertex share its tuple.  The total
    and its refusal are :func:`count_paths`'s.
    """
    degree, total = graph.degree, count_paths(graph, length)
    if not 0 <= index < total:
        raise ValueError(f"walk index {index} out of range for "
                         f"{len(graph.vertices)} * {degree}^{length} walks")
    start, rest = divmod(index, total // len(graph.vertices))
    # the rest split by halves, D^(2^j) dividing each part of level j and
    # each power built once: quadratic still under schoolbook division,
    # but a fraction of one division of the whole rest per word of digits
    powers = [degree]
    while 2 ** len(powers) < length:
        powers.append(powers[-1] ** 2)
    digits = [rest]
    for power in reversed(powers):
        digits = [d for n in digits for d in divmod(n, power)]
    walk = [start]
    for digit in digits[len(digits) - length:]:  # past the leading zeros
        walk.append(graph.tail.item(walk[-1]) * degree + digit)
    vertex = {v: graph.vertices[v] for v in set(walk)}
    return tuple(map(vertex.__getitem__, walk))


def _walk_total(graph: DetGraph, length: int, budget: int) -> int:
    """The V * D^length walks :func:`enumerate_paths` yields, refused
    before the count is built when they are more than ``budget``, or
    than :func:`count_paths` admits, which also reads an empty graph."""
    vertices = len(graph.vertices)
    if not vertices or length < 0:
        return count_paths(graph, length)
    # V * D^L > budget exactly when D^L > budget // V
    walks = bounded_power(graph.degree, length,
                          min(budget, _INT_CAP) // vertices)
    if walks is None:
        raise BudgetExceededError(
            f"{vertices} * {graph.degree}^{length} walks exceed "
            f"the enumeration budget {budget}")
    return vertices * walks


def enumerate_paths(graph: DetGraph, length: int,
                    budget: int = DEFAULT_SUPPORT_BUDGET
                    ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All walks with ``length`` edges (length+1 vertices), lexicographic
    by vertex encoding: walk i is :func:`unrank_path`'s, found for about
    ``_CHUNK_CELLS`` walk cells at a time.  BudgetExceededError up front
    when the walks are more than ``budget``."""
    total, degree = _walk_total(graph, length, budget), graph.degree
    vs = np.fromiter(map(tuple, graph.support.tolist()), dtype=object,
                     count=len(graph.tail))
    rows = max(1, _CHUNK_CELLS // (length + 1))
    for lo in range(0, total, rows):
        at = np.empty((min(rows, total - lo), length + 1), dtype=np.int64)
        rest = np.arange(lo, lo + len(at))
        for s in range(length, 0, -1):  # the last digit first
            rest, at[:, s] = np.divmod(rest, degree)
        at[:, 0] = rest  # the start vertex, i // D^length
        for s in range(length):
            at[:, s + 1] += graph.tail[at[:, s]] * degree
        yield from zip(*vs[at.T].tolist())


def rule_from_path(field: GF, path: Sequence[Sequence[int]]) -> LinearRule:
    """The linear rule whose windows are the given walk.

    Consecutive windows must overlap in b-1 coefficients; fusing them all
    recovers the d-2 interior coefficients of a rule with k = len(path)+2.
    Each window is checked against the one before it, so the work is
    linear in k.  Inverse of :func:`lhca.toeplitz.windows`.
    """
    if not path:
        raise ValueError("need at least one window")
    prev = tuple(path[0])
    b, even = divmod(len(prev) + 1, 2)
    if even:
        raise ValueError(f"window length {len(prev)} is not 2b-1")
    coeffs = list(prev)
    for w in map(tuple, path[1:]):
        if len(w) != 2 * b - 1:
            raise ValueError("windows have mixed lengths")
        if w[:b - 1] != prev[b:]:
            raise ValueError(
                f"consecutive windows do not overlap in {b - 1} entries")
        coeffs.extend(w[b - 1:])
        prev = w
    return LinearRule(field, b, len(path) + 2, tuple(coeffs))


def latin_hypercube_count(field: GF, b: int, k: int) -> int:
    """Number of rules with a Latin (b, k) cube.

    Closed form (q-1)^{k-2} q^{(k-1)(b-1)} over linear rules for k >= 3;
    for k = 2 every bipermutive rule qualifies, giving q^{q^{b-1}} counted
    over all bipermutive rules.  :func:`cross_check_count` checks it.  A
    count over ``DEFAULT_INT_BITS`` bits is refused before it is built.
    """
    if b < 1 or k < 2:
        raise ValueError(f"need b >= 1 and k >= 2, got b={b}, k={k}")
    q = field.q
    if k == 2:
        return count_bipermutive_rules(field, b)
    qe = bounded_power(q, (k - 1) * (b - 1), _INT_CAP)
    units = None if qe is None else bounded_power(q - 1, k - 2, _INT_CAP)
    if units is None or (count := units * qe) > _INT_CAP:
        raise BudgetExceededError(
            f"count for q={q}, b={b}, k={k} exceeds the "
            f"{DEFAULT_INT_BITS}-bit budget")
    return count


def cross_check_count(field: GF, b: int, k: int,
                      budget: int = DEFAULT_SUPPORT_BUDGET,
                      entry_budget: int = DEFAULT_ENTRY_BUDGET
                      ) -> dict[str, int]:
    """The single count cross-check: the closed form ``formula``, the walk
    count ``paths`` (k >= 3) of the graph built over ``support_of_det``
    and, when rules times cube entries fit ``entry_budget``, the
    ``exhaustive`` sweep of every linear (k >= 3) or bipermutive (k = 2)
    rule.  A mismatch raises CrossCheckError; a graph or k = 2 sweep over
    budget raises BudgetExceededError before any work.
    """
    formula = latin_hypercube_count(field, b, k)
    counts = {"formula": formula}
    q = field.q
    if k >= 3:
        counts["paths"] = count_paths(build_graph(field, b, budget), k - 3)
        # a sweep over entry_budget is refused before any rule is swept
        with contextlib.suppress(BudgetExceededError):
            counts["exhaustive"] = count_latin_rules(field, b, k, entry_budget)
    elif bounded_power(q, 2 * b, entry_budget // formula) is None:
        raise BudgetExceededError(f"{q}^{q ** (b - 1)} rules x {q}^{2 * b} "
                                  f"entries exceeds budget {entry_budget}")
    else:
        counts["exhaustive"] = sum(
            bool(is_latin(r, budget=entry_budget))
            for r in enumerate_bipermutive_rules(field, b))
    if any(n != formula for n in counts.values()):
        raise CrossCheckError(
            f"counts {counts} disagree for q={q}, b={b}, k={k}")
    return counts
