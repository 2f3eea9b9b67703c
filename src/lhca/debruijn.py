"""De Bruijn graph of the nonsingular windows, and counting through it.

Vertices are the windows of length 2b-1 whose Toeplitz matrix is
nonsingular; there is an edge u -> v exactly when the last b-1
coefficients of u equal the first b-1 of v, i.e. when u and v can appear
as consecutive windows of one linear rule.  A rule with parameters (b, k)
is Latin precisely when its k-2 windows trace a walk in this graph, so
Latin rules are in bijection with walks on k-2 vertices (vertices may
repeat) and counting them is an exact integer walk count.

Everything here uses plain Python integers; the counts grow far beyond
any fixed-width type.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field as dataclass_field

from .errors import BudgetExceededError
from .field import GF
from .hypercube import DEFAULT_ENTRY_BUDGET, count_latin_rules, is_latin
from .rules import (DEFAULT_INT_BITS, LinearRule, count_bipermutive_rules,
                    enumerate_bipermutive_rules)
from .toeplitz import DEFAULT_SUPPORT_BUDGET, support_of_det


def fuse(u: Sequence[int], v: Sequence[int],
         s: int) -> tuple[int, ...] | None:
    """Overlap two tuples in their s boundary entries.

    Returns the concatenation keeping the shared part once when the last
    s entries of u equal the first s of v, and None when they differ;
    absence of a fusion is a value, not an error.  s = 0 always fuses.
    """
    if s < 0 or s > len(u) or s > len(v):
        raise ValueError(f"overlap {s} out of range")
    if s and tuple(u[-s:]) != tuple(v[:s]):
        return None
    return tuple(u) + tuple(v[s:])


@dataclass(frozen=True)
class DetGraph:
    """The de Bruijn graph on nonsingular windows for one (q, b).

    ``vertices`` is lexicographically sorted; ``succ`` holds, per vertex,
    the sorted indices of its successors.
    """

    field: GF
    b: int
    vertices: tuple[tuple[int, ...], ...]
    succ: tuple[tuple[int, ...], ...]
    _index: dict = dataclass_field(repr=False, hash=False, compare=False,
                                   default_factory=dict)

    def __post_init__(self):
        self._index.update((v, i) for i, v in enumerate(self.vertices))

    def index(self, vertex: Sequence[int]) -> int:
        try:
            return self._index[tuple(vertex)]
        except KeyError:
            raise ValueError(f"{tuple(vertex)} is not a vertex") from None

    def successors(self, vertex: Sequence[int]) -> list[tuple[int, ...]]:
        return [self.vertices[j] for j in self.succ[self.index(vertex)]]

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(self.vertices[i], self.vertices[j])
                for i in range(len(self.vertices)) for j in self.succ[i]]

    def out_degrees(self) -> list[int]:
        return [len(s) for s in self.succ]

    def in_degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for s in self.succ:
            for j in s:
                deg[j] += 1
        return deg

    def to_json(self) -> dict:
        """Vertices as cell lists, edges as index pairs into ``vertices``."""
        return {
            "q": self.field.q,
            "b": self.b,
            "vertices": [list(v) for v in self.vertices],
            "edges": [[i, j] for i in range(len(self.vertices))
                      for j in self.succ[i]],
        }

    def to_dot(self) -> str:
        def label(v):
            return "".join(str(c) for c in v)

        lines = ["digraph det_support {"]
        for v in self.vertices:
            lines.append(f'  "{label(v)}";')
        for u, v in self.edges():
            lines.append(f'  "{label(u)}" -> "{label(v)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(field: GF, b: int,
                budget: int = DEFAULT_SUPPORT_BUDGET) -> DetGraph:
    """Graph over the nonsingular windows of length 2b-1.

    The successors of a vertex depend only on its last b-1 coefficients,
    so the vertices fall into successor classes, one per such suffix, and
    every vertex of a class holds the same successor tuple object: one
    tuple per class, not one copy per vertex.
    """
    supp = support_of_det(field, b, budget)
    if b == 1:
        # length-1 windows carry no overlap: complete digraph with loops
        all_idx = tuple(range(len(supp)))
        return DetGraph(field, b, tuple(supp), tuple(all_idx for _ in supp))
    heads: dict[tuple[int, ...], list[int]] = {}
    for j, v in enumerate(supp):
        heads.setdefault(v[:b - 1], []).append(j)
    shared = {head: tuple(js) for head, js in heads.items()}
    succ = tuple(shared.get(u[-(b - 1):], ()) for u in supp)
    return DetGraph(field, b, tuple(supp), succ)


def _suffix_counts(graph: DetGraph, length: int,
                   max_bits: int) -> Iterator[list[int]]:
    """Walk counts by start vertex for 0, 1, ..., ``length`` edges, by
    iterated vector-adjacency products in exact integer arithmetic.

    Vertices with equal successor tuples (the successor classes, which
    :func:`build_graph` shares as one tuple each) have equal counts after
    a step, so the vertices are grouped by ``succ`` once, and each step
    is one sum per class and one lookup per vertex.  The grouping compares
    tuples by value, so any graph works, shared tuples or not; it costs
    O(edges) once per call.
    """
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    classes: dict[tuple[int, ...], int] = {}
    of_vertex = [classes.setdefault(s, len(classes)) for s in graph.succ]
    weight = [1] * len(graph.vertices)
    yield weight
    for _ in range(length):
        sums = [sum(map(weight.__getitem__, s)) for s in classes]
        if sums and max(sums).bit_length() > max_bits:
            raise BudgetExceededError(
                f"walk count exceeds the {max_bits}-bit budget")
        weight = list(map(sums.__getitem__, of_vertex))
        yield weight


def count_paths(graph: DetGraph, length: int,
                max_bits: int = DEFAULT_INT_BITS) -> int:
    """Number of walks with ``length`` edges; vertices may repeat.

    Length 0 counts the vertices.
    """
    for weight in _suffix_counts(graph, length, max_bits):
        pass
    return sum(weight)


def unrank_path(graph: DetGraph, length: int, index: int,
                max_bits: int = DEFAULT_INT_BITS
                ) -> tuple[tuple[int, ...], ...]:
    """Walk number ``index`` (0-based) of :func:`enumerate_paths`, found
    without enumerating: each vertex is chosen by the counts of the walks
    that continue from it, so the work is O(length x edges) big-int sums
    however large the index."""
    counts = list(_suffix_counts(graph, length, max_bits))
    total = sum(counts[-1])
    if not 0 <= index < total:
        raise ValueError(f"walk index {index} out of range 0..{total - 1}")
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


def enumerate_paths(graph: DetGraph, length: int,
                    budget: int = 1 << 20) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All walks with ``length`` edges (length+1 vertices), lexicographic
    by vertex encoding.

    Raises BudgetExceededError up front when there are more than
    ``budget`` walks.
    """
    total = count_paths(graph, length)
    if total > budget:
        raise BudgetExceededError(
            f"{total} walks exceed the enumeration budget {budget}")

    # an explicit stack, not recursion; successors pushed reversed pop in order
    vs = graph.vertices
    stack = [((vs[i],), i) for i in reversed(range(len(vs)))]
    while stack:
        walk, i = stack.pop()
        if len(walk) == length + 1:
            yield walk
        else:
            stack.extend((walk + (vs[j],), j) for j in reversed(graph.succ[i]))


def rule_from_path(field: GF, path: Sequence[Sequence[int]]) -> LinearRule:
    """The linear rule whose windows are the given walk.

    Consecutive windows must overlap in b-1 coefficients; fusing them all
    recovers the d-2 interior coefficients of a rule with k = len(path)+2.
    Inverse of :func:`lhca.toeplitz.windows`.
    """
    if not path:
        raise ValueError("need at least one window")
    first = tuple(path[0])
    if len(first) % 2 == 0:
        raise ValueError(f"window length {len(first)} is not 2b-1")
    b = (len(first) + 1) // 2
    coeffs: tuple[int, ...] | None = first
    for w in path[1:]:
        if len(w) != 2 * b - 1:
            raise ValueError("windows have mixed lengths")
        coeffs = fuse(coeffs, w, b - 1)
        if coeffs is None:
            raise ValueError(
                f"consecutive windows do not overlap in {b - 1} entries")
    k = len(path) + 2
    return LinearRule(field, b, k, coeffs)


def latin_hypercube_count(field: GF, b: int, k: int, verify: bool = False,
                          budget: int = DEFAULT_SUPPORT_BUDGET,
                          entry_budget: int | None = None,
                          max_bits: int = DEFAULT_INT_BITS) -> int:
    """Number of rules with a Latin (b, k) cube.

    Closed form (q-1)^{k-2} q^{(k-1)(b-1)} over linear rules for k >= 3;
    for k = 2 every bipermutive rule qualifies, giving q^{q^{b-1}} counted
    over all bipermutive rules.  ``verify`` checks it by
    :func:`cross_check_count`, with ``entry_budget`` defaulting to the
    standard entry budget.
    """
    if verify:
        cap = DEFAULT_ENTRY_BUDGET if entry_budget is None else entry_budget
        return cross_check_count(field, b, k, budget, cap, max_bits)["formula"]
    if b < 1 or k < 2:
        raise ValueError(f"need b >= 1 and k >= 2, got b={b}, k={k}")
    q = field.q
    if k == 2:
        return count_bipermutive_rules(field, b, max_bits)
    bits = (k - 2) * max(q - 1, 1).bit_length() + (k - 1) * (b - 1) * q.bit_length()
    if bits > max_bits:
        raise BudgetExceededError(
            f"count for q={q}, b={b}, k={k} exceeds the {max_bits}-bit budget")
    return (q - 1) ** (k - 2) * q ** ((k - 1) * (b - 1))


def cross_check_count(field: GF, b: int, k: int, budget: int,
                      entry_budget: int, max_bits: int = DEFAULT_INT_BITS,
                      workers: int | None = None) -> dict[str, int]:
    """The single count cross-check.  Returns the closed form ``formula``,
    the walk count ``paths`` (k >= 3) and, when rules times cube entries
    fit ``entry_budget``, the ``exhaustive`` sweep of every linear (k >= 3)
    or bipermutive (k = 2) rule.  A mismatch fails an assertion; a k = 2
    sweep over budget, the only check there, raises BudgetExceededError.
    """
    formula = latin_hypercube_count(field, b, k, max_bits=max_bits)
    counts = {"formula": formula}
    q = field.q
    if k >= 3:
        counts["paths"] = count_paths(build_graph(field, b, budget), k - 3,
                                      max_bits)
        if q ** (b * (k - 1) - 1) * q ** (b * k) <= entry_budget:
            counts["exhaustive"] = count_latin_rules(field, b, k, entry_budget,
                                                     workers)
    elif formula * q ** (2 * b) > entry_budget:
        raise BudgetExceededError(f"{formula} rules x {q**b}^2 entries "
                                  f"exceeds budget {entry_budget}")
    else:
        counts["exhaustive"] = sum(
            bool(is_latin(r, budget=entry_budget))
            for r in enumerate_bipermutive_rules(field, b, max_bits))
    assert all(n == formula for n in counts.values()), (
        f"counts {counts} disagree for q={q}, b={b}, k={k}")
    return counts
