"""De Bruijn graph of the nonsingular windows, and counting through it.

Vertices are the windows of length 2b-1 whose Toeplitz matrix is
nonsingular; there is an edge u -> v exactly when the last b-1
coefficients of u equal the first b-1 of v, i.e. when u and v can appear
as consecutive windows of one linear rule.  A rule with parameters (b, k)
is Latin precisely when its k-2 windows trace a walk in this graph, so
Latin rules are in bijection with walks on k-2 vertices (vertices may
repeat) and counting them is an exact integer walk count.

The graph is regular, every out-degree D = (q-1) q^(b-1), and
:class:`DetGraph` refuses one that is not.  So each vertex starts D^L
walks of L edges, and a walk is unranked from the base-D digits of its
index, with no table of walk counts however long it is.

Everything here uses plain Python integers; the counts grow far beyond
any fixed-width type.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field as dataclass_field

from .errors import BudgetExceededError, power_exceeds
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
    the sorted indices of its successors.  Every vertex has the same
    out-degree ``degree``; ValueError otherwise.
    """

    field: GF
    b: int
    vertices: tuple[tuple[int, ...], ...]
    succ: tuple[tuple[int, ...], ...]
    _index: dict = dataclass_field(repr=False, hash=False, compare=False,
                                   default_factory=dict)

    def __post_init__(self):
        if len(set(map(len, self.succ))) > 1:
            raise ValueError("out-degrees differ; the window graph is regular")
        self._index.update((v, i) for i, v in enumerate(self.vertices))

    @property
    def degree(self) -> int:
        """The out-degree shared by every vertex (0 with no vertices)."""
        return len(self.succ[0]) if self.succ else 0

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
        """Vertices as cell lists, edges as index pairs into ``vertices``;
        the field is written as rule JSON writes it."""
        return {
            **self.field.short_json(),
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
    heads: dict[tuple[int, ...], list[int]] = {}
    for j, v in enumerate(supp):
        heads.setdefault(v[:b - 1], []).append(j)
    shared = {head: tuple(js) for head, js in heads.items()}
    # at b = 1 every head and suffix is (): the complete digraph, loops too
    succ = tuple(shared.get(u[len(u) - (b - 1):], ()) for u in supp)
    return DetGraph(field, b, tuple(supp), succ)


def count_paths(graph: DetGraph, length: int,
                max_bits: int = DEFAULT_INT_BITS) -> int:
    """Number of walks with ``length`` edges; vertices may repeat.

    Every vertex starts D^length walks, so there are V * D^length, V and
    D read off the built graph: a graph with wrong windows or edges still
    disagrees with the closed form.  BudgetExceededError when D^length
    passes ``max_bits`` bits, refused before it is built.
    """
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    # D^L >= 2^max_bits needs D^L > max_bits, a test with no big cap to build
    if (power_exceeds(graph.degree, length, max_bits)
            and power_exceeds(graph.degree, length, (1 << max_bits) - 1)):
        raise BudgetExceededError(
            f"walk count exceeds the {max_bits}-bit budget")
    return len(graph.vertices) * graph.degree ** length


def unrank_path(graph: DetGraph, length: int, index: int,
                max_bits: int = DEFAULT_INT_BITS
                ) -> tuple[tuple[int, ...], ...]:
    """Walk number ``index`` (0-based) of :func:`enumerate_paths`, found
    without enumerating.

    Each vertex starts D^length walks, D the out-degree, so the walk
    starts at vertex ``index // D**length`` and the base-D digits of the
    rest, most significant first, pick the successors; ``divmod`` takes
    them in word-sized chunks, least significant first.  The total and its
    refusal are :func:`count_paths`'s.
    """
    degree, total = graph.degree, count_paths(graph, length, max_bits)
    if not 0 <= index < total:
        raise ValueError(f"walk index {index} out of range for "
                         f"{len(graph.vertices)} * {degree}^{length} walks")
    # one big-int divmod per chunk of c digits, D**c < 2**30, then the
    # chunk's digits from a small int: a division of the whole index per
    # digit would make a random index cost O(length**2)
    c, digits = 30 // max(degree, 1).bit_length(), []
    for n in range(length, 0, -c):
        index, chunk = divmod(index, degree ** min(n, c))
        for _ in range(min(n, c)):
            chunk, digit = divmod(chunk, degree)
            digits.append(digit)
    walk = [index]
    for digit in reversed(digits):
        walk.append(graph.succ[walk[-1]][digit])
    return tuple(map(graph.vertices.__getitem__, walk))


def enumerate_paths(graph: DetGraph, length: int,
                    budget: int = 1 << 20) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All walks with ``length`` edges (length+1 vertices), lexicographic
    by vertex encoding.

    Raises BudgetExceededError up front when the V * D^length walks (V
    vertices of out-degree D) are more than ``budget``.
    """
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    # V * D^L > budget exactly when D^L > budget // V
    vertices = len(graph.vertices)
    if vertices and power_exceeds(graph.degree, length, budget // vertices):
        raise BudgetExceededError(
            f"{vertices} * {graph.degree}^{length} walks exceed "
            f"the enumeration budget {budget}")

    vs, succ, last = graph.vertices, graph.succ, graph.degree - 1
    if length and last < 0:
        return
    for start in range(len(vs)):
        # an odometer over the L base-D digits, the last one fastest: each
        # increment rewrites only the steps from the digit that changed
        digits, at = [0] * length, [start] * (length + 1)
        walk, t = [vs[start]] * (length + 1), 0
        while True:
            for s in range(t, length):
                at[s + 1] = j = succ[at[s]][digits[s]]
                walk[s + 1] = vs[j]
            yield tuple(walk)
            t = length - 1
            while t >= 0 and digits[t] == last:
                digits[t] = 0
                t -= 1
            if t < 0:
                break
            digits[t] += 1


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
    if len(prev) % 2 == 0:
        raise ValueError(f"window length {len(prev)} is not 2b-1")
    b = (len(prev) + 1) // 2
    coeffs = list(prev)
    for w in path[1:]:
        if len(w) != 2 * b - 1:
            raise ValueError("windows have mixed lengths")
        if fuse(prev, w, b - 1) is None:
            raise ValueError(
                f"consecutive windows do not overlap in {b - 1} entries")
        coeffs.extend(w[b - 1:])
        prev = w
    k = len(path) + 2
    return LinearRule(field, b, k, tuple(coeffs))


def latin_hypercube_count(field: GF, b: int, k: int,
                          max_bits: int = DEFAULT_INT_BITS) -> int:
    """Number of rules with a Latin (b, k) cube.

    Closed form (q-1)^{k-2} q^{(k-1)(b-1)} over linear rules for k >= 3;
    for k = 2 every bipermutive rule qualifies, giving q^{q^{b-1}} counted
    over all bipermutive rules.  :func:`cross_check_count` checks it.  A
    count over ``max_bits`` bits is refused before it is built.
    """
    if b < 1 or k < 2:
        raise ValueError(f"need b >= 1 and k >= 2, got b={b}, k={k}")
    q = field.q
    if k == 2:
        return count_bipermutive_rules(field, b, max_bits)
    cap, e = (1 << max_bits) - 1, (k - 1) * (b - 1)
    qe = 0 if power_exceeds(q, e, cap) else q**e
    # (q-1)^(k-2) q^e > cap exactly when (q-1)^(k-2) > cap // q^e
    if not qe or power_exceeds(q - 1, k - 2, cap // qe):
        raise BudgetExceededError(
            f"count for q={q}, b={b}, k={k} exceeds the {max_bits}-bit budget")
    return (q - 1) ** (k - 2) * qe


def cross_check_count(field: GF, b: int, k: int,
                      budget: int = DEFAULT_SUPPORT_BUDGET,
                      entry_budget: int = DEFAULT_ENTRY_BUDGET,
                      max_bits: int = DEFAULT_INT_BITS,
                      workers: int | None = None) -> dict[str, int]:
    """The single count cross-check: the closed form ``formula``, the walk
    count ``paths`` (k >= 3) of the graph built over ``support_of_det``
    and, when rules times cube entries fit ``entry_budget``, the
    ``exhaustive`` sweep of every linear (k >= 3) or bipermutive (k = 2)
    rule.  A mismatch fails an assertion; a graph or k = 2 sweep over
    budget raises BudgetExceededError before any work.
    """
    formula = latin_hypercube_count(field, b, k, max_bits=max_bits)
    counts = {"formula": formula}
    q = field.q
    if k >= 3:
        counts["paths"] = count_paths(build_graph(field, b, budget), k - 3,
                                      max_bits)
        if not power_exceeds(q, b * (k - 1) - 1 + b * k, entry_budget):
            counts["exhaustive"] = count_latin_rules(field, b, k, entry_budget,
                                                     workers)
    elif power_exceeds(q, 2 * b, entry_budget // formula):
        raise BudgetExceededError(f"{q}^{q ** (b - 1)} rules x {q}^{2 * b} "
                                  f"entries exceeds budget {entry_budget}")
    else:
        counts["exhaustive"] = sum(
            bool(is_latin(r, budget=entry_budget))
            for r in enumerate_bipermutive_rules(field, b, max_bits))
    assert all(n == formula for n in counts.values()), (
        f"counts {counts} disagree for q={q}, b={b}, k={k}")
    return counts
