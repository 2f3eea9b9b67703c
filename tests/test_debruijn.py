"""Graph construction over nonsingular windows, walk counts, synthesis.

The q=2, b=2 graph is small enough to freeze completely: vertices
010, 011, 101, 110 with loops at 010 and 101, the two-cycle 011 <-> 110,
and the four-cycle 010 -> 011 -> 101 -> 110 -> 010; every vertex has
in- and out-degree 2.
"""

import collections
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (MODULUS_ORDERS, central_points, every_modulus, fuse,
                     out_degrees_by_overlap, unrank_by_divmod,
                     unrank_by_suffix_counts)
from lhca import debruijn
from lhca.debruijn import (
    DetGraph,
    build_graph,
    count_paths,
    cross_check_count,
    enumerate_paths,
    latin_hypercube_count,
    rule_from_path,
    unrank_path,
)
from lhca.errors import BudgetExceededError
from lhca.field import GF
from lhca.hypercube import count_latin_rules, is_latin
from lhca.rules import DEFAULT_INT_BITS, LinearRule, enumerate_linear_rules
from lhca.toeplitz import is_latin_by_windows, support_of_det, windows

F2 = GF(2)
F3 = GF(3)

GOLDEN_EDGES = [
    ((0, 1, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 1, 1)),
    ((0, 1, 1), (1, 0, 1)),
    ((0, 1, 1), (1, 1, 0)),
    ((1, 0, 1), (1, 0, 1)),
    ((1, 0, 1), (1, 1, 0)),
    ((1, 1, 0), (0, 1, 0)),
    ((1, 1, 0), (0, 1, 1)),
]


def test_fuse():
    assert fuse((0, 1, 0), (0, 1, 1), 1) == (0, 1, 0, 1, 1)
    assert fuse((1, 2), (3, 4), 0) == (1, 2, 3, 4)
    assert fuse((0, 1, 0), (1, 0, 1), 2) == (0, 1, 0, 1)
    # full overlap collapses to the shared tuple
    assert fuse((0, 1, 0), (0, 1, 0), 3) == (0, 1, 0)
    # a failed overlap is a value, not an error
    assert fuse((0, 1, 0), (1, 0, 1), 1) is None
    assert fuse((1, 2), (3, 4), 1) is None
    with pytest.raises(ValueError):
        fuse((1,), (2,), 3)


def test_golden_graph():
    g = build_graph(F2, 2)
    assert tuple(g.vertices) == ((0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert g.edges() == GOLDEN_EDGES
    assert g.successors((0, 1, 0)) == [(0, 1, 0), (0, 1, 1)]
    assert g.successors((1, 0, 1)) == [(1, 0, 1), (1, 1, 0)]
    with pytest.raises(ValueError):
        g.successors((0, 0, 0))


# every pair (u, v) with fuse(u, v, b-1) is an edge: the definition, not
# the runs build_graph steps by
EDGE_POINTS = [(2, 1), (3, 2), (2, 3), (4, 2), (2, 4), (5, 2), (4, 1), (8, 1),
               (8, 2), (9, 1), (9, 2)]


@pytest.mark.parametrize("q,b", EDGE_POINTS)
def test_edges_are_the_overlapping_vertex_pairs(q, b):
    for fld in every_modulus(q):
        g = build_graph(fld, b)
        assert g.edges() == [(u, v) for u in g.vertices for v in g.vertices
                             if fuse(u, v, b - 1) is not None]


@pytest.mark.parametrize("q,b", [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4)])
def test_index_finds_every_vertex_and_refuses_the_rest(q, b):
    g = build_graph(GF(q), b)
    vs = g.vertices
    assert [g.index(v) for v in vs] == list(range(len(vs)))
    assert g.index(list(vs[-1])) == len(vs) - 1
    # all zeros, all q-1 (rank 1 for b >= 2) and the least window headed
    # by (1, 0, ..., 0), strictly lower triangular: singular all three
    below, above = (0,) * (2 * b - 1), (q - 1,) * (2 * b - 1)
    gap = (1,) + (0,) * (2 * b - 2)
    assert below < vs[0] and vs[-1] < above
    assert any(u < gap < v and u[:b - 1] != v[:b - 1]
               for u, v in zip(vs, vs[1:]))
    for window in (below, above, gap):
        with pytest.raises(ValueError, match="is not a vertex"):
            g.index(window)


def test_unsorted_or_repeated_vertices_are_refused():
    g = build_graph(F2, 2)
    a, b, c, d = g.vertices
    for vertices in [(b, a, c, d), (a, b, d, c), (a, a, c, d), (a, b, c, c)]:
        with pytest.raises(ValueError, match="not strictly increasing"):
            DetGraph(F2, 2, vertices, g.succ)


@pytest.mark.parametrize("q,b", [(2, 2), (2, 3), (3, 2), (2, 1), (3, 1)] + [
    (q, b) for q in (4, 8, 9, 16, 25, 27) for b in (1, 2)])
def test_graph_is_regular(q, b):
    r = (q - 1) * q ** (b - 1)
    for fld in every_modulus(q):
        g = build_graph(fld, b)
        assert len(g.vertices) == (q - 1) * q ** (2 * (b - 1))
        assert g.degree == r
        assert set(out_degrees_by_overlap(g)) == {r}
        # in-degrees by successor class, not edge by edge: a class of n
        # vertices adds n to each of its successors
        in_degrees = collections.Counter()
        for s, n in collections.Counter(g.succ).items():
            in_degrees.update(dict.fromkeys(s, n))
        assert len(in_degrees) == len(g.vertices)
        assert set(in_degrees.values()) == {r}


@pytest.mark.parametrize("succ", [
    ((0,), (2, 3), (2, 3), (0, 1)),   # 010 lost its loop
    ((), (2, 3), (2, 3), (0, 1)),     # 010 has no successor
    ((1,), (2,), (3,), (0,)),         # the four-cycle 010 -> 011 -> 101 -> 110
    ((0, 1), (2, 3), (2, 3)),         # 110 has no successor list
    ((0, 1), (2, 3), (2, 3), (1, 0)),  # the run of 110, out of order
], ids=["one-edge-short", "a-sink", "four-cycle", "one-short", "reordered"])
def test_an_irregular_graph_is_refused(succ):
    # a window graph's successors follow from its vertices: any other
    # successor lists are refused, regular or not
    g = build_graph(F2, 2)
    with pytest.raises(ValueError, match="not the overlap runs"):
        DetGraph(F2, 2, g.vertices, succ)
    assert DetGraph(F2, 2, g.vertices, tuple(map(list, g.succ))).degree == 2


@pytest.mark.parametrize("vertices", [
    ((0, 1, 0), (0, 1, 1), (1, 0, 1)),              # 3 over 2 prefixes
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)),   # prefix 0 heads three
], ids=["indivisible", "unequal"])
def test_unequal_prefix_classes_are_refused(vertices):
    with pytest.raises(ValueError, match="regular"):
        DetGraph(F2, 2, vertices)


GOLDEN_SUPPORT = ((0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


@pytest.mark.parametrize("vertices", [
    ((0, 1), (1, 1)), ((0, 1, 0, 1),), ((0, 1, 2), (1, 0, 1)), [(0, 1, 0)] * 2,
    # checked before the cast: a float is not truncated, and -1 or a huge
    # cell is a ValueError, not numpy's OverflowError
    GOLDEN_SUPPORT[:3] + ((1.5, 1, 0),), ((-1, 1, 0),) + GOLDEN_SUPPORT[1:],
    np.array(GOLDEN_SUPPORT, dtype=float),
    np.array(GOLDEN_SUPPORT, dtype=bool),
    np.array(GOLDEN_SUPPORT, dtype=object) * 2**70,
], ids=["short", "long", "not-an-element", "repeated", "float-cell",
        "negative-cell", "float-array", "bool-array", "object-array"])
def test_vertices_that_are_not_windows_are_refused(vertices):
    with pytest.raises(ValueError):
        DetGraph(F2, 2, vertices)


def test_only_a_read_only_support_is_held_without_a_copy():
    # a writable array stays the caller's: writing to it later cannot
    # change the graph
    support, golden = support_of_det(F3, 2), build_graph(F3, 2)
    g = DetGraph(F3, 2, support)
    support[:] = 0
    assert not np.shares_memory(g.support, support)
    assert g.vertices[:] == golden.vertices[:] and list(g.vertices) == list(
        golden.vertices)
    assert g.support.dtype == F3.dtype and not g.support.flags.writeable
    frozen = support_of_det(F3, 2)
    frozen.flags.writeable = False
    assert np.shares_memory(DetGraph(F3, 2, frozen).support, frozen)
    wide = DetGraph(F3, 2, golden.support.astype(np.int64))
    assert wide.support.dtype == F3.dtype
    assert wide.vertices[:] == golden.vertices[:]
    assert DetGraph(F2, 2, GOLDEN_SUPPORT).vertices[:] == list(GOLDEN_SUPPORT)


@pytest.mark.parametrize("q,b", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2),
                                 (2, 3)])
def test_views_iterate_as_they_index(q, b):
    # iteration reads the arrays once; it must yield what indexing builds
    g = build_graph(GF(q), b)
    for view in (g.vertices, g.succ):
        items = [view[i] for i in range(len(view))]
        assert list(view) == items == view[:]
        assert list(map(type, view)) == list(map(type, items))
    assert {type(c) for v in g.vertices for c in v} == {int}
    assert {type(r.start) for r in g.succ} == {int}


def test_b1_graph_is_complete_with_loops():
    g = build_graph(F3, 1)
    assert tuple(g.vertices) == ((1,), (2,))
    assert len(g.edges()) == 4
    assert g.successors((1,)) == [(1,), (2,)]
    assert all(s == g.succ[0] == range(2) for s in g.succ)


def test_count_paths_golden():
    # length counts edges: zero edges counts the vertices
    g = build_graph(F2, 2)
    assert count_paths(g, 0) == 4
    assert count_paths(g, 1) == 8
    assert count_paths(g, 2) == 16
    # regular out-degree 2 means each extra edge doubles the count
    assert count_paths(g, 9) == 4 * 2**9
    with pytest.raises(ValueError):
        count_paths(g, -1)


def test_walks_of_negative_length_are_a_value_error():
    g = build_graph(F2, 2)
    with pytest.raises(ValueError, match="walk length must be >= 0"):
        unrank_path(g, -1, 0)
    with pytest.raises(ValueError, match="walk length must be >= 0"):
        next(enumerate_paths(g, -1))


def test_count_paths_bit_budget():
    g = build_graph(F2, 2)
    with pytest.raises(BudgetExceededError):
        count_paths(g, 10**7)


@pytest.mark.parametrize("q,b", [(2, 2), (4, 1), (2, 3), (16, 1)])
def test_walk_count_and_unranking_refuse_at_one_boundary(q, b):
    # D = 2, 3, 4 and 15: the longest walks whose count V * D^L fits 2^20
    # bits are counted and unranked, one edge more is refused with one
    # message, and the closed form refuses at the same k = L + 3
    fld = GF(q)
    g = build_graph(fld, b)
    vertices, degree = len(g.vertices), g.degree
    cap = 1 << DEFAULT_INT_BITS
    length = int((DEFAULT_INT_BITS - math.log2(vertices)) / math.log2(degree))
    # the float logs may be off by one either way
    length += vertices * degree ** (length + 1) < cap
    length -= vertices * degree ** length >= cap
    total = vertices * degree ** length
    assert total < cap <= total * degree
    message = f"^walk count exceeds the {DEFAULT_INT_BITS}-bit budget$"
    with pytest.raises(BudgetExceededError, match=message):
        count_paths(g, length + 1)
    with pytest.raises(BudgetExceededError, match=message):
        unrank_path(g, length + 1, 0)
    with pytest.raises(BudgetExceededError, match=(
            f"^count for q={q}, b={b}, k={length + 4} exceeds the")):
        latin_hypercube_count(fld, b, length + 4)
    assert count_paths(g, length) == total
    assert latin_hypercube_count(fld, b, length + 3) == total
    assert unrank_path(g, length, 0) == (g.vertices[0],) * (length + 1)


def test_walks_on_the_single_loop_are_counted_without_stepping():
    # V * D^L = 1 * 1^(10^9): an edge-by-edge count would take 10^9 steps
    assert count_paths(build_graph(F2, 1), 10**9) == 1


def test_a_graph_without_edges_is_refused():
    # at b = 1 every vertex succeeds every vertex: a sink is no window graph
    with pytest.raises(ValueError, match="not the overlap runs"):
        DetGraph(F2, 1, ((1,),), ((),))
    # with no vertices at all there is no walk of any length
    g = DetGraph(F2, 1, ())
    assert g.degree == 0 and g.edges() == [] and g.in_degrees() == []
    assert count_paths(g, 0) == 0 and count_paths(g, 3) == 0
    assert list(enumerate_paths(g, 0)) == list(enumerate_paths(g, 3)) == []


def test_enumerate_paths_lex_and_complete():
    g = build_graph(F2, 2)
    walks = list(enumerate_paths(g, 1))
    assert len(walks) == 8
    assert walks == sorted(walks)
    assert walks == [(u, v) for u, v in g.edges()]
    assert walks[0] == ((0, 1, 0), (0, 1, 0))
    assert walks[-1] == ((1, 1, 0), (0, 1, 1))
    assert [w[0] for w in enumerate_paths(g, 0)] == list(g.vertices)
    assert g.vertices[1:3] == [(0, 1, 1), (1, 0, 1)]
    assert g.succ[::2] == [range(0, 2), range(2, 4)]
    two_step = list(enumerate_paths(g, 2))
    assert len(two_step) == 16
    assert ((0, 1, 0), (0, 1, 1), (1, 0, 1)) in two_step
    with pytest.raises(BudgetExceededError):
        list(enumerate_paths(g, 12, budget=100))


@pytest.mark.parametrize("length", [12, 19997, 1_099_997])
def test_enumerate_paths_refuses_by_the_walk_count_as_a_power(length):
    # V * D^L walks, refused by the logarithm before any big power or walk
    # count is built; the message names the power, not its digits
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_paths(build_graph(F2, 2), length, budget=100))
    assert str(exc.value) == (f"4 * 2^{length} walks exceed the enumeration "
                              "budget 100")


def test_enumerate_paths_admits_exactly_its_budget():
    g = build_graph(F2, 2)
    assert len(list(enumerate_paths(g, 3, budget=32))) == 32
    with pytest.raises(BudgetExceededError):
        next(enumerate_paths(g, 3, budget=31))


def test_enumerate_paths_beyond_the_recursion_limit():
    # the q=2, b=1 graph is one vertex with a loop: one walk of any length
    walks = list(enumerate_paths(build_graph(F2, 1), 1500))
    assert walks == [((1,),) * 1501]


@pytest.mark.parametrize("q,b,length", [
    (2, 1, 0), (2, 1, 3), (2, 2, 0), (2, 2, 1), (2, 2, 5), (3, 2, 2),
    (2, 3, 2), (4, 1, 3), (3, 1, 2),
])
def test_unrank_path_is_the_enumeration_order(q, b, length):
    g = build_graph(GF(q), b)
    walks = list(enumerate_paths(g, length))
    assert [unrank_path(g, length, i) for i in range(len(walks))] == walks
    for bad in (-1, len(walks)):
        with pytest.raises(ValueError, match="out of range"):
            unrank_path(g, length, bad)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_enumeration_is_the_unranking_across_chunks(q, monkeypatch):
    # 13 cells hold 13, 6, 4, 3 and 2 walks of 0 to 4 edges, so most
    # chunks end inside a vertex's walks and the last one is short; every
    # graph with V * D^L <= 4096 under every modulus, the one-vertex GF(2),
    # b = 1 graph included
    monkeypatch.setattr(debruijn, "_CHUNK_CELLS", 13)
    rng = random.Random(q)
    for fld in every_modulus(q):
        for b in itertools.count(1):
            if (q - 1) * q ** (2 * b - 2) > 4096:
                break
            g = build_graph(fld, b)
            for length in range(5):
                total = count_paths(g, length)
                if total > 4096:
                    break
                walks = list(enumerate_paths(g, length, budget=total))
                assert walks == [unrank_path(g, length, i)
                                 for i in range(total)]
                rows = 13 // (length + 1)  # the first chunk's edge
                for i in {0, rows - 1, rows, total - 1,
                          *rng.sample(range(total), min(total, 8))}:
                    if i < total:
                        assert walks[i] == unrank_by_suffix_counts(
                            g, length, i)
                with pytest.raises(BudgetExceededError):
                    next(enumerate_paths(g, length, budget=total - 1))


def test_unrank_path_past_the_enumeration_budget():
    g = build_graph(F2, 2)
    n = count_paths(g, 27)
    with pytest.raises(BudgetExceededError):
        next(enumerate_paths(g, 27))
    # the first walk stays on the loop at 010; the last alternates on the
    # two-cycle 110 <-> 011
    assert unrank_path(g, 27, 0) == ((0, 1, 0),) * 28
    assert unrank_path(g, 27, n - 1) == ((1, 1, 0), (0, 1, 1)) * 14
    # refused by its logarithm: 2^(10^15) is never built
    with pytest.raises(BudgetExceededError):
        unrank_path(g, 10**15, 0)


@pytest.mark.parametrize("q,b", [(2, 2), (3, 2), (2, 3), (5, 1), (4, 2)])
def test_unrank_path_matches_the_suffix_count_oracle(q, b):
    g = build_graph(GF(q), b)
    rng = random.Random(100 * q + b)
    for length in (20, 21, 37, 60):
        total = count_paths(g, length)
        for index in [0, total - 1] + [rng.randrange(total) for _ in range(6)]:
            assert (unrank_path(g, length, index)
                    == unrank_by_suffix_counts(g, length, index))


# (q, b), with the out-degree D and vertex count n in the id; the graphs
# are built inside the test, so a refused one fails one case
DIVMOD_GRAPHS = [(2, 1), (3, 1), (2, 2), (4, 1), (16, 1), (2, 6), (256, 1)]


@pytest.mark.parametrize("q,b", DIVMOD_GRAPHS, ids=[
    f"D{(q - 1) * q ** (b - 1)}-n{(q - 1) * q ** (2 * b - 2)}"
    for q, b in DIVMOD_GRAPHS])
def test_unrank_path_matches_one_divmod_per_edge(q, b):
    # chunks of 30 // D.bit_length() digits: D = 1, 2, 3, 15, 32 and 255
    # give chunks of 30, 15, 15, 7, 5 and 3 digits, so these lengths cross
    # chunk edges with and without a remainder
    graph = build_graph(GF(q), b)
    rng = random.Random(graph.degree)
    lengths = [0, 1, 2, 3, 5, 6, 7, 14, 15, 16, 29, 30, 31, 200]
    for length in lengths + [rng.randrange(201) for _ in range(6)]:
        total = len(graph.vertices) * graph.degree ** length
        for index in [0, total - 1] + [rng.randrange(total) for _ in range(4)]:
            assert (unrank_path(graph, length, index)
                    == unrank_by_divmod(graph, length, index))


def test_unranking_a_long_walk_stays_small():
    # no table of walk counts: memory follows the walk, not k^2 counts
    fld = GF(16)
    g = build_graph(fld, 1)
    tracemalloc.start()
    try:
        walk = unrank_path(g, 31997, 123456789)
        rule = rule_from_path(fld, walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rule.k == 32000
    assert peak < 16 * 2**20
    # the visits of one vertex share one tuple
    assert len(set(map(id, walk))) == len(set(walk)) < len(walk)
    # the last index is every digit D-1: the walk stays on the last vertex
    last = unrank_path(g, 31997, count_paths(g, 31997) - 1)
    assert last == ((15,),) * 31998
    # a short walk on a large graph builds only the vertices it visits
    g, built = build_graph(fld, 3), []
    g.vertices = type(g.vertices)(
        g.support, lambda row: built.append(row) or tuple(row))
    walk = unrank_path(g, 2, 123456789)
    assert sorted(map(tuple, built)) == sorted(set(walk))


@pytest.mark.parametrize("q,b", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
def test_build_graph_shares_one_successor_run_per_suffix(q, b):
    g = build_graph(GF(q), b)
    by_suffix = {}
    for v, s in zip(g.vertices, g.succ):
        assert by_suffix.setdefault(v[-(b - 1):], s) == s
        assert all(g.vertices[j][:b - 1] == v[-(b - 1):] for j in s)
    assert len(by_suffix) == q ** (b - 1)
    assert sorted(by_suffix.values(), key=min) == [
        range(i, i + g.degree) for i in range(0, len(g.vertices), g.degree)]


def test_building_the_largest_count_verify_graph_stays_small():
    # 983 040 vertices of 5 cells: the support and its ranks, in arrays
    tracemalloc.start()
    try:
        g = build_graph(GF(16), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == 983_040 and g.degree == 3840
    assert peak < 40 * 2**20


def _walks_edge_by_edge(graph, length):
    """Every walk as vertex indices, extended one edge at a time, in
    lexicographic order of the indices."""
    walks = [(i,) for i in range(len(graph.vertices))]
    for _ in range(length):
        walks = [w + (j,) for w in walks for j in sorted(graph.succ[w[-1]])]
    return walks


def _count_edge_by_edge(graph, length):
    weight = [1] * len(graph.vertices)
    for _ in range(length):
        nxt = [0] * len(weight)
        for u, s in enumerate(graph.succ):
            for v in s:
                nxt[u] += weight[v]
        weight = nxt
    return sum(weight)


def _unshared(graph):
    """The graph rebuilt from vertex tuples and per-vertex successor
    tuples, as a caller outside the library builds one."""
    return DetGraph(graph.field, graph.b, tuple(graph.vertices),
                    tuple(tuple(list(s)) for s in graph.succ))


RECURRENCE_GRAPHS = [(3, 2), (2, 3), (2, 1), (3, 1), (4, 1), (2, 2), (4, 2)]


@pytest.mark.parametrize("q,b", RECURRENCE_GRAPHS, ids=[
    f"q{q}b{b}-unshared" for q, b in RECURRENCE_GRAPHS])
def test_walk_counts_match_an_edge_by_edge_recurrence(q, b):
    # the graph is rebuilt from per-vertex successor tuples, and walks
    # are extended one edge at a time; every length with V * D^L <= 4096 walks
    # (up to 12 edges on the single-loop graph of D = 1)
    graph = _unshared(build_graph(GF(q), b))
    lengths = [n for n in range(13)
               if len(graph.vertices) * graph.degree ** n <= 4096]
    for length in lengths:
        walks = _walks_edge_by_edge(graph, length)
        assert count_paths(graph, length) == len(walks)
        as_vertices = [tuple(graph.vertices[i] for i in w) for w in walks]
        assert [unrank_path(graph, length, i)
                for i in range(len(walks))] == as_vertices
        assert list(enumerate_paths(graph, length)) == as_vertices
    for length in (10, 40):
        assert count_paths(graph, length) == _count_edge_by_edge(graph, length)


def test_rule_from_path_golden():
    # fusing 010, 011, 101 recovers x1+x3+x5+x6+x8+x9
    rule = rule_from_path(F2, [(0, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert rule.b == 2 and rule.k == 5
    assert rule.coeffs == (0, 1, 0, 1, 1, 0, 1)
    assert windows(rule) == [(0, 1, 0), (0, 1, 1), (1, 0, 1)]
    # a singleton path gives the k=3 rule of that window
    assert rule_from_path(F2, [(0, 1, 0)]) == LinearRule(F2, 2, 3, (0, 1, 0))


def test_rule_from_path_validation():
    with pytest.raises(ValueError, match="^need at least one window$"):
        rule_from_path(F2, [])
    with pytest.raises(ValueError, match="^window length 2 is not 2b-1$"):
        rule_from_path(F2, [(0, 1)])
    with pytest.raises(ValueError, match=(
            "^consecutive windows do not overlap in 1 entries$")):
        rule_from_path(F2, [(0, 1, 0), (1, 0, 1)])
    with pytest.raises(ValueError, match="^windows have mixed lengths$"):
        rule_from_path(F2, [(0, 1, 0), (0, 1, 1, 0, 1)])
    # a window may be any sequence of cells
    rule = rule_from_path(F2, [[0, 1, 0], (0, 1, 1), np.array([1, 0, 1])])
    assert rule.coeffs == (0, 1, 0, 1, 1, 0, 1)


def test_windows_and_rule_from_path_are_inverse():
    g = build_graph(F3, 2)
    for walk in itertools.islice(enumerate_paths(g, 1), 40):
        rule = rule_from_path(F3, walk)
        assert tuple(windows(rule)) == walk


def test_every_walk_gives_a_latin_cube():
    g = build_graph(F2, 2)
    for walk in enumerate_paths(g, 2):
        rule = rule_from_path(F2, walk)
        assert rule.k == 5
        assert is_latin_by_windows(rule)
        assert is_latin(rule)


def test_walks_are_exactly_the_latin_rules():
    # bijection between walks and brute-force Latin linear rules
    for fld, b, k in [(F2, 2, 4), (F3, 2, 3)]:
        g = build_graph(fld, b)
        from_walks = {rule_from_path(fld, w) for w in enumerate_paths(g, k - 3)}
        from_sweep = {r for r in enumerate_linear_rules(fld, b, k) if is_latin(r)}
        assert from_walks == from_sweep


def test_counting_theorem_small_cases():
    assert cross_check_count(F2, 2, 5)["formula"] == 16
    assert cross_check_count(F2, 2, 4)["formula"] == 8
    assert cross_check_count(F3, 2, 4)["formula"] == 108
    assert cross_check_count(F2, 3, 3)["formula"] == 16
    assert cross_check_count(GF(4), 2, 3)["formula"] == 48


@pytest.mark.parametrize("q", MODULUS_ORDERS)
def test_counts_agree_under_every_modulus(q):
    # cross_check_count raises CrossCheckError on any mismatch
    for fld in every_modulus(q):
        for b, k in [(1, 2), *central_points(q)]:
            counts = cross_check_count(fld, b, k)
            routes = {"formula", "exhaustive"} | ({"paths"} if k >= 3 else set())
            assert set(counts) == routes, (fld, b, k)


def test_square_count_verify_sweeps_within_budget():
    assert cross_check_count(F2, 2, 2)["formula"] == 4
    assert cross_check_count(F3, 2, 2)["formula"] == 27
    # 2^16 rules x 2^10 entries: no walk count exists, so nothing checks it
    with pytest.raises(BudgetExceededError):
        cross_check_count(F2, 5, 2)


def test_counting_theorem_matches_brute_force():
    for fld, b, k in [(F2, 2, 3), (F3, 2, 3), (F2, 2, 4), (F2, 1, 4)]:
        assert latin_hypercube_count(fld, b, k) == count_latin_rules(fld, b, k)


def test_square_count_is_bipermutive_rule_count():
    assert latin_hypercube_count(F2, 2, 2) == 4
    assert latin_hypercube_count(F2, 3, 2) == 16
    assert latin_hypercube_count(F3, 2, 2) == 27
    assert latin_hypercube_count(F2, 1, 2) == 2


def test_count_bit_budget():
    with pytest.raises(BudgetExceededError):
        latin_hypercube_count(F2, 2, 10**7)
    with pytest.raises(BudgetExceededError):
        latin_hypercube_count(F2, 30, 2)


def test_count_bit_budget_admits_exactly_its_bits():
    # GF(2), b = 2: 2^(k-1) rules, so 2^20 bits hold k = 2^20, not 2^20 + 1
    k = DEFAULT_INT_BITS
    assert latin_hypercube_count(F2, 2, k) == 2 ** (k - 1)
    with pytest.raises(BudgetExceededError, match=(
            f"^count for q=2, b=2, k={k + 1} exceeds the {k}-bit budget$")):
        latin_hypercube_count(F2, 2, k + 1)
    # 3^600000 has 950 978 bits; two bits per factor of 3 would make it
    # 1 200 000, past the cap
    assert latin_hypercube_count(GF(4), 1, 600_002) == 3**600_000
    # k = 3 counts the nonsingular windows, (q-1) q^(2b-2): 2^(2^20 - 2)
    # has 2^20 - 1 bits, and the next b is past the budget
    start = time.perf_counter()
    assert latin_hypercube_count(F2, 2**19, 3) == 2 ** (2**20 - 2)
    for b in (2**19 + 1, 10**8):
        with pytest.raises(BudgetExceededError, match=(
                f"^count for q=2, b={b}, k=3 exceeds the {k}-bit budget$")):
            latin_hypercube_count(F2, b, 3)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_count_refusal_is_the_exact_bit_length(q):
    # (q-1)^(k-2) q^((k-1)(b-1)) has fewer than 2^20 + 1 bits exactly when
    # k < (2^20 + 2x + y) / (x + y), x and y the logs of the two factors:
    # that k is counted exactly, k + 1 is refused
    fld, bits = GF(q), DEFAULT_INT_BITS
    for b in (1, 2) if q > 2 else (2, 3):  # GF(2), b = 1 has one rule
        x, y = math.log2(q - 1), (b - 1) * math.log2(q)
        k = math.ceil((bits + 2 * x + y) / (x + y)) - 1
        n = (q - 1) ** (k - 2) * q ** ((k - 1) * (b - 1))
        step = (q - 1) * q ** (b - 1)  # the count grows by this per k
        assert n.bit_length() <= bits < (n * step).bit_length()
        assert latin_hypercube_count(fld, b, k) == n
        with pytest.raises(BudgetExceededError):
            latin_hypercube_count(fld, b, k + 1)


def test_graph_json_and_dot():
    g = build_graph(F2, 2)
    data = g.to_json()
    assert data["q"] == 2 and data["b"] == 2
    assert data["vertices"] == [[0, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert len(data["edges"]) == 8
    assert data["edges"][0] == [0, 0]
    for i, j in data["edges"]:
        u, v = data["vertices"][i], data["vertices"][j]
        assert u[-1:] == v[:1]
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert '"010" -> "011";' in dot
    assert dot.count("->") == 8


def test_graph_json_keeps_every_modulus():
    # the field is written as rule JSON writes it: no poly for the default
    for fld in every_modulus(9):
        data = build_graph(fld, 1).to_json()
        header = {key: data[key] for key in ("q", "poly") if key in data}
        assert header == fld.short_json()
        assert GF(data["q"], poly=data.get("poly")) == fld
