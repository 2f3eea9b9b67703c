# The windows with nonzero determinant form a de Bruijn graph: u -> v
# when the last b-1 cells of u equal the first b-1 cells of v.  Walks on
# this graph are exactly the coefficient vectors of Latin-generating
# rules.

from collections import Counter

from lhca import GF, build_graph, support_of_det

fld = GF(2)
print("det support at b=2:", ["".join(map(str, w))
                              for w in support_of_det(fld, 2)])

g = build_graph(fld, 2)
print()
print(g.to_dot())

# u's out-degree: the vertices whose first b-1 cells are u's last b-1
heads = Counter(v[:1] for v in g.vertices)
degree = (2 - 1) * 2 ** (2 - 1)
print("out-degrees:", [heads[v[2:]] for v in g.vertices],
      "| in-degrees:", g.in_degrees(), "| expected:", degree)

for q, b in ((2, 3), (3, 2)):
    g = build_graph(GF(q), b)
    print(f"q={q} b={b}: {len(g.vertices)} vertices, "
          f"{len(g.edges())} edges, regular of degree "
          f"{(q - 1) * q ** (b - 1)}")
