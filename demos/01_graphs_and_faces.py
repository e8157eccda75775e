"""Graphs, the 4-/6-cycle check, and face tracing.

Builds a few small graphs, asks whether each has a 4- or 6-cycle and
which is the least, and traces the faces of their plane embeddings.
The one check, ``has_forbidden_cycles``, looks for a 6-cycle only once
it has found no 4-cycle.
"""

from dpcolor import build_graph, has_forbidden_cycles, load_catalog, trace_faces
from dpcolor.graphs import smallest_forbidden_cycle

# --- cycle queries ----------------------------------------------------------

c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("C4 contains a 4- or 6-cycle:", has_forbidden_cycles(c4))
print("C4 least forbidden cycle:", smallest_forbidden_cycle(c4.adjacency, c4.edges))

petersen = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)
print("\nPetersen graph contains a 4- or 6-cycle:", has_forbidden_cycles(petersen))
print("girth 5, so the least is a 6-cycle:", smallest_forbidden_cycle(petersen.adjacency, petersen.edges))

# --- face tracing from a rotation system -------------------------------------

k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
pg = trace_faces(k4, [[1, 3, 2], [0, 2, 3], [1, 0, 3], [2, 0, 1]])
print("\nK4 embedding faces:", list(pg.face_degrees))
print("Euler check: 4 - 6 +", len(pg.faces), "= 2")

dodec = load_catalog("dodecahedron")
print(
    "\ndodecahedron:",
    dodec.graph.n,
    "vertices,",
    dodec.graph.m,
    "edges,",
    len(dodec.faces),
    "pentagonal faces",
)
print("no 4- or 6-cycles:", not has_forbidden_cycles(dodec.graph))
