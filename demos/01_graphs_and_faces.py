"""Graphs, the 4- and 6-cycle queries, and face tracing.

Builds a few small graphs, asks for their 4- and 6-cycles, and traces
the faces of their plane embeddings.
"""

from dpcolor import build_graph, has_cycle_of_length, load_catalog, trace_faces
from dpcolor.graphs import smallest_forbidden_cycle

# --- cycle queries ----------------------------------------------------------

c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("C4 contains a 4-cycle:", has_cycle_of_length(c4, 4))
print("C4 least forbidden cycle:", smallest_forbidden_cycle(c4.adjacency, c4.edges))

petersen = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)
print("\nPetersen graph: girth-5, so no 4-cycles:", not has_cycle_of_length(petersen, 4))
print("but it has six-cycles, the least:", smallest_forbidden_cycle(petersen.adjacency, petersen.edges))

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
print("no 4-cycles:", not has_cycle_of_length(dodec.graph, 4))
print("no 6-cycles:", not has_cycle_of_length(dodec.graph, 6))
