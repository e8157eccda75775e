"""Covers, representative sets, and the gap between DP- and list coloring.

The 4-cycle separates the two models: it can always be colored from
2-lists when matchings pair equal colors (plain list coloring), but one
twisted cover defeats every choice, pushing its DP-chromatic number to 3.
"""

from dpcolor import (
    Cover,
    build_graph,
    dp_chromatic,
    find_rep_set,
    impropriety,
    uniform_assignment,
    validate_cover,
)

c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
lists = uniform_assignment(4, 2)  # every vertex gets {1, 2}

# the equal-color cover is just list coloring in disguise
identity = ((1, 1), (2, 2))
plain = Cover(graph=c4, lists=lists, matchings=(identity,) * c4.m)
print("diagonal cover valid:", validate_cover(plain) is None)
coloring = find_rep_set(plain, 0)
print("proper 2-coloring of C4:", coloring)

# twist one edge: identity matchings on three edges, the swap on the fourth
matchings = [((1, 2), (2, 1)) if edge == (0, 3) else identity for edge in c4.edges]
twisted = Cover(graph=c4, lists=lists, matchings=tuple(matchings))
print("\ntwisted cover valid:", validate_cover(twisted) is None)
print("representative set with 0 conflicts:", find_rep_set(twisted, 0))
rep = find_rep_set(twisted, 1)
print("allowing one conflict per vertex:", rep, "conflicts:", impropriety(twisted, rep))

print("\nDP-chromatic number of C4:", dp_chromatic(c4), "(its chromatic number is 2)")

# relaxed list coloring on the equal-color cover: K4 from {1,2}
# everywhere needs impropriety 1
k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
k4_diagonal = Cover(graph=k4, lists=uniform_assignment(4, 2), matchings=(identity,) * k4.m)
print("\nK4 from 2-lists, no conflicts:", find_rep_set(k4_diagonal, 0))
print("K4 from 2-lists, one conflict allowed:", find_rep_set(k4_diagonal, 1))
