"""The constructive coloring pipeline on plane graphs without 4-/6-cycles.

Every such graph contains one of three degree-defined configurations;
excising it, coloring the rest, and extending through residual lists
yields a coloring with at most one conflict per vertex from any cover
with 3-lists.  The trace below shows the excision order and the colors
chosen on the way back.
"""

from dpcolor import (
    ConfigKind,
    color_planar_no46,
    find_rep_set,
    generate_plane_no46,
    impropriety,
    load_catalog,
    random_cover,
    uniform_assignment,
    verify_config_reducible,
)

# the three configurations are reducible at their guaranteed list sizes
for kind in ConfigKind:
    report = verify_config_reducible(kind)
    print(f"{kind.value}: {report.verified}/{report.total_covers} residual covers colorable")

# color a random instance from a random perfect cover
pg = generate_plane_no46(14, seed=8)
print(f"\ninstance: {pg.graph.n} vertices, {pg.graph.m} edges")
cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed=1, perfect=True)
result = color_planar_no46(pg, cover)
counts = impropriety(cover, result.rep_set)
print("colors:", result.rep_set)
print("conflicts per vertex:", counts, "max:", max(counts))

print("\nreduction trace (excision order):")
for step in result.trace:
    print(
        f"  {step.kind.value:<18} vertices {step.vertices}"
        f"  residual sizes {step.residual_sizes}  colors {step.colors}"
    )

# the exact search, independent of the pipeline, agrees the cover is colorable
bowtie = load_catalog("bowtie")
cover = random_cover(bowtie.graph, uniform_assignment(5, 3), seed=3, perfect=True)
result = color_planar_no46(bowtie, cover)
print("\nbowtie pipeline impropriety:", max(impropriety(cover, result.rep_set)))
print("exact search agrees it is colorable:", find_rep_set(cover, 1) is not None)
