"""Random 4-/6-cycle-free plane graphs and what they are good for.

The generator grows an embedding by face subdivision and deletes an edge
from any forbidden cycle it creates; outputs are verified and fully
determined by the seed.  Every instance, and every subgraph the coloring
pipeline peels it down to, contains a reducible configuration; the
pipeline's trace lists the configuration it excised at each step.
"""

from collections import Counter

from dpcolor import (
    color_planar_no46,
    generate_plane_no46,
    has_forbidden_cycles,
    random_cover,
    uniform_assignment,
)

sizes = Counter()
kinds = Counter()
for seed in range(100):
    n = 4 + seed % 15
    pg = generate_plane_no46(n, seed)
    assert not has_forbidden_cycles(pg.graph)  # the theorem's hypothesis, as one check
    sizes.update(pg.face_degrees)
    cover = random_cover(pg.graph, uniform_assignment(n, 3), seed, perfect=True)
    for step in color_planar_no46(pg, cover).trace:
        kinds[step.kind.value] += 1

print("face degrees over 100 instances:")
for degree in sorted(sizes):
    print(f"  {degree:>3}: {'#' * sizes[degree]}")

print("\nconfigurations excised by the pipeline:")
for kind, count in kinds.most_common():
    print(f"  {kind}: {count}")

pg = generate_plane_no46(16, seed=3)
print(f"\nsample instance (n=16, seed=3): {pg.graph.m} edges")
print("rotations:", [list(r) for r in pg.rotation])
