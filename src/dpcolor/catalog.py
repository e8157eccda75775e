"""Built-in plane graph instances.

``_ENTRIES`` maps each name to a rotation system (the edges follow from
it) and the expected answer to "does the graph avoid 4- and 6-cycles?",
with a comment describing the instance.  Loading an entry builds it with
``embedding.plane_from_rotations`` and re-derives that flag, so a
corrupted entry fails loudly; the answer stays cached on the loaded graph
for later checks.  ``gen15``/``gen20`` are frozen outputs of the random
generator kept as larger regression instances.
"""

from __future__ import annotations

from .embedding import PlaneGraph, plane_from_rotations
from .errors import InternalInvariantError

_ENTRIES: dict[str, tuple[list[list[int]], bool]] = {
    # single vertex
    "k1": ([[]], True),
    # single edge
    "k2": ([[1], [0]], True),
    # triangle
    "k3": ([[1, 2], [0, 2], [0, 1]], True),
    # complete graph on 4 vertices (has 4-cycles)
    "k4": ([[1, 3, 2], [0, 2, 3], [1, 0, 3], [2, 0, 1]], False),
    # 4-cycle
    "c4": ([[1, 3], [0, 2], [1, 3], [2, 0]], False),
    # 5-cycle
    "c5": ([[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]], True),
    # 7-cycle
    "c7": ([[1, 6], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 0]], True),
    # path on 4 vertices
    "path4": ([[1], [0, 2], [1, 3], [2]], True),
    # star with 4 leaves
    "star5": ([[1, 2, 3, 4], [0], [0], [0], [0]], True),
    # three legs of length 2 from a center
    "spider": ([[1, 3, 5], [0, 2], [1], [0, 4], [3], [0, 6], [5]], True),
    # two triangles sharing a vertex
    "bowtie": ([[1, 2], [2, 0], [0, 1, 3, 4], [4, 2], [2, 3]], True),
    # triangle with a pendant edge at each corner
    "net": ([[2, 1, 3], [0, 2, 4], [1, 0, 5], [0], [1], [2]], True),
    # three triangles sharing one vertex
    "friendship3": ([[1, 2, 3, 4, 5, 6], [2, 0], [0, 1], [4, 0], [0, 3], [6, 0], [0, 5]], True),
    # triangle with one degree-3 corner whose off-face neighbor is a leaf
    "star_aug_triangle": ([[2, 1, 3], [0, 2, 4, 5], [1, 0, 6, 7], [0], [1], [1], [2], [2]], True),
    # triangle sharing exactly one edge with a 7-face
    "triangle_tail7": (
        [[1, 2, 7], [0, 3, 2], [0, 1], [1, 4], [3, 5], [4, 6], [5, 7], [6, 0]],
        True,
    ),
    # triangle whose corners have degrees 3,4,4 with every helper vertex boosted to degree 4
    "aug_triangle_full": (
        [
            [2, 1, 3], [0, 2, 4, 5], [1, 0, 6, 7], [0, 8, 9, 10],
            [1], [1], [2], [2], [3], [3], [3],
        ],
        True,
    ),
    # 3-cube graph (has 4-cycles)
    "cube": (
        [
            [4, 1, 2], [3, 0, 5], [6, 0, 3], [2, 1, 7],
            [0, 6, 5], [1, 4, 7], [4, 2, 7], [5, 6, 3],
        ],
        False,
    ),
    # regular dodecahedron: 3-regular, twelve 5-faces, no 4- or 6-cycles
    "dodecahedron": (
        [
            [1, 10, 19], [0, 2, 8], [1, 3, 6], [2, 19, 4], [3, 17, 5],
            [4, 15, 6], [5, 7, 2], [6, 14, 8], [7, 9, 1], [8, 13, 10],
            [9, 11, 0], [10, 12, 18], [11, 13, 16], [12, 9, 14], [13, 7, 15],
            [14, 5, 16], [15, 17, 12], [16, 4, 18], [17, 19, 11], [18, 3, 0],
        ],
        True,
    ),
    # frozen random instance on 15 vertices
    "gen15": (
        [
            [13, 4, 2, 1, 9, 7, 6, 14, 3], [0, 7, 11], [0, 3], [0, 2, 10],
            [0, 5, 8, 12], [4], [0], [0, 1], [4, 12], [0], [3], [1],
            [4, 8], [0], [0],
        ],
        True,
    ),
    # frozen random instance on 20 vertices
    "gen20": (
        [
            [3], [2], [1, 17, 14, 11, 7], [9, 12, 5, 13, 0, 8, 6, 4], [3],
            [12, 3], [3, 10], [16, 10, 2], [3, 17], [3, 13, 15],
            [6, 7, 18], [2], [3, 5], [3, 9], [2], [9], [7], [2, 8],
            [10, 19], [18],
        ],
        True,
    ),
}


def entry_names() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def load(name: str) -> PlaneGraph:
    """Build, trace, and verify one catalog instance by name."""
    if name not in _ENTRIES:
        raise KeyError(f"no catalog entry named {name!r}")
    rotations, no46 = _ENTRIES[name]
    pg = plane_from_rotations(rotations)
    actual = not pg.graph.has_forbidden_cycles
    if actual != no46:
        raise InternalInvariantError(
            f"catalog entry {name}: stored no46={no46}, derived {actual}"
        )
    return pg


def no46_names() -> tuple[str, ...]:
    """Names of entries without 4- or 6-cycles (verified at load)."""
    return tuple(name for name, (_, no46) in _ENTRIES.items() if no46)
