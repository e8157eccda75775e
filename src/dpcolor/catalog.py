"""Built-in plane graph instances.

Each entry stores a rotation system (the edges follow from it) plus the
expected answer to "does the graph avoid 4- and 6-cycles?".  Loading an
entry builds it with ``embedding.plane_from_rotations`` and re-derives
that flag, so a corrupted entry fails loudly; the answer stays cached on
the loaded graph for later checks.  ``gen15``/``gen20`` are frozen
outputs of the random generator kept as larger regression instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import PlaneGraph, plane_from_rotations
from .errors import InternalInvariantError


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    rotations: tuple[tuple[int, ...], ...]
    no46: bool  # expected "no 4- or 6-cycles" flag, re-verified at load


def _entry(name, description, rotations, no46):
    return CatalogEntry(
        name=name,
        description=description,
        rotations=tuple(tuple(r) for r in rotations),
        no46=no46,
    )


_ENTRIES: tuple[CatalogEntry, ...] = (
    _entry("k1", "single vertex", [[]], True),
    _entry("k2", "single edge", [[1], [0]], True),
    _entry("k3", "triangle", [[1, 2], [0, 2], [0, 1]], True),
    _entry(
        "k4",
        "complete graph on 4 vertices (has 4-cycles)",
        [[1, 3, 2], [0, 2, 3], [1, 0, 3], [2, 0, 1]],
        False,
    ),
    _entry("c4", "4-cycle", [[1, 3], [0, 2], [1, 3], [2, 0]], False),
    _entry("c5", "5-cycle", [[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]], True),
    _entry(
        "c7",
        "7-cycle",
        [[1, 6], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 0]],
        True,
    ),
    _entry("path4", "path on 4 vertices", [[1], [0, 2], [1, 3], [2]], True),
    _entry("star5", "star with 4 leaves", [[1, 2, 3, 4], [0], [0], [0], [0]], True),
    _entry(
        "spider",
        "three legs of length 2 from a center",
        [[1, 3, 5], [0, 2], [1], [0, 4], [3], [0, 6], [5]],
        True,
    ),
    _entry(
        "bowtie",
        "two triangles sharing a vertex",
        [[1, 2], [2, 0], [0, 1, 3, 4], [4, 2], [2, 3]],
        True,
    ),
    _entry(
        "net",
        "triangle with a pendant edge at each corner",
        [[2, 1, 3], [0, 2, 4], [1, 0, 5], [0], [1], [2]],
        True,
    ),
    _entry(
        "friendship3",
        "three triangles sharing one vertex",
        [[1, 2, 3, 4, 5, 6], [2, 0], [0, 1], [4, 0], [0, 3], [6, 0], [0, 5]],
        True,
    ),
    _entry(
        "star_aug_triangle",
        "triangle with one degree-3 corner whose off-face neighbor is a leaf",
        [[2, 1, 3], [0, 2, 4, 5], [1, 0, 6, 7], [0], [1], [1], [2], [2]],
        True,
    ),
    _entry(
        "triangle_tail7",
        "triangle sharing exactly one edge with a 7-face",
        [[1, 2, 7], [0, 3, 2], [0, 1], [1, 4], [3, 5], [4, 6], [5, 7], [6, 0]],
        True,
    ),
    _entry(
        "aug_triangle_full",
        "triangle whose corners have degrees 3,4,4 with every helper vertex boosted to degree 4",
        [
            [2, 1, 3], [0, 2, 4, 5], [1, 0, 6, 7], [0, 8, 9, 10],
            [1], [1], [2], [2], [3], [3], [3],
        ],
        True,
    ),
    _entry(
        "cube",
        "3-cube graph (has 4-cycles)",
        [
            [4, 1, 2], [3, 0, 5], [6, 0, 3], [2, 1, 7],
            [0, 6, 5], [1, 4, 7], [4, 2, 7], [5, 6, 3],
        ],
        False,
    ),
    _entry(
        "dodecahedron",
        "regular dodecahedron: 3-regular, twelve 5-faces, no 4- or 6-cycles",
        [
            [1, 10, 19], [0, 2, 8], [1, 3, 6], [2, 19, 4], [3, 17, 5],
            [4, 15, 6], [5, 7, 2], [6, 14, 8], [7, 9, 1], [8, 13, 10],
            [9, 11, 0], [10, 12, 18], [11, 13, 16], [12, 9, 14], [13, 7, 15],
            [14, 5, 16], [15, 17, 12], [16, 4, 18], [17, 19, 11], [18, 3, 0],
        ],
        True,
    ),
    _entry(
        "gen15",
        "frozen random instance on 15 vertices",
        [
            [13, 4, 2, 1, 9, 7, 6, 14, 3], [0, 7, 11], [0, 3], [0, 2, 10],
            [0, 5, 8, 12], [4], [0], [0, 1], [4, 12], [0], [3], [1],
            [4, 8], [0], [0],
        ],
        True,
    ),
    _entry(
        "gen20",
        "frozen random instance on 20 vertices",
        [
            [3], [2], [1, 17, 14, 11, 7], [9, 12, 5, 13, 0, 8, 6, 4], [3],
            [12, 3], [3, 10], [16, 10, 2], [3, 17], [3, 13, 15],
            [6, 7, 18], [2], [3, 5], [3, 9], [2], [9], [7], [2, 8],
            [10, 19], [18],
        ],
        True,
    ),
)


def entry_names() -> tuple[str, ...]:
    return tuple(e.name for e in _ENTRIES)


def entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def load(name: str) -> PlaneGraph:
    """Build, trace, and verify one catalog instance by name."""
    for entry in _ENTRIES:
        if entry.name == name:
            pg = plane_from_rotations(entry.rotations)
            actual = not pg.graph.has_forbidden_cycles
            if actual != entry.no46:
                raise InternalInvariantError(
                    f"catalog entry {name}: stored no46={entry.no46}, derived {actual}"
                )
            return pg
    raise KeyError(f"no catalog entry named {name!r}")


def no46_names() -> tuple[str, ...]:
    """Names of entries without 4- or 6-cycles (verified at load)."""
    return tuple(e.name for e in _ENTRIES if e.no46)
