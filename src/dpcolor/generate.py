"""Seeded random plane graphs without 4- or 6-cycles.

Growth happens directly on the rotation system, so planarity never needs
re-testing: a pendant vertex drops into any corner, and an "ear" (a new
vertex joined to two corners of one face) or a chord splits that face in
two.  Ears and chords read the faces, so only they rebuild the plane graph
with ``embedding.plane_from_rotations``; a pendant vertex needs no faces.

Repair is local.  The graph has no 4- or 6-cycle before a move, so every
such cycle after it uses an edge the move inserted (a pendant edge is a
bridge and lies on no cycle).  Repair therefore searches the rotation
lists only for the cycles through the inserted edges that are still
present (``graphs.cycles_through_edge``), and deletes one edge of the
smallest, in ``list_cycles`` order: the 4-cycles first, then the 6-cycles.
An edge on a cycle is never a bridge, so the graph stays connected and the
embedding stays valid.  Every output is re-verified once before being
returned.  Distribution quality is a non-goal; validity and per-seed
determinism are the contract.
"""

from __future__ import annotations

import random

from .embedding import PlaneGraph, plane_from_rotations
from .errors import GenerationExhaustedError, InternalInvariantError
from .graphs import Edge, cycles_through_edge, has_forbidden_cycles


def _add_pendant(rotations: list[list[int]], rng: random.Random) -> list[Edge]:
    x = rng.randrange(len(rotations))
    v = len(rotations)
    pos = rng.randrange(len(rotations[x]) + 1) if rotations[x] else 0
    rotations[x].insert(pos, v)
    rotations.append([x])
    return []


def _corner_insert(rotations: list[list[int]], walk, pos: int, v: int) -> None:
    """Make the corner at walk position ``pos`` open toward vertex ``v``.

    The corner sits between the arcs ``walk[pos - 1] = (a, x)`` and
    ``walk[pos] = (x, b)``; inserting ``v`` right after ``a`` in the
    rotation at ``x`` redirects the walk through ``v``.
    """
    a, x = walk[pos - 1]
    ring = rotations[x]
    ring.insert(ring.index(a) + 1, v)


def _pick_corners(pg: PlaneGraph, min_degree: int, rng: random.Random, fits) -> tuple | None:
    """``(walk, p, q, x, y)``: a random face of degree ``min_degree`` or more
    and its first pair of corners, in shuffled order, at walk positions
    ``p``, ``q`` and distinct vertices ``x``, ``y`` with ``fits(x, y)``."""
    faces = [f for f in pg.faces if f.degree >= min_degree]
    if not faces:
        return None
    face = faces[rng.randrange(len(faces))]
    positions = list(range(face.degree))
    rng.shuffle(positions)
    for i, p in enumerate(positions):
        for q in positions[i + 1:]:
            x = face.walk[p - 1][1]
            y = face.walk[q - 1][1]
            if x != y and fits(x, y):
                return face.walk, p, q, x, y
    return None


def _add_ear(rotations: list[list[int]], pg: PlaneGraph, rng: random.Random) -> list[Edge]:
    found = _pick_corners(pg, 2, rng, lambda x, y: True)
    if found is None:
        return []
    walk, p, q, x, y = found
    v = len(rotations)
    _corner_insert(rotations, walk, p, v)
    _corner_insert(rotations, walk, q, v)
    rotations.append([x, y])
    return [(x, v), (v, y)]


def _add_chord(rotations: list[list[int]], pg: PlaneGraph, rng: random.Random) -> list[Edge]:
    found = _pick_corners(pg, 4, rng, lambda x, y: not pg.graph.has_edge(x, y))
    if found is None:
        return []
    walk, p, q, x, y = found
    _corner_insert(rotations, walk, p, y)
    _corner_insert(rotations, walk, q, x)
    return [(x, y)]


def _smallest_forbidden_cycle(
    rotations: list[list[int]], inserted: list[Edge]
) -> tuple[int, ...] | None:
    """The first 4-cycle, else 6-cycle, of ``list_cycles`` on the graph,
    found among the cycles through the ``inserted`` edges."""
    for k in (4, 6):
        cycles = [c for u, v in inserted for c in cycles_through_edge(rotations, u, v, k)]
        if cycles:
            return min(cycles)
    return None


def _repair(
    rotations: list[list[int]], inserted: list[Edge], rng: random.Random, max_rounds: int
) -> bool:
    """Delete one edge from some 4-/6-cycle until none remain.

    Invariant: before the move that inserted ``inserted``, the graph had
    no 4- or 6-cycle, so every such cycle uses an inserted edge that is
    still present, and the smallest of those is the graph's smallest.
    """
    for _ in range(max_rounds):
        cycle = _smallest_forbidden_cycle(rotations, inserted)
        if cycle is None:
            return True
        pick = rng.randrange(len(cycle))
        u, v = cycle[pick], cycle[(pick + 1) % len(cycle)]
        rotations[u].remove(v)
        rotations[v].remove(u)
    return _smallest_forbidden_cycle(rotations, inserted) is None


def _grow(rotations: list[list[int]], n: int, rng: random.Random) -> bool:
    """Grow ``rotations`` to ``n`` vertices, then densify with up to two
    chords; False as soon as a repair fails."""
    max_rounds = 2 * n + 10
    while len(rotations) < n:
        roll = rng.random()
        if len(rotations) < 3 or roll < 0.35:
            inserted = _add_pendant(rotations, rng)
        else:
            move = _add_ear if roll < 0.9 else _add_chord
            inserted = move(rotations, plane_from_rotations(rotations), rng)
            if not inserted:
                inserted = _add_pendant(rotations, rng)
        if not _repair(rotations, inserted, rng, max_rounds):
            return False
    for _ in range(rng.randrange(3)):  # densify, then re-repair
        inserted = _add_chord(rotations, plane_from_rotations(rotations), rng)
        if not _repair(rotations, inserted, rng, max_rounds):
            return False
    return True


def generate_plane_no46(
    n: int, seed: int, attempts: int = 20
) -> PlaneGraph:
    """A connected plane graph on ``n`` vertices with no 4- or 6-cycles.

    Deterministic per ``(n, seed)``.  Raises ``GenerationExhaustedError``
    when no attempt produces an instance, and ``InternalInvariantError``
    if the final check finds a 4- or 6-cycle that repair missed.
    """
    if n < 1:
        raise GenerationExhaustedError("need at least one vertex")
    rng = random.Random(seed)
    for _ in range(attempts):
        rotations: list[list[int]] = [[]]
        if not _grow(rotations, n, rng):
            continue
        pg = plane_from_rotations(rotations)
        if pg.graph.n != n or has_forbidden_cycles(pg.graph):
            raise InternalInvariantError(
                f"generated graph for n={n}, seed={seed} failed its final check"
            )
        return pg
    raise GenerationExhaustedError(
        f"no valid instance for n={n} after {attempts} attempts"
    )
