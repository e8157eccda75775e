"""Seeded random plane graphs without 4- or 6-cycles.

Growth happens directly on the rotation system, so planarity never needs
re-testing: a pendant vertex drops into any corner, and an "ear" (a new
vertex joined to two corners of one face) or a chord splits that face in
two.  Whenever a 4- or 6-cycle appears, repair deletes one of the cycle's
edges (an edge on a cycle is never a bridge), so the graph stays connected
and the embedding stays valid.  Each move rebuilds the plane graph with
``embedding.plane_from_rotations``; repair needs only the edges, so it
calls ``embedding.graph_from_rotations`` and traces no faces.  Every
output is re-verified before being returned.  Distribution quality is a
non-goal; validity and per-seed determinism are the contract.
"""

from __future__ import annotations

import random

from .embedding import PlaneGraph, graph_from_rotations, plane_from_rotations
from .errors import GenerationExhaustedError
from .graphs import has_forbidden_cycles, list_cycles


def _add_pendant(rotations: list[list[int]], rng: random.Random) -> None:
    x = rng.randrange(len(rotations))
    v = len(rotations)
    pos = rng.randrange(len(rotations[x]) + 1) if rotations[x] else 0
    rotations[x].insert(pos, v)
    rotations.append([x])


def _corner_insert(rotations: list[list[int]], walk, pos: int, v: int) -> None:
    """Make the corner at walk position ``pos`` open toward the new vertex.

    The corner sits between the arcs ``walk[pos - 1] = (a, x)`` and
    ``walk[pos] = (x, b)``; inserting ``v`` right after ``a`` in the
    rotation at ``x`` redirects the walk through ``v``.
    """
    a, x = walk[pos - 1]
    ring = rotations[x]
    ring.insert(ring.index(a) + 1, v)


def _add_ear(rotations: list[list[int]], pg: PlaneGraph, rng: random.Random) -> bool:
    faces = [f for f in pg.faces if f.degree >= 2]
    if not faces:
        return False
    face = faces[rng.randrange(len(faces))]
    positions = list(range(face.degree))
    rng.shuffle(positions)
    for i, p in enumerate(positions):
        for q in positions[i + 1:]:
            x = face.walk[p - 1][1]
            y = face.walk[q - 1][1]
            if x != y:
                v = len(rotations)
                _corner_insert(rotations, face.walk, p, v)
                _corner_insert(rotations, face.walk, q, v)
                rotations.append([x, y])
                return True
    return False


def _add_chord(rotations: list[list[int]], pg: PlaneGraph, rng: random.Random) -> bool:
    faces = [f for f in pg.faces if f.degree >= 4]
    if not faces:
        return False
    face = faces[rng.randrange(len(faces))]
    positions = list(range(face.degree))
    rng.shuffle(positions)
    for i, p in enumerate(positions):
        for q in positions[i + 1:]:
            x = face.walk[p - 1][1]
            y = face.walk[q - 1][1]
            if x != y and not pg.graph.has_edge(x, y):
                lo, hi = min(p, q), max(p, q)
                a, xx = face.walk[lo - 1]
                c, yy = face.walk[hi - 1]
                rotations[xx].insert(rotations[xx].index(a) + 1, yy)
                rotations[yy].insert(rotations[yy].index(c) + 1, xx)
                return True
    return False


def _delete_edge(rotations: list[list[int]], u: int, v: int) -> None:
    rotations[u].remove(v)
    rotations[v].remove(u)


def _repair(rotations: list[list[int]], rng: random.Random, max_rounds: int) -> bool:
    """Delete one edge from some 4-/6-cycle until none remain."""
    for _ in range(max_rounds):
        g = graph_from_rotations(rotations)
        bad = list_cycles(g, 4) or list_cycles(g, 6)
        if not bad:
            return True
        cycle = bad[0]
        pick = rng.randrange(len(cycle))
        u, v = cycle[pick], cycle[(pick + 1) % len(cycle)]
        _delete_edge(rotations, u, v)
    g = graph_from_rotations(rotations)
    return not (list_cycles(g, 4) or list_cycles(g, 6))


def generate_plane_no46(
    n: int, seed: int, attempts: int = 20
) -> PlaneGraph:
    """A connected plane graph on ``n`` vertices with no 4- or 6-cycles.

    Deterministic per ``(n, seed)``.  Raises ``GenerationExhaustedError``
    when no attempt produces a verified instance.
    """
    if n < 1:
        raise GenerationExhaustedError("need at least one vertex")
    rng = random.Random(seed)
    for _ in range(attempts):
        rotations: list[list[int]] = [[]]
        ok = True
        while len(rotations) < n:
            pg = plane_from_rotations(rotations)
            roll = rng.random()
            if len(rotations) < 3 or roll < 0.35:
                _add_pendant(rotations, rng)
            elif roll < 0.9:
                if not _add_ear(rotations, pg, rng):
                    _add_pendant(rotations, rng)
            else:
                if not _add_chord(rotations, pg, rng):
                    _add_pendant(rotations, rng)
            if not _repair(rotations, rng, max_rounds=2 * n + 10):
                ok = False
                break
        if not ok:
            continue
        for _ in range(rng.randrange(3)):  # densify, then re-repair
            pg = plane_from_rotations(rotations)
            _add_chord(rotations, pg, rng)
            if not _repair(rotations, rng, max_rounds=2 * n + 10):
                ok = False
                break
        if not ok:
            continue
        pg = plane_from_rotations(rotations)
        if pg.graph.n != n or has_forbidden_cycles(pg.graph):
            continue
        return pg
    raise GenerationExhaustedError(
        f"no valid instance for n={n} after {attempts} attempts"
    )
