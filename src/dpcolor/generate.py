"""Seeded random plane graphs without 4- or 6-cycles.

Growth happens directly on the rotation system, so planarity never needs
re-testing: a pendant vertex drops into any corner, and an "ear" (a new
vertex joined to two corners of one face) or a chord splits that face in
two.  The rotation system is an ``embedding.FaceRegistry`` sized to the
``n`` asked for, which keeps the faces up to date as edges come and go:
ears and chords draw their face from it and read the ends of its integer
darts ``u * n + v`` with ``divmod`` and ``%``, and each edit splices only
the face walks it changes and re-keys only the darts that change face.
Ears and chords try a face's corners in an order shuffled straight from
the rng's bit stream, with the draws ``rng.shuffle`` makes.  The graph
grows once, and
``embedding.plane_from_rotations`` builds its plane graph once, for the
result.

Repair is local.  The graph has no 4- or 6-cycle before a move, so every
such cycle after it uses an edge the move inserted (a pendant edge is a
bridge and lies on no cycle).  Repair therefore searches the rotation
lists only for the cycles through the watched edges that are still
present (``graphs.smallest_forbidden_cycle``, one fixed-depth search per
edge that reports its 4- and 6-cycles together), and deletes one edge of
the least such cycle: the least 4-cycle, else the least 6-cycle.
An ear is watched through its first edge only: its new vertex has degree
2, so every cycle through the second edge passes through the first, and
deleting the first leaves the second a bridge.
An edge on a cycle is never a bridge, so the graph stays connected and the
embedding stays valid.  Repair ends: each round deletes an edge, so it
runs at most as many rounds as there are edges.  Every output is
re-verified once before being returned.  Distribution quality is a
non-goal; validity and per-seed determinism are the contract.
"""

from __future__ import annotations

import random

from .embedding import FaceRegistry, PlaneGraph, plane_from_rotations
from .errors import GenerationExhaustedError, InternalInvariantError
from .graphs import Edge, smallest_forbidden_cycle


def _add_pendant(reg: FaceRegistry, rng: random.Random) -> list[Edge]:
    rotations = reg.rotations
    x = rng.randrange(len(rotations))
    pos = rng.randrange(len(rotations[x]) + 1) if rotations[x] else 0
    reg.insert_edge(x, pos, len(rotations), 0)
    return []


def _corner(reg: FaceRegistry, walk, pos: int) -> int:
    """The ring index that opens the corner at walk position ``pos``.

    The corner at ``x`` sits between the darts ``walk[pos - 1]``, from
    ``a`` to ``x``, and ``walk[pos]``, from ``x``; an edge inserted right
    after ``a`` in the rotation at ``x`` leaves through it.
    """
    a, x = divmod(walk[pos - 1], reg.n)
    return reg.rotations[x].index(a) + 1


def _shuffled(length: int, rng: random.Random) -> list[int]:
    """``list(range(length))`` shuffled by the ``getrandbits`` calls that
    ``rng.shuffle`` makes on it, so the result and the rng's state after
    it are those of ``rng.shuffle``."""
    getrandbits = rng.getrandbits
    positions = list(range(length))
    for i in range(length - 1, 0, -1):  # j = rng._randbelow(i + 1)
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        positions[i], positions[j] = positions[j], positions[i]
    return positions


def _pick_corners(reg: FaceRegistry, keys: list, rng: random.Random, fits) -> tuple | None:
    """``(walk, p, q, x, y)``: a random face among ``keys`` and its first
    pair of corners, in shuffled order, at walk positions ``p``, ``q`` and
    distinct vertices ``x``, ``y`` with ``fits(x, y)``."""
    if not keys:
        return None
    n = reg.n
    walk = reg.walks[keys[rng.randrange(len(keys))]]
    positions = _shuffled(len(walk), rng)
    for i, p in enumerate(positions):
        for q in positions[i + 1:]:
            x = walk[p - 1] % n
            y = walk[q - 1] % n
            if x != y and fits(x, y):
                return walk, p, q, x, y
    return None


def _add_ear(reg: FaceRegistry, rng: random.Random) -> list[Edge]:
    # The graph is connected with an edge, so every face walk passes both
    # ends of an edge and has corners at two distinct vertices: with an
    # always-true ``fits``, ``_pick_corners`` never returns None.
    walk, p, q, x, y = _pick_corners(reg, reg.keys, rng, lambda x, y: True)
    v = len(reg.rotations)
    reg.insert_edge(x, _corner(reg, walk, p), v, 0)
    reg.insert_edge(y, _corner(reg, walk, q), v, 1)
    return [(x, v)]  # every cycle through (v, y) passes through (x, v)


def _add_chord(reg: FaceRegistry, rng: random.Random) -> list[Edge]:
    found = _pick_corners(reg, reg.big_keys, rng, lambda x, y: not reg.has_edge(x, y))
    if found is None:
        return []
    walk, p, q, x, y = found
    reg.insert_edge(x, _corner(reg, walk, p), y, _corner(reg, walk, q))
    return [(x, y)]


def _repair(reg: FaceRegistry, inserted: list[Edge], rng: random.Random) -> None:
    """Delete one edge from some 4-/6-cycle until none remain.

    Invariant: before the move that inserted ``inserted``, the graph had
    no 4- or 6-cycle, so every such cycle uses an inserted edge that is
    still present, and the smallest of those is the graph's smallest.
    """
    while (cycle := smallest_forbidden_cycle(reg.rotations, inserted)) is not None:
        pick = rng.randrange(len(cycle))
        reg.remove_edge(cycle[pick], cycle[(pick + 1) % len(cycle)])


def generate_plane_no46(n: int, seed: int) -> PlaneGraph:
    """A connected plane graph on ``n`` vertices with no 4- or 6-cycles.

    Deterministic per ``(n, seed)``: one seeded rng grows the graph to
    ``n`` vertices and adds up to two chords, with a repair after each
    move.  Raises ``GenerationExhaustedError`` when ``n < 1``, and
    ``InternalInvariantError`` if the final check finds a 4- or 6-cycle
    that repair missed.
    """
    if n < 1:
        raise GenerationExhaustedError("need at least one vertex")
    rng = random.Random(seed)
    reg = FaceRegistry(n)
    rotations = reg.rotations
    while len(rotations) < n:
        roll = rng.random()
        if len(rotations) < 3 or roll < 0.35:
            inserted = _add_pendant(reg, rng)
        else:
            move = _add_ear if roll < 0.9 else _add_chord
            inserted = move(reg, rng) or _add_pendant(reg, rng)
        _repair(reg, inserted, rng)
    for _ in range(rng.randrange(3)):  # densify, then re-repair
        _repair(reg, _add_chord(reg, rng), rng)
    pg = plane_from_rotations(rotations)
    if pg.graph.n != n or pg.graph.has_forbidden_cycles:
        raise InternalInvariantError(
            f"generated graph for n={n}, seed={seed} failed its final check"
        )
    return pg
