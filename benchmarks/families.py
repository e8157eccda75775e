"""Deterministic plane-graph families for the benchmark ladder.

Every constructor returns a rotation system: ``rotations[v]`` lists the
neighbors of ``v`` in counter-clockwise order.  The graphs are built
here, without ``dpcolor``, so that later changes to the library cannot
move the benchmark's inputs.  ``freeze.py`` checks each one (Euler
identity via face tracing, no 4- or 6-cycle via networkx) before it is
written to ``instances.json``.
"""

from __future__ import annotations

import math

Rotations = list[list[int]]


def _ccw(points: list[tuple[float, float]], adjacency: list[set[int]]) -> Rotations:
    """Rotations of a straight-line drawing: neighbors sorted by angle."""
    out = []
    for v, (x, y) in enumerate(points):
        out.append(sorted(
            adjacency[v],
            key=lambda w: math.atan2(points[w][1] - y, points[w][0] - x),
        ))
    return out


def dodecahedron() -> Rotations:
    """The dodecahedron drawn as outer 5-cycle, middle 10-cycle, inner 5-cycle.

    Vertices 0-4 are the outer ring, 5-14 the middle ring and 15-19 the
    inner ring; outer ``j`` meets middle ``2j`` and inner ``j`` meets
    middle ``2j + 1``.
    """
    points: list[tuple[float, float]] = []
    for j in range(5):
        a = 2 * math.pi * j / 5
        points.append((3 * math.cos(a), 3 * math.sin(a)))
    for k in range(10):
        a = 2 * math.pi * k / 10
        points.append((2 * math.cos(a), 2 * math.sin(a)))
    for j in range(5):
        a = 2 * math.pi * (2 * j + 1) / 10
        points.append((math.cos(a), math.sin(a)))
    adjacency: list[set[int]] = [set() for _ in range(20)]

    def join(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)

    for j in range(5):
        join(j, (j + 1) % 5)
        join(j, 5 + 2 * j)
        join(15 + j, 15 + (j + 1) % 5)
        join(15 + j, 5 + 2 * j + 1)
    for k in range(10):
        join(5 + k, 5 + (k + 1) % 10)
    return _ccw(points, adjacency)


def dodecahedron_chain(copies: int) -> Rotations:
    """``copies`` dodecahedra, copy i joined to copy i+1 by one bridge.

    The bridge runs from outer vertex 0 of copy i to outer vertex 2 of
    copy i+1, so inner copies have two 4-vertices (the bridge ends) and
    every other vertex has degree 3.  A bridge lies on no cycle, so the
    chain keeps the dodecahedron's girth and its lack of 6-cycles.
    """
    base = dodecahedron()
    rotations: Rotations = []
    for i in range(copies):
        rotations += [[w + 20 * i for w in ring] for ring in base]
    for i in range(copies - 1):
        a, b = 20 * i, 20 * (i + 1) + 2
        rotations[a].append(b)
        rotations[b].append(a)
    return rotations


def triangle_chain(triangles: int) -> Rotations:
    """Triangles ``(2i, 2i+1, 2i+2)`` joined at the cut vertices ``2i``.

    Spine vertices sit on the x-axis, apexes ``2i+1`` above them; inner
    spine vertices have degree 4 and apexes degree 2.
    """
    n = 2 * triangles + 1
    rotations: Rotations = []
    for v in range(n):
        if v % 2:
            rotations.append([v - 1, v + 1])
            continue
        i = v // 2
        ring = []
        if i < triangles:
            ring += [v + 2, v + 1]
        if i > 0:
            ring += [v - 1, v - 2]
        rotations.append(ring)
    return rotations


def path(n: int) -> Rotations:
    return [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]


def fan(blades: int) -> Rotations:
    """A friendship graph whose blade vertices each carry two leaves.

    Vertex 0 is the centre, blade ``i`` is the triangle ``(0, a, b)`` with
    ``a = 1 + 6i`` and ``b = a + 1``; vertices ``a + 2 .. a + 5`` are the
    leaves.  Every triangle corner has degree at least 4, so all three
    corners pay rule R1 and the centre sees every face.
    """
    n = 1 + 6 * blades
    rotations: Rotations = [[] for _ in range(n)]
    for i in range(blades):
        a = 1 + 6 * i
        b = a + 1
        rotations[0] += [a, b]
        rotations[a] = [b, 0, a + 2, a + 3]
        rotations[b] = [0, a, b + 3, b + 4]
        for leaf, owner in ((a + 2, a), (a + 3, a), (b + 3, b), (b + 4, b)):
            rotations[leaf] = [owner]
    return rotations


def triangulated_grid(rows: int, cols: int) -> tuple[int, list[tuple[int, int]]]:
    """Grid with one diagonal per square: vertex count and sorted edges."""
    def idx(i: int, j: int) -> int:
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((idx(i, j), idx(i, j + 1)))
            if i + 1 < rows:
                edges.append((idx(i, j), idx(i + 1, j)))
            if i + 1 < rows and j + 1 < cols:
                edges.append((idx(i, j), idx(i + 1, j + 1)))
    return rows * cols, sorted(edges)


def edges_of(rotations: Rotations) -> list[tuple[int, int]]:
    return sorted({(min(v, w), max(v, w)) for v, ring in enumerate(rotations) for w in ring})


def face_count(rotations: Rotations) -> int:
    """Number of face walks of a rotation system (same successor rule as dpcolor)."""
    successor = {}
    for v, ring in enumerate(rotations):
        for i, u in enumerate(ring):
            successor[(u, v)] = (v, ring[(i + 1) % len(ring)])
    seen = set()
    faces = 0
    for start in successor:
        if start in seen:
            continue
        faces += 1
        arc = start
        while arc not in seen:
            seen.add(arc)
            arc = successor[arc]
    return faces if successor else 1


def is_connected(n: int, edges) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0} if n else set()
    stack = list(seen)
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n
