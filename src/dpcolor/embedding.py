"""Combinatorial plane embeddings: rotation systems and face tracing.

An embedding is given as a rotation system: for each vertex, the cyclic
order of its neighbors.  Faces are the orbits of the successor rule: after
arriving at ``v`` along ``(u, v)``, leave along ``(v, w)`` where ``w``
follows ``u`` in the rotation at ``v``.  Every directed edge then lies on
exactly one face walk, a bridge contributes both directions to the same
walk, and for a connected plane embedding the Euler identity
``|V| - |E| + |F| = 2`` holds; the identity is checked and its failure
means the rotation system does not describe a sphere embedding.

``plane_from_rotations`` builds a plane graph from a rotation system, the
one way to do so: ``graph_from_rotations`` then ``trace_faces``.  Both
check the rings against the graph's rows all at once, from the sorted
rings; a ring is looked at alone only to name a fault, with the error
that building the graph from the rings' edge set raises.  The face walk
follows a successor map per vertex.  A face is its index into
``PlaneGraph.faces``, which holds each face's corner cycle: the tail of
each dart along its walk, so the walk's darts are the pairs of
consecutive corners.  Facts shared by several consumers are derived once
per graph and cached: the 4-/6-cycle check and the degree list on
``Graph``; the face degrees, the face index at each vertex's corners and
the pendant 3-faces on ``PlaneGraph``.  ``PlaneGraph.pendant_triangles``
is the one place that finds a pendant 3-face's payer: the discharging
rule R3 and the 3-face case of the audit read it from that map.

``FaceRegistry`` is the mutable counterpart: a rotation system that is
edited one edge at a time and keeps its faces in ``trace_faces`` order.
Sized to ``n`` vertices, it holds a dart ``(u, v)`` as the integer
``u * n + v``, so its walks, keys and face map order, compare and hash
small integers.  An edit splices the walks of the faces it changes and
re-keys only the darts that change face; the random generator grows its
instances on it and builds a ``PlaneGraph`` only for the result.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import (
    DisconnectedError,
    InternalInvariantError,
    InvalidRotationError,
    NonPlanarEmbeddingError,
)
from .graphs import Graph, build_graph, is_connected

Rotation = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PlaneGraph:
    """A graph together with a validated embedding and its traced faces.

    ``faces[i]`` is the corner cycle of face ``i``: the vertices along its
    boundary walk, with multiplicity, so that its darts are the pairs of
    consecutive corners, the last with the first.  A face's degree counts
    traversals, so a bridge counts twice.  The single-vertex graph has one
    face with no corner.
    """

    graph: Graph
    rotation: Rotation
    faces: tuple[tuple[int, ...], ...]

    @cached_property
    def face_degrees(self) -> tuple[int, ...]:
        """Each face's degree, by face index."""
        return tuple(map(len, self.faces))

    @cached_property
    def corner_faces(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the face index at each corner in rotation order: the
        face of ``(v, w)`` for each ``w`` in ``rotation[v]``.  A face met at
        two corners (at a cut vertex) is listed twice."""
        face_of: dict[tuple[int, int], int] = {}
        for i, corners in enumerate(self.faces):
            face_of.update(dict.fromkeys(zip(corners, corners[1:] + corners[:1]), i))
        return tuple(
            tuple([face_of[v, w] for w in ring]) for v, ring in enumerate(self.rotation)
        )

    @cached_property
    def pendant_triangles(self) -> dict[int, tuple[int, int]]:
        """Pendant 3-faces by face index, from one pass over the faces.

        A (3,4+,4+)-face with degree-3 corner ``u`` is a pendant 3-face of
        ``u``'s one neighbor off the face, its payer, whatever the payer's
        degree.  Maps each such face to ``(payer, u)``.
        """
        deg = self.graph.degrees
        out: dict[int, tuple[int, int]] = {}
        for i, corners in enumerate(self.faces):
            if len(corners) != 3:
                continue
            degs = [deg[u] for u in corners]
            if degs.count(3) != 1 or min(degs) < 3:
                continue
            low = corners[degs.index(3)]
            # in a simple graph a degree-3 corner has one neighbor off its 3-face
            out[i] = (next(w for w in self.graph.adjacency[low] if w not in corners), low)
        return out


def graph_from_rotations(rotations: Sequence[Sequence[int]]) -> Graph:
    """The simple graph with an edge ``{v, w}`` for each ``w`` in ring ``v``.

    Each ring is sorted once, and the edges ``(v, w)`` with ``v < w`` are
    read off the sorted rings in row order, already sorted.  When the rows
    rebuilt from those edges equal the sorted rings, and no edge repeats,
    each ring lists its vertex's neighbours once each and the sorted rings
    are the graph's rows.  Otherwise (a loop, a vertex out of range, a
    repeated or one-sided neighbour) the edge set of all rings goes
    through ``build_graph``, which raises on the first two.
    """
    n = len(rotations)
    rows = [sorted(ring) for ring in rotations]
    edges = [(v, w) for v, row in enumerate(rows) for w in row if v < w]
    rebuilt: list[list[int]] | None = [[] for _ in range(n)]
    try:
        for v, w in edges:
            rebuilt[v].append(w)
            rebuilt[w].append(v)
    except IndexError:  # a neighbour past n - 1
        rebuilt = None
    if rebuilt == rows and len(set(edges)) == len(edges):
        return Graph(n=n, edges=tuple(edges), adjacency=tuple(map(tuple, rows)))
    return build_graph(
        n, {(v, w) if v < w else (w, v) for v, ring in enumerate(rotations) for w in ring}
    )


def plane_from_rotations(rotations: Sequence[Sequence[int]]) -> PlaneGraph:
    """Build the graph of a rotation system and trace its faces.

    Raises ``InvalidRotationError`` on a ring that is not a list of
    integers, and whatever ``build_graph`` and ``trace_faces`` raise on an
    invalid graph or embedding.
    """
    if not (
        {list, tuple}.issuperset(map(type, rotations))
        and {int}.issuperset(map(type, chain.from_iterable(rotations)))
    ):  # all rings at once; one by one only to name the bad ring
        for v, ring in enumerate(rotations):
            if not isinstance(ring, (list, tuple)) or not {int}.issuperset(map(type, ring)):
                raise InvalidRotationError(
                    f"rotation at {v} is not a list of integers: {ring!r}"
                )
    return trace_faces(graph_from_rotations(rotations), rotations)


def _face_walks(rotation: Rotation, graph: Graph) -> tuple[tuple[int, ...], ...]:
    """The corner cycle of every face walk of ``rotation``, in the order of
    its smallest dart, whose tail it starts at; the graph's sorted rows list
    the darts in that order.

    ``after[v][u]`` is the vertex that follows ``u`` in the ring at ``v``:
    after arriving at ``v`` along ``(u, v)`` the walk leaves along
    ``(v, after[v][u])``.  Each entry is popped as its dart is walked, so
    a dart ``(v, w)`` is unwalked while ``v`` is in ``after[w]``.
    """
    after = [dict(zip(ring, ring[1:] + ring[:1])) for ring in rotation]
    walks = []
    for v, row in enumerate(graph.adjacency):
        for w in row:
            if v not in after[w]:
                continue
            walk = [v]
            x, y = w, after[w].pop(v)
            while x != v or y != w:
                walk.append(x)
                x, y = y, after[y].pop(x)
            walks.append(tuple(walk))
    return tuple(walks)


class FaceRegistry:
    """A rotation system on at most ``n`` vertices, edited one edge at a
    time, with its faces kept up to date.

    ``rotations`` starts as the single vertex ``[[]]`` and changes only
    through ``insert_edge`` and ``remove_edge``.  A dart ``(u, v)`` is held
    as the integer ``u * n + v``, which orders as the pair does.  ``walks``
    maps the smallest dart of each face to the face's walk from that dart;
    ``keys`` holds those darts sorted, so the tails ``dart // n`` of
    ``walks[keys[i]]`` are ``trace_faces``'s face ``i``.  Edits keep the
    darts, not the corners, since they look darts up.  ``big_keys`` holds
    the keys of the faces of degree >= 4; ``face_of`` maps each dart to its
    face's key.  The single vertex's face has no dart and is not held.

    An edit splices the walks of the faces it changes and writes
    ``face_of`` only for the darts that change face.  An edge to a new
    vertex grows its face by two darts, both larger than the key.  A new
    edge between two corners of one face cuts the walk there; the piece
    that holds the old key keeps it and its rotation, so only its closing
    dart is keyed, unless that dart is smaller than the key.  The other
    piece is keyed afresh.  A deleted edge joins the walks on its two
    sides; when neither of its darts is a key, the joined face keeps the
    smaller key and only the darts of the other side are re-keyed.  Both
    edits raise ``InternalInvariantError``, and change nothing, on a new
    edge between corners of two faces or on a deleted bridge, so every
    edit keeps the embedding plane and connected.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.rotations: list[list[int]] = [[]]
        self.walks: dict[int, tuple[int, ...]] = {}
        self.face_of: dict[int, int] = {}
        self.keys: list[int] = []
        self.big_keys: list[int] = []

    def has_edge(self, u: int, v: int) -> bool:
        return u * self.n + v in self.face_of

    def insert_edge(self, x: int, i: int, y: int, j: int) -> None:
        """Insert ``y`` at index ``i`` of ring ``x`` and ``x`` at index ``j``
        of ring ``y``; ``y == len(rotations)`` adds ``y`` as a new vertex,
        which raises ``InternalInvariantError`` once there are ``n``.

        The corner opened at ``x`` follows the dart from the ring's
        previous entry, and the face of that dart is the one the edge
        splits or grows.  To a new vertex, the edge and its reverse join
        the walk right after that dart.  Otherwise the walk is cut after
        that dart and after the dart into the corner opened at ``y``, and
        each of the two pieces is closed by one direction of the edge;
        when that dart is on another face, ``InternalInvariantError`` is
        raised and nothing changes.
        """
        n = self.n
        rings = self.rotations
        if y == len(rings):
            if y >= n:
                raise InternalInvariantError(f"vertex {y} does not fit a registry of {n}")
            rings.append([])
        ring_x, ring_y = rings[x], rings[y]
        xy, yx = x * n + y, y * n + x
        if not ring_x:  # the first edge, at the single vertex
            ring_x.append(y)
            ring_y.append(x)
            self._add((xy, yx))
            return
        face_of = self.face_of
        # the previous entries are the same before and after the inserts
        into_x = ring_x[i - 1] * n + x
        key = face_of[into_x]
        walk = self.walks[key]
        p = walk.index(into_x) + 1
        if not ring_y:
            # a new vertex: out and back after into_x.  The key's tail is
            # the face's least vertex and y is the largest, so the key stays.
            ring_x.insert(i, y)
            ring_y.append(x)
            self.walks[key] = walk[:p] + (xy, yx) + walk[p:]
            face_of[xy] = face_of[yx] = key
            if len(walk) < 4:  # a 2- or 3-face becomes a 4- or 5-face
                insort(self.big_keys, key)
            return
        into_y = ring_y[j - 1] * n + y
        if face_of[into_y] != key:
            raise InternalInvariantError(f"edge {(x, y)} joins corners of two faces")
        ring_x.insert(i, y)
        ring_y.insert(j, x)
        # p and q are both at least 1, so walk[0], the key, stays on the
        # piece that keeps walk[:min(p, q)] and walk[max(p, q):]
        q = walk.index(into_y) + 1
        if p < q:
            cut, kept, other = xy, walk[:p] + (xy,) + walk[q:], (yx,) + walk[p:q]
        else:
            cut, kept, other = yx, walk[:q] + (yx,) + walk[p:], (xy,) + walk[q:p]
        if cut < key:
            self._drop(key)
            self._add(kept)
        else:
            self.walks[key] = kept
            face_of[cut] = key
            if len(kept) < 4 <= len(walk):
                del self.big_keys[bisect_left(self.big_keys, key)]
        self._add(other)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}``, merging the faces on its two sides.

        Raises ``InternalInvariantError``, and changes nothing, when the
        edge is a bridge: both its darts are on one face.
        """
        uv, vu = u * self.n + v, v * self.n + u
        face_of = self.face_of
        key_a, key_b = face_of[uv], face_of[vu]
        if key_a == key_b:
            raise InternalInvariantError(f"edge {(u, v)} is a bridge")
        a, b = self.walks[key_a], self.walks[key_b]
        i = a.index(uv)
        j = b.index(vu)
        self.rotations[u].remove(v)
        self.rotations[v].remove(u)
        if i and j:
            # neither removed dart is a key: the merged face keeps the
            # smaller key, and only the other side's darts change face
            if key_a < key_b:
                key, kept, gone = key_a, a, b
                walk = a[:i] + b[j + 1:] + b[:j] + a[i + 1:]
            else:
                key, kept, gone = key_b, b, a
                walk = b[:j] + a[i + 1:] + a[:i] + b[j + 1:]
            self._drop(gone[0])
            self.walks[key] = walk
            if len(kept) < 4 <= len(walk):
                insort(self.big_keys, key)
            face_of.update(dict.fromkeys(gone, key))
        else:
            self._drop(key_a)
            self._drop(key_b)
            self._add(a[i + 1:] + a[:i] + b[j + 1:] + b[:j])
        del face_of[uv], face_of[vu]

    def _add(self, walk: tuple[int, ...]) -> None:
        """Hold ``walk`` as a face, started at its smallest dart."""
        key = min(walk)
        start = walk.index(key)
        walk = walk[start:] + walk[:start]
        self.walks[key] = walk
        insort(self.keys, key)
        if len(walk) >= 4:
            insort(self.big_keys, key)
        self.face_of.update(dict.fromkeys(walk, key))

    def _drop(self, key: int) -> None:
        walk = self.walks.pop(key)
        del self.keys[bisect_left(self.keys, key)]
        if len(walk) >= 4:
            del self.big_keys[bisect_left(self.big_keys, key)]


def _normalize_rotation(graph: Graph, rotation: Iterable[Iterable[int]]) -> Rotation:
    """``rotation`` as tuples, checked against the graph's rows: all rings
    are compared at once, and scanned only to name the first bad one."""
    rot = tuple(map(tuple, rotation))
    if len(rot) != graph.n:
        raise InvalidRotationError(
            f"{len(rot)} rotations for {graph.n} vertices"
        )
    if list(map(sorted, rot)) != list(map(list, graph.adjacency)):
        for v in range(graph.n):
            if sorted(rot[v]) != list(graph.adjacency[v]):
                raise InvalidRotationError(
                    f"rotation at {v} is not a permutation of its neighbors"
                )
    return rot


def trace_faces(graph: Graph, rotation: Iterable[Iterable[int]]) -> PlaneGraph:
    """Trace all face walks and return the validated plane graph.

    Requires a connected graph; raises ``NonPlanarEmbeddingError`` when the
    traced face count violates the Euler identity.
    """
    rot = _normalize_rotation(graph, rotation)
    if not is_connected(graph):
        raise DisconnectedError("face tracing needs a connected graph")
    faces = _face_walks(rot, graph) if graph.n != 1 else ((),)
    if graph.n - graph.m + len(faces) != 2:
        raise NonPlanarEmbeddingError(
            f"Euler check failed: {graph.n} - {graph.m} + {len(faces)} != 2"
        )
    return PlaneGraph(graph=graph, rotation=rot, faces=faces)
