"""Combinatorial plane embeddings: rotation systems and face tracing.

An embedding is given as a rotation system: for each vertex, the cyclic
order of its neighbors.  Faces are the orbits of the successor rule: after
arriving at ``v`` along ``(u, v)``, leave along ``(v, w)`` where ``w``
follows ``u`` in the rotation at ``v``.  Every directed edge then lies on
exactly one face walk, a bridge contributes both directions to the same
walk, and for a connected plane embedding the Euler identity
``|V| - |E| + |F| = 2`` holds; the identity is checked and its failure
means the rotation system does not describe a sphere embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    DisconnectedError,
    ForbiddenCyclePresentError,
    InternalInvariantError,
    InvalidRotationError,
    NonPlanarEmbeddingError,
)
from .graphs import Graph, has_forbidden_cycles, is_connected

Rotation = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Face:
    """One face: its index in the traced list and its boundary walk.

    The walk is a cyclic sequence of directed edges; ``degree`` counts
    directed-edge traversals, so a bridge traversed twice counts twice.
    The single-vertex graph gets one face with an empty walk.
    """

    index: int
    walk: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return len(self.walk)

    @property
    def corners(self) -> tuple[int, ...]:
        """Vertices along the walk, with multiplicity."""
        return tuple(u for u, _ in self.walk)

    @cached_property
    def vertex_multiplicity(self) -> Counter:
        return Counter(self.corners)

    @cached_property
    def edge_multiplicity(self) -> Counter:
        """Undirected boundary edges with multiplicity."""
        return Counter((u, v) if u < v else (v, u) for u, v in self.walk)

    def contains_vertex(self, v: int) -> bool:
        return v in self.vertex_multiplicity


@dataclass(frozen=True)
class PlaneGraph:
    """A graph together with a validated embedding and its traced faces."""

    graph: Graph
    rotation: Rotation
    faces: tuple[Face, ...]

    @cached_property
    def face_of_directed_edge(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for face in self.faces:
            for arc in face.walk:
                out[arc] = face.index
        return out

    def faces_at_vertex(self, v: int) -> tuple[Face, ...]:
        """Incident faces in rotation order, one per corner (repeats kept)."""
        return tuple(
            self.faces[self.face_of_directed_edge[(v, w)]]
            for w in self.rotation[v]
        )

    def faces_at_edge(self, u: int, v: int) -> tuple[Face, Face]:
        """The two face slots bordering edge {u, v} (equal across a bridge)."""
        return (
            self.faces[self.face_of_directed_edge[(u, v)]],
            self.faces[self.face_of_directed_edge[(v, u)]],
        )


def _normalize_rotation(graph: Graph, rotation: Iterable[Iterable[int]]) -> Rotation:
    rot = tuple(tuple(r) for r in rotation)
    if len(rot) != graph.n:
        raise InvalidRotationError(
            f"{len(rot)} rotations for {graph.n} vertices"
        )
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
    successor: dict[tuple[int, int], tuple[int, int]] = {}
    for v in range(graph.n):
        ring = rot[v]
        for i, u in enumerate(ring):
            successor[(u, v)] = (v, ring[(i + 1) % len(ring)])
    faces: list[Face] = []
    visited: set[tuple[int, int]] = set()
    for start in sorted(successor):
        if start in visited:
            continue
        walk = []
        arc = start
        while True:
            walk.append(arc)
            visited.add(arc)
            arc = successor[arc]
            if arc == start:
                break
        faces.append(Face(index=len(faces), walk=tuple(walk)))
    if graph.n == 1:
        faces = [Face(index=0, walk=())]
    if graph.n >= 1 and graph.n - graph.m + len(faces) != 2:
        raise NonPlanarEmbeddingError(
            f"Euler check failed: {graph.n} - {graph.m} + {len(faces)} != 2"
        )
    return PlaneGraph(graph=graph, rotation=rot, faces=tuple(faces))


def shared_edge_count(f1: Face, f2: Face) -> int:
    """Undirected edges on both boundary walks, counted with multiplicity.

    A face compared with itself therefore reports its own degree.
    """
    if f1.index == f2.index and f1.walk == f2.walk:
        return f1.degree
    shared = f1.edge_multiplicity & f2.edge_multiplicity
    return sum(shared.values())


def _is_pendant_triangle(pg: PlaneGraph, face: Face) -> int | None:
    """The unique degree-3 corner of a (3, 4+, 4+)-face, else ``None``."""
    if face.degree != 3:
        return None
    degs = sorted(pg.graph.degree(u) for u in face.corners)
    threes = [u for u in face.corners if pg.graph.degree(u) == 3]
    if len(threes) == 1 and degs[1] >= 4:
        return threes[0]
    return None


def pendant_3faces(pg: PlaneGraph, v: int) -> tuple[Face, ...]:
    """Faces that are pendant 3-faces of ``v``, sorted by face index.

    A pendant 3-face of ``v`` is a (3, 4+, 4+)-face not containing ``v``
    whose degree-3 vertex is adjacent to ``v``.
    """
    out = []
    for face in pg.faces:
        low = _is_pendant_triangle(pg, face)
        if low is None:
            continue
        if face.contains_vertex(v):
            continue
        if pg.graph.has_edge(v, low):
            out.append(face)
    return tuple(out)


@dataclass(frozen=True)
class PropositionCheck:
    check: str
    subject: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PropositionReport:
    entries: tuple[PropositionCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> tuple[PropositionCheck, ...]:
        return tuple(e for e in self.entries if not e.passed)


def check_propositions(pg: PlaneGraph) -> PropositionReport:
    """Verify the structural facts used by the discharging analysis.

    Requires a graph without 4- or 6-cycles.  Three families of checks:

    * ``3face-edge-sharing``: a 3-face that shares exactly one edge with
      another face only does so with faces of degree >= 7.
    * ``pendant-edge-faces``: for a pendant 3-face of ``v`` with degree-3
      vertex ``u``, both faces bordering edge ``uv`` have degree >= 7.
    * ``3face-count``: each vertex lies on at most floor(deg/2) distinct
      3-faces.
    """
    if has_forbidden_cycles(pg.graph):
        raise ForbiddenCyclePresentError("graph contains a 4-cycle or 6-cycle")
    entries: list[PropositionCheck] = []
    triangles = [f for f in pg.faces if f.degree == 3]
    for f in triangles:
        for g in pg.faces:
            if g.index == f.index:
                continue
            if shared_edge_count(f, g) == 1:
                entries.append(
                    PropositionCheck(
                        check="3face-edge-sharing",
                        subject=f"face {f.index} vs face {g.index}",
                        passed=g.degree >= 7,
                        detail=f"sharing face has degree {g.degree}",
                    )
                )
    for v in range(pg.graph.n):
        for face in pendant_3faces(pg, v):
            low = _is_pendant_triangle(pg, face)
            if low is None:
                raise InternalInvariantError(
                    f"face {face.index} was listed as pendant without a 3-corner"
                )
            f1, f2 = pg.faces_at_edge(low, v)
            entries.append(
                PropositionCheck(
                    check="pendant-edge-faces",
                    subject=f"vertex {v}, pendant face {face.index}, edge ({low},{v})",
                    passed=f1.degree >= 7 and f2.degree >= 7,
                    detail=f"edge faces have degrees {f1.degree}, {f2.degree}",
                )
            )
    for v in range(pg.graph.n):
        on_triangles = {f.index for f in triangles if f.contains_vertex(v)}
        bound = pg.graph.degree(v) // 2
        entries.append(
            PropositionCheck(
                check="3face-count",
                subject=f"vertex {v}",
                passed=len(on_triangles) <= bound,
                detail=f"{len(on_triangles)} 3-faces, bound {bound}",
            )
        )
    return PropositionReport(entries=tuple(entries))
