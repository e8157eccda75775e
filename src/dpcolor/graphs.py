"""Simple undirected graphs on dense integer vertices.

Vertices are the indices 0..n-1.  Edges are unordered pairs, stored sorted,
and adjacency rows are sorted, so that solver traces and tests are
reproducible.  The theorem needs two cycle facts: whether a graph has a
4- or 6-cycle (``has_forbidden_cycles``, by degree rank) and the least such
cycle through given edges (``smallest_forbidden_cycle``, by a fixed-depth
search over the paths away from each edge).  The 6-check runs only on
graphs with no 4-cycle, where any three paths of length 3 from one vertex
to another contain two that share no inner vertex; so it keeps at most two
paths per endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdgeError,
    ForbiddenCyclePresentError,
    IndexOutOfRangeError,
    LoopEdgeError,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    ``edges`` is a lexicographically sorted tuple of ``(u, v)`` pairs with
    ``u < v``; ``adjacency[v]`` is the sorted tuple of neighbors of ``v``.
    Construct through :func:`build_graph`, which validates the input.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Every vertex's degree, by vertex."""
        return tuple(map(len, self.adjacency))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def _degree_ranks(self) -> tuple[int, ...]:
        """``_degree_ranks[v]``: the position of ``v`` in ``(degree, id)``
        order (a stable sort by degree keeps ids ascending within each
        degree); computed once for ``has_forbidden_cycles`` and for naming
        the cycle it finds."""
        order = sorted(range(self.n), key=self.degrees.__getitem__)
        return tuple(sorted(range(self.n), key=order.__getitem__))

    @cached_property
    def has_forbidden_cycles(self) -> bool:
        """True iff the graph has a 4- or 6-cycle: the module function
        :func:`has_forbidden_cycles`, searched once per graph."""
        return has_forbidden_cycles(self)


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise IndexOutOfRangeError(f"vertex {v} not in 0..{n - 1}")


def build_graph(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a validated :class:`Graph` from a vertex count and edge pairs."""
    if n < 0:
        raise IndexOutOfRangeError(f"vertex count {n} is negative")
    seen: set[Edge] = set()
    for pair in edges:
        u, v = pair
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u}")
        _check_vertex(u, n)
        _check_vertex(v, n)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} given twice")
        seen.add(key)
    sorted_edges = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted_edges:
        adj[u].append(v)
        adj[v].append(u)
    # sorted: row v gets its smaller neighbours in order, then its larger ones
    return Graph(n=n, edges=sorted_edges, adjacency=tuple(map(tuple, adj)))


def is_connected(graph: Graph) -> bool:
    """True for graphs on at most one vertex and all connected graphs."""
    if graph.n <= 1:
        return True
    adjacency = graph.adjacency
    seen = [False] * graph.n
    seen[0] = True
    reached = 1
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == graph.n


def _canonical_cycle(path: list[int]) -> tuple[int, ...]:
    """``path`` as ``smallest_forbidden_cycle`` returns it: rotated to start
    at its smallest vertex, in the direction whose second vertex is the
    smaller neighbour of that start."""
    i = path.index(min(path))
    cycle = path[i:] + path[:i]
    if cycle[1] > cycle[-1]:
        cycle[1:] = cycle[:0:-1]
    return tuple(cycle)


def smallest_forbidden_cycle(
    adjacency: Sequence[Sequence[int]], edges: Iterable[Edge]
) -> tuple[int, ...] | None:
    """The least 4-cycle, else the least 6-cycle, through any of ``edges``;
    ``None`` when there is neither.

    A cycle reads from its smallest vertex toward the smaller of that
    vertex's two cycle neighbours; cycles compare as tuples.
    ``adjacency[x]`` holds the neighbours of ``x`` in any order (a rotation
    system serves).  Per edge ``uv``, four nested loops run over the simple
    paths ``v-a-b`` and ``v-a-b-c`` away from ``u``: one that ends at a
    neighbour ``b`` of ``u`` closes a 4-cycle, and one whose end ``c`` has
    a neighbour ``d`` of ``u`` off the path closes a 6-cycle.  So the cost
    depends on the degrees near the edges, not on the graph.  An absent
    edge lies on no cycle.
    """
    four: tuple[int, ...] | None = None
    six: tuple[int, ...] | None = None
    for u, v in edges:
        if v not in adjacency[u]:
            continue
        closing = set(adjacency[u])
        for a in adjacency[v]:
            if a == u:
                continue
            for b in adjacency[a]:
                if b == u or b == v:
                    continue
                if b in closing:
                    cycle = _canonical_cycle([u, v, a, b])
                    four = min(four, cycle) if four else cycle
                for c in adjacency[b]:
                    if c == u or c == v or c == a:
                        continue
                    for d in adjacency[c]:
                        if d in closing and d != v and d != a and d != b:
                            cycle = _canonical_cycle([u, v, a, b, c, d])
                            six = min(six, cycle) if six else cycle
    return four or six


def _has_4_cycle(adjacency: Sequence[Sequence[int]], rank: Sequence[int]) -> bool:
    """Chiba-Nishizeki: each 4-cycle is found from its top-ranked vertex
    ``v``, which reaches the opposite vertex along two paths ``v-u-w``
    through lower-ranked vertices."""
    reached_from = [-1] * len(adjacency)
    for v, ring in enumerate(adjacency):
        top = rank[v]
        for u in ring:
            if rank[u] < top:
                for w in adjacency[u]:
                    if rank[w] < top:
                        if reached_from[w] == v:
                            return True
                        reached_from[w] = v
    return False


def _has_6_cycle(adjacency: Sequence[Sequence[int]], rank: Sequence[int]) -> bool:
    """Meet in the middle (after Alon, Yuster and Zwick): each 6-cycle
    ``v-a-b-c-b'-a'`` is found from its top-ranked vertex ``v`` as two
    paths ``v-a-b-c`` and ``v-a'-b'-c`` through lower-ranked vertices whose
    inner pairs ``{a, b}`` and ``{a', b'}`` are disjoint.

    Exact on any graph, and called only on graphs with no 4-cycle.  There
    two such paths to one endpoint meet only crosswise (``a = b'`` or
    ``b = a'``): ``a = a'``, ``b = b'`` or both crosswise close a 4-cycle.
    Three pairwise meeting paths would make ``v`` and ``c`` share two
    neighbours, so an endpoint never keeps more than two pairs.
    """
    for v, ring in enumerate(adjacency):
        top = rank[v]
        lows = [a for a in ring if rank[a] < top]
        if len(lows) < 2:
            continue
        pairs_at: dict[int, list[tuple[int, int]]] = {}  # c -> (a, b) of each path v-a-b-c
        for a in lows:
            for b in adjacency[a]:
                if rank[b] < top:
                    for c in adjacency[b]:
                        if c != a and rank[c] < top:
                            kept = pairs_at.setdefault(c, [])
                            for x, y in kept:
                                if a != x and a != y and b != x and b != y:
                                    return True
                            kept.append((a, b))
    return False


def has_forbidden_cycles(graph: Graph) -> bool:
    """True iff the graph contains a 4-cycle or a 6-cycle.

    Both lengths are decided in ``(degree, id)`` rank order from each
    cycle's top-ranked vertex: a 4-cycle as a vertex reached twice along
    paths ``v-u-w`` (Chiba and Nishizeki, SIAM J. Comput. 14(1), 1985), a
    6-cycle as two disjoint length-3 paths to one endpoint (Alon, Yuster
    and Zwick, Algorithmica 17, 1997).  After an O(n log n) sort by degree,
    the 4-check costs O(a(G) m), where the arboricity a(G) is at most 3 on
    plane graphs.  The 6-check runs only when there is no 4-cycle, so it
    keeps at most two paths per endpoint and costs the length-3 paths
    below each vertex: O(m) when degrees are bounded and O(a(G) m^1.5) in
    the worst case.  ``Graph.has_forbidden_cycles`` caches the answer.
    """
    rank = graph._degree_ranks
    return _has_4_cycle(graph.adjacency, rank) or _has_6_cycle(graph.adjacency, rank)


def require_no_forbidden_cycles(graph: Graph) -> None:
    """Raise ``ForbiddenCyclePresentError`` naming the graph's least 4-cycle,
    else its least 6-cycle, if it has one.

    A cycle reads from its least edge, so the least cycle of the length
    the answer has is the least one through the first edge, in order, that
    lies on a cycle of that length; the edges past it are not searched.
    """
    if graph.has_forbidden_cycles:
        length = 4 if _has_4_cycle(graph.adjacency, graph._degree_ranks) else 6
        for edge in graph.edges:
            cycle = smallest_forbidden_cycle(graph.adjacency, [edge])
            if cycle is not None and len(cycle) == length:
                break
        raise ForbiddenCyclePresentError(
            f"graph contains a {len(cycle)}-cycle: {'-'.join(map(str, cycle))}"
        )
