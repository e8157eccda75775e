"""Reducible configurations and the constructive coloring pipeline.

The pipeline colors a plane graph without 4- or 6-cycles from any cover
with lists of size >= 3, keeping impropriety at most 1.  Every nonempty
subgraph of such a graph contains one of three degree-defined
configurations:

* ``low-vertex``: a vertex of degree <= 2;
* ``adjacent-threes``: two adjacent vertices of degree 3;
* ``four-three-threes``: a degree-4 vertex with three degree-3
  neighbors, the three pairwise nonadjacent.

``CONFIGS`` is their one statement, one row each, read by
``configuration_at`` (which pass 1 and the audit in ``discharging``
call), by the lemma and by pass 2.  The pipeline runs in two passes over
host vertex ids, without recursion and without relabelled subgraphs.
Pass 1 computes the excision order once over a mutable degree array, the
smallest-last idea of Matula and Beck (J. ACM 30(3), 1983): low
vertices sit in one lazy min-heap, the two multi-vertex kinds in one
lazy min-heap of vertex ids each, checked by ``configuration_at``, and
every step takes the remainder's first configuration by kind priority.
The order is yielded as plain ``(kind, vertices)`` pairs.  Pass 2 colors
the steps in reverse order through residual lists: a color of an excised
vertex survives only if no already-colored neighbor's choice (the
neighbors excised later) is matched to it, and one loop over the
vertex's neighbors strikes the rest.  Surviving choices can then never
conflict across the frontier.  Each leaf takes its first residual color
and each center its first in conflict with at most one leaf.
``verify_config_reducible`` proves every configuration colorable at its
list-size floors by running pass 2 on all residual covers.  A
``TraceStep`` is a named tuple, one per excision, equal to the plain
tuple of its fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product
from typing import Iterator, NamedTuple, Sequence

from .covers import Cover, partial_matchings, validate_cover
from .embedding import PlaneGraph
from .errors import (
    ContractViolationError,
    InternalInvariantError,
    ListTooSmallError,
    TheoremViolationError,
)
from .graphs import Graph, build_graph, require_no_forbidden_cycles
from .solver import RepSet, impropriety, max_impropriety


class ConfigKind(enum.Enum):
    LOW_VERTEX = "low-vertex"
    ADJACENT_THREES = "adjacent-threes"
    FOUR_THREE_THREES = "four-three-threes"


class TraceStep(NamedTuple):
    """One excision: kind, host vertices, residual sizes, chosen colors.

    ``vertices`` and ``residual_sizes`` follow the configuration's order
    (center first), but ``colors`` follows the sorted order of
    ``vertices``; the two differ when a center is not its smallest vertex.
    """

    kind: ConfigKind
    vertices: tuple[int, ...]
    residual_sizes: tuple[int, ...]
    colors: tuple[int, ...]


@dataclass(frozen=True)
class PipelineResult:
    """The coloring, its excision trace and its per-vertex impropriety."""

    rep_set: RepSet
    trace: tuple[TraceStep, ...]
    impropriety: tuple[int, ...]


_GONE = -1  # degree entry of an excised vertex

# The configurations in priority order, each a star: (kind, the center's
# degrees, its number of degree-3 leaves).  Derived from the rows by hand
# and kept literal: pass 1's seeds and re-push events (the hot path), and
# the audit's ``deg <= 2`` and 3-3 edge clauses in ``discharging``.
CONFIGS = (
    (ConfigKind.LOW_VERTEX, range(3), 0),
    (ConfigKind.ADJACENT_THREES, range(3, 4), 1),
    (ConfigKind.FOUR_THREE_THREES, range(4, 5), 3),
)
# built from the last row up, so the first row that holds a degree wins
_ROW_AT_DEGREE = {d: (kind, leaves) for kind, centers, leaves in reversed(CONFIGS) for d in centers}


def configuration_at(
    adjacency: Sequence[Sequence[int]], degrees: Sequence[int], v: int
) -> tuple[ConfigKind, tuple[int, ...]] | None:
    """The configuration ``v`` starts under ``degrees`` as a ``(kind,
    vertices)`` pair, or None: the first row of ``CONFIGS`` whose center
    degrees hold ``degrees[v]``, with ``v`` and its first ``leaves``
    degree-3 neighbors (not checked for adjacency), if it has that many.
    A negative degree marks a vertex outside the graph and matches no row.
    """
    row = _ROW_AT_DEGREE.get(degrees[v])
    if row is None:
        return None
    kind, leaves = row
    threes = [u for u in adjacency[v] if degrees[u] == 3] if leaves else []
    return (kind, (v, *threes[:leaves])) if len(threes) >= leaves else None


def _excision_order(graph: Graph) -> Iterator[tuple[ConfigKind, tuple[int, ...]]]:
    """Pass 1: the configurations to excise, first to last, yielded lazily
    as ``(kind, vertices)`` pairs.

    Each step takes the first configuration of the remainder by kind
    priority, then vertex order: a low vertex, then adjacent threes in
    edge order, then a 4-vertex with its first three degree-3 neighbors.
    ``deg`` holds remainder degrees.  Low vertices are popped inline; the
    ``pairs`` and ``fours`` heaps hold vertex ids, each checked by
    ``configuration_at`` when popped, and stale entries are dropped then.
    ``pairs`` gets the smaller end of every new 3-3 edge: the least vertex
    on any 3-3 edge has only larger degree-3 neighbors, so its first one
    gives the least edge.  A 4-vertex is pushed again on every event that
    can make it valid: its own drop to degree 4, or a neighbor's drop to
    degree 3.  Adjacent degree-3 vertices go before any four-three-threes,
    so its three leaves are pairwise nonadjacent, or
    ``InternalInvariantError`` is raised.  Raises ``TheoremViolationError``
    on a nonempty remainder with no configuration.
    """
    adj = graph.adjacency
    deg = [len(nbrs) for nbrs in adj]
    # sorted lists are valid heaps
    low = [v for v in range(graph.n) if deg[v] <= 2]
    pairs = [u for u, w in graph.edges if deg[u] == deg[w] == 3]
    fours = [v for v in range(graph.n) if deg[v] == 4]
    remaining = graph.n
    while remaining:
        while low:  # the most common kind, popped inline
            v = heappop(low)
            if deg[v] != _GONE:
                kind, vs = ConfigKind.LOW_VERTEX, (v,)
                break
        else:
            found = None
            while found is None and pairs:
                found = configuration_at(adj, deg, heappop(pairs))
            while found is None and fours:
                found = configuration_at(adj, deg, heappop(fours))
            if found is None:
                names = tuple(v for v in range(graph.n) if deg[v] != _GONE)
                raise TheoremViolationError(
                    "no reducible configuration in a nonempty graph "
                    f"on host vertices {names}",
                    graph=graph,
                )
            kind, vs = found
            leaves = vs[1:]  # a single leaf for adjacent threes, so no pair
            if any(graph.has_edge(a, b) for a in leaves for b in leaves if a < b):
                raise InternalInvariantError(f"leaves {leaves} of 4-vertex {vs[0]} are adjacent")
        yield kind, vs
        remaining -= len(vs)
        for x in vs:
            deg[x] = _GONE
        for x in vs:
            for u in adj[x]:
                d = deg[u]
                if d == _GONE:
                    continue
                d -= 1
                deg[u] = d
                if d == 2:
                    heappush(low, u)
                elif d == 3:
                    for w in adj[u]:
                        if deg[w] == 3:
                            heappush(pairs, min(u, w))
                        elif deg[w] == 4:
                            heappush(fours, w)
                elif d == 4:
                    heappush(fours, u)


@dataclass(frozen=True)
class ReducibilityReport:
    """Exhaustive verification outcome for one configuration kind."""

    kind: ConfigKind
    total_covers: int
    verified: int
    counterexample: Cover | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def verify_config_reducible(
    kind: ConfigKind, sizes: tuple[int, ...] | None = None
) -> ReducibilityReport:
    """Exhaust every residual cover at the floor list sizes for ``kind``.

    The shape is the row's star.  A vertex's floor is 3 minus its outside
    neighbors, which are colored before it: 1 for a leaf (host degree 3)
    and ``3 - max(centers) + leaves`` for the center.  On every
    cover, pass 2 itself (``_extend``) colors the configuration as one
    step and must give a representative set of impropriety <= 1; the first
    cover where it does not is returned as a counterexample, and
    ``verified`` counts the covers before it.  Raises
    ``ContractViolationError`` when ``sizes`` does not give one size per
    vertex, and ``ListTooSmallError`` when a size is below its floor.
    """
    centers, leaves = next((c, n) for k, c, n in CONFIGS if k is kind)
    shape = build_graph(1 + leaves, [(0, leaf) for leaf in range(1, 1 + leaves)])
    floors = (3 - max(centers) + leaves,) + (1,) * leaves
    if sizes is None:
        sizes = floors
    if len(sizes) != shape.n:
        raise ContractViolationError(
            f"{len(sizes)} list sizes for the {shape.n} vertices of {kind.value}"
        )
    if any(s < f for s, f in zip(sizes, floors)):
        raise ListTooSmallError(f"sizes {tuple(sizes)} below floors {floors} of {kind.value}")
    lists = tuple(tuple(range(1, s + 1)) for s in sizes)
    options = [partial_matchings(lists[u], lists[v]) for u, v in shape.edges]
    total = math.prod(map(len, options))
    verified = 0
    order = [(kind, tuple(range(shape.n)))]
    for matchings in product(*options):  # the last edge's choice varies fastest
        cover = Cover(graph=shape, lists=lists, matchings=matchings)
        color, _ = _extend(cover, order)
        if max_impropriety(cover, tuple(color)) > 1:
            return ReducibilityReport(kind, total, verified, cover)
        verified += 1
    return ReducibilityReport(kind, total, verified, None)


def _extend(
    cover: Cover, order: Sequence[tuple[ConfigKind, tuple[int, ...]]]
) -> tuple[list[int | None], list[TraceStep]]:
    """Pass 2: color the steps of ``order`` last to first from their
    residual lists; the coloring by vertex and the steps in coloring order.

    This is the only extension rule, and ``verify_config_reducible``
    exhausts it.  A low vertex takes its first residual color.  In a
    multi-vertex step the leaves take theirs, and the center takes its
    first residual color in conflict with at most one leaf: with one leaf
    that is its first (adjacent threes, where a matched pair only costs
    impropriety 1); with two center colors and three leaf choices matched
    to at most one center color each, such a color exists by counting.
    Raises ``ContractViolationError`` when a residual list runs empty or
    no center color fits.
    """
    partners = cover.partners
    adjacency = cover.graph.adjacency
    cover_lists = cover.lists
    color: list[int | None] = [None] * cover.graph.n
    steps: list[TraceStep] = []
    for kind, vs in reversed(order):
        lists = []
        for x in vs:
            # strike each color of x matched to an already-colored neighbor's
            # choice; a validated list holds each color once
            residual = cover_lists[x]
            for u in adjacency[x]:
                c = color[u]
                if c is not None:
                    c = partners[u][x].get(c)
                    if c in residual:
                        i = residual.index(c)
                        residual = residual[:i] + residual[i + 1:]
            if not residual:
                raise ContractViolationError(f"residual list of vertex {x} is empty")
            lists.append(residual)
        if len(vs) == 1:  # a low vertex
            color[x] = c = residual[0]
            steps.append(TraceStep(kind, vs, (len(residual),), (c,)))
            continue
        center, *leaves = vs
        for x, residual in zip(leaves, lists[1:]):
            color[x] = residual[0]
        to_leaf = partners[center]
        for c in lists[0]:
            if sum(to_leaf[leaf].get(c) == color[leaf] for leaf in leaves) <= 1:
                color[center] = c
                break
        else:
            raise ContractViolationError("no center color conflicts with at most one leaf")
        steps.append(TraceStep(kind, vs, tuple(map(len, lists)),
                               tuple(map(color.__getitem__, sorted(vs)))))
    return color, steps


def reduce_and_color(cover: Cover) -> PipelineResult:
    """Peel-and-extend on the cover's host graph, which may be any graph.

    Raises ``ContractViolationError`` for a cover that fails
    ``validate_cover``, ``TheoremViolationError`` when a nonempty remainder
    has no reducible configuration, and ``ContractViolationError`` when a
    residual list runs empty or the final coloring has impropriety above
    1; lists of size >= 3 rule out the last two.
    """
    violation = validate_cover(cover)
    if violation is not None:
        raise ContractViolationError(f"invalid cover ({violation.clause}): {violation.message}")
    color, steps = _extend(cover, list(_excision_order(cover.graph)))
    rep = tuple(color)
    counts = impropriety(cover, rep)
    worst = max(counts, default=0)
    if worst > 1:
        raise ContractViolationError(
            f"impropriety {worst} at vertex {counts.index(worst)} exceeds 1"
        )
    return PipelineResult(rep_set=rep, trace=tuple(reversed(steps)), impropriety=counts)


def color_planar_no46(pg: PlaneGraph, cover: Cover) -> PipelineResult:
    """Color a plane graph without 4-/6-cycles from lists of size >= 3.

    Returns a representative set of impropriety at most 1 together with
    the excision trace and the per-vertex impropriety.  Raises
    ``TheoremViolationError`` if no reducible configuration is found on a
    nonempty remainder, which cannot happen for valid inputs.
    """
    if cover.graph != pg.graph:
        raise ContractViolationError("cover host differs from the plane graph")
    require_no_forbidden_cycles(pg.graph)
    for v, colors in enumerate(cover.lists):
        if len(colors) < 3:
            raise ListTooSmallError(f"list of vertex {v} has size {len(colors)} < 3")
    return reduce_and_color(cover)
