"""List assignments and covers for DP-coloring.

A list assignment gives each vertex a finite set of integer colors; it is
stored as a tuple of sorted color tuples indexed by vertex.  A cover pairs
the host graph with one partial injective matching per host edge: matching
pairs ``(cu, cv)`` relate a color of the smaller-indexed endpoint to a
color of the larger one.  Colors carry no global meaning (only matchings
decide conflicts), and the clique inside each vertex's fiber is implicit
(choosing one color per vertex encodes it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, Iterator

from .errors import BudgetExceededError, UnequalListsError
from .graphs import Graph

Lists = tuple[tuple[int, ...], ...]
Matching = tuple[tuple[int, int], ...]

DEFAULT_BUDGET = 10**6


def uniform_assignment(n: int, k: int) -> Lists:
    """The canonical k-assignment: every vertex gets colors 1..k."""
    return (tuple(range(1, k + 1)),) * n


@dataclass(frozen=True)
class Cover:
    """A cover of ``graph``: lists plus one matching per edge.

    ``matchings[i]`` belongs to ``graph.edges[i]`` and holds sorted
    ``(color_at_u, color_at_v)`` pairs for the edge ``(u, v)`` with
    ``u < v``.  Construction does not validate; use :func:`validate_cover`.
    """

    graph: Graph
    lists: Lists
    matchings: tuple[Matching, ...]

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {edge: i for i, edge in enumerate(self.graph.edges)}

    def matching_of(self, u: int, v: int) -> Matching:
        """Matching of edge {u, v}, oriented as stored (smaller index first)."""
        key = (u, v) if u < v else (v, u)
        return self.matchings[self._edge_index[key]]

    def conflicts(self, u: int, cu: int, v: int, cv: int) -> bool:
        """True iff choosing ``cu`` at ``u`` and ``cv`` at ``v`` meet a cover edge."""
        if u < v:
            return (cu, cv) in self.matching_of(u, v)
        return (cv, cu) in self.matching_of(v, u)


@dataclass(frozen=True)
class CoverViolation:
    """First violated cover clause, with a human-readable witness."""

    clause: str
    message: str


def validate_cover(cover: Cover) -> CoverViolation | None:
    """``None`` if the cover is well formed, else the first violation.

    Checks, in order: shape (one matching per edge, one list per vertex),
    distinct colors in each list, fiber membership of matched colors, and
    injectivity of each matching.
    Matchings exist only for host edges by construction, so the "no cross
    edges off host edges" clause cannot be violated here.
    """
    g = cover.graph
    if len(cover.lists) != g.n:
        return CoverViolation("fibers", f"{len(cover.lists)} lists for {g.n} vertices")
    if len(cover.matchings) != g.m:
        return CoverViolation(
            "matching-shape", f"{len(cover.matchings)} matchings for {g.m} edges"
        )
    for v, colors in enumerate(cover.lists):
        if len(set(colors)) != len(colors):
            return CoverViolation("fibers", f"list of {v} repeats a color: {list(colors)}")
    for (u, v), matching in zip(g.edges, cover.matchings):
        seen_u: set[int] = set()
        seen_v: set[int] = set()
        for cu, cv in matching:
            if cu not in cover.lists[u]:
                return CoverViolation(
                    "fibers", f"edge {(u, v)}: color {cu} not in list of {u}"
                )
            if cv not in cover.lists[v]:
                return CoverViolation(
                    "fibers", f"edge {(u, v)}: color {cv} not in list of {v}"
                )
            if cu in seen_u:
                return CoverViolation(
                    "matching", f"edge {(u, v)}: color {cu} of {u} matched twice"
                )
            if cv in seen_v:
                return CoverViolation(
                    "matching", f"edge {(u, v)}: color {cv} of {v} matched twice"
                )
            seen_u.add(cu)
            seen_v.add(cv)
    return None


def diagonal_cover(graph: Graph, lists: Lists) -> Cover:
    """Cover matching equal colors across every edge.

    A representative set of this cover is exactly a list coloring from the
    same lists, which is how list-coloring questions reduce to cover ones.
    """
    matchings = tuple(
        tuple(sorted((c, c) for c in set(lists[u]) & set(lists[v])))
        for u, v in graph.edges
    )
    return Cover(graph=graph, lists=lists, matchings=matchings)


def random_cover(
    graph: Graph, lists: Lists, seed: int, perfect: bool = False
) -> Cover:
    """Seeded random cover; with ``perfect`` every matching is a bijection.

    Without ``perfect``, a random bijection-shaped pairing is thinned by
    dropping each pair with probability 1/2.
    """
    rng = random.Random(seed)
    matchings: list[Matching] = []
    for u, v in graph.edges:
        cu = list(lists[u])
        cv = list(lists[v])
        if perfect and len(cu) != len(cv):
            raise UnequalListsError(
                f"edge {(u, v)}: list sizes {len(cu)} != {len(cv)}"
            )
        width = min(len(cu), len(cv))
        rng.shuffle(cv)
        pairs = list(zip(cu, cv[:width]))
        if not perfect:
            pairs = [p for p in pairs if rng.random() < 0.5]
        matchings.append(tuple(sorted(pairs)))
    return Cover(graph=graph, lists=lists, matchings=tuple(matchings))


def count_perfect_covers(graph: Graph, lists: Lists) -> int:
    """Number of covers whose matchings are all bijections."""
    total = 1
    for u, v in graph.edges:
        if len(lists[u]) != len(lists[v]):
            raise UnequalListsError(
                f"edge {(u, v)}: list sizes {len(lists[u])} != {len(lists[v])}"
            )
        total *= math.factorial(len(lists[u]))
    return total


def enumerate_perfect_covers(
    graph: Graph,
    lists: Lists,
    budget: int = DEFAULT_BUDGET,
    free_edges: Iterable[int] | None = None,
) -> Iterator[Cover]:
    """Yield every perfect-matching cover exactly once, in a fixed order.

    ``free_edges`` restricts enumeration to the given edge indices, pinning
    all other edges to the identity-position bijection (used by the
    spanning-tree reduction in the solver); by default all edges are free.
    The number of covers to be yielded is checked against ``budget`` first.
    """
    per_edge_sizes = []
    for u, v in graph.edges:
        if len(lists[u]) != len(lists[v]):
            raise UnequalListsError(
                f"edge {(u, v)}: list sizes {len(lists[u])} != {len(lists[v])}"
            )
        per_edge_sizes.append(len(lists[u]))
    free = set(range(graph.m)) if free_edges is None else set(free_edges)
    total = 1
    for i, size in enumerate(per_edge_sizes):
        if i in free:
            total *= math.factorial(size)
    if total > budget:
        raise BudgetExceededError(f"{total} covers exceed budget {budget}")

    def matchings_for(edge_index: int) -> list[Matching]:
        u, v = graph.edges[edge_index]
        cu = lists[u]
        cv = lists[v]
        if edge_index not in free:
            return [tuple(sorted(zip(cu, cv)))]
        return [
            tuple(sorted(zip(cu, image))) for image in permutations(cv)
        ]

    def rec(edge_index: int, chosen: list[Matching]) -> Iterator[Cover]:
        if edge_index == graph.m:
            yield Cover(graph=graph, lists=lists, matchings=tuple(chosen))
            return
        for matching in matchings_for(edge_index):
            chosen.append(matching)
            yield from rec(edge_index + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def delete_cover_pairs(cover: Cover, drops: Iterable[tuple[int, tuple[int, int]]]) -> Cover:
    """Copy of ``cover`` with the given (edge index, pair) entries removed."""
    wanted = set(drops)
    matchings = tuple(
        tuple(p for p in matching if (i, p) not in wanted)
        for i, matching in enumerate(cover.matchings)
    )
    return Cover(graph=cover.graph, lists=cover.lists, matchings=matchings)
