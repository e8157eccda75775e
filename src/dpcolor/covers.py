"""List assignments and covers for DP-coloring.

A list assignment gives each vertex a finite set of integer colors; it is
stored as a tuple of sorted color tuples indexed by vertex.  A cover pairs
the host graph with one partial injective matching per host edge: matching
pairs ``(cu, cv)`` relate a color of the smaller-indexed endpoint to a
color of the larger one.  Other modules read matchings only through
``Cover.partners`` and ``Cover.conflicts``, which hide that orientation.
Colors carry no global meaning (only matchings decide conflicts), and the
clique inside each vertex's fiber is implicit (choosing one color per
vertex encodes it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from .errors import UnequalListsError
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
    def partners(self) -> tuple[dict[int, dict[int, int]], ...]:
        """``partners[u][v][cu]``: the color of ``v`` matched with ``cu`` on edge {u, v}.

        ``partners[u]`` lists ``u``'s neighbors in edge order; a color left
        unmatched is absent.  Matchings are taken to be injective, which
        ``validate_cover`` checks.
        """
        maps: tuple[dict[int, dict[int, int]], ...] = tuple({} for _ in range(self.graph.n))
        for (u, v), matching in zip(self.graph.edges, self.matchings):
            maps[u][v] = {cu: cv for cu, cv in matching}
            maps[v][u] = {cv: cu for cu, cv in matching}
        return maps

    def conflicts(self, u: int, cu: int, v: int, cv: int) -> bool:
        """True iff choosing ``cu`` at ``u`` and ``cv`` at ``v`` meet a cover edge."""
        return self.partners[u][v].get(cu) == cv


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
    if perfect:  # a perfect matching needs equal list sizes at both ends
        for u, v in graph.edges:
            if len(lists[u]) != len(lists[v]):
                raise UnequalListsError(
                    f"edge {(u, v)}: list sizes {len(lists[u])} != {len(lists[v])}"
                )
    rng = random.Random(seed)
    matchings: list[Matching] = []
    for u, v in graph.edges:
        cu = list(lists[u])
        cv = list(lists[v])
        width = min(len(cu), len(cv))
        rng.shuffle(cv)
        pairs = list(zip(cu, cv[:width]))
        if not perfect:
            pairs = [p for p in pairs if rng.random() < 0.5]
        matchings.append(tuple(sorted(pairs)))
    return Cover(graph=graph, lists=lists, matchings=tuple(matchings))


def partial_matchings(left: tuple[int, ...], right: tuple[int, ...]) -> list[Matching]:
    """Every partial injective matching between two color lists, sorted."""
    return sorted(
        tuple(sorted(zip(chosen, image)))
        for k in range(min(len(left), len(right)) + 1)
        for chosen in combinations(left, k)
        for image in permutations(right, k)
    )
