"""Exact search for representative sets in covers.

A representative set picks one color from each vertex's list; its
impropriety at a vertex is the number of incident edges whose matching
joins the two chosen colors.  ``find_rep_set`` is a complete backtracking
search with forward checking; ``brute_force_rep_set`` enumerates all total
assignments and exists as an independent oracle.  All-cover questions
(``is_dp_colorable``, ``dp_chromatic``) quantify over perfect-matching
covers of the canonical 1..k lists.  Only the covers whose
spanning-forest matchings are pinned to the identity need checking,
because fibers can be renamed along the forest; these fall into orbits
under renaming every fiber by one permutation, and ``find_rep_set`` runs
once per orbit, on its least member.  The budget of an all-covers
question counts those searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .covers import DEFAULT_BUDGET, Cover, diagonal_cover, least_perfect_covers
from .errors import (
    BudgetExceededError,
    EmptyListError,
    InternalInvariantError,
    NegativeImproprietyError,
    NotInListError,
    PartialAssignmentError,
)
from .graphs import Graph

RepSet = tuple[int, ...]


def _check_total(cover: Cover, rep: RepSet) -> None:
    if len(rep) != cover.graph.n or any(c is None for c in rep):
        raise PartialAssignmentError(
            f"assignment covers {len(rep)} of {cover.graph.n} vertices"
        )
    for v, c in enumerate(rep):
        if c not in cover.lists[v]:
            raise NotInListError(f"color {c} not in list of vertex {v}")


def _conflict_counts(cover: Cover, rep: RepSet) -> list[int]:
    """Per-vertex conflict counts of an assignment known to be total."""
    counts = [0] * cover.graph.n
    partners = cover.partners
    for u, v in cover.graph.edges:
        if partners[u][v].get(rep[u]) == rep[v]:
            counts[u] += 1
            counts[v] += 1
    return counts


def impropriety(cover: Cover, rep: RepSet) -> tuple[int, ...]:
    """Per-vertex conflict counts of a total assignment."""
    _check_total(cover, rep)
    return tuple(_conflict_counts(cover, rep))


def max_impropriety(cover: Cover, rep: RepSet) -> int:
    return max(impropriety(cover, rep), default=0)


def _check_search(cover: Cover, d: int) -> None:
    """The preconditions both solvers share: ``d >= 0`` and no empty list."""
    if d < 0:
        raise NegativeImproprietyError(f"impropriety bound {d} is negative")
    for v, colors in enumerate(cover.lists):
        if not colors:
            raise EmptyListError(f"vertex {v} has an empty list")


def find_rep_set(
    cover: Cover, d: int, budget: int = DEFAULT_BUDGET
) -> RepSet | None:
    """A representative set with impropriety at most ``d``, or ``None``.

    Complete: ``None`` is returned only when no such set exists.  Vertices
    are assigned in descending-degree order; candidate colors are tried by
    ascending conflict count against the current partial assignment.  A
    branch dies when an assigned vertex would exceed ``d`` or when some
    unassigned vertex keeps no viable color.  Backtracking resumes a
    per-position iterator over the untried colors, so the search needs no
    call stack as deep as the graph.  ``budget`` caps search-tree nodes
    and raises rather than hang.  Raises ``NegativeImproprietyError`` for
    ``d < 0``.
    """
    _check_search(cover, d)
    g = cover.graph
    if g.n == 0:
        return ()
    partners = cover.partners
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    chosen: list[int | None] = [None] * g.n
    counts = [0] * g.n
    nodes = 0

    def conflicts(v: int, c: int) -> list[int] | None:
        """The assigned neighbors color ``c`` of ``v`` conflicts with, or
        ``None`` when one of them, or ``v``, would exceed ``d``."""
        hit = []
        for u, pairing in partners[v].items():
            if chosen[u] is not None and pairing.get(c) == chosen[u]:
                if counts[u] >= d or len(hit) == d:
                    return None
                hit.append(u)
        return hit

    def candidates(v: int):
        """A new search node at ``v``: its viable colors, fewest conflicts
        first."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes")
        found = []
        for c in cover.lists[v]:
            hit = conflicts(v, c)
            if hit is not None:
                found.append((len(hit), c, hit))
        found.sort(key=lambda entry: entry[:2])
        return iter(found)

    # the untried candidates of each position so far, and the conflicts
    # of the color each assigned position holds
    pending = [candidates(order[0])]
    held: list[list[int]] = []
    while pending:
        pos = len(pending) - 1
        v = order[pos]
        if chosen[v] is not None:  # backtracking: take the color back
            for u in held.pop():
                counts[u] -= 1
            chosen[v] = None
            counts[v] = 0
        entry = next(pending[-1], None)
        if entry is None:
            pending.pop()
            continue
        _, c, hit = entry
        for u in hit:
            counts[u] += 1
        chosen[v] = c
        counts[v] = len(hit)
        held.append(hit)
        # forward check: every later vertex must keep a viable color; the
        # positions up to this one are all assigned and no later one is
        if all(
            any(conflicts(w, cw) is not None for cw in cover.lists[w])
            for w in partners[v]
            if chosen[w] is None
        ):
            if pos + 1 == g.n:
                return tuple(chosen)  # type: ignore[arg-type]
            pending.append(candidates(order[pos + 1]))
    return None


def brute_force_rep_set(
    cover: Cover, d: int, budget: int = DEFAULT_BUDGET
) -> RepSet | None:
    """Exhaustive oracle with the same answer semantics as ``find_rep_set``."""
    _check_search(cover, d)
    g = cover.graph
    if g.n == 0:
        return ()
    total = math.prod(len(colors) for colors in cover.lists)
    if total > budget:
        raise BudgetExceededError(f"{total} assignments exceed budget {budget}")
    # every assignment of the product is total and in its lists: no check
    for rep in product(*cover.lists):
        if max(_conflict_counts(cover, rep)) <= d:
            return rep
    return None


@dataclass(frozen=True)
class Colorability:
    """Outcome of an all-covers question.

    ``witness`` is a cover with no valid representative set when
    ``colorable`` is false: the first such cover with a spanning forest's
    matchings pinned, in ``enumerate_perfect_covers`` order.
    ``covers_checked`` counts the pinned covers decided, which is the sum
    of the orbit sizes of the ``searches`` covers searched; a colorable
    answer decides all (k!)^(m-n+c) of them.
    """

    colorable: bool
    witness: Cover | None
    covers_checked: int
    searches: int


def _free_edges(graph: Graph) -> list[int]:
    """Indices of the edges outside a spanning forest (BFS from each unseen
    vertex), in edge order."""
    tree: set[tuple[int, int]] = set()
    seen = [False] * graph.n
    for root in range(graph.n):
        if seen[root]:
            continue
        seen[root] = True
        reached = [root]
        for v in reached:  # visits the vertices appended as it goes
            for w in graph.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    tree.add((v, w) if v < w else (w, v))
                    reached.append(w)
    return [i for i, edge in enumerate(graph.edges) if edge not in tree]


def is_dp_colorable(
    graph: Graph, k: int, d: int, budget: int = DEFAULT_BUDGET
) -> Colorability:
    """Decide colorability over every cover of the canonical k-assignment.

    Perfect-matching covers of the lists ``1..k`` dominate partial ones,
    and one assignment suffices because fibers may be renamed freely.
    Renaming the fibers along a spanning forest turns each forest edge's
    matching into the identity, so only covers with those matchings pinned
    need checking: (k!)^(m-n+c) of them for a graph with c components.
    Renaming every fiber by the same permutation keeps that pinning, so
    ``least_perfect_covers`` yields one cover per orbit of these and only
    those are searched.  ``budget`` bounds the number of searches, checked
    as each starts, and each search's nodes; with a free edge it also
    bounds the ``k!`` matchings tried per free edge, checked up front.
    """
    free = _free_edges(graph)
    if free and k > 0 and math.factorial(k) > budget:
        raise BudgetExceededError(f"{k}! matchings per free edge exceed budget {budget}")
    checked = 0
    searches = 0
    for cover, orbit in least_perfect_covers(graph, k, free):
        searches += 1
        if searches > budget:
            raise BudgetExceededError(f"all-covers search exceeded {budget} searches")
        checked += orbit
        if find_rep_set(cover, d, budget=budget) is None:
            return Colorability(False, cover, checked, searches)
    return Colorability(True, None, checked, searches)


def dp_chromatic(graph: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Least ``k`` such that every cover of every k-assignment is colorable.

    Each ``k`` is one ``is_dp_colorable`` question, so its cost is one
    search per renaming orbit of the pinned covers: 681 searches for K4 at
    k = 4, against 13,824 pinned covers and (4!)^6 unpinned ones.
    """
    for k in range(1, graph.n + 2):
        if is_dp_colorable(graph, k, 0, budget=budget).colorable:
            return k
    raise InternalInvariantError("unreachable: max-degree+1 colors always suffice")


def list_relaxed_colorable(
    graph: Graph, lists, d: int, budget: int = DEFAULT_BUDGET
) -> RepSet | None:
    """A list coloring where each color class induces max degree <= d.

    Solved as a representative-set search on the equal-color cover, whose
    conflicts are exactly "same color on an edge".
    """
    return find_rep_set(diagonal_cover(graph, tuple(lists)), d, budget=budget)
