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

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from operator import itemgetter
from typing import Iterator, Sequence

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


def _class_leaders(k: int) -> list[tuple[int, tuple[int, ...], int]]:
    """``(p, image, centralizer order)`` for each conjugacy class of the
    permutations of ``range(k)``, in order of ``p``: the index of the
    class's least member in the lexicographic list of all ``k!``, whose
    image tuple is ``image``.

    Conjugates share a cycle type, and every permutation of a cycle type is
    conjugate to every other, so each cycle type gives one class.  Its
    least member is built directly: the cycles in ascending length, each
    on the next free colors ``a, a + 1, …`` as ``c ↦ c + 1`` closed back
    to ``a`` (so the fixed points come first).  Its index is its
    Lehmer-code rank.  The centralizer of a permutation with ``m_i``
    cycles of length ``i`` has order ``∏ m_i! · i^{m_i}``.
    """
    leaders = []
    stack: list[tuple[tuple[int, ...], int]] = [((), k)]  # ascending lengths, colors left
    while stack:
        lengths, left = stack.pop()
        if left:
            low = lengths[-1] if lengths else 1
            stack.extend((lengths + (length,), left - length) for length in range(low, left + 1))
            continue
        image: list[int] = []
        for length in lengths:
            a = len(image)
            image += range(a + 1, a + length)
            image.append(a)
        rank = sum(
            sum(later < c for later in image[i + 1:]) * math.factorial(k - 1 - i)
            for i, c in enumerate(image)
        )
        centralizer = math.prod(
            math.factorial(m) * length**m for length, m in Counter(lengths).items()
        )
        leaders.append((rank, tuple(image), centralizer))
    return sorted(leaders)


def _unbeaten(
    stabilizer: Sequence[int], perms: list[tuple[int, ...]], undo: list[itemgetter]
) -> Iterator[tuple[int, list[int]]]:
    """``(p, kept)`` for each index ``p`` into ``perms``, in order, such that
    no ``σ`` in ``stabilizer`` conjugates ``perms[p]`` below itself;
    ``kept`` holds the ``σ`` that commute with it.  ``undo[s]`` maps an
    image tuple ``x`` to ``x∘σ⁻¹`` for ``σ = perms[s]``."""
    if not stabilizer:
        yield from ((p, []) for p in range(len(perms)))
        return
    for p, image in enumerate(perms):
        after = itemgetter(*image)  # σ ↦ σ∘π
        kept = []
        for s in stabilizer:
            renamed = undo[s](after(perms[s]))  # σπσ⁻¹
            if renamed < image:
                break
            if renamed == image:
                kept.append(s)
        else:
            yield p, kept


def orbit_leaders(k: int, free: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """Yield ``(picks, orbit size)`` for the least cover of each renaming orbit.

    The covers are the perfect covers of the lists ``1..k`` of a graph with
    ``free`` edges outside a spanning forest, with the forest's edges pinned
    to the identity, in lexicographic product order over the free edges'
    permutations (the order of the reference enumerator in
    ``tests/oracles.py``).  ``picks[j]`` is the image tuple of the
    permutation of ``range(k)`` on the ``j``-th free edge, whose matching
    is ``(c + 1, picks[j][c] + 1)``.  Renaming every fiber's colors
    by one permutation ``σ`` keeps each pinned identity matching and turns
    each free matching ``π`` into ``σπσ⁻¹``; renamed covers answer every
    coloring question alike, so one cover per orbit decides the orbit.
    Orderly generation (Read 1978; McKay 1998) yields the least member of
    each orbit in product order, and only those: free matchings are chosen
    edge by edge while the ``σ`` that fix the choices so far are kept, and
    a choice that a kept ``σ`` conjugates below itself ends its branch,
    since every completion then has a smaller renaming.  At the first free
    edge every ``σ`` is kept, so the choices that survive there are the
    least of their conjugacy classes, read off their cycle types with no
    conjugation.  The orbit size is ``k!`` over the number of ``σ`` fixing
    the whole cover; with one free edge, that is the order of the chosen
    matching's centralizer.  With two or more free edges, every one of the
    ``k!`` permutations is tried at each level after the first; with one,
    only the class leaders are built.
    """
    if not free:
        yield (), 1
        return
    if free == 1:
        for _, image, centralizer in _class_leaders(k):
            yield (image,), math.factorial(k) // centralizer
        return
    perms = list(permutations(range(k)))
    # with k < 2 the identity is the only σ, so no renaming is ever tested
    undo = [itemgetter(*sorted(range(k), key=s.__getitem__)) for s in perms] if k > 1 else []

    def commuting(p: int) -> list[int]:
        """The ``σ`` but the identity that commute with ``perms[p]``."""
        image = perms[p]
        return [s for s in range(1, len(perms)) if undo[s](itemgetter(*image)(perms[s])) == image]

    # one iterator of surviving choices per free edge chosen so far
    picks = [perms[0]] * free
    levels = [((p, commuting(p)) for p, _, _ in _class_leaders(k))]
    while levels:
        step = next(levels[-1], None)
        if step is None:
            levels.pop()
            continue
        p, kept = step
        picks[len(levels) - 1] = perms[p]
        if len(levels) < free:
            levels.append(_unbeaten(kept, perms, undo))
        else:
            yield tuple(picks), len(perms) // (len(kept) + 1)
