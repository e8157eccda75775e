"""List assignments and covers for DP-coloring.

A list assignment gives each vertex a finite set of integer colors; it is
stored as a tuple of sorted color tuples indexed by vertex.  A cover pairs
the host graph with one partial injective matching per host edge: matching
pairs ``(cu, cv)`` relate a color of the smaller-indexed endpoint to a
color of the larger one.  The code that builds matchings works in that
orientation: the pinned covers and their masks in ``solver``, the
residual covers in ``reduction`` and the cover files in ``fileio``.  The
code that colors looks up conflicts only through ``Cover.partners``,
which reads each matching from either end.  A cover puts few distinct
matchings on its edges (two 3-lists admit 34 partial matchings, 6 of
them perfect), so ``Cover.partners`` builds the two maps of each
distinct matching once, and ``validate_cover`` makes one pass over the
distinct lists and then the distinct (list, list, matching) triples, in
first-occurrence order.  A triple fails on every edge that carries it, so
the first triple that fails names the first bad edge.
Colors carry no global meaning (only matchings decide conflicts), and the
clique inside each vertex's fiber is implicit (choosing one color per
vertex encodes it).

``random_cover`` draws each edge's shuffle straight from the bit stream:
it makes exactly the ``getrandbits`` calls ``rng.shuffle`` makes, read
from a table of draws per list length.  Equal draws between equal lists
give one full matching, built once, and the cover holds one tuple per
distinct matching; ``fileio.cover_from_text`` interns the matchings and
lists of a cover file the same way.  ``validate_cover`` and
``Cover.partners`` still deduplicate by value, since covers that callers
build are not interned, but on an interned cover each of their dict
lookups finds the stored key itself and compares no pairs.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
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
        ``validate_cover`` checks.  The two maps of a matching, one per
        direction, are built once per distinct matching and shared by every
        edge that carries it, so they are read-only.
        """
        maps: tuple[dict[int, dict[int, int]], ...] = tuple({} for _ in range(self.graph.n))
        try:
            shared = {m: (dict(m), {cv: cu for cu, cv in m}) for m in set(self.matchings)}
            pairs = map(shared.__getitem__, self.matchings)
        except TypeError:  # matchings that cannot be hashed, such as lists
            pairs = ((dict(m), {cv: cu for cu, cv in m}) for m in self.matchings)
        for (u, v), (forward, backward) in zip(self.graph.edges, pairs):
            maps[u][v] = forward
            maps[v][u] = backward
        return maps


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

    One pass checks each distinct list, then each distinct (list of ``u``,
    list of ``v``, matching) triple pair by pair, in first-occurrence order.
    A triple that fails does so on every edge that carries it, so the first
    triple to fail is first carried by the first bad edge: that edge is
    named, with the pair and clause an edge-by-edge scan would name.  When
    some value cannot be hashed, every value is checked in order.
    """
    g = cover.graph
    lists = cover.lists
    if len(lists) != g.n:
        return CoverViolation("fibers", f"{len(lists)} lists for {g.n} vertices")
    if len(cover.matchings) != g.m:
        return CoverViolation(
            "matching-shape", f"{len(cover.matchings)} matchings for {g.m} edges"
        )
    for colors in _first_occurrences(lists):
        if len(set(colors)) != len(colors):
            v = lists.index(colors)
            return CoverViolation("fibers", f"list of {v} repeats a color: {list(colors)}")
    triples = [
        (lists[u], lists[v], matching) for (u, v), matching in zip(g.edges, cover.matchings)
    ]
    for triple in _first_occurrences(triples):
        list_u, list_v, matching = triple
        seen_u: set[int] = set()
        seen_v: set[int] = set()
        for cu, cv in matching:
            if cu not in list_u:
                clause, fault = "fibers", "color {cu} not in list of {u}"
            elif cv not in list_v:
                clause, fault = "fibers", "color {cv} not in list of {v}"
            elif cu in seen_u:
                clause, fault = "matching", "color {cu} of {u} matched twice"
            elif cv in seen_v:
                clause, fault = "matching", "color {cv} of {v} matched twice"
            else:
                seen_u.add(cu)
                seen_v.add(cv)
                continue
            u, v = g.edges[triples.index(triple)]
            return CoverViolation(
                clause, f"edge {(u, v)}: " + fault.format(cu=cu, cv=cv, u=u, v=v)
            )
    return None


def _first_occurrences(values: Sequence) -> Iterable:
    """The distinct items of ``values`` in first-occurrence order; every
    item, in order, when one cannot be hashed (such as a list of colors)."""
    try:
        return dict.fromkeys(values)
    except TypeError:
        return values


def _draws(length: int) -> tuple[tuple[int, int, int], ...]:
    """The draws ``rng.shuffle`` makes on a list of ``length`` items, in
    order: for each position ``i`` from the last down to 1, the bit count
    and bound of its ``_randbelow(i + 1)``."""
    return tuple((i, (i + 1).bit_length(), i + 1) for i in range(length - 1, 0, -1))


def random_cover(
    graph: Graph, lists: Lists, seed: int, perfect: bool = False
) -> Cover:
    """Seeded random cover; with ``perfect`` every matching is a bijection.

    Each edge ``(u, v)`` pairs the list of ``u`` in order with a shuffle of
    the list of ``v``.  Without ``perfect``, each pair is then dropped
    with probability 1/2.  The shuffle reads the bit stream exactly as
    ``rng.shuffle`` does, from a table of draws per list length, so a seed
    gives the same cover as a ``shuffle`` call per edge.  Equal draws
    between equal lists give one full matching, built once, and sorted
    once when ``perfect``; every matching is then interned by value, so
    that the cover holds one tuple per distinct matching.
    """
    sizes = list(map(len, lists))
    # a perfect matching needs equal list sizes at both ends
    if perfect and len(set(sizes)) > 1:
        for u, v in graph.edges:
            if len(lists[u]) != len(lists[v]):
                raise UnequalListsError(
                    f"edge {(u, v)}: list sizes {len(lists[u])} != {len(lists[v])}"
                )
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    coin = rng.random
    tables = {size: _draws(size) for size in set(sizes)}
    draws = [tables[size] for size in sizes]
    label: dict[tuple[int, ...], int] = {}  # equal lists share a label
    labels = [label.setdefault(colors, len(label)) for colors in lists]
    full_by_draws: dict[tuple[int, int, int], Matching] = {}
    interned: dict[Matching, Matching] = {}
    matchings: list[Matching] = []
    for u, v in graph.edges:
        # rng.shuffle's draws on the list of v, read as one mixed-radix code
        code = 0
        for _, bits, bound in draws[v]:
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            code = code * bound + j
        key = (labels[u], labels[v], code)
        full = full_by_draws.get(key)
        if full is None:
            full = _full_matching(lists[u], lists[v], draws[v], code, perfect)
            if perfect:
                full = interned.setdefault(full, full)
            full_by_draws[key] = full
        if perfect:
            matchings.append(full)
        else:  # one coin per pair in zip order, so full is left unsorted
            pairs = [p for p in full if coin() < 0.5]
            matching = tuple(sorted(pairs))
            matchings.append(interned.setdefault(matching, matching))
    return Cover(graph=graph, lists=lists, matchings=tuple(matchings))


def _full_matching(
    colors_u: tuple[int, ...],
    colors_v: tuple[int, ...],
    draws: tuple[tuple[int, int, int], ...],
    code: int,
    sort: bool,
) -> Matching:
    """The list of ``u`` in order against the list of ``v`` shuffled by the
    draws that ``code`` holds; sorted if ``sort``."""
    picks = []
    for _, _, bound in reversed(draws):
        code, j = divmod(code, bound)
        picks.append(j)
    shuffled = list(colors_v)
    for (i, _, _), j in zip(draws, reversed(picks)):
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    pairs = zip(colors_u, shuffled)
    return tuple(sorted(pairs)) if sort else tuple(pairs)


def partial_matchings(left: tuple[int, ...], right: tuple[int, ...]) -> list[Matching]:
    """Every partial injective matching between two color lists, sorted."""
    return sorted(
        tuple(sorted(zip(chosen, image)))
        for k in range(min(len(left), len(right)) + 1)
        for chosen in combinations(left, k)
        for image in permutations(right, k)
    )
