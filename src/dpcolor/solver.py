"""Exact search for representative sets in covers.

A representative set picks one color from each vertex's list; its
impropriety at a vertex is the number of incident edges whose matching
joins the two chosen colors.  ``find_rep_set`` is a complete search by
forward checking with conflict-directed backjumping (FC-CBJ), one loop
with no call per node, that keeps what each assignment rules out: per
(vertex, color), the list of assigned neighbors that hit the color, and
per vertex a bitmask of its free colors, those no one hits.  The free
colors' candidates come from one tuple per list and mask, in ascending
color order, so only a struck color is walked for its verdict and blame;
the hit lists each color of each vertex joins are looked up at most once
per call; it finds the set that chronological backtracking in the same
order finds first, from no more nodes.  ``brute_force_rep_set``
enumerates all total assignments as an independent oracle.  All-cover
questions (``is_dp_colorable``, ``dp_chromatic``) quantify over
perfect-matching covers of the canonical 1..k lists.  Only the covers
whose spanning-forest matchings are pinned to the identity need
checking, because fibers can be renamed along the forest.  One
depth-first walk picks the free edges' permutations in product order, the
first edge's only up to renaming every fiber alike.  Each coloring found
is kept.  A leaf that a kept coloring fits needs no search, and a node is
skipped whole when the kept colorings that fit it are those that fit an
earlier finished node at its depth, each of whose leaves one of them fit.
Only a cover that no kept coloring fits is built as a ``Cover``, for
``find_rep_set`` to search and, if it has no set, as the witness.  The
budget of an all-covers question counts the walk's nodes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .covers import DEFAULT_BUDGET, Cover, uniform_assignment
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

    Complete: ``None`` is returned only when no such set exists.  The search is
    forward checking with conflict-directed backjumping (FC-CBJ; Prosser,
    Computational Intelligence 9(3), 1993).  Vertices are assigned in
    descending-degree order, ties by index; candidate colors are tried by
    ascending conflict count against the current partial assignment, ties by
    color.  Conflicts are kept, not recomputed (Haralick and Elliott,
    Artificial Intelligence 14, 1980): an assignment joins the hit list of the
    matched color at each later neighbor, and taking it back, always last in
    first out, leaves them again, while each vertex keeps a bitmask of its
    free colors, those with an empty hit list.  The hit lists each (vertex,
    color) joins are found once per call, when the vertex first takes the
    color.  A free color is viable with no conflict: per list and mask of
    free colors, the free colors' candidates are one tuple, in ascending
    color order, built once.  A struck color is decided by one walk of its
    hitters in vertex order, which, when it refuses the color, names the
    positions to blame: the ``d + 1`` hitters it meets, or one hitter that
    already has ``d`` conflicts, with that hitter's mates; at ``d = 0`` that
    is the least hitter alone, and no struck color is viable, so a node there
    takes its candidates from the tuple alone.  A branch dies when the vertex
    just colored leaves a later neighbor with every color refused; only a
    neighbor with no free color needs that walk.  Each position gathers the
    blame, less itself, for the wipe-outs its own colors caused, from those
    walks, and, when its candidates run out, for the colors its vertex was
    refused, walked then, when the hit lists are again as they were when its
    node opened.  The search then jumps back to the latest of those positions
    and hands it the rest; with none, there is no set.  The skipped subtrees
    hold no solution and the orders are kept, so the first set found is the one
    chronological backtracking finds, from no more nodes.  One loop over
    per-position iterators of the untried colors replaces a call stack as deep
    as the graph.  ``budget`` caps search-tree nodes, counted as they are
    created, and raises rather than hang; it can only trip later than under
    chronological backtracking.  Raises ``NegativeImproprietyError`` for
    ``d < 0``.
    """
    _check_search(cover, d)
    g = cover.graph
    if g.n == 0:
        return ()
    partners = cover.partners
    deg = g.degrees
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    rank = [0] * g.n
    for pos, v in enumerate(order):
        rank[v] = pos
    place = [1 << pos for pos in rank]  # place[v]: the bit of v's position in a conflict set
    chosen = [0] * g.n  # read once every position holds a color
    # mates[v]: the positions of the assigned neighbors v conflicts with, as
    # bits, so that v's conflict count is mates[v].bit_count()
    mates = [0] * g.n
    # hits[v][c]: the assigned neighbors whose color is matched to color c
    # of v, in the order they were assigned.  Matchings are read as
    # injective, as validate_cover checks, so each list is filled from the
    # assigned side.
    hits = [{c: [] for c in colors} for colors in cover.lists]
    # Vertices with equal lists share two tables: bits[v], the bit of each
    # distinct color of v, by ascending color, and menus[v], filled in per
    # mask of free colors as the search meets it: the candidates of the free
    # colors, in ascending color order with any repeats, and the struck
    # colors, also ascending.  free[v]: the bits of the free colors of v.
    shared: dict[tuple[int, ...], tuple[dict[int, int], dict[int, tuple[tuple, tuple]]]] = {}
    bits = []
    menus = []
    for colors in cover.lists:
        key = tuple(colors)
        if key not in shared:
            shared[key] = ({c: 1 << i for i, c in enumerate(sorted(set(key)))}, {})
        bits.append(shared[key][0])
        menus.append(shared[key][1])
    free = [(1 << len(bit_of)) - 1 for bit_of in bits]
    nodes = 0
    # ahead[v][c], filled in when v first takes c: the forward check's
    # targets, one per later neighbor w in the order of partners[v], each w
    # with the hit list and bit of the color of w matched to c.  When c is
    # unmatched, or that color is not in the list of w, the target holds
    # spare, a list of no color, and bit 0, which frees and strikes nothing,
    # so that every target is joined and left alike.  Filled lazily, since
    # a search that assigns a vertex once uses one of its colors' lists.
    ahead: list[dict[int, list[tuple[int, list[int], int]]]] = [{} for _ in range(g.n)]
    spare: list[int] = []

    def conflicts(met: list[int]) -> list[int] | int:
        """For the non-empty hit list ``met`` of a color: its hitters, for a
        viable color; for a refused one, the positions to blame, as bits: a
        hitter already at ``d`` conflicts with its mates, or the ``d + 1``
        hitters the color meets.  Hitters are met in ascending vertex id,
        the order in which a scan of the vertex's neighbors meets them."""
        if not d:  # no chosen color ever conflicts, so mates stays 0
            return place[min(met)]
        if len(met) > 1:
            met = sorted(met)
        for i, u in enumerate(met):
            if mates[u].bit_count() >= d:
                return place[u] | mates[u]
            if i == d:
                return sum(place[x] for x in met[: d + 1])
        return list(met)

    # the untried candidates and the conflict set of each position so far;
    # per assigned position, the conflicts of the color it holds and the
    # forward-check targets whose hit lists its color joined
    pending = []
    blame: list[int] = []
    held: list[list[int]] = []
    joined: list[list[tuple[int, list[int], int]]] = []
    descend = True
    while True:
        if descend:  # a new node at the next position
            descend = False
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"search exceeded {budget} nodes")
            v = order[len(pending)]
            mask = free[v]
            menu = menus[v].get(mask)
            if menu is None:
                bit_of = bits[v]
                ascending = sorted(cover.lists[v])
                menu = menus[v][mask] = (
                    tuple((0, c, ()) for c in ascending if bit_of[c] & mask),
                    tuple(c for c in ascending if not bit_of[c] & mask),
                )
            found, struck = menu
            if d and struck:  # rank the viable struck colors after the free ones
                hit_by = hits[v]
                ranked = []
                for c in struck:
                    hit = conflicts(hit_by[c])
                    if not isinstance(hit, int):
                        ranked.append((len(hit), c, hit))
                if ranked:
                    ranked.sort()
                    found += tuple(ranked)
            pending.append(iter(found))
            blame.append(0)
        pos = len(pending) - 1
        while len(held) > pos:  # take back the colors from pos on, latest first
            u = order[len(held) - 1]
            for w, listed, bit in joined.pop():
                listed.pop()
                if not listed:
                    free[w] |= bit
            for x in held.pop():
                mates[x] ^= place[u]
            mates[u] = 0
        entry = next(pending[pos], None)
        if entry is None:
            pending.pop()
            jump = blame.pop()
            # the blame for the colors refused here, read now that the
            # hit lists are as they were when the node opened
            v = order[pos]
            hit_by = hits[v]
            for c in menus[v][free[v]][1]:
                reason = conflicts(hit_by[c])
                if isinstance(reason, int):
                    jump |= reason
            if not jump:
                return None
            # back to the latest position to blame, with the rest of the blame
            back = jump.bit_length() - 1
            del pending[back + 1:]
            del blame[back + 1:]
            blame[back] |= jump ^ (1 << back)
            continue
        _, c, hit = entry
        v = order[pos]
        for u in hit:
            mates[u] |= place[v]
            mates[v] |= place[u]
        chosen[v] = c
        held.append(hit)
        # forward check: v joins the hit list of the color matched to c at
        # each later neighbor, and a neighbor with no free color must keep
        # one viable
        targets = ahead[v].get(c)
        if targets is None:
            targets = ahead[v][c] = []
            for w, pairing in partners[v].items():
                if rank[w] > pos:
                    cw = pairing.get(c)
                    listed = hits[w].get(cw)  # type: ignore[arg-type]
                    if listed is None:
                        targets.append((w, spare, 0))
                    else:
                        targets.append((w, listed, bits[w][cw]))
        joined.append(targets)
        for target in targets:
            w, listed, bit = target
            if not listed:
                free[w] ^= bit
            listed.append(v)
            if not free[w]:
                reasons = 0
                for met in hits[w].values():
                    reason = conflicts(met)
                    if not isinstance(reason, int):
                        break
                    reasons |= reason
                else:
                    # a wipe-out: its reasons, but for this position, are
                    # blamed here, and the later targets were not joined
                    blame[pos] |= reasons & ~place[v]
                    joined[-1] = targets[: targets.index(target) + 1]
                    break
        else:
            if pos + 1 == g.n:
                return tuple(chosen)
            descend = True


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

    ``witness`` is a cover with no valid representative set, and ``None``
    exactly when the graph is ``colorable``: the first such cover with a
    spanning forest's matchings pinned, in lexicographic product order over
    the free edges' permutations (``tests/oracles.py`` enumerates them as a
    reference).
    ``searches`` counts the nodes of the walk over the pinned covers (for
    a forest, its one cover), and ``covers_checked`` the pinned covers
    they decide; a colorable answer decides all (k!)^(m-n+c) of them.
    ``solver_calls`` counts the covers that ``find_rep_set`` searched, the
    only ones built as a ``Cover``; a coloring found for an earlier cover
    decided the others.
    """

    witness: Cover | None
    covers_checked: int
    searches: int
    solver_calls: int

    @property
    def colorable(self) -> bool:
        return self.witness is None


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


def _pinned_cover(
    graph: Graph, k: int, free: list[int], picks: tuple[tuple[int, ...], ...]
) -> Cover:
    """The cover of the lists ``1..k`` with the identity matching on every
    edge but the free ones, and ``(c + 1, picks[j][c] + 1)`` on the ``j``-th
    free edge ``free[j]``."""
    identity = tuple((c, c) for c in range(1, k + 1))
    matchings = [identity] * graph.m
    for i, image in zip(free, picks):
        matchings[i] = tuple((c + 1, x + 1) for c, x in enumerate(image))
    return Cover(graph, uniform_assignment(graph.n, k), tuple(matchings))


def _class_leaders(k: int) -> list[tuple[tuple[int, ...], int]]:
    """``(image, centralizer order)`` for each conjugacy class of the
    permutations of ``range(k)``, in lexicographic order of ``image``, the
    image tuple of the class's least member.

    Conjugates share a cycle type, and every permutation of a cycle type is
    conjugate to every other, so each cycle type gives one class.  Its
    least member is built directly: the cycles in ascending length, each
    on the next free colors ``a, a + 1, …`` as ``c ↦ c + 1`` closed back
    to ``a`` (so the fixed points come first).  The centralizer of a
    permutation with ``m_i`` cycles of length ``i`` has order
    ``∏ m_i! · i^{m_i}``.
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
        centralizer = math.prod(
            math.factorial(m) * length**m for length, m in Counter(lengths).items()
        )
        leaders.append((tuple(image), centralizer))
    return sorted(leaders)


def is_dp_colorable(
    graph: Graph, k: int, d: int, budget: int = DEFAULT_BUDGET
) -> Colorability:
    """Decide colorability over every cover of the canonical k-assignment.

    Perfect-matching covers of the lists ``1..k`` dominate partial ones,
    and one assignment suffices because fibers may be renamed freely.
    Renaming the fibers along a spanning forest turns each forest edge's
    matching into the identity, so only covers with those matchings pinned
    need checking: (k!)^(m-n+c) of them for a graph with c components.
    One depth-first walk picks the free edges' permutations in turn, each
    level's in lexicographic order, so its leaves, the pinned covers, come
    in product order.  Renaming every fiber by one permutation ``σ`` keeps
    the pinning and turns each free permutation ``π`` into ``σπσ⁻¹``, so
    the first free edge takes only the least permutation of each conjugacy
    class, which stands for the k!/|centralizer| covers of its class there.

    A coloring found for one cover fits another whose free-edge
    permutations join none of its pairs of colors: its conflicts there are
    among those it had, at most ``d`` per vertex.  Each coloring found is
    kept in a pool, and per free edge and permutation seen on it a bitmask
    holds the pooled colorings that the permutation does not join.  A
    node's ``fits``, the AND of the masks along its path, holds the pooled
    colorings that fit its picks.  A leaf with a fitting coloring is
    colorable with no search; any other is built as a ``Cover`` and goes to
    ``find_rep_set``, and the first with no set is the witness.  When a
    node is finished and every leaf below it was fit by a pooled coloring,
    its final ``fits`` is kept for its depth: every completion of its picks
    is fit by one of those colorings.  A later node at that depth with the
    same ``fits`` is colorable throughout by the same colorings, so it is
    skipped whole.  At ``d > 0`` a coloring found may join colors on its
    own cover's free edges; the nodes open above such a leaf keep nothing.

    A forest has no free edge and one cover, its identity cover, which is
    colorable at every ``k >= 2`` (color each tree from its root), so there
    it is answered with no lists built and no search.  ``budget`` bounds
    the walk's nodes, checked as each is made, and each search's nodes;
    with a free edge it also bounds the ``k!`` matchings tried per free
    edge, checked up front.  Raises ``EmptyListError`` for ``k < 0``, whose
    lists ``1..k`` are empty, and ``NegativeImproprietyError`` for
    ``d < 0``.
    """
    if k < 0:
        raise EmptyListError(f"list size {k} is negative")
    if d < 0:
        raise NegativeImproprietyError(f"impropriety bound {d} is negative")
    free = _free_edges(graph)
    if free:
        matchings = 1  # k!, multiplied out only until it passes the budget
        for i in range(1, k + 1):
            matchings *= i
            if matchings > budget:
                raise BudgetExceededError(f"{k}! matchings per free edge exceed budget {budget}")
    ends = [graph.edges[i] for i in free]
    pool: list[RepSet] = []
    # unjoined[j][image]: the bits of the pooled colorings that the
    # permutation image, on the j-th free edge, does not join
    unjoined: list[dict[tuple[int, ...], int]] = [{} for _ in free]

    def search(picks: tuple[tuple[int, ...], ...]) -> Cover | None:
        """Search the cover that ``picks`` make: pool its coloring, or
        return the cover when it has none.  Every search but the witness's
        adds to the pool."""
        cover = _pinned_cover(graph, k, free, picks)
        found = find_rep_set(cover, d, budget=budget)
        if found is None:
            return cover
        bit = 1 << len(pool)
        pool.append(found)
        for (u, v), masks in zip(ends, unjoined):
            for image in masks:
                if image[found[u] - 1] != found[v] - 1:
                    masks[image] |= bit
        return None

    if not free:  # one cover, the identity: at k >= 2 color each tree from its root
        witness = search(()) if k < 2 else None
        return Colorability(witness, 1, 1, int(k < 2))
    size = math.factorial(k)
    # the first free edge's picks: each class leader, with the size of its class
    leaders = {image: size // centralizer for image, centralizer in _class_leaders(k)}
    later = list(permutations(range(k))) if len(free) > 1 else []
    # dead[j]: the final fits of the finished nodes at depth j whose every
    # leaf a pooled coloring fits
    dead: list[set[int]] = [set() for _ in free]
    # per open node, root first: its untried children, its fits and the
    # unfit leaves counted when it opened; picks[j] is the permutation on
    # free edge j of the open node at depth j + 1
    todo: list[Iterator[tuple[int, ...]]] = [iter(leaders)]
    fits = [0]
    opened = [0]
    picks: list[tuple[int, ...]] = []
    nodes = checked = unfit = 0
    share = 1  # the pinned covers each leaf under the current first pick stands for
    while True:
        j = len(picks)  # the depth of the deepest open node
        image = next(todo[-1], None)
        if image is None:  # that node is finished
            if not picks:
                return Colorability(None, checked, nodes, len(pool))
            todo.pop()
            done = fits.pop()
            if opened.pop() == unfit:
                dead[j].add(done)
            picks.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"all-covers search exceeded {budget} searches")
        mask = unjoined[j].get(image)
        if mask is None:
            u, v = ends[j]
            mask = unjoined[j][image] = sum(
                1 << b for b, rep in enumerate(pool) if image[rep[u] - 1] != rep[v] - 1
            )
        fit = fits[-1] & mask
        if not j:
            share = leaders[image]
        if j + 1 < len(free):
            if fit in dead[j + 1]:
                checked += share * size ** (len(free) - j - 1)
            else:
                todo.append(iter(later))
                fits.append(fit)
                opened.append(unfit)
                picks.append(image)
            continue
        checked += share
        if fit:
            continue
        witness = search((*picks, image))
        if witness is not None:
            return Colorability(witness, checked, nodes, len(pool) + 1)
        fits[0] = (1 << len(pool)) - 1
        for i, chosen in enumerate(picks):
            fits[i + 1] = fits[i] & unjoined[i][chosen]
        if not fits[-1] & unjoined[j][image]:
            unfit += 1  # the coloring joins colors on its own cover's free edges


def dp_chromatic(graph: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Least ``k`` such that every cover of every k-assignment is colorable.

    Each ``k`` is one ``is_dp_colorable`` question: one walk over the
    pinned covers, which searches only the covers that no coloring found
    before fits.
    """
    for k in range(1, graph.n + 2):
        if is_dp_colorable(graph, k, 0, budget=budget).colorable:
            return k
    raise InternalInvariantError("unreachable: max-degree+1 colors always suffice")
