"""Independent reference implementations used only by tests.

These deliberately avoid the package's algorithms: cycles are found by
checking subsets against permutations, perfect covers by one product over
every edge's permutations, relaxed list colorings by enumerating raw
color maps on the graph, pendant 3-faces by scanning every face per
vertex, the faces at a vertex's corners by looking up each dart out of
it in a dart-to-face map built from the walks, each element's case and
whether it is inside the discharging analysis by testing the structural
requirements on adjacency rows and face walks, an element's transfers
and its final charge by scanning the whole transfer log, faces sharing
one edge with a 3-face by comparing it with every face, partial
matchings by filtering every set of color pairs, a cover's first
violated clause by one ordered scan over its lists and matched pairs,
its partner maps as one pair of dicts per edge, the graph of a rotation
system by its edge set through ``build_graph``, every JSON document
as the dict tree that ``json.dumps`` writes,
a remainder of the excision order as an induced subgraph renumbered
from 0, a reducible configuration by rescanning the whole graph in
priority order, a representative set by chronological backtracking,
an all-covers question over every perfect cover with no matching
pinned or over every cover with a spanning forest's matchings pinned,
one chronological search per cover, the classes of covers under
renaming every fiber alike by applying every renaming to every cover,
the least permutation of each cycle type by scanning all of them,
the faces a face registry keeps up to date by tracing its rotation
system from scratch, a random cover by one ``rng.shuffle`` call per
edge, and a pipeline step's colors by the extension rule written as a
function of its residual lists.

``diagonal_cover`` builds the equal-color cover, on which a list-coloring
question is a cover question; only tests build it.

``check_propositions`` is a checker rather than a reference: it reports
the structural facts the discharging analysis relies on (edge sharing of
3-faces, the faces at a pendant edge, 3-faces per vertex), and
``data/plane_golden.json`` pins its entries on the catalog.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from dpcolor.covers import DEFAULT_BUDGET, Cover, CoverViolation, uniform_assignment
from dpcolor.embedding import graph_from_rotations, trace_faces
from dpcolor.errors import (
    BudgetExceededError,
    EmptyListError,
    NegativeImproprietyError,
    UnequalListsError,
)
from dpcolor.graphs import build_graph, require_no_forbidden_cycles
from dpcolor.reduction import ConfigKind


def subset_cycles(graph, k):
    """All k-cycles, one canonical tuple per cycle, via subset/permutation scan."""
    found = set()
    for subset in combinations(range(graph.n), k):
        for perm in permutations(subset[1:]):
            seq = (subset[0],) + perm
            if seq[1] > seq[-1]:
                continue  # canonical direction
            edges_ok = all(
                graph.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)
            )
            if edges_ok:
                found.add(seq)
    return sorted(found)


def diagonal_cover(graph, lists):
    """Cover matching equal colors across every edge.

    A representative set of this cover is exactly a list coloring from the
    same lists, which is how list-coloring questions reduce to cover ones.
    """
    matchings = tuple(
        tuple(sorted((c, c) for c in set(lists[u]) & set(lists[v])))
        for u, v in graph.edges
    )
    return Cover(graph=graph, lists=lists, matchings=matchings)


def enumerate_perfect_covers(graph, lists, budget=DEFAULT_BUDGET, free_edges=None):
    """Yield every perfect-matching cover exactly once, in product order:
    the last edge's matching varies fastest, and each free edge's
    permutations of ``lists[v]`` come in lexicographic order.

    ``free_edges`` restricts enumeration to the given edge indices, pinning
    all other edges to the identity-position bijection; by default all
    edges are free.  The number of covers to be yielded is checked against
    ``budget`` first.
    """
    for u, v in graph.edges:
        if len(lists[u]) != len(lists[v]):
            raise UnequalListsError(
                f"edge {(u, v)}: list sizes {len(lists[u])} != {len(lists[v])}"
            )
    sizes = [len(lists[u]) for u, _ in graph.edges]
    free = set(range(graph.m)) if free_edges is None else set(free_edges)
    total = math.prod(math.factorial(size) for i, size in enumerate(sizes) if i in free)
    if total > budget:
        raise BudgetExceededError(f"{total} covers exceed budget {budget}")
    options = [
        [
            tuple(sorted(zip(lists[u], image)))
            for image in (permutations(lists[v]) if i in free else (lists[v],))
        ]
        for i, (u, v) in enumerate(graph.edges)
    ]
    for matchings in product(*options):
        yield Cover(graph=graph, lists=lists, matchings=matchings)


def induced_subgraph(graph, vertices):
    """(subgraph on ``vertices`` renumbered 0..k-1 in sorted order, the
    sorted host ids, so that subgraph vertex ``i`` is host vertex ``names[i]``)."""
    names = tuple(sorted(vertices))
    index = {v: i for i, v in enumerate(names)}
    edges = [(index[u], index[v]) for u, v in graph.edges if u in index and v in index]
    return build_graph(len(names), edges), names


def reducible_config_scan(graph):
    """(kind name, vertices) of the first reducible configuration, or None.

    Priority: a vertex of degree <= 2, then a 3-3 edge in edge order, then
    a 4-vertex with its first three degree-3 neighbours, which must be
    pairwise nonadjacent.
    """
    degs = graph.degrees
    for v in range(graph.n):
        if degs[v] <= 2:
            return "low-vertex", (v,)
    for u, v in graph.edges:
        if degs[u] == 3 and degs[v] == 3:
            return "adjacent-threes", (u, v)
    for v in range(graph.n):
        if degs[v] != 4:
            continue
        threes = [u for u in graph.adjacency[v] if degs[u] == 3]
        if len(threes) >= 3:
            leaves = tuple(threes[:3])
            assert not any(graph.has_edge(a, b) for a in leaves for b in leaves if a < b)
            return "four-three-threes", (v,) + leaves
    return None


def relaxed_list_colorable(graph, lists, d):
    """Direct search for a coloring whose color classes induce max degree <= d."""
    for coloring in product(*lists):
        ok = True
        for v in range(graph.n):
            same = sum(
                1 for u in graph.adjacency[v] if coloring[u] == coloring[v]
            )
            if same > d:
                ok = False
                break
        if ok:
            return coloring
    return None


def dp_colorable_scan(graph, k, d):
    """(colorable, covers checked): whether every perfect cover of the lists
    1..k has an assignment of impropriety <= d, trying every cover and, in
    each, every assignment until one fits."""
    lists = uniform_assignment(graph.n, k)
    checked = 0
    for cover in enumerate_perfect_covers(graph, lists):
        checked += 1
        hits = [set(matching) for matching in cover.matchings]

        def fits(rep):
            counts = Counter()
            for (u, v), matched in zip(graph.edges, hits):
                if (rep[u], rep[v]) in matched:
                    counts[u] += 1
                    counts[v] += 1
            return max(counts.values(), default=0) <= d

        if not any(fits(rep) for rep in product(*lists)):
            return False, checked
    return True, checked


def chronological_rep_set(cover, d, budget=DEFAULT_BUDGET):
    """``find_rep_set`` by chronological backtracking: the same vertex
    order, candidate order, forward check and node budget, but a dead end
    always returns to the position just before it."""
    if d < 0:
        raise NegativeImproprietyError(f"impropriety bound {d} is negative")
    for v, colors in enumerate(cover.lists):
        if not colors:
            raise EmptyListError(f"vertex {v} has an empty list")
    g = cover.graph
    if g.n == 0:
        return ()
    partners = cover.partners
    order = sorted(range(g.n), key=lambda v: (-g.degrees[v], v))
    chosen = [None] * g.n
    counts = [0] * g.n
    nodes = 0

    def conflicts(v, c):
        """The assigned neighbors color ``c`` of ``v`` conflicts with, or
        ``None`` when one of them, or ``v``, would exceed ``d``."""
        hit = []
        for u, pairing in partners[v].items():
            if chosen[u] is not None and pairing.get(c) == chosen[u]:
                if counts[u] >= d or len(hit) == d:
                    return None
                hit.append(u)
        return hit

    def candidates(v):
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
    held = []
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
                return tuple(chosen)
            pending.append(candidates(order[pos + 1]))
    return None


def pinned_scan(graph, k, d, free_edges):
    """(colorable, witness, covers checked): searches every perfect cover
    of the lists 1..k whose edges outside ``free_edges`` are pinned to the
    identity, in ``enumerate_perfect_covers`` order, until one has no
    assignment of impropriety <= d."""
    lists = uniform_assignment(graph.n, k)
    checked = 0
    for cover in enumerate_perfect_covers(graph, lists, free_edges=free_edges):
        checked += 1
        if chronological_rep_set(cover, d) is None:
            return False, cover, checked
    return True, None, checked


def renaming_classes(matching_tuples, k):
    """{least member: size} of the classes of ``matching_tuples`` (each a
    tuple of sorted ``(cu, cv)`` matchings over the colors 1..k) under
    renaming the colors of every fiber by one permutation."""
    renamings = [dict(zip(range(1, k + 1), perm)) for perm in permutations(range(1, k + 1))]
    classes = {}
    classed = set()
    for matchings in matching_tuples:
        if matchings in classed:
            continue
        orbit = {
            tuple(tuple(sorted((rename[cu], rename[cv]) for cu, cv in m)) for m in matchings)
            for rename in renamings
        }
        classed |= orbit
        classes[min(orbit)] = len(orbit)
    return classes


def class_leaders_scan(k):
    """[(p, image, centralizer order)] for each index ``p`` into the
    lexicographic list of the permutations of ``range(k)`` whose
    permutation ``image`` is the first of its cycle type, found by taking
    the cycle type of every one."""
    leaders = []
    seen = set()
    for p, image in enumerate(permutations(range(k))):
        unseen = set(range(k))
        lengths = []
        while unseen:
            c = min(unseen)
            length = 0
            while c in unseen:
                unseen.remove(c)
                c = image[c]
                length += 1
            lengths.append(length)
        kind = tuple(sorted(lengths))
        if kind not in seen:
            seen.add(kind)
            leaders.append((p, image, math.prod(math.factorial(m) * i**m for i, m in Counter(kind).items())))
    return leaders


def pendant_3faces_scan(pg, v):
    """Indices of the (3,4+,4+)-faces not containing ``v`` whose degree-3
    corner is adjacent to ``v``."""
    out = []
    for i, walk in enumerate(pg.faces):
        corners = [u for u, _ in walk]
        if len(corners) != 3 or v in corners:
            continue
        degs = sorted(len(pg.graph.adjacency[u]) for u in corners)
        threes = [u for u in corners if len(pg.graph.adjacency[u]) == 3]
        if len(threes) == 1 and degs[1] >= 4 and pg.graph.has_edge(v, threes[0]):
            out.append(i)
    return tuple(out)


def face_of_dart_scan(pg):
    """The index of the face whose walk holds each dart."""
    return {dart: i for i, walk in enumerate(pg.faces) for dart in walk}


def faces_at_vertex_scan(pg, v):
    """Incident face indices in rotation order, one per corner, each looked
    up by its dart out of ``v``."""
    face_of = face_of_dart_scan(pg)
    return tuple(face_of[v, w] for w in pg.rotation[v])


def audit_case_scan(pg):
    """Each element's ``(case, pattern, inside)``, keyed as in the audit,
    from the structural requirements read off the adjacency rows and the
    face walks: a vertex's pattern looks up the face of each dart out of
    it, and a (3,4+,4+)-face is paid when ``pendant_3faces_scan`` of some
    4+-vertex lists it."""
    adjacency = pg.graph.adjacency
    deg = [len(row) for row in adjacency]
    face_of = face_of_dart_scan(pg)
    out = {}
    for v, row in enumerate(adjacency):
        d = deg[v]
        case = f"{d}-vertex" if d < 3 else {3: "3-vertex", 4: "4-vertex"}.get(d, "5+-vertex")
        faces = [len(pg.faces[face_of[v, w]]) for w in pg.rotation[v]]
        threes = sum(deg[u] == 3 for u in row)
        inside = (
            d >= 3 and min(deg[u] for u in row) >= 3
            and not (d == 3 and threes) and not (d == 4 and threes > 2)
        )
        out["vertex", v] = (case, "(" + ",".join(map(str, faces)) + ")", inside)
    paid = {i for v in range(pg.graph.n) if deg[v] >= 4 for i in pendant_3faces_scan(pg, v)}
    for i, walk in enumerate(pg.faces):
        degs = [deg[u] for u, _ in walk]
        pattern = "(" + ",".join(map(str, degs)) + ")"
        if len(walk) == 3:
            inside = min(degs) >= 3 and (degs.count(3) == 0 or i in paid)
            out["face", i] = ("3-face", pattern, inside)
        elif len(walk) >= 5:
            inside = min(degs) >= 3 and not any(deg[a] == deg[b] == 3 for a, b in walk)
            out["face", i] = ("5+-face", pattern, inside)
        else:
            out["face", i] = (f"{len(walk)}-face", pattern, False)
    return out


def transfers_scan(ledger, element):
    """(transfers into ``element``, transfers out of it), in log order."""
    return (
        tuple(t for t in ledger.transfers if t.target == element),
        tuple(t for t in ledger.transfers if t.source == element),
    )


def final_charges_scan(ledger):
    """Each element's final charge in sixths: its initial charge less the
    transfers out of it plus those into it, each found by scanning the
    whole transfer log."""
    initial = [(("vertex", i), c) for i, c in enumerate(ledger.vertex_initial)]
    initial += [(("face", i), c) for i, c in enumerate(ledger.face_initial)]
    out = {}
    for element, charge in initial:
        into, away = transfers_scan(ledger, element)
        out[element] = charge - sum(t.sixths for t in away) + sum(t.sixths for t in into)
    return out


def edge_sharing_scan(pg):
    """(3-face index, face index) pairs sharing exactly one undirected edge."""
    def edges(walk):
        return Counter(frozenset(arc) for arc in walk)

    return [
        (i, j)
        for i, f in enumerate(pg.faces)
        if len(f) == 3
        for j, g in enumerate(pg.faces)
        if j != i and sum((edges(f) & edges(g)).values()) == 1
    ]


def partial_matchings_scan(left, right):
    """Every injective set of (left, right) color pairs, as sorted tuples, sorted."""
    pairs = list(product(left, right))
    out = []
    for k in range(len(pairs) + 1):
        for chosen in combinations(pairs, k):
            if len({a for a, _ in chosen}) == len({b for _, b in chosen}) == k:
                out.append(tuple(sorted(chosen)))
    return sorted(out)


def cover_violation_scan(cover):
    """The first violated clause of ``cover``, or ``None``: the shapes, then
    each list in vertex order, then each matched pair in edge order."""
    g = cover.graph
    if len(cover.lists) != g.n:
        return CoverViolation("fibers", f"{len(cover.lists)} lists for {g.n} vertices")
    if len(cover.matchings) != g.m:
        return CoverViolation("matching-shape", f"{len(cover.matchings)} matchings for {g.m} edges")
    for v, colors in enumerate(cover.lists):
        if any(c in colors[:i] for i, c in enumerate(colors)):
            return CoverViolation("fibers", f"list of {v} repeats a color: {list(colors)}")
    for (u, v), matching in zip(g.edges, cover.matchings):
        for i, (cu, cv) in enumerate(matching):
            if cu not in cover.lists[u]:
                return CoverViolation("fibers", f"edge {(u, v)}: color {cu} not in list of {u}")
            if cv not in cover.lists[v]:
                return CoverViolation("fibers", f"edge {(u, v)}: color {cv} not in list of {v}")
            if any(cu == earlier for earlier, _ in matching[:i]):
                return CoverViolation("matching", f"edge {(u, v)}: color {cu} of {u} matched twice")
            if any(cv == earlier for _, earlier in matching[:i]):
                return CoverViolation("matching", f"edge {(u, v)}: color {cv} of {v} matched twice")
    return None


def partners_scan(cover):
    """``partners[u][v][cu]`` from a fresh pair of dicts per edge."""
    maps = [{} for _ in range(cover.graph.n)]
    for (u, v), matching in zip(cover.graph.edges, cover.matchings):
        maps[u][v] = {cu: cv for cu, cv in matching}
        maps[v][u] = {cv: cu for cu, cv in matching}
    return maps


def rotation_graph_scan(rotations):
    """The graph of a rotation system: the set of its edges ``{v, w}``, one
    per ``w`` in ring ``v``, through ``build_graph``."""
    edges = {(v, w) if v < w else (w, v) for v, ring in enumerate(rotations) for w in ring}
    return build_graph(len(rotations), edges)


def plane_doc(pg):
    """The plane-graph document as a dict tree."""
    return {
        "format": "dpcolor-plane/1",
        "n": pg.graph.n,
        "rotations": [list(ring) for ring in pg.rotation],
    }


def cover_doc(cover):
    """The cover document as a dict tree."""
    return {
        "format": "dpcolor-cover/1",
        "n": cover.graph.n,
        "edges": [list(e) for e in cover.graph.edges],
        "lists": [list(colors) for colors in cover.lists],
        "matchings": [[list(pair) for pair in matching] for matching in cover.matchings],
    }


def coloring_doc(colors, counts):
    """The coloring document as a dict tree."""
    return {
        "format": "dpcolor-coloring/1",
        "colors": list(colors),
        "impropriety": list(counts),
        "max_impropriety": max(counts, default=0),
    }


def trace_doc(trace):
    """The trace document as a dict tree."""
    return {
        "format": "dpcolor-trace/1",
        "steps": [
            {
                "kind": step.kind.value,
                "vertices": list(step.vertices),
                "residual_list_sizes": list(step.residual_sizes),
                "colors": list(step.colors),
            }
            for step in trace
        ],
    }


def audit_doc(report, ledger):
    """The audit document as a dict tree, each transfer listed once, in the log."""
    def charge_str(sixths):
        return str(Fraction(sixths, 6))

    def transfer_doc(t):
        return {
            "rule": t.rule,
            "source": list(t.source),
            "target": list(t.target),
            "sixths": t.sixths,
            "display": charge_str(t.sixths),
            "multiplicity": t.multiplicity,
        }

    return {
        "format": "dpcolor-audit/2",
        "initial_total": {
            "sixths": report.initial_total,
            "display": charge_str(report.initial_total),
        },
        "final_total": {
            "sixths": report.final_total,
            "display": charge_str(report.final_total),
        },
        "transfers": [transfer_doc(t) for t in ledger.transfers],
        "elements": [
            {
                "element": list(e.element),
                "case": e.case,
                "pattern": e.pattern,
                "verdict": e.verdict,
                "reason": e.reason,
                "initial": {"sixths": e.initial, "display": charge_str(e.initial)},
                "in": {"sixths": e.incoming, "display": charge_str(e.incoming)},
                "out": {"sixths": e.outgoing, "display": charge_str(e.outgoing)},
                "final": {"sixths": e.final, "display": charge_str(e.final)},
            }
            for e in report.entries
        ],
    }


def registry_vs_trace(reg):
    """(what ``reg`` holds, what ``trace_faces`` finds on its rotations).

    Each side lists the faces as ``(index, walk, degree)`` in face order,
    the keys of the faces of degree >= 4, and the face key of every dart,
    with the registry's integer darts decoded to ``(u, v)`` pairs.  The
    single vertex's face has no dart, so the registry holds none.
    """
    def pair(dart):
        return divmod(dart, reg.n)

    walks = trace_faces(graph_from_rotations(reg.rotations), reg.rotations).faces
    faces = [(i, walk) for i, walk in enumerate(walks) if walk]
    held = (
        [(i, tuple(map(pair, reg.walks[key])), len(reg.walks[key]))
         for i, key in enumerate(reg.keys)],
        list(map(pair, reg.big_keys)),
        {pair(arc): pair(key) for arc, key in reg.face_of.items()},
    )
    traced = (
        [(i, walk, len(walk)) for i, walk in faces],
        [walk[0] for _, walk in faces if len(walk) >= 4],
        {arc: walk[0] for _, walk in faces for arc in walk},
    )
    return held, traced


def shuffled_cover(graph, lists, seed, perfect=False):
    """A seeded random cover from one ``rng.shuffle`` call per edge: the
    list of ``u`` in order against a shuffle of the list of ``v``, each
    pair then kept with probability 1/2 unless ``perfect``."""
    if perfect:
        for u, v in graph.edges:
            if len(lists[u]) != len(lists[v]):
                raise UnequalListsError(
                    f"edge {(u, v)}: list sizes {len(lists[u])} != {len(lists[v])}"
                )
    rng = random.Random(seed)
    matchings = []
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


def meets(cover, u, cu, v, cv):
    """Whether ``cu`` at ``u`` and ``cv`` at ``v`` are matched on edge {u, v}."""
    return cover.partners[u][v].get(cu) == cv


def extension_colors(cover, kind, vs, lists):
    """The extension rule for the configuration on ``vs``, in its order,
    from the nonempty residual lists of ``vs``, center first; conflicts
    between the center and a leaf are read from ``cover``.

    * low-vertex: the first surviving color.
    * adjacent-threes: the first surviving color for each endpoint.
    * four-three-threes: the leaves take their first surviving colors,
      then the center the first in conflict with at most one leaf.
    """
    if kind is not ConfigKind.FOUR_THREE_THREES:
        return tuple(colors[0] for colors in lists)
    leaf_choice = (lists[1][0], lists[2][0], lists[3][0])
    for c in lists[0]:
        hits = sum(
            1 for leaf, cl in zip(vs[1:], leaf_choice) if meets(cover, vs[0], c, leaf, cl)
        )
        if hits <= 1:
            return (c,) + leaf_choice
    raise AssertionError("no center color conflicts with at most one leaf")


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


def check_propositions(pg):
    """Verify the structural facts used by the discharging analysis.

    Requires a graph without 4- or 6-cycles.  Three families of checks:

    * ``3face-edge-sharing``: a 3-face that shares exactly one edge with
      another face only does so with faces of degree >= 7.  The faces
      sharing an edge with a 3-face are counted across its edges: a
      triangle's edge is never a bridge, so the face on the other side of
      the arc ``(u, v)`` is the one holding ``(v, u)``.
    * ``pendant-edge-faces``: for a pendant 3-face of ``v`` with degree-3
      vertex ``u``, both faces bordering edge ``uv`` have degree >= 7.
    * ``3face-count``: each vertex lies on at most floor(deg/2) distinct
      3-faces.
    """
    require_no_forbidden_cycles(pg.graph)
    entries: list[PropositionCheck] = []
    face_of = face_of_dart_scan(pg)
    face_deg = [len(walk) for walk in pg.faces]
    deg = [len(ring) for ring in pg.graph.adjacency]
    for f, walk in enumerate(pg.faces):
        if len(walk) != 3:
            continue
        across = Counter(face_of[v, u] for u, v in walk)
        for g in (i for i in sorted(across) if across[i] == 1):
            entries.append(
                PropositionCheck(
                    check="3face-edge-sharing",
                    subject=f"face {f} vs face {g}",
                    passed=face_deg[g] >= 7,
                    detail=f"sharing face has degree {face_deg[g]}",
                )
            )
    for v in range(pg.graph.n):
        for f in pendant_3faces_scan(pg, v):
            low = next(u for u, _ in pg.faces[f] if deg[u] == 3)
            d1, d2 = face_deg[face_of[low, v]], face_deg[face_of[v, low]]
            entries.append(
                PropositionCheck(
                    check="pendant-edge-faces",
                    subject=f"vertex {v}, pendant face {f}, edge ({low},{v})",
                    passed=d1 >= 7 and d2 >= 7,
                    detail=f"edge faces have degrees {d1}, {d2}",
                )
            )
    for v, ring in enumerate(pg.rotation):
        corners = [face_of[v, w] for w in ring]
        on_triangles = {i for i in corners if face_deg[i] == 3}
        bound = deg[v] // 2
        entries.append(
            PropositionCheck(
                check="3face-count",
                subject=f"vertex {v}",
                passed=len(on_triangles) <= bound,
                detail=f"{len(on_triangles)} 3-faces, bound {bound}",
            )
        )
    return PropositionReport(entries=tuple(entries))
