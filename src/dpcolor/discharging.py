"""Exact discharging ledger for plane graphs without 4- or 6-cycles.

Charges live in integer sixths: a vertex starts at ``2*deg - 6`` (12*deg -
36 sixths) and a face at ``deg - 6``; by Euler's formula the grand total
is exactly -12.  The local rules that move charge around are the rows of
``RULES``, in log order.  Incidence counts multiplicity along face walks:
a cut vertex met twice by a walk pays or receives twice, and the transfer
carries that ``multiplicity``.  The audit then classifies vertices and
faces by degree and checks that every element ends with final charge >= 0
where the hypotheses hold: none of the three configurations of
``reduction.CONFIGS`` (a vertex of degree below 3, adjacent degree-3
vertices, a 4-vertex with three degree-3 neighbors) at or next to it.  A
vertex's adjacent-threes and 4-vertex clauses read
``reduction.configuration_at``, the predicate pass 1 reads.  Elements
where a hypothesis fails are reported as out of the analysis instead of
failed, with a reason that names the configuration.

``Transfer`` and ``AuditEntry`` are named tuples: an audit builds one per
transfer and per element, a tuple is the cheapest read-only record to
build, and the cyclic collector stops tracking a tuple of atoms, or of
such tuples, once it has scanned it.  They compare equal to plain tuples
of the same fields.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .embedding import PlaneGraph
from .errors import NonPlanarEmbeddingError, TheoremViolationError
from .graphs import require_no_forbidden_cycles
from .reduction import ConfigKind, configuration_at

Element = tuple[str, int]  # ("vertex", i) or ("face", i)

TOTAL_SIXTHS = -72  # the -12 grand total, in sixths


def charge_str(sixths: int) -> str:
    """Human form of a charge stored in sixths, e.g. -72 -> ``-12``, -5 ->
    ``-5/6``: the reduced fraction, as ``str(Fraction(sixths, 6))`` writes it."""
    whole, rest = divmod(sixths, 6)
    if not rest:
        return str(whole)
    common = math.gcd(rest, 6)
    return f"{sixths // common}/{6 // common}"


class Transfer(NamedTuple):
    """One rule's payment of ``sixths`` from ``source`` to ``target``; a
    payer met at ``multiplicity`` corners pays once per corner."""

    rule: str
    source: Element
    target: Element
    sixths: int
    multiplicity: int = 1


@dataclass(frozen=True)
class ChargeLedger:
    """Initial charges plus an ordered transfer log.

    Finals are always derived (initial - outgoing + incoming): each
    transfer leaves its source and reaches its target with the same
    ``sixths``, so ``sum(final) == sum(initial)`` holds by construction.
    Every element's received and sent totals are derived from the log
    once, on first use (``totals``, which the case audit reads).
    """

    vertex_initial: tuple[int, ...]
    face_initial: tuple[int, ...]
    transfers: tuple[Transfer, ...]

    @property
    def initial_total(self) -> int:
        return sum(self.vertex_initial) + sum(self.face_initial)

    @cached_property
    def totals(self) -> tuple[dict[Element, int], dict[Element, int]]:
        """(sixths received, sixths sent) by element, from one pass over the
        log; an element with no transfer that way is absent."""
        into: defaultdict[Element, int] = defaultdict(int)
        out: defaultdict[Element, int] = defaultdict(int)
        for t in self.transfers:
            into[t.target] += t.sixths
            out[t.source] += t.sixths
        return dict(into), dict(out)

    def incoming(self, element: Element) -> int:
        return self.totals[0].get(element, 0)

    def outgoing(self, element: Element) -> int:
        return self.totals[1].get(element, 0)


def initial_charges(pg: PlaneGraph) -> ChargeLedger:
    """Starting charges: 2*deg - 6 per vertex, deg - 6 per face."""
    vertex_initial = tuple(12 * d - 36 for d in pg.graph.degrees)
    face_initial = tuple(6 * d - 36 for d in pg.face_degrees)
    ledger = ChargeLedger(vertex_initial, face_initial, ())
    if ledger.initial_total != TOTAL_SIXTHS:
        raise NonPlanarEmbeddingError(
            f"initial charges total {charge_str(ledger.initial_total)}, not "
            f"{charge_str(TOTAL_SIXTHS)}: the faces violate the Euler identity"
        )
    return ledger


def _times_met(indices: list[int]) -> list[tuple[int, int]]:
    """(index, times it occurs) pairs in index order.

    An index repeats only where a face walk passes a cut vertex twice, so
    ``Counter``, which costs more than a set on these short lists, runs
    only then.
    """
    if len(set(indices)) == len(indices):
        return [(i, 1) for i in sorted(indices)]
    return sorted(Counter(indices).items())


# The transfer rules in log order: (rule, payer kind, payer degrees, paid
# class, sixths per corner).  The paid class is the degree of the incident
# elements paid, or "pendant" for a payer's pendant 3-faces.
RULES = (
    ("R1", "vertex", range(4, sys.maxsize), 3, 6),
    ("R2", "vertex", range(4, sys.maxsize), 5, 2),
    ("R3", "vertex", range(4, sys.maxsize), "pendant", 2),
    ("R4", "face", range(7, sys.maxsize), 3, 2),
    ("R5", "vertex", range(3, 4), 3, 4),
)


def apply_rules(pg: PlaneGraph) -> ChargeLedger:
    """Initial charges with every rule of ``RULES`` applied, by row, then
    payer, then paid element: a vertex pays its incident faces, a face its
    incident vertices, once per corner."""
    require_no_forbidden_cycles(pg.graph)
    deg = pg.graph.degrees
    face_deg = pg.face_degrees
    base = initial_charges(pg)
    sides = {"vertex": (deg, pg.corner_faces, "face", face_deg),
             "face": (face_deg, pg.faces, "vertex", deg)}
    pendant: list[tuple[int, ...]] = [()] * len(deg)
    for fi, (v, _) in pg.pendant_triangles.items():
        pendant[v] += (fi,)
    transfers: list[Transfer] = []
    for rule, kind, payer_degrees, paid, unit in RULES:
        degrees, incident, paid_kind, paid_degrees = sides[kind]
        if paid == "pendant":  # a payer's pendant 3-faces, not its corner faces
            incident, paid = pendant, 3
        for p in [p for p, d in enumerate(degrees) if d in payer_degrees]:
            if met := [q for q in incident[p] if paid_degrees[q] == paid]:
                for q, mult in _times_met(met):
                    transfers.append(Transfer(rule, (kind, p), (paid_kind, q), unit * mult, mult))
    return ChargeLedger(base.vertex_initial, base.face_initial, tuple(transfers))


# --- case audit -------------------------------------------------------------


class AuditEntry(NamedTuple):
    """One element's case, pattern and charges in sixths."""

    element: Element
    case: str
    pattern: str
    reason: str  # why the element is out of the analysis; "" when it is inside
    initial: int
    incoming: int
    outgoing: int
    final: int

    @property
    def verdict(self) -> str:
        if self.reason:
            return "out-of-analysis"
        return "pass" if self.final >= 0 else "fail"


@dataclass(frozen=True)
class AuditReport:
    """One entry per element; the totals are derived from the entries."""

    entries: tuple[AuditEntry, ...]

    @property
    def initial_total(self) -> int:
        return sum(e.initial for e in self.entries)

    @property
    def final_total(self) -> int:
        return sum(e.final for e in self.entries)

    def failures(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.verdict == "fail")


def _vertex_entry(pg: PlaneGraph, v: int, face_deg_strs: list[str]) -> tuple[str, str, str]:
    """(case, pattern, reason) for a vertex; the reason is empty exactly
    when the vertex is inside the analysis.

    A vertex is inside the analysis when its closed neighborhood satisfies
    the structural requirements: every vertex there has degree >= 3 (this
    also forces faces flanking an incident 3-face to share exactly one
    edge with it, hence to be large), and the vertex starts neither adjacent
    threes nor a four-three-threes (``reduction.configuration_at``).
    """
    degrees = pg.graph.degrees
    deg = degrees[v]
    pattern = "(" + ",".join([face_deg_strs[i] for i in pg.corner_faces[v]]) + ")"
    case = "3-vertex" if deg == 3 else "4-vertex" if deg == 4 else "5+-vertex"
    if deg <= 2:
        return (f"{deg}-vertex", pattern, "degree below 3")
    neighbors = pg.graph.adjacency[v]
    small = [u for u in neighbors if degrees[u] < 3]
    if small:
        return (case, pattern, f"neighbor {small[0]} has degree below 3")
    found = configuration_at(pg.graph.adjacency, degrees, v)
    if found is None:
        return (case, pattern, "")
    kind, vs = found
    if kind is ConfigKind.ADJACENT_THREES:
        return (case, pattern, f"adjacent degree-3 vertices {v} and {vs[1]}")
    threes = sum(degrees[u] == 3 for u in neighbors)
    return (case, pattern, f"{threes} degree-3 neighbors")


def _face_entry(pg: PlaneGraph, fi: int) -> tuple[str, str, str]:
    """(case, pattern, reason) for a face; the reason is empty exactly when
    the face is inside the analysis.

    A 3-face or a 5+-face is in when every corner has degree >= 3 and no
    boundary edge joins two degree-3 vertices; a 3-face walk is a
    triangle, so its degree-3 corners are then at most one, and such a
    (3,4+,4+)-face is in only when the degree-3 corner's neighbor off the
    face has degree >= 4 (that neighbor is the pendant payer).  On a
    5+-face the edge clause caps the degree-3 corners at half its degree.
    Other face degrees have no case: a 2-face needs degree-1 endpoints,
    absent 4-cycles a 4-face needs a degree-1 backtrack, and the one face
    of the single-vertex graph has no corner.
    """
    deg = pg.graph.degrees
    corners = pg.faces[fi]
    degs = [deg[u] for u in corners]
    pattern = "(" + ",".join(map(str, degs)) + ")"
    if len(degs) != 3 and len(degs) < 5:
        return (f"{len(degs)}-face", pattern, "no case for this face degree")
    case = "3-face" if len(degs) == 3 else "5+-face"
    if min(degs) < 3:
        return (case, pattern, "corner of degree < 3")
    for a, b in zip(corners, corners[1:] + corners[:1]):
        if deg[a] == 3 and deg[b] == 3:
            return (case, pattern, "two degree-3 corners are adjacent" if case == "3-face"
                    else f"boundary edge ({a},{b}) joins two degree-3 vertices")
    if fi in pg.pendant_triangles:
        payer, u = pg.pendant_triangles[fi]
        if deg[payer] < 4:
            return (case, pattern, f"off-face neighbor of {u} is not a 4+-vertex")
    return (case, pattern, "")


def audit_cases(pg: PlaneGraph, ledger: ChargeLedger) -> AuditReport:
    """Classify every element and check finals inside the analysis.

    Raises ``TheoremViolationError`` when every vertex is inside the
    analysis, i.e. the graph satisfies all structural requirements
    everywhere: no such plane graph without 4-/6-cycles can exist (its
    final charges would all be nonnegative yet sum to -12), so meeting one
    means a bug upstream or an invalid embedding.
    """
    require_no_forbidden_cycles(pg.graph)
    face_deg_strs = list(map(str, pg.face_degrees))  # each vertex pattern joins these
    vertex_cases = [(("vertex", v), _vertex_entry(pg, v, face_deg_strs))
                    for v in range(pg.graph.n)]
    if vertex_cases and not any(reason for _, (_, _, reason) in vertex_cases):
        raise TheoremViolationError(
            "graph satisfies every structural requirement; this contradicts "
            "the -12 total",
            graph=pg.graph,
        )
    face_cases = [(("face", fi), _face_entry(pg, fi)) for fi in range(len(pg.faces))]
    into, out = ledger.totals
    entries = []
    cases = vertex_cases + face_cases
    initials = ledger.vertex_initial + ledger.face_initial
    for (element, (case, pattern, reason)), initial in zip(cases, initials):
        incoming = into.get(element, 0)
        outgoing = out.get(element, 0)
        final = initial - outgoing + incoming
        entries.append(AuditEntry(element, case, pattern, reason,
                                  initial, incoming, outgoing, final))
    return AuditReport(tuple(entries))
