import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor.catalog import load as load_catalog, no46_names
from dpcolor.discharging import (
    AuditEntry,
    Transfer,
    apply_rules,
    audit_cases,
    charge_str,
    initial_charges,
)
from dpcolor.embedding import PlaneGraph, plane_from_rotations
from dpcolor.errors import ForbiddenCyclePresentError, NonPlanarEmbeddingError
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import has_forbidden_cycles
from dpcolor.reduction import ConfigKind, TraceStep

from oracles import audit_case_scan, final_charges_scan, transfers_scan
from test_plane_golden import fan, triangle_chain


RECORDS = {
    "transfer": (Transfer, dict(rule="R4", source=("face", 2), target=("vertex", 5),
                                sixths=4, multiplicity=2)),
    "entry": (AuditEntry, dict(element=("vertex", 3), case="3-vertex", pattern="(3,7,7)",
                               reason="", initial=-18, incoming=4, outgoing=8, final=-22)),
    "step": (TraceStep, dict(kind=ConfigKind.ADJACENT_THREES, vertices=(4, 1),
                             residual_sizes=(2, 1), colors=(1, 3))),
}


@pytest.mark.parametrize("record, fields", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable_values(record, fields):
    # the records are named tuples: built by keyword or by position, equal
    # and hashed by value (a plain tuple of the same fields included), and
    # read-only
    by_keyword = record(**fields)
    by_position = record(*fields.values())
    assert by_keyword == by_position == tuple(fields.values())
    assert hash(by_keyword) == hash(by_position)
    assert len({by_keyword, by_position}) == 1
    assert all(getattr(by_keyword, name) == value for name, value in fields.items())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)


def test_a_transfer_is_paid_at_one_corner_unless_told_otherwise():
    assert Transfer("R3", ("vertex", 0), ("face", 1), 2).multiplicity == 1


@pytest.mark.parametrize("reason, final, verdict", [
    ("", 0, "pass"), ("", 5, "pass"), ("", -1, "fail"),
    ("degree below 3", 5, "out-of-analysis"), ("degree below 3", -1, "out-of-analysis"),
])
def test_audit_entry_verdict(reason, final, verdict):
    fields = dict(RECORDS["entry"][1], reason=reason, final=final)
    assert AuditEntry(**fields).verdict == verdict


def test_initial_charges_on_k4():
    ledger = initial_charges(load_catalog("k4"))
    assert ledger.vertex_initial == (0, 0, 0, 0)
    assert ledger.face_initial == (-18, -18, -18, -18)
    assert ledger.initial_total == -72  # -12 in sixths


def test_initial_charges_refuse_faces_that_break_the_euler_identity():
    pg = load_catalog("k3")
    one_face = PlaneGraph(graph=pg.graph, rotation=pg.rotation, faces=pg.faces[:1])
    message = "^initial charges total -9, not -12: the faces violate the Euler identity$"
    with pytest.raises(NonPlanarEmbeddingError, match=message):
        initial_charges(one_face)


def test_initial_charges_on_k2():
    ledger = initial_charges(load_catalog("k2"))
    assert ledger.vertex_initial == (-24, -24)
    assert ledger.face_initial == (-24,)
    assert ledger.initial_total == -72


def test_initial_charges_on_cube():
    ledger = initial_charges(load_catalog("cube"))
    assert ledger.vertex_initial == (0,) * 8
    assert ledger.face_initial == (-12,) * 6
    assert ledger.initial_total == -72


def test_charge_pretty_printing():
    assert charge_str(-72) == "-12"
    assert charge_str(2) == "1/3"
    assert charge_str(4) == "2/3"
    assert charge_str(6) == "1"
    assert [charge_str(s) for s in range(-600, 601)] == [str(Fraction(s, 6)) for s in range(-600, 601)]


def test_rules_refuse_forbidden_cycles():
    with pytest.raises(ForbiddenCyclePresentError):
        apply_rules(load_catalog("c4"))


def test_tree_ledger_has_no_transfers():
    # path: every vertex has degree <= 2, the one face has no 3-vertices
    ledger = apply_rules(load_catalog("path4"))
    assert ledger.transfers == ()
    assert sum(final_charges_scan(ledger).values()) == -72


def test_spider_ledger_feeds_center_from_big_face():
    # the center has degree 3 and sits on the single 12-walk face 3 times
    ledger = apply_rules(load_catalog("spider"))
    assert [t.rule for t in ledger.transfers] == ["R4"]
    transfer = ledger.transfers[0]
    assert transfer.target == ("vertex", 0)
    assert transfer.sixths == 6 and transfer.multiplicity == 3


def test_bowtie_ledger_by_hand():
    # center (degree 4) pays 1 to each of its two triangles; nothing else moves
    ledger = apply_rules(load_catalog("bowtie"))
    assert all(t.rule == "R1" for t in ledger.transfers)
    assert [t.sixths for t in ledger.transfers] == [6, 6]
    finals = final_charges_scan(ledger)
    assert finals[("vertex", 2)] == 0
    assert sum(finals.values()) == -72


def test_audit_on_trees_is_fully_out_of_analysis():
    for name in ("path4", "star5", "spider"):
        pg = load_catalog(name)
        report = audit_cases(pg, apply_rules(pg))
        assert all(e.verdict == "out-of-analysis" for e in report.entries)
        assert report.final_total == -72


def test_audit_case_values_on_aug_triangle():
    """The instance is built so its triangle region meets every hypothesis."""
    pg = load_catalog("aug_triangle_full")
    report = audit_cases(pg, apply_rules(pg))
    assert not report.failures()
    by_element = {e.element: e for e in report.entries}
    # degree-3 corner: pays 2/3 to its triangle, receives 1/3 twice
    v0 = by_element[("vertex", 0)]
    assert v0.verdict == "pass" and v0.final == 0
    assert v0.outgoing == 4 and v0.incoming == 4
    # its degree-4 neighbors carry pendant leaves, so they sit outside the analysis
    assert by_element[("vertex", 1)].verdict == "out-of-analysis"
    # the (3,4,4)-triangle: -3 + 2*1 + 2/3 + 1/3 = 0 exactly
    triangle = next(
        e for e in report.entries if e.element[0] == "face" and e.case == "3-face"
    )
    assert triangle.verdict == "pass"
    assert triangle.initial == -18 and triangle.incoming == 18
    assert triangle.final == 0


def test_audit_unpaid_pendant_triangle_on_star_aug_triangle():
    # the (3,4,4)-triangle's degree-3 corner 0 hangs leaf 3 off the face:
    # the face's payer is a 1-vertex, so R3 pays nothing and the face is out
    pg = load_catalog("star_aug_triangle")
    ledger = apply_rules(pg)
    face = audit_cases(pg, ledger).entries[pg.graph.n]
    assert face.element == ("face", 0) and face.pattern == "(3,4,4)"
    assert face.verdict == "out-of-analysis"
    assert face.reason == "off-face neighbor of 0 is not a 4+-vertex"
    assert not [t for t in ledger.transfers if t.rule == "R3"]


def test_audit_all_four_plus_triangle():
    # triangle whose three corners all have degree 4: -3 + 3*1 = 0
    rot = [
        [2, 1, 3, 4], [0, 2, 5, 6], [1, 0, 7, 8],
        [0], [0], [1], [1], [2], [2],
    ]
    pg = plane_from_rotations(rot)
    report = audit_cases(pg, apply_rules(pg))
    triangle = next(e for e in report.entries if e.case == "3-face")
    assert triangle.pattern == "(4,4,4)"
    assert triangle.verdict == "pass" and triangle.final == 0
    assert triangle.incoming == 18  # three R1 payments


def _octagon_with_alternating_threes():
    """8-cycle; even corners get one pendant (degree 3), odd corners two."""
    rot = []
    extra = 8
    pendants = []
    for v in range(8):
        ring = [(v - 1) % 8, (v + 1) % 8]
        count = 1 if v % 2 == 0 else 2
        for _ in range(count):
            ring.append(extra)
            pendants.append((v, extra))
            extra += 1
        rot.append(ring)
    for v, _ in pendants:
        rot.append([v])
    return plane_from_rotations(rot)


def test_audit_octagon_face_with_four_threes():
    # an 8-face with four nonadjacent degree-3 corners: 2 - 4 * 1/3 > 0
    pg = _octagon_with_alternating_threes()
    report = audit_cases(pg, apply_rules(pg))
    assert not report.failures()
    octagon = next(
        e
        for e in report.entries
        if e.element[0] == "face" and e.case == "5+-face" and not e.reason
    )
    assert octagon.initial == 12 and octagon.outgoing == 8
    assert octagon.final == 4  # 2/3 left over
    assert charge_str(octagon.final) == "2/3"


def _dodecahedron_with_a_leaf_at_every_vertex():
    """Each vertex gets a pendant leaf, inserted before the first neighbor
    ``w`` whose dart ``(v, w)`` is not on face 0; the leaves add no cycle."""
    pg = load_catalog("dodecahedron")
    on_face_0 = set(pg.faces[0])
    n = pg.graph.n
    rot = []
    for v, ring in enumerate(pg.rotation):
        i = next(i for i, w in enumerate(ring) if (v, w) not in on_face_0)
        rot.append([*ring[:i], n + v, *ring[i:]])
    rot += [[v] for v in range(n)]
    return plane_from_rotations(rot)


def test_audit_pentagons_paid_by_r2():
    # a 5-face with five 4-corners: -1 + 5 * 1/3 = 2/3
    pg = _dodecahedron_with_a_leaf_at_every_vertex()
    assert not has_forbidden_cycles(pg.graph)
    ledger = apply_rules(pg)
    pentagons = [
        e for e in audit_cases(pg, ledger).entries
        if e.element[0] == "face" and e.pattern == "(4,4,4,4,4)"
    ]
    assert len(pentagons) == 6
    for e in pentagons:
        assert (e.case, e.verdict) == ("5+-face", "pass")
        assert (e.initial, e.incoming, e.outgoing, e.final) == (-6, 10, 0, 4)
        assert [charge_str(c) for c in (e.initial, e.incoming, e.final)] == ["-1", "5/3", "2/3"]
        into, _ = transfers_scan(ledger, e.element)
        assert [t.rule for t in into] == ["R2"] * 5


def test_conservation_across_catalog_and_generated():
    for name in no46_names():
        ledger = apply_rules(load_catalog(name))
        assert sum(final_charges_scan(ledger).values()) == -72, name
    for seed in range(30):
        pg = generate_plane_no46(4 + seed % 14, seed)
        ledger = apply_rules(pg)
        assert sum(final_charges_scan(ledger).values()) == -72


def _audited_planes():
    """The 4-/6-cycle-free catalog, ``generate_plane_no46(n, n)`` for n =
    10..60, and the triangle chains and fans of the golden audits."""
    planes = [load_catalog(name) for name in no46_names()]
    planes += [generate_plane_no46(n, n) for n in range(10, 61)]
    planes += [plane_from_rotations(triangle_chain(t)) for t in (1, 2, 5, 20)]
    planes += [plane_from_rotations(fan(k, pendant=False)) for k in (1, 3, 8)]
    planes += [plane_from_rotations(fan(k, pendant=True)) for k in (1, 2, 5)]
    return planes


def test_audit_entries_tally_each_final_as_the_ledger_does():
    for pg in _audited_planes():
        ledger = apply_rules(pg)
        report = audit_cases(pg, ledger)
        finals = final_charges_scan(ledger)
        for e in report.entries:
            assert e.final == e.initial - e.outgoing + e.incoming
        assert {e.element: e.final for e in report.entries} == finals
        assert report.final_total == sum(finals.values()) == report.initial_total == -72


def test_audit_classification_matches_the_structural_scan():
    # an element is out of the analysis exactly when it has a reason, so a
    # violated requirement with an empty reason would read as inside
    for pg in _audited_planes():
        report = audit_cases(pg, apply_rules(pg))
        classified = {
            e.element: (e.case, e.pattern, e.verdict != "out-of-analysis")
            for e in report.entries
        }
        assert classified == audit_case_scan(pg)


def _named_configuration(pg, element, reason):
    """The configuration of pass 1's kinds that an out-of-analysis reason
    names, as ``(kind, vertices)``, read off the reason and the graph."""
    deg, adjacency = pg.graph.degrees, pg.graph.adjacency
    kind, i = element
    if reason == "degree below 3":
        return ConfigKind.LOW_VERTEX, (i,)
    if m := re.fullmatch(r"neighbor (\d+) has degree below 3", reason):
        return ConfigKind.LOW_VERTEX, (int(m[1]),)
    if m := re.fullmatch(r"adjacent degree-3 vertices (\d+) and (\d+)", reason):
        return ConfigKind.ADJACENT_THREES, (int(m[1]), int(m[2]))
    if m := re.fullmatch(r"(\d+) degree-3 neighbors", reason):
        threes = [u for u in adjacency[i] if deg[u] == 3]
        assert len(threes) == int(m[1])
        adjacent = [(a, b) for a, b in combinations(threes, 2) if b in adjacency[a]]
        if adjacent:
            return ConfigKind.ADJACENT_THREES, adjacent[0]
        return ConfigKind.FOUR_THREE_THREES, (i, *threes[:3])
    corners = pg.face_corners[i] if kind == "face" else ()
    if reason == "corner of degree < 3" or (reason == "no case for this face degree" and corners):
        return ConfigKind.LOW_VERTEX, (next(u for u in corners if deg[u] < 3),)
    if reason == "no case for this face degree":  # the single vertex's empty face
        return ConfigKind.LOW_VERTEX, tuple(range(pg.graph.n))
    if reason == "two degree-3 corners are adjacent":
        return ConfigKind.ADJACENT_THREES, next((a, b) for a, b in pg.faces[i]
                                                if deg[a] == deg[b] == 3)
    if m := re.fullmatch(r"boundary edge \((\d+),(\d+)\) joins two degree-3 vertices", reason):
        edge = (int(m[1]), int(m[2]))
        assert edge in pg.faces[i]
        return ConfigKind.ADJACENT_THREES, edge
    if m := re.fullmatch(r"off-face neighbor of (\d+) is not a 4\+-vertex", reason):
        u = int(m[1])
        (payer,) = [w for w in adjacency[u] if w not in corners]
        if deg[payer] < 3:
            return ConfigKind.LOW_VERTEX, (payer,)
        return ConfigKind.ADJACENT_THREES, (u, payer)
    raise AssertionError(f"no configuration for the reason {reason!r}")


def _is_configuration(graph, kind, vertices):
    """Whether ``vertices`` form a configuration of ``kind`` in the whole
    graph, in pass 1's vertex order (center first)."""
    deg, adjacency = graph.degrees, graph.adjacency
    if kind is ConfigKind.LOW_VERTEX:
        return len(vertices) == 1 and deg[vertices[0]] < 3
    if kind is ConfigKind.ADJACENT_THREES:
        a, b = vertices
        return b in adjacency[a] and deg[a] == deg[b] == 3
    center, *leaves = vertices
    return (deg[center] == 4 and len(set(leaves)) == 3
            and all(u in adjacency[center] and deg[u] == 3 for u in leaves)
            and not any(b in adjacency[a] for a, b in combinations(leaves, 2)))


def _vicinity(pg, element):
    """The vertices at or next to an element: a vertex and its neighbors,
    or a face's corners and their neighbors (every vertex for the single
    vertex's empty face)."""
    kind, i = element
    at = {i} if kind == "vertex" else set(pg.face_corners[i]) or set(range(pg.graph.n))
    return at.union(*(pg.graph.adjacency[u] for u in at))


def test_every_out_of_analysis_element_has_a_configuration_at_or_next_to_it():
    # the proof's step from the configurations to the rules: a graph with
    # none of pass 1's configurations has every element inside the analysis
    planes = [(name, load_catalog(name)) for name in no46_names()]
    planes += [(f"gen({n}, {seed})", generate_plane_no46(n, seed))
               for n in (1, 2, 3, 5, 10, 30, 100, 400) for seed in range(10)]
    reasons = set()  # each reason with its vertex ids and counts as "#"
    for name, pg in planes:
        for e in audit_cases(pg, apply_rules(pg)).entries:
            if e.reason:
                kind, vertices = _named_configuration(pg, e.element, e.reason)
                assert _is_configuration(pg.graph, kind, vertices), (name, e)
                assert _vicinity(pg, e.element).intersection(vertices), (name, e)
                reasons.add(re.sub(r"(?<!below )(?<![-<] )(?<!-)\b\d+\b(?![-+])", "#", e.reason))
    assert reasons == {
        "degree below 3", "neighbor # has degree below 3", "adjacent degree-3 vertices # and #",
        "# degree-3 neighbors", "corner of degree < 3", "two degree-3 corners are adjacent",
        "boundary edge (#,#) joins two degree-3 vertices", "off-face neighbor of # is not a 4+-vertex",
        "no case for this face degree",
    }


def test_every_transfer_is_a_multiple_of_one_sixth_units():
    # rule amounts: R1 = 6 sixths, R2/R3/R4 = 2, R5 = 4 (times multiplicity)
    for name in ("bowtie", "friendship3", "aug_triangle_full", "gen15", "gen20"):
        ledger = apply_rules(load_catalog(name))
        for t in ledger.transfers:
            assert t.sixths % t.multiplicity == 0
            assert t.sixths // t.multiplicity in (2, 4, 6)


def test_no_instance_is_fully_compliant():
    """The auditor's contradiction guard never fires on real inputs.

    A connected plane graph without 4-/6-cycles always violates one of the
    structural requirements somewhere (otherwise its final charges would
    be nonnegative yet total -12), so ``audit_cases`` raises no
    ``TheoremViolationError`` on it.  The dodecahedron gets closest:
    minimum degree 3 everywhere, but its degree-3 vertices are adjacent.
    """
    planes = [load_catalog(name) for name in no46_names()]
    planes += [generate_plane_no46(3 + seed % 16, seed) for seed in range(50)]
    for pg in planes:
        report = audit_cases(pg, apply_rules(pg))
        assert any(e.reason for e in report.entries if e.element[0] == "vertex")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=18), st.integers(min_value=0, max_value=10**6))
def test_generated_audits_have_no_failures(n, seed):
    pg = generate_plane_no46(n, seed)
    report = audit_cases(pg, apply_rules(pg))
    assert report.final_total == -72
    assert not report.failures()


def _check_transfer_index_against_scan(pg):
    ledger = apply_rules(pg)
    elements = [("vertex", v) for v in range(pg.graph.n)]
    elements += [("face", i) for i in range(len(pg.faces))]
    for element in elements:
        into, out = transfers_scan(ledger, element)
        assert ledger.incoming(element) == sum(t.sixths for t in into)
        assert ledger.outgoing(element) == sum(t.sixths for t in out)


def test_transfer_index_matches_the_log_scan_on_the_catalog():
    for name in no46_names():
        _check_transfer_index_against_scan(load_catalog(name))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_transfer_index_matches_the_log_scan_on_generated_planes(n, seed):
    _check_transfer_index_against_scan(generate_plane_no46(n, seed))
