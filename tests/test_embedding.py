import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor.catalog import entry_names, load as load_catalog, no46_names
from dpcolor.embedding import graph_from_rotations, plane_from_rotations, trace_faces
from dpcolor.errors import (
    DisconnectedError,
    DpColorError,
    ForbiddenCyclePresentError,
    IndexOutOfRangeError,
    InvalidRotationError,
    LoopEdgeError,
    NonPlanarEmbeddingError,
)
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph

from oracles import (
    check_propositions,
    edge_sharing_scan,
    faces_at_vertex_scan,
    pendant_3faces_scan,
    rotation_graph_scan,
)
from strategies import graphs
from test_plane_golden import fan, triangle_chain

K4_ROT = [[1, 3, 2], [0, 2, 3], [1, 0, 3], [2, 0, 1]]

# The triangle 0-1-2 with vertex 3 pendant on 2, [[1, 2], [2, 0], [0, 1, 3], [2]],
# with one fault each, and the error class and message the loader gives
BAD_ROTATIONS = {
    "loop": ([[1, 2], [2, 0, 1], [0, 1, 3], [2]], LoopEdgeError, "loop at vertex 1"),
    "minus-one": ([[1, 2, -1], [2, 0], [0, 1, 3], [2]], IndexOutOfRangeError,
                  "vertex -1 not in 0..3"),
    "n": ([[1, 2], [2, 0], [0, 1, 3], [2, 4]], IndexOutOfRangeError, "vertex 4 not in 0..3"),
    "repeated": ([[1, 2], [2, 0], [0, 1, 3, 1], [2]], InvalidRotationError,
                 "rotation at 2 is not a permutation of its neighbors"),
    "repeated-both-ways": ([[1, 2], [2, 0, 2], [0, 1, 3, 1], [2]], InvalidRotationError,
                           "rotation at 1 is not a permutation of its neighbors"),
    "one-sided": ([[1, 2, 3], [2, 0], [0, 1, 3], [2]], InvalidRotationError,
                  "rotation at 3 is not a permutation of its neighbors"),
    "not-a-permutation": ([[1, 2], [2, 0], [0, 1, 3], [1]], InvalidRotationError,
                          "rotation at 1 is not a permutation of its neighbors"),
}


def payer_pendants(pg, v):
    """The pendant 3-faces of ``v`` from the plane graph's pendant map."""
    return tuple(f for f, (payer, _) in pg.pendant_triangles.items() if payer == v)


def k4_plane():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return trace_faces(g, K4_ROT)


def test_k4_faces():
    pg = k4_plane()
    assert sorted(pg.face_degrees) == [3, 3, 3, 3]


def test_k2_single_face_of_degree_2():
    pg = trace_faces(build_graph(2, [(0, 1)]), [[1], [0]])
    assert pg.face_degrees == (2,)


def test_cube_faces():
    pg = load_catalog("cube")
    assert sorted(pg.face_degrees) == [4] * 6
    assert pg.graph.n - pg.graph.m + len(pg.faces) == 2


def test_invalid_rotation_rejected():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidRotationError):
        trace_faces(g, [[1, 2], [0, 0], [0, 1]])
    with pytest.raises(InvalidRotationError):
        trace_faces(g, [[1], [0, 2], [1, 0]])


def test_ring_count_other_than_n_rejected():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(InvalidRotationError, match="^1 rotations for 2 vertices$"):
        trace_faces(g, [[1]])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        trace_faces(build_graph(2, []), [[], []])


def test_nonplanar_rotation_rejected():
    # K5 admits no sphere embedding, so every rotation fails the Euler check
    k5 = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    rot = [[w for w in range(5) if w != v] for v in range(5)]
    with pytest.raises(NonPlanarEmbeddingError):
        trace_faces(k5, rot)


def test_no_pendant_faces_when_neighbors_are_big():
    pg = load_catalog("cube")  # no 3-faces at all
    for v in range(8):
        assert payer_pendants(pg, v) == ()


def test_bowtie_center_has_no_pendant_face():
    pg = load_catalog("bowtie")
    assert payer_pendants(pg, 2) == ()


def test_star_aug_triangle_pendant_face():
    # triangle (0,1,2) with degrees (3,4,4); vertex 3 hangs off corner 0
    pg = load_catalog("star_aug_triangle")
    found = payer_pendants(pg, 3)
    assert len(found) == 1 and pg.face_degrees[found[0]] == 3
    assert sorted(pg.face_corners[found[0]]) == [0, 1, 2]
    # the other leaves are adjacent only to 4+-vertices
    for leaf in (4, 5, 6, 7):
        assert payer_pendants(pg, leaf) == ()


def test_propositions_on_bowtie():
    pg = load_catalog("bowtie")
    report = check_propositions(pg)
    assert report.all_pass
    center_count = [
        e for e in report.entries if e.check == "3face-count" and e.subject == "vertex 2"
    ]
    assert center_count[0].detail == "2 3-faces, bound 2"


def test_propositions_vacuous_on_trees():
    for name in ("path4", "star5", "spider"):
        report = check_propositions(load_catalog(name))
        assert report.all_pass
        assert all(e.check == "3face-count" for e in report.entries)


def test_propositions_reject_c4():
    with pytest.raises(ForbiddenCyclePresentError):
        check_propositions(load_catalog("c4"))


def test_triangle_tail7_exercises_edge_sharing():
    report = check_propositions(load_catalog("triangle_tail7"))
    assert report.all_pass
    sharing = [e for e in report.entries if e.check == "3face-edge-sharing"]
    assert sharing, "the triangle shares exactly one edge with the 7-face"


def test_bare_triangle_breaks_the_3face_count_bound():
    # Both faces of a bare triangle are 3-faces, so each degree-2 vertex
    # lies on two of them while floor(2/2) = 1.  The bound genuinely needs
    # more structure around the triangle; the checker reports this honestly.
    report = check_propositions(load_catalog("k3"))
    assert not report.all_pass
    assert {e.check for e in report.failures()} == {"3face-count"}


def _catalog_no46_plane_graphs():
    return [load_catalog(name) for name in no46_names()]


def test_face_degree_sum_is_twice_edges():
    for pg in _catalog_no46_plane_graphs() + [k4_plane(), load_catalog("cube")]:
        assert sum(map(len, pg.faces)) == 2 * pg.graph.m


def test_directed_edges_partition_into_faces():
    for pg in _catalog_no46_plane_graphs():
        arcs = [arc for walk in pg.faces for arc in walk]
        assert len(arcs) == len(set(arcs)) == 2 * pg.graph.m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=18), st.integers(min_value=0, max_value=10**6))
def test_generated_instances_satisfy_euler_and_propositions(n, seed):
    pg = generate_plane_no46(n, seed)
    assert pg.graph.n - pg.graph.m + len(pg.faces) == 2
    assert sum(map(len, pg.faces)) == 2 * pg.graph.m
    if not (pg.graph.n == 3 and pg.graph.m == 3):  # the bare triangle, see above
        assert check_propositions(pg).all_pass


def _check_pendants_against_scan(pg):
    for v in range(pg.graph.n):
        assert payer_pendants(pg, v) == pendant_3faces_scan(pg, v), v


def test_pendant_map_matches_the_face_scan_on_the_catalog():
    for name in entry_names():
        _check_pendants_against_scan(load_catalog(name))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_pendant_map_matches_the_face_scan_on_generated_planes(n, seed):
    _check_pendants_against_scan(generate_plane_no46(n, seed))


def test_corner_faces_match_the_dart_lookup():
    # the cached per-vertex tuple against the per-call lookup it replaced;
    # a cut vertex meets one face at two corners, and both corners are kept
    planes = [load_catalog(name) for name in entry_names()]
    planes += [generate_plane_no46(n, seed) for n in range(1, 61) for seed in range(3)]
    repeats = 0
    for pg in planes:
        for v in range(pg.graph.n):
            corners = pg.corner_faces[v]
            assert corners == faces_at_vertex_scan(pg, v)
            repeats += len(set(corners)) < len(corners)
    assert repeats > 0


def _check_edge_sharing_against_scan(pg):
    got = [
        (e.subject, e.passed)
        for e in check_propositions(pg).entries
        if e.check == "3face-edge-sharing"
    ]
    expected = [
        (f"face {f} vs face {g}", len(pg.faces[g]) >= 7) for f, g in edge_sharing_scan(pg)
    ]
    assert got == expected


def test_edge_sharing_matches_the_all_pairs_scan_on_the_catalog():
    for pg in _catalog_no46_plane_graphs():
        _check_edge_sharing_against_scan(pg)


@pytest.mark.parametrize("blades", [1, 2, 5, 12])
def test_edge_sharing_matches_the_all_pairs_scan_on_fans(blades):
    for pendant in (False, True):
        _check_edge_sharing_against_scan(plane_from_rotations(fan(blades, pendant)))
    _check_edge_sharing_against_scan(plane_from_rotations(triangle_chain(blades)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_edge_sharing_matches_the_all_pairs_scan_on_generated_planes(n, seed):
    _check_edge_sharing_against_scan(generate_plane_no46(n, seed))


@pytest.mark.parametrize("rotations", [[["1"], [0]], [[1.0], [0]], [[True], [0]], [1, [0]]])
def test_rotations_must_be_lists_of_integers(rotations):
    with pytest.raises(InvalidRotationError, match="rotation at 0"):
        plane_from_rotations(rotations)


def test_the_first_bad_ring_is_named():
    # all rings are checked at once; the bad one is then found ring by ring
    rotations = [[1, 2], [2, 0], [0, 1, "3"], [2.0]]
    with pytest.raises(InvalidRotationError) as raised:
        plane_from_rotations(rotations)
    assert str(raised.value) == "rotation at 2 is not a list of integers: [0, 1, '3']"


class _Ring(list):
    pass


class _TupleRing(tuple):
    pass


def test_rings_of_list_and_tuple_subclasses_are_accepted():
    # such rings fail the check of all rings at once, and pass it ring by ring
    pg = plane_from_rotations([_Ring([1, 2]), _TupleRing((2, 0)), (0, 1, 3), [2]])
    plain = plane_from_rotations([[1, 2], [2, 0], [0, 1, 3], [2]])
    assert (pg.graph, pg.faces) == (plain.graph, plain.faces)


@pytest.mark.parametrize("rotations, error, message", BAD_ROTATIONS.values(), ids=BAD_ROTATIONS)
def test_bad_rings_raise_what_the_edge_set_path_raises(rotations, error, message):
    with pytest.raises(error) as raised:
        plane_from_rotations(rotations)
    assert str(raised.value) == message


@st.composite
def _rotations(draw, faults=True):
    """The rings of a random graph, each in a random order; with
    ``faults``, then up to three spoiled by a loop, a vertex out of range,
    a repeated neighbour or a dropped one."""
    graph = draw(graphs(max_n=7, min_n=1))
    rings = [list(draw(st.permutations(row))) for row in graph.adjacency]
    n = graph.n
    for _ in range(draw(st.integers(0, 3)) if faults else 0):
        v = draw(st.integers(0, n - 1))
        ring = rings[v]
        fault = draw(st.sampled_from(["loop", "range", "repeat", "drop"]))
        if fault == "drop":
            if ring:
                ring.pop(draw(st.integers(0, len(ring) - 1)))
            continue
        w = {"loop": v, "range": draw(st.sampled_from([-1, n])),
             "repeat": draw(st.sampled_from(ring or [0]))}[fault]
        ring.insert(draw(st.integers(0, len(ring))), w)
    return graph, rings


@settings(max_examples=200, deadline=None)
@given(_rotations(faults=False))
def test_graph_from_rotations_equals_build_graph_on_valid_rings(drawn):
    graph, rings = drawn
    built = graph_from_rotations(rings)
    assert built.edges == graph.edges and built.adjacency == graph.adjacency


def _outcome(fn, *args):
    """What ``fn`` returns, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except DpColorError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_rotations())
def test_rings_load_as_through_their_edge_set(drawn):
    # the sorted rings are the rows when they are consistent; any fault must
    # give the graph, or the error class and message, that building the
    # graph from the rings' edge set and tracing it gives
    _, rings = drawn
    built = _outcome(graph_from_rotations, rings)
    expected = _outcome(rotation_graph_scan, rings)
    assert built == expected
    if not isinstance(built, tuple):
        assert built.adjacency == expected.adjacency
        assert _outcome(plane_from_rotations, rings) == _outcome(trace_faces, expected, rings)
