import random
import time
from collections import Counter

import pytest

from dpcolor.catalog import entry_names, load, no46_names
from dpcolor import generate, graphs
from dpcolor.embedding import FaceRegistry, graph_from_rotations, plane_from_rotations
from dpcolor.errors import GenerationExhaustedError, InternalInvariantError
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import is_connected

from oracles import registry_vs_trace


def test_every_entry_loads_and_flag_is_verified():
    for name in entry_names():
        pg = load(name)
        assert (not pg.graph.has_forbidden_cycles) == (name in no46_names())
        assert is_connected(pg.graph)
        if pg.graph.n >= 1:
            assert pg.graph.n - pg.graph.m + len(pg.faces) == 2


def test_expected_members_present():
    names = set(entry_names())
    assert {"k2", "k3", "k4", "bowtie", "cube", "dodecahedron"} <= names
    assert {"path4", "star5", "spider"} <= names  # trees


def test_no46_split():
    assert set(no46_names()) == set(entry_names()) - {"k4", "c4", "cube"}


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        load("nonesuch")


def test_dodecahedron_shape():
    pg = load("dodecahedron")
    assert pg.graph.n == 20 and pg.graph.m == 30
    assert sorted(pg.face_degrees) == [5] * 12


def test_generator_determinism():
    assert generate_plane_no46(13, 3).rotation == generate_plane_no46(13, 3).rotation


def test_generator_single_vertex():
    pg = generate_plane_no46(1, 0)
    assert pg.graph.n == 1 and len(pg.faces) == 1


def test_generator_valid_over_seeds():
    for seed in range(25):
        n = 2 + seed % 19
        pg = generate_plane_no46(n, seed)
        assert pg.graph.n == n
        assert is_connected(pg.graph)
        assert not pg.graph.has_forbidden_cycles


def _edit(reg, edit, *args):
    """Apply ``edit``, a ``FaceRegistry`` method, and name the path it
    takes by what it does to the face keys."""
    n, rings = reg.n, reg.rotations
    if edit.__name__ == "remove_edge":
        u, v = args
        keyed = (u * n + v in reg.walks, v * n + u in reg.walks)
        edit(reg, *args)
        return {(False, False): "remove keeps both keys", (True, False): "remove uv key",
                (False, True): "remove vu key", (True, True): "remove both keys"}[keyed]
    x, i, y, j = args
    if not rings[x]:
        edit(reg, *args)
        return "first edge"
    key = reg.face_of[rings[x][i - 1] * n + x]
    size = len(reg.walks[key])
    new = y == len(rings)
    edit(reg, *args)
    if new:
        return "pendant into a 2-/3-face" if size < 4 else "pendant into a 4+-face"
    return "cut keeps key" if key in reg.walks else "cut below key"


def test_face_registry_matches_a_fresh_trace_after_every_edit(monkeypatch):
    # every edge the generator inserts (pendants, both halves of an ear,
    # chords while growing and densifying) and every repair deletion,
    # counted by the registry path each takes
    edits = Counter()

    def checked(name):
        edit = getattr(FaceRegistry, name)

        def call(reg, *args):
            edits[_edit(reg, edit, *args)] += 1
            held, traced = registry_vs_trace(reg)
            assert held == traced, (name, args, reg.rotations)
        return call

    chord = generate._add_chord

    def counted_chord(reg, rng):
        inserted = chord(reg, rng)
        edits["densify chord" if len(reg.rotations) == n else "chord"] += bool(inserted)
        return inserted

    for name in ("insert_edge", "remove_edge"):
        monkeypatch.setattr(FaceRegistry, name, checked(name))
    monkeypatch.setattr(generate, "_add_chord", counted_chord)
    for n in range(1, 61):
        for seed in range(4):
            assert generate_plane_no46(n, seed).graph.n == n
    assert edits["chord"] > 10 and edits["densify chord"] > 10
    assert edits["first edge"] == 59 * 4 and edits["cut below key"] >= 1
    for path in ("pendant into a 2-/3-face", "pendant into a 4+-face", "cut keeps key",
                 "remove keeps both keys", "remove uv key", "remove vu key"):
        assert edits[path] > 100, path


def test_face_registry_takes_each_edit_path_as_a_fresh_trace_does():
    # one hand-built edit per path, among them the cut whose closing dart
    # is below its face's key, which the generator seldom makes
    reg = FaceRegistry(10)
    insert, remove = FaceRegistry.insert_edge, FaceRegistry.remove_edge
    script = [
        (insert, (0, 0, 1, 0), "first edge"),
        (insert, (1, 1, 2, 0), "pendant into a 2-/3-face"),  # 01 10 -> 01 12 21 10
        (insert, (2, 1, 0, 1), "cut keeps key"),  # triangle 0-1-2
        (remove, (1, 2), "remove keeps both keys"),  # 01 12 20 grows to 01 10 02 20
        (insert, (2, 1, 1, 1), "cut keeps key"),  # the triangle again
        (insert, (0, 2, 3, 0), "pendant into a 2-/3-face"),  # into 01 12 20
        (remove, (1, 2), "remove keeps both keys"),  # the star at 0
        (insert, (3, 1, 1, 1), "cut keeps key"),  # 01 13 30 and 02 20 03 31 10
        (remove, (0, 1), "remove uv key"),  # the path 2-0-3-1
        (insert, (0, 1, 1, 1), "cut below key"),  # 02 20 03 31 13 30 -> 01 13 30 02 20
        (remove, (1, 0), "remove vu key"),
        (insert, (2, 1, 4, 0), "pendant into a 4+-face"),
    ]
    for edit, args, path in script:
        assert _edit(reg, edit, *args) == path, (edit.__name__, args)
        held, traced = registry_vs_trace(reg)
        assert held == traced, (edit.__name__, args, reg.rotations)


def test_face_registry_walks_from_the_single_vertex():
    # a dart (u, v) is held as u * n + v; on n = 10 its digits read u, v
    reg = FaceRegistry(10)
    assert reg.keys == [] and reg.walks == {}
    reg.insert_edge(0, 0, 1, 0)
    assert reg.walks == {1: (1, 10)}
    reg.insert_edge(1, 1, 2, 0)
    reg.insert_edge(2, 1, 0, 1)  # triangle 0-1-2: two faces
    assert [reg.walks[key] for key in reg.keys] == [(1, 12, 20), (2, 21, 10)]
    assert reg.big_keys == [] and reg.has_edge(2, 0) and not reg.has_edge(0, 3)
    reg.remove_edge(0, 1)
    assert reg.keys == [2] and reg.big_keys == [2]
    assert reg.walks[2] == (2, 21, 12, 20)


def test_face_registry_refuses_a_vertex_past_its_size():
    # darts u * n + v of a vertex n or more would collide with other darts
    reg = FaceRegistry(3)
    reg.insert_edge(0, 0, 1, 0)
    reg.insert_edge(1, 1, 2, 0)
    with pytest.raises(InternalInvariantError, match="vertex 3 does not fit a registry of 3"):
        reg.insert_edge(2, 1, 3, 0)
    assert reg.rotations == [[1], [0, 2], [1]]
    assert [reg.walks[key] for key in reg.keys] == [(1, 5, 7, 3)]
    with pytest.raises(InternalInvariantError):
        FaceRegistry(1).insert_edge(0, 0, 1, 0)


def test_face_registry_refuses_a_bridge_and_a_cut_across_two_faces():
    # both are checked before the first write, so the registry is unchanged
    def held(reg):
        return ([ring[:] for ring in reg.rotations], dict(reg.walks), reg.keys[:],
                reg.big_keys[:], dict(reg.face_of))

    reg = FaceRegistry(10)
    reg.insert_edge(0, 0, 1, 0)
    reg.insert_edge(1, 1, 2, 0)
    reg.insert_edge(2, 1, 0, 1)  # triangle 0-1-2: faces 01 12 20 and 02 21 10
    reg.insert_edge(0, 2, 3, 0)  # the pendant 0-3 into 01 12 20
    before = held(reg)
    for u, v in ((0, 3), (3, 0)):
        with pytest.raises(InternalInvariantError, match=rf"edge \({u}, {v}\) is a bridge"):
            reg.remove_edge(u, v)
        assert held(reg) == before
    # the corner at 3 is on 01 12 20 03 30; the one after 21 at 1 is on 02 21 10
    with pytest.raises(InternalInvariantError, match=r"edge \(3, 1\) joins corners of two faces"):
        reg.insert_edge(3, 1, 1, 2)
    assert held(reg) == before
    held_faces, traced = registry_vs_trace(reg)
    assert held_faces == traced


def test_generator_scales_to_thousands_of_vertices():
    # each edit splices only the face walks it changes and each repair
    # round searches the paths near the watched edges; re-tracing the whole
    # plane graph per move makes this quadratic
    started = time.perf_counter()
    pg = generate_plane_no46(3200, 3200)
    assert time.perf_counter() - started < 10.0
    assert pg.graph.n == 3200 and not pg.graph.has_forbidden_cycles


@pytest.mark.parametrize("seed", range(6))
def test_pick_corners_shuffles_as_rng_shuffle_does(seed):
    # the corner order must read the bit stream exactly as rng.shuffle
    # does: the same positions, and the same rng state after them
    ours, theirs = random.Random(seed), random.Random(seed)
    for length in range(2, 65):
        positions = list(range(length))
        theirs.shuffle(positions)
        assert generate._shuffled(length, ours) == positions
        assert ours.getstate() == theirs.getstate()


def test_generator_needs_a_vertex():
    with pytest.raises(GenerationExhaustedError, match="need at least one vertex"):
        generate_plane_no46(0, 0)


def test_generator_raises_when_its_final_check_fails(monkeypatch):
    # without repair the ears and chords leave 4- and 6-cycles behind
    monkeypatch.setattr(generate, "_repair", lambda reg, inserted, rng: None)
    with pytest.raises(InternalInvariantError):
        generate_plane_no46(60, 60)


def test_repair_deletes_from_the_whole_graphs_smallest_forbidden_cycle(monkeypatch):
    # the repair watches one edge per ear and searches each watched edge once
    # for 4- and 6-cycles together; the cycle it deletes from must still be
    # the least 4-cycle, else 6-cycle, through any edge of the graph
    picked = []
    deletions = Counter()
    search = generate.smallest_forbidden_cycle
    remove = FaceRegistry.remove_edge
    repair = generate._repair

    def checked_search(rotations, inserted):
        cycle = search(rotations, inserted)
        graph = graph_from_rotations(rotations)
        assert cycle == graphs.smallest_forbidden_cycle(graph.adjacency, graph.edges)
        picked.append(cycle)
        return cycle

    def checked_remove(reg, u, v):
        cycle = picked[-1]
        assert cycle[(cycle.index(u) + 1) % len(cycle)] == v
        deletions[len(cycle)] += 1
        remove(reg, u, v)

    def counted_repair(*args):
        deletions["repairs"] += 1
        return repair(*args)

    monkeypatch.setattr(generate, "smallest_forbidden_cycle", checked_search)
    monkeypatch.setattr(FaceRegistry, "remove_edge", checked_remove)
    monkeypatch.setattr(generate, "_repair", counted_repair)
    for n in range(1, 61):
        for seed in range(5):
            assert generate_plane_no46(n, seed).graph.n == n
    assert deletions[4] > 1000 and deletions[6] > 500 and deletions["repairs"] > 10000


def test_repair_picks_the_smallest_cycle_through_any_inserted_edge():
    # two 4-cycles 0-1-2-3 and 4-5-6-7 and a 6-cycle 4-5-8-9-10-11; listing
    # the edge 45 first must not make its cycles win over the smaller one
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (5, 8), (8, 9), (9, 10), (10, 11), (11, 4)]
    rotations = [[] for _ in range(12)]
    for u, v in edges:
        rotations[u].append(v)
        rotations[v].append(u)
    smallest = graphs.smallest_forbidden_cycle
    assert smallest(rotations, [(4, 5), (1, 0)]) == (0, 1, 2, 3)
    assert smallest(rotations, [(9, 8), (6, 7)]) == (4, 5, 6, 7)
    assert smallest(rotations, [(9, 8)]) == (4, 5, 8, 9, 10, 11)
    assert smallest(rotations, [(2, 0)]) is None  # no such edge


def _join_across_a_face(reg, u, v):
    """Insert the edge uv through the first face with corners at both."""
    for walk in reg.walks.values():
        corners = {walk[pos - 1] % reg.n: pos for pos in range(len(walk))}
        if u in corners and v in corners:
            break
    reg.insert_edge(u, generate._corner(reg, walk, corners[u]),
                    v, generate._corner(reg, walk, corners[v]))


def _theta(paths):
    """A registry holding x = 0 and y = 5 joined by ``paths`` internally
    disjoint paths of length 5; its cycles have length 10."""
    reg = FaceRegistry(2 + 4 * paths)
    for i in range(paths):
        prev = 0
        for _ in range(4 if i else 5):  # the first path ends at y
            reg.insert_edge(prev, 0, len(reg.rotations), 0)
            prev = len(reg.rotations) - 1
        if i:
            _join_across_a_face(reg, prev, 5)
    return reg


@pytest.mark.parametrize("seed", range(8))
def test_repair_ends_on_a_chord_that_closes_many_6_cycles(seed):
    # each round deletes an edge of a 6-cycle through the chord xy: the
    # chord ends them all, a path edge ends one, so at most k + 1 rounds
    k = 7
    reg = _theta(k)
    assert plane_from_rotations(reg.rotations).face_degrees == (10,) * k
    _join_across_a_face(reg, 0, 5)
    graph = graph_from_rotations(reg.rotations)
    assert len(graphs.smallest_forbidden_cycle(reg.rotations, [(0, 5)])) == 6
    generate._repair(reg, [(0, 5)], random.Random(seed))
    assert graphs.smallest_forbidden_cycle(reg.rotations, [(0, 5)]) is None
    pg = plane_from_rotations(reg.rotations)  # still connected and plane
    assert not pg.graph.has_forbidden_cycles
    assert graph.m - pg.graph.m <= k + 1
