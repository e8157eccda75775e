import hashlib
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor import reduction
from dpcolor.catalog import load as load_catalog, no46_names
from dpcolor.covers import (
    Cover,
    random_cover,
    uniform_assignment,
)
from dpcolor.embedding import plane_from_rotations
from dpcolor.errors import (
    ContractViolationError,
    DpColorError,
    ForbiddenCyclePresentError,
    ListTooSmallError,
    TheoremViolationError,
)
from dpcolor.fileio import coloring_to_text, trace_to_text
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph
from dpcolor.reduction import (
    ConfigKind,
    TraceStep,
    _excision_order,
    color_planar_no46,
    configuration_at,
    reduce_and_color,
    verify_config_reducible,
)
from dpcolor.solver import impropriety, max_impropriety

from oracles import (
    brute_force_rep_set,
    diagonal_cover,
    extension_colors,
    induced_subgraph,
    meets,
    partial_matchings_scan,
    reducible_config_scan,
)
from strategies import graphs

FLOORS = {
    ConfigKind.LOW_VERTEX: (1,),
    ConfigKind.ADJACENT_THREES: (1, 1),
    ConfigKind.FOUR_THREE_THREES: (2, 1, 1, 1),
}


def _first_step(cover):
    """The trace step of the first excised vertex, which is colored last."""
    return reduce_and_color(cover).trace[0]


def _first_config(graph):
    """(kind, vertices) of the first step of the excision order."""
    step = _first_step(diagonal_cover(graph, uniform_assignment(graph.n, 3)))
    return step.kind, step.vertices


def excises_every_vertex(graph):
    """Whether the whole excision order exists: the pipeline peels every
    vertex, each once."""
    trace = reduce_and_color(diagonal_cover(graph, uniform_assignment(graph.n, 3))).trace
    return sorted(v for step in trace for v in step.vertices) == list(range(graph.n))


# In each cover below vertex 0 is excised first, so its residual list
# meets the choices of all its neighbors.

def test_residual_removes_matched_colors():
    # both colored neighbors of the middle vertex pin one color each
    g = build_graph(3, [(0, 1), (0, 2)])
    cover = diagonal_cover(g, ((1, 2, 3), (1,), (2,)))
    assert _first_step(cover) == TraceStep(ConfigKind.LOW_VERTEX, (0,), (1,), (3,))


def test_residual_keeps_everything_without_outside_neighbors():
    g = build_graph(3, [(1, 2)])  # vertex 0 is isolated
    cover = diagonal_cover(g, uniform_assignment(3, 3))
    assert _first_step(cover) == TraceStep(ConfigKind.LOW_VERTEX, (0,), (3,), (1,))


def test_residual_ignores_unmatched_edges():
    g = build_graph(2, [(0, 1)])
    cover = Cover(graph=g, lists=((1, 2, 3), (1,)), matchings=((),))
    assert _first_step(cover) == TraceStep(ConfigKind.LOW_VERTEX, (0,), (3,), (1,))


def test_residual_size_floor_on_path():
    # one color removed by two agreeing neighbors
    g = build_graph(3, [(0, 1), (0, 2)])
    cover = diagonal_cover(g, uniform_assignment(3, 3))
    assert _first_step(cover) == TraceStep(ConfigKind.LOW_VERTEX, (0,), (2,), (2,))


def test_config_priority_on_bowtie():
    assert _first_config(load_catalog("bowtie").graph) == (ConfigKind.LOW_VERTEX, (0,))


def test_config_on_k4_minus_edge():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert _first_config(g) == (ConfigKind.LOW_VERTEX, (2,))


def test_config_on_cube_is_adjacent_threes():
    assert _first_config(load_catalog("cube").graph) == (ConfigKind.ADJACENT_THREES, (0, 1))


def test_config_four_three_threes_on_k34():
    # complete bipartite K(3,4): degree-4 center with four degree-3 neighbors,
    # no degree <= 2 vertex, no adjacent degree-3 pair
    g = build_graph(
        7,
        [(s, t) for s in (0, 5, 6) for t in (1, 2, 3, 4)],
    )
    assert _first_config(g) == (ConfigKind.FOUR_THREE_THREES, (0, 1, 2, 3))


ICOSAHEDRON_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4),
    (4, 5), (5, 1), (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8),
    (4, 9), (5, 9), (5, 10), (1, 10), (6, 7), (7, 8), (8, 9), (9, 10),
    (10, 6), (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
]


def test_no_config_in_five_regular():
    # the icosahedron is 5-regular: no configuration of any kind
    g = build_graph(12, ICOSAHEDRON_EDGES)
    with pytest.raises(TheoremViolationError):
        reduce_and_color(diagonal_cover(g, uniform_assignment(12, 3)))


def test_verify_low_vertex():
    report = verify_config_reducible(ConfigKind.LOW_VERTEX)
    assert report.ok and report.total_covers == 1


def test_verify_adjacent_threes():
    report = verify_config_reducible(ConfigKind.ADJACENT_THREES)
    assert report.ok and report.total_covers == 2


def test_verify_four_three_threes():
    report = verify_config_reducible(ConfigKind.FOUR_THREE_THREES)
    assert report.ok and report.total_covers == 27


def test_verify_rejects_sizes_that_do_not_fit_the_configuration():
    # one error class each, so the command line answers with exit 2
    with pytest.raises(ContractViolationError, match="1 list sizes for the 2 vertices"):
        verify_config_reducible(ConfigKind.ADJACENT_THREES, (1,))
    with pytest.raises(ListTooSmallError) as raised:
        verify_config_reducible(ConfigKind.FOUR_THREE_THREES, (2, 1, 0, 1))
    assert str(raised.value) == "sizes (2, 1, 0, 1) below floors (2, 1, 1, 1) of four-three-threes"


@pytest.mark.parametrize("kind", list(ConfigKind))
def test_verify_floors_are_three_less_outside_neighbors(kind):
    # a leaf has host degree 3 and the center at most the largest degree of
    # its row, so one size below the floors names the floors
    sizes = FLOORS[kind][:-1] + (FLOORS[kind][-1] - 1,)
    with pytest.raises(ListTooSmallError) as raised:
        verify_config_reducible(kind, sizes)
    assert str(raised.value) == f"sizes {sizes} below floors {FLOORS[kind]} of {kind.value}"
    assert verify_config_reducible(kind, FLOORS[kind]) == verify_config_reducible(kind)


def test_verify_exhausts_pass_2(monkeypatch):
    # the lemma must check the rule the pipeline runs: with a pass 2 whose
    # center ignores the leaves, some cover puts more than one conflict on it
    def first_colors(cover, order):
        return [colors[0] for colors in cover.lists], []

    monkeypatch.setattr(reduction, "_extend", first_colors)
    report = verify_config_reducible(ConfigKind.FOUR_THREE_THREES)
    assert not report.ok
    assert max_impropriety(report.counterexample, (1, 1, 1, 1)) > 1


@pytest.mark.parametrize("kind", list(ConfigKind))
def test_brute_force_colors_every_residual_cover_at_the_floors(kind):
    # the lemma checks the extension rule alone; the exhaustive oracle must
    # also find a set of impropriety <= 1 on every cover the lemma counts.
    # Each excised configuration is a star centered at its first vertex.
    sizes = FLOORS[kind]
    shape = build_graph(len(sizes), [(0, leaf) for leaf in range(1, len(sizes))])
    lists = tuple(tuple(range(1, s + 1)) for s in sizes)
    options = [partial_matchings_scan(lists[u], lists[v]) for u, v in shape.edges]
    covers = [Cover(shape, lists, matchings) for matchings in product(*options)]
    assert len(covers) == verify_config_reducible(kind).total_covers
    for cover in covers:
        assert brute_force_rep_set(cover, 1) is not None


def test_pipeline_on_k3_diagonal():
    pg = load_catalog("k3")
    cover = diagonal_cover(pg.graph, uniform_assignment(3, 3))
    result = color_planar_no46(pg, cover)
    assert max_impropriety(cover, result.rep_set) == 0
    assert brute_force_rep_set(cover, 1) is not None


def test_pipeline_on_bowtie_many_covers():
    pg = load_catalog("bowtie")
    for seed in range(10):
        cover = random_cover(pg.graph, uniform_assignment(5, 3), seed, perfect=True)
        result = color_planar_no46(pg, cover)
        assert max_impropriety(cover, result.rep_set) <= 1
        assert brute_force_rep_set(cover, 1) is not None
        assert result.trace[0].kind is ConfigKind.LOW_VERTEX


def test_pipeline_returns_its_impropriety_profile():
    conflicts = 0
    for name in no46_names():
        pg = load_catalog(name)
        for seed in range(3):
            cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed, perfect=True)
            result = color_planar_no46(pg, cover)
            assert result.impropriety == impropriety(cover, result.rep_set)
            conflicts += sum(result.impropriety)
    assert conflicts > 0  # some profile is not all zeros


def test_pipeline_on_empty_graph():
    from dpcolor.embedding import PlaneGraph

    g = build_graph(0, [])
    empty = PlaneGraph(graph=g, rotation=(), faces=())
    cover = diagonal_cover(g, ())
    assert color_planar_no46(empty, cover).rep_set == ()


def test_pipeline_rejects_forbidden_cycles():
    pg = load_catalog("c4")
    cover = diagonal_cover(pg.graph, uniform_assignment(4, 3))
    with pytest.raises(ForbiddenCyclePresentError):
        color_planar_no46(pg, cover)


def test_pipeline_names_the_forbidden_6_cycle():
    # the hexagon 0-2-4-5-3-1, named from its least vertex toward the
    # smaller of that vertex's two neighbours
    pg = plane_from_rotations([[2, 1], [0, 3], [0, 4], [1, 5], [2, 5], [4, 3]])
    cover = diagonal_cover(pg.graph, uniform_assignment(6, 3))
    with pytest.raises(ForbiddenCyclePresentError) as exc:
        color_planar_no46(pg, cover)
    assert str(exc.value) == "graph contains a 6-cycle: 0-1-3-5-4-2"


def test_pipeline_rejects_a_cover_of_another_host():
    cover = diagonal_cover(load_catalog("bowtie").graph, uniform_assignment(5, 3))
    with pytest.raises(ContractViolationError, match="^cover host differs from the plane graph$"):
        color_planar_no46(load_catalog("k3"), cover)


def test_pipeline_rejects_small_lists():
    pg = load_catalog("k3")
    cover = diagonal_cover(pg.graph, uniform_assignment(3, 2))
    with pytest.raises(ListTooSmallError):
        color_planar_no46(pg, cover)


def test_reduction_through_four_config_on_k34():
    # K(3,4) is not 4-/6-cycle-free, but the peel-and-extend engine itself
    # only needs list sizes; this drives the four-three-threes branch.
    g = build_graph(7, [(s, t) for s in (0, 5, 6) for t in (1, 2, 3, 4)])
    for seed in range(8):
        cover = random_cover(g, uniform_assignment(7, 3), seed, perfect=True)
        result = reduce_and_color(cover)
        assert max_impropriety(cover, result.rep_set) <= 1
        assert result.trace[0].kind is ConfigKind.FOUR_THREE_THREES


def test_four_three_threes_center_skips_a_color_that_meets_two_leaves():
    # the first step on this cover is four-three-threes (0, 1, 2, 3); the
    # center's first residual color, 1, is matched to the choices of leaves
    # 2 and 3, so the center takes its second color, 2, and meets none
    g = build_graph(7, [(s, t) for s in (0, 5, 6) for t in (1, 2, 3, 4)])
    cover = random_cover(g, uniform_assignment(7, 3), seed=12, perfect=True)
    result = reduce_and_color(cover)
    step = TraceStep(ConfigKind.FOUR_THREE_THREES, (0, 1, 2, 3), (2, 2, 2, 1), (2, 2, 1, 3))
    assert result.trace[0] == step
    assert [meets(cover, 0, 1, leaf, result.rep_set[leaf]) for leaf in (1, 2, 3)] == [
        False, True, True,
    ]
    assert result.impropriety == (0,) * 7


def _min_degree_three_graph(seed: int):
    """Random graph with degrees from 3..5, or (odd seeds) a bipartite one
    with degree-4 vertices on one side and degree-3 on the other; loops
    and repeated pairs are dropped, so a few degrees come out lower."""
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    if seed % 2:
        n = 7 * k
        left = [v for v in range(3 * k) for _ in range(4)]
        right = [v for v in range(3 * k, n) for _ in range(3)]
        rng.shuffle(right)
        stubs = [x for pair in zip(left, right) for x in pair]
    else:
        n = 6 * k
        degrees = rng.choices((3, 4, 5), weights=(5, 4, 1), k=n)
        stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(stubs)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
    return build_graph(n, sorted(pairs))


def _engine_run(cover):
    """``reduce_and_color`` on the cover, or None if no configuration remains."""
    try:
        return reduce_and_color(cover)
    except TheoremViolationError:
        return None


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, min_n=1), st.integers(min_value=0, max_value=2**20))
def test_residual_size_floor(graph, seed):
    """Every step keeps its kind's floor, and at least the list size minus
    the number of neighbors excised later."""
    cover = random_cover(graph, uniform_assignment(graph.n, 3), seed, perfect=True)
    result = _engine_run(cover)
    if result is None:
        return
    position = {v: i for i, step in enumerate(result.trace) for v in step.vertices}
    for i, step in enumerate(result.trace):
        assert len(step.residual_sizes) == len(FLOORS[step.kind])
        for x, size, floor in zip(step.vertices, step.residual_sizes, FLOORS[step.kind]):
            later = sum(1 for u in graph.adjacency[x] if position[u] > i)
            assert size >= max(floor, 3 - later)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, min_n=1), st.integers(min_value=0, max_value=2**20))
def test_colors_avoid_later_neighbors(graph, seed):
    """No step's color is matched to the color of a neighbor excised later."""
    cover = random_cover(graph, uniform_assignment(graph.n, 3), seed, perfect=True)
    result = _engine_run(cover)
    if result is None:
        return
    rep = result.rep_set
    position = {v: i for i, step in enumerate(result.trace) for v in step.vertices}
    for i, step in enumerate(result.trace):
        assert step.colors == tuple(rep[v] for v in sorted(step.vertices))
        for x in step.vertices:
            for u in graph.adjacency[x]:
                if position[u] > i:
                    assert not meets(cover, x, rep[x], u, rep[u]), (x, u)
    assert max_impropriety(cover, rep) <= 1


def _check_steps_follow_the_extension_rule(cover, result):
    """Replay the trace in coloring order: each step's residual lists, struck
    by ``meets`` against the steps colored before it, and its
    colors, which must be what the reference rule ``extension_colors``
    picks from those lists."""
    color = [None] * cover.graph.n
    for step in reversed(result.trace):
        lists = [
            tuple(
                c for c in cover.lists[x]
                if not any(
                    color[u] is not None and meets(cover, x, c, u, color[u])
                    for u in cover.graph.adjacency[x]
                )
            )
            for x in step.vertices
        ]
        assert step.residual_sizes == tuple(map(len, lists))
        chosen = extension_colors(cover, step.kind, step.vertices, lists)
        for x, c in zip(step.vertices, chosen):
            color[x] = c
        assert step.colors == tuple(color[x] for x in sorted(step.vertices))
    assert tuple(color) == result.rep_set


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=9, min_n=1), st.integers(min_value=0, max_value=2**20), st.booleans())
def test_pass_2_colors_by_the_extension_rule(graph, seed, perfect):
    # each step of pass 2, the code the lemma check exhausts, is the choice
    # of the extension rule written apart from it
    cover = random_cover(graph, uniform_assignment(graph.n, 3), seed, perfect=perfect)
    result = _engine_run(cover)
    if result is not None:
        _check_steps_follow_the_extension_rule(cover, result)


def test_pass_2_colors_by_the_extension_rule_on_larger_graphs():
    kinds = set()
    covers = [
        random_cover(pg.graph, uniform_assignment(n, lists), seed, perfect=seed % 2 == 0)
        for n, lists in ((40, 3), (120, 4), (300, 5))
        for pg in [generate_plane_no46(n, n)]
        for seed in range(2)
    ]
    covers += [
        random_cover(graph, uniform_assignment(graph.n, 3), seed, perfect=seed % 4 < 2)
        for seed in range(40)
        for graph in [_min_degree_three_graph(seed)]
    ]
    for cover in covers:
        result = _engine_run(cover)
        if result is not None:
            _check_steps_follow_the_extension_rule(cover, result)
            kinds.update(step.kind for step in result.trace)
    assert kinds == set(ConfigKind)


def _oracle_order(graph):
    """Excisions by the priority scan on each induced remainder, and the
    remainder left when it finds no configuration."""
    remaining = tuple(range(graph.n))
    steps = []
    while remaining:
        sub, names = induced_subgraph(graph, remaining)
        found = reducible_config_scan(sub)
        if found is None:
            break
        kind, config_vertices = found
        vertices = tuple(names[v] for v in config_vertices)
        steps.append((ConfigKind(kind), vertices))
        remaining = tuple(v for v in remaining if v not in vertices)
    return steps, remaining


def _check_order_against_oracle(graph):
    steps, stuck = _oracle_order(graph)
    if stuck:
        with pytest.raises(TheoremViolationError) as info:
            list(_excision_order(graph))
        assert str(info.value).endswith(f"on host vertices {stuck}")
        assert info.value.graph is graph
        return []
    order = list(_excision_order(graph))
    assert order == steps
    return order


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=9))
def test_excision_order_matches_oracle_on_small_graphs(graph):
    _check_order_against_oracle(graph)


def test_excision_order_matches_oracle_on_min_degree_three_graphs():
    kinds = set()
    for seed in range(120):
        order = _check_order_against_oracle(_min_degree_three_graph(seed))
        kinds |= {kind for kind, _ in order}
    assert kinds == set(ConfigKind)


# Each graph needs one re-push event of ``_excision_order`` to find its
# four-three-threes step: in the first, vertex 2 drops from degree 5 to 4
# while it already has three 3-neighbors; in the second, a 4-vertex that
# was dropped as stale later gains its third 3-neighbor.
REPUSH_CASES = [
    (8, [(0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 5),
         (2, 6), (3, 4), (3, 7), (4, 6), (4, 7)]),
    (22, [(0, 9), (0, 13), (0, 16), (1, 2), (1, 9), (1, 10), (1, 13), (2, 5), (2, 14),
          (2, 15), (2, 21), (3, 13), (3, 17), (3, 19), (3, 21), (4, 5), (4, 7), (4, 8),
          (4, 17), (5, 19), (5, 20), (6, 11), (6, 16), (6, 20), (7, 9), (7, 12), (7, 14),
          (8, 13), (8, 19), (9, 17), (9, 19), (10, 15), (10, 17), (11, 16), (12, 14),
          (12, 21), (13, 21), (14, 19), (15, 18), (15, 20), (17, 18), (17, 20), (18, 19)]),
]


@pytest.mark.parametrize("n, edges", REPUSH_CASES)
def test_excision_order_repushes_four_vertices(n, edges):
    order = _check_order_against_oracle(build_graph(n, edges))
    assert ConfigKind.FOUR_THREE_THREES in {kind for kind, _ in order}


def _least_configuration(adjacency, degrees):
    """The least ``(kind order, v)`` over every ``configuration_at`` result."""
    found = [c for v in range(len(degrees)) if (c := configuration_at(adjacency, degrees, v))]
    return min(found, key=lambda c: (list(ConfigKind).index(c[0]), c[1][0]), default=None)


def _check_configuration_at_against_scan(graph):
    """On the graph and on every remainder of the scan's excision order,
    with excised vertices at degree -1 as pass 1 marks them, the least
    configuration is the one the priority scan finds on the remainder."""
    steps, _ = _oracle_order(graph)
    gone = set()
    kinds = set()
    for vertices in [()] + [vs for _, vs in steps]:
        gone.update(vertices)
        sub, names = induced_subgraph(graph, [v for v in range(graph.n) if v not in gone])
        degrees = [-1 if v in gone else sum(u not in gone for u in graph.adjacency[v])
                   for v in range(graph.n)]
        found = _least_configuration(graph.adjacency, degrees)
        expected = reducible_config_scan(sub)
        if expected is None:
            assert found is None
        else:
            kind, vs = expected
            assert found == (ConfigKind(kind), tuple(names[v] for v in vs))
            kinds.add(found[0])
    return kinds


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=9))
def test_configuration_at_matches_the_scan_on_small_graphs(graph):
    _check_configuration_at_against_scan(graph)


def test_configuration_at_matches_the_scan_on_min_degree_three_graphs():
    # the re-push cases have 4-vertices with a neighbor of degree above 3
    kinds = set()
    for seed in range(120):
        kinds |= _check_configuration_at_against_scan(_min_degree_three_graph(seed))
    for n, edges in REPUSH_CASES:
        kinds |= _check_configuration_at_against_scan(build_graph(n, edges))
    assert kinds == set(ConfigKind)


def test_final_check_catches_a_broken_extension(monkeypatch):
    # with an extension that ignores the colored neighbors, every vertex of
    # a star takes color 1 and the diagonal cover puts 3 conflicts on the center
    def first_colors(cover, order):
        return [colors[0] for colors in cover.lists], []

    monkeypatch.setattr(reduction, "_extend", first_colors)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ContractViolationError, match="impropriety 3 at vertex 0"):
        reduce_and_color(diagonal_cover(star, uniform_assignment(4, 3)))


def _path_plane(n: int):
    return plane_from_rotations([[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)])


def _triangle_chain_plane(triangles: int):
    """Triangles (2i, 2i+1, 2i+2) joined at the cut vertices 2i."""
    n = 2 * triangles + 1
    rotations = []
    for v in range(n):
        if v % 2:
            rotations.append([v - 1, v + 1])
            continue
        ring = [v + 2, v + 1] if v + 2 < n else []
        rotations.append(ring + ([v - 1, v - 2] if v > 0 else []))
    return plane_from_rotations(rotations)


@pytest.mark.parametrize(
    "build, size",
    [(_path_plane, 25_600), (_triangle_chain_plane, 12_800)],
    ids=["path-25600", "chain-25601"],
)
def test_no_depth_limit(build, size):
    pg = build(size)
    # the excision count is far above the interpreter's recursion limit
    assert pg.graph.n > 20 * sys.getrecursionlimit()
    cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed=1, perfect=True)
    result = color_planar_no46(pg, cover)
    assert len(result.trace) == pg.graph.n
    assert max_impropriety(cover, result.rep_set) <= 1


# sha256 of the coloring document followed by the trace document, as
# ``dpcolor theorem`` writes them, on planes the size of the benchmark's
# larger rungs; the catalog-sized goldens are in ``data/pipeline_golden.json``.
SCALE_PINS = {
    ("path-1040", 1): "eee6f250642bcfb97dd63d6e4f23ea5d5fba90497b2befebec3d81cb582c9d34",
    ("path-1040", 2): "42680715385a531aede7b3c35b6586c10f937d947d5844f12aae34567e6acc6b",
    ("path-1040", 3): "43bdd5ba745efaade239a0629562a7592014b541e5a16f2931e0e8e70e985e07",
    ("chain-801", 1): "c0046a19812f231032510f8be920c76a66e3f4139ee1547381ec94b990c9229a",
    ("chain-801", 2): "5d72c85a3f6c963261da101cb3a72367d29f1ccec8d1af14367b4311311226d7",
    ("chain-801", 3): "a124e8daf0e96402ee8e05002d14536efad837e38741bec761a1d1c37ed1ac00",
    ("gen-800", 1): "f7c631f8cc38c1e244b4c2e188ce01cd676663e1ebc83b163932f89423a6cecd",
    ("gen-800", 2): "ab0875564a2c284dcc29cc903268da72154b6c70f8a52e498ed7a0d3b214aadc",
    ("gen-800", 3): "cd2abb993ec53f52bdc057a8e37fc482cebff5f12afe03d0553071906044e7a8",
}


@pytest.mark.parametrize(
    "name, build",
    [("path-1040", lambda: _path_plane(1040)),
     ("chain-801", lambda: _triangle_chain_plane(400)),
     ("gen-800", lambda: generate_plane_no46(800, 800))],
    ids=["path-1040", "chain-801", "gen-800"],
)
def test_theorem_outputs_are_pinned_at_benchmark_scale(name, build):
    pg = build()
    for seed in (1, 2, 3):
        cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed, perfect=True)
        result = color_planar_no46(pg, cover)
        text = coloring_to_text(result.rep_set, result.impropriety) + trace_to_text(result.trace)
        assert hashlib.sha256(text.encode()).hexdigest() == SCALE_PINS[name, seed], seed


def test_pipeline_rejects_a_color_matched_twice():
    pg = load_catalog("bowtie")
    cover = random_cover(pg.graph, uniform_assignment(5, 3), seed=0, perfect=True)
    (cu, cv), second = cover.matchings[0][0], cover.matchings[0][1]
    bad = ((cu, cv), (cu, second[1])) + cover.matchings[0][2:]
    broken = Cover(graph=pg.graph, lists=cover.lists, matchings=(bad,) + cover.matchings[1:])
    with pytest.raises(DpColorError, match="matched twice"):
        color_planar_no46(pg, broken)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_every_generated_instance_has_a_config(n, seed):
    assert excises_every_vertex(generate_plane_no46(n, seed).graph)


def test_every_no46_catalog_instance_has_a_config():
    for name in no46_names():
        assert excises_every_vertex(load_catalog(name).graph), name


def test_pipeline_matches_oracle_on_small_catalog():
    for name in no46_names():
        pg = load_catalog(name)
        if 3 ** pg.graph.n > 3**8:
            continue
        cover = random_cover(
            pg.graph, uniform_assignment(pg.graph.n, 3), seed=99, perfect=True
        )
        result = color_planar_no46(pg, cover)
        assert max_impropriety(cover, result.rep_set) <= 1
        assert brute_force_rep_set(cover, 1) is not None
