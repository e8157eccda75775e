import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor.errors import (
    BadLengthError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    LoopEdgeError,
)
from dpcolor.graphs import (
    build_graph,
    has_cycle_of_length,
    is_connected,
    smallest_forbidden_cycle,
)

from oracles import subset_cycles
from strategies import graphs

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]          # outer 5-cycle
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
    + [(i, i + 5) for i in range(5)]              # spokes
)


def test_triangle_degrees():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.degrees == (2, 2, 2)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_k4_degrees():
    g = build_graph(4, K4_EDGES)
    assert g.degrees == (3, 3, 3, 3)
    assert g.m == 6


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        build_graph(2, [(0, 0)])


def test_duplicate_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0)])


def test_out_of_range_rejected():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(2, [(0, 2)])


def test_c4_has_4_cycle():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert has_cycle_of_length(c4, 4)
    assert smallest_forbidden_cycle(c4.adjacency, c4.edges) == (0, 1, 2, 3)


def test_k3_has_no_4_cycle():
    k3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert not has_cycle_of_length(k3, 4)


def test_bad_length_rejected():
    # only the two lengths the theorem forbids are searched
    k3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    for k in (2, 3, 5, 7):
        with pytest.raises(BadLengthError):
            has_cycle_of_length(k3, k)


def test_petersen_cycles_against_subset_oracle():
    petersen = build_graph(10, PETERSEN_EDGES)
    # expected values frozen from the subset/permutation oracle
    assert not has_cycle_of_length(petersen, 4) and subset_cycles(petersen, 4) == []
    sixes = subset_cycles(petersen, 6)
    assert has_cycle_of_length(petersen, 6) and len(sixes) == 10
    assert smallest_forbidden_cycle(petersen.adjacency, petersen.edges) == sixes[0]


@st.composite
def _sparse_graphs(draw):
    """Graphs on 6 to 9 vertices with about one edge in five, half of them
    on a planted hexagon: many have no 4-cycle, and of those some have a
    6-cycle and some none."""
    n = draw(st.integers(min_value=6, max_value=9))
    edges = set()
    if draw(st.booleans()):
        ring = draw(st.permutations(range(n)))[:6]
        edges = {tuple(sorted((ring[i - 1], ring[i]))) for i in range(6)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, edges.union(e for e, keep in zip(pairs, mask) if not keep))


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=8), _sparse_graphs()), st.sampled_from([4, 6]))
def test_has_cycle_iff_list_nonempty(g, k):
    assert has_cycle_of_length(g, k) == bool(subset_cycles(g, k))


def k2n(n):
    """K_{2,n}: hubs 0 and 1, each joined to all of 2..n+1; its only cycles are 4-cycles."""
    return build_graph(n + 2, [(h, v) for h in (0, 1) for v in range(2, n + 2)])


def friendship_fan(blades):
    """Triangles 0-(2i+1)-(2i+2) sharing the hub 0; its only cycles are triangles."""
    return build_graph(2 * blades + 1, [(0, v) for v in range(1, 2 * blades + 1)] +
                       [(2 * i + 1, 2 * i + 2) for i in range(blades)])


def triangle_chain(n):
    """Triangles (2i, 2i+1, 2i+2) in a row on n = 2t+1 vertices; only triangles."""
    return build_graph(n, [e for i in range(0, n - 2, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))])


@pytest.mark.parametrize("graph, has_4", [
    (k2n(1500), True), (friendship_fan(1000), False), (triangle_chain(3001), False),
], ids=["k2-1500", "fan-2000", "chain-3001"])
def test_four_and_six_cycle_checks_on_worst_case_shapes(graph, has_4):
    # a high-degree vertex in the middle of many paths makes a search over
    # paths, or a pairwise compare of them, quadratic or cubic here
    start = time.perf_counter()
    assert has_cycle_of_length(graph, 4) is has_4
    assert has_cycle_of_length(graph, 6) is False
    assert time.perf_counter() - start < 1.0


def test_six_cycle_found_past_a_star_of_inner_paths():
    # from the top-ranked vertex 1, the paths 1-a-0-2 for a = 3, 5, 6 all
    # meet at 0, and only the last is disjoint from the later path 1-3-5-2:
    # the one 6-cycle shows only if endpoint 2 keeps three inner pairs
    g = build_graph(9, [(0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5),
                        (1, 6), (1, 7), (2, 5), (3, 5)])
    assert subset_cycles(g, 6) == [(0, 2, 5, 3, 1, 6)]
    assert has_cycle_of_length(g, 6)


# (graph, has a 4-cycle, has a 6-cycle), each read from the subset scan
SIX_CHECK_GRAPHS = {
    "hexagon": (build_graph(6, [(i, (i + 1) % 6) for i in range(6)]), False, True),
    "petersen": (build_graph(10, PETERSEN_EDGES), False, True),
    "prism": (build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                              (0, 3), (1, 4), (2, 5)]), True, True),
    "k33": (build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)]), True, True),
    "hexagon-and-square": (build_graph(9, [(i, (i + 1) % 6) for i in range(6)]
                                       + [(0, 6), (6, 7), (7, 8), (8, 0)]), True, True),
    # from the top-ranked vertex 5 the paths 5-2-4-0 and 5-4-1-0 both end at
    # 0, but they share 4: two triangles on 4, and no 6-cycle
    "repeated-end": (build_graph(7, [(0, 1), (0, 4), (1, 4), (2, 4), (2, 5), (3, 5),
                                     (4, 5), (5, 6)]), False, False),
}


@pytest.mark.parametrize("graph, has_4, has_6", SIX_CHECK_GRAPHS.values(), ids=SIX_CHECK_GRAPHS)
def test_six_check_against_the_subset_scan(graph, has_4, has_6):
    assert bool(subset_cycles(graph, 4)) is has_4 and bool(subset_cycles(graph, 6)) is has_6
    fresh = build_graph(graph.n, graph.edges)  # the 6-check first, on an unsearched graph
    assert has_cycle_of_length(fresh, 6) is has_6 and has_cycle_of_length(fresh, 4) is has_4
    assert has_cycle_of_length(graph, 4) is has_4 and has_cycle_of_length(graph, 6) is has_6


def uses_edge(cycle, u, v) -> bool:
    return any({cycle[i], cycle[i - 1]} == {u, v} for i in range(len(cycle)))


def assert_cycles_through_edges_match_filter(g, seed=0):
    # the walk through one edge must return the least 4-cycle, else 6-cycle,
    # that the subset scan lists through it; any neighbour order must do, as
    # in a rotation system, and either direction of the edge
    rng = random.Random(seed)
    shuffled = [rng.sample(nbrs, len(nbrs)) for nbrs in g.adjacency]
    cycles = subset_cycles(g, 4) + subset_cycles(g, 6)
    for u, v in g.edges:
        expected = next((c for c in cycles if uses_edge(c, u, v)), None)
        assert smallest_forbidden_cycle(g.adjacency, [(u, v)]) == expected
        assert smallest_forbidden_cycle(shuffled, [(v, u)]) == expected


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@given(st.data())
def test_build_graph_sorts_each_row_whatever_the_edge_order(data):
    graph = data.draw(graphs(max_n=9))
    edges = data.draw(st.permutations(graph.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    rebuilt = build_graph(graph.n, edges)
    for v in range(graph.n):
        neighbours = [b for a, b in edges if a == v] + [a for a, b in edges if b == v]
        assert rebuilt.adjacency[v] == tuple(sorted(neighbours))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_smallest_forbidden_cycle_through_an_edge_matches_the_subset_scan(g):
    assert_cycles_through_edges_match_filter(g)


@pytest.mark.parametrize("seed", range(8))
def test_cycles_through_edge_on_seeded_random_graphs(seed):
    assert_cycles_through_edges_match_filter(random_graph(11, 0.3, seed), seed)


def assert_cycles_through_edge_lists_match_filter(g, rng, lists=6):
    # a watched-edge list may hold several edges, one in both directions, a
    # repeat and an absent edge; the least 4-cycle, else 6-cycle, through
    # any present one is what the subset scan lists first
    shuffled = [rng.sample(nbrs, len(nbrs)) for nbrs in g.adjacency]
    cycles = subset_cycles(g, 4) + subset_cycles(g, 6)
    absent = [(u, v) for u in range(g.n) for v in range(g.n) if u != v and not g.has_edge(u, v)]
    for _ in range(lists):
        watched = [(v, u) if rng.random() < 0.5 else (u, v)
                   for u, v in rng.sample(g.edges, min(g.m, rng.randint(2, 4)))]
        if watched:
            watched += [watched[0][::-1], rng.choice(watched)]
        if absent:
            watched.append(rng.choice(absent))
        rng.shuffle(watched)
        expected = next((c for c in cycles if any(uses_edge(c, u, v) for u, v in watched)), None)
        assert smallest_forbidden_cycle(g.adjacency, watched) == expected
        assert smallest_forbidden_cycle(shuffled, iter(watched)) == expected


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_smallest_forbidden_cycle_through_edge_lists_matches_the_subset_scan(g, rng):
    assert_cycles_through_edge_lists_match_filter(g, rng)


@pytest.mark.parametrize("seed", range(8))
def test_cycles_through_edge_lists_on_seeded_random_graphs(seed):
    rng = random.Random(seed)
    assert_cycles_through_edge_lists_match_filter(random_graph(11, 0.3, seed), rng, lists=20)


def test_cycles_through_edge_on_chosen_edges():
    # a 4-cycle and a 6-cycle share edge 01; a pendant vertex 8 hangs off 5,
    # and the bridge 79 leads to the triangle 9-10-11
    g = build_graph(12, [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (1, 4), (4, 5), (5, 6), (6, 7), (7, 0),
        (5, 8), (7, 9), (9, 10), (10, 11), (11, 9),
    ])
    assert_cycles_through_edges_match_filter(g)
    for u, v in ((0, 1), (1, 0)):
        assert smallest_forbidden_cycle(g.adjacency, [(u, v)]) == (0, 1, 2, 3)
    assert smallest_forbidden_cycle(g.adjacency, [(4, 1)]) == (0, 1, 4, 5, 6, 7)
    for edge in ((7, 9), (8, 5), (11, 10), (0, 2)):  # a bridge, a pendant, a triangle, no edge
        assert smallest_forbidden_cycle(g.adjacency, [edge]) is None
    assert smallest_forbidden_cycle(g.adjacency, g.edges) == (0, 1, 2, 3)


def test_is_connected():
    assert is_connected(build_graph(1, []))
    assert is_connected(build_graph(0, []))
    assert not is_connected(build_graph(2, []))
    assert is_connected(build_graph(2, [(0, 1)]))
