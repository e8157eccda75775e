import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor import graphs as graphs_module
from dpcolor.errors import (
    DuplicateEdgeError,
    ForbiddenCyclePresentError,
    IndexOutOfRangeError,
    LoopEdgeError,
)
from dpcolor.graphs import (
    build_graph,
    has_forbidden_cycles,
    is_connected,
    require_no_forbidden_cycles,
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


def has_forbidden_cycle_by_subsets(g) -> bool:
    return bool(subset_cycles(g, 4) or subset_cycles(g, 6))


def test_c4_has_4_cycle():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert has_forbidden_cycles(c4) and subset_cycles(c4, 4) == [(0, 1, 2, 3)]
    assert smallest_forbidden_cycle(c4.adjacency, c4.edges) == (0, 1, 2, 3)


def test_k3_has_no_forbidden_cycle():
    k3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert not has_forbidden_cycles(k3) and not has_forbidden_cycle_by_subsets(k3)


def test_petersen_cycles_against_subset_oracle():
    petersen = build_graph(10, PETERSEN_EDGES)
    # expected values frozen from the subset/permutation oracle: girth 5,
    # so the check answers from the 6-cycles alone
    assert subset_cycles(petersen, 4) == []
    sixes = subset_cycles(petersen, 6)
    assert has_forbidden_cycles(petersen) and len(sixes) == 10
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
@given(st.one_of(graphs(max_n=8), _sparse_graphs()))
def test_has_cycle_iff_list_nonempty(g):
    assert has_forbidden_cycles(g) is has_forbidden_cycle_by_subsets(g)
    assert build_graph(g.n, g.edges).has_forbidden_cycles is has_forbidden_cycles(g)


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
    # (none has a 6-cycle; K2,t answers from its 4-cycles alone)
    start = time.perf_counter()
    assert has_forbidden_cycles(graph) is has_4
    assert time.perf_counter() - start < 1.0


def test_six_cycle_found_past_a_star_of_inner_paths():
    # from the top-ranked vertex 1, the paths 1-a-0-2 for a = 3, 5, 6 all
    # meet at 0, and only the last is disjoint from the later path 1-3-5-2:
    # the one 6-cycle shows only if endpoint 2 keeps three inner pairs
    g = build_graph(9, [(0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5),
                        (1, 6), (1, 7), (2, 5), (3, 5)])
    # the paths meet at 0 through the 4-cycles 1-a-0-a'; the 6-check alone
    # is exact on graphs with 4-cycles too
    assert subset_cycles(g, 6) == [(0, 2, 5, 3, 1, 6)]
    assert graphs_module._has_6_cycle(g.adjacency, g._degree_ranks) and has_forbidden_cycles(g)


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
    # two paths to one endpoint meet (share an inner vertex), and no 6-cycle
    "meet": (build_graph(7, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 4), (2, 3), (3, 5),
                             (3, 6)]), False, False),
    # the 6-cycle 1-5-4-6-7-2 shows only if an endpoint whose first two
    # paths meet still takes a third
    "third": (build_graph(8, [(0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 7),
                              (4, 5), (4, 6), (6, 7)]), False, True),
}


@pytest.mark.parametrize("graph, has_4, has_6", SIX_CHECK_GRAPHS.values(), ids=SIX_CHECK_GRAPHS)
def test_six_check_against_the_subset_scan(graph, has_4, has_6):
    assert bool(subset_cycles(graph, 4)) is has_4 and bool(subset_cycles(graph, 6)) is has_6
    assert has_forbidden_cycles(graph) is (has_4 or has_6)
    assert graphs_module._has_6_cycle(graph.adjacency, graph._degree_ranks) is has_6


def theta(t):
    """Hubs 0 and 1 joined by t paths 0-(2+2i)-(3+2i)-1; no 4-cycle, and
    every two paths close a 6-cycle."""
    return build_graph(2 * t + 2, [e for i in range(t)
                                   for e in ((0, 2 + 2 * i), (2 + 2 * i, 3 + 2 * i), (3 + 2 * i, 1))])


def forbidden_cycle_message(graph):
    with pytest.raises(ForbiddenCyclePresentError) as caught:
        require_no_forbidden_cycles(graph)
    return str(caught.value)


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=8), _sparse_graphs()))
def test_the_named_cycle_is_the_least_over_all_edges(g):
    cycle = smallest_forbidden_cycle(g.adjacency, g.edges)
    if cycle is None:
        require_no_forbidden_cycles(g)
    else:
        expected = f"graph contains a {len(cycle)}-cycle: {'-'.join(map(str, cycle))}"
        assert forbidden_cycle_message(g) == expected


@pytest.mark.parametrize("graph, message", [
    (k2n(3000), "graph contains a 4-cycle: 0-2-1-3"),
    (theta(3000), "graph contains a 6-cycle: 0-2-3-1-5-4"),
], ids=["k2-3000", "theta-3000"])
def test_naming_the_least_cycle_searches_at_most_two_edges(monkeypatch, graph, message):
    # every cycle here goes through a hub: a search through every edge, or
    # a list of every cycle met, is quadratic
    searched = []
    search = graphs_module.smallest_forbidden_cycle

    def counted(adjacency, edges):
        edges = list(edges)
        searched.extend(edges)
        return search(adjacency, edges)

    monkeypatch.setattr(graphs_module, "smallest_forbidden_cycle", counted)
    assert forbidden_cycle_message(graph) == message
    assert 1 <= len(searched) <= 2


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
