import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor import solver
from dpcolor.catalog import entry_names, load as load_catalog
from dpcolor.covers import (
    Cover,
    random_cover,
    uniform_assignment,
    validate_cover,
)
from dpcolor.errors import (
    BudgetExceededError,
    EmptyListError,
    NegativeImproprietyError,
    NotInListError,
    PartialAssignmentError,
)
from dpcolor.graphs import build_graph
from dpcolor.solver import (
    _class_leaders,
    _free_edges,
    _pinned_cover,
    dp_chromatic,
    find_rep_set,
    impropriety,
    is_dp_colorable,
    max_impropriety,
)

from oracles import (
    brute_force_rep_set,
    chronological_rep_set,
    diagonal_cover,
    dp_colorable_scan,
    enumerate_perfect_covers,
    pinned_scan,
    relaxed_list_colorable,
    renaming_classes,
)
from strategies import covers


def k2():
    return build_graph(2, [(0, 1)])


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def k4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def twisted_c4():
    """Identity matchings on three edges of C4, the swap on the fourth."""
    lists = uniform_assignment(4, 2)
    matchings = []
    for edge in c4().edges:
        if edge == (0, 3):
            matchings.append(((1, 2), (2, 1)))
        else:
            matchings.append(((1, 1), (2, 2)))
    return Cover(graph=c4(), lists=lists, matchings=tuple(matchings))


def test_impropriety_of_proper_choice():
    cover = diagonal_cover(k2(), uniform_assignment(2, 2))
    assert impropriety(cover, (1, 2)) == (0, 0)


def test_impropriety_of_clashing_choice():
    cover = diagonal_cover(k2(), uniform_assignment(2, 2))
    assert impropriety(cover, (1, 1)) == (1, 1)


def test_impropriety_on_k3_single_color():
    k3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    cover = diagonal_cover(k3, ((1,), (1,), (1,)))
    assert impropriety(cover, (1, 1, 1)) == (2, 2, 2)


def test_impropriety_rejects_bad_inputs():
    cover = diagonal_cover(k2(), uniform_assignment(2, 2))
    with pytest.raises(NotInListError):
        impropriety(cover, (1, 9))
    with pytest.raises(PartialAssignmentError):
        impropriety(cover, (1,))


def test_k4_two_lists_needs_impropriety_one():
    cover = diagonal_cover(k4(), uniform_assignment(4, 2))
    # brute check over all 16 assignments: d=0 impossible, d=1 possible
    assert brute_force_rep_set(cover, 0) is None
    rep = find_rep_set(cover, 1)
    assert rep is not None and max_impropriety(cover, rep) == 1


def test_twisted_c4_unsolvable_at_d0():
    cover = twisted_c4()
    assert find_rep_set(cover, 0) is None
    assert brute_force_rep_set(cover, 0) is None
    assert find_rep_set(cover, 1) is not None


def test_empty_graph_has_empty_rep_set():
    cover = diagonal_cover(build_graph(0, []), ())
    assert find_rep_set(cover, 0) == ()
    assert brute_force_rep_set(cover, 0) == ()


def test_empty_list_is_its_own_error():
    cover = diagonal_cover(k2(), ((1, 2), ()))
    with pytest.raises(EmptyListError):
        find_rep_set(cover, 0)
    with pytest.raises(EmptyListError):
        brute_force_rep_set(cover, 0)


@pytest.mark.parametrize("solver", [find_rep_set, brute_force_rep_set])
def test_negative_impropriety_is_rejected(solver):
    # no count is below 0, so d = -1 has no answer; both solvers refuse it
    cover = diagonal_cover(build_graph(1, []), ((1,),))
    with pytest.raises(NegativeImproprietyError, match="-1"):
        solver(cover, -1)


def test_single_vertex():
    cover = diagonal_cover(build_graph(1, []), ((1, 2, 3),))
    assert find_rep_set(cover, 0) is not None


def test_brute_force_budget():
    cover = diagonal_cover(k4(), uniform_assignment(4, 3))
    with pytest.raises(BudgetExceededError):
        brute_force_rep_set(cover, 0, budget=10)


def test_find_rep_set_budget():
    cover = diagonal_cover(k4(), uniform_assignment(4, 3))
    with pytest.raises(BudgetExceededError):
        find_rep_set(cover, 0, budget=1)


def _nodes(solver, cover, d):
    """The search nodes ``solver`` creates: the least budget it does not exceed."""
    low, high = 1, 1
    while True:
        try:
            solver(cover, d, budget=high)
            break
        except BudgetExceededError:
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            solver(cover, d, budget=mid)
            high = mid
        except BudgetExceededError:
            low = mid + 1
    return low


def _rotated(cover):
    """``cover`` with each list rotated right by one, (1, 2, 3) to
    (3, 1, 2), so that no list of two or more colors is in ascending order;
    the matchings are the same."""
    lists = tuple(colors[-1:] + colors[:-1] for colors in cover.lists)
    return Cover(graph=cover.graph, lists=lists, matchings=cover.matchings)


def _ascending_covers():
    """Covers of the catalog graphs, then of seeded G(n, p) graphs, p = 0.3 to 0.7:
    perfect and thinned covers of 3-lists, and thinned and diagonal covers
    of mixed lists, every list in ascending order."""
    rng = random.Random(14)
    for name in entry_names():
        g = load_catalog(name).graph
        for k in (2, 3):
            lists = uniform_assignment(g.n, k)
            yield diagonal_cover(g, lists)
            yield random_cover(g, lists, rng.randrange(2**20), perfect=True)
            yield random_cover(g, lists, rng.randrange(2**20))
    for n in range(4, 15):
        for p in (0.3, 0.5, 0.7):
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            lists = uniform_assignment(n, 3)
            yield random_cover(g, lists, rng.randrange(2**20), perfect=True)
            yield random_cover(g, lists, rng.randrange(2**20))
            mixed = tuple(tuple(sorted(rng.sample(range(1, 6), rng.randint(2, 3)))) for _ in range(n))
            yield random_cover(g, mixed, rng.randrange(2**20))
            yield diagonal_cover(g, mixed)


def _equivalence_covers():
    """Each of ``_ascending_covers`` followed by its ``_rotated`` twin."""
    for cover in _ascending_covers():
        yield cover
        yield _rotated(cover)


def test_backjumping_finds_chronological_answers_from_no_more_nodes():
    for cover in _equivalence_covers():
        for d in (0, 1, 2):
            assert find_rep_set(cover, d) == chronological_rep_set(cover, d), (cover, d)
            assert _nodes(find_rep_set, cover, d) <= _nodes(chronological_rep_set, cover, d)


def test_backjumping_search_tree_is_pinned():
    # "no more nodes than chronological" lets a change to the blame sets
    # alter the tree unseen; the node totals per d pin it.  Candidates go
    # by color, not by list position, so a rotated twin searches the same
    # tree as its ascending cover.
    covers = list(_equivalence_covers())
    for cover, twin in zip(covers[::2], covers[1::2]):
        for d in (0, 1, 2):
            assert find_rep_set(twin, d) == find_rep_set(cover, d), (twin, d)
            assert _nodes(find_rep_set, twin, d) == _nodes(find_rep_set, cover, d), (twin, d)
    totals = [sum(_nodes(find_rep_set, cover, d) for cover in covers[::2]) for d in (0, 1, 2)]
    assert totals == [2232, 2596, 2144]


def _triangulated_grid(rows, cols):
    """The rows x cols grid with one diagonal in each square."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
                if j + 1 < cols:
                    edges.append((v, v + cols + 1))
    return build_graph(rows * cols, edges)


def _grid_covers():
    """Seeded perfect covers of 3-lists on triangulated grids, 5x5 to 7x7,
    four per shape; at d = 0 two of them have no representative set."""
    rng = random.Random(19)
    for rows, cols in ((5, 5), (5, 7), (6, 6), (7, 7)):
        g = _triangulated_grid(rows, cols)
        for _ in range(4):
            yield random_cover(g, uniform_assignment(g.n, 3), rng.randrange(2**20), perfect=True)


def test_grid_search_trees_are_pinned():
    # the shape the exhaustive searches of the benchmark run on: answers as
    # chronological search, and the node totals per d pin the tree
    covers = list(_grid_covers())
    for cover in covers:
        for d in (0, 1):
            assert find_rep_set(cover, d) == chronological_rep_set(cover, d), (cover, d)
    totals = [sum(_nodes(find_rep_set, cover, d) for cover in covers) for d in (0, 1)]
    assert totals == [2375, 583]


def _unvalidated_covers():
    """Covers that ``validate_cover`` refuses and the solvers take as they
    are: lists that repeat a color, then matchings that name colors outside
    a list, on seeded G(n, p) graphs."""
    rng = random.Random(20)
    graphs = []
    for n in (8, 10, 12):
        for p in (0.5, 0.7):
            graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for g in graphs:
        cover = random_cover(g, uniform_assignment(g.n, 3), rng.randrange(2**20), perfect=True)
        repeated = tuple(tuple(sorted(colors + (rng.choice(colors),))) for colors in cover.lists)
        yield Cover(graph=g, lists=repeated, matchings=cover.matchings)
        mixed = tuple(tuple(sorted(rng.choices(range(1, 4), k=3))) for _ in range(g.n))
        yield diagonal_cover(g, mixed)
    for g in graphs:
        cover = random_cover(g, uniform_assignment(g.n, 3), rng.randrange(2**20), perfect=True)
        cut = tuple(colors[: rng.randint(2, 3)] for colors in cover.lists)
        yield Cover(graph=g, lists=cut, matchings=cover.matchings)


def test_unvalidated_covers_search_as_before():
    # a repeated color is tried once per copy, and a matched color outside
    # a list is never a conflict: as under chronological search, with the
    # node totals per d pinned
    covers = list(_unvalidated_covers())
    for cover in covers:
        assert validate_cover(cover).clause == "fibers"
        for d in (0, 1, 2):
            assert find_rep_set(cover, d) == chronological_rep_set(cover, d), (cover, d)
            assert _nodes(find_rep_set, cover, d) <= _nodes(chronological_rep_set, cover, d)
    totals = [sum(_nodes(find_rep_set, cover, d) for cover in covers) for d in (0, 1, 2)]
    assert totals == [225, 536, 225]


def test_dead_end_jumps_past_unrelated_positions():
    # K_{4,4} (degree 4, so searched first, and 3-colorable) beside K4 on
    # the diagonal 3-list cover, which has no proper coloring: chronological
    # search retries K4 under each of the 90 colorings of K_{4,4}
    edges = [(a, b) for a in range(4) for b in range(4, 8)]
    edges += [(u, v) for u in range(8, 12) for v in range(u + 1, 12)]
    cover = diagonal_cover(build_graph(12, edges), uniform_assignment(12, 3))
    assert find_rep_set(cover, 0, budget=200) is None
    with pytest.raises(BudgetExceededError):
        chronological_rep_set(cover, 0, budget=200)


def test_c4_not_dp_2_colorable():
    result = is_dp_colorable(c4(), 2, 0)
    assert not result.colorable
    assert brute_force_rep_set(result.witness, 0) is None


def test_one_free_edge_builds_only_the_class_leaders():
    # C4 has one free edge: its 30 classes at k = 9 are built from their
    # leaders, with no list of all 9! = 362,880 permutations
    tracemalloc.start()
    try:
        result = is_dp_colorable(c4(), 9, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.colorable
    assert (result.searches, result.covers_checked) == (30, 362_880)
    assert peak < 5_000_000


def test_a_forest_at_huge_k_is_colorable_without_a_search():
    # a forest has no free edge, so no factorial check bounds k; its one
    # cover is colorable at every k >= 2 and needs no lists built
    tracemalloc.start()
    try:
        result = is_dp_colorable(load_catalog("path4").graph, 10**9, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.colorable
    assert (result.searches, result.covers_checked, result.solver_calls) == (1, 1, 0)
    assert peak < 5_000_000


def caterpillar(hubs: int):
    """Hubs, each with a leaf, consecutive hubs joined by
    3-edge paths: a degree-order search over two colors assigns every hub
    first and backjumps along the paths between them."""
    edges = []
    n = 2 * hubs
    for h in range(hubs):
        edges.append((h, hubs + h))
    for h in range(hubs - 1):
        edges += [(h, n), (n, n + 1), (n + 1, h + 1)]
        n += 2
    return build_graph(n, edges)


def test_a_forest_needs_no_search_nodes():
    # over three colors this tree's search takes about n nodes, over two
    # about 0.75 hubs² backjumping between the hubs
    graph = caterpillar(100)
    result = is_dp_colorable(graph, 3, 0, budget=2 * graph.n)
    assert result.colorable
    assert (result.searches, result.covers_checked, result.solver_calls) == (1, 1, 0)


def test_k3_dp_3_colorable_exhaustively():
    result = is_dp_colorable(build_graph(3, [(0, 1), (1, 2), (2, 0)]), 3, 0)
    # a spanning tree pins 2 of the 3 matchings: 3!^(m - n + 1) covers
    assert result.colorable and result.covers_checked == 6


def test_k1_dp_1_colorable():
    assert is_dp_colorable(build_graph(1, []), 1, 0).colorable


@pytest.mark.parametrize(
    "graph", [build_graph(3, [(0, 1), (1, 2), (2, 0)]), build_graph(0, [])], ids=["k3", "empty"]
)
def test_negative_list_size_is_rejected(graph):
    # k < 0 is no list size, even where no vertex would hold a list
    with pytest.raises(EmptyListError, match="list size -1 is negative"):
        is_dp_colorable(graph, -1, 0)


@pytest.mark.parametrize(
    "graph",
    [build_graph(3, [(0, 1), (1, 2), (2, 0)]), build_graph(4, [(0, 1), (1, 2), (2, 3)]), build_graph(0, [])],
    ids=["k3", "path4", "empty"],
)
@pytest.mark.parametrize("k", [1, 3])
def test_negative_impropriety_bound_is_rejected(graph, k):
    # d < 0 is no bound, even on a forest, which is answered with no search
    with pytest.raises(NegativeImproprietyError, match="impropriety bound -1 is negative"):
        is_dp_colorable(graph, k, -1)


def test_dp_chromatic_values():
    assert dp_chromatic(build_graph(1, [])) == 1
    assert dp_chromatic(c4()) == 3
    assert dp_chromatic(k4()) == 4


def test_renaming_reduction_agrees_with_full_enumeration():
    cases = [
        (c4(), 2), (c4(), 3),
        (build_graph(3, [(0, 1), (1, 2), (2, 0)]), 2),
        (build_graph(3, [(0, 1), (1, 2)]), 2),
        (k4(), 2),
        (load_catalog("path4").graph, 2),
        (load_catalog("star5").graph, 2),
        (load_catalog("bowtie").graph, 2),
    ]
    for g, k in cases:
        for d in (0, 1):
            full_colorable, full_checked = dp_colorable_scan(g, k, d)
            fast = is_dp_colorable(g, k, d)
            assert full_colorable == fast.colorable, (g.edges, k, d)
            assert fast.covers_checked <= full_checked


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("graph", [c4(), build_graph(3, [(0, 1), (1, 2), (2, 0)])], ids=["c4", "k3"])
def test_one_free_edge_yields_one_cover_per_conjugacy_class(graph, k):
    # the first free edge's picks: the least cover of each renaming class,
    # in product order, weighted by the class's size
    free = _free_edges(graph)
    pinned = [
        cover.matchings
        for cover in enumerate_perfect_covers(graph, uniform_assignment(graph.n, k), free_edges=free)
    ]
    found = [
        (_pinned_cover(graph, k, free, (image,)).matchings, math.factorial(k) // centralizer)
        for image, centralizer in _class_leaders(k)
    ]
    assert found == sorted(renaming_classes(pinned, k).items())


def k5_less_two_edges_at_a_vertex():
    # at k = 2, d = 1 its 16th pinned cover has no set; a memo that took any
    # finished node of a depth for every later node there says yes
    return build_graph(5, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def _k33_graphs():
    """Small graphs that are not plane: K3,3 with its vertices named by a
    seeded shuffle, as it is, with one edge subdivided, and with one edge
    added."""
    graphs = {}
    for seed, kind in enumerate(("k33", "k33_subdivided", "k33_chord")):
        rng = random.Random(seed)
        name = rng.sample(range(6), 6)
        edges = [tuple(sorted((name[a], name[b]))) for a in range(3) for b in range(3, 6)]
        if kind == "k33_subdivided":
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, 6), (v, 6)]
        elif kind == "k33_chord":
            edges.append(rng.choice([e for e in combinations(range(6), 2) if e not in edges]))
        graphs[kind] = build_graph(max(map(max, edges)) + 1, edges)
    return graphs


_SCAN_GRAPHS = {"k5_less_two": k5_less_two_edges_at_a_vertex(), **_k33_graphs()}


def _scan_graph(name):
    return _SCAN_GRAPHS[name] if name in _SCAN_GRAPHS else load_catalog(name).graph


def _pinned_scan_cases():
    """(graph name, k) with at most 10**5 pinned covers, k = 1..4: the
    catalog, then the graphs of ``_SCAN_GRAPHS``."""
    for name in [*entry_names(), *_SCAN_GRAPHS]:
        free = _free_edges(_scan_graph(name))
        for k in range(1, 5):
            if math.factorial(k) ** len(free) <= 10**5:
                yield name, k


@pytest.mark.parametrize(("name", "k"), list(_pinned_scan_cases()))
def test_orbit_search_agrees_with_the_pinned_scan(name, k):
    graph = _scan_graph(name)
    for d in (0, 1):
        colorable, witness, checked = pinned_scan(graph, k, d, _free_edges(graph))
        result = is_dp_colorable(graph, k, d)
        assert result.colorable == colorable
        assert result.covers_checked == checked
        if not colorable:
            assert result.witness.matchings == witness.matchings
        assert result.solver_calls <= result.searches


@pytest.mark.parametrize(
    ("name", "k"), [case for case in _pinned_scan_cases() if _free_edges(_scan_graph(case[0]))]
)
def test_every_leader_decided_from_the_pool_is_colorable(name, k, monkeypatch):
    # every pinned cover up to the witness with a class leader on its first
    # free edge, each a leaf the walk reaches or skips, was searched or is
    # colored by a coloring some search found; a forest has no free edge,
    # so nothing to pool
    graph = _scan_graph(name)
    free = _free_edges(graph)
    leaders = {
        _pinned_cover(graph, k, free, (image,)).matchings[free[0]] for image, _ in _class_leaders(k)
    }
    searched = []
    found = []

    def recording(cover, d, budget):
        searched.append(cover.matchings)
        found.append(find_rep_set(cover, d, budget=budget))
        return found[-1]

    monkeypatch.setattr(solver, "find_rep_set", recording)
    for d in (0, 1):
        searched.clear()
        found.clear()
        result = is_dp_colorable(graph, k, d)
        calls = set(searched)
        assert len(calls) == len(searched) == result.solver_calls <= result.searches
        pool = [rep for rep in found if rep is not None]
        for cover in enumerate_perfect_covers(graph, uniform_assignment(graph.n, k), free_edges=free):
            if cover.matchings[free[0]] not in leaders or cover.matchings in calls:
                continue
            if not result.colorable and cover.matchings > result.witness.matchings:
                break
            assert any(max_impropriety(cover, rep) <= d for rep in pool), (cover.matchings, d)


@pytest.mark.parametrize(
    ("graph", "k", "d", "counts"),
    [
        (k4(), 4, 0, (365, 6)),
        (load_catalog("cube").graph, 3, 0, (2625, 27)),
        (load_catalog("cube").graph, 3, 1, (297, 12)),
    ],
    ids=["k4-k4-d0", "cube-k3-d0", "cube-k3-d1"],
)
def test_pooled_colorings_leave_few_solver_calls(graph, k, d, counts):
    result = is_dp_colorable(graph, k, d)
    assert result.colorable
    assert (result.searches, result.solver_calls) == counts


@pytest.mark.parametrize(
    ("graph", "k", "built"),
    [(k4(), 4, 6), (load_catalog("cube").graph, 3, 27)],
    ids=["k4-k4", "cube-k3"],
)
def test_a_cover_is_built_only_for_a_searched_leader(graph, k, built, monkeypatch):
    # a leaf decided from the pool is read from its free edges'
    # permutations alone; only a leaf searched needs its cover
    init = Cover.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cover, "__init__", counted)
    result = is_dp_colorable(graph, k, 0)
    assert len(calls) == result.solver_calls == built < result.searches


def test_search_budget_counts_searches():
    # the walk's nodes: K4 at k = 4 takes 365
    assert is_dp_colorable(k4(), 4, 0, budget=365).searches == 365
    with pytest.raises(BudgetExceededError, match="^all-covers search exceeded 364 searches$"):
        is_dp_colorable(k4(), 4, 0, budget=364)


def refuse_large_factorials(monkeypatch):
    """Make ``math.factorial`` of more than 100 fail the test at once."""
    factorial = math.factorial

    def bounded(k):
        assert k <= 100, f"math.factorial({k}) called"
        return factorial(k)

    monkeypatch.setattr(math, "factorial", bounded)


def test_huge_k_is_refused_without_computing_its_factorial(monkeypatch):
    refuse_large_factorials(monkeypatch)
    with pytest.raises(BudgetExceededError, match=r"^10000000! matchings per free edge exceed budget 1000000$"):
        is_dp_colorable(load_catalog("k3").graph, 10**7, 0)


@pytest.mark.parametrize("k", range(1, 8))
def test_factorial_budget_check_agrees_with_the_full_factorial(k):
    for budget in sorted({-1, 0, 1, math.factorial(k) - 1, math.factorial(k)}):
        try:
            is_dp_colorable(c4(), k, 0, budget=budget)
            refused = False
        except BudgetExceededError as exc:
            refused = str(exc) == f"{k}! matchings per free edge exceed budget {budget}"
        assert refused == (math.factorial(k) > budget), budget


def test_list_relaxed_on_even_cycle():
    coloring = find_rep_set(diagonal_cover(c4(), uniform_assignment(4, 2)), 0)
    assert coloring is not None
    assert coloring[0] != coloring[1] != coloring[2] != coloring[3] != coloring[0]


def test_list_relaxed_on_k4_two_colors():
    cover = diagonal_cover(k4(), uniform_assignment(4, 2))
    assert find_rep_set(cover, 1) is not None
    assert find_rep_set(cover, 0) is None


@settings(max_examples=100, deadline=None)
@given(covers(max_n=6, max_k=3), st.integers(min_value=0, max_value=1))
def test_solver_agrees_with_brute_force(cover, d):
    fast = find_rep_set(cover, d)
    slow = brute_force_rep_set(cover, d)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert max_impropriety(cover, fast) <= d


@settings(max_examples=60, deadline=None)
@given(covers(max_n=5, max_k=3))
def test_colorable_is_monotone_in_d(cover):
    if find_rep_set(cover, 0) is not None:
        assert find_rep_set(cover, 1) is not None


@settings(max_examples=40, deadline=None)
@given(covers(max_n=5, max_k=3, perfect=True), st.randoms(use_true_random=False))
def test_fiber_renaming_preserves_answers(cover, rng):
    """Permuting colors inside one fiber (rewriting its matchings) changes nothing."""
    g = cover.graph
    v = rng.randrange(g.n)
    colors = list(cover.lists[v])
    shuffled = colors[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(colors, shuffled))
    matchings = []
    for (a, b), matching in zip(g.edges, cover.matchings):
        if a == v:
            matching = tuple(sorted((mapping[p], q) for p, q in matching))
        elif b == v:
            matching = tuple(sorted((p, mapping[q]) for p, q in matching))
        matchings.append(matching)
    renamed = Cover(graph=g, lists=cover.lists, matchings=tuple(matchings))
    for d in (0, 1):
        assert (find_rep_set(cover, d) is None) == (find_rep_set(renamed, d) is None)


def test_dp_chromatic_covers_list_coloring_needs():
    """Wherever dp_chromatic(G) = k, the plain k-list instance is colorable.

    Scoped to graphs on 5 vertices with at most 7 edges: confirming the
    yes-side of dp_chromatic at k needs (k!)^(m-n+1) covers even after the
    renaming reduction, which rules out the densest cases (K5 at k = 5
    would take 120^6 covers).
    """
    from itertools import combinations

    pairs = list(combinations(range(5), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if len(edges) > 7:
            continue
        key = frozenset(edges)
        from itertools import permutations

        canon = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in key))
            for perm in permutations(range(5))
        )
        if canon in seen:
            continue
        seen.add(canon)
        g = build_graph(5, edges)
        k = dp_chromatic(g)
        lists = uniform_assignment(5, k)
        assert find_rep_set(diagonal_cover(g, lists), 0) is not None, edges


def test_diagonal_equivalence_with_direct_list_search():
    # spot-check the diagonal reduction against the independent oracle
    for g in (c4(), k4(), build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])):
        for k in (2, 3):
            for d in (0, 1):
                lists = uniform_assignment(g.n, k)
                ours = find_rep_set(diagonal_cover(g, lists), d)
                ref = relaxed_list_colorable(g, lists, d)
                assert (ours is None) == (ref is None)
