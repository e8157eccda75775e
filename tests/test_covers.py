import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor import solver
from dpcolor.catalog import entry_names, load as load_catalog
from dpcolor.covers import (
    Cover,
    CoverViolation,
    partial_matchings,
    random_cover,
    uniform_assignment,
    validate_cover,
)
from dpcolor.errors import BudgetExceededError, UnequalListsError
from dpcolor.graphs import build_graph
from dpcolor.reduction import reduce_and_color
from dpcolor.solver import _class_leaders, find_rep_set, impropriety, is_dp_colorable

from oracles import (
    class_leaders_scan,
    cover_violation_scan,
    diagonal_cover,
    enumerate_perfect_covers,
    meets,
    partial_matchings_scan,
    partners_scan,
    shuffled_cover,
)
from strategies import covers, graphs


def k2():
    return build_graph(2, [(0, 1)])


def c3():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_diagonal_cover_is_valid():
    cover = diagonal_cover(c3(), uniform_assignment(3, 3))
    assert validate_cover(cover) is None
    assert all(m == ((1, 1), (2, 2), (3, 3)) for m in cover.matchings)


def test_diagonal_on_shared_lists():
    cover = diagonal_cover(k2(), uniform_assignment(2, 2))
    assert cover.matchings == (((1, 1), (2, 2)),)


def test_diagonal_on_disjoint_lists_is_empty():
    cover = diagonal_cover(k2(), ((1, 2), (3, 4)))
    assert cover.matchings == ((),)
    assert validate_cover(cover) is None


def test_doubly_matched_color_is_reported():
    bad = Cover(graph=k2(), lists=uniform_assignment(2, 2), matchings=(((1, 1), (1, 2)),))
    violation = validate_cover(bad)
    assert violation is not None and violation.clause == "matching"
    assert "color 1" in violation.message


def test_wrong_list_count_is_reported():
    bad = Cover(graph=k2(), lists=((1,),), matchings=((),))
    assert validate_cover(bad) == CoverViolation("fibers", "1 lists for 2 vertices")


def test_color_outside_list_is_reported():
    bad = Cover(graph=k2(), lists=((1,), (2,)), matchings=(((1, 3),),))
    violation = validate_cover(bad)
    assert violation is not None and violation.clause == "fibers"


def test_singleton_matching_ok():
    cover = Cover(graph=k2(), lists=((1,), (2,)), matchings=(((1, 2),),))
    assert validate_cover(cover) is None


def test_random_cover_is_deterministic():
    lists = uniform_assignment(3, 3)
    a = random_cover(c3(), lists, seed=7, perfect=True)
    b = random_cover(c3(), lists, seed=7, perfect=True)
    assert a == b
    assert validate_cover(a) is None


def test_random_perfect_needs_equal_sizes():
    with pytest.raises(UnequalListsError):
        random_cover(k2(), ((1, 2), (1, 2, 3)), seed=0, perfect=True)


def test_random_perfect_on_c4_has_full_matchings():
    cover = random_cover(c4(), uniform_assignment(4, 2), seed=3, perfect=True)
    assert all(len(m) == 2 for m in cover.matchings)


def test_enumerate_counts_k2():
    found = list(enumerate_perfect_covers(k2(), uniform_assignment(2, 2)))
    assert len(found) == 2


def test_enumerate_counts_c3():
    found = list(enumerate_perfect_covers(c3(), uniform_assignment(3, 2)))
    assert len(found) == 8
    assert len(set(found)) == 8
    assert all(validate_cover(c) is None for c in found)


def test_enumerate_counts_c4_3lists():
    lists = uniform_assignment(4, 3)
    found = list(enumerate_perfect_covers(c4(), lists, budget=2000))
    assert len(found) == len(set(found)) == 1296


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_perfect_covers(c4(), uniform_assignment(4, 3), budget=1000))


@settings(max_examples=50)
@given(covers(max_n=5, max_k=3))
def test_random_covers_validate(cover):
    assert validate_cover(cover) is None


@settings(max_examples=50)
@given(covers(max_n=5, max_k=3, perfect=True), st.randoms(use_true_random=False))
def test_deleting_pairs_never_hurts_a_rep_set(cover, rng):
    """Any chosen set only loses conflicts when cover edges are deleted."""
    rep = tuple(colors[rng.randrange(len(colors))] for colors in cover.lists)
    matchings = tuple(
        tuple(pair for pair in matching if rng.random() >= 0.4)
        for matching in cover.matchings
    )
    thinned = Cover(cover.graph, cover.lists, matchings)
    assert validate_cover(thinned) is None
    before = impropriety(cover, rep)
    after = impropriety(thinned, rep)
    assert all(a <= b for a, b in zip(after, before))


def test_enumerated_count_formula_matches_factorials():
    g = build_graph(3, [(0, 1), (1, 2)])
    lists = ((1, 2, 3), (1, 2, 3), (1, 2, 3))
    assert len(list(enumerate_perfect_covers(g, lists))) == 36 == math.factorial(3) ** 2


@settings(max_examples=50)
@given(covers(max_n=5, max_k=3))
def test_conflicts_read_each_matching_in_both_directions(cover):
    for (u, v), matching in zip(cover.graph.edges, cover.matchings):
        for cu in cover.lists[u]:
            for cv in cover.lists[v]:
                met = (cu, cv) in matching
                assert meets(cover, u, cu, v, cv) is met
                assert meets(cover, v, cv, u, cu) is met


@pytest.mark.parametrize(
    "left, right",
    [((), (1, 2)), ((1,), (1,)), ((1, 2), (1,)), ((1, 2), (1, 2)), ((1, 2, 3), (1, 2)), ((2, 5, 7), (1, 3, 4))],
)
def test_partial_matchings_match_the_pair_subset_scan(left, right):
    assert partial_matchings(left, right) == partial_matchings_scan(left, right)


@pytest.mark.parametrize("k", range(8))
def test_class_leaders_are_the_first_permutation_of_each_cycle_type(k):
    # built from the cycle types, not found by scanning all k! permutations
    leaders = _class_leaders(k)
    assert leaders == [(image, centralizer) for _, image, centralizer in class_leaders_scan(k)]
    assert sum(math.factorial(k) // centralizer for _, centralizer in leaders) == math.factorial(k)


@st.composite
def _list_assignments(draw, n):
    """Lists of 1..6 distinct colors: all of one size or each its own,
    each ascending or in any order."""
    sizes = st.integers(1, 6)
    size = draw(sizes)
    equal = draw(st.booleans())
    ascending = draw(st.booleans())
    out = []
    for _ in range(n):
        k = size if equal else draw(sizes)
        colors = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k, unique=True))
        out.append(tuple(sorted(colors) if ascending else colors))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2**32), st.booleans())
def test_random_cover_draws_as_shuffle_does(data, seed, perfect):
    # the draw tables must read the bit stream exactly as rng.shuffle
    # does, and the sorted fast path must give the sorted matchings
    graph = data.draw(graphs(max_n=7))
    lists = data.draw(_list_assignments(graph.n))
    try:
        expected = shuffled_cover(graph, lists, seed, perfect)
    except UnequalListsError as exc:
        with pytest.raises(UnequalListsError) as raised:
            random_cover(graph, lists, seed, perfect)
        assert str(raised.value) == str(exc)
        return
    assert random_cover(graph, lists, seed, perfect) == expected


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 2**16), st.booleans())
def test_random_cover_holds_one_tuple_per_distinct_matching(data, seed, perfect):
    graph = data.draw(graphs(max_n=7))
    lists = data.draw(_list_assignments(graph.n))
    try:
        cover = random_cover(graph, lists, seed, perfect)
    except UnequalListsError:
        return
    assert len({id(m) for m in cover.matchings}) == len(set(cover.matchings))


@pytest.mark.parametrize("lists", [uniform_assignment(300, 3), ((3, 1, 2), (2, 3, 1)) * 150],
                         ids=["uniform", "not-ascending"])
def test_a_perfect_cover_holds_one_tuple_per_distinct_matching(lists):
    graph = build_graph(300, [(v, w) for v in range(300) for w in (v + 1, v + 7) if w < 300])
    cover = random_cover(graph, lists, 5, perfect=True)
    assert len({id(m) for m in cover.matchings}) == len(set(cover.matchings))
    assert cover == shuffled_cover(graph, lists, 5, perfect=True)


def test_random_cover_draws_as_shuffle_does_on_a_large_uniform_cover():
    graph = build_graph(300, [(v, w) for v in range(300) for w in (v + 1, v + 7) if w < 300])
    for k, perfect in ((3, True), (3, False), (5, True)):
        lists = uniform_assignment(300, k)
        assert random_cover(graph, lists, 11, perfect) == shuffled_cover(graph, lists, 11, perfect)


@st.composite
def _faulty_covers(draw):
    """A random cover with one to three planted faults, each a list that
    repeats a color, a matched color off its list, a color matched twice on
    one edge, or one list or matching too few or too many.  A fault with
    nothing to plant it in (no list, or no pair in any matching) is planted
    as a shape fault, which always applies."""
    cover = draw(covers(max_n=6, max_k=3, perfect=draw(st.booleans())))
    k = len(cover.lists[0])  # every list is 1..k
    lists = [list(colors) for colors in cover.lists]
    matchings = [list(matching) for matching in cover.matchings]
    faults = st.sampled_from(["repeat", "off", "off", "twice", "twice", "twice", "shape"])
    faults = draw(st.lists(faults, min_size=1, max_size=3))
    # each of lists and matchings only shrinks or only grows, so that two
    # shape faults never cancel; it shrinks only when it has a member to
    # give up for every fault
    shrinks = [len(target) >= len(faults) and draw(st.booleans()) for target in (lists, matchings)]
    for fault in faults:
        if fault == "repeat" and lists:
            colors = lists[draw(st.integers(0, len(lists) - 1))]
            colors.insert(draw(st.integers(0, len(colors))), draw(st.sampled_from(colors)))
        elif fault in ("off", "twice") and any(matchings):
            matching = draw(st.sampled_from([m for m in matchings if m]))
            i = draw(st.integers(0, len(matching) - 1))
            cu, cv = matching[i]
            side = draw(st.booleans())
            if fault == "off":
                matching[i] = (0, cv) if side else (cu, 0)
            elif side:
                matching.insert(draw(st.integers(0, len(matching))), (cu, draw(st.integers(1, k))))
            else:  # cv twice, from a color of u matched nowhere else when there is one
                free = sorted(set(range(1, k + 1)).difference(c for c, _ in matching)) or [cu]
                matching.insert(draw(st.integers(0, len(matching))), (draw(st.sampled_from(free)), cv))
        else:  # "shape", or a fault with nothing to plant it in
            which = draw(st.integers(0, 1))
            target = (lists, matchings)[which]
            if shrinks[which]:
                target.pop(draw(st.integers(0, len(target) - 1)))
            else:
                target.append(list(target[-1]) if target else [])
    return Cover(cover.graph, tuple(map(tuple, lists)), tuple(map(tuple, matchings)))


@settings(max_examples=300, deadline=None)
@given(_faulty_covers())
def test_validate_cover_names_what_the_ordered_scan_names(cover):
    # each distinct list and (list, list, matching) triple is checked once;
    # any fault must still be named as the scan over every pair names it,
    # also when lists, matchings and pairs are lists, which cannot be hashed
    listed = Cover(
        cover.graph,
        [list(colors) for colors in cover.lists],
        [[list(pair) for pair in matching] for matching in cover.matchings],
    )
    assert validate_cover(cover) is not None
    assert validate_cover(cover) == cover_violation_scan(cover)
    assert validate_cover(listed) == cover_violation_scan(listed)


class _CountedMatching(tuple):
    """A matching that counts how often it is read pair by pair."""

    reads = 0

    def __iter__(self):
        _CountedMatching.reads += 1
        return super().__iter__()


def test_a_fault_is_named_after_reading_each_distinct_matching_once(monkeypatch):
    # 2,000 edges carry two distinct matchings: the good one is read once
    # and the bad one once, and finding the edge reads none of them
    monkeypatch.setattr(_CountedMatching, "reads", 0)
    path = build_graph(2001, [(v, v + 1) for v in range(2000)])
    good = _CountedMatching(((1, 2), (2, 3), (3, 1)))
    bad = _CountedMatching(((1, 2), (3, 2)))
    cover = Cover(path, uniform_assignment(2001, 3), (good,) * 1999 + (bad,))
    assert validate_cover(cover) == CoverViolation(
        "matching", "edge (1999, 2000): color 2 of 2000 matched twice"
    )
    assert _CountedMatching.reads == 2
    monkeypatch.setattr(_CountedMatching, "reads", 0)
    assert validate_cover(Cover(path, cover.lists, (good,) * 2000)) is None
    assert _CountedMatching.reads == 1


def test_edges_sharing_a_bad_matching_name_the_first():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = ((1, 1), (1, 2))
    cover = Cover(path, uniform_assignment(4, 2), ((((1, 2), (2, 1)),) + (bad,) * 2))
    assert validate_cover(cover) == CoverViolation(
        "matching", "edge (1, 2): color 1 of 1 matched twice"
    )
    bad = ((1, 2), (2, 2))
    cover = Cover(path, uniform_assignment(4, 2), ((((1, 2), (2, 1)),) + (bad,) * 2))
    assert validate_cover(cover) == CoverViolation(
        "matching", "edge (1, 2): color 2 of 2 matched twice"
    )
    off = ((3, 1),)
    cover = Cover(path, ((1, 2), (1, 2, 3), (1, 2), (1, 2, 3)), (off, off, off))
    assert validate_cover(cover) == CoverViolation(
        "fibers", "edge (0, 1): color 3 not in list of 0"
    )


def test_a_malformed_pair_past_the_first_violation_is_not_reached():
    # a pair of three colors raises only when the pass reaches it; the
    # earlier edge's triple comes first and is named
    path = build_graph(3, [(0, 1), (1, 2)])
    cover = Cover(path, uniform_assignment(3, 2), (((1, 1), (1, 2)), ((1, 2, 1),)))
    assert validate_cover(cover) == cover_violation_scan(cover) == CoverViolation(
        "matching", "edge (0, 1): color 1 of 0 matched twice"
    )


@pytest.mark.parametrize("lists, matchings, expected", [
    ([[1, 2], [1, 2]], [[[1, 2], [2, 1]]], None),
    (((1, 2), (1, 2)), [[[1, 2], [2, 2]]],
     CoverViolation("matching", "edge (0, 1): color 2 of 1 matched twice")),
    ([[1, 2], [1, 1]], (((1, 2),),), CoverViolation("fibers", "list of 1 repeats a color: [1, 1]")),
    ([[1, 2], [1, 2]], (((1, 3),),), CoverViolation("fibers", "edge (0, 1): color 3 not in list of 1")),
], ids=["list-typed", "list-typed-matching", "list-typed-lists", "list-typed-lists-off"])
def test_covers_of_lists_still_get_an_answer(lists, matchings, expected):
    # lists cannot be hashed; such covers are checked value by value, in order
    cover = Cover(k2(), lists, matchings)
    assert validate_cover(cover) == expected == cover_violation_scan(cover)
    assert cover.partners == tuple(partners_scan(cover))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2**32), st.booleans())
def test_partners_equal_a_fresh_pair_of_maps_per_edge(data, seed, perfect):
    graph = data.draw(graphs(max_n=7))
    lists = data.draw(_list_assignments(graph.n))
    try:
        cover = random_cover(graph, lists, seed, perfect)
    except UnequalListsError:
        return
    partners = cover.partners
    assert partners == tuple(partners_scan(cover))
    assert all(list(row) == list(graph.adjacency[v]) for v, row in enumerate(partners))


def _snapshot(cover):
    return copy.deepcopy(cover.partners)


def test_shared_partner_maps_are_left_as_built(monkeypatch):
    # edges that carry one matching share its maps, so a caller that wrote
    # to them would change every other edge's; the solver, the pipeline
    # and the scorer only read them
    checked = []
    search = solver.find_rep_set

    def recording(cover, *args, **kwargs):
        checked.append((cover, _snapshot(cover)))
        return search(cover, *args, **kwargs)

    for i, name in enumerate(entry_names()):
        graph = load_catalog(name).graph
        cover = random_cover(graph, uniform_assignment(graph.n, 3), seed=i, perfect=True)
        partners = cover.partners
        shared = {id(row[w]) for row in partners for w in row}
        assert graph.m < 7 or len(shared) < 2 * graph.m
        before = _snapshot(cover)
        rep = find_rep_set(cover, 1)
        if rep is not None:
            impropriety(cover, rep)
        reduce_and_color(cover)
        assert cover.partners is partners and partners == before, name
    monkeypatch.setattr(solver, "find_rep_set", recording)
    for name in ("k4", "bowtie"):
        graph = load_catalog(name).graph
        is_dp_colorable(graph, 3, 1)
    assert checked
    assert all(cover.partners == before for cover, before in checked)
