import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dpcolor.solver import _class_leaders, impropriety

from oracles import (
    class_leaders_scan,
    diagonal_cover,
    enumerate_perfect_covers,
    meets,
    partial_matchings_scan,
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


def test_random_cover_draws_as_shuffle_does_on_a_large_uniform_cover():
    graph = build_graph(300, [(v, w) for v in range(300) for w in (v + 1, v + 7) if w < 300])
    for k, perfect in ((3, True), (3, False), (5, True)):
        lists = uniform_assignment(300, k)
        assert random_cover(graph, lists, 11, perfect) == shuffled_cover(graph, lists, 11, perfect)
