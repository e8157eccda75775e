"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them) and enforces the stated runtime budget where one applies.
"""

import math
import time
from itertools import combinations, permutations

from dpcolor.catalog import load as load_catalog, no46_names
from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.discharging import apply_rules, audit_cases, initial_charges
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph
from dpcolor.reduction import (
    ConfigKind,
    color_planar_no46,
    verify_config_reducible,
)
from dpcolor.solver import (
    brute_force_rep_set,
    dp_chromatic,
    find_rep_set,
    max_impropriety,
)

from oracles import diagonal_cover, enumerate_perfect_covers, relaxed_list_colorable
from test_reduction import excises_every_vertex


def _report(number, name, outcome):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if outcome else 'FAIL'}")


def _criterion(number, name):
    """Decorator printing the PASS/FAIL line for one criterion."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                _report(number, name, False)
                raise
            _report(number, name, True)

        run.__name__ = fn.__name__
        return run

    return wrap


@_criterion(1, "lemma reducibility, exhaustive")
def test_criterion_1_lemma_reducibility():
    started = time.perf_counter()
    expected = {
        ConfigKind.LOW_VERTEX: 1,
        ConfigKind.ADJACENT_THREES: 2,
        ConfigKind.FOUR_THREE_THREES: 27,
    }
    for kind, count in expected.items():
        report = verify_config_reducible(kind)
        assert report.ok, f"{kind}: counterexample {report.counterexample}"
        assert report.total_covers == report.verified == count
    assert time.perf_counter() - started < 1.0


@_criterion(2, "structural corollary: a reducible configuration always exists")
def test_criterion_2_config_existence():
    started = time.perf_counter()
    for name in no46_names():
        graph = load_catalog(name).graph
        assert excises_every_vertex(graph), name
    for seed in range(500):
        n = 1 + (seed * 13) % 20
        pg = generate_plane_no46(n, seed)
        assert excises_every_vertex(pg.graph), (n, seed)
    assert time.perf_counter() - started < 30.0


@_criterion(3, "pipeline soundness on 50 random covers per instance")
def test_criterion_3_pipeline_soundness():
    for name in no46_names():
        pg = load_catalog(name)
        if 3**pg.graph.n > 3**8:
            continue
        lists = uniform_assignment(pg.graph.n, 3)
        for seed in range(50):
            cover = random_cover(pg.graph, lists, seed, perfect=True)
            result = color_planar_no46(pg, cover)
            assert max_impropriety(cover, result.rep_set) <= 1, (name, seed)
            assert brute_force_rep_set(cover, 1) is not None, (name, seed)


@_criterion(4, "exhaustive relaxed colorability over all perfect covers")
def test_criterion_4_exhaustive_micro():
    started = time.perf_counter()
    checked = 0
    for name in no46_names():
        pg = load_catalog(name)
        if pg.graph.m > 5:
            continue
        lists = uniform_assignment(pg.graph.n, 3)
        expected = math.factorial(3) ** pg.graph.m
        count = 0
        for cover in enumerate_perfect_covers(pg.graph, lists):
            assert find_rep_set(cover, 1) is not None, (name, cover.matchings)
            count += 1
        assert count == expected, name
        checked += count
    assert checked == 1 + 6 + 216 + 216 + 1296 + 7776  # k1 k2 k3 path4 star5 c5
    assert time.perf_counter() - started < 300.0


def _graphs_on_5_vertices_up_to_iso():
    """One representative per isomorphism class of edge subsets of K5."""
    pairs = list(combinations(range(5), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        canon = min(
            tuple(
                sorted(
                    tuple(sorted((perm[u], perm[v]))) for u, v in edges
                )
            )
            for perm in permutations(range(5))
        )
        if canon not in seen:
            seen.add(canon)
            out.append(build_graph(5, edges))
    return out


@_criterion(5, "diagonal covers agree with direct relaxed list coloring")
def test_criterion_5_diagonal_equivalence():
    classes = _graphs_on_5_vertices_up_to_iso()
    assert len(classes) == 34  # number of graphs on five unlabeled vertices
    for graph in classes:
        for k in (2, 3):
            lists = uniform_assignment(graph.n, k)
            for d in (0, 1):
                ours = find_rep_set(diagonal_cover(graph, lists), d)
                reference = relaxed_list_colorable(graph, lists, d)
                assert (ours is None) == (reference is None), (graph.edges, k, d)


@_criterion(6, "DP-chromatic of the 4-cycle exceeds its choosability")
def test_criterion_6_dp_vs_list_separation():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert dp_chromatic(c4) == 3
    # Direct brute force: C4 is colorable from *every* 2-list assignment
    # with no conflicts allowed.  Any assignment renames into an 8-color
    # universe with the first list fixed to {1, 2}, so scanning those
    # covers all assignments.
    universe = range(1, 9)
    two_lists = list(combinations(universe, 2))
    for l1 in two_lists:
        for l2 in two_lists:
            for l3 in two_lists:
                lists = ((1, 2), l1, l2, l3)
                assert relaxed_list_colorable(c4, lists, 0) is not None, lists


@_criterion(7, "charge totals are exactly -12 and audited finals nonnegative")
def test_criterion_7_charge_exactness():
    from dpcolor.catalog import entry_names

    for name in entry_names():
        pg = load_catalog(name)
        assert initial_charges(pg).initial_total == -72, name
        if pg.graph.has_forbidden_cycles:
            continue
        ledger = apply_rules(pg)
        report = audit_cases(pg, ledger)
        assert report.initial_total == report.final_total == -72, name
        assert not report.failures(), (name, report.failures())
    for seed in range(200):
        n = 1 + (seed * 11) % 20
        pg = generate_plane_no46(n, seed)
        ledger = apply_rules(pg)
        report = audit_cases(pg, ledger)
        assert report.initial_total == report.final_total == -72
        assert not report.failures(), (n, seed, report.failures())


@_criterion(8, "solver and oracle agree on 200 random covers")
def test_criterion_8_oracle_equivalence_fuzz():
    import random

    started = time.perf_counter()
    rng = random.Random(20250809)
    for trial in range(200):
        n = rng.randint(1, 6)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in possible if rng.random() < 0.5]
        graph = build_graph(n, edges)
        k = rng.randint(1, 3)
        d = rng.randint(0, 1)
        cover = random_cover(
            graph, uniform_assignment(n, k), seed=rng.randrange(2**30)
        )
        fast = find_rep_set(cover, d)
        slow = brute_force_rep_set(cover, d)
        assert (fast is None) == (slow is None), (trial, graph.edges, k, d)
        if fast is not None:
            assert max_impropriety(cover, fast) <= d
    assert time.perf_counter() - started < 60.0
