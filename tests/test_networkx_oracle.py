"""Face tracing and the cycle search, cross-checked against networkx.

networkx is a test-only oracle, never a runtime dependency; without it
these tests are skipped.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcolor.catalog import entry_names, load as load_catalog
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph, has_forbidden_cycles, smallest_forbidden_cycle

from oracles import face_walks

nx = pytest.importorskip("networkx")

LENGTHS = (4, 6)


def nx_graph(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    return g


def face_arc_sets(walks):
    return sorted(sorted(walk) for walk in walks)


def nx_faces_of(embedding):
    """Face walks of a networkx embedding, as lists of directed edges."""
    seen = set()
    walks = []
    for u, v in embedding.edges():
        if (u, v) not in seen:
            nodes = embedding.traverse_face(u, v, mark_half_edges=seen)
            walks.append([(a, nodes[(i + 1) % len(nodes)]) for i, a in enumerate(nodes)])
    return walks


def rotation_embedding(pg):
    """Our rotation system as a networkx embedding, each ring in clockwise order."""
    embedding = nx.PlanarEmbedding()
    embedding.add_nodes_from(range(pg.graph.n))
    for v, ring in enumerate(pg.rotation):
        for i, w in enumerate(ring):
            embedding.add_half_edge(v, w, ccw=ring[i - 1] if i else None)
    return embedding


def check_faces(pg):
    planar, embedding = nx.check_planarity(nx_graph(pg.graph))
    assert planar
    n, m = pg.graph.n, pg.graph.m
    assert len(pg.faces) == 2 - n + m
    if m == 0:
        return
    assert len(nx_faces_of(embedding)) == len(pg.faces)
    ours = rotation_embedding(pg)
    ours.check_structure()
    # networkx turns the other way round a vertex: its faces are ours reversed
    mirrored = [[(b, a) for a, b in walk] for walk in nx_faces_of(ours)]
    assert face_arc_sets(mirrored) == face_arc_sets(face_walks(pg))


def canonical(cycle):
    i = cycle.index(min(cycle))
    turned = tuple(cycle[i:]) + tuple(cycle[:i])
    return min(turned, (turned[0],) + turned[:0:-1])


def check_cycles(graph):
    g = nx_graph(graph)
    leasts = []  # the least cycle of each length that has one
    for k in LENGTHS:
        expected = sorted(canonical(c) for c in nx.simple_cycles(g, length_bound=k) if len(c) == k)
        leasts += expected[:1]
    assert has_forbidden_cycles(graph) is bool(leasts)
    assert smallest_forbidden_cycle(graph.adjacency, graph.edges) == next(iter(leasts), None)


@pytest.mark.parametrize("name", entry_names())
def test_catalog_faces_and_cycles_agree_with_networkx(name):
    pg = load_catalog(name)
    check_faces(pg)
    check_cycles(pg.graph)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_generated_faces_and_cycles_agree_with_networkx(n, seed):
    pg = generate_plane_no46(n, seed)
    check_faces(pg)
    check_cycles(pg.graph)


def closes_4_cycle(g, u, v):
    """True iff adding edge uv to networkx graph ``g`` makes a 4-cycle."""
    return any(g.has_edge(a, b) for a in g[u] for b in g[v] if a != v and b != u and a != b)


def random_graphs(seed):
    """Graphs on one vertex set: a G(n, m), a K_{2,n}-like graph of two hubs
    with a few extra edges, and a graph grown edge by edge with no 4-cycle."""
    rng = random.Random(seed)
    n = rng.randint(6, 22)
    dense = nx.gnm_random_graph(n, rng.randint(n, 2 * n), seed=seed)
    hubs = nx.empty_graph(n)
    hubs.add_edges_from((h, v) for v in range(2, n) for h in rng.sample((0, 1), rng.randint(1, 2)))
    hubs.add_edges_from(rng.sample(range(n), 2) for _ in range(rng.randint(0, 3)))
    no4 = nx.empty_graph(n)
    for _ in range(3 * n):
        u, v = rng.sample(range(n), 2)
        if not no4.has_edge(u, v) and not closes_4_cycle(no4, u, v):
            no4.add_edge(u, v)
    return dense, hubs, no4


def test_four_and_six_cycle_checks_agree_with_networkx_on_seeded_graphs():
    # the 6-check runs only on graphs with no 4-cycle, so those must come
    # up both with and without a 6-cycle, besides graphs with a 4-cycle
    seen = set()
    for seed in range(60):
        for g in random_graphs(seed):
            graph = build_graph(g.number_of_nodes(), g.edges)
            expected = tuple(
                any(len(c) == k for c in nx.simple_cycles(g, length_bound=k)) for k in (4, 6)
            )
            assert has_forbidden_cycles(graph) is any(expected), seed
            seen.add(expected)
    assert {(False, False), (False, True)} < seen
