"""Build and check the frozen benchmark inputs in ``instances.json``.

Run from the repository root:  python3 benchmarks/freeze.py

The plane graphs come from the constructors in ``families.py`` and from
``dpcolor``'s generator at fixed seeds; once frozen, later generator
changes no longer move the ``theorem`` and ``audit`` inputs.  Each plane
graph is checked two ways before it is written: the Euler identity, via
``dpcolor.embedding.trace_faces`` and via this directory's own face count,
and the absence of 4- and 6-cycles, with ``networkx.simple_cycles`` as an
oracle independent of ``dpcolor``.

The ``search`` covers are random perfect 3-list covers of triangulated
grids.  Their SAT/UNSAT answers for impropriety 0 are set here by
``dp_search`` below, an exhaustive search that does not use
``dpcolor.solver``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import networkx as nx  # noqa: E402

import families  # noqa: E402
from dpcolor.embedding import trace_faces  # noqa: E402
from dpcolor.generate import generate_plane_no46  # noqa: E402
from dpcolor.graphs import build_graph  # noqa: E402

OUT = HERE / "instances.json"

# Generator outputs shared by ``theorem`` and ``audit``: one per n, seed n.
GEN_SIZES = range(12, 112)
# Grid shape -> number of frozen covers.
GRID_COVERS = {(4, 4): 20, (4, 8): 20, (6, 6): 20, (7, 7): 60, (8, 8): 24}
LEMMA_LINES = [
    "low-vertex: 1/1 covers colorable",
    "adjacent-threes: 2/2 covers colorable",
    "four-three-threes: 27/27 covers colorable",
]
# The DP-chromatic number of K_n is n.
DP_CHROMATIC_K4 = 4


def plane_graphs() -> dict[str, list[list[int]]]:
    planes: dict[str, list[list[int]]] = {}
    for k in (50, 100, 200, 400):
        planes[f"chain-{2 * k + 1}"] = families.triangle_chain(k)
    for k in range(3, 25, 3):
        planes[f"chain-{2 * k + 1}"] = families.triangle_chain(k)
    for copies in (1, 2, 3, 4, 5, 10, 20, 40):
        planes[f"dodec-{20 * copies}"] = families.dodecahedron_chain(copies)
    for n in (130, 260, 520, 1040):
        planes[f"path-{n}"] = families.path(n)
    for n in range(10, 101, 15):
        planes[f"path-{n}"] = families.path(n)
    for blades in list(range(1, 13)) + [16, 32, 64, 128, 256]:
        planes[f"fan-{6 * blades + 1}"] = families.fan(blades)
    for n in GEN_SIZES:
        planes[f"gen-{n}"] = [list(ring) for ring in generate_plane_no46(n, n).rotation]
    return planes


def has_4_or_6_cycle(n: int, edges) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return any(len(c) in (4, 6) for c in nx.simple_cycles(graph, length_bound=6))


def check_plane(name: str, rotations) -> dict:
    n = len(rotations)
    edges = families.edges_of(rotations)
    faces = families.face_count(rotations)
    pg = trace_faces(build_graph(n, edges), rotations)
    if len(pg.faces) != faces or n - len(edges) + faces != 2:
        raise SystemExit(f"{name}: Euler check failed ({n}, {len(edges)}, {faces})")
    if not families.is_connected(n, edges):
        raise SystemExit(f"{name}: not connected")
    if has_4_or_6_cycle(n, edges):
        raise SystemExit(f"{name}: has a 4- or 6-cycle")
    return {"n": n, "m": len(edges), "faces": faces, "rotations": rotations}


def random_perfect_cover(edges, rng: random.Random) -> str:
    """One permutation of 1..3 per edge, as three digits: color c at the
    smaller endpoint is matched to digit c at the larger one."""
    perms = []
    for _ in edges:
        image = ["1", "2", "3"]
        rng.shuffle(image)
        perms.append("".join(image))
    return "".join(perms)


def matchings_of(perms: str) -> list[list[list[int]]]:
    return [
        [[c, int(perms[3 * i + c - 1])] for c in (1, 2, 3)]
        for i in range(len(perms) // 3)
    ]


def dp_search(n: int, edges, matchings) -> list[int] | None:
    """A conflict-free choice of one color per vertex, or None.

    Exhaustive backtracking: always branch on the unassigned vertex with
    the fewest colors left, and strike each chosen color's matched partner
    from the neighbor's colors.
    """
    partner: list[dict[int, dict[int, int]]] = [dict() for _ in range(n)]
    for (u, v), pairs in zip(edges, matchings):
        partner[u][v] = {cu: cv for cu, cv in pairs}
        partner[v][u] = {cv: cu for cu, cv in pairs}
    domains = [{1, 2, 3} for _ in range(n)]
    chosen: list[int | None] = [None] * n

    def solve() -> bool:
        free = [v for v in range(n) if chosen[v] is None]
        if not free:
            return True
        v = min(free, key=lambda x: len(domains[x]))
        for c in sorted(domains[v]):
            struck = []
            dead = False
            for w, pairs in partner[v].items():
                if chosen[w] is None and pairs.get(c) in domains[w]:
                    domains[w].discard(pairs[c])
                    struck.append((w, pairs[c]))
                    dead = dead or not domains[w]
            chosen[v] = c
            if not dead and solve():
                return True
            chosen[v] = None
            for w, cw in struck:
                domains[w].add(cw)
        return False

    return list(chosen) if solve() else None  # type: ignore[arg-type]


def grid_covers() -> dict[str, dict]:
    covers = {}
    rng = random.Random("dpcolor-bench-covers")
    for (rows, cols), count in GRID_COVERS.items():
        n, edges = families.triangulated_grid(rows, cols)
        for i in range(count):
            perms = random_perfect_cover(edges, rng)
            witness = dp_search(n, edges, matchings_of(perms))
            covers[f"grid-{rows}x{cols}-c{i}"] = {
                "rows": rows,
                "cols": cols,
                "perms": perms,
                "sat": witness is not None,
            }
    return covers


def main() -> int:
    planes = {name: check_plane(name, rot) for name, rot in plane_graphs().items()}
    covers = grid_covers()
    doc = {
        "format": "dpcolor-bench-instances/1",
        "planes": planes,
        "covers": covers,
        "lemma_lines": LEMMA_LINES,
        "dp_chromatic_k4": DP_CHROMATIC_K4,
    }
    OUT.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    sat = sum(c["sat"] for c in covers.values())
    print(f"wrote {OUT.name}: {len(planes)} plane graphs, "
          f"{len(covers)} covers ({sat} SAT, {len(covers) - sat} UNSAT)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
