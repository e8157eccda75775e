"""Golden outputs of the solvers and the cover enumerators, pinned byte for byte.

``data/solver_golden.json`` holds, per case, a sha256:

* ``solve:<graph>:<cover>:<seed>:d<d>:search``: exit code, stdout and
  stderr of ``dpcolor solve`` on seeded ``random_cover``s of every catalog
  graph (perfect 2-lists, perfect 3-lists and thinned 3-lists), with
  ``-d 0`` and ``-d 1``;
* ``solve:random-<i>:...``: the same on seeded dense random graphs where
  the search backtracks deeply;
* ``lemma:all``: the same for ``dpcolor lemma all``;
* ``reducible:<kind>:<sizes>``: the report of ``verify_config_reducible``
  above the floor sizes;
* ``chromatic:<graph>``: ``dp_chromatic`` of small catalog graphs;
* ``enumerate:<case>``: the matchings of every cover the reference
  ``oracles.enumerate_perfect_covers`` yields, in order, with and without
  ``free_edges``, or the error it raises.

Regenerate with ``PYTHONPATH=src python tests/test_solver_golden.py``;
only do so for an intended change of output.

The same catalog covers, wherever the product of their list sizes is at
most ``BRUTE_BUDGET``, are also decided by ``oracles.brute_force_rep_set``,
and the search and ``dpcolor solve`` must agree with it.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

from dpcolor.catalog import entry_names, load as load_catalog
from dpcolor.cli import main
from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.errors import DpColorError
from dpcolor.fileio import coloring_from_text, cover_to_text
from dpcolor.graphs import build_graph
from dpcolor.reduction import ConfigKind, verify_config_reducible
from dpcolor.solver import dp_chromatic, find_rep_set, max_impropriety

from oracles import brute_force_rep_set, enumerate_perfect_covers

GOLDEN = Path(__file__).parent / "data" / "solver_golden.json"
GOLDEN_FORMAT = "dpcolor-solver-golden/1"

BRUTE_BUDGET = 20_000
CHROMATIC_GRAPHS = ("k1", "k2", "k3", "k4", "c4", "c5", "path4", "star5", "bowtie")
K3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
C4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P3 = build_graph(3, [(0, 1), (1, 2)])

# (case, graph, lists, free_edges, budget)
ENUMERATIONS = (
    ("k3-k2", K3, uniform_assignment(3, 2), None, 10**6),
    ("k3-k3", K3, uniform_assignment(3, 3), None, 10**6),
    ("k3-k3-free-1", K3, uniform_assignment(3, 3), [1], 10**6),
    ("c4-k2-free-0-3", C4, uniform_assignment(4, 2), [0, 3], 10**6),
    ("c4-k3-free-none", C4, uniform_assignment(4, 3), [], 10**6),
    ("p3-mixed-colors", P3, ((1, 2, 3), (4, 6, 9), (2, 5, 7)), None, 10**6),
    ("p3-mixed-free-1", P3, ((3, 1), (6, 4), (7, 5)), [1], 10**6),
    ("k4-k2-tree-pinned", load_catalog("k4").graph, uniform_assignment(4, 2), [3, 4, 5], 10**6),
    ("k4-k3-over-budget", load_catalog("k4").graph, uniform_assignment(4, 3), None, 1000),
    ("p3-unequal", P3, ((1, 2), (1, 2, 3), (1, 2, 3)), None, 10**6),
)
REDUCIBLE_SIZES = (
    (ConfigKind.LOW_VERTEX, (3,)),
    (ConfigKind.ADJACENT_THREES, (2, 1)),
    (ConfigKind.ADJACENT_THREES, (2, 2)),
    (ConfigKind.FOUR_THREE_THREES, (2, 2, 1, 1)),
    (ConfigKind.FOUR_THREE_THREES, (3, 1, 1, 1)),
)


def random_graph(i: int):
    """Seeded G(n, p) with n = 12..15 and p = 0.35 or 0.45."""
    rng = random.Random(4000 + i)
    n, p = 12 + i % 4, (0.35, 0.45)[i % 2]
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def solve_covers(graph):
    """(cover id, cover) pairs: perfect 2- and 3-lists, thinned 3-lists."""
    for seed in (0, 1):
        for k in (2, 3):
            yield f"perfect{k}:{seed}", random_cover(
                graph, uniform_assignment(graph.n, k), seed, perfect=True
            )
        yield f"partial3:{seed}", random_cover(graph, uniform_assignment(graph.n, 3), seed)


def run_cli(argv) -> str:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def enumeration_text(graph, lists, free_edges, budget) -> str:
    try:
        covers = list(enumerate_perfect_covers(graph, lists, budget, free_edges))
    except DpColorError as exc:
        return f"ERR {type(exc).__name__}: {exc}\n"
    return "".join(f"{list(map(list, c.matchings))}\n" for c in covers)


def golden_texts():
    """Yield (case id, text) for every pinned case."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in entry_names():
            graph = load_catalog(name).graph
            for cover_id, cover in solve_covers(graph):
                path = Path(tmp) / f"{name}.json"
                path.write_text(cover_to_text(cover))
                for d in ("0", "1"):
                    yield (
                        f"solve:{name}:{cover_id}:d{d}:search",
                        run_cli(["solve", str(path), "-d", d]),
                    )
        for i in range(12):
            path = Path(tmp) / f"random-{i}.json"
            graph = random_graph(i)
            for cover_id, cover in solve_covers(graph):
                path.write_text(cover_to_text(cover))
                for d in ("0", "1"):
                    yield (
                        f"solve:random-{i}:{cover_id}:d{d}:search",
                        run_cli(["solve", str(path), "-d", d]),
                    )
    yield "lemma:all", run_cli(["lemma", "all"])
    for kind, sizes in REDUCIBLE_SIZES:
        report = verify_config_reducible(kind, sizes)
        yield (
            f"reducible:{kind.value}:{sizes}",
            f"{report.total_covers} {report.verified} {report.counterexample}\n",
        )
    for name in CHROMATIC_GRAPHS:
        yield f"chromatic:{name}", f"{dp_chromatic(load_catalog(name).graph)}\n"
    for case, graph, lists, free, budget in ENUMERATIONS:
        yield f"enumerate:{case}", enumeration_text(graph, lists, free, budget)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_solvers_and_enumerators_reproduce_golden_hashes():
    expected = json.loads(GOLDEN.read_text())
    assert expected["format"] == GOLDEN_FORMAT
    got = {case: _digest(text) for case, text in golden_texts()}
    assert sorted(got) == sorted(expected["cases"])
    differing = [case for case in got if got[case] != expected["cases"][case]]
    assert not differing, f"{len(differing)} cases differ, first {differing[:5]}"


def test_search_and_solve_agree_with_the_exhaustive_scan(tmp_path):
    # the catalog covers small enough to scan: per d, the search, the exit
    # code of dpcolor solve and the coloring it writes against the oracle
    path, out = tmp_path / "cover.json", tmp_path / "coloring.json"
    cases = unsat = 0
    for name in entry_names():
        for cover_id, cover in solve_covers(load_catalog(name).graph):
            if math.prod(map(len, cover.lists)) > BRUTE_BUDGET:
                continue
            path.write_text(cover_to_text(cover))
            for d in (0, 1):
                case = (name, cover_id, d)
                expected = brute_force_rep_set(cover, d, BRUTE_BUDGET) is not None
                found = find_rep_set(cover, d)
                assert (found is not None) == expected, case
                out.unlink(missing_ok=True)
                code = main(["solve", str(path), "-d", str(d), "-o", str(out)])
                assert code == (0 if expected else 1), case
                if expected:
                    assert max_impropriety(cover, found) <= d, case
                    colors, _ = coloring_from_text(out.read_text())
                    assert max_impropriety(cover, colors) <= d, case
                else:
                    assert not out.exists(), case
                cases += 1
                unsat += not expected
    assert 0 < unsat < cases


def write_golden() -> None:
    cases = {case: _digest(text) for case, text in golden_texts()}
    doc = {"format": GOLDEN_FORMAT, "cases": cases}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
