"""Golden outputs of the coloring pipeline, pinned byte for byte.

``data/pipeline_golden.json`` holds, per case, the sha256 of the coloring
document followed by the trace document, or of ``"ERR <Class>: <message>"``
when the pipeline raises.  The cases are every catalog entry, generator
outputs for n = 10..60, and seeded graphs with minimum degree 3 that go
through the engine entry point (so ``four-three-threes`` fires and the
no-configuration error is exercised).

Regenerate with ``PYTHONPATH=src python tests/test_pipeline_golden.py``;
only do so for an intended change of output.
"""

import hashlib
import json
import random
from pathlib import Path

from dpcolor.catalog import entry_names, load as load_catalog
from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.errors import DpColorError
from dpcolor.fileio import coloring_to_text, trace_to_text
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph
from dpcolor.reduction import color_planar_no46, reduce_and_color
from dpcolor.solver import impropriety

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
GOLDEN_FORMAT = "dpcolor-pipeline-golden/1"


def _mixed_lists(n: int, seed: int):
    """Lists of size 3 or 4 drawn from 1..6, so colors differ per vertex."""
    rng = random.Random(7919 * seed + n)
    return tuple(
        tuple(sorted(rng.sample(range(1, 7), rng.choice((3, 4))))) for _ in range(n)
    )


def _cover(graph, seed: int):
    """Perfect 3-list cover for seeds 0 and 1 (mod 3), thinned mixed lists else."""
    if seed % 3 == 2:
        return random_cover(graph, _mixed_lists(graph.n, seed), seed)
    return random_cover(graph, uniform_assignment(graph.n, 3), seed, perfect=True)


def _configuration_graph(degrees, rng):
    """Random pairing of degree stubs; loops and repeated pairs are dropped."""
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
    return build_graph(len(degrees), sorted(pairs))


def _biregular_34(k: int, rng):
    """A (3,4)-biregular bipartite graph on 3k + 4k vertices, labels shuffled."""
    labels = list(range(7 * k))
    rng.shuffle(labels)
    fours, threes = labels[: 3 * k], labels[3 * k :]
    for _ in range(2000):
        stubs = [t for t in threes for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for i, f in enumerate(f for f in fours for _ in range(4)):
            edges.add((min(f, stubs[i]), max(f, stubs[i])))
        if len(edges) == 12 * k:
            return build_graph(7 * k, sorted(edges))
    raise RuntimeError("no simple biregular pairing found")


def engine_graphs():
    """(name, graph) pairs: 25 biregular and 25 mixed degree-3/4/5 graphs."""
    out = []
    for i in range(25):
        rng = random.Random(1000 + i)
        k = 1 + i % 5
        out.append((f"biregular34-k{k}-s{i}", _biregular_34(k, rng)))
    for i in range(25):
        rng = random.Random(2000 + i)
        n = 8 + 2 * i
        weights = ((6, 3, 1), (3, 3, 2), (1, 2, 8))[i % 3]
        degrees = rng.choices((3, 4, 5), weights=weights, k=n)
        if sum(degrees) % 2:
            degrees[0] += 1 if degrees[0] < 5 else -1
        out.append((f"mixed345-n{n}-s{i}", _configuration_graph(degrees, rng)))
    return out


def outcome_text(run, cover) -> str:
    """Coloring plus trace documents of ``run()``, or its error line."""
    try:
        result = run()
    except DpColorError as exc:
        return f"ERR {type(exc).__name__}: {exc}"
    counts = impropriety(cover, result.rep_set)
    return coloring_to_text(result.rep_set, counts) + trace_to_text(result.trace)


def golden_cases():
    """Yield (case id, text producer) for every pinned case."""
    for name in entry_names():
        pg = load_catalog(name)
        for seed in range(5):
            cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed, perfect=True)
            yield f"catalog:{name}:{seed}", (
                lambda pg=pg, cover=cover: outcome_text(lambda: color_planar_no46(pg, cover), cover)
            )
    for n in range(10, 61):
        pg = generate_plane_no46(n, seed=n)
        for seed in range(3):
            cover = _cover(pg.graph, seed)
            yield f"gen:{n}:{seed}", (
                lambda pg=pg, cover=cover: outcome_text(lambda: color_planar_no46(pg, cover), cover)
            )
    for name, graph in engine_graphs():
        for seed in range(2):
            cover = _cover(graph, seed * 2)
            yield f"engine:{name}:{seed * 2}", (
                lambda cover=cover: outcome_text(lambda: reduce_and_color(cover), cover)
            )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pipeline_reproduces_golden_hashes():
    expected = json.loads(GOLDEN.read_text())
    assert expected["format"] == GOLDEN_FORMAT
    got = {case: _digest(produce()) for case, produce in golden_cases()}
    assert sorted(got) == sorted(expected["cases"])
    differing = [case for case in got if got[case] != expected["cases"][case]]
    assert not differing, f"{len(differing)} cases differ, first {differing[:5]}"


def write_golden() -> None:
    cases = {case: _digest(produce()) for case, produce in golden_cases()}
    doc = {"format": GOLDEN_FORMAT, "cases": cases}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
