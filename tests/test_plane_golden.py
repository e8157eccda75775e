"""Golden outputs of the plane-graph layers, pinned byte for byte.

``data/plane_golden.json`` holds, per case, a sha256:

* ``audit:<plane>:<format>``: exit code, stdout and stderr of
  ``dpcolor audit --format json|table`` on every catalog entry (on
  those with 4- or 6-cycles the table is the initial charges, and json
  exits 2), on
  ``generate_plane_no46(n, seed=n)`` for n = 10..60, and on triangle
  chains and fans built here;
* ``gen:<n>``: ``plane_to_text(generate_plane_no46(n, seed=n))`` for
  n = 10..60, 200, 400, 1600 and 3200, and ``gen:<n>:seed<s>``: the same text with
  ``seed=s`` for n = 25, 50, 100 (the ``gen`` benchmark's sizes) and
  s = 0..9; these pin the generator;
* ``propositions:<name>``: every entry of ``oracles.check_propositions``
  on the 4-/6-cycle-free catalog.

Regenerate with ``PYTHONPATH=src python tests/test_plane_golden.py``;
only do so for an intended change of output.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from dpcolor.catalog import entry_names, load as load_catalog, no46_names
from dpcolor.cli import main
from dpcolor.embedding import plane_from_rotations
from dpcolor.fileio import plane_to_text
from dpcolor.generate import generate_plane_no46

from oracles import check_propositions

GOLDEN = Path(__file__).parent / "data" / "plane_golden.json"
GOLDEN_FORMAT = "dpcolor-plane-golden/1"


def triangle_chain(triangles: int):
    """Triangles ``(2i, 2i+1, 2i+2)`` joined at the cut vertices ``2i``."""
    n = 2 * triangles + 1
    rotations = []
    for v in range(n):
        if v % 2:
            rotations.append([v - 1, v + 1])
            continue
        ring = [v + 2, v + 1] if v + 2 < n else []
        rotations.append(ring + ([v - 1, v - 2] if v > 0 else []))
    return rotations


def fan(blades: int, pendant: bool):
    """Triangles ``(0, a, b)`` sharing vertex 0; ``a`` carries two leaves.

    Without ``pendant``, ``b`` carries two leaves too, so every corner but
    the centre has degree 4.  With it, ``b`` has degree 3 and its one
    neighbor off the triangle is a 4-vertex with three leaves, which makes
    the triangle a pendant 3-face of that vertex once the centre has
    degree 4 or more.
    """
    step = 8 if pendant else 6
    rotations = [[]]
    for i in range(blades):
        a, b = 1 + step * i, 2 + step * i
        rotations[0] += [a, b]
        rotations += [[b, 0, a + 2, a + 3]]
        if pendant:
            c = b + 3
            rotations += [[0, a, c], [a], [a], [b, c + 1, c + 2, c + 3], [c], [c], [c]]
        else:
            rotations += [[0, a, b + 3, b + 4], [a], [a], [b], [b]]
    return rotations


def audit_planes():
    """(name, plane graph) pairs fed to ``dpcolor audit``."""
    out = [(f"catalog-{name}", load_catalog(name)) for name in entry_names()]
    out += [(f"gen-{n}", generate_plane_no46(n, seed=n)) for n in range(10, 61)]
    out += [(f"chain-{t}", plane_from_rotations(triangle_chain(t))) for t in (1, 2, 5, 20)]
    out += [(f"fan-{k}", plane_from_rotations(fan(k, pendant=False))) for k in (1, 3, 8)]
    out += [(f"pendant-fan-{k}", plane_from_rotations(fan(k, pendant=True))) for k in (1, 2, 5)]
    return out


def run_cli(argv) -> str:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def propositions_text(pg) -> str:
    return "".join(
        f"{e.check}|{e.subject}|{e.passed}|{e.detail}\n"
        for e in check_propositions(pg).entries
    )


def golden_texts():
    """Yield (case id, text) for every pinned case."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, pg in audit_planes():
            path = Path(tmp) / f"{name}.json"
            path.write_text(plane_to_text(pg))
            for fmt in ("json", "table"):
                yield f"audit:{name}:{fmt}", run_cli(["audit", str(path), "--format", fmt])
    for n in [*range(10, 61), 200, 400, 1600, 3200]:
        yield f"gen:{n}", plane_to_text(generate_plane_no46(n, seed=n))
    for n in (25, 50, 100):
        for seed in range(10):
            yield f"gen:{n}:seed{seed}", plane_to_text(generate_plane_no46(n, seed=seed))
    for name in no46_names():
        yield f"propositions:{name}", propositions_text(load_catalog(name))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plane_layers_reproduce_golden_hashes():
    expected = json.loads(GOLDEN.read_text())
    assert expected["format"] == GOLDEN_FORMAT
    got = {case: _digest(text) for case, text in golden_texts()}
    assert sorted(got) == sorted(expected["cases"])
    differing = [case for case in got if got[case] != expected["cases"][case]]
    assert not differing, f"{len(differing)} cases differ, first {differing[:5]}"


def write_golden() -> None:
    cases = {case: _digest(text) for case, text in golden_texts()}
    doc = {"format": GOLDEN_FORMAT, "cases": cases}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
