import json

import pytest

from dpcolor.catalog import load as load_catalog
from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.errors import FileFormatError, InvalidRotationError
from dpcolor.fileio import (
    GRAPH_HEADER,
    cover_from_text,
    cover_to_text,
    graph_from_text,
    graph_to_text,
    plane_from_text,
    plane_to_text,
    trace_from_text,
    trace_to_text,
)
from dpcolor.graphs import build_graph
from dpcolor.reduction import color_planar_no46


def test_graph_text_round_trip():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    text = graph_to_text(g)
    assert text.splitlines()[0] == GRAPH_HEADER
    assert text.splitlines()[1] == "5 5"
    assert graph_from_text(text) == g


def test_graph_text_tolerates_comments_and_blanks():
    text = "# note\n\n3 2\n0 1\n# middle\n1 2\n"
    g = graph_from_text(text)
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_graph_text_bad_counts():
    with pytest.raises(FileFormatError):
        graph_from_text("3 2\n0 1\n")
    with pytest.raises(FileFormatError):
        graph_from_text("")


def test_plane_round_trip():
    pg = load_catalog("bowtie")
    text = plane_to_text(pg)
    again = plane_from_text(text)
    assert again.graph == pg.graph and again.rotation == pg.rotation
    assert plane_to_text(again) == text


def test_plane_format_guard():
    with pytest.raises(FileFormatError):
        plane_from_text('{"format": "something-else"}')
    with pytest.raises(FileFormatError):
        plane_from_text("not json")


def test_cover_round_trip_is_bit_exact():
    g = load_catalog("bowtie").graph
    cover = random_cover(g, uniform_assignment(g.n, 3), seed=5, perfect=True)
    text = cover_to_text(cover)
    again = cover_from_text(text)
    assert again == cover
    assert cover_to_text(again) == text


def test_cover_with_no_vertices():
    g = build_graph(0, [])
    cover = random_cover(g, (), seed=0)
    assert cover_from_text(cover_to_text(cover)) == cover


def test_cover_format_rejects_scrambled_edges():
    text = cover_to_text(
        random_cover(build_graph(2, [(0, 1)]), uniform_assignment(2, 2), seed=1)
    ).replace('[\n      0,\n      1\n    ]', '[\n      1,\n      0\n    ]')
    with pytest.raises(FileFormatError):
        cover_from_text(text)


def k2_cover_text(lists, matching):
    """A cover document on one edge, written without the library's checks."""
    doc = {"format": "dpcolor-cover/1", "n": 2, "edges": [[0, 1]]}
    return json.dumps(doc | {"lists": lists, "matchings": [matching]})


BAD_COVERS = {
    "color-matched-twice-and-outside-every-list": (
        k2_cover_text([[1, 2, 3], [1, 2, 3]], [[1, 1], [1, 2], [4, 3]]), "matched twice"
    ),
    "color-outside-every-list": (k2_cover_text([[1, 2], [1, 2]], [[3, 1]]), "not in list"),
    "repeated-color": (k2_cover_text([[1, 1], [1, 2]], [[1, 2]]), "repeats a color"),
    "three-element-pair": (k2_cover_text([[1, 2], [1, 2]], [[1, 2, 1]]), "expected 2 integers"),
    "string-color": (k2_cover_text([["1", 2], [1, 2]], []), r"lists\[0\]"),
    "missing-matchings": (
        json.dumps({"format": "dpcolor-cover/1", "n": 2, "edges": [[0, 1]], "lists": [[1], [1]]}),
        "missing key 'matchings'",
    ),
}

MISSING_N_PLANE = json.dumps({"format": "dpcolor-plane/1", "rotations": [[]]})


@pytest.mark.parametrize("text, message", BAD_COVERS.values(), ids=BAD_COVERS)
def test_cover_from_text_rejects_malformed_covers(text, message):
    with pytest.raises(FileFormatError, match=message):
        cover_from_text(text)


def test_plane_from_text_names_a_missing_key():
    with pytest.raises(FileFormatError, match="missing key 'n'"):
        plane_from_text(MISSING_N_PLANE)


def test_plane_from_text_rejects_non_integer_rings():
    text = json.dumps({"format": "dpcolor-plane/1", "n": 2, "rotations": [["1"], [0]]})
    with pytest.raises(InvalidRotationError, match="rotation at 0"):
        plane_from_text(text)


def test_trace_round_trip():
    pg = load_catalog("bowtie")
    cover = random_cover(pg.graph, uniform_assignment(5, 3), seed=2, perfect=True)
    result = color_planar_no46(pg, cover)
    text = trace_to_text(result.trace)
    assert trace_from_text(text) == result.trace


def test_coloring_round_trip():
    from dpcolor.fileio import coloring_from_text, coloring_to_text
    from dpcolor.solver import impropriety

    pg = load_catalog("bowtie")
    cover = random_cover(pg.graph, uniform_assignment(5, 3), seed=2, perfect=True)
    result = color_planar_no46(pg, cover)
    counts = impropriety(cover, result.rep_set)
    colors, profile = coloring_from_text(coloring_to_text(result.rep_set, counts))
    assert colors == result.rep_set and profile == counts


def test_audit_json_carries_per_element_transfers():
    from dpcolor.discharging import apply_rules, audit_cases
    from dpcolor.fileio import audit_to_json_text

    pg = load_catalog("aug_triangle_full")
    ledger = apply_rules(pg)
    doc = json.loads(audit_to_json_text(audit_cases(pg, ledger), ledger))
    triangle = next(e for e in doc["elements"] if e["case"] == "3-face")
    rules = sorted(t["rule"] for t in triangle["transfers_in"])
    assert rules == ["R1", "R1", "R3", "R5"]
    assert triangle["transfers_out"] == []
