import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import audit_doc, coloring_doc, cover_doc, int_tables_scan, plane_doc, trace_doc
from strategies import audits, covers, traces

from dpcolor import fileio
from dpcolor.catalog import entry_names, no46_names
from dpcolor.catalog import load as load_catalog
from dpcolor.covers import DEFAULT_BUDGET, random_cover, uniform_assignment
from dpcolor.discharging import AuditEntry, AuditReport, ChargeLedger, Transfer, apply_rules, audit_cases
from dpcolor.errors import (
    DpColorError,
    DuplicateEdgeError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidRotationError,
    LoopEdgeError,
)
from dpcolor.fileio import (
    GRAPH_HEADER,
    audit_to_json_text,
    coloring_from_text,
    coloring_to_text,
    cover_from_text,
    cover_to_text,
    graph_from_text,
    graph_to_text,
    plane_from_text,
    plane_to_text,
    trace_from_text,
    trace_to_text,
)
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph
from dpcolor.reduction import ConfigKind, TraceStep, color_planar_no46, reduce_and_color


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


@pytest.mark.parametrize("edge, error", [("0 3", IndexOutOfRangeError), ("4 0", IndexOutOfRangeError),
                                         ("1 1", LoopEdgeError), ("1 0", DuplicateEdgeError)])
def test_graph_text_refuses_an_edge_build_graph_refuses_with_its_class(edge, error):
    # the loader checks each edge as it reads it, so the message can name
    # the line; the class stays the one build_graph raises
    with pytest.raises(error, match=f"^line 3: .*, got '{edge}'$"):
        graph_from_text(f"3 2\n0 1\n{edge}\n")
    with pytest.raises(error):
        build_graph(3, [(0, 1), tuple(map(int, edge.split()))])


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
    "one-list-for-two-vertices": (k2_cover_text([[1, 2]], [[1, 2]]), "1 lists for 2 vertices"),
    "no-matching-for-the-edge": (
        json.dumps({"format": "dpcolor-cover/1", "n": 2, "edges": [[0, 1]],
                    "lists": [[1], [1]], "matchings": []}),
        "0 matchings for 1 edges",
    ),
    "bool-in-a-pair": (
        k2_cover_text([[1, 2], [1, 2]], [[True, 2]]),
        r"matchings\[0\]\[0\]: expected 2 integers, got \[True, 2\]",
    ),
    "pair-not-a-list": (
        k2_cover_text([[1, 2], [1, 2]], [{"1": 2}]),
        r"matchings\[0\]\[0\]: expected 2 integers, got \{'1': 2\}",
    ),
    "bool-in-an-edge": (
        json.dumps({"format": "dpcolor-cover/1", "n": 2, "edges": [[0, True]],
                    "lists": [[1], [1]], "matchings": [[]]}),
        r"edges\[0\]: expected 2 integers, got \[0, True\]",
    ),
    "bad-pair-after-good-ones": (
        k2_cover_text([[1, 2, 3], [1, 2, 3]], [[1, 1], [2.0, 2], [True, 3]]),
        r"matchings\[0\]\[1\]: expected 2 integers, got \[2\.0, 2\]",
    ),
    "color-of-the-larger-end-matched-twice": (
        k2_cover_text([[1, 2], [1, 2]], [[1, 1], [2, 1]]),
        r"^invalid cover \(matching\): edge \(0, 1\): color 1 of 1 matched twice$",
    ),
    "matchings-not-a-list": (
        json.dumps({"format": "dpcolor-cover/1", "n": 2, "edges": [[0, 1]],
                    "lists": [[1], [1]], "matchings": 5}),
        r"^matchings: expected a list, got 5$",
    ),
    "non-integer-n": (
        json.dumps({"format": "dpcolor-cover/1", "n": "2", "edges": [[0, 1]],
                    "lists": [[1], [1]], "matchings": [[]]}),
        r"^n: expected an integer, got '2'$",
    ),
    "matching-not-a-list-after-a-good-one": (
        json.dumps({"format": "dpcolor-cover/1", "n": 3, "edges": [[0, 1], [1, 2]],
                    "lists": [[1], [1], [1]], "matchings": [[[1, 1]], 5]}),
        r"matchings\[1\]: expected a list, got 5",
    ),
}


def huge_n_cover(n=10**12):
    """A cover document with no lists that declares ``n`` vertices."""
    return json.dumps({"format": "dpcolor-cover/1", "n": n, "edges": [], "lists": [],
                       "matchings": []})


def refuse_graphs_above_the_lists(monkeypatch):
    """Make ``cover_from_text`` on a document with no lists fail the test,
    before allocating any row, if it builds a graph with a vertex."""
    build = fileio.build_graph

    def bounded(n, edges):
        assert n <= 0, f"build_graph called for {n} vertices and no lists"
        return build(n, edges)

    monkeypatch.setattr(fileio, "build_graph", bounded)


HUGE_N_GRAPH = f"{GRAPH_HEADER}\n1000000000000 0\n"


def refuse_graphs_above_the_cap(monkeypatch, cap=DEFAULT_BUDGET):
    """Make any ``build_graph`` call through ``fileio`` with more than
    ``cap`` vertices fail the test before it allocates a row."""
    build = fileio.build_graph

    def bounded(n, edges):
        assert n <= cap, f"build_graph called for {n} vertices"
        return build(n, edges)

    monkeypatch.setattr(fileio, "build_graph", bounded)


MISSING_N_PLANE = json.dumps({"format": "dpcolor-plane/1", "rotations": [[]]})

# an ``n`` that is not an integer but equals the number of rings
NON_INTEGER_N_PLANES = {
    "float": json.dumps({"format": "dpcolor-plane/1", "n": 2.0, "rotations": [[1], [0]]}),
    "bool": json.dumps({"format": "dpcolor-plane/1", "n": True, "rotations": [[]]}),
}


@pytest.mark.parametrize("text, message", BAD_COVERS.values(), ids=BAD_COVERS)
def test_cover_from_text_rejects_malformed_covers(text, message):
    with pytest.raises(FileFormatError, match=message):
        cover_from_text(text)


# JSON values a pair or a table may be instead of a list of integers; the
# last two equal, and hash as, the pair [1, 2] that precedes them below
PLANTED = [{}, "", "12", True, None, 1.5, [1], [1, 2, 3], [[1], [2]], [1.0, 2], [True, 2]]


@st.composite
def _matching_tables(draw):
    """A JSON list of matchings over few colors, so that tables and pairs
    repeat, with now and then a planted value as a pair or as a table, or
    a pair with a float or bool equal to one of the colors."""
    planted = st.sampled_from(PLANTED)
    color = st.integers(1, 3)
    pair = st.lists(color, min_size=2, max_size=2)
    twin = st.one_of(color.map(float), st.just(True))
    twins = st.one_of(st.tuples(twin, color), st.tuples(color, twin)).map(list)
    pairs = st.integers(0, 9).flatmap(
        lambda i: planted if i == 0 else twins if i == 1 else pair
    )
    table = st.lists(pairs, max_size=3)
    tables = st.integers(0, 9).flatmap(lambda i: planted if i == 0 else table)
    return json.loads(json.dumps(draw(st.lists(tables, max_size=8))))


@settings(max_examples=200, deadline=None)
@given(_matching_tables())
def test_int_tables_accepts_what_the_row_scan_accepts(tables):
    # the tables are checked as distinct values, but must accept exactly
    # the pair-by-pair scan, and otherwise name the first bad row as it does
    try:
        expected = int_tables_scan(tables, "matchings", 2)
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as raised:
            fileio._int_tables(tables, "matchings", 2, {})
        assert str(raised.value) == str(exc)
    else:
        interned = {}
        out = fileio._int_tables(tables, "matchings", 2, interned)
        assert out == expected
        assert len(set(map(id, out))) == len(set(out)) == len(interned)


@pytest.mark.parametrize("value", PLANTED, ids=repr)
@pytest.mark.parametrize("as_table", [False, True], ids=["pair", "table"])
def test_int_tables_names_a_planted_value_as_the_row_scan_does(value, as_table):
    tables = [[[1, 2], [2, 1]], [[1, 2], [2, 1]], [[1, 2], value]]
    if as_table:
        tables[1] = value
    with pytest.raises(FileFormatError) as expected:
        int_tables_scan(tables, "matchings", 2)
    with pytest.raises(FileFormatError) as raised:
        fileio._int_tables(tables, "matchings", 2, {})
    assert str(raised.value) == str(expected.value)


def test_cover_file_holds_one_tuple_per_distinct_matching_and_list():
    doc = {"format": "dpcolor-cover/1", "n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]],
           "lists": [[1, 2], [2, 1], [1, 2], [2, 1]],
           "matchings": [[[1, 2], [2, 1]], [[1, 1]], [[1, 2], [2, 1]], [[1, 1]]]}
    cover = cover_from_text(json.dumps(doc))
    assert len({id(m) for m in cover.matchings}) == len(set(cover.matchings)) == 2
    assert len({id(colors) for colors in cover.lists}) == len(set(cover.lists)) == 2
    assert cover.matchings == (((1, 2), (2, 1)), ((1, 1),)) * 2


@pytest.mark.parametrize("n, message", [
    (10**12, r"^invalid cover \(fibers\): 0 lists for 1000000000000 vertices$"),
    (-1, "^vertex count -1 is negative$"),
])
def test_cover_from_text_checks_n_against_the_lists_first(monkeypatch, n, message):
    refuse_graphs_above_the_lists(monkeypatch)
    with pytest.raises(DpColorError, match=message):
        cover_from_text(huge_n_cover(n))


def test_graph_from_text_refuses_more_vertices_than_the_default_budget(monkeypatch):
    refuse_graphs_above_the_cap(monkeypatch)
    with pytest.raises(FileFormatError, match="^1000000000000 vertices exceed the limit of 1000000$"):
        graph_from_text(HUGE_N_GRAPH)


def test_graph_from_text_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(fileio, "DEFAULT_BUDGET", 3)
    refuse_graphs_above_the_cap(monkeypatch, 3)
    assert graph_from_text(f"{GRAPH_HEADER}\n3 1\n0 2\n") == build_graph(3, [(0, 2)])
    with pytest.raises(FileFormatError, match="^4 vertices exceed the limit of 3$"):
        graph_from_text(f"{GRAPH_HEADER}\n4 1\n0 2\n")


def test_plane_from_text_names_a_missing_key():
    with pytest.raises(FileFormatError, match="missing key 'n'"):
        plane_from_text(MISSING_N_PLANE)


@pytest.mark.parametrize("text", NON_INTEGER_N_PLANES.values(), ids=NON_INTEGER_N_PLANES)
def test_plane_from_text_rejects_a_non_integer_n(text):
    with pytest.raises(FileFormatError, match="n: expected an integer"):
        plane_from_text(text)


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


def test_audit_json_lists_each_transfer_once():
    pg = load_catalog("aug_triangle_full")
    ledger = apply_rules(pg)
    doc = json.loads(audit_to_json_text(audit_cases(pg, ledger), ledger))
    triangle = next(e for e in doc["elements"] if e["case"] == "3-face")["element"]
    assert sorted(t["rule"] for t in doc["transfers"] if t["target"] == triangle) == [
        "R1", "R1", "R3", "R5"
    ]
    assert not any(t["source"] == triangle for t in doc["transfers"])
    for name in no46_names():
        pg = load_catalog(name)
        ledger = apply_rules(pg)
        doc = json.loads(audit_to_json_text(audit_cases(pg, ledger), ledger))
        for e in doc["elements"]:
            assert not {"transfers_in", "transfers_out"} & e.keys()
            into = sum(t["sixths"] for t in doc["transfers"] if t["target"] == e["element"])
            out = sum(t["sixths"] for t in doc["transfers"] if t["source"] == e["element"])
            assert (e["in"]["sixths"], e["out"]["sixths"]) == (into, out), (name, e["element"])


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_trace_writer(trace):
    text = trace_to_text(trace)
    assert text == canonical_json(trace_doc(trace))
    assert trace_from_text(text) == trace


def check_audit_writer(report, ledger):
    assert audit_to_json_text(report, ledger) == canonical_json(audit_doc(report, ledger))


def check_plane_writer(pg):
    assert plane_to_text(pg) == canonical_json(plane_doc(pg))


def check_cover_writer(cover):
    assert cover_to_text(cover) == canonical_json(cover_doc(cover))


def check_coloring_writer(colors, counts):
    assert coloring_to_text(colors, counts) == canonical_json(coloring_doc(colors, counts))


def check_writers_on(pg, audit=True):
    check_plane_writer(pg)
    cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed=4, perfect=True)
    check_cover_writer(cover)
    result = reduce_and_color(cover)
    check_trace_writer(result.trace)
    check_coloring_writer(result.rep_set, result.impropriety)
    if audit:
        ledger = apply_rules(pg)
        check_audit_writer(audit_cases(pg, ledger), ledger)


@pytest.mark.parametrize("name", entry_names())
def test_writers_match_json_dumps_on_the_catalog(name):
    # no audit exists for a graph with a 4- or 6-cycle
    check_writers_on(load_catalog(name), audit=name in no46_names())


@pytest.mark.parametrize("n, seed", [(12, 1), (45, 2), (150, 3), (400, 4)])
def test_writers_match_json_dumps_on_generated_planes(n, seed):
    check_writers_on(generate_plane_no46(n, seed))


@settings(max_examples=80, deadline=None)
@given(traces())
def test_trace_writer_matches_json_dumps(trace):
    check_trace_writer(trace)


@settings(max_examples=80, deadline=None)
@given(audits())
def test_audit_writer_matches_json_dumps(audit):
    check_audit_writer(*audit)


@settings(max_examples=80, deadline=None)
@given(covers(min_n=0, min_k=0))
def test_cover_writer_matches_json_dumps(cover):
    # k = 0 gives empty lists, and the thinned matchings are often empty
    check_cover_writer(cover)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-5, 10**6)), st.lists(st.integers(0, 10)))
def test_coloring_writer_matches_json_dumps(colors, counts):
    check_coloring_writer(colors, counts)


def test_writers_match_json_dumps_on_edge_cases():
    check_coloring_writer((), ())
    check_cover_writer(random_cover(build_graph(0, []), (), seed=0))
    check_cover_writer(random_cover(build_graph(1, []), ((),), seed=0))
    check_trace_writer(())
    check_trace_writer((TraceStep(ConfigKind.FOUR_THREE_THREES, (7, 2, 9), (3, 1, 1), (0, 1, 2)),))
    t = Transfer("R1", ("vertex", 0), ("face", 0), -5, 2)
    ledger = ChargeLedger((2, -3), (-72,), (t,))
    entries = (
        AuditEntry(("vertex", 0), "3-vertex", "(3,7,7)", "", 2, 0, -5, -3),
        AuditEntry(("vertex", 1), "2-vertex", "(\u00e9,\"7\")", "degree below 3", -3, 0, 0, -3),
        AuditEntry(("face", 0), "3-face", "(3,4,4)", "", -72, -5, 0, -77),
    )
    report = AuditReport(entries)
    assert (report.initial_total, report.final_total) == (-73, -83)
    check_audit_writer(report, ledger)
    check_audit_writer(AuditReport(()), ChargeLedger((), (), ()))


def test_audit_writer_keeps_apart_entries_that_differ_in_one_field():
    # each field of an entry reaches its rendering: entries that differ in
    # one field, the element kind or a final that is not initial - out + in
    # included, are written as json.dumps writes them
    base = AuditEntry(("vertex", 0), "3-vertex", "(3,7,7)", "", 2, 0, -5, -3)
    entries = [base, base._replace(element=("vertex", 4))]
    entries += [
        base._replace(**{name: value})
        for name, value in [("element", ("face", 0)), ("case", "3-face"), ("pattern", "(3,4,4)"),
                            ("reason", "degree below 3"), ("initial", 8), ("incoming", 6),
                            ("outgoing", 1), ("final", 9)]
    ]
    report = AuditReport(tuple(entries + entries[::-1]))
    check_audit_writer(report, ChargeLedger((), (), ()))


def trace_text(steps) -> str:
    """A trace document, written without the library's writer."""
    return json.dumps({"format": "dpcolor-trace/1", "steps": steps})


STEP = {"kind": "low-vertex", "vertices": [4], "residual_list_sizes": [3], "colors": [1]}

BAD_TRACES = {
    "unknown-kind": (trace_text([STEP, STEP | {"kind": "low"}]), r"steps\[1\]\.kind: unknown kind 'low'"),
    "missing-key": (
        trace_text([{k: v for k, v in STEP.items() if k != "colors"}]),
        r"steps\[0\]: missing key 'colors'",
    ),
    "steps-not-a-list": (trace_text(5), "steps: expected a list"),
    "step-not-an-object": (trace_text([STEP, [4]]), r"steps\[1\]: expected an object"),
    "string-vertices": (trace_text([STEP | {"vertices": "12"}]), r"steps\[0\]\.vertices"),
    "string-color": (trace_text([STEP | {"colors": ["1"]}]), r"steps\[0\]\.colors"),
    "sizes-not-one-per-vertex": (
        trace_text([STEP | {"residual_list_sizes": [3, 3]}]),
        r"steps\[0\]\.residual_list_sizes: expected 1 integers",
    ),
    "missing-steps": (json.dumps({"format": "dpcolor-trace/1"}), "missing key 'steps'"),
}


@pytest.mark.parametrize("text, message", BAD_TRACES.values(), ids=BAD_TRACES)
def test_trace_from_text_rejects_malformed_traces(text, message):
    with pytest.raises(FileFormatError, match=message):
        trace_from_text(text)


def coloring_text(colors, impropriety) -> str:
    """A coloring document, written without the library's writer."""
    return json.dumps({"format": "dpcolor-coloring/1", "colors": colors, "impropriety": impropriety})


BAD_COLORINGS = {
    "string-colors": (coloring_text("012", [0, 0, 0]), "colors: expected a list of integers"),
    "string-count": (coloring_text([0, 1], [0, "1"]), "impropriety: expected 2 integers"),
    "count-not-one-per-vertex": (coloring_text([0, 1], [0]), "impropriety: expected 2 integers"),
    "missing-impropriety": (
        json.dumps({"format": "dpcolor-coloring/1", "colors": [0]}),
        "missing key 'impropriety'",
    ),
}


@pytest.mark.parametrize("text, message", BAD_COLORINGS.values(), ids=BAD_COLORINGS)
def test_coloring_from_text_rejects_malformed_colorings(text, message):
    with pytest.raises(FileFormatError, match=message):
        coloring_from_text(text)
