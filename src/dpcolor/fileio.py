"""On-disk formats: graphs, plane graphs, covers, colorings, traces, audits.

Graphs travel as line-oriented text (a ``#``-comment version line, then
``n m``, then one ``u v`` pair per line, 0-based).  Everything else is
canonical JSON (sorted keys, two-space indent, trailing newline) so that
identical values produce byte-identical files.  ``json.dumps`` with an
indent runs the pure-Python encoder, so every document is written by hand
from the ``_json_*`` templates, in the bytes that encoder would give;
``json`` only parses.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str  # how json.dumps writes a str

from .covers import DEFAULT_BUDGET, Cover, validate_cover
from .discharging import AuditEntry, AuditReport, ChargeLedger, Element, Transfer, charge_str
from .embedding import PlaneGraph, plane_from_rotations
from .errors import DuplicateEdgeError, FileFormatError, IndexOutOfRangeError, LoopEdgeError
from .graphs import Graph, build_graph
from .reduction import ConfigKind, TraceStep

GRAPH_HEADER = "# dpcolor graph v1"
PLANE_FORMAT = "dpcolor-plane/1"
COVER_FORMAT = "dpcolor-cover/1"
COLORING_FORMAT = "dpcolor-coloring/1"
TRACE_FORMAT = "dpcolor-trace/1"
AUDIT_FORMAT = "dpcolor-audit/2"


def _json_list(items, depth: int) -> str:
    """A JSON list of rendered ``items`` whose closing bracket is indented
    ``depth`` levels; each item must be rendered for ``depth + 1``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_ints(values, depth: int) -> str:
    return _json_list(list(map(str, values)), depth)


def _json_rows(rows, depth: int) -> str:
    """A JSON list of integer rows whose closing bracket is indented
    ``depth`` levels."""
    return _json_list([_json_ints(row, depth + 1) for row in rows], depth)


def _load_json(text: str, expected_format: str, *keys: str) -> dict:
    """The document's top-level object, of ``expected_format`` and holding
    every one of ``keys``."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError("not valid JSON: nested deeper than the parser allows") from exc
    if not isinstance(obj, dict) or obj.get("format") != expected_format:
        raise FileFormatError(f"expected format {expected_format!r}")
    for key in keys:
        if key not in obj:
            raise FileFormatError(f"missing key {key!r}")
    return obj


def _int_row(row, where: str, size: int | None = None) -> tuple[int, ...]:
    """``row`` as a tuple of integers, of length ``size`` if given."""
    if not _are_int_rows([row], size):
        raise FileFormatError(f"{where}: expected {size or 'a list of'} integers, got {row!r}")
    return tuple(row)


def _are_int_rows(rows: list, size: int | None) -> bool:
    """Whether every row is a list of integers, of length ``size`` if given,
    checked for all rows in one pass."""
    return (
        {list}.issuperset(map(type, rows))
        and {int}.issuperset(map(type, chain.from_iterable(rows)))
        and (size is None or {size}.issuperset(map(len, rows)))
    )


def _int_rows(rows, where: str, size: int | None = None) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples of integers, each of length ``size`` if given.

    All rows are checked in one pass; only when one fails are they checked
    one by one, so that the error names the first bad row.
    """
    if type(rows) is not list:
        raise FileFormatError(f"{where}: expected a list, got {rows!r}")
    if _are_int_rows(rows, size):
        return tuple(map(tuple, rows))
    return tuple(_int_row(row, f"{where}[{i}]", size) for i, row in enumerate(rows))


def _int_tables(tables, where: str, size: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``tables`` as a tuple of ``_int_rows``, the ``i``-th named
    ``where[i]``; the rows of all tables are checked in one pass first."""
    if type(tables) is not list:
        raise FileFormatError(f"{where}: expected a list, got {tables!r}")
    if {list}.issuperset(map(type, tables)) and _are_int_rows(
        list(chain.from_iterable(tables)), size
    ):
        return tuple(tuple(map(tuple, table)) for table in tables)
    return tuple(_int_rows(table, f"{where}[{i}]", size) for i, table in enumerate(tables))


# --- graphs as edge-list text ----------------------------------------------

def graph_to_text(graph: Graph) -> str:
    lines = [GRAPH_HEADER, f"{graph.n} {graph.m}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """An edge-list graph of at most ``DEFAULT_BUDGET`` vertices: a "yes"
    answer takes one search node per vertex, so a larger graph can never be
    answered "yes" within the default budget; it is refused before it is built.
    A line that is not two tokens of ASCII digits is named by its 1-based
    number and text; so is an edge that is a loop, leaves ``0..n-1`` or
    repeats an earlier one, with the error class ``build_graph`` raises."""
    n = m = None
    seen: dict[tuple[int, int], int] = {}  # edge -> the line that gave it
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
            shape = "'n m'" if n is None else "'u v'"
            raise FileFormatError(f"line {number}: expected {shape}, got {line!r}")
        u, v = map(int, tokens)
        if n is None:
            n, m = u, v
            continue
        key = (u, v) if u < v else (v, u)
        if u == v:
            error, problem = LoopEdgeError, f"loop at vertex {u}"
        elif key[1] >= n:
            error, problem = IndexOutOfRangeError, f"vertex {key[1]} not in 0..{n - 1}"
        elif key in seen:
            error, problem = DuplicateEdgeError, f"edge {key} given twice (line {seen[key]})"
        else:
            seen[key] = number
            continue
        raise error(f"line {number}: {problem}, got {line!r}")
    if n is None:
        raise FileFormatError("empty graph file")
    if len(seen) != m:
        raise FileFormatError(f"expected {m} 'u v' lines, got {len(seen)}")
    if n > DEFAULT_BUDGET:
        raise FileFormatError(f"{n} vertices exceed the limit of {DEFAULT_BUDGET}")
    return build_graph(n, seen)


# --- plane graphs -----------------------------------------------------------

def plane_to_text(pg: PlaneGraph) -> str:
    return (
        "{\n"
        f'  "format": {_json_str(PLANE_FORMAT)},\n'
        f'  "n": {pg.graph.n},\n'
        f'  "rotations": {_json_rows(pg.rotation, 1)}\n'
        "}\n"
    )


def plane_from_text(text: str) -> PlaneGraph:
    obj = _load_json(text, PLANE_FORMAT, "n", "rotations")
    if type(obj["n"]) is not int:
        raise FileFormatError(f"n: expected an integer, got {obj['n']!r}")
    rotations = obj["rotations"]
    if not isinstance(rotations, list) or len(rotations) != obj["n"]:
        raise FileFormatError("rotations: expected a list of n rings")
    return plane_from_rotations(rotations)


# --- covers -----------------------------------------------------------------

def cover_to_text(cover: Cover) -> str:
    matchings = [_json_rows(matching, 2) for matching in cover.matchings]
    return (
        "{\n"
        f'  "edges": {_json_rows(cover.graph.edges, 1)},\n'
        f'  "format": {_json_str(COVER_FORMAT)},\n'
        f'  "lists": {_json_rows(cover.lists, 1)},\n'
        f'  "matchings": {_json_list(matchings, 1)},\n'
        f'  "n": {cover.graph.n}\n'
        "}\n"
    )


def cover_from_text(text: str) -> Cover:
    """A cover document; a malformed one raises ``FileFormatError``.

    Edges and matching pairs must be pairs of integers, lists must hold
    integers, and the cover must pass ``validate_cover``.  The list count
    is checked against ``n`` before the graph is built, so a huge ``n``
    costs nothing.
    """
    obj = _load_json(text, COVER_FORMAT, "n", "edges", "lists", "matchings")
    n = obj["n"]
    if type(n) is not int:
        raise FileFormatError(f"n: expected an integer, got {n!r}")
    edges = _int_rows(obj["edges"], "edges", 2)
    lists = _int_rows(obj["lists"], "lists")
    if n >= 0 and len(lists) != n:  # a negative n is build_graph's to reject
        raise FileFormatError(f"invalid cover (fibers): {len(lists)} lists for {n} vertices")
    graph = build_graph(n, edges)
    if graph.edges != edges:
        raise FileFormatError("edges are not in canonical sorted order")
    matchings = _int_tables(obj["matchings"], "matchings", 2)
    cover = Cover(graph=graph, lists=lists, matchings=matchings)
    violation = validate_cover(cover)
    if violation is not None:
        raise FileFormatError(f"invalid cover ({violation.clause}): {violation.message}")
    return cover


# --- result documents -------------------------------------------------------

def coloring_to_text(colors, counts) -> str:
    return (
        "{\n"
        f'  "colors": {_json_ints(colors, 1)},\n'
        f'  "format": {_json_str(COLORING_FORMAT)},\n'
        f'  "impropriety": {_json_ints(counts, 1)},\n'
        f'  "max_impropriety": {max(counts, default=0)}\n'
        "}\n"
    )


def coloring_from_text(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(colors, impropriety profile) from a coloring document; both must be
    lists of integers, one per vertex."""
    obj = _load_json(text, COLORING_FORMAT, "colors", "impropriety")
    colors = _int_row(obj["colors"], "colors")
    return colors, _int_row(obj["impropriety"], "impropriety", len(colors))


_KIND_JSON = {kind: _json_str(kind.value) for kind in ConfigKind}


def _step_json(step: TraceStep) -> str:
    """A trace step as an item of the ``steps`` list, at depth 2."""
    return (
        "{\n"
        f'      "colors": {_json_ints(step.colors, 3)},\n'
        f'      "kind": {_KIND_JSON[step.kind]},\n'
        f'      "residual_list_sizes": {_json_ints(step.residual_sizes, 3)},\n'
        f'      "vertices": {_json_ints(step.vertices, 3)}\n'
        "    }"
    )


# A one-vertex step, the most common kind, as one template per kind: the
# bytes ``_step_json`` gives it.
_ONE_VERTEX_JSON = {
    kind: "{\n"
    '      "colors": [\n        %s\n      ],\n'
    f'      "kind": {kind_json},\n'
    '      "residual_list_sizes": [\n        %s\n      ],\n'
    '      "vertices": [\n        %s\n      ]\n'
    "    }"
    for kind, kind_json in _KIND_JSON.items()
}


def trace_to_text(trace: tuple[TraceStep, ...]) -> str:
    """Trace document, steps in excision order.

    As in ``TraceStep``, ``residual_list_sizes`` follow ``vertices`` (center
    first) while ``colors`` follow the sorted order of ``vertices``.
    """
    one_vertex = _ONE_VERTEX_JSON
    steps = [
        one_vertex[step.kind] % (step.colors[0], step.residual_sizes[0], step.vertices[0])
        if len(step.vertices) == len(step.colors) == len(step.residual_sizes) == 1
        else _step_json(step)
        for step in trace
    ]
    return (
        "{\n"
        f'  "format": {_json_str(TRACE_FORMAT)},\n'
        f'  "steps": {_json_list(steps, 1)}\n'
        "}\n"
    )


def trace_from_text(text: str) -> tuple[TraceStep, ...]:
    """The steps of a trace document; a malformed step raises
    ``FileFormatError`` naming its index and key.

    Each step needs a known ``kind``, and ``vertices``, ``residual_list_sizes``
    and ``colors`` as lists of integers of one length.
    """
    steps = _load_json(text, TRACE_FORMAT, "steps")["steps"]
    if type(steps) is not list:
        raise FileFormatError(f"steps: expected a list, got {steps!r}")
    trace = []
    for i, step in enumerate(steps):
        where = f"steps[{i}]"
        if type(step) is not dict:
            raise FileFormatError(f"{where}: expected an object, got {step!r}")
        for key in ("kind", "vertices", "residual_list_sizes", "colors"):
            if key not in step:
                raise FileFormatError(f"{where}: missing key {key!r}")
        try:
            kind = ConfigKind(step["kind"])
        except ValueError:
            raise FileFormatError(f"{where}.kind: unknown kind {step['kind']!r}") from None
        vertices = _int_row(step["vertices"], f"{where}.vertices")
        trace.append(
            TraceStep(
                kind=kind,
                vertices=vertices,
                residual_sizes=_int_row(
                    step["residual_list_sizes"], f"{where}.residual_list_sizes", len(vertices)
                ),
                colors=_int_row(step["colors"], f"{where}.colors", len(vertices)),
            )
        )
    return tuple(trace)


# The audit's pieces.  A transfer is rendered once, as an item of the
# top-level log at depth 2; an entry is written directly at depth 2, its
# charges and element as values of keys at depth 3.

@functools.lru_cache(maxsize=1024)  # four charges per entry, few distinct values
def _charge_json(sixths: int, depth: int) -> str:
    """A charge object whose closing brace is indented ``depth`` levels."""
    pad = "  " * depth
    return f'{{\n{pad}  "display": "{charge_str(sixths)}",\n{pad}  "sixths": {sixths}\n{pad}}}'


def _element_json(element: Element) -> str:
    """An element as the value of a key at depth 3."""
    kind, index = element
    return f"[\n        {_json_str(kind)},\n        {index}\n      ]"


def _transfer_json(t: Transfer) -> str:
    """A transfer as an item of the log, at depth 2."""
    return (
        "{\n"
        f'      "display": "{charge_str(t.sixths)}",\n'
        f'      "multiplicity": {t.multiplicity},\n'
        f'      "rule": {_json_str(t.rule)},\n'
        f'      "sixths": {t.sixths},\n'
        f'      "source": {_element_json(t.source)},\n'
        f'      "target": {_element_json(t.target)}\n'
        "    }"
    )


def _entry_json(e: AuditEntry) -> str:
    """An audit entry as an item of the ``elements`` list, at depth 2."""
    return (
        "{\n"
        f'      "case": {_json_str(e.case)},\n'
        f'      "element": {_element_json(e.element)},\n'
        f'      "final": {_charge_json(e.final, 3)},\n'
        f'      "in": {_charge_json(e.incoming, 3)},\n'
        f'      "initial": {_charge_json(e.initial, 3)},\n'
        f'      "out": {_charge_json(e.outgoing, 3)},\n'
        f'      "pattern": {_json_str(e.pattern)},\n'
        f'      "reason": {_json_str(e.reason)},\n'
        f'      "verdict": {_json_str(e.verdict)}\n'
        "    }"
    )


def audit_to_json_text(report: AuditReport, ledger: ChargeLedger) -> str:
    """Audit document: the totals, the transfer log, where each transfer is
    written once, and per element its case, pattern, charges and verdict
    (``in`` and ``out`` sum the log's transfers into and out of it)."""
    return (
        "{\n"
        f'  "elements": {_json_list(list(map(_entry_json, report.entries)), 1)},\n'
        f'  "final_total": {_charge_json(report.final_total, 1)},\n'
        f'  "format": {_json_str(AUDIT_FORMAT)},\n'
        f'  "initial_total": {_charge_json(report.initial_total, 1)},\n'
        f'  "transfers": {_json_list(list(map(_transfer_json, ledger.transfers)), 1)}\n'
        "}\n"
    )


def audit_to_table(report: AuditReport) -> str:
    header = f"{'element':<12} {'case':<10} {'pattern':<16} {'initial':>8} {'in':>6} {'out':>6} {'final':>8}  verdict"
    rows = [header, "-" * len(header)]
    for e in report.entries:
        label = f"{e.element[0]} {e.element[1]}"
        rows.append(
            f"{label:<12} {e.case:<10} {e.pattern:<16} "
            f"{charge_str(e.initial):>8} {charge_str(e.incoming):>6} "
            f"{charge_str(e.outgoing):>6} {charge_str(e.final):>8}  {e.verdict}"
            + (f" ({e.reason})" if e.reason else "")
        )
    rows.append("-" * len(header))
    rows.append(
        f"totals: initial {charge_str(report.initial_total)}, "
        f"final {charge_str(report.final_total)}"
    )
    return "\n".join(rows) + "\n"

