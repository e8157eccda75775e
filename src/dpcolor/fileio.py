"""On-disk formats: graphs, plane graphs, covers, colorings, traces, audits.

Graphs travel as line-oriented text (a ``#``-comment version line, then
``n m``, then one ``u v`` pair per line, 0-based).  Everything else is
canonical JSON (sorted keys, two-space indent, trailing newline) so that
identical values produce byte-identical files.
"""

from __future__ import annotations

import json

from .covers import Cover, validate_cover
from .discharging import AuditReport, ChargeLedger, charge_str
from .embedding import PlaneGraph, plane_from_rotations
from .errors import FileFormatError
from .graphs import Graph, build_graph
from .reduction import ConfigKind, TraceStep

GRAPH_HEADER = "# dpcolor graph v1"
PLANE_FORMAT = "dpcolor-plane/1"
COVER_FORMAT = "dpcolor-cover/1"
COLORING_FORMAT = "dpcolor-coloring/1"
TRACE_FORMAT = "dpcolor-trace/1"
AUDIT_FORMAT = "dpcolor-audit/1"


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(text: str, expected_format: str, *keys: str) -> dict:
    """The document's top-level object, of ``expected_format`` and holding
    every one of ``keys``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != expected_format:
        raise FileFormatError(f"expected format {expected_format!r}")
    for key in keys:
        if key not in obj:
            raise FileFormatError(f"missing key {key!r}")
    return obj


def _int_rows(rows, where: str, size: int | None = None) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples of integers, each of length ``size`` if given."""
    if type(rows) is not list:
        raise FileFormatError(f"{where}: expected a list, got {rows!r}")
    for i, row in enumerate(rows):
        if type(row) is not list or not {int}.issuperset(map(type, row)) or (
            size is not None and len(row) != size
        ):
            raise FileFormatError(f"{where}[{i}]: expected {size or 'a list of'} integers, got {row!r}")
    return tuple(map(tuple, rows))


# --- graphs as edge-list text ----------------------------------------------

def graph_to_text(graph: Graph) -> str:
    lines = [GRAPH_HEADER, f"{graph.n} {graph.m}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise FileFormatError("empty graph file")
    try:
        n, m = (int(x) for x in rows[0].split())
        edges = [tuple(int(x) for x in row.split()) for row in rows[1:]]
    except ValueError as exc:
        raise FileFormatError(f"bad graph line: {exc}") from exc
    if len(edges) != m or any(len(e) != 2 for e in edges):
        raise FileFormatError(f"expected {m} 'u v' lines, got {len(edges)}")
    return build_graph(n, edges)


# --- plane graphs -----------------------------------------------------------

def plane_to_text(pg: PlaneGraph) -> str:
    return _dumps(
        {
            "format": PLANE_FORMAT,
            "n": pg.graph.n,
            "rotations": [list(ring) for ring in pg.rotation],
        }
    )


def plane_from_text(text: str) -> PlaneGraph:
    obj = _load_json(text, PLANE_FORMAT, "n", "rotations")
    rotations = obj["rotations"]
    if not isinstance(rotations, list) or len(rotations) != obj["n"]:
        raise FileFormatError("rotations: expected a list of n rings")
    return plane_from_rotations(rotations)


# --- covers -----------------------------------------------------------------

def cover_to_text(cover: Cover) -> str:
    return _dumps(
        {
            "format": COVER_FORMAT,
            "n": cover.graph.n,
            "edges": [list(e) for e in cover.graph.edges],
            "lists": [list(colors) for colors in cover.lists],
            "matchings": [
                [list(pair) for pair in matching] for matching in cover.matchings
            ],
        }
    )


def cover_from_text(text: str) -> Cover:
    """A cover document; a malformed one raises ``FileFormatError``.

    Edges and matching pairs must be pairs of integers, lists must hold
    integers, and the cover must pass ``validate_cover``.
    """
    obj = _load_json(text, COVER_FORMAT, "n", "edges", "lists", "matchings")
    if type(obj["n"]) is not int:
        raise FileFormatError(f"n: expected an integer, got {obj['n']!r}")
    edges = _int_rows(obj["edges"], "edges", 2)
    graph = build_graph(obj["n"], edges)
    if graph.edges != edges:
        raise FileFormatError("edges are not in canonical sorted order")
    lists = _int_rows(obj["lists"], "lists")
    if len(lists) != graph.n:
        raise FileFormatError("list count differs from n")
    if not isinstance(obj["matchings"], list) or len(obj["matchings"]) != graph.m:
        raise FileFormatError(f"matchings: expected a list of {graph.m}, one per edge")
    matchings = tuple(_int_rows(m, f"matchings[{i}]", 2) for i, m in enumerate(obj["matchings"]))
    cover = Cover(graph=graph, lists=lists, matchings=matchings)
    violation = validate_cover(cover)
    if violation is not None:
        raise FileFormatError(f"invalid cover ({violation.clause}): {violation.message}")
    return cover


# --- result documents -------------------------------------------------------

def coloring_to_text(colors, counts) -> str:
    return _dumps(
        {
            "format": COLORING_FORMAT,
            "colors": list(colors),
            "impropriety": list(counts),
            "max_impropriety": max(counts, default=0),
        }
    )


def coloring_from_text(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(colors, impropriety profile) from a coloring document."""
    obj = _load_json(text, COLORING_FORMAT, "colors", "impropriety")
    return tuple(obj["colors"]), tuple(obj["impropriety"])


def trace_to_text(trace: tuple[TraceStep, ...]) -> str:
    """Trace document, steps in excision order.

    As in ``TraceStep``, ``residual_list_sizes`` follow ``vertices`` (center
    first) while ``colors`` follow the sorted order of ``vertices``.
    """
    return _dumps(
        {
            "format": TRACE_FORMAT,
            "steps": [
                {
                    "kind": step.kind.value,
                    "vertices": list(step.vertices),
                    "residual_list_sizes": list(step.residual_sizes),
                    "colors": list(step.colors),
                }
                for step in trace
            ],
        }
    )


def trace_from_text(text: str) -> tuple[TraceStep, ...]:
    obj = _load_json(text, TRACE_FORMAT, "steps")
    return tuple(
        TraceStep(
            kind=ConfigKind(step["kind"]),
            vertices=tuple(step["vertices"]),
            residual_sizes=tuple(step["residual_list_sizes"]),
            colors=tuple(step["colors"]),
        )
        for step in obj["steps"]
    )


def audit_to_json_text(report: AuditReport, ledger: ChargeLedger) -> str:
    def transfer_doc(t):
        return {
            "rule": t.rule,
            "source": list(t.source),
            "target": list(t.target),
            "sixths": t.sixths,
            "display": charge_str(t.sixths),
            "multiplicity": t.multiplicity,
        }

    return _dumps(
        {
            "format": AUDIT_FORMAT,
            "initial_total": {
                "sixths": report.initial_total,
                "display": charge_str(report.initial_total),
            },
            "final_total": {
                "sixths": report.final_total,
                "display": charge_str(report.final_total),
            },
            "transfers": [transfer_doc(t) for t in ledger.transfers],
            "elements": [
                {
                    "element": list(e.element),
                    "case": e.case,
                    "pattern": e.pattern,
                    "verdict": e.verdict,
                    "reason": e.reason,
                    "initial": {"sixths": e.initial, "display": charge_str(e.initial)},
                    "in": {"sixths": e.incoming, "display": charge_str(e.incoming)},
                    "out": {"sixths": e.outgoing, "display": charge_str(e.outgoing)},
                    "final": {"sixths": e.final, "display": charge_str(e.final)},
                    "transfers_in": [transfer_doc(t) for t in ledger.transfers_in(e.element)],
                    "transfers_out": [transfer_doc(t) for t in ledger.transfers_out(e.element)],
                }
                for e in report.entries
            ],
        }
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

