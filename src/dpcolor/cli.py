"""Command-line front end.

Exit codes: 0 when the queried property holds (or output was produced),
1 when it fails (instance uncolorable, audit violation),
2 for input or usage errors.  A reader that closes stdout early
(``dpcolor catalog | head -3``) ends the run with 0 and no message.
``solve -o`` writes a file only when a coloring exists, as ``colorable
--witness-out`` does only when a cover has none.

An output file is written in place, as UTF-8 bytes, the encoding inputs
are read in: the new bytes go over the old ones, and then a regular file
is cut to its new length; a device or pipe (``-o /dev/null``) is not cut.
An existing file keeps its inode, owner, mode and hard links.  The write
is not atomic: one that fails exits 2 and leaves the file's content
undefined.

``main`` turns the cyclic garbage collector off while a command runs and
restores the state it found.  A command builds no reference cycles, so
every collection it would trigger scans its many small records and frees
nothing; library calls are left to the caller's collector settings.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import stat
import sys
from pathlib import Path

from . import catalog as catalog_mod
from .covers import DEFAULT_BUDGET, uniform_assignment, random_cover
from .discharging import apply_rules, audit_cases, charge_str, initial_charges
from .errors import DpColorError, FileFormatError, ForbiddenCyclePresentError
from .fileio import (
    audit_to_json_text,
    audit_to_table,
    coloring_to_text,
    cover_from_text,
    cover_to_text,
    graph_from_text,
    plane_from_text,
    plane_to_text,
    trace_to_text,
)
from .generate import generate_plane_no46
from .reduction import ConfigKind, color_planar_no46, verify_config_reducible
from .solver import find_rep_set, impropriety, is_dp_colorable


def _read_input(path: str) -> str:
    """The text of an input file; one that is not UTF-8 raises
    ``FileFormatError`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_graph_any(path: str):
    """Graph from an edge-list file, or from a plane-graph JSON file."""
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        return plane_from_text(text).graph
    return graph_from_text(text)


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to the file ``out`` in place.

    The file is opened without ``O_TRUNC`` and cut to length after the
    write, since on ext4 truncating a non-empty file frees its blocks and
    starts writeback at close, which costs several times the write itself.
    The UTF-8 bytes go through the descriptor with no file object; a pipe
    may take part of them per call, so the rest is written again.
    """
    if out:
        data = text.encode()
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):  # a device or pipe cannot be cut
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    cover = cover_from_text(_read_input(args.cover))
    rep = find_rep_set(cover, args.impropriety, budget=args.budget)
    if rep is None:
        print("UNSAT")
        return 1
    _emit(coloring_to_text(rep, impropriety(cover, rep)), args.out)
    return 0


def cmd_colorable(args) -> int:
    result = is_dp_colorable(_read_graph_any(args.graph), args.k, args.impropriety)
    answer = "yes" if result.colorable else "no"
    print(
        f"colorable: {answer} ({result.searches} searches, "
        f"{result.covers_checked} covers checked)"
    )
    if result.colorable:
        return 0
    if args.witness_out:
        _emit(cover_to_text(result.witness), args.witness_out)
    return 1


def cmd_theorem(args) -> int:
    pg = plane_from_text(_read_input(args.plane))
    lists = uniform_assignment(pg.graph.n, 3)
    cover = random_cover(pg.graph, lists, seed=args.seed, perfect=True)
    result = color_planar_no46(pg, cover)
    _emit(coloring_to_text(result.rep_set, result.impropriety), args.out)
    if args.trace_out:
        _emit(trace_to_text(result.trace), args.trace_out)
    return 0


def cmd_audit(args) -> int:
    pg = plane_from_text(_read_input(args.plane))
    try:
        ledger = apply_rules(pg)
    except ForbiddenCyclePresentError as exc:
        if args.format == "json":  # no audit document to write: exit 2, as theorem does
            raise
        ledger = initial_charges(pg)
        lines = [
            f"transfer rules skipped: {exc}",
            f"initial total: {charge_str(ledger.initial_total)}",
            *(f"  vertex {v}: {charge_str(c)}" for v, c in enumerate(ledger.vertex_initial)),
            *(f"  face {i}: {charge_str(c)}" for i, c in enumerate(ledger.face_initial)),
        ]
        _emit("".join(line + "\n" for line in lines), args.out)
        return 0
    report = audit_cases(pg, ledger)
    if args.format == "json":
        _emit(audit_to_json_text(report, ledger), args.out)
    else:
        _emit(audit_to_table(report), args.out)
    return 1 if report.failures() else 0


def cmd_gen(args) -> int:
    pg = generate_plane_no46(args.n, args.seed)
    _emit(plane_to_text(pg), args.out)
    return 0


def cmd_lemma(args) -> int:
    kinds = (
        list(ConfigKind)
        if args.kind == "all"
        else [ConfigKind(args.kind)]
    )
    failed = False
    for kind in kinds:
        report = verify_config_reducible(kind)
        status = "colorable" if report.ok else "COUNTEREXAMPLE"
        print(f"{kind.value}: {report.verified}/{report.total_covers} covers {status}")
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_catalog(args) -> int:
    if args.name is None:
        for name in catalog_mod.entry_names():
            pg = catalog_mod.load(name)
            faces = ",".join(map(str, pg.face_degrees))
            print(
                f"{name:<20} n={pg.graph.n:<3} m={pg.graph.m:<3} "
                f"faces=[{faces}] no46={'no' if pg.graph.has_forbidden_cycles else 'yes'}"
            )
        return 0
    pg = catalog_mod.load(args.name)
    _emit(plane_to_text(pg), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="dpcolor",
        description="DP-coloring toolkit for plane graphs without 4- or 6-cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a bounded-impropriety coloring of a cover")
    p.add_argument("cover", help="cover file")
    p.add_argument("-d", "--impropriety", type=int, default=1, help="most conflicts per vertex")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="most search-tree nodes; a search that needs more exits 2",
    )
    p.add_argument("-o", "--out", default=None, help="coloring file, written if one exists")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "colorable",
        help="decide whether every cover of the k-lists 1..k has a coloring",
    )
    p.add_argument("graph", help="edge-list or plane-graph file")
    p.add_argument("-k", type=int, required=True, help="list size")
    p.add_argument("-d", "--impropriety", type=int, required=True, help="most conflicts per vertex")
    p.add_argument(
        "--witness-out", default=None,
        help="file for a cover with no coloring, written when there is one",
    )
    p.set_defaults(func=cmd_colorable)

    p = sub.add_parser(
        "theorem",
        help="color a 4-/6-cycle-free plane graph from a random 3-list cover",
    )
    p.add_argument("plane", help="plane-graph file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="coloring output file")
    p.add_argument("--trace-out", default=None, help="reduction trace output file")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("audit", help="run the discharging ledger and case audit")
    p.add_argument("plane", help="plane-graph file")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen", help="generate a random plane graph without 4-/6-cycles")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("lemma", help="exhaustively verify a reducible configuration")
    p.add_argument(
        "kind",
        choices=[k.value for k in ConfigKind] + ["all"],
    )
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("catalog", help="list or export built-in instances")
    p.add_argument("name", nargs="?", choices=catalog_mod.entry_names(), metavar="name")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command makes no reference cycles; see the module docstring
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (``dpcolor catalog | head -3``), which
        # says nothing about the input; stdout goes to the null device so
        # that the interpreter's last flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (DpColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()

