"""Checks on the library's source itself, on the calls its generator makes,
and that every demo runs."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dpcolor
from dpcolor import catalog, cli, discharging, embedding, fileio, generate, graphs, reduction
from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.discharging import apply_rules, audit_cases
from dpcolor.fileio import audit_to_json_text, trace_to_text
from dpcolor.reduction import ConfigKind, color_planar_no46

PACKAGE = Path(dpcolor.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _raised_name(node) -> str | None:
    """The class name a ``raise`` statement names, else ``None``."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return None
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so every check must be an explicit raise;
    # a broken guarantee raises ``InternalInvariantError``, not ``AssertionError``
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raised_name(node) == "AssertionError"
        ]
    assert not found, found


def test_library_imports_only_the_standard_library():
    # the runtime has no dependencies; a third-party import would add one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, found


def test_oracles_import_no_private_name_from_the_library():
    # an oracle that calls a private helper of the code it checks shares
    # that helper's bugs
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpcolor"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, found


def test_library_imports_no_private_name_from_a_sibling():
    # a private helper has one home: a sibling importing it would split a
    # decision, such as which covers the all-covers walk stands for, across
    # modules
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "dpcolor")
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not found, found


def test_generator_repair_searches_no_whole_graph(monkeypatch):
    # repair looks only at the cycles through the edges a move inserted; a
    # global cycle search, or a Graph built per repair round, shows up here
    counts = Counter()
    in_repair = [False]

    def counted(fn, name):
        def call(*args, **kwargs):
            counts[f"{name} in repair" if in_repair[0] else name] += 1
            return fn(*args, **kwargs)
        return call

    watched = ["graphs.has_forbidden_cycles", "graphs.build_graph",
               "embedding.graph_from_rotations"]
    by_id = {id(getattr(sys.modules[f"dpcolor.{layer}"], attr)): f"{layer}.{attr}"
             for layer, attr in (name.split(".") for name in watched)}
    for mod_name, module in list(sys.modules.items()):  # every binding, from-imports too
        if mod_name.split(".")[0] == "dpcolor":
            for attr, obj in list(vars(module).items()):
                if id(obj) in by_id:
                    monkeypatch.setattr(module, attr, counted(obj, by_id[id(obj)]))
    repair = generate._repair

    def flagged_repair(*args, **kwargs):
        in_repair[0] = True
        try:
            return repair(*args, **kwargs)
        finally:
            in_repair[0] = False

    monkeypatch.setattr(generate, "_repair", flagged_repair)
    assert generate.generate_plane_no46(200, 200).graph.n == 200
    assert counts["graphs.has_forbidden_cycles"] == 1
    assert not [name for name in counts if name.endswith("in repair")]


def test_generator_builds_one_plane_graph_per_call(monkeypatch):
    # the faces come from the registry as it changes; the plane graph is
    # built only for the result
    calls_per_run = []
    for name in ("plane_from_rotations", "trace_faces"):
        fn = getattr(embedding, name)

        def call(*args, _fn=fn, _name=name, **kwargs):
            calls_per_run[-1][_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):  # every binding
            if mod_name.split(".")[0] == "dpcolor" and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, call)
    for n, seed in ((200, 200), (60, 60), (3, 1)):
        calls_per_run.append(Counter())
        generate.generate_plane_no46(n, seed)
    assert all(calls == {"plane_from_rotations": 1, "trace_faces": 1} for calls in calls_per_run)


def test_registry_edits_walk_no_face(monkeypatch):
    # an edit splices the walks it changes; the face walk runs only inside
    # trace_faces, once per returned graph, so a re-walk per edit shows up here
    calls = Counter()
    for name in ("_face_walks", "trace_faces"):
        fn = getattr(embedding, name)

        def call(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(embedding, name, call)
    for n, seed in ((200, 200), (60, 60), (3, 1)):
        generate.generate_plane_no46(n, seed)
    assert calls == {"_face_walks": 3, "trace_faces": 3}


def test_theorem_traces_its_plane_once(monkeypatch, tmp_path):
    # a theorem run builds one plane graph: the tracer and its face walk
    # run once each, and nothing re-traces
    calls = Counter()
    for name in ("_face_walks", "trace_faces"):
        fn = getattr(embedding, name)

        def call(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(embedding, name, call)
    plane = tmp_path / "plane.json"
    plane.write_text(fileio.plane_to_text(generate.generate_plane_no46(150, 11)))
    calls.clear()
    argv = ["theorem", str(plane), "--seed", "3", "-o", str(tmp_path / "c.json"),
            "--trace-out", str(tmp_path / "t.json")]
    assert cli.main(argv) == 0
    assert calls == {"_face_walks": 1, "trace_faces": 1}


def test_audit_and_trace_writers_skip_the_indent_encoder(monkeypatch):
    # json.dumps with an indent runs CPython's pure-Python encoder; the two
    # large documents are written directly, in the same bytes
    pg = generate.generate_plane_no46(150, 11)
    ledger = apply_rules(pg)
    report = audit_cases(pg, ledger)
    cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed=11, perfect=True)
    trace = color_planar_no46(pg, cover).trace
    indents = []
    dumps = json.dumps

    def watched(*args, **kwargs):
        indents.append(kwargs.get("indent"))
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", watched)
    assert audit_to_json_text(report, ledger) and trace_to_text(trace)
    assert [indent for indent in indents if indent is not None] == []


def test_writers_render_each_transfer_once(monkeypatch):
    # the audit renders each transfer once, for the log, and no entry
    # repeats it; trace steps call no transfer renderer
    pg = generate.generate_plane_no46(150, 11)
    ledger = apply_rules(pg)
    report = audit_cases(pg, ledger)
    cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed=11, perfect=True)
    trace = color_planar_no46(pg, cover).trace
    calls = Counter()
    fn = fileio._transfer_json

    def call(*args):
        calls["_transfer_json"] += 1
        return fn(*args)

    monkeypatch.setattr(fileio, "_transfer_json", call)
    assert trace and trace_to_text(trace)
    assert calls == {}
    text = audit_to_json_text(report, ledger)
    assert ledger.transfers and calls == {"_transfer_json": len(ledger.transfers)}
    assert text.count('"rule": ') == len(ledger.transfers)


def test_theorem_path_builds_no_per_step_objects(monkeypatch):
    # the trace writer renders each one-vertex step from its template,
    # with no per-list helper call; this trace has only one-vertex steps
    pg = generate.generate_plane_no46(150, 11)
    cover = random_cover(pg.graph, uniform_assignment(pg.graph.n, 3), seed=11, perfect=True)
    calls = Counter()

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    trace = color_planar_no46(pg, cover).trace
    for name in ("_json_list", "_json_ints"):
        monkeypatch.setattr(fileio, name, counted(getattr(fileio, name), name))
    assert len(trace) > 1 and trace_to_text(trace)
    assert calls == {"_json_list": 1}


def test_library_passes_no_indent_to_json_dumps():
    # json.dumps with an indent runs the pure-Python encoder; every document
    # is written from the fileio templates instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps" and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_emit_is_the_one_file_writer():
    # cli._emit writes a file in place and then cuts it to length; a second
    # writer could bring back a truncating open unseen.  The one other open
    # is of the null device, where main sends stdout once its reader is gone
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(node): f"{path.stem}.{fn.name}" for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        devnull = {id(call.func) for call in ast.walk(tree)
                   if isinstance(call, ast.Call) and call.args
                   and ast.unparse(call.args[0]) == "os.devnull"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
                name = node.attr
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "os.open":
                name = "os.open(os.devnull)" if id(node) in devnull else "os.open"
            elif isinstance(node, ast.Name) and node.id == "open":
                name = "open"
            else:
                continue
            sites.append(f"{owner.get(id(node), path.stem)}: {name}")
    assert sorted(sites) == ["cli._emit: os.open", "cli.main: os.open(os.devnull)"]


def test_library_touches_no_instance_dict():
    # reading or writing an object's __dict__ goes round its class: a frozen
    # dataclass's fields, or what a cached_property would compute
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars" and node.args
        ]
    assert not found, found


def test_forbidden_cycle_check_runs_no_path_search(monkeypatch):
    # the 4- and 6-checks go by degree order; the search over paths through
    # given edges is left to the generator's repair and to naming a cycle found
    pg = generate.generate_plane_no46(150, 11)
    graph = graphs.build_graph(pg.graph.n, pg.graph.edges)  # the check is cached per Graph
    searched = []

    def search(adjacency, edges):
        searched.append(list(edges))

    monkeypatch.setattr(graphs, "smallest_forbidden_cycle", search)
    assert not graph.has_forbidden_cycles
    assert searched == []


@pytest.mark.parametrize("name", ["k2-1500", "c4", "k4", "cube"])
def test_six_check_never_runs_on_a_graph_with_a_4_cycle(monkeypatch, name):
    # the 6-check keeps at most two paths per endpoint only when there is
    # no 4-cycle; on K2,t with a 4-cycle it would keep t of them per hub
    if name == "k2-1500":
        graph = graphs.build_graph(1502, [(h, v) for h in (0, 1) for v in range(2, 1502)])
    else:
        pg = catalog.load(name)
        graph = graphs.build_graph(pg.graph.n, pg.graph.edges)  # the check is cached per Graph
    entered = []
    six_check = graphs._has_6_cycle
    monkeypatch.setattr(graphs, "_has_6_cycle",
                        lambda adjacency, rank: entered.append(1) or six_check(adjacency, rank))
    assert graph.has_forbidden_cycles
    assert entered == []


def test_library_has_no_recursive_functions():
    # a search that recurses once per path vertex or per assigned vertex
    # dies with RecursionError on a large enough input; every search in
    # the library keeps its own stack instead.  A function calls itself by
    # its bare name; a method by ``self.name``, since a bare name in a
    # method's body is looked up in the module (``Graph.has_forbidden_cycles``
    # calls the module function of that name)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{call.lineno} {fn.name}"
                    for call in ast.walk(fn)
                    if isinstance(call, ast.Call)
                    and (isinstance(call.func, ast.Attribute)
                         and isinstance(call.func.value, ast.Name)
                         and call.func.value.id == "self"
                         and call.func.attr == fn.name
                         if id(fn) in methods
                         else isinstance(call.func, ast.Name) and call.func.id == fn.name)
                ]
    assert not found, found


def test_library_has_no_dead_helpers():
    # a private module-level function, or a nested one, that nothing names
    # is left over from code that was merged or removed; so is a public
    # method of a class that the library never calls as an attribute, or a
    # public property it never reads as one.  A method is matched by calls
    # only, so a field of the same name (AuditEntry.incoming) does not keep
    # it alive.  ChargeLedger.incoming and .outgoing stay: the benchmark's
    # tracer (benchmarks/tracer.py) wraps them by name
    kept = {"ChargeLedger.incoming", "ChargeLedger.outgoing"}
    assert _dead_helpers(kept) == []


def test_dead_helper_scan_tells_a_method_from_a_field_of_its_name():
    assert _dead_helpers(set()) == ["discharging.py: ChargeLedger.incoming",
                                    "discharging.py: ChargeLedger.outgoing"]


def _dead_helpers(kept: set[str]) -> list[str]:
    """Unreferenced private functions and unused public class members of
    the library, except the ``Class.member`` names in ``kept``."""
    helpers = set()
    members = set()
    named = set()
    attributes = set()
    called = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helpers |= {(path.name, fn.name) for fn in tree.body
                    if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")}
        members |= {(path.name, cls.name, fn.name, _is_property(fn)) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            elif isinstance(node, ast.FunctionDef):
                helpers |= {(path.name, fn.name) for fn in ast.walk(node)
                            if fn is not node and isinstance(fn, ast.FunctionDef)}
    dead = [f"{file}: {name}" for file, name in sorted(helpers) if name not in named]
    dead += [f"{file}: {cls}.{name}" for file, cls, name, is_property in sorted(members)
             if name not in (attributes if is_property else called) and f"{cls}.{name}" not in kept]
    return dead


def _is_property(fn: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) in ("property", "cached_property") for d in fn.decorator_list)


def test_rule_names_appear_only_in_the_rules_table():
    # each discharging rule is written once, as a row of discharging.RULES;
    # no other code names a rule, so none can branch on one
    names = {f"R{i}" for i in range(1, 6)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        table = {id(node) for top in tree.body
                 if isinstance(top, ast.Assign) and [getattr(t, "id", None) for t in top.targets] == ["RULES"]
                 for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno} {node.value}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in names and id(node) not in table]
    assert found == []
    rows = [row[0] for row in discharging.RULES]
    assert rows == sorted(names)


def test_multi_vertex_kinds_appear_only_in_the_configs_table():
    # each configuration is written once, as a row of reduction.CONFIGS; no
    # other code in reduction names a multi-vertex kind, so none can branch
    # on one
    names = {"ADJACENT_THREES", "FOUR_THREE_THREES"}
    tree = ast.parse((PACKAGE / "reduction.py").read_text())
    table = {id(node) for top in tree.body
             if isinstance(top, ast.Assign) and [getattr(t, "id", None) for t in top.targets] == ["CONFIGS"]
             for node in ast.walk(top)}
    named = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and getattr(node.value, "id", None) == "ConfigKind"]
    assert len(named) == len(names)
    assert [node.lineno for node in named if id(node) not in table] == []
    assert [row[0] for row in reduction.CONFIGS] == list(ConfigKind)


def test_every_error_class_is_raised():
    # an error class nothing raises is dead weight in the exit-code contract
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        raised |= {_raised_name(node) for node in ast.walk(tree)}
    assert sorted(classes - {"DpColorError"} - raised) == []


def test_public_names_are_exactly_the_package_imports():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    namespace = {}
    exec("from dpcolor import *", namespace)
    assert set(dpcolor.__all__) <= namespace.keys()
    assert dpcolor.__all__ == sorted(dpcolor.__all__)
    assert set(dpcolor.__all__) == imported


def test_readme_command_line_block_lists_exactly_the_subcommands():
    # a subcommand added or removed without its line in the README's
    # "Command line" block leaves the README stale
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("dpcolor ")}
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)


def test_every_subcommand_option_is_read_by_its_handler():
    # an option its cmd_* never reads is a knob that changes nothing
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, parser in subparsers.choices.items():
        handler = parser.get_default("func")
        source = inspect.getsource(handler)
        unread += [f"{command} {action.dest}" for action in parser._actions
                   if action.dest not in ("help", "command", "func")
                   and f"args.{action.dest}" not in source]
    assert unread == []


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    # the demos are the public API's only callers outside the tests
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs():
    # the README's one Python block calls the public API as a user would
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
