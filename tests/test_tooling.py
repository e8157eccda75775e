"""Checks on the library's source itself and on the calls its generator makes."""

import ast
import sys
from collections import Counter
from pathlib import Path

import dpcolor
from dpcolor import generate

PACKAGE = Path(dpcolor.__file__).parent


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so every check must be an explicit raise;
    # a broken guarantee raises ``InternalInvariantError``, not ``AssertionError``
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
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

    watched = ["graphs.list_cycles", "graphs.has_forbidden_cycles", "graphs.has_cycle_of_length",
               "graphs.build_graph", "embedding.graph_from_rotations"]
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
    assert counts["graphs.has_cycle_of_length"] <= 2
    assert not [name for name in counts if "list_cycles" in name or name.endswith("in repair")]
