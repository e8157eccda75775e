import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpcolor import cli, graphs
from dpcolor.catalog import load as load_catalog
from dpcolor.cli import main
from dpcolor.covers import Cover, random_cover, uniform_assignment
from dpcolor.embedding import plane_from_rotations
from dpcolor.fileio import (
    GRAPH_HEADER,
    cover_to_text,
    graph_to_text,
    plane_from_text,
    plane_to_text,
)
from dpcolor.generate import generate_plane_no46
from dpcolor.graphs import build_graph
from dpcolor.solver import impropriety

from oracles import diagonal_cover
from test_fileio import (
    BAD_COVERS,
    HUGE_N_GRAPH,
    MISSING_N_PLANE,
    NON_INTEGER_N_PLANES,
    huge_n_cover,
    refuse_graphs_above_the_cap,
    refuse_graphs_above_the_lists,
)
from test_embedding import BAD_ROTATIONS
from test_plane_golden import fan
from test_solver import refuse_large_factorials


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def c4_graph_file(tmp_path):
    return write(
        tmp_path, "c4.txt", graph_to_text(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    )


def test_solve_on_a_path_past_the_recursion_limit(tmp_path, capsys):
    n = 3000
    graph = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    cover = random_cover(graph, uniform_assignment(n, 3), seed=5, perfect=True)
    path = write(tmp_path, "path.json", cover_to_text(cover))
    assert main(["solve", path, "-d", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # impropriety() also rejects a color outside its list
    assert max(impropriety(cover, tuple(doc["colors"]))) == doc["max_impropriety"] == 0


def _twisted_c4_file(tmp_path):
    """A 2-list cover of C4 with one crossed matching: it has no coloring."""
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    matchings = [
        ((1, 2), (2, 1)) if edge == (0, 3) else ((1, 1), (2, 2))
        for edge in c4.edges
    ]
    cover = Cover(graph=c4, lists=uniform_assignment(4, 2), matchings=tuple(matchings))
    return write(tmp_path, "tw.json", cover_to_text(cover))


def test_solve_unsat_twisted_c4(tmp_path, capsys):
    path = _twisted_c4_file(tmp_path)
    assert main(["solve", path, "-d", "0"]) == 1
    assert "UNSAT" in capsys.readouterr().out


def test_solve_has_no_brute_option(tmp_path, capsys):
    # one search decides solve; argparse refuses the removed switch
    path = _twisted_c4_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "-d", "0", "--brute"])
    assert exc.value.code == 2
    assert "--brute" in capsys.readouterr().err


def test_solve_unsat_writes_no_coloring_file(tmp_path, capsys):
    # -o names the coloring file; with no coloring there is nothing to write
    path = _twisted_c4_file(tmp_path)
    out = tmp_path / "coloring.json"
    assert main(["solve", path, "-d", "0", "-o", str(out)]) == 1
    assert capsys.readouterr().out == "UNSAT\n"
    assert not out.exists()


def test_solve_k4_with_slack(tmp_path, capsys):
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cover = diagonal_cover(k4, uniform_assignment(4, 2))
    path = write(tmp_path, "k4.json", cover_to_text(cover))
    assert main(["solve", path, "-d", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_impropriety"] <= 1


def test_solve_empty_cover(tmp_path, capsys):
    cover = diagonal_cover(build_graph(0, []), ())
    path = write(tmp_path, "empty.json", cover_to_text(cover))
    assert main(["solve", path, "-d", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["colors"] == []


def test_colorable_c4_at_k2_writes_an_unsat_witness(tmp_path, capsys):
    witness = str(tmp_path / "witness.json")
    assert main(["colorable", c4_graph_file(tmp_path), "-k", "2", "-d", "0",
                 "--witness-out", witness]) == 1
    assert capsys.readouterr().out == "colorable: no (2 searches, 2 covers checked)\n"
    assert main(["solve", witness, "-d", "0"]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_colorable_k4_at_k4_searches_one_cover_per_orbit(tmp_path, capsys):
    path = write(tmp_path, "k4.json", plane_to_text(load_catalog("k4")))
    witness = tmp_path / "witness.json"
    assert main(["colorable", path, "-k", "4", "-d", "0", "--witness-out", str(witness)]) == 0
    assert capsys.readouterr().out == "colorable: yes (365 searches, 13824 covers checked)\n"
    assert not witness.exists()


@pytest.mark.parametrize(
    "bad", [["-k", "2", "-d", "-1"], ["-k", "0", "-d", "0"], ["-k", "-1", "-d", "0"]]
)
def test_colorable_rejects_bad_bounds_with_one_line(tmp_path, capsys, bad):
    assert main(["colorable", c4_graph_file(tmp_path), *bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, k", [("path4", 3), ("path4", 1), ("k3", 3)])
def test_colorable_rejects_a_negative_impropriety_bound_on_any_graph(tmp_path, capsys, name, k):
    # a forest at k >= 2 is answered with no search, yet d = -1 is no bound
    path = write(tmp_path, f"{name}.json", plane_to_text(load_catalog(name)))
    assert main(["colorable", path, "-k", str(k), "-d", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: impropriety bound -1 is negative\n"


def test_colorable_refuses_a_huge_edge_list_before_building_it(tmp_path, capsys, monkeypatch):
    refuse_graphs_above_the_cap(monkeypatch)
    path = write(tmp_path, "huge.txt", HUGE_N_GRAPH)
    assert main(["colorable", path, "-k", "3", "-d", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: 1000000000000 vertices exceed the limit of 1000000\n"


# edge-list files with one bad line, and the message that names it
BAD_GRAPH_LINES = {
    "three-values": (f"{GRAPH_HEADER}\n3 2\n0 1\n0 1 2\n", "line 4: expected 'u v', got '0 1 2'"),
    "one-value": (f"{GRAPH_HEADER}\n3 2\n0 1\n  2\n", "line 4: expected 'u v', got '2'"),
    "non-integer": (f"{GRAPH_HEADER}\n\n3 2\n0 x\n1 2\n", "line 4: expected 'u v', got '0 x'"),
    "bad-header": (f"{GRAPH_HEADER}\n3 2 1\n0 1\n", "line 2: expected 'n m', got '3 2 1'"),
    # int() would read each of these tokens as a vertex
    "underscore": (f"{GRAPH_HEADER}\n11 1\n0 1_0\n", "line 3: expected 'u v', got '0 1_0'"),
    "plus-sign": (f"{GRAPH_HEADER}\n3 1\n0 +1\n", "line 3: expected 'u v', got '0 +1'"),
    "arabic-indic": (f"{GRAPH_HEADER}\n3 1\n0 \u0661\n", "line 3: expected 'u v', got '0 \u0661'"),
    "signed-header": (f"{GRAPH_HEADER}\n+3 1\n0 1\n", "line 2: expected 'n m', got '+3 1'"),
    # edges that build_graph refuses, named by their line
    "out-of-range": (f"{GRAPH_HEADER}\n3 1\n0 10\n", "line 3: vertex 10 not in 0..2, got '0 10'"),
    "loop": (f"{GRAPH_HEADER}\n3 2\n0 1\n\n2 2\n", "line 5: loop at vertex 2, got '2 2'"),
    "repeated": (f"{GRAPH_HEADER}\n3 3\n0 1\n1 2\n1 0\n",
                 "line 5: edge (0, 1) given twice (line 3), got '1 0'"),
}


@pytest.mark.parametrize("text, message", BAD_GRAPH_LINES.values(), ids=BAD_GRAPH_LINES)
def test_colorable_names_the_bad_line_of_an_edge_list(tmp_path, capsys, text, message):
    assert main(["colorable", write(tmp_path, "g.txt", text), "-k", "2", "-d", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_colorable_refuses_a_huge_k_without_computing_its_factorial(tmp_path, capsys, monkeypatch):
    refuse_large_factorials(monkeypatch)
    path = write(tmp_path, "k3.json", plane_to_text(load_catalog("k3")))
    assert main(["colorable", path, "-k", "10000000", "-d", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 10000000! matchings per free edge exceed budget 1000000\n"


def test_theorem_on_bowtie(tmp_path, capsys):
    path = write(tmp_path, "bowtie.json", plane_to_text(load_catalog("bowtie")))
    trace_path = str(tmp_path / "trace.json")
    assert main(["theorem", path, "--seed", "3", "--trace-out", trace_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_impropriety"] <= 1
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["steps"][0]["kind"] == "low-vertex"


def test_theorem_on_k3(tmp_path, capsys):
    path = write(tmp_path, "k3.json", plane_to_text(load_catalog("k3")))
    assert main(["theorem", path, "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_impropriety"] <= 1


def test_theorem_on_a_path_past_the_recursion_limit(tmp_path, capsys):
    n = 1601
    path = write(
        tmp_path,
        "path.json",
        json.dumps(
            {
                "format": "dpcolor-plane/1",
                "n": n,
                "rotations": [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)],
            }
        ),
    )
    assert main(["theorem", path, "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_impropriety"] <= 1


def test_theorem_rejects_c4(tmp_path, capsys):
    path = write(tmp_path, "c4.json", plane_to_text(load_catalog("c4")))
    assert main(["theorem", path]) == 2
    assert capsys.readouterr().err == "error: graph contains a 4-cycle: 0-1-2-3\n"


def test_solve_reports_degenerate_covers(tmp_path, capsys):
    cover = diagonal_cover(build_graph(2, [(0, 1)]), ((1, 2), ()))
    path = write(tmp_path, "deg.json", cover_to_text(cover))
    assert main(["solve", path, "-d", "0"]) == 2
    assert "empty list" in capsys.readouterr().err


def test_solve_rejects_negative_impropriety_with_one_line(tmp_path, capsys):
    cover = diagonal_cover(build_graph(1, []), ((1,),))
    path = write(tmp_path, "one.json", cover_to_text(cover))
    assert main(["solve", path, "-d", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [text for text, _ in BAD_COVERS.values()], ids=BAD_COVERS)
def test_solve_rejects_malformed_covers_with_one_line(tmp_path, capsys, text):
    assert main(["solve", write(tmp_path, "bad.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["audit", "theorem"])
def test_non_integer_rings_are_rejected_with_one_line(tmp_path, capsys, command):
    text = json.dumps({"format": "dpcolor-plane/1", "n": 2, "rotations": [["1"], [0]]})
    assert main([command, write(tmp_path, "bad.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "rotation at 0" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["audit", "theorem"])
@pytest.mark.parametrize("rotations, message",
                         [(rotations, message) for rotations, _, message in BAD_ROTATIONS.values()],
                         ids=BAD_ROTATIONS)
def test_inconsistent_rings_are_rejected_with_the_loader_message(tmp_path, capsys, command,
                                                                 rotations, message):
    text = json.dumps({"format": "dpcolor-plane/1", "n": len(rotations), "rotations": rotations})
    assert main([command, write(tmp_path, "bad.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["audit", "theorem"])
@pytest.mark.parametrize("rotations", [[[1]], 5], ids=["one-ring-for-two", "not-a-list"])
def test_plane_file_without_n_rings_is_rejected_with_one_line(tmp_path, capsys, command, rotations):
    text = json.dumps({"format": "dpcolor-plane/1", "n": 2, "rotations": rotations})
    assert main([command, write(tmp_path, "bad.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: rotations: expected a list of n rings\n"


@pytest.mark.parametrize("command", ["audit", "theorem"])
def test_plane_file_without_n_is_rejected_with_one_line(tmp_path, capsys, command):
    assert main([command, write(tmp_path, "bad.json", MISSING_N_PLANE)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: missing key 'n'\n"


@pytest.mark.parametrize("command", ["audit", "theorem"])
@pytest.mark.parametrize("text", NON_INTEGER_N_PLANES.values(), ids=NON_INTEGER_N_PLANES)
def test_plane_file_with_a_non_integer_n_is_rejected_with_one_line(tmp_path, capsys, command, text):
    assert main([command, write(tmp_path, "bad.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: n: expected an integer") and err.count("\n") == 1


def test_solve_refuses_a_huge_n_before_building_its_graph(tmp_path, capsys, monkeypatch):
    refuse_graphs_above_the_lists(monkeypatch)
    assert main(["solve", write(tmp_path, "huge.json", huge_n_cover())]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: invalid cover (fibers): 0 lists for 1000000000000 vertices\n"


def test_cover_file_without_matchings_is_rejected_with_one_line(tmp_path, capsys):
    text, _ = BAD_COVERS["missing-matchings"]
    assert main(["solve", write(tmp_path, "bad.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: missing key 'matchings'\n"


@pytest.mark.parametrize("command", ["audit", "theorem"])
def test_empty_plane_graph_is_rejected_with_one_line(tmp_path, capsys, command):
    # no vertex, no edge, no face: 0 - 0 + 0 is not 2
    text = json.dumps({"format": "dpcolor-plane/1", "n": 0, "rotations": []})
    assert main([command, write(tmp_path, "empty.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Euler check failed: 0 - 0 + 0 != 2\n"


@pytest.mark.parametrize("command", ["audit", "theorem", "solve"])
def test_non_utf8_input_is_rejected_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"format": "\xff\xfe"}')
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: not UTF-8") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["audit", "solve"])
def test_json_nested_past_the_parser_limit_is_rejected_with_one_line(tmp_path, capsys, command):
    assert main([command, write(tmp_path, "deep.json", "[" * 200_000)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: not valid JSON") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["audit", "theorem", "solve"])
def test_integer_past_the_conversion_limit_is_rejected_with_one_line(tmp_path, capsys, command):
    # json.loads raises a plain ValueError for an integer literal longer
    # than the interpreter's 4,300-digit conversion limit
    text = '{"format": "dpcolor-plane/1", "n": ' + "9" * 5000 + ', "rotations": []}'
    assert main([command, write(tmp_path, "huge.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: not valid JSON") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["catalog"], ["gen", "-n", "50"]], ids=["print", "emit"])
def test_closed_stdout_exits_0_without_a_message(command):
    # ``dpcolor catalog | head -3``: the reader going away is not bad input,
    # and the interpreter must not report a failed flush at shutdown either
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "dpcolor", *command], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # no reader left: the first write to stdout fails
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_python_m_dpcolor_runs_the_command_line():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "dpcolor", "lemma", "all"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "low-vertex: 1/1 covers colorable",
        "adjacent-threes: 2/2 covers colorable",
        "four-three-threes: 27/27 covers colorable",
    ]


def _plane_file(tmp_path, name):
    return write(tmp_path, f"{name}.json", plane_to_text(load_catalog(name)))


def _cover_file(tmp_path):
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return write(tmp_path, "cover.json", cover_to_text(diagonal_cover(k4, uniform_assignment(4, 2))))


OUT_COMMANDS = {
    "solve": lambda tmp: ["solve", _cover_file(tmp), "-d", "1"],
    "theorem": lambda tmp: ["theorem", _plane_file(tmp, "bowtie"), "--seed", "3"],
    "audit-k4": lambda tmp: ["audit", _plane_file(tmp, "k4"), "--format", "table"],
    "audit-bowtie": lambda tmp: ["audit", _plane_file(tmp, "bowtie"), "--format", "json"],
    "gen": lambda tmp: ["gen", "-n", "12", "--seed", "7"],
    "catalog": lambda tmp: ["catalog", "bowtie"],
}


@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS)
def test_out_file_holds_what_stdout_prints_without_it(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    status = main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["-o", str(out)]) == status == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


# every command that writes a file: its arguments, and its output options
WRITING_COMMANDS = {
    "theorem": (lambda tmp: ["theorem", _plane_file(tmp, "bowtie"), "--seed", "3"],
                ["-o", "--trace-out"]),
    "audit-table": (lambda tmp: ["audit", _plane_file(tmp, "bowtie")], ["-o"]),
    "audit-json": (lambda tmp: ["audit", _plane_file(tmp, "bowtie"), "--format", "json"], ["-o"]),
    "audit-rules-skipped": (lambda tmp: ["audit", _plane_file(tmp, "k4")], ["-o"]),
    "gen": (lambda tmp: ["gen", "-n", "12", "--seed", "7"], ["-o"]),
    "solve": (lambda tmp: ["solve", _cover_file(tmp), "-d", "1"], ["-o"]),
    "catalog": (lambda tmp: ["catalog", "bowtie"], ["-o"]),
    "colorable": (lambda tmp: ["colorable", c4_graph_file(tmp), "-k", "2", "-d", "0"],
                  ["--witness-out"]),
}


def _with_outputs(argv, options, paths):
    return argv + [arg for option, path in zip(options, paths) for arg in (option, str(path))]


@pytest.mark.parametrize("argv, options", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS)
def test_rewriting_a_file_gives_the_bytes_of_a_fresh_write(tmp_path, capsys, argv, options):
    # an output is written over the old bytes and cut to length: a longer
    # old file leaves no tail, and the file keeps its inode and mode
    argv = argv(tmp_path)
    fresh = [tmp_path / f"fresh{i}.out" for i in range(len(options))]
    old = [tmp_path / f"old{i}.out" for i in range(len(options))]
    for path in old:
        path.write_bytes(b"x" * 100_000)
        path.chmod(0o640)
    kept = [(path.stat().st_ino, path.stat().st_mode) for path in old]
    status = main(_with_outputs(argv, options, fresh))
    assert main(_with_outputs(argv, options, old)) == status
    assert [path.read_bytes() for path in old] == [path.read_bytes() for path in fresh]
    assert [(path.stat().st_ino, path.stat().st_mode) for path in old] == kept
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("argv, options", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS)
def test_out_to_dev_null_exits_as_to_a_file(tmp_path, capsys, argv, options):
    # the null device cannot be cut to length, and is not
    argv = argv(tmp_path)
    status = main(_with_outputs(argv, options, [tmp_path / f"{i}.out" for i in range(len(options))]))
    first = capsys.readouterr()
    assert main(_with_outputs(argv, options, ["/dev/null"] * len(options))) == status
    assert capsys.readouterr() == first


def test_emit_opens_its_file_without_truncating_it(tmp_path, capsys, monkeypatch):
    opened = []
    os_open = os.open
    monkeypatch.setattr(os, "open", lambda path, flags, *rest: opened.append(flags)
                        or os_open(path, flags, *rest))
    out = tmp_path / "gen.json"
    assert main(["gen", "-n", "12", "--seed", "7", "-o", str(out)]) == 0
    assert len(opened) == 1 and not opened[0] & os.O_TRUNC
    assert out.read_text() == plane_to_text(generate_plane_no46(12, 7))


def test_audit_calls_has_forbidden_cycles_once(tmp_path, monkeypatch):
    path = write(tmp_path, "dodec.json", plane_to_text(load_catalog("dodecahedron")))
    searched = []
    search = graphs.has_forbidden_cycles
    monkeypatch.setattr(
        graphs, "has_forbidden_cycles", lambda graph: searched.append(graph.n) or search(graph)
    )
    assert main(["audit", path, "--format", "json", "-o", str(tmp_path / "audit.json")]) == 0
    assert searched == [20]


@pytest.mark.parametrize("command", [["theorem"], ["audit", "--format", "json"]])
def test_a_large_k2t_is_refused_naming_its_least_4_cycle(tmp_path, capsys, command):
    # K2,5000: 12.5 million 4-cycles, and each passes through a hub
    leaves = list(range(2, 5002))
    rotations = [leaves, leaves[::-1]] + [[0, 1]] * len(leaves)
    path = write(tmp_path, "k2.json", plane_to_text(plane_from_rotations(rotations)))
    assert main([command[0], path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph contains a 4-cycle: 0-2-1-3\n"


def test_audit_k4_reports_initial_table(tmp_path, capsys):
    path = write(tmp_path, "k4.json", plane_to_text(load_catalog("k4")))
    assert main(["audit", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("transfer rules skipped: graph contains a 4-cycle: 0-1-2-3\n"
                          "initial total: -12\n")


def test_audit_json_on_a_4_cycle_exits_2_as_theorem_does(tmp_path, capsys):
    path = write(tmp_path, "k4.json", plane_to_text(load_catalog("k4")))
    out = tmp_path / "audit.json"
    assert main(["audit", path, "--format", "json", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph contains a 4-cycle: 0-1-2-3\n"
    assert not out.exists()
    assert main(["theorem", path]) == 2
    assert capsys.readouterr().err == captured.err


def test_audit_bowtie_table(tmp_path, capsys):
    path = write(tmp_path, "bowtie.json", plane_to_text(load_catalog("bowtie")))
    assert main(["audit", path]) == 0
    out = capsys.readouterr().out
    assert "totals: initial -12, final -12" in out


def test_audit_tree_all_out_of_analysis(tmp_path, capsys):
    path = write(tmp_path, "spider.json", plane_to_text(load_catalog("spider")))
    assert main(["audit", path]) == 0
    out = capsys.readouterr().out
    assert "totals: initial -12, final -12" in out
    assert "pass" not in [line.split()[-1] for line in out.splitlines() if line.startswith(("vertex", "face"))]


def test_audit_json_format(tmp_path, capsys):
    path = write(tmp_path, "aug.json", plane_to_text(load_catalog("aug_triangle_full")))
    assert main(["audit", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final_total"]["display"] == "-12"
    assert any(e["verdict"] == "pass" for e in doc["elements"])


def test_gen_writes_verified_instance(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    assert main(["gen", "-n", "9", "--seed", "4", "-o", out]) == 0
    pg = plane_from_text((tmp_path / "gen.json").read_text())
    assert pg.graph.n == 9
    assert not pg.graph.has_forbidden_cycles


def test_gen_deterministic_output(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "-n", "8", "--seed", "1", "-o", a]) == 0
    assert main(["gen", "-n", "8", "--seed", "1", "-o", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_single_vertex(tmp_path, capsys):
    assert main(["gen", "-n", "1", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1 and doc["rotations"] == [[]]


def test_gen_exhausted(capsys):
    assert main(["gen", "-n", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need at least one vertex\n"


def test_lemma_all(capsys):
    assert main(["lemma", "all"]) == 0
    out = capsys.readouterr().out
    assert "low-vertex: 1/1 covers colorable" in out
    assert "adjacent-threes: 2/2 covers colorable" in out
    assert "four-three-threes: 27/27 covers colorable" in out


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "dodecahedron" in out and "no46=no" in out and "no46=yes" in out


def test_catalog_export(tmp_path):
    out = str(tmp_path / "k3.json")
    assert main(["catalog", "k3", "-o", out]) == 0
    assert plane_from_text((tmp_path / "k3.json").read_text()).graph.n == 3


def test_catalog_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "nonesuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_a_key_error_from_a_command_is_a_bug_not_an_input_error(monkeypatch):
    # main turns only the package's errors and OS errors into exit 2
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "generate_plane_no46", broken)
    with pytest.raises(KeyError):
        main(["gen", "-n", "5"])


def _generated_plane_file(tmp_path, n, seed):
    return write(tmp_path, f"gen-{n}.json", plane_to_text(generate_plane_no46(n, seed)))


def _fan_file(tmp_path, blades):
    rotations = fan(blades, pendant=False)
    return write(tmp_path, "fan.json", plane_to_text(plane_from_rotations(rotations)))


# Every subcommand on catalog inputs, audit and theorem on a generated plane
# of 150 vertices, above the generated planes the benchmark runs, and audit
# on a 1537-vertex fan, its largest audit plane; main pauses the cyclic
# collector while one runs, which costs nothing only while commands make no
# cycles.
COLLECTOR_COMMANDS = {
    "theorem": lambda tmp: ["theorem", _plane_file(tmp, "dodecahedron"), "--seed", "1"],
    "audit-table": lambda tmp: ["audit", _plane_file(tmp, "dodecahedron")],
    "audit-json": lambda tmp: ["audit", _plane_file(tmp, "dodecahedron"), "--format", "json"],
    "gen": lambda tmp: ["gen", "-n", "50", "--seed", "3"],
    "solve": lambda tmp: ["solve", _cover_file(tmp), "-d", "1"],
    "colorable": lambda tmp: ["colorable", _plane_file(tmp, "cube"), "-k", "4", "-d", "0"],
    "lemma": lambda tmp: ["lemma", "all"],
    "catalog": lambda tmp: ["catalog"],
    "theorem-150": lambda tmp: ["theorem", _generated_plane_file(tmp, 150, 11), "--seed", "1"],
    "audit-json-150": lambda tmp: ["audit", _generated_plane_file(tmp, 150, 11),
                                   "--format", "json"],
    "audit-json-fan-1537": lambda tmp: ["audit", _fan_file(tmp, 256), "--format", "json"],
}


@pytest.mark.parametrize("argv", COLLECTOR_COMMANDS.values(), ids=COLLECTOR_COMMANDS)
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, argv):
    # with the collector paused, a cycle a command made would outlive it
    # until the next collection, which would then find it
    argv = argv(tmp_path)
    cli.build_parser()  # built once per process, before the pause
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0


class _ClosedPipe:
    """A stdout whose reader has gone: every write fails, noting whether
    the collector was on."""

    def __init__(self, fd):
        self._fd = fd
        self.collecting = []

    def write(self, text):
        self.collecting.append(gc.isenabled())
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "exit-2", "usage", "broken-pipe"])
def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch, enabled, outcome):
    # the pause is main's own: whatever the exit, the caller gets back the
    # collector state it had
    calls = {
        "exit-0": (["catalog", "k3", "-o", str(tmp_path / "k3.json")], 0),
        "exit-1": (["colorable", c4_graph_file(tmp_path), "-k", "2", "-d", "0"], 1),
        "exit-2": (["audit", str(tmp_path / "missing.json")], 2),
        "usage": (["catalog", "nonesuch"], 2),
        "broken-pipe": (["catalog"], 0),
    }
    argv, status = calls[outcome]
    was_enabled = gc.isenabled()
    with open(tmp_path / "stdout", "w") as stdout:
        pipe = _ClosedPipe(stdout.fileno())
        if outcome == "broken-pipe":
            monkeypatch.setattr(sys, "stdout", pipe)
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "usage":
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == status
            else:
                assert main(argv) == status
            assert gc.isenabled() == enabled
            assert pipe.collecting == ([False] if outcome == "broken-pipe" else [])
        finally:
            (gc.enable if was_enabled else gc.disable)()
