"""The four workloads: their job lists, inputs and independent checks.

A job calls ``dpcolor.cli.main(argv)`` in-process, or the library function
where the command line has none (``dp_chromatic``).  Its check runs after
the timed span and never calls the function under test: colorings are
re-scored against the cover here, audit ledgers are re-summed from their
own transfer list, generated graphs are re-traced here and searched for
4- and 6-cycles with networkx, and verdicts without a certificate are
compared with answers frozen in ``instances.json``.  The cover a
``theorem`` job colors is regenerated with the library's seeded
``random_cover``, which is input generation and not under test there.

The workload seed derives the cover seed of each ``theorem`` job and the
generator seed of each ``gen`` job.  ``audit`` and ``search`` run frozen
inputs only, so their inputs do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import dpcolor.cli as cli
import dpcolor.solver as solver
from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.graphs import build_graph

import families

LADDERS = {
    "theorem": {
        "chain": (101, 201, 401, 801),
        "dodec": (100, 200, 400, 800),
        # 1040 excision steps is past the default recursion limit.
        "path": (130, 260, 520, 1040),
    },
    "audit": {
        "chain": (101, 201, 401, 801),
        "fan": (97, 193, 385, 769, 1537),
    },
}
# One frozen generator output for every n from 12 to 111: job costs rise
# smoothly, so the p50 and p90 fall on no gap between sizes.
GEN_SMALL = [f"gen-{n}" for n in range(12, 112)]
SMALL = {
    "theorem": GEN_SMALL
    + [f"chain-{2 * k + 1}" for k in range(3, 25, 3)]
    + [f"path-{n}" for n in range(10, 101, 15)]
    + [f"dodec-{20 * c}" for c in (1, 2, 3, 4)],
    "audit": GEN_SMALL
    + [f"chain-{2 * k + 1}" for k in range(3, 25, 3)]
    + [f"fan-{6 * b + 1}" for b in range(1, 13)],
}
# (n, jobs) for ``dpcolor gen``: the p50 falls inside the n = 50 block
# and the p90 inside the n = 100 block.
GEN_LADDER = ((25, 20), (50, 60), (100, 20))
GRIDS = {(4, 4): "grid", (4, 8): "grid", (6, 6): None, (7, 7): None, (8, 8): "grid"}
# A job's budget is BUDGET_FACTOR times its median time on the seed at the
# reference speed, and at least its workload's MIN_BUDGET_S, which is at
# least three times the slowest job not listed in RUNG_SEED_S.  The budget is
# checked against the rescaled time, which on the seed varied up to 1.6
# times its median from pass to pass on the largest rungs.
BUDGET_FACTOR = 3
MIN_BUDGET_S = {"theorem": 1.0, "audit": 1.0, "gen": 2.0, "search": 3.0}
RUNG_SEED_S = {
    "theorem:chain-401": 0.67,
    "theorem:chain-801": 2.67,
    "theorem:dodec-400": 0.69,
    "theorem:dodec-800": 2.58,
    "theorem:path-520": 0.84,
    # Its time to the RecursionError; a quadratic extrapolation from
    # path-520 gives 3.4 s, within its budget.
    "theorem:path-1040": 2.46,
    "audit:chain-801": 1.2,
    "audit:fan-1537": 1.2,
}
# The seconds of --seconds that one pass stands for: a run of --seconds S
# makes round(S / PASS_S) passes, at least MIN_PASSES, the same number on
# every commit.  On the seed (2-core x86, Python 3.11) a pass took about
# 14, 5, 7 and 4 s, and --seconds 15 gives 3, 4, 3 and 4 passes.
PASS_S = {"theorem": 13.0, "audit": 3.75, "gen": 6.5, "search": 4.0}
WORKLOADS = tuple(MIN_BUDGET_S)

WRONG = "wrong"  # produced an answer that fails its check


@dataclass
class Outcome:
    kind: str | None = None
    message: str = ""
    counts: dict[str, int] = field(default_factory=dict)
    nm: int | None = None  # n + m when known only from the output
    deferred: str | None = None  # key of a check finished by deferred_checks


@dataclass
class Job:
    name: str
    nm: int
    call: Callable[[], object]
    check: Callable[[object, str], Outcome]
    family: str | None = None
    rung: int | None = None
    smoke: bool = False
    budget_s: float = 0.0  # at the reference speed; set by Workload


def _dump(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _cli_call(argv: list[str]) -> Callable[[], object]:
    # Looked up on every call, so the traced pass reaches the wrapper.
    return lambda: cli.main(argv)


def _exit_code(rc, expected: int, stderr: str) -> Outcome | None:
    # Every input was checked valid when frozen, so refusing one (exit 2)
    # is a wrong answer too.
    if rc == expected:
        return None
    return Outcome(WRONG, f"exit code {rc}, expected {expected}: {stderr.strip()[-300:]}")


def _edge_set(rotations) -> set[tuple[int, int]]:
    return {(min(v, w), max(v, w)) for v, ring in enumerate(rotations) for w in ring}


class Workload:
    """Inputs and jobs of one workload for one seed, under ``workdir``."""

    def __init__(self, name: str, instances: dict, seed: int, workdir: Path, smoke: bool):
        self.name = name
        self.instances = instances
        self.workdir = workdir
        self.pass_s = PASS_S[name]
        self.rng = random.Random(f"{name}:{seed}")
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        self._pending_nx: dict[str, tuple[int, list]] = {}
        jobs = getattr(self, f"_{name}_jobs")()
        for job in jobs:
            job.budget_s = max(MIN_BUDGET_S[name],
                               BUDGET_FACTOR * RUNG_SEED_S.get(job.name, 0.0))
        self.jobs = [j for j in jobs if j.smoke] if smoke else jobs

    def _in(self, name: str) -> Path:
        return self.workdir / "in" / name

    def _out(self, name: str) -> str:
        return str(self.workdir / "out" / name)

    def _planes(self) -> list[tuple[str, str | None, int | None, bool]]:
        """(instance, family, rung, smoke) in job order.

        The ladder rungs are spread evenly among the small instances, so
        the reference timed around every job samples the machine's speed
        all through a pass, not only before the long jobs.
        """
        small = []
        seen_kind = set()
        for name in SMALL[self.name]:
            kind = name.split("-")[0]
            small.append((name, None, None, kind not in seen_kind))
            seen_kind.add(kind)
        ladder = [(f"{family}-{n}", family, n, i == 0)
                  for family, rungs in LADDERS[self.name].items()
                  for i, n in enumerate(rungs)]
        out = []
        for j, rung in enumerate(ladder):
            out += small[j * len(small) // len(ladder):(j + 1) * len(small) // len(ladder)]
            out.append(rung)
        return out

    # --- theorem -------------------------------------------------------------

    def _theorem_jobs(self) -> list[Job]:
        jobs = []
        for i, (name, family, rung, smoke) in enumerate(self._planes()):
            plane = self.instances["planes"][name]
            path = _dump(self._in(f"{name}.json"), {
                "format": "dpcolor-plane/1", "n": plane["n"], "rotations": plane["rotations"],
            })
            cover_seed = self.rng.randrange(2**31)
            out, trace = self._out(f"{i}.coloring.json"), self._out(f"{i}.trace.json")
            argv = ["theorem", path, "--seed", str(cover_seed), "-o", out, "--trace-out", trace]
            check = _TheoremCheck(plane, cover_seed, out, trace)
            jobs.append(Job(f"theorem:{name}", plane["n"] + plane["m"], _cli_call(argv),
                            check, family, rung, smoke))
        return jobs

    # --- audit ---------------------------------------------------------------

    def _audit_jobs(self) -> list[Job]:
        jobs = []
        for i, (name, family, rung, smoke) in enumerate(self._planes()):
            plane = self.instances["planes"][name]
            path = _dump(self._in(f"{name}.json"), {
                "format": "dpcolor-plane/1", "n": plane["n"], "rotations": plane["rotations"],
            })
            out = self._out(f"{i}.audit.json")
            argv = ["audit", path, "--format", "json", "-o", out]
            jobs.append(Job(f"audit:{name}", plane["n"] + plane["m"], _cli_call(argv),
                            _AuditCheck(plane["rotations"], plane["faces"], out),
                            family, rung, smoke))
        return jobs

    # --- gen -----------------------------------------------------------------

    def _gen_jobs(self) -> list[Job]:
        jobs = []
        for rung_index, (n, count) in enumerate(GEN_LADDER):
            for k in range(count):
                gen_seed = self.rng.randrange(2**31)
                out = self._out(f"gen-{n}-{k}.json")
                argv = ["gen", "-n", str(n), "--seed", str(gen_seed), "-o", out]
                jobs.append(Job(f"gen:n{n}:seed{gen_seed}", n, _cli_call(argv),
                                self._gen_check(n, out), "gen", n,
                                rung_index == 0 and k < 8))
        return jobs

    def _gen_check(self, n: int, out: str):
        def check(rc, stderr: str) -> Outcome:
            bad = _exit_code(rc, 0, stderr)
            if bad:
                return bad
            text = Path(out).read_text()
            doc = json.loads(text)
            rotations = doc["rotations"]
            if doc.get("format") != "dpcolor-plane/1" or doc["n"] != n or len(rotations) != n:
                return Outcome(WRONG, f"output is not a plane graph on {n} vertices")
            edges = _edge_set(rotations)
            if sum(len(ring) for ring in rotations) != 2 * len(edges):
                return Outcome(WRONG, "rotations are not symmetric")
            if not families.is_connected(n, edges):
                return Outcome(WRONG, "output is disconnected")
            faces = families.face_count(rotations)
            if n - len(edges) + faces != 2:
                return Outcome(WRONG, f"Euler check failed: {n} - {len(edges)} + {faces} != 2")
            key = hashlib.sha256(text.encode()).hexdigest()
            self._pending_nx.setdefault(key, (n, sorted(edges)))
            return Outcome(nm=n + len(edges), deferred=key)
        return check

    def deferred_checks(self) -> dict[str, str]:
        """networkx verdicts for every distinct generated graph: key -> error.

        Run after the timed passes so that networkx is never imported while
        the program is measured.
        """
        if not self._pending_nx:
            return {}
        import networkx as nx

        bad = {}
        for key, (n, edges) in self._pending_nx.items():
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(edges)
            for cycle in nx.simple_cycles(graph, length_bound=6):
                if len(cycle) in (4, 6):
                    bad[key] = f"networkx finds a {len(cycle)}-cycle {cycle}"
                    break
        return bad

    # --- search --------------------------------------------------------------

    def _search_jobs(self) -> list[Job]:
        jobs = []
        covers = self.instances["covers"]
        for name in sorted(covers, key=lambda c: (covers[c]["rows"] * covers[c]["cols"], c)):
            cover = covers[name]
            shape = (cover["rows"], cover["cols"])
            n, edges = families.triangulated_grid(*shape)
            perms = cover["perms"]
            matchings = [[[c, int(perms[3 * i + c - 1])] for c in (1, 2, 3)]
                         for i in range(len(edges))]
            path = _dump(self._in(f"{name}.json"), {
                "format": "dpcolor-cover/1", "n": n, "edges": [list(e) for e in edges],
                "lists": [[1, 2, 3]] * n, "matchings": matchings,
            })
            out = self._out(f"{name}.coloring.json")
            argv = ["solve", path, "-d", "0", "-o", out]
            family = GRIDS[shape]
            smoke = shape == (4, 4)
            jobs.append(Job(f"search:solve:{name}", n + len(edges), _cli_call(argv),
                            _SolveCheck(edges, matchings, cover["sat"], out),
                            family, n if family else None, smoke))
        shapes = [(1, 0), (2, 1), (4, 3)]  # the three configurations' n, m
        jobs.append(Job("search:lemma-all", sum(n + m for n, m in shapes),
                        _cli_call(["lemma", "all"]),
                        self._lemma_check, smoke=True))
        k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        jobs.append(Job("search:dp_chromatic-K4", 4 + 6,
                        lambda: solver.dp_chromatic(k4), self._chromatic_check))
        return jobs

    def _lemma_check(self, rc, stdout: str) -> Outcome:
        bad = _exit_code(rc, 0, stdout)
        if bad:
            return bad
        if stdout.splitlines() != self.instances["lemma_lines"]:
            return Outcome(WRONG, f"lemma output {stdout!r}")
        return Outcome()

    def _chromatic_check(self, value, _stdout: str) -> Outcome:
        if value != self.instances["dp_chromatic_k4"]:
            return Outcome(WRONG, f"dp_chromatic(K4) = {value}")
        return Outcome()


class _TheoremCheck:
    def __init__(self, plane: dict, cover_seed: int, out: str, trace: str):
        self.plane = plane
        self.cover_seed = cover_seed
        self.out = out
        self.trace = trace
        self._pairs = None

    def pairs(self) -> dict[tuple[int, int], set]:
        """The cover the job colored, regenerated from its seed."""
        if self._pairs is None:
            n = self.plane["n"]
            graph = build_graph(n, _edge_set(self.plane["rotations"]))
            cover = random_cover(graph, uniform_assignment(n, 3), seed=self.cover_seed, perfect=True)
            self._pairs = {e: set(m) for e, m in zip(graph.edges, cover.matchings)}
        return self._pairs

    def __call__(self, rc, stderr: str) -> Outcome:
        bad = _exit_code(rc, 0, stderr)
        if bad:
            return bad
        n = self.plane["n"]
        coloring = _read_json(self.out)
        colors = coloring["colors"]
        if len(colors) != n or any(c not in (1, 2, 3) for c in colors):
            return Outcome(WRONG, "a color is missing or not from its list")
        counts = [0] * n
        for (u, v), pairs in self.pairs().items():
            if (colors[u], colors[v]) in pairs:
                counts[u] += 1
                counts[v] += 1
        if max(counts, default=0) > 1:
            return Outcome(WRONG, f"impropriety {max(counts)} at vertex {counts.index(max(counts))}")
        if coloring["impropriety"] != counts or coloring["max_impropriety"] != max(counts, default=0):
            return Outcome(WRONG, "reported impropriety differs from the recomputed one")
        steps = _read_json(self.trace)["steps"]
        excised = sorted(v for step in steps for v in step["vertices"])
        if excised != list(range(n)):
            return Outcome(WRONG, "the trace does not excise each vertex exactly once")
        kinds: dict[str, int] = {}
        for step in steps:
            if [colors[v] for v in sorted(step["vertices"])] != step["colors"]:
                return Outcome(WRONG, f"trace colors differ from the coloring at {step['vertices']}")
            key = "reduction.steps." + step["kind"].replace("-", "_")
            kinds[key] = kinds.get(key, 0) + 1
        return Outcome(counts=kinds)


class _AuditCheck:
    def __init__(self, rotations, faces: int, out: str):
        self.degrees = [len(ring) for ring in rotations]
        self.faces = faces
        self.out = out

    def __call__(self, rc, stderr: str) -> Outcome:
        bad = _exit_code(rc, 0, stderr)
        if bad:
            return bad
        doc = _read_json(self.out)
        if doc["initial_total"]["sixths"] != -72 or doc["final_total"]["sixths"] != -72:
            return Outcome(WRONG, "charge totals are not -72 sixths")
        incoming: dict[tuple, int] = {}
        outgoing: dict[tuple, int] = {}
        for t in doc["transfers"]:
            incoming[tuple(t["target"])] = incoming.get(tuple(t["target"]), 0) + t["sixths"]
            outgoing[tuple(t["source"])] = outgoing.get(tuple(t["source"]), 0) + t["sixths"]
        elements = doc["elements"]
        if len(elements) != len(self.degrees) + self.faces:
            return Outcome(WRONG, f"{len(elements)} elements, expected {len(self.degrees) + self.faces}")
        verdicts: dict[str, int] = {}
        initial_sum = 0
        for e in elements:
            key = tuple(e["element"])
            initial = e["initial"]["sixths"]
            initial_sum += initial
            if key[0] == "vertex" and initial != 12 * self.degrees[key[1]] - 36:
                return Outcome(WRONG, f"initial charge of {key} is {initial}")
            got_in, got_out = incoming.get(key, 0), outgoing.get(key, 0)
            if (e["in"]["sixths"], e["out"]["sixths"]) != (got_in, got_out):
                return Outcome(WRONG, f"in/out of {key} differ from its transfers")
            if e["final"]["sixths"] != initial - got_out + got_in:
                return Outcome(WRONG, f"final of {key} is not initial - out + in")
            name = "discharging.entries." + e["verdict"].replace("-", "_")
            verdicts[name] = verdicts.get(name, 0) + 1
        if initial_sum != -72:
            return Outcome(WRONG, f"initial charges sum to {initial_sum}")
        if verdicts.get("discharging.entries.fail"):
            return Outcome(WRONG, "an element inside the analysis ends negative")
        verdicts["discharging.transfers"] = len(doc["transfers"])
        return Outcome(counts=verdicts)


class _SolveCheck:
    def __init__(self, edges, matchings, sat: bool, out: str):
        self.edges = edges
        self.matchings = matchings
        self.sat = sat
        self.out = out

    def __call__(self, rc, stdout: str) -> Outcome:
        bad = _exit_code(rc, 0 if self.sat else 1, stdout)
        if bad:
            return bad
        if not self.sat:
            if stdout.strip() != "UNSAT":
                return Outcome(WRONG, f"unexpected output {stdout!r}")
            return Outcome()
        colors = _read_json(self.out)["colors"]
        if any(c not in (1, 2, 3) for c in colors):
            return Outcome(WRONG, "a color is not from its list")
        for (u, v), pairs in zip(self.edges, self.matchings):
            if [colors[u], colors[v]] in pairs:
                return Outcome(WRONG, f"edge {(u, v)} is in conflict")
        return Outcome()
