"""Per-function spans around the calls into ``dpcolor``, from outside it.

``Tracer.install`` replaces every binding of each public function of the
layer modules, in every loaded ``dpcolor.*`` namespace, with a wrapper
that times the call; ``Tracer.remove`` puts the originals back.  No file
of the library is touched.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of one job
add up to the duration of its outermost span.

Generator functions get a wrapper whose iterator times each ``next`` and
counts the items yielded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "graphs", "embedding", "covers", "solver", "reduction",
    "discharging", "generate", "fileio", "cli",
)
# Methods traced besides the module-level public functions.
METHODS = (("discharging", "ChargeLedger", "incoming"),
           ("discharging", "ChargeLedger", "outgoing"))
# Functions whose return values are also tallied, by outcome name.
OUTCOMES = {"solver.find_rep_set": lambda rep: "unsat" if rep is None else "sat"}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    yields: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # One entry per open span: time spent in its direct child spans.
        self.stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, Stat())
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, stat)
        stack = self.stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                duration = clock() - start
                if stack and stack[-1] is frame:
                    stack.pop()
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if outcome is not None:
                key = outcome(result)
                stat.outcomes[key] = stat.outcomes.get(key, 0) + 1
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, stat: Stat):
        stack = self.stack
        clock = time.perf_counter

        class TracedIterator:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(self.inner)
                except StopIteration:
                    raise
                except BaseException:
                    stat.failed += 1
                    raise
                finally:
                    duration = clock() - start
                    if stack and stack[-1] is frame:
                        stack.pop()
                    stat.self_s += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                stat.yields += 1
                return item

        def traced(*args, **kwargs):
            stat.calls += 1
            return TracedIterator(fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every binding of each traced function in ``dpcolor.*``."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"dpcolor.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{obj.__qualname__}")
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"dpcolor.{layer}"], cls_name)
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, f"{layer}.{cls_name}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dpcolor" and not mod_name.startswith("dpcolor."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.stack.clear()

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return out
