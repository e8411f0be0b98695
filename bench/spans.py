"""Outside-in span recorder for the benchmark's traced runs.

`Recorder` keeps one aggregate record per span name in memory; the worker
writes them out at the end of a run.  A record has the shape

    {"name": "dynamics.scalar_eval", "calls": 3, "points": 3,
     "busy_s": 1.2e-05, "self_s": 9.0e-06, "counters": {"offspring.pgf.points": 6}}

where `busy_s` is inclusive wall time, `self_s` is busy time minus the time
covered by directly nested spans, `points` is the number of evaluation points
the calls were given, and `counters` holds named counts.  Each closing span
adds its points to its parent's counter `<child name>.points`.  Counter keys
starting with "peak" keep their maximum instead of a sum.  Spans recorded
inside the program later are meant to produce this same record, so the
benchmark and run diagnostics read one format.

`instrument` wraps public functions of the `treespread` package at every place
a `treespread.*` module binds them, so nothing inside the package changes.
The recorder keeps one stack and is not thread-safe: record only runs in which
every wrapped function is called from one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _empty(name: str) -> dict:
    return {"name": name, "calls": 0, "points": 0, "busy_s": 0.0, "self_s": 0.0, "counters": {}}


class Recorder:
    def __init__(self):
        self.records: dict[str, dict] = {}
        self._stack: list[list] = []  # frames: [name, start, time in children, points]

    def _record(self, name: str) -> dict:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = _empty(name)
        return rec

    def begin(self, name: str, points: int = 0) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, points])

    def end(self, counters: dict | None = None) -> None:
        now = time.perf_counter()
        name, start, in_children, points = self._stack.pop()
        busy = now - start
        rec = self._record(name)
        rec["calls"] += 1
        rec["points"] += points
        rec["busy_s"] += busy
        rec["self_s"] += busy - in_children
        if counters:
            self.count(name, counters)
        if self._stack:
            parent = self._stack[-1]
            parent[2] += busy
            if points:
                self.count(parent[0], {name + ".points": points})

    def count(self, name: str, counters: dict) -> None:
        acc = self._record(name)["counters"]
        for key, value in counters.items():
            if key.startswith("peak"):
                acc[key] = max(acc.get(key, value), value)
            else:
                acc[key] = acc.get(key, 0) + value

    def get(self, name: str) -> dict:
        """The record for `name`, or an empty one if no such span closed."""
        return self.records.get(name) or _empty(name)


def _size(x) -> int:
    """np.size(x), without its exception path for Python floats."""
    return 1 if isinstance(x, float) else int(np.size(x))


@dataclass(frozen=True)
class Probe:
    """One public function to wrap.

    `module` and `func` name the function where it is defined, relative to the
    `treespread` package.  The span is named `<module>.<func>` unless `name_of`
    computes it from the call's arguments.  `points_arg` names the parameter
    whose np.size counts as points.  `after(args, kwargs, result)` returns
    counters to add to the span's record.  `track_memory` runs tracemalloc
    during the call and records its peak as the counter `peak_bytes`.
    """

    module: str
    func: str
    points_arg: str | None = None
    name_of: Callable | None = None
    after: Callable | None = None
    track_memory: bool = False


def _wrap(recorder: Recorder, probe: Probe, original):
    default_name = f"{probe.module}.{probe.func}"
    pos = None
    if probe.points_arg is not None:
        pos = list(inspect.signature(original).parameters).index(probe.points_arg)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = probe.name_of(args, kwargs) if probe.name_of else default_name
        points = 0
        if pos is not None:
            points = _size(args[pos] if len(args) > pos else kwargs[probe.points_arg])
        if probe.track_memory:
            tracemalloc.start()
        recorder.begin(name, points)
        counters = None
        try:
            result = original(*args, **kwargs)
            if probe.after is not None:
                counters = probe.after(args, kwargs, result)
            if probe.track_memory:
                counters = {**(counters or {}), "peak_bytes": tracemalloc.get_traced_memory()[1]}
            return result
        finally:
            recorder.end(counters)
            if probe.track_memory:
                tracemalloc.stop()

    return wrapper


def instrument(recorder: Recorder, probes) -> Callable[[], None]:
    """Wrap each probed function wherever a loaded treespread module binds it.

    Returns a function that puts the originals back.
    """
    restore = []
    for probe in probes:
        original = getattr(importlib.import_module("treespread." + probe.module), probe.func)
        wrapper = _wrap(recorder, probe, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "treespread" or mod_name.startswith("treespread.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, original))

    def undo():
        for mod, attr, original in reversed(restore):
            setattr(mod, attr, original)

    return undo
