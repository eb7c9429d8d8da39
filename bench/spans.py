"""In-memory span recorder that times calls into qrlab from outside it.

A Tracer replaces each listed function with a timing wrapper under every
module-level name bound to it (a function imported into several modules is
reached through each of them), records one span per call as
(name, start, end, parent) and puts the originals back on exit.  Methods
listed as counted only get a call counter, because they run too often for
a span each.  Nothing here imports qrlab: the caller passes the modules.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Context manager: wrap on enter, restore on exit.

    `functions` maps a module name ("relmod") to the function names traced
    there; each is wrapped in every module of `modules` that binds the same
    object.  `counted` lists (module, class, method) triples that get a call
    counter only.  `probes` maps a span name ("relmod.bar_h2") to a callable
    (args, kwargs, result) -> {stat: number}; a stat whose name ends in
    "_max" keeps its maximum, any other is summed.
    """

    def __init__(self, modules, functions, counted=(), probes=None):
        self.modules = dict(modules)
        self.functions = functions
        self.counted = counted
        self.probes = probes or {}
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.extras: dict[str, dict[str, float]] = defaultdict(dict)
        self.replaced: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, probe = self.spans, self._stack, self.probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if probe is not None:
                self._merge(name, probe(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _merge(self, name, stats):
        slot = self.extras[name]
        for stat, value in stats.items():
            if stat.endswith("_max"):
                slot[stat] = max(slot.get(stat, value), value)
            else:
                slot[stat] = slot.get(stat, 0) + value

    def __enter__(self):
        try:
            for modname, names in self.functions.items():
                home = self.modules[modname]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapped = self._span_wrapper(f"{modname}.{fname}", orig)
                    for mod in self.modules.values():
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self.replaced.append((mod, attr, orig))
                                setattr(mod, attr, wrapped)
            for modname, cls_name, meth in self.counted:
                cls = getattr(self.modules[modname], cls_name)
                orig = cls.__dict__[meth]
                self.replaced.append((cls, meth, orig))
                setattr(cls, meth,
                        self._count_wrapper(f"{modname}.{cls_name}.{meth}", orig))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self.replaced:
            owner, attr, orig = self.replaced.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms (inclusive), self_ms, probe stats;
        per counted method: calls only.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap (one thread, nested calls).
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1000
            row["self_ms"] += (end - start - covered) * 1000
        out = dict(out)
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        for name, stats in self.extras.items():
            out[name].update(stats)
        return out

    def write_jsonl(self, path: str) -> None:
        """One line per span, in call order; parent is an index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
