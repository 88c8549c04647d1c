"""Spans around calls into gpgait's public functions, recorded from the
benchmark's side.

A ``Tracer`` replaces a public function with a wrapper in every gpgait
module namespace that holds it (``from .hod import build_descriptors``
makes a second binding that must be patched too), records one span per
call and restores the originals on ``restore``. A span carries its
name, start, end, parent, self time, the operation it belongs to,
counts computed from the call's arguments or result and, for the spans
named in ``memory_spans``, the peak of memory allocated inside it
(tracemalloc runs only inside those spans). Start and end are process
CPU time, the clock the worker times operations by.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1            # -1: set-up, then the index of each op
        self._stack = []
        self._patches = []
        # spans inside which allocations are traced: tracemalloc slows
        # every allocation, so it runs only around these
        self.memory_spans = frozenset()

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            seq = parent["children"].get(name, 0)
            parent["children"][name] = seq + 1
        else:
            seq = 0
        span = {"name": name, "op": self.op, "seq": seq,
                "parent": None if parent is None else parent["id"],
                "id": len(self.spans), "start": 0.0, "end": None,
                "child_s": 0.0, "peak_mb": None, "children": {}, "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        if name in self.memory_spans:
            tracemalloc.start()
        span["start"] = time.process_time()
        return span

    def end(self, span: dict):
        span["end"] = time.process_time()
        if span["name"] in self.memory_spans:
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    # -- patching ------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span per call; ``before(*args, **kw)``
        and ``after(result, *args, **kw)`` return counts for the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = before(*args, **kwargs) if before else {}
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after:
                counts.update(after(result, *args, **kwargs))
            span["counts"] = counts
            return result
        return wrapper

    def patch_function(self, fn, name, before=None, after=None):
        """Replace ``fn`` in every loaded gpgait module that binds it."""
        wrapper = self.wrap(name, fn, before, after)
        found = False
        for modname, module in list(sys.modules.items()):
            if not (modname == "gpgait" or modname.startswith("gpgait.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{name}: function not bound in any gpgait module")

    def patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self.memory_spans = frozenset()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- summaries -----------------------------------------------------

    def named(self, name, ops=None):
        return [s for s in self.spans
                if s["name"] == name and (ops is None or s["op"] in ops)]


def duration(span) -> float:
    return span["end"] - span["start"]


def self_time(span) -> float:
    return duration(span) - span["child_s"]


def per_op_sum(spans, ops, value=duration) -> list:
    """One total per op (zero for ops without such a span)."""
    totals = {op: 0.0 for op in ops}
    for s in spans:
        if s["op"] in totals:
            totals[s["op"]] += value(s)
    return [totals[op] for op in ops]


def dump(spans, path):
    """Write spans as JSON lines (name, op, start, end, parent, self)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s["id"], "name": s["name"], "op": s["op"],
                "parent": s["parent"], "start": s["start"], "end": s["end"],
                "self_s": self_time(s), "peak_mb": s["peak_mb"],
                "counts": s["counts"]}) + "\n")
