"""In-memory span tracer for the traced benchmark run.

The tracer patches qregsim from the outside: every public function of each
layer module is wrapped in every ``qregsim.*`` namespace that binds it
(matched by identity, so ``from .x import f`` copies are caught), and
``Liouvillian.apply`` is wrapped on the class.  Nothing in the library is
edited, and ``installed()`` restores the originals on exit.

A span is ``(id, name, start_ns, end_ns, thread, parent, info)``.  The parent
is the innermost open span on the same thread; a worker thread's outermost
span is parented to the main thread's open top-level span (the runner
that started the pool).  ``info`` is what a per-name hook extracted from the
call's arguments or result, recorded after the span's end time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "register",
    "bath",
    "liouvillian",
    "dynamics",
    "linalg",
    "observables",
    "codes",
    "expcli",
)
APPLY = "liouvillian.Liouvillian.apply"


class Tracer:
    def __init__(self, hooks: dict | None = None):
        self.spans: list[tuple] = []
        self.hooks = dict(hooks or {})
        self.hook_errors = 0
        self.wrapped: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._root = None
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        main, clock, get_ident = self._main, time.perf_counter_ns, threading.get_ident
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            tid = get_ident()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif tid == main:
                parent = None
                tracer._root = sid
            else:
                parent = tracer._root
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, clock(), tid, parent, None))
                raise
            finally:
                stack.pop()
            end = clock()
            info = None
            if hook is not None:
                try:
                    info = hook(args, kwargs, result)
                except Exception:
                    tracer.hook_errors += 1
            spans.append((sid, name, start, end, tid, parent, info))
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self, package: str = "qregsim"):
        """Wrap the package's public functions for the duration of the block."""
        try:
            functions = {}  # id(original) -> wrapper
            for layer in LAYERS:
                try:
                    mod = importlib.import_module(f"{package}.{layer}")
                except ImportError:
                    continue
                for attr, obj in vars(mod).items():
                    if (
                        inspect.isfunction(obj)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and id(obj) not in functions
                    ):
                        name = f"{layer}.{obj.__name__}"
                        functions[id(obj)] = self._wrap(name, obj)
                        self.wrapped.add(name)
                if layer == "liouvillian":
                    cls = getattr(mod, "Liouvillian", None)
                    if cls is not None and inspect.isfunction(cls.__dict__.get("apply")):
                        self._patch(cls, "apply", self._wrap(APPLY, cls.__dict__["apply"]))
                        self.wrapped.add(APPLY)
            namespaces = [
                m
                for key, m in list(sys.modules.items())
                if m is not None and (key == package or key.startswith(package + "."))
            ]
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    wrapper = functions.get(id(obj))
                    if wrapper is not None:
                        self._patch(ns, attr, wrapper)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def absent(self, required) -> list[str]:
        """Required span names that no longer exist in the package."""
        return sorted(n for n in required if n not in self.wrapped)


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> tuple[dict, int]:
    """Self time per span id, and the parallel overlap.

    A span's self time is its duration minus the part of its interval its
    child spans cover.  The overlap is, summed over spans, the children's
    total duration minus the length they cover; it is nonzero only where
    children ran concurrently on several threads.  The sum of all self
    times minus the overlap equals the summed duration of the root spans.
    """
    children = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            children[s[5]].append((s[2], s[3]))
    selfs, overlap = {}, 0
    for sid, _, start, end, _, _, _ in spans:
        kids = children.get(sid)
        if not kids:
            selfs[sid] = end - start
            continue
        covered = _covered_ns(kids, start, end)
        selfs[sid] = end - start - covered
        overlap += sum(e - s for s, e in kids) - covered
    return selfs, overlap
