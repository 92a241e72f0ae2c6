"""Span tracing from outside the program: wrap functions, time layers.

The benchmark never edits the program it measures.  Instead it replaces
functions on their classes and modules with wrappers that open a span on
entry and close it on exit, and it swaps generator functions for ones
that return a :class:`TimedGenerator` proxy, so each *resume* of a
simulated process is a span of its own.

Spans form one stack per process (the simulator is single-threaded and
generator resumes are ordinary nested calls).  A span's *self time* is its
duration minus the durations of the spans opened inside it, so the self
times of all spans under a root add up to the root's duration exactly.
A call into the layer that is already on top of the stack does not open a
new span: its time stays with the outer entry point of that layer and
only its call count is recorded.

Each record is a list ``[calls, self_s, inclusive_s, layer, resumes]``
kept per wrapped function, so a wrapper updates it without a dict lookup.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Record field indexes.
CALLS, SELF, INCL, LAYER, RESUMES = range(5)

#: Dunder methods never wrapped: identity, comparison and attribute
#: protocol methods run inside dict/set operations and sorting, where a
#: wrapper would only add noise.
SKIPPED_DUNDERS = frozenset({
    "__repr__", "__str__", "__format__", "__hash__", "__eq__", "__ne__",
    "__lt__", "__le__", "__gt__", "__ge__", "__bool__", "__del__",
    "__getattr__", "__getattribute__", "__setattr__", "__delattr__",
    "__new__", "__init_subclass__", "__class_getitem__", "__reduce__",
    "__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
    "__deepcopy__", "__sizeof__", "__dir__",
})

ROOT = "other"
GC = "py.gc"


class TimedGenerator:
    """Proxy for a generator that times every resume as a span.

    ``send``, ``throw`` and ``close`` (and iteration) each run inside a
    span of the generator's layer; ``yield from`` and the simulator's
    ``Process.resume`` drive it exactly like the generator it wraps.
    """

    __slots__ = ("_gen", "_stack", "_layer", "_rec")

    def __init__(self, gen, stack: list, layer: str, rec: list) -> None:
        self._gen = gen
        self._stack = stack
        self._layer = layer
        self._rec = rec

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(self._gen.close)

    def _resume(self, method, *args):
        rec = self._rec
        rec[RESUMES] += 1
        stack = self._stack
        if stack[-1][0] == self._layer:
            return method(*args)
        frame = [self._layer, _perf(), 0.0]
        stack.append(frame)
        try:
            return method(*args)
        finally:
            duration = _perf() - frame[1]
            stack.pop()
            rec[SELF] += duration - frame[2]
            rec[INCL] += duration
            stack[-1][2] += duration


class SpanTracer:
    """Per-process span stack plus per-function records."""

    def __init__(self) -> None:
        self.records: Dict[str, list] = {}
        self.stack: List[list] = [[ROOT, _perf(), 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_installed = False
        self.record(ROOT, ROOT)
        self.record(GC, GC)

    # -- records -------------------------------------------------------------

    def record(self, key: str, layer: str) -> list:
        """The record for ``key``, created on first use."""
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = [0, 0.0, 0.0, layer, 0]
        return rec

    def reset(self) -> None:
        """Zero every record and restart the root span, in place.

        Wrappers hold their record and the stack by reference, so a forked
        worker calls this to drop the counts it inherited from its parent.
        """
        for rec in self.records.values():
            rec[CALLS] = 0
            rec[SELF] = 0.0
            rec[INCL] = 0.0
            rec[RESUMES] = 0
        self.stack[:] = [[ROOT, _perf(), 0.0]]

    def close_root(self) -> float:
        """Fold the root span's self time into its record; returns the
        root duration."""
        if len(self.stack) != 1:
            raise RuntimeError(
                f"span stack not balanced: {[f[0] for f in self.stack]}")
        root = self.stack[0]
        now = _perf()
        duration = now - root[1]
        rec = self.records[ROOT]
        rec[SELF] += duration - root[2]
        rec[INCL] += duration
        rec[CALLS] += 1
        self.stack[0] = [ROOT, now, 0.0]
        return duration

    def snapshot(self) -> Dict[str, list]:
        """Picklable copy of the records (for shipping out of a worker)."""
        return {key: list(rec) for key, rec in self.records.items()}

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        """A span-opening replacement for ``fn``."""
        rec = self.record(key, layer)
        stack = self.stack
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec[CALLS] += 1
                return TimedGenerator(fn(*args, **kwargs), stack, layer, rec)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[CALLS] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, _perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - frame[1]
                stack.pop()
                rec[SELF] += duration - frame[2]
                rec[INCL] += duration
                stack[-1][2] += duration
        return wrapper

    def patch(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name = value``, remembering the original."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_class(self, cls: type, layer: str, filename: str) -> int:
        """Wrap every function, static/class method and property defined
        in ``cls``'s body in ``filename``; returns how many were wrapped."""
        wrapped = 0
        for name, attr in list(vars(cls).items()):
            if name in SKIPPED_DUNDERS:
                continue
            key = f"{cls.__module__}.{cls.__qualname__}.{name}"
            replacement = self._wrap_attr(attr, layer, key, filename)
            if replacement is not None:
                self.patch(cls, name, replacement)
                wrapped += 1
        return wrapped

    def _wrap_attr(self, attr, layer: str, key: str, filename: str):
        def own(fn) -> bool:
            return (isinstance(fn, types.FunctionType)
                    and fn.__code__.co_filename == filename)

        if isinstance(attr, staticmethod):
            fn = attr.__func__
            return staticmethod(self.wrap(fn, layer, key)) if own(fn) else None
        if isinstance(attr, classmethod):
            fn = attr.__func__
            return classmethod(self.wrap(fn, layer, key)) if own(fn) else None
        if isinstance(attr, property):
            parts = [attr.fget, attr.fset, attr.fdel]
            if not any(own(fn) for fn in parts):
                return None
            fget, fset, fdel = (
                self.wrap(fn, layer, f"{key}.{role}") if own(fn) else fn
                for fn, role in zip(parts, ("get", "set", "del")))
            return property(fget, fset, fdel, attr.__doc__)
        if own(attr):
            return self.wrap(attr, layer, key)
        return None

    def wrap_module_function(self, module: types.ModuleType, name: str,
                             layer: str, namespaces: List[types.ModuleType]
                             ) -> int:
        """Wrap a module-level function and rebind every module global
        that refers to it (``from x import f`` copies); returns the number
        of bindings replaced."""
        original = module.__dict__[name]
        wrapper = self.wrap(original, layer, f"{module.__name__}.{name}")
        replaced = 0
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self.patch(namespace, attr, wrapper)
                    replaced += 1
        return replaced

    def wrap_module(self, module: types.ModuleType, layer: str,
                    namespaces: List[types.ModuleType],
                    class_layers: Optional[Dict[str, str]] = None) -> int:
        """Wrap every class and function defined in ``module``;
        ``class_layers`` reassigns named classes to another layer."""
        filename = inspect.getsourcefile(module) or module.__file__
        class_layers = class_layers or {}
        wrapped = 0
        for name, value in list(vars(module).items()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                wrapped += self.wrap_class(
                    value, class_layers.get(name, layer), filename)
            elif (isinstance(value, types.FunctionType)
                  and value.__module__ == module.__name__
                  and value.__code__.co_filename == filename):
                wrapped += self.wrap_module_function(module, name, layer,
                                                     namespaces)
        return wrapped

    def uninstall(self) -> None:
        """Restore every patched attribute and detach the GC hook."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._gc_installed:
            gc.callbacks.remove(self._on_gc)
            self._gc_installed = False

    # -- garbage collector ----------------------------------------------------

    def install_gc_hook(self) -> None:
        """Time every collection as a ``py.gc`` span."""
        if not self._gc_installed:
            gc.callbacks.append(self._on_gc)
            self._gc_installed = True

    def _on_gc(self, phase: str, info: dict) -> None:
        stack = self.stack
        if phase == "start":
            stack.append([GC, _perf(), 0.0])
            return
        if not stack or stack[-1][0] != GC:
            return
        frame = stack.pop()
        duration = _perf() - frame[1]
        rec = self.records[GC]
        rec[CALLS] += 1
        rec[SELF] += duration - frame[2]
        rec[INCL] += duration
        stack[-1][2] += duration


class PhaseClock:
    """Wall-time intervals of the user-visible phases (set-up, run).

    Wraps a handful of entry points that run a few times per workload, so
    it stays installed in untraced runs.  Nested calls of one phase (a
    ``Cluster.run`` that calls ``Simulator.run``) count once.
    """

    def __init__(self) -> None:
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, phase: str) -> None:
        """Time ``owner.name`` as ``phase``."""
        original = owner.__dict__[name]
        intervals = self.intervals.setdefault(phase, [])
        depth = self._depth
        depth.setdefault(phase, 0)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if depth[phase]:
                return original(*args, **kwargs)
            depth[phase] = 1
            start = _perf()
            try:
                return original(*args, **kwargs)
            finally:
                intervals.append((start, _perf()))
                depth[phase] = 0

        self._patches.append((owner, name, original))
        setattr(owner, name, timed)

    def reset(self) -> None:
        """Drop intervals inherited over a fork."""
        for intervals in self.intervals.values():
            intervals.clear()

    def total(self, phase: str) -> float:
        """Summed seconds of ``phase``."""
        return sum(end - start for start, end in self.intervals.get(phase, ()))

    def uninstall(self) -> None:
        """Restore the wrapped entry points."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


class GcClock:
    """Counts and times garbage collections; cheap enough for untraced
    runs (two clock reads per collection)."""

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = _perf()
        else:
            self.collections += 1
            self.seconds += _perf() - self._started

    def install(self) -> None:
        """Start counting."""
        gc.callbacks.append(self._on_gc)

    def reset(self) -> None:
        """Drop counts inherited over a fork."""
        self.collections = 0
        self.seconds = 0.0

    def uninstall(self) -> None:
        """Stop counting."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def layer_totals(records: Dict[str, list]) -> Dict[str, float]:
    """Self seconds summed per layer."""
    totals: Dict[str, float] = {}
    for rec in records.values():
        totals[rec[LAYER]] = totals.get(rec[LAYER], 0.0) + rec[SELF]
    return totals


def repro_modules() -> List[types.ModuleType]:
    """Every loaded module of the measured package."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
