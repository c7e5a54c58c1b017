"""Span tracing of the library from outside it.

The tracer wraps every public function of ``lbgame.model``, ``static``,
``dynamic``, ``experiments`` and ``cli`` and rebinds the wrapper wherever
the original is bound: in its own module, in the package's re-exports and
in every module that imported it by name (``dynamic`` calls
``best_response`` that way). Dataclass validation (``__post_init__``) is
wrapped on the class: every construction is a ``<module>.<Class>.validate``
span.

A span is kept in memory as ``[name, start_ns, end_ns, parent_index]``.
Self time is a span's duration minus that of its direct children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

MODULES = ("model", "static", "dynamic", "experiments", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        self._stack.pop()
        span[2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself, traced while open."""
        span = self._begin(name)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._end(span)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(span)

        return traced

    def install(self, lb) -> None:
        """Wrap the public functions of every module and rebind them."""
        modules = [getattr(lb, m) for m in MODULES]
        replace = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patches.append((obj, "__post_init__", obj.__post_init__))
                    obj.__post_init__ = self._wrap(obj.__post_init__, f"{short}.{attr}.validate")
        for mod in [lb] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[int]:
        """Per span, its duration minus its direct children's, in ns."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{start},{end}\n")
