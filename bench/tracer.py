"""Layer tracing from outside the program.

`Tracer.install` replaces every public function and method of the given
modules with a counting wrapper, and rebinds every module global that
still names an original function (names bound by ``from ... import``,
such as ``regularity.sup_deviation``).  `Tracer.uninstall` restores the
originals, so untraced passes run the program unmodified.

A call is always counted.  It opens a span only when it crosses a layer
boundary (the innermost open span belongs to another layer, or no span
is open) or when the function is in ``always_span``.  A span's self time
is its duration minus the time its child spans cover, so the self times
of one op's spans add up to the duration of its root span.  Spans of the
layers in ``aggregated`` (the per-draw random number calls) add to the
totals but are not stored.  Spans are kept in memory; `write_spans`
writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

def _count_values(result) -> int:
    return int(np.size(result)) if isinstance(result, np.ndarray) else 1


def matrix_size(args: tuple) -> Optional[int]:
    """Size of the matrix a spectra call works on: the ``n`` of its first
    argument that has one, else its first integer argument."""
    for a in args:
        n = getattr(a, "n", None)
        if isinstance(n, int):
            return n
    for a in args:
        if isinstance(a, int) and not isinstance(a, bool):
            return a
    return None


class Tracer:
    """Counts calls and times spans at layer boundaries.

    ``work`` maps a function name to a counter: after each span of that
    function, the length of its result is added to the counter.  A span
    of a layer in ``aggregated`` adds the number of values it returned to
    ``<layer>.draws``.  ``sized`` layers store the matrix size with each
    span.
    """

    def __init__(self, always_span: Iterable[str] = (),
                 work: Optional[Dict[str, str]] = None,
                 aggregated: Iterable[str] = (),
                 sized: Iterable[str] = (),
                 clock: Callable[[], float] = time.perf_counter):
        self.always_span = frozenset(always_span)
        self.work_fns = dict(work or {})
        self.aggregated = frozenset(aggregated)
        self.sized = frozenset(sized)
        self.clock = clock
        self.op: Optional[str] = None
        self._undo: List[Tuple[object, str, object]] = []
        self.reset()

    # -- state ---------------------------------------------------------

    def reset(self) -> None:
        """Forget counts and spans (between traced passes)."""
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.fail: Counter = Counter()
        self.work: Counter = Counter()
        self._next_id = 0

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s``, ``calls`` and ``fail``, summed over the
        functions of each layer."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "fail": 0})
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]]["calls"] += n
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]]["self_s"] += s
        for name, n in self.fail.items():
            out[name.split(".", 1)[0]]["fail"] += n
        return out

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """Counting wrapper of ``fn``, a function of ``layer``."""
        tracer = self
        always = name in self.always_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer.stack
            if not always and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return tracer._span(fn, layer, name, args, kwargs)

        return traced

    def _span(self, fn, layer, name, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [layer, 0.0, self._next_id]
        stack.append(frame)
        failed = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[1] += dur
            self.self_s[name] += dur - frame[1]
            if failed:
                self.fail[name] += 1
            if layer not in self.aggregated:
                size = matrix_size(args) if layer in self.sized else None
                self.spans.append((frame[2], parent[2] if parent else None,
                                   name, start, end, self.op, size, failed))
        if layer in self.aggregated:
            self.work[f"{layer}.draws"] += _count_values(result)
        elif name in self.work_fns:
            self.work[self.work_fns[name]] += len(result)
        return result

    def install(self, modules: Iterable, rebind_in: Iterable) -> int:
        """Wrap the public functions and methods defined in ``modules``;
        rebind names of the originals in the modules ``rebind_in``.
        Returns the number of functions wrapped."""
        wrapped: Dict[Callable, Callable] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and \
                        not issubclass(obj, BaseException):
                    self._wrap_methods(obj, layer)
        for mod in rebind_in:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        return len(wrapped)

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(raw.__func__, layer, name))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, layer, name)
            else:
                continue        # properties and plain class attributes
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Stored spans as JSON lines: id, parent, name, start, end, op,
        size (spectra only) and whether the call raised."""
        keys = ("id", "parent", "name", "start", "end", "op", "size",
                "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
