"""Run-time spans around the engine's public functions.

Wrappers are installed on module attributes only, never inside the engine's
code.  The engine imports functions by name (``from .poly import pow_mixed``),
so a function is wrapped in the namespace of each module that calls it, e.g.
``certify.pow_mixed`` and ``fpt.frobenius_nu``.  Every call of a wrapped
function records one span: name, start, end, parent span and op id.  Spans
stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable

Observer = Callable[["Tracer", tuple, dict, object, BaseException | None], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_ids = array("i")
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, module, attr: str, name, observe: Observer | None = None) -> None:
        """Prepare a wrapper for module.attr that records a span per call.

        `name` is a string or a function of the call's arguments (used to
        split the oracle's spans by Frobenius level).  `observe` sees the
        arguments and the result or exception, to keep work counters.
        """
        fn = getattr(module, attr)
        fixed = None if callable(name) else self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.op_ids.append(self.op)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as ex:
                exc = ex
                raise
            finally:
                self.ends[idx] = clock()
                if stack and stack[-1] == idx:
                    stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        self._wrappers.append((module, attr, fn, wrapper))

    def count(self, module, attr: str, name: str) -> None:
        """Prepare a wrapper for module.attr that only counts calls."""
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._wrappers.append((module, attr, fn, wrapper))

    def install(self) -> None:
        """Put every prepared wrapper on its module attribute."""
        for module, attr, _fn, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put the original functions back."""
        for module, attr, fn, _wrapper in self._wrappers:
            setattr(module, attr, fn)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        """Close spans left open when a timeout interrupted a wrapper."""
        now = time.perf_counter()
        for idx in self._stack:
            if self.ends[idx] == 0.0:
                self.ends[idx] = now
        self._stack.clear()
        self.op = -1

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t{self.op_ids[i]}\n"
                )
