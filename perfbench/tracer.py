"""Spans at tsplab's module boundaries, for the traced pass only.

The tracer replaces every public tsplab function at each binding outside
the module that defines it (for example `tsplab.oracle.tour_length` and
`tsplab.search.is_two_opt_local_optimum`) with a wrapper that records a
span. `tsplab.instance.validate` is also wrapped inside its own module,
because the generators call it there. Calls inside one module are not
spans: they do not cross a layer boundary. At the same bindings the RNG
class is replaced by a subclass that counts raw 64-bit draws.

A span is (name, start, end, parent). Spans are kept in flat arrays in
memory and written out only after the pass has been timed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.rng_draws = [0]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span of name id `nid` under the innermost open span; its index."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def finish(self, idx: int) -> None:
        """Close the span `begin` opened at `idx`."""
        self.end[idx] = _clock()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around the benchmark's own call."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time (inclusive) and self time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return out

    def count_children(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        cid = self._ids.get(child)
        pid = self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        name = self.name
        return sum(1 for i, p in enumerate(self.parent) if name[i] == cid and p >= 0 and name[p] == pid)

    def write(self, path) -> None:
        """Span table as text: a header of names, then id, start, end, parent (ns)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + "\t".join(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.name[i]}\t{round((self.start[i] - t0) * 1e9)}\t"
                    f"{round((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\n"
                )


class _Span:
    __slots__ = ("_tracer", "_nid", "_idx")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._idx = self._tracer.begin(self._nid)
        return self

    def __exit__(self, *exc):
        self._tracer.finish(self._idx)
        return False


def _counting_rng(base, counter: list):
    class CountingXoshiro256StarStar(base):
        __slots__ = ()

        def next_u64(self):
            counter[0] += 1
            return base.next_u64(self)

    return CountingXoshiro256StarStar


def install(tracer: Tracer) -> None:
    """Put span wrappers and the counting RNG at tsplab's module boundaries."""
    import tsplab.instance
    from tsplab.rng import Xoshiro256StarStar

    counting = _counting_rng(Xoshiro256StarStar, tracer.rng_draws)
    modules = [m for name, m in sys.modules.items() if name == "tsplab" or name.startswith("tsplab.")]
    wrappers: dict = {}

    def wrapper_for(fn):
        if fn not in wrappers:
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrappers[fn] = tracer.wrap(f"{layer}.{fn.__name__}", fn)
        return wrappers[fn]

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if obj is Xoshiro256StarStar and mod.__name__ != "tsplab.rng":
                setattr(mod, attr, counting)
            elif (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("tsplab.")
                and obj.__module__ != mod.__name__
                and not inspect.isgeneratorfunction(obj)
            ):
                setattr(mod, attr, wrapper_for(obj))
    tsplab.instance.validate = wrapper_for(tsplab.instance.validate)
