"""Per-layer tracing of the kdc package, installed from outside it.

``Tracer.install`` replaces every public function of the seven kdc
modules, and the ``Stratum`` constructor, with a wrapper that records
calls, inclusive time and self time (inclusive time minus the time of
traced callees) under a dotted name such as ``strata.chart_of``.  The
aggregates live in memory and are read once, when the run ends.

The package imports names across modules (``from .linechart import
validate``), so a function is rebound in every kdc namespace that holds
it, not only in its home module.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("linechart", "strata", "polytope", "dualcomplex", "counting", "verify", "cli")


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # extra counters keyed by metric name
        self.counts: dict[str, int] = {}
        # time spent in traced callees of each open span; index 0 is the root
        self._stack: list[float] = [0.0]
        # how many build() calls are open, to attribute face items to them
        self._building = 0
        self._installed_at = 0.0

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, name: str):
        """(enter, leave) functions that record spans under ``name``."""
        stack = self._stack
        clock = time.perf_counter
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        def enter() -> float:
            stack.append(0.0)
            return clock()

        def leave(t0: float) -> None:
            dt = clock() - t0
            child = stack.pop()
            stack[-1] += dt
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - child

        return enter, leave

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        # _span's bookkeeping, inlined: this wrapper runs on every chart_of
        # and Stratum call, which take a few microseconds each
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child

        return traced

    def _wrap_generator(self, name: str, fn):
        """Time a generator by its resumptions and count what it yields."""
        enter, leave = self._span(name)
        count = self.count
        yielded = name + ".yielded"

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(t0)
                count(yielded, 1)
                yield item

        return traced

    def _wrap_export(self, fn):
        """Split ``dualcomplex.export`` by format: export.json, export.off, ..."""
        spans = {fmt: self._span("dualcomplex.export." + fmt)
                 for fmt in ("json", "dot", "off", "tikz")}

        def traced(cx, fmt, *args, **kwargs):
            enter, leave = spans[fmt]
            t0 = enter()
            try:
                return fn(cx, fmt, *args, **kwargs)
            finally:
                leave(t0)

        return traced

    def _wrap_face_items(self, fn):
        """Count the face items produced, and those examined inside build()."""
        enter, leave = self._span("strata.face_items")
        count = self.count

        def traced(*args, **kwargs):
            t0 = enter()
            try:
                items = fn(*args, **kwargs)
            finally:
                leave(t0)
            count("strata.face_items.items", len(items))
            if self._building:
                count("dualcomplex.build.items_examined", len(items))
            return items

        return traced

    def _wrap_build(self, fn):
        """Count the covers kept by each cold build; cache hits build nothing."""
        enter, leave = self._span("dualcomplex.build")

        def traced(*args, **kwargs):
            before = self.counts.get("strata.face_items.items", 0)
            self._building += 1
            t0 = enter()
            try:
                cx = fn(*args, **kwargs)
            finally:
                leave(t0)
                self._building -= 1
            if self.counts.get("strata.face_items.items", 0) != before:
                self.count("dualcomplex.build.covers", len(cx.incidence))
            return cx

        return traced

    def _wrapper_for(self, name: str, fn):
        special = {
            "dualcomplex.export": self._wrap_export,
            "dualcomplex.build": self._wrap_build,
            "strata.face_items": self._wrap_face_items,
        }
        if name in special:
            return special[name](fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    def install(self, package) -> None:
        """Wrap the public functions of the kdc modules in place."""
        prefix = package.__name__ + "."
        replaced: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[prefix + short]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                # fn.__name__, not attr: polytope.slice is an alias of slice_lattice
                replaced[id(fn)] = self._wrapper_for("%s.%s" % (short, fn.__name__), fn)
        namespaces = [package] + [mod for key, mod in sys.modules.items()
                                  if key.startswith(prefix) and mod is not None]
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if id(fn) in replaced and not attr.startswith("__"):
                    setattr(ns, attr, replaced[id(fn)])
        stratum = sys.modules[prefix + "strata"].Stratum
        stratum.__init__ = self._wrap_function("strata.Stratum", stratum.__init__)
        self._installed_at = time.perf_counter()

    def snapshot(self) -> dict:
        """Plain-data aggregates of the spans that ran, and the counters.

        ``traced_s`` is the time since ``install``, the base of self-time shares.
        """
        return {
            "traced_s": time.perf_counter() - self._installed_at,
            "spans": {
                name: {"calls": c, "total_s": tot, "self_s": own}
                for name, (c, tot, own) in sorted(self.stats.items()) if c
            },
            "counts": dict(sorted(self.counts.items())),
        }
