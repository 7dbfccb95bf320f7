"""Outside-in tracing of cosym3: spans around the public functions of its modules.

Every public function of every ``cosym3`` module is replaced, in each module
namespace that binds it, by a wrapper that records a span: name, parent span,
start and end.  ``wedge`` is thus caught whether it is called as
``exterior.wedge``, ``operators.wedge`` or ``identities.wedge``.  A few
methods and constructors get counters instead of (or as well as) spans, for
the per-layer work counts.

Spans stay in memory as four parallel integer columns and are written out at
the end.  A span's self time is its duration minus the durations of its child
spans.  Counting done by the tracer itself is recorded as a child span named
``trace.bookkeeping``, so it is not charged to the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

BOOKKEEPING = "trace.bookkeeping"

# Methods that are layer boundaries of their own (module-level functions are
# found by inspection).
TRACED_METHODS = {
    "cosym3.operators.GradedOperator": ("from_function", "compose", "apply"),
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder and the bindings it replaced, for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ----------------------------------------------------------

    def spanned(self, fn, name: str, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` and ``after(args, result)``
        run as bookkeeping outside the span."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = clock()
                before(args)
                self._bookkeeping(t0)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                after(args, result)
                self._bookkeeping(t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str, after=None):
        """``fn`` with a call counter and optional bookkeeping, but no span."""
        counts = self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                t0 = clock()
                after(args, result)
                self._bookkeeping(t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _bookkeeping(self, t0: int) -> None:
        self.span_name.append(self.name_id(BOOKKEEPING))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(t0)
        self.span_end.append(time.perf_counter_ns())

    def open(self, name: str) -> int:
        """Start a span from the benchmark's own code; returns its index."""
        idx = len(self.span_name)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    # -- installation -------------------------------------------------------

    def _bind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def add(self, owner, attr: str, wrapper) -> None:
        """Register an extra wrapper (for the benchmark's own functions)."""
        self._wrappers.append((owner, attr, wrapper))

    def install(self) -> None:
        """Swap the wrappers into every namespace that binds the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = sorted(
            (m for name, m in sys.modules.items() if name.startswith("cosym3.")),
            key=lambda m: m.__name__,
        )
        replacements: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("cosym3."):
                    continue
                if id(obj) not in replacements:
                    name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    replacements[id(obj)] = self.spanned(obj, name, *hooks.get(name, ()))
                self._bind(module, attr, replacements[id(obj)])
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr in TRACED_METHODS.get(f"{module.__name__}.{cls.__qualname__}", ()):
                    name = f"{_short(cls.__module__)}.{cls.__qualname__}.{attr}"
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = self.spanned(raw.__func__, name, *hooks.get(name, ()))
                        self._bind(cls, attr, classmethod(wrapped))
                    else:
                        self._bind(cls, attr, self.spanned(raw, name, *hooks.get(name, ())))
        self._install_constructor_counters()
        for owner, attr, wrapper in self._wrappers:
            self._bind(owner, attr, wrapper)

    def _hooks(self) -> dict:
        """(before, after) bookkeeping for spans that also count work."""
        counts = self.counts

        def count_columns(_args, result):
            counts["operators.GradedOperator.from_function.columns"] += sum(
                len(cols) for cols in result.blocks.values()
            )

        def count_density(args):
            vectors, target = args
            keys = {k for v in vectors for k in v} | set(target)
            counts["linalg.solve_in_span.nonzeros"] += sum(
                1 for v in (*vectors, target) for c in v.values() if c
            )
            counts["linalg.solve_in_span.cells"] += len(keys) * (len(vectors) + 1)

        return {
            "operators.GradedOperator.from_function": (None, count_columns),
            "linalg.solve_in_span": (count_density, None),
        }

    def _install_constructor_counters(self) -> None:
        from cosym3.exterior import Multivector
        from cosym3.operators import GradedOperator

        counts = self.counts

        def count_operator(args, _result):
            # Every GradedOperator, however built, materializes its columns.
            for cols in args[0].blocks.values():
                counts["operators.columns"] += len(cols)
                for col in cols:
                    if col.terms:
                        counts["operators.nonzeros"] += len(col.terms)
                    else:
                        counts["operators.zero_columns"] += 1

        self._bind(
            Multivector,
            "__init__",
            self.counted(Multivector.__init__, "exterior.Multivector.count"),
        )
        self._bind(
            GradedOperator,
            "__init__",
            self.counted(
                GradedOperator.__init__, "operators.GradedOperator.count", after=count_operator
            ),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to summarize from: span count and a copy of the counters."""
        return len(self.span_name), dict(self.counts)

    def summarize(self, since: tuple[int, dict[str, int]]) -> dict[str, dict[str, int]]:
        """Calls and self time per span name, and counter deltas, after ``since``."""
        first, counts_before = since
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        last = len(names)
        child_ns = [0] * (last - first)
        for i in range(first, last):
            p = parents[i]
            if p >= first:
                child_ns[p - first] += ends[i] - starts[i]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(first, last):
            name = self.names[names[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - child_ns[i - first]
        counters = {
            k: v - counts_before.get(k, 0) for k, v in self.counts.items()
        }
        return {"calls": dict(calls), "self_ns": dict(self_ns), "counters": counters}

    def write(self, path: Path, header: dict) -> None:
        """Write the span columns: a JSON header line, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({**header, "names": self.names}) + "\n")
            out.write("# name parent start_ns end_ns\n")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                out.write("%d %d %d %d\n" % row)

