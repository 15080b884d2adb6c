"""Span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: ``install`` replaces
every public function of the ``paulipriv`` modules (and
``PauliElement.to_dense``) by a wrapper, in every module namespace that holds
a reference to it, so calls between package modules are traced too.  Per-
element arithmetic (``__mul__``) is left unwrapped because of its overhead.

Each span records its parent, so a span's self time is its duration minus the
durations of its children.  Spans stay in memory and are aggregated once the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("pauli", "groups", "algebra", "privacy", "constructions", "serialize", "cli")

# Work counted at the boundary where it happens, summed into a span's count:
# "<layer>.<function>" -> f(args, result).
COUNTERS = {
    "groups.close": lambda args, result: len(result),  # elements
    "algebra.span_closure": lambda args, result: result.dim,  # output dimension
    # the commutant builds and diagonalizes an N^2 x N^2 complex Gram matrix
    "algebra.commutant": lambda args, result: 16 * args[0].N ** 4,  # its bytes
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    labels: tuple
    raised: bool
    count: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span stack; ``labels`` tags spans with the current case size."""

    def __init__(self):
        self.spans: list[Span] = []
        self.labels: tuple = ()
        self._stack: list[int] = []
        self._next = 0
        self._last_error = None

    @contextmanager
    def span(self, layer, name):
        """Record the enclosed block as one span; yields a dict for its count."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        extra = {"count": 0.0}
        raised = False
        start = perf_counter()
        try:
            yield extra
        except Exception as exc:
            # count an error once, in the span where it was raised
            raised = exc is not self._last_error
            self._last_error = exc
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(sid, parent, layer, name, start, end, self.labels, raised,
                     extra["count"])
            )

    def wrap(self, fn, layer, name):
        counter = COUNTERS.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as extra:
                result = fn(*args, **kwargs)
                if counter is not None:
                    extra["count"] = float(counter(args, result))
            return result

        return traced


def install(tracer: Tracer) -> list:
    """Route every public package function through ``tracer``.

    Returns the patch list that :func:`uninstall` takes to restore the
    original functions.
    """
    package = importlib.import_module("paulipriv")
    modules = {layer: importlib.import_module(f"paulipriv.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrappers[obj] = tracer.wrap(obj, layer, attr)
    patches = []
    for holder in (package, *modules.values()):
        for attr, obj in list(vars(holder).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((holder, attr, obj))
                setattr(holder, attr, wrappers[obj])
    # PauliClass.to_dense delegates to PauliElement.to_dense, so wrapping the
    # element method alone counts every dense realization once.
    element = modules["pauli"].PauliElement
    original = element.to_dense
    patches.append((element, "to_dense", original))
    element.to_dense = tracer.wrap(original, "pauli", "to_dense")
    return patches


def uninstall(patches: list) -> None:
    for holder, attr, obj in reversed(patches):
        setattr(holder, attr, obj)


def aggregate(spans: list[Span]) -> dict:
    """Self time, inclusive time, calls, counters and errors per function and layer.

    Returns ``{"fn": {"layer.name": {...}}, "layer": {layer: {...}},
    "rows": [...], "root_s": float}`` where rows are per-size
    ``{layer, op, d, n or N, calls, seconds}`` entries of self time.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    fn = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0.0})
    layer = defaultdict(lambda: {"self_s": 0.0, "errors": 0})
    rows = defaultdict(lambda: {"calls": 0, "seconds": 0.0})
    root_s = 0.0
    for s in spans:
        own = s.seconds - child[s.sid]
        key = f"{s.layer}.{s.name}"
        f = fn[key]
        f["self_s"] += own
        f["total_s"] += s.seconds
        f["calls"] += 1
        f["count"] += s.count
        layer[s.layer]["self_s"] += own
        layer[s.layer]["errors"] += int(s.raised)
        if s.parent is None:
            root_s += s.seconds
        r = rows[(s.layer, s.name, s.labels)]
        r["calls"] += 1
        r["seconds"] += own
    row_list = [
        {"layer": lay, "op": name, **dict(labels), **vals}
        for (lay, name, labels), vals in sorted(rows.items(), key=lambda kv: str(kv[0]))
    ]
    return {"fn": dict(fn), "layer": dict(layer), "rows": row_list, "root_s": root_s}
