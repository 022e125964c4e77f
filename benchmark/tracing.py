"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps every public function of the ``dualinv`` layer
modules, in every ``dualinv`` module namespace that bound the same function
object, plus ``RealMatrix.__matmul__`` and ``ResultDocument.to_json`` on
their classes.  Each call records a span (name, start, end, parent) in
memory; ``Tracer.collect`` turns one task's spans into calls and self time
(span time minus the time of its child spans) and drops them.  ``restore``
puts every original back.  Nothing in the library is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "matrices",
    "elimination",
    "real_inverses",
    "indices",
    "dual_inverses",
    "dual_linear",
    "block_decomposition",
    "equation_solvers",
    "documents",
    "cli",
)

MARKER = "__benchmark_span__"


def _matmul_madds(args) -> tuple[str, int]:
    a, b = args[0], args[1]
    return "matrices.matmul.madds", a.rows * a.cols * b.cols


def _rref_cells(args) -> tuple[str, int]:
    m = args[0]
    return "elimination.rref.cells", m.rows * m.cols


WORK = {"matrices.matmul": _matmul_madds, "elimination.rref": _rref_cells}


class Tracer:
    """Span recorder plus the per-name totals of every collected task."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        work = WORK.get(name)
        totals = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                key, amount = work(args)
                totals[key] += amount
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent)

        setattr(wrapper, MARKER, name)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every layer; call ``restore`` after."""
        modules = {layer: importlib.import_module(f"dualinv.{layer}") for layer in LAYERS}
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dualinv" or name.startswith("dualinv."))
        ]
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in sorted(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, wrapper)
        real = modules["matrices"].RealMatrix
        self._patch(real, "__matmul__", self._wrap("matrices.matmul", real.__matmul__))
        doc = modules["documents"].ResultDocument
        self._patch(doc, "to_json", self._wrap("documents.to_json", doc.to_json))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def collect(self, scale: float = 1.0) -> None:
        """Fold the recorded spans into calls and self time, then drop them.

        Self times are multiplied by ``scale``, the host-speed factor.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_s):
            self.calls[name] += 1
            self.self_s[name] += ((end - start) - inner) * scale
        self.spans.clear()

    def merge(self, totals: dict, scale: float = 1.0) -> None:
        """Add totals reported by a traced child process (see ``totals``),
        with self times multiplied by ``scale``."""
        for name, (calls, self_s) in totals["spans"].items():
            self.calls[name] += calls
            self.self_s[name] += self_s * scale
        for key, amount in totals["work"].items():
            self.work[key] += amount

    def totals(self) -> dict:
        return {
            "spans": {n: [self.calls[n], self.self_s[n]] for n in self.calls},
            "work": dict(self.work),
        }


def patched_names() -> list[str]:
    """Attributes of loaded ``dualinv`` modules and classes that are still wrappers."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "dualinv" or name.startswith("dualinv.")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARKER):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value):
                found.extend(
                    f"{name}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, MARKER)
                )
    return found
