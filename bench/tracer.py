"""Span tracing of the modpoints layers, installed from outside the program.

``Tracer.install`` wraps every public function and every public method (plus
``__init__`` and the arithmetic operators) of the eight modpoints modules,
and rebinds each wrapper wherever the original is bound: in its own module,
in modules that imported it by name (``from .poly import resultant``), in
the package namespace and in ``checks.SUITES``.  Each call records a span
(name, parent span, start, end) in memory; ``summarize`` derives per name
the call count, the inclusive time of outermost calls (``ms``) and the self
time (``self_ms``: duration minus the time covered by child spans).

Run as a script, it is the traced child of the cold workloads:

    python3 bench/tracer.py SPANS.marshal run slice --format json

runs ``modpoints.cli.main`` on the remaining arguments with the tracer
installed, writes the spans with ``marshal`` when it returns, and exits with
the code ``main`` returned.  ``python3 bench/tracer.py --alloc OUT.json``
instead writes the tracemalloc peak of one cold ``fqspace.generate_group``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import marshal
import sys
import time
from typing import Dict, List

MODULES = ("cli", "checks", "fqspace", "poly", "blowup", "betti", "picard", "stability")
TRACED_DUNDERS = frozenset(
    ("__init__", "__call__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
     "__mul__", "__rmul__", "__pow__")
)


class Tracer:
    def __init__(self) -> None:
        # one [name, parent index, nested, start, end] per call; ``nested``
        # marks a call made inside an open call of the same name
        self.records: List[list] = []
        self._stack = [-1]
        self._open: Dict[str, int] = {}
        self._undo: list = []

    def reset(self) -> None:
        self.records.clear()

    def wrap(self, name: str, fn):
        records, stack, open_spans, clock = self.records, self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            depth = open_spans.get(name, 0)
            record = [name, stack[-1], depth > 0, 0.0, 0.0]
            stack.append(len(records))
            records.append(record)
            open_spans[name] = depth + 1
            record[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                open_spans[name] = depth

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------------------
    # installation

    def _rebind(self, namespace, attr: str, value) -> None:
        if isinstance(namespace, dict):
            self._undo.append((namespace.__setitem__, attr, namespace[attr]))
            namespace[attr] = value
        else:
            self._undo.append((functools.partial(setattr, namespace), attr, namespace.__dict__[attr]))
            setattr(namespace, attr, value)

    def _wrap_class(self, short: str, cls) -> None:
        done: Dict[int, object] = {}
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            raw = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if not inspect.isfunction(raw):
                continue  # properties and plain class attributes
            if id(raw) not in done:  # __radd__ = __add__ shares one wrapper
                done[id(raw)] = self.wrap(f"{short}.{raw.__qualname__}", raw)
            wrapper = done[id(raw)]
            self._rebind(cls, attr, type(value)(wrapper) if raw is not value else wrapper)

    def install(self) -> None:
        package = importlib.import_module("modpoints")
        modules = {short: importlib.import_module(f"modpoints.{short}") for short in MODULES}
        wrappers: Dict[int, object] = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(short, value)
                elif callable(value):  # functions, and lru_cache wrappers of functions
                    wrappers[id(value)] = self.wrap(f"{short}.{attr}", value)
        namespaces = [vars(m) for m in modules.values()] + [vars(package), modules["checks"].SUITES]
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._rebind(namespace, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._undo:
            restore, attr, original = self._undo.pop()
            restore(attr, original)


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive ms of outermost calls, and self ms.

    ``spans`` are ``Tracer.records``: [name, parent index, nested, start s, end s].
    """
    durations = [span[4] - span[3] for span in spans]
    covered = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[1] >= 0:
            covered[span[1]] += duration
    out: Dict[str, Dict[str, float]] = {}
    for (name, _, nested, _, _), duration, inner in zip(spans, durations, covered):
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        if not nested:
            row["ms"] += duration * 1e3
        row["self_ms"] += (duration - inner) * 1e3
    return out


def import_times(stderr: str) -> Dict[str, float]:
    """``import.*`` metrics from the output of ``python -X importtime``.

    ``import.modpoints.ms`` is the cumulative time of the outermost modpoints
    entry; ``import.<module>.self_ms`` is each module's own time.
    """
    out: Dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = (field.strip() for field in line[12:].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        if name == "modpoints" or name.startswith("modpoints."):
            short = name.split(".", 1)[-1]
            out[f"import.{short}.self_ms"] = int(self_us) / 1e3
            out["import.modpoints.ms"] = max(out.get("import.modpoints.ms", 0.0), int(cumulative_us) / 1e3)
    return out


def _alloc(out_path: str) -> None:
    import tracemalloc

    from modpoints import fqspace

    tracemalloc.start()
    fqspace.generate_group()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"fqspace.generate_group.alloc_mb": peak / 2 ** 20}, handle)


def _traced_cli(spans_path: str, argv: List[str]) -> int:
    from modpoints import cli

    tracer = Tracer()
    tracer.install()
    tracer.reset()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "wb") as handle:
            marshal.dump(tracer.records, handle)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--alloc":
        _alloc(sys.argv[2])
    else:
        sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
