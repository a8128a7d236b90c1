"""In-memory spans around the router's layers, recorded from outside the package.

The tracer wraps module-level functions of ``codar_router``: public entry
points the benchmark calls, and helpers that ``route`` looks up by name at
call time.  Each wrapped name is replaced in every loaded ``codar_router``
module that holds the same function object, so calls through any import path
are seen.  A name that no longer exists, or is no longer a function, is
reported as untraced instead of failing the run.

A span's self time is its duration minus the time covered by its child
spans.  Spans are kept in arrays and written out once, after the run.
"""
from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _scanned(args, kwargs, result) -> int:
    """Gates a frontier call looks at: the pending list, cut at ``window`` if given."""
    try:
        count = len(args[0])
    except (IndexError, TypeError):
        return 0
    window = kwargs.get("window")
    if window is None:
        window = next((a for a in args[1:] if type(a) is int), None)
    return count if window is None else min(count, window)


# (module, attribute, span name, work counter).  A counter maps a call's
# arguments and result to an amount of work; without one each call counts 1.
TARGETS = (
    ("qasm", "parse_program", "qasm.parse", None),
    ("qasm", "emit_program", "qasm.emit", None),
    ("arch", "resolve_architecture", "arch.load", None),
    ("router", "route", "router.route", None),
    ("router", "initial_mapping", "router.init_map", None),
    ("router", "cf_front", "commutation.front", _scanned),
    ("router", "no_predecessor_front", "commutation.front", _scanned),
    ("router", "candidate_swaps", "router.candidate_swaps", None),
    ("router", "heuristic_priority", "router.heuristic_priority", None),
    ("router", "launch", "router.launch", None),
    ("verify", "verify_equivalence", "verify.equivalence", None),
    ("verify", "dependency_equivalence", "verify.dependency", None),
    ("verify", "statevector_oracle", "verify.oracle", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._child: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.untraced: list[str] = []
        self.labels: dict[int, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._open[-1] if self._open else -1)
        self.name.append(name_id)
        self._open.append(idx)
        self._child.append(0.0)
        self.start.append(perf_counter())
        self.end.append(0.0)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self.end[idx] = end
        self._open.pop()
        child = self._child.pop()
        duration = end - self.start[idx]
        name = self.names[self.name[idx]]
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._child:
            self._child[-1] += duration

    def span(self, name: str, label: str):
        """Context manager for a root span opened by the benchmark, e.g. one compile."""
        tracer, name_id = self, self._id(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer.open(name_id)
                tracer.labels[self.idx] = label

            def __exit__(self, *exc):
                tracer.close(self.idx)

        return _Span()

    def wrap(self, fn, name: str, counter=None):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.work[name] += counter(args, kwargs, result) if counter else 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``codar_router`` module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "codar_router" or key.startswith("codar_router."))]
        for module, attr, name, counter in TARGETS:
            fn = getattr(sys.modules.get(f"codar_router.{module}"), attr, None)
            if not callable(fn):
                if f"{module}.{attr}" not in self.untraced:
                    self.untraced.append(f"{module}.{attr}")
                continue
            traced = self.wrap(fn, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as [parent, name, start_s, end_s] rows, times from the first span.

        ``labels`` maps each root span's row to the operation it compiled, so
        every span of one compile can be found by following ``parent``.
        """
        t0 = self.start[0] if len(self.start) else 0.0
        rows = [[self.parent[i], self.name[i], round(self.start[i] - t0, 7),
                 round(self.end[i] - t0, 7)] for i in range(len(self.start))]
        doc = {"names": self.names, "labels": self.labels, "spans": rows,
               "untraced": self.untraced}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
