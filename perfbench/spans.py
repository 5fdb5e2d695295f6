"""In-memory span tracing around the public entry points of each layer.

The benchmark never edits the program under test.  Instead,
:func:`install` replaces a fixed list of public functions and methods
with wrappers that record one span per call: name, start, end, parent
span and request id.  Spans stay in memory (one list per thread) and
are written out once, at the end, by :meth:`Tracer.dump`.

A call that re-enters a function whose span is already open on the
same thread records no new span: recursion (``expand`` calls itself)
is charged to the outermost call, so ``.calls`` counts entries into a
layer, not recursion depth.

Self time is a span's duration minus the time its direct children
cover.  Within one thread spans nest properly, so the self times of a
span tree add up exactly to its root's duration; :func:`summarize`
reports that sum next to the root total so a broken trace shows.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, attribute path) of every wrapped entry point.
#: Several attributes may share one span name (a solver facade's
#: methods all count as that solver).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("study.analyze_instance", "repro.study.casestudy", "analyze_instance"),
    ("batch.check_many", "repro.batch.pipeline", "check_many"),
    ("batch.check_one", "repro.batch.pipeline", "check_one"),
    ("server.check_text", "repro.server.session", "ServerSession.check_text"),
    ("sexp.read_all", "repro.sexp.reader", "read_all"),
    ("syntax.expand", "repro.syntax.macros", "expand"),
    ("syntax.parse_program", "repro.syntax.parser", "parse_program"),
    ("checker.check_program", "repro.checker.check", "Checker.check_program"),
    ("logic.extend", "repro.logic.prove", "Logic.extend"),
    ("logic.proves", "repro.logic.prove", "Logic.proves"),
    ("logic.subtype", "repro.logic.prove", "Logic.subtype"),
    ("logic.subtype", "repro.logic.prove", "Logic.result_subtype"),
    ("theories.entails", "repro.theories.registry", "RegistrySession.entails"),
    ("theories.entails_batch", "repro.theories.registry",
     "RegistrySession.entails_batch"),
    ("solvers.linear", "repro.solvers.linear", "IncrementalConstraintSet.add"),
    ("solvers.linear", "repro.solvers.linear", "IncrementalConstraintSet.push"),
    ("solvers.linear", "repro.solvers.linear", "IncrementalConstraintSet.pop"),
    ("solvers.linear", "repro.solvers.linear", "IncrementalConstraintSet.clone"),
    ("solvers.linear", "repro.solvers.linear",
     "IncrementalConstraintSet.satisfiable"),
    ("solvers.linear", "repro.solvers.linear", "IncrementalConstraintSet.entails"),
    ("solvers.linear", "repro.solvers.linear",
     "IncrementalConstraintSet.entails_many"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.add_clause"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.add_clauses"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.push"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.pop"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.clone"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.check_sat"),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver.check_many"),
)

#: spans that start a request: their id tags every span beneath them
REQUEST_ROOTS = {
    "study.analyze_instance": lambda args: getattr(args[0], "name", ""),
    "batch.check_one": lambda args: str(args[1]) if len(args) > 1 else "",
    # "<lane>:<n>" for the session's n-th request, which is how the load
    # generator (one connection per lane) numbers its own requests
    "server.check_text": lambda args: f"{args[0].lane_index}:{args[0].requests}",
}


class Tracer:
    """Records spans per thread; one instance per traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[Tuple[str, List[list]]] = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []          # [name, start, end, parent, request]
            local.stack = []          # indices of open spans
            local.open = set()        # names of open spans
            with self._lock:
                self._threads.append((threading.current_thread().name, local.spans))
        return local

    def open(self, name: str, request: Optional[str] = None) -> Optional[int]:
        """Open a span; None when ``name`` is already open on this thread."""
        state = self._state()
        if name in state.open:
            return None
        parent = state.stack[-1] if state.stack else -1
        if request is None:
            request = state.spans[parent][4] if parent >= 0 else ""
        index = len(state.spans)
        state.spans.append([name, perf_counter_ns(), 0, parent, request])
        state.stack.append(index)
        state.open.add(name)
        return index

    def close(self, index: Optional[int]) -> None:
        if index is None:
            return
        state = self._local
        span = state.spans[index]
        span[2] = perf_counter_ns()
        state.stack.pop()
        state.open.discard(span[0])

    def wrap(self, name: str, fn: Callable) -> Callable:
        request_of = REQUEST_ROOTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name, request_of(args) if request_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def threads(self) -> List[Tuple[str, List[list]]]:
        with self._lock:
            return list(self._threads)

    def dump(self, path: str) -> None:
        """Write every span as JSON lines (gzip); call once, at the end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for thread, spans in self.threads():
                for name, start, end, parent, request in spans:
                    out.write(json.dumps(
                        [thread, name, start, end, parent, request],
                        separators=(",", ":")))
                    out.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry point in ``tracer`` spans.

    Module-level functions are also rebound in every loaded ``repro``
    module that imported them by name (``from .reader import read_all``),
    so a caller anywhere in the package reaches the wrapper.
    """
    functions: Dict[int, Callable] = {}
    for name, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner_name, method = attribute.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(name, owner.__dict__[method]))
        else:
            original = getattr(module, attribute)
            functions[id(original)] = tracer.wrap(name, original)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            wrapped = functions.get(id(value))
            if wrapped is not None and getattr(wrapped, "__wrapped__", None) is value:
                setattr(module, attribute, wrapped)


def summarize(threads: List[Tuple[str, List[list]]]) -> Dict[str, float]:
    """Per-span-name self seconds and call counts, plus the root check.

    Returns ``{"<name>.self_s": s, "<name>.calls": n, ...}`` and two
    totals: ``trace.self_sum_s`` (the sum of every span's self time)
    and ``trace.root_s`` (the summed duration of root spans).  On a
    well-formed trace the two are equal.
    """
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    root_ns = 0
    for _thread, spans in threads:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _request in spans:
            if not end:
                continue  # still open when the process stopped
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                root_ns += end - start
        for index, (name, start, end, _parent, _request) in enumerate(spans):
            if not end:
                continue
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[index]
            calls[name] = calls.get(name, 0) + 1
    out: Dict[str, float] = {}
    for name in self_ns:
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.calls"] = calls[name]
    out["trace.self_sum_s"] = sum(self_ns.values()) / 1e9
    out["trace.root_s"] = root_ns / 1e9
    return out
