"""Layer tracing from outside the library.

``Tracer.install`` wraps the coarse public entry points of every
``immlab`` module and patches each wrapped name into every ``immlab``
namespace that imported it, so calls between modules are caught too.  Each
call becomes a span (name, start, end, parent, request id) kept in flat
arrays; nothing is written until ``summarise`` runs at the end.
``uninstall`` restores the originals, so untraced runs carry no wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

#: Modules whose public functions are wrapped; the layer name is the module name.
LAYERS = ("graphs", "analysis", "construct", "inflation", "certificates", "oracle", "gen")

#: Per-element helpers outside ``graphs``: called in inner loops, never wrapped.
HELPERS = frozenset({"ordered_pair", "half_ceil"})

#: ``graphs`` is wrapped only at its coarse entry points; ``__post_init__``
#: runs once per ``Graph`` built.
GRAPH_FUNCTIONS = ("graph_from_json",)
GRAPH_METHODS = ("sha256", "to_json", "induced_subgraph", "__post_init__")


class Tracer:
    """Span recorder.  Spans nest strictly: the program is single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.walk_steps: dict[str | None, int] = defaultdict(int)   # per root span name
        self._stack: list[int] = []
        self._request_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @property
    def request_id(self) -> int:
        return self._request_id

    def open(self, name: str, *, new_request: bool = False) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if new_request:
            self._request_id += 1
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise AssertionError(f"span {idx} closed while {popped} was open")

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple[object, Callable]] = {}
        for layer in LAYERS:
            module = sys.modules[f"immlab.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or attr in HELPERS
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if layer == "graphs" and attr not in GRAPH_FUNCTIONS:
                    continue
                originals[id(obj)] = (obj, self._wrapper(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "immlab" and not mod_name.startswith("immlab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])
        graph_cls = sys.modules["immlab.graphs"].Graph
        for method in GRAPH_METHODS:
            original = graph_cls.__dict__[method]
            self._patch(graph_cls, method, original,
                        self._wrapper(f"graphs.Graph.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        traced = self.wrap(name, fn)
        if name != "certificates.verify_certificate":
            return traced

        @functools.wraps(fn)
        def counting(g, cert, *args, **kwargs):
            # Work the verifier faces: one edge check per walk step.
            self.walk_steps[self._root_name()] += sum(len(w) - 1 for w in cert.paths.values())
            return traced(g, cert, *args, **kwargs)
        return counting

    # -- aggregation ----------------------------------------------------------

    def _root_name(self) -> str | None:
        return self.names[self.name[self._stack[0]]] if self._stack else None

    def summarise(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per (root span name, span name): calls, self time, inclusive time and
    the longest single span.

    A span's self time is its duration minus the durations of its direct
    children; children nest strictly, so that is the part of its interval no
    child covers.  Inclusive time counts only the outermost span of a name,
    so recursion is not counted twice.  Root spans are the harness's own
    (``bench.setup``, ``bench.solve``, ...), so the root name says which
    phase or request kind the work belongs to.
    """

    CALLS, SELF, INCLUSIVE, LONGEST = range(4)

    def __init__(self, tracer: Tracer) -> None:
        names, name, parent = tracer.names, tracer.name, tracer.parent
        count = len(tracer.start)
        duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            if parent[i] >= 0:
                children[parent[i]] += duration[i]
        root_of = [0] * count
        self._tracer = tracer
        self.rows: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.parent_calls: dict[tuple[str, str, str], int] = defaultdict(int)
        for i in range(count):
            p = parent[i]
            root_of[i] = i if p < 0 else root_of[p]
            key = (names[name[root_of[i]]], names[name[i]])
            row = self.rows[key]
            row[self.CALLS] += 1
            row[self.SELF] += duration[i] - children[i]
            row[self.LONGEST] = max(row[self.LONGEST], duration[i])
            if not _nested_in_same(tracer, i):
                row[self.INCLUSIVE] += duration[i]
            if p >= 0:
                self.parent_calls[(key[0], names[name[p]], key[1])] += 1

    def total(self, field: int, roots, names=(), prefix: str | None = None) -> float:
        """Sum of one field over the given roots, for the listed span names
        and/or every span name starting with ``prefix``."""
        out = 0 if field == self.CALLS else 0.0
        for (root, name), row in self.rows.items():
            if root in roots and (name in names or
                                  (prefix is not None and name.startswith(prefix))):
                out += row[field]
        return out

    def per_request(self, *names: str) -> dict[int, float]:
        """Inclusive time of ``names`` (or of the root, if none) per request id."""
        t = self._tracer
        wanted = {i for i, n in enumerate(t.names) if n in names}
        out: dict[int, float] = defaultdict(float)
        for i in range(len(t.start)):
            root = t.parent[i] < 0
            if (root and not names) or (t.name[i] in wanted and not _nested_in_same(t, i)):
                out[t.request[i]] += t.end[i] - t.start[i]
        return dict(out)

    def longest(self, roots, name: str) -> float:
        return max((row[self.LONGEST] for (root, n), row in self.rows.items()
                    if root in roots and n == name), default=0.0)

    def calls_from(self, roots, parent_prefix: str, names) -> int:
        """Calls of ``names`` made directly by a span whose name has this prefix."""
        return sum(c for (root, p, n), c in self.parent_calls.items()
                   if root in roots and p.startswith(parent_prefix) and n in names)


def _nested_in_same(tracer: Tracer, i: int) -> bool:
    name_id = tracer.name[i]
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name[p] == name_id:
            return True
        p = tracer.parent[p]
    return False
