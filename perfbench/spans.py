"""Spans recorded around calls into icotile's public functions.

The program is measured from outside: instrument() replaces each listed
function, in every loaded icotile module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent span, op id).  Spans
stay in memory until the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute); a dotted attribute names a method
PUBLIC_FUNCTIONS = (
    ("golden.embed", "icotile.golden", "embed"),
    ("golden.tau_pow", "icotile.golden", "tau_pow"),
    ("catalog.all_records", "icotile.catalog", "all_records"),
    ("catalog.total_volume", "icotile.catalog", "total_volume"),
    ("inflation.inflate_counts", "icotile.inflation", "inflate_counts"),
    ("inflation.total_volume", "icotile.inflation", "CountVector.total_volume"),
    ("inflation.verify_decomposition", "icotile.inflation", "verify_decomposition"),
    ("inflation.dodecahedron_ledger", "icotile.inflation", "dodecahedron_ledger"),
    ("inflation.pf_vectors", "icotile.inflation", "pf_vectors"),
    ("inflation.projection_matrix", "icotile.inflation", "projection_matrix"),
    ("geometry.assemble", "icotile.geometry", "assemble"),
    ("geometry.dihedrals", "icotile.geometry", "dihedrals"),
    ("geometry.export_obj", "icotile.geometry", "export_obj"),
    ("geometry.export_patch", "icotile.geometry", "export_patch"),
    ("checks.run_checks", "icotile.checks", "run_checks"),
    ("report.build_bundle", "icotile.report", "build_bundle"),
    ("cli.canonical_json", "icotile.cli", "canonical_json"),
)


class Tracer:
    """In-memory span list; spans[i] = [name, start_ns, end_ns, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def extend(self, records: list[list], parent: int, op) -> None:
        """Adopt spans recorded in a child process (same monotonic clock)."""
        base = len(self.spans)
        for name, start, end, par, _ in records:
            self.spans.append([name, start, end, parent if par < 0 else par + base, op])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def instrument(tracer: Tracer):
    """Route every loaded icotile module's references to the public functions
    through tracer.  Returns a function that puts the originals back."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "icotile" or n.startswith("icotile."))]
    undo = []
    for name, modname, attr in PUBLIC_FUNCTIONS:
        if modname not in sys.modules:
            continue
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            holders = [(getattr(owner, cls_name), meth)]
        else:
            holders = [(m, key) for m in mods for key, value in list(vars(m).items())
                       if value is getattr(owner, attr)]
        orig = getattr(*holders[0])
        wrapped = tracer.wrap(name, orig)
        for obj, key in holders:
            undo.append((obj, key, orig))
            setattr(obj, key, wrapped)

    def restore():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)
    return restore


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of each span."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1] - c) / 1e9 for s, c in zip(spans, child)]


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive busy seconds, self seconds; per layer: self seconds."""
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    by_layer: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        entry = by_name[s[0]]
        entry[0] += 1
        entry[1] += (s[2] - s[1]) / 1e9
        entry[2] += st
        by_layer[s[0].split(".", 1)[0]] += st
    return {"names": dict(by_name), "layers": dict(by_layer)}
