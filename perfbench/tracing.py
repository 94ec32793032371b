"""Span tracing of the hypersym layers, installed from outside the package.

Every public function of a layer module, and the public methods of
``Catalog``, ``NFJet`` and ``JetEngine``, is replaced by a wrapper that
records one span per call: name, start, end and the span that was open
when it was called.  The wrapper is bound everywhere the original was:
the module attribute and every alias that ``from ... import`` bound in
another hypersym module (``verify`` calls ``pmul``, ``print_expr`` and
``partial`` through such aliases).  Method wrappers go on the classes.

Spans stay in memory; ``summary`` reduces them to per-layer and
per-function call counts and self times (a span's duration minus the
time its child spans cover), and ``write_spans`` writes them out.
Work counters that need to look at arguments or results (failed trial
divisions, normal-form sizes, tree nodes, interned factors) are taken in
hooks that run inside a ``trace.*`` child span, so their cost is kept
out of every layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

# layer name -> module, in the order metrics are reported
LAYERS = {
    "catalog": "hypersym.catalog",
    "parser": "hypersym.expr.parser",
    "tree": "hypersym.expr.tree",
    "poly": "hypersym.expr.poly",
    "ratfunc": "hypersym.expr.ratfunc",
    "normal": "hypersym.expr.normal",
    "jet": "hypersym.jet",
    "verify": "hypersym.verify",
    "numeval": "hypersym.numeval",
    "transforms": "hypersym.transforms",
}
CLASSES = {"catalog": ("Catalog",), "jet": ("NFJet", "JetEngine")}
BOOKKEEPING = "trace.hook"


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


class Tracer:
    """Records spans for one process; install once, before the workload."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.pdiv_failed = 0
        self.peak_nf_terms = 0
        self.tree_nodes = 0
        self._contexts: Dict[int, object] = {}
        self._book = self._name_id(BOOKKEEPING)

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, span_name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        nid = self._name_id(span_name)
        book = self._book
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hidx = opened(book)
                    try:
                        hook(args, result)
                    finally:
                        closed(hidx)
                return result
            finally:
                closed(idx)

        return functools.update_wrapper(traced, fn)

    # -- hooks -----------------------------------------------------------

    def _on_pdiv(self, args, result) -> None:
        if result is None:
            self.pdiv_failed += 1

    def _on_nf(self, args, result) -> None:
        if isinstance(result, dict):
            size = sum(len(rf.num) for rf in result.values())
            if size > self.peak_nf_terms:
                self.peak_nf_terms = size

    def _on_numeric_zero(self, args, result) -> None:
        seen = set()
        todo = [args[0]]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            todo.extend(getattr(node, "args", ()))
            todo.extend(getattr(node, a) for a in ("base", "num", "den")
                        if hasattr(node, a))
        self.tree_nodes += len(seen) * result.samples

    def _on_intern(self, args, result) -> None:
        ctx = args[0]
        self._contexts[id(ctx)] = ctx

    def _hook_for(self, span_name: str) -> Optional[Callable]:
        if span_name == "poly.pdiv_exact":
            return self._on_pdiv
        if span_name == "numeval.numeric_zero":
            return self._on_numeric_zero
        if span_name == "ratfunc.intern_factor":
            return self._on_intern
        if span_name.startswith("normal."):
            return self._on_nf
        return None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable wherever it is bound."""
        modules = {layer: importlib.import_module(m)
                   for layer, m in LAYERS.items()}
        wrappers: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (_public(name) and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = self.wrap(span, obj,
                                                  self._hook_for(span))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "hypersym"
                                   or mname.startswith("hypersym.")):
                continue
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    setattr(mod, name, w)
        for layer, classes in CLASSES.items():
            for cname in classes:
                cls = getattr(modules[layer], cname)
                for name, obj in list(vars(cls).items()):
                    if _public(name) and inspect.isfunction(obj):
                        span = f"{layer}.{cname}.{name}"
                        setattr(cls, name,
                                self.wrap(span, obj, self._hook_for(span)))

    # -- results ---------------------------------------------------------

    def self_times(self) -> List[float]:
        n = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> Dict[str, float]:
        """Per-layer and per-function counts and self times, plus the work
        counters, keyed by metric name."""
        own = self.self_times()
        calls: Dict[str, int] = {}
        selfs: Dict[str, float] = {}
        for i, nid in enumerate(self.name):
            span = self.names[nid]
            calls[span] = calls.get(span, 0) + 1
            selfs[span] = selfs.get(span, 0.0) + own[i]
        out: Dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in calls if s.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(calls[s] for s in mine)
            out[f"{layer}.self_s"] = sum(selfs[s] for s in mine)
        for span in calls:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = selfs[span]
        pdiv = calls.get("poly.pdiv_exact", 0)
        out["poly.pdiv_exact.fail_ratio"] = (self.pdiv_failed / pdiv
                                             if pdiv else 0.0)
        out["ratfunc.factors_interned"] = sum(
            len(c.den_atoms) for c in self._contexts.values())
        out["normal.peak_nf_terms"] = self.peak_nf_terms
        out["numeval.tree_nodes"] = self.tree_nodes
        out["trace.spans"] = len(self.name)
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped, tab-separated: index, name, start, end, parent index
        (-1 at the top), times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i] - t0:.9f}"
                         f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n")
