"""Traced mode: spans and counts at the layer boundaries of `plc`.

`install` replaces the functions named in `WRAPS` with wrappers that record
a span (name, start, end, parent span, query id) and the counts the
per-layer metrics need.  A module-level function is wrapped both where it is
defined and where another module imported it, because the importer calls its
own binding.  A name that no longer exists is recorded in `Tracer.absent`
and its layer reads 0.

Calls nest on one thread, so a span's self time is its length minus the
summed lengths of its direct children.  A layer's time counts only its
outermost spans, so recursion through the same layer is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref
from array import array

SPAN_CAP = 200_000  # spans kept for the trace file; later ones are only aggregated


def _node_count(phi) -> int:
    n, stack = 0, [phi]
    while stack:
        f = stack.pop()
        n += 1
        stack.extend(getattr(f, k) for k in ("sub", "left", "right", "announced") if hasattr(f, k))
    return n


def _count_cells(tracer, args, kwargs):
    tables = kwargs["tables"] if "tables" in kwargs else args[4]
    tracer.counts["vecsem.cells"] += int(tables.size)


def _count_spend(tracer, args, kwargs):
    tracer.counts["config.budget_units"] += int(args[1] if len(args) > 1 else kwargs["amount"])


def _count_memo_hit(tracer, out):
    ref = tracer.returned.get(id(out))
    if ref is not None and ref() is out:
        tracer.counts["models.update_memo_hits"] += 1
    else:
        tracer.returned[id(out)] = weakref.ref(out)


def _count_reduced(tracer, out):
    tracer.counts["rewrite.reduced_nodes"] += _node_count(out)


def _count_axps(tracer, out):
    tracer.counts["explain.axps_returned"] += len(out)


# (module, attribute, span name, hook before the call, hook on the result)
WRAPS = [
    ("plc.solver", "sat_finite", "solver", None, None),
    ("plc.solver", "valid_finite", "solver", None, None),
    ("plc.solver", "sat_open", "solver", None, None),
    ("plc.solver", "_system_satisfiable", "solver", None, None),
    ("plc.solver", "filtrate", "solver", None, None),
    ("plc.solver", "grid_truth", "vecsem.grid_truth", _count_cells, None),
    ("plc._vecsem", "grid_truth", "vecsem.grid_truth", _count_cells, None),
    ("plc.solver", "simplify", "rewrite.simplify", None, None),
    ("plc.rewrite", "simplify", "rewrite.simplify", None, None),
    ("plc.solver", "cp_free", "rewrite.cp_free", None, None),
    ("plc.rewrite", "cp_free", "rewrite.cp_free", None, None),
    ("plc.solver", "subformulas", "syntax.subformulas", None, None),
    ("plc.syntax", "subformulas", "syntax.subformulas", None, None),
    ("plc.solver", "render_formula", "parser.render", None, None),
    ("plc.solver", "check_mcm", "semantics.recheck", None, None),
    ("plc.solver", "check_mdm", "semantics.recheck", None, None),
    ("plc.explain", "enumerate_axps", "explain", None, _count_axps),
    ("plc.explain", "enumerate_subjective", "explain", None, _count_axps),
    ("plc.explain", "enumerate_pimps", "explain", None, None),
    ("plc.explain", "is_implicant", "explain.implicant", None, None),
    ("plc.explain", "check_pimp", "explain.pimp", None, None),
    ("plc.explain", "all_terms", "syntax.all_terms", None, None),
    ("plc.models", "build_mcm", "models.build_mcm", None, None),
    ("plc.modelio", "build_mcm", "models.build_mcm", None, None),
    ("plc.models", "update_mcm", "models.update", None, _count_memo_hit),
    ("plc.semantics", "update_mcm", "models.update", None, _count_memo_hit),
    ("plc.cli", "update_mcm", "models.update", None, _count_memo_hit),
    ("plc.semantics", "extension_mask", "semantics.extension", None, None),
    ("plc.rewrite", "reduce_dynamic", "rewrite.reduce_dynamic", None, _count_reduced),
    ("plc.cli", "reduce_dynamic", "rewrite.reduce_dynamic", None, _count_reduced),
    ("plc.models", "mdm_to_mcm", "models.normalize", None, None),
    ("plc.cli", "mdm_to_mcm", "models.normalize", None, None),
    ("plc.modelio", "load_model", "modelio.load", None, None),
    ("plc.cli", "load_model", "modelio.load", None, None),
    ("plc.modelio", "dumps_mcm", "modelio.dump", None, None),
    ("plc.cli", "dumps_mcm", "modelio.dump", None, None),
    ("plc.cli", "main", "cli", None, None),
]

# (module, class, method, hook before the call): counted, no span
COUNTS = [("plc.config", "BudgetMeter", "spend", _count_spend)]


class Tracer:
    def __init__(self):
        self.qid = -1
        self.span_names: list[str] = []
        self.starts, self.ends = array("d"), array("d")
        self.names, self.parents, self.queries = array("i"), array("i"), array("i")
        self.dropped = 0
        self.stack: list[list] = []  # [span index, child time] per open span
        self.depth: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = dict.fromkeys(("vecsem.cells", "config.budget_units", "models.update_memo_hits",
                                     "rewrite.reduced_nodes", "explain.axps_returned"), 0)
        self.returned: dict[int, weakref.ref] = {}
        self.absent: list[str] = []
        self._restore: list = []

    def wrap(self, fn, name, before, after):
        tracer = self
        stack, depth, perf = self.stack, self.depth, time.perf_counter
        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)
        for table in (self.total, self.self_time, self.calls, self.depth):
            table.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            index = len(tracer.starts)
            if index < SPAN_CAP:
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
                tracer.names.append(name_id)
                tracer.parents.append(stack[-1][0] if stack else -1)
                tracer.queries.append(tracer.qid)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                if depth[name] == 0:
                    tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                tracer.calls[name] += 1
                if index >= 0:
                    tracer.starts[index] = t0
                    tracer.ends[index] = t1
            if after is not None:
                after(tracer, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod_name, attr, name, before, after in WRAPS:
            self._patch(mod_name, None, attr, lambda fn, n=name, b=before, a=after: self.wrap(fn, n, b, a))
        for mod_name, cls, attr, before in COUNTS:
            def counting(fn, before=before):
                def wrapper(*args, **kwargs):
                    before(self, args, kwargs)
                    return fn(*args, **kwargs)
                return wrapper
            self._patch(mod_name, cls, attr, counting)

    def _patch(self, mod_name, cls, attr, make):
        target = f"{mod_name}.{cls + '.' if cls else ''}{attr}"
        try:
            owner = importlib.import_module(mod_name)
            if cls is not None:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        setattr(owner, attr, make(fn))
        self._restore.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self) -> dict:
        return {"total": self.total, "self": self.self_time, "calls": self.calls,
                "counts": self.counts, "absent": self.absent}

    def dump(self, path, extra: dict) -> None:
        spans = {
            "names": self.span_names,
            "start": list(self.starts), "end": list(self.ends),
            "name": list(self.names), "parent": list(self.parents),
            "query": list(self.queries), "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "summary": self.summary(), "spans": spans}, fh)


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metrics of a library workload from a `Tracer.summary`."""
    total, own, calls, counts = s["total"], s["self"], s["calls"], s["counts"]
    axps = counts.get("explain.axps_returned", 0)
    return {
        "solver.self_s": own.get("solver", 0.0),
        "vecsem.grid_truth_s": total.get("vecsem.grid_truth", 0.0),
        "vecsem.cells": counts.get("vecsem.cells", 0),
        "config.budget_units": counts.get("config.budget_units", 0),
        "rewrite.simplify_s": total.get("rewrite.simplify", 0.0),
        "rewrite.cp_free_s": total.get("rewrite.cp_free", 0.0),
        "syntax.subformulas_s": total.get("syntax.subformulas", 0.0),
        "parser.render_s": total.get("parser.render", 0.0),
        "semantics.recheck_s": total.get("semantics.recheck", 0.0),
        "explain.self_s": own.get("explain", 0.0),
        "explain.implicant_checks": calls.get("explain.implicant", 0),
        "explain.implicant_s": total.get("explain.implicant", 0.0),
        "explain.pimp_checks": calls.get("explain.pimp", 0),
        "explain.checks_per_axp": calls.get("explain.implicant", 0) / axps if axps else 0.0,
        "syntax.all_terms_s": total.get("syntax.all_terms", 0.0),
        "models.build_mcm_s": total.get("models.build_mcm", 0.0),
        "models.update_s": total.get("models.update", 0.0),
        "models.update_calls": calls.get("models.update", 0),
        "models.update_memo_hits": counts.get("models.update_memo_hits", 0),
        "semantics.extension_s": total.get("semantics.extension", 0.0),
        "semantics.extension_calls": calls.get("semantics.extension", 0),
        "rewrite.reduce_dynamic_s": total.get("rewrite.reduce_dynamic", 0.0),
        "rewrite.reduced_nodes": counts.get("rewrite.reduced_nodes", 0),
    }
