"""Spans around the public functions of each coxheaps module.

While a ``Tracer`` is installed, every name in ``TARGETS`` is replaced, in
each loaded ``coxheaps`` module that holds it, by a wrapper that records
one span per call: name, start, end, parent span, operation id, workload
tag and the size of the result.  Calls between modules and inside a module
both go through module globals, so nested calls get spans too.  Spans are
kept in memory; ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module.function -> how to size its result (None: no size recorded)
TARGETS = {
    "coxgraph.load_coxeter_graph": None,
    "words.is_reduced": None,
    "words.normal_form": None,
    "words.multiply": None,
    "words.conjugate": None,
    "words.reduced_words": len,
    "words.commutativity_classes": len,
    "cyclic.is_cyclically_reduced_element": None,
    "cyclic.toric_reduction_witness": None,
    "cyclic.cyclic_decomposition": lambda classes: sum(map(len, classes)),
    "cyclic.toric_heap_of_word": None,
    "cyclic.ltor": len,
    "classifier.classify": None,
    "classifier.is_cfc": None,
    "heaps.heap_of_word": None,
    "heaps.hasse_edges": len,
    "heaps.linear_extensions": len,
    "toric.toric_class": len,
    "toric.toric_classes": len,
    "toric.all_acyclic_orientations": len,
    "toric.total_toric_extensions": len,
    "toric.toric_hasse": None,
    "toric.toric_transitive_closure": None,
    "toric.tutte": None,
    "cli.main": None,
}

NAME, START, END, PARENT, OP, WORKLOAD, OUTERMOST, SIZE = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.workload = None
        self.op_id = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, size):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, self.workload,
                   active[name] == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                active[name] -= 1
            if size is not None:
                rec[SIZE] = size(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target, size in TARGETS.items():
            module_name, fn_name = target.split(".")
            module = importlib.import_module(f"coxheaps.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, size)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "coxheaps":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per (workload, function): calls, busy time (outermost spans),
        self time (duration minus direct children) and summed result size."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict = {}
        for sid, rec in enumerate(self.spans):
            row = out.setdefault((rec[WORKLOAD], rec[NAME]), {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0})
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["self_s"] += dur - child[sid]
            if rec[OUTERMOST]:
                row["busy_s"] += dur
            if rec[SIZE] is not None:
                row["size"] += rec[SIZE]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "workload", "outermost", "size"],
                       "spans": self.spans}, fh)
