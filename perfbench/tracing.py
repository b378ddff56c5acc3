"""Span recording around the package's public calls, and a garbage-collector monitor.

The tracer wraps functions from outside the package: it swaps the module
attribute (and every other module's imported binding of the same object) for a
recording wrapper, and restores the originals on ``uninstall``.  Spans stay in
memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import gc
import json
import sys
import time

# Public calls timed as layers, in pipeline order: (span name, module, attribute).
# A dotted attribute names a method ("Class.method").  ``intlinalg.hnf`` is
# timed through ``GeneratorFamily.hnf``, the family's solver basis; the HNFs
# taken inside canonical solves stay in ``membership_solve``'s self time.
LAYERS = (
    ("group.conjugacy_classes", "group", "conjugacy_classes"),
    ("chartab.character_table", "chartab", "character_table"),
    ("lattice.subgroup_lattice", "lattice", "subgroup_lattice"),
    ("structure.dihedral_subquotients", "structure", "dihedral_subquotients"),
    ("generators.family_for", "generators", "family_for"),
    ("intlinalg.hnf", "generators", "GeneratorFamily.hnf"),
    ("spanreport.span_report", "spanreport", "span_report"),
    ("membership.random_S_element", "membership", "random_S_element"),
    ("membership.membership_solve", "membership", "membership_solve"),
    ("membership.verify_certificate", "membership", "verify_certificate"),
    ("genchar.rho_H", "genchar", "rho_H"),
    ("genchar.determinant", "genchar", "determinant"),
    ("genchar.induce", "genchar", "induce"),
    ("genchar.restrict", "genchar", "restrict"),
    ("decompose.decompose_structural", "decompose", "decompose_structural"),
    ("decompose.flatten_to_certificate", "decompose", "flatten_to_certificate"),
    ("parity.parity_table", "parity", "parity_table"),
)

ITEM = "item"


class Tracer:
    """Records (id, name, start, end, parent, item) for every wrapped call."""

    def __init__(self, package: str):
        self.package = package
        self.spans = []
        self.item_id = None
        self._stack = [0]
        self._next_id = 1
        self._patches = []

    # ------------------------------------------------------------- recording

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.item_id))

    def begin_item(self, item_id):
        self.item_id = item_id
        return self._open() + (time.perf_counter(),)

    def end_item(self, token):
        span_id, parent, start = token
        self._close(span_id, parent, ITEM, start)
        self.item_id = None

    def _wrap(self, name, func):
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)

        traced.__wrapped__ = func
        return traced

    def span_cost(self, calls=20000):
        """Seconds a wrapped call adds over a plain call, measured on an empty function."""

        def empty():
            return None

        wrapped = Tracer(self.package)._wrap("calibration", empty)
        start = time.perf_counter()
        for _ in range(calls):
            empty()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max((time.perf_counter() - start - plain) / calls, 0.0)

    # -------------------------------------------------------------- patching

    def install(self):
        if self._patches:
            return
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for name, module_name, attr in LAYERS:
            owner = sys.modules["%s.%s" % (self.package, module_name)]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, target, key, original, wrapper):
        setattr(target, key, wrapper)
        self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    # --------------------------------------------------------------- results

    @staticmethod
    def self_times(spans):
        """Per span name: [calls, self seconds], for a complete run of spans."""
        child_time = {}
        for span_id, _name, start, end, parent, _item in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, name, start, end, _parent, _item in spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time.get(span_id, 0.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, item in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "item": item},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class GcMonitor:
    """Counts collections and their pause time while switched on."""

    def __init__(self):
        self.on = False
        self.collections = 0
        self.pause_s = 0.0
        self._started = None
        gc.callbacks.append(self._callback)

    def _callback(self, phase, _info):
        if not self.on:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def close(self):
        gc.callbacks.remove(self._callback)
