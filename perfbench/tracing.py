"""Spans and counters around the calls into each layer of iotak.

The tracer rebinds every module attribute of iotak that refers to a
traced function (so `complexes.compose`, `iota.compose` and the package
re-export are all wrapped) and patches a few hot methods with bare
counters. Spans hold name, start, end, parent and item id; they stay in
memory until the run writes them out. Size counters are computed from
the arguments and results at the boundary, after the span has closed.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _nnz(m) -> int:
    return sum(len(row) for row in m.entries.values())


# per traced function: "module.function" -> size counters from (args, result)
SIZERS: Dict[str, Callable[[tuple, object], Dict[str, float]]] = {
    "invariants.homology_snf": lambda a, r: {
        "gens": len(a[0]),
        "nnz": sum(len(row) for row in a[0].diff.values()),
        "pivots": (len(a[0]) - len(r.free)) // 2,
        "torsion": len(r.torsion),
    },
    "invariants.lemma_criteria_oracle": None,
    "invariants.a_zero_minus": None,
    "invariants.involutive_cone": None,
    "gf2.nullspace": lambda a, r: {"cells": len(a[0]) * a[1], "dim": len(r)},
    "gf2.solve": lambda a, r: {"cells": len(a[0]) * a[2], "infeasible": r is None},
    "complexes.compose": lambda a, r: {"nnz": _nnz(a[0]) + _nnz(a[1])},
    "complexes.tensor": lambda a, r: {"gens": len(r)},
    "complexes.tensor_morphism": None,
    "complexes.is_chain_map": None,
    "complexes.homology_class_map": lambda a, r: {
        "slice_gens": sum(1 for x in a[0].source.basis if x.gr_u % 2 == 0)},
    "complexes.homotopy_solve": lambda a, r: {"feasible": r is not None},
    "complexes.verify_complex": None,
    "iota.product": lambda a, r: {"gens": len(r.complex)},
    "iota.dual_iota": None,
    "iota.verify_iota_complex": None,
    "iota.inverse_witnesses": None,
    "iota.search_local_equivalence": None,
    "serialize.load": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "serialize.save": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "models.torus_knot": None,
    "cli.main": None,
}

# reported per function besides calls and self_s; ratios are derived below
REPORTED_SIZES = {
    "invariants.homology_snf": ("gens", "nnz", "pivots", "torsion"),
    "gf2.nullspace": ("cells", "dim"),
    "gf2.solve": ("cells", "infeasible"),
    "complexes.compose": ("nnz",),
    "complexes.tensor": ("gens",),
    "complexes.homology_class_map": ("slice_gens",),
    "iota.product": ("gens",),
    "serialize.load": ("bytes",),
    "serialize.save": ("bytes",),
}

# patched methods that are counted but get no span: they run millions of
# times per pass
COUNTED_METHODS = {
    "ring.LaurentPoly.built": ("ring", "LaurentPoly", "__init__"),
    "ring.LaurentPoly.mul": ("ring", "LaurentPoly", "__mul__"),
    "ring.LaurentPoly.add": ("ring", "LaurentPoly", "__add__"),
}


class Tracer:
    """Install with install(), run the traced pass, then uninstall()."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # span: [name, start, end, parent index, item id, exception name]
        self.spans: List[list] = []
        self.sizes: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.item = "setup"
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        self._counts = {name: itertools.count() for name in COUNTED_METHODS}
        self._row_adds = itertools.count()
        self._row_useful = itertools.count()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "iotak" or name.startswith("iotak."))]
        for qualname, sizer in SIZERS.items():
            mod_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"iotak.{mod_name}"], func_name)
            wrapper = self._wrap(qualname, original, sizer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        for qualname, (mod_name, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[f"iotak.{mod_name}"], cls_name)
            self._rebind(cls, meth, self._counted(getattr(cls, meth), self._counts[qualname]))
        row_basis = sys.modules["iotak.gf2"].RowBasis
        self._rebind(row_basis, "add", self._counted_add(row_basis.add))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        # next() on an itertools.count returns how often it was called before
        self.counts = {name: next(c) for name, c in self._counts.items()}
        self.counts["gf2.RowBasis.adds"] = next(self._row_adds)
        self.counts["gf2.RowBasis.useful"] = next(self._row_useful)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _counted(method, counter):
        def counted(*args, **kwargs):
            next(counter)
            return method(*args, **kwargs)
        return counted

    def _counted_add(self, method):
        adds, useful = self._row_adds, self._row_useful

        def add(basis, vec):
            next(adds)
            grew = method(basis, vec)
            if grew:
                next(useful)
            return grew
        return add

    def _wrap(self, qualname: str, func, sizer):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = type(exc).__name__
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if sizer is not None:
                for key, value in sizer(args, result).items():
                    sizes[qualname][key] += value
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, every name present even when it is zero.
        Call after uninstall()."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        solves = cap_exceeded = 0
        for own, (name, _, _, parent, _, exc) in zip(self._self_times(), self.spans):
            calls[name] += 1
            self_s[name] += own
            if name == "iota.search_local_equivalence" and exc == "CapExceededError":
                cap_exceeded += 1
            if name == "complexes.homotopy_solve" and self._has_ancestor(
                    parent, "iota.search_local_equivalence"):
                solves += 1

        out: Dict[str, float] = {}
        for qualname in SIZERS:
            out[f"{qualname}.calls"] = calls[qualname]
            out[f"{qualname}.self_s"] = self_s[qualname]
            for key in REPORTED_SIZES.get(qualname, ()):
                out[f"{qualname}.{key}"] = self.sizes[qualname][key]
        feasible = self.sizes["complexes.homotopy_solve"]["feasible"]
        n_solve = calls["complexes.homotopy_solve"]
        out["complexes.homotopy_solve.feasible_ratio"] = feasible / n_solve if n_solve else 0.0
        out["iota.search_local_equivalence.solves"] = solves
        out["iota.search_local_equivalence.cap_exceeded"] = cap_exceeded
        adds, useful = self.counts["gf2.RowBasis.adds"], self.counts["gf2.RowBasis.useful"]
        out["gf2.RowBasis.adds"] = adds
        out["gf2.RowBasis.useful_ratio"] = useful / adds if adds else 0.0
        for qualname in COUNTED_METHODS:
            out[qualname] = self.counts[qualname]
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def largest_self(self, item: Optional[str] = None) -> str:
        """The traced function with the most self time, within one item."""
        totals: Dict[str, float] = defaultdict(float)
        for own, (name, _, _, _, span_item, _) in zip(self._self_times(), self.spans):
            if item is None or span_item == item:
                totals[name] += own
        return max(totals, key=totals.get) if totals else ""

    def _self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["fields"] = ["name", "start", "end", "parent", "item", "exception"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
