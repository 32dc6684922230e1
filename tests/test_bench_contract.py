"""The names the benchmark's tracer wraps and counts exist in iotak.

perfbench/tracing.py rebinds functions by module attribute, patches a
few methods, reads every Morphism.entries row with len(), and sizes
homology_snf from its tower's diff rows (len() again) and its result.
A refactor of src/ that renames one of them, or changes those rows so
that len() no longer counts entries, breaks the traced benchmark run
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from iotak.complexes import identity_morphism
from iotak.invariants import a_zero_minus, homology_snf
from iotak.iota import product
from iotak.models import torus_knot

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for qualname in tracing.SIZERS:
        mod_name, func_name = qualname.split(".")
        module = importlib.import_module(f"iotak.{mod_name}")
        assert callable(getattr(module, func_name, None)), qualname
    for qualname, (mod_name, cls_name, meth) in tracing.COUNTED_METHODS.items():
        cls = getattr(importlib.import_module(f"iotak.{mod_name}"), cls_name)
        assert callable(getattr(cls, meth, None)), qualname
    assert callable(importlib.import_module("iotak.gf2").RowBasis.add)


def test_nnz_counts_a_morphisms_entries():
    assert _tracing()._nnz(identity_morphism(torus_knot(2, 3).complex)) == 3


def test_homology_snf_sizes_on_a_tower():
    # T(2,3)#T(2,3): 12 entries, W^0 and W^1 pivots, one torsion tower
    t = a_zero_minus(product(torus_knot(2, 3), torus_knot(2, 3)))
    sizes = _tracing().SIZERS["invariants.homology_snf"]((t,), homology_snf(t))
    assert sizes == {"gens": 9, "nnz": 12, "pivots": 4, "torsion": 1}
