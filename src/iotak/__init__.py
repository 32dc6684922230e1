"""Exact algebra of involutive knot Floer complexes over F2[U,V,U^-1,V^-1]."""

from .ring import LaurentPoly, monomial
from .complexes import (
    BasisElement,
    FreeComplex,
    Morphism,
    SliceHomologyReport,
    homotopy_solve,
    tensor,
    dual,
    verify_complex,
)
from .iota import (
    IotaComplex,
    build_phi,
    build_psi,
    dual_iota,
    identity_complex,
    inverse_witnesses,
    phi_squared_homotopy,
    product,
    search_local_equivalence,
    verify_iota_complex,
    verify_local_equivalence,
)
from .invariants import (
    HomologyDecomp,
    InvariantReport,
    UTowerComplex,
    a_zero_minus,
    homology_snf,
    involutive_cone,
    involutive_invariants,
    lemma_criteria_oracle,
    obstruction_pattern,
)
from .models import Staircase, mirror, staircase_complex, torus_knot, unknot_complex

__version__ = "0.1.0"
