"""Exact computation of Jacobian syzygies, Tjurina numbers and the free /
nearly free classification of reduced plane curves, together with
line-arrangement combinatorics, pencil constructions and discriminants.

All arithmetic is exact: rationals or prime fields GF(p), deg f < p < 2^31
(int64 residues in numpy).  Rational results are computed by a voting
modular backend and cross-checked; nothing in this package ever touches
floating point.
"""

from .arrangements import (IntersectionLattice, LatticePoint, LineArrangement,
                           ProjLine, cone_construction, exponent_gap_check,
                           faenzi_valles_check, lattice_isomorphic,
                           multiplicity_bound_check, parse_arrangement_file,
                           arrangement_to_file, point_syzygy,
                           tau_combinatorial, trichotomy)
from .backend import Backend, BackendDisagreement, make_backend
from .fields import QQ, Field, FieldError, PrimeField, parse_field_tag, \
    random_primes
from .fixtures import FIXTURES, Fixture, fixture_names, get_fixture
from .pencils import (DiscriminantForm, PencilProductSpec, PencilSpec,
                      build_member, build_product, discriminant,
                      genericity_check, lemma2_syzygy, macaulay_resultant,
                      thm11_trichotomy, thm13_trichotomy, thmPEN_classify,
                      total_mu_check, wedge_syzygy)
from .poly import HomogPoly, ParseError, poly_parse
from .suite import run_suite
from .syzygy import SyzygyTriple, ar_dimension, ar_slice, is_cone, \
    is_primitive, mdr, verify_syzygy
from .tangent import (TangentConeSpec, TangentValidationError,
                      cuspidal_cubic, find_tangent_instance, nodal_cubic,
                      tangent_arrangement)
from .tjurina import (FreenessReport, InconsistencyError, classify,
                      dpw_bounds, global_tjurina, thmF_gate)
from .uni import UniPoly

__version__ = "0.1.0"

__all__ = [
    "Backend", "BackendDisagreement", "DiscriminantForm", "FIXTURES",
    "Field", "FieldError", "Fixture", "FreenessReport", "HomogPoly",
    "InconsistencyError", "IntersectionLattice", "LatticePoint",
    "LineArrangement", "ParseError", "PencilProductSpec", "PencilSpec",
    "PrimeField", "ProjLine", "QQ", "SyzygyTriple", "TangentConeSpec",
    "TangentValidationError", "UniPoly", "ar_dimension",
    "arrangement_to_file", "build_member", "build_product", "classify",
    "cone_construction", "cuspidal_cubic", "discriminant", "dpw_bounds",
    "exponent_gap_check", "faenzi_valles_check", "find_tangent_instance",
    "fixture_names", "genericity_check", "get_fixture", "global_tjurina",
    "is_primitive", "lattice_isomorphic", "lemma2_syzygy",
    "macaulay_resultant", "make_backend", "mdr", "multiplicity_bound_check",
    "nodal_cubic", "parse_arrangement_file", "parse_field_tag",
    "point_syzygy", "poly_parse", "random_primes", "run_suite",
    "ar_slice", "is_cone", "tangent_arrangement", "tau_combinatorial",
    "thm11_trichotomy", "thm13_trichotomy", "thmF_gate", "thmPEN_classify",
    "total_mu_check", "trichotomy", "verify_syzygy", "wedge_syzygy",
]
