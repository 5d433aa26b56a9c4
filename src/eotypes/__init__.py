"""Exact computation of Ekedahl-Oort types of complete intersection curves
over finite fields, through Hasse-Witt triples and polarized Dieudonne
modules."""

from .errors import (ConstraintError, EotypesError, InternalInvariantError,
                     PolyParseError, SingularCurveError)
from .gf import GF, FieldElem, field_new
from .polyring import (GradedPoly, MonomialBasis, TClass, coeff_of, gather,
                       monomial_basis, partial_derivative, poly_mul, poly_pow,
                       t_multiply, tmul_matrix)
from .semilinear import (Subspace, TwistedMap, null_space, rank, rref,
                         solve_matrix, standard_gram, symplectic_perp,
                         twisted_image, twisted_kernel, twisted_preimage)
from .hwtriple import (CurveCI, HWTriple, genus, hasse_witt_matrix, hw_triple,
                       plane_curve, plane_smoothness_check, psi_matrix,
                       theta_apply)
from .dieudonne import (KraftWord, PolarizedDM, assemble_dm, dm_to_hw,
                        enumerate_polarized_dms, full_fv_matrices,
                        random_hw_triple, standard_module, validate_dm,
                        validate_unpolarized)
from .eoclass import (EOResult, FinalType, WeylCoset, classify,
                      final_type_from_AF, final_type_from_FV,
                      final_type_from_weyl, invariants_from_weyl,
                      ordinary_result, stable_rank, superspecial_result,
                      weyl_from_final_type, weyl_word)
from .cli import parse_poly

__version__ = "0.1.0"
