"""dwork_forge: exact-arithmetic verification of hypergeometric Frobenius
data on the Dwork family, the rank-one Breuil module extension calculus, and
constructive finite unitary group normalization."""

from .cyclotomic import CyclotomicInt, ExactDivisionFailed, conj, embed_complex
from .ff import (FFElem, FieldDesc, IncompatibleFields, InvalidDegree,
                 NNotDividingQMinus1, NotPrime, TooLarge, char_value,
                 extension_of, field_make, norm_to_subfield)
from .hypergeom import (CharPolyRecord, HGParams, NoSumZeroSet, char_poly,
                        newton_polygon, select_chi, trace_all_fast, trace_at,
                        trace_naive, verify_det, verify_purity)
from .lambda_adic import (LambdaPrime, lambda_prime, reduce_mod_lambda,
                          val_lambda)
from .ordinarity import (OrdinaryTest, build_ordinary_test, exponents_c,
                         lucas_check, ordinary_locus, u_poly, unit_root_check,
                         verify_norm_identity)

__version__ = "0.1.0"
