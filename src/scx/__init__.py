"""Exact-arithmetic twisted homology toolkit for sutured complexes.

Decides and certifies properties of sutured-manifold chain complexes
(tautness certificates, non-product obstructions, complexity bounds, twisted
polynomial norm bounds) by computing twisted homology of equivariant chain
complexes under representations of finite quotients, entirely over Q, prime
fields and Laurent polynomial rings.
"""

from .algebra import (GF, QQ, LaurentPoly, LaurentRing, Matrix, kernel_basis,
                      pid_homology_order, rank, snf_integers)
from .chain import (BettiVector, CellMap, EquivariantComplex, SubcomplexRef,
                    TwistedComplex, betti, duality_check, euler_check,
                    h0_vanishing_check, induced_map, les_check, specialize,
                    untwisted_homology)
from .groups import (CohomologyClass, FiniteQuotient, GroupPresentation,
                     Representation, check_hom, dagger, enumerate_quotients,
                     eval_word, permutation_representation,
                     regular_representation, trivial_representation)
from .scxio import ScxDocument, parse_scx, serialize_scx
from .sutured import (SuturedComplex, Verdict, certify_taut,
                      complexity_lower_bound, double, nonproduct_search,
                      validate)

__version__ = "0.1.0"
