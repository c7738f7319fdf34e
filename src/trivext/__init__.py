"""Trivial extensions of quiver algebras, their extended quivers, and
machine-checkable certificates of infinite Hochschild homology dimension."""

from .algebra import (AdmissibilityError, AlgebraBuildError, FDAlgebra,
                      SelfinjectivityCertificate, SelfinjectivityRefusal,
                      arrows_of, build_algebra, is_local, is_selfinjective,
                      left_socle_in_bimodule_socle, loewy_length, quiver_of,
                      radical_power, selfinjectivity, socles)
from .criteria import (GradedCartanData, TruncatedCycleCertificate, Verdict,
                       cartan_criterion, find_two_truncated_cycle, graded_cartan,
                       hhdim_verdict, trivial_extension_determinant_shape,
                       verify_cycle_certificate, zero_composition_graph)
from .dsl import (DSLError, Presentation, RelationExpr, parse_presentation,
                  serialize_presentation)
from .hochschild import HHReport, hh_dims
from .linalg import (GF, QQ, Echelon, FieldMismatchError, GroundField,
                     IntPolynomial, poly_det, row_reduce)
from .quiver import Arrow, CompositionError, Path, Quiver, compose
# the function `trivial_extension` is not re-exported, so that the attribute
# `trivext.trivial_extension` stays the module of that name
from .trivial_extension import (RelationSet, TrivialExtensionData,
                                check_new_products_vanish, extended_quiver,
                                relations_up_to)

__version__ = "0.1.0"
