"""gsvkit: exact indices of holomorphic foliations along complete-intersection curves."""

from .cherncalc import (
    ChernVector,
    GradedElement,
    GradedRing,
    chern_difference_expansion,
    chern_difference_inversion,
    chern_difference_recursion,
    elementary_symmetric,
    inverse_total_class,
    total_gsv_integral_projective,
)
from .indices import (
    CurveGerm,
    HMatrix,
    LocalIndexReport,
    VectorFieldGerm,
    greuel_tjurina,
    gsv_bounds_nondegenerate,
    gsv_from_rho,
    invariance_certificate,
    local_gsv_curve,
    local_indices,
    milnor_curve,
    published_bound_table,
    nondegenerate_bound_constants,
)
from .localring import (
    IdealGens,
    check_membership,
    membership_with_cofactors,
    quotient_dim,
    quotient_dim_macaulay,
)
from .poly import Polynomial, jacobian_minors, parse_polynomial
from .projective import (
    PointOnChart,
    ProjectiveCI,
    ProjectiveFoliation,
    closed_form_gsv,
    dehomogenize_ci,
    dehomogenize_foliation,
    euler_characteristic_curve,
    poincare_degree_bound,
    soares_plane_bound,
    milnor_degree_bound,
    total_gsv_certified,
    total_indices_certified,
)

__version__ = "0.1.0"
