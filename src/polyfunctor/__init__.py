"""Exact computation with finite-degree polynomial functors.

Graded polynomial algebra over the rationals or a prime field, Hasse
directional calculus in arbitrary characteristic, polynomial-functor
decomposition with explicit induced maps and the shift construction, and the
elimination pipeline producing closed-embedding certificates, all in exact
arithmetic.
"""

from .errors import (
    AlgebraError,
    BadDirectionChoiceError,
    BudgetExceededError,
    CertificateNotFoundError,
    CharacteristicError,
    DirectionError,
    FieldMismatchError,
    InternalCheckError,
    ParseError,
    PresentationError,
    RingMismatchError,
    SubstitutionError,
)
from .fields import FieldDescriptor, lucas_binomial
from .rings import (
    GradedPoly,
    GradedRing,
    RingVariable,
    Vector,
)
from .parsing import parse_polynomial, polynomial_variable_names
from .groebner import Budget, membership_by_division, reduce_poly
from .hasse import (
    DirectionSubspace,
    DirectionalData,
    directional_data,
    hasse_derivative,
    joint_additivity_holds,
    joint_scaling_holds,
    specialise_joint,
    taylor_expand,
)
from .matrices import LinearMapMatrix, identity_matrix, space_matrix
from .functors import (
    ConstF,
    ExtF,
    FunctorExpr,
    HomDecomposition,
    IdF,
    QuotF,
    ShiftF,
    ShiftMaps,
    SumF,
    SymF,
    TenAltF,
    TenSymF,
    TensorF,
    basis_labels,
    compare_order,
    decompose,
    dim,
    dim_polynomial,
    format_functor,
    induced_map,
    normalize,
    parse_functor,
    shift_maps,
    split_tensor_square,
)
from .proofstep import (
    AffineAdditiveElement,
    CoordinateModel,
    DeltaReport,
    EliminationCertificate,
    VarietyPresentation,
    delta_degree,
    derivative_step,
    eliminate,
    extract_additive_element,
    projection_coefficients,
    run_proofstep,
    run_rank_one_example,
    usable_directions,
)

__version__ = "0.1.0"
