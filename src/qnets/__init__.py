"""Exact rational kernel for Q-nets in projective space.

Laplace transformations and their iteration, Laplace invariants and their
Y-system recurrence, the two Koenigs-net conditions, extensive lifts and
the alternating-hyperplane quadric, and boundary-data constructions of
nets with terminating Laplace sequences.
"""

from .errors import (
    ConstructionError,
    DegenerateIntersectionError,
    DimensionMismatchError,
    ExistenceError,
    GeneralPositionError,
    GeometryError,
    InvariantError,
    NetFileError,
    NotBSKoenigsError,
    ProjectionUndefinedError,
    QnetsError,
    RecurrenceSingularError,
    UndefinedCrossRatioError,
)
from .projective import (
    INFINITY,
    HPoint,
    Projector,
    Quadric,
    Scalar,
    Subspace,
    central_projection,
    cross_ratio,
    is_conjugate,
    join,
    meet,
    multi_ratio,
    polar,
    singular_locus,
    span,
)
from .qnet import (
    DegeneracyReport,
    GridDomain,
    QNet,
    TerminationReport,
    check_extensive,
    check_extensive_sub,
    check_nondegenerate,
    classify_degeneracy,
    column_space_meet,
    diagonal_intersection_net,
    explicit_laplace,
    laplace_backward,
    laplace_forward,
    laplace_iterate,
    parameter_space,
    validate_qnet,
)
from .invariants import (
    InvariantField,
    hk_shift_check,
    invariant_symmetry_check,
    is_bs_koenigs,
    is_d_koenigs,
    laplace_invariants,
    recurrence_step,
    recurrence_step_backward,
    recurrence_step_from_k,
    six_point_conic_check,
)
from .lifts import (
    HyperplanePair,
    LiftResult,
    embed_and_lift,
    koenigs_hyperplanes,
    lift,
    quadric_conjugacy_check,
    singular_point_checks,
)
from .construct import (
    PartialNet,
    affine_grid,
    bs_goursat_net,
    bs_laplace_degenerate_m1,
    construct_double_degenerate,
    double_degenerate_boundary,
    extend_bs_koenigs,
    extend_laplace_degenerate,
    laplace_degenerate_boundary,
    random_bs_koenigs,
    random_bs_strips,
    random_goursat_net,
    random_laplace_degenerate_net,
    random_qnet,
)

__all__ = [name for name in dir() if not name.startswith("_")]
