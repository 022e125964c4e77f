"""Exact generalized inverses of dual matrices over the rationals.

A dual matrix is M + eps*M0 with eps*eps = 0.  This package computes the
classical Drazin machinery for the standard part, the dual Drazin and dual
group inverses when they exist, their always-existing weak variants, the
rank and index invariants that govern existence, and parametric solution
families for dual linear systems.  Everything runs in exact rational
arithmetic; results are equalities, not approximations.
"""

from .exceptions import (
    DimensionError,
    DoesNotExist,
    Inconsistent,
    InconsistentDualPart,
    InconsistentStandardPart,
    IndexTooLarge,
    InternalInvariantViolation,
    NotInvertible,
    ParseError,
    PreconditionViolated,
)
from .matrices import (
    DualMatrix,
    RealMatrix,
    block2x2,
    block_diag,
    dual_block_diag,
    dual_power,
    dual_vstack,
    hstack,
    vstack,
)
from .elimination import (
    column_space_contains,
    inverse,
    nullspace,
    rank,
    rref,
    solve,
)
from .real_inverses import (
    CoreNilpotentDecomposition,
    core_nilpotent,
    drazin,
    group_inverse,
    index,
    moore_penrose,
)
from .dual_linear import (
    DualAffineSet,
    ParametricDualSolutions,
    doubled,
    dual_inverse,
    dual_solve,
    in_range,
    stack_vector,
    unstack_vector,
)
from .indices import DualIndexProfile, index_profile, rank_profile
from .dual_inverses import (
    ExistenceProfile,
    VerificationReport,
    ddi,
    ddi_obstruction,
    dgi,
    existence_profile,
    verify,
    wddi,
    wdgi,
)
from .block_decomposition import (
    DualBlockDecompositionInd1,
    block_diagonalize_ind1,
    is_dual_nilpotent,
    sharp_of_weak_group,
    wddi_from_given_decomposition,
)
from .equation_solvers import (
    solve_general,
    solve_ind1_corollaries,
    solve_restricted,
)
from .documents import (
    ResultDocument,
    matrix_to_document,
    parse_matrix,
    print_matrix,
)

__all__ = [
    "DimensionError",
    "DoesNotExist",
    "Inconsistent",
    "InconsistentDualPart",
    "InconsistentStandardPart",
    "IndexTooLarge",
    "InternalInvariantViolation",
    "NotInvertible",
    "ParseError",
    "PreconditionViolated",
    "DualMatrix",
    "RealMatrix",
    "block2x2",
    "block_diag",
    "dual_block_diag",
    "dual_power",
    "dual_vstack",
    "hstack",
    "vstack",
    "column_space_contains",
    "inverse",
    "nullspace",
    "rank",
    "rref",
    "solve",
    "CoreNilpotentDecomposition",
    "core_nilpotent",
    "drazin",
    "group_inverse",
    "index",
    "moore_penrose",
    "DualAffineSet",
    "ParametricDualSolutions",
    "doubled",
    "dual_inverse",
    "dual_solve",
    "in_range",
    "stack_vector",
    "unstack_vector",
    "DualIndexProfile",
    "index_profile",
    "rank_profile",
    "ExistenceProfile",
    "VerificationReport",
    "ddi",
    "ddi_obstruction",
    "dgi",
    "existence_profile",
    "verify",
    "wddi",
    "wdgi",
    "DualBlockDecompositionInd1",
    "block_diagonalize_ind1",
    "is_dual_nilpotent",
    "sharp_of_weak_group",
    "wddi_from_given_decomposition",
    "solve_general",
    "solve_ind1_corollaries",
    "solve_restricted",
    "ResultDocument",
    "matrix_to_document",
    "parse_matrix",
    "print_matrix",
]

__version__ = "0.1.0"
