"""Exact generalized inverses of dual matrices over the rationals.

A dual matrix is M + eps*M0 with eps*eps = 0.  This package computes the
classical Drazin machinery for the standard part, the dual Drazin and dual
group inverses when they exist, their always-existing weak variants, the
rank and index invariants that govern existence, and parametric solution
families for dual linear systems.  Everything runs in exact rational
arithmetic; results are equalities, not approximations.

Names load on first use (PEP 562): ``import dualinv`` imports no submodule,
and ``dualinv.wddi`` imports the modules that define it, then keeps the
name in this module's namespace.
"""

import importlib

# module -> the names it exports, in the order of __all__
_EXPORTS = {
    "exceptions": (
        "DimensionError",
        "DoesNotExist",
        "Inconsistent",
        "InconsistentDualPart",
        "InconsistentStandardPart",
        "IndexTooLarge",
        "InternalInvariantViolation",
        "NotInvertible",
        "ParseError",
    ),
    "matrices": (
        "DualMatrix",
        "RealMatrix",
        "block2x2",
        "dual_power",
        "dual_vstack",
        "hstack",
        "vstack",
    ),
    "elimination": ("column_space_contains", "inverse", "nullspace", "rank", "rref"),
    "real_inverses": (
        "CoreNilpotentDecomposition",
        "core_nilpotent",
        "drazin",
        "group_inverse",
        "index",
        "moore_penrose",
    ),
    "dual_linear": ("ParametricDualSolutions", "doubled", "dual_inverse"),
    "indices": ("DualIndexProfile", "index_profile", "rank_profile"),
    "dual_inverses": (
        "ExistenceProfile",
        "VerificationReport",
        "ddi",
        "ddi_obstruction",
        "dgi",
        "existence_profile",
        "verify",
        "wddi",
        "wdgi",
    ),
    "block_decomposition": (
        "DualBlockDecompositionInd1",
        "block_diagonalize_ind1",
    ),
    "equation_solvers": ("solve_general", "solve_restricted"),
    "documents": ("ResultDocument", "matrix_to_document", "parse_matrix", "print_matrix"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
