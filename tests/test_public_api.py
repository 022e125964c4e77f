"""The package's export list matches the names it binds, and each name
loads on first use through the package's module __getattr__ (PEP 562).  No
module of the package imports a name it never uses, checked with the
standard library's ast parser."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import dualinv

import support

SOURCES = sorted(Path(dualinv.__file__).parent.glob("*.py"))

# The exported names, sorted.  A change to the public API edits this list.
PUBLIC_API = [
    "CoreNilpotentDecomposition",
    "DimensionError",
    "DoesNotExist",
    "DualBlockDecompositionInd1",
    "DualIndexProfile",
    "DualMatrix",
    "ExistenceProfile",
    "Inconsistent",
    "InconsistentDualPart",
    "InconsistentStandardPart",
    "IndexTooLarge",
    "InternalInvariantViolation",
    "NotInvertible",
    "ParametricDualSolutions",
    "ParseError",
    "RealMatrix",
    "ResultDocument",
    "VerificationReport",
    "block2x2",
    "block_diagonalize_ind1",
    "column_space_contains",
    "core_nilpotent",
    "ddi",
    "ddi_obstruction",
    "dgi",
    "doubled",
    "drazin",
    "dual_inverse",
    "dual_power",
    "dual_vstack",
    "existence_profile",
    "group_inverse",
    "hstack",
    "index",
    "index_profile",
    "inverse",
    "matrix_to_document",
    "moore_penrose",
    "nullspace",
    "parse_matrix",
    "print_matrix",
    "rank",
    "rank_profile",
    "rref",
    "solve_general",
    "solve_restricted",
    "verify",
    "vstack",
    "wddi",
    "wdgi",
]


def test_the_export_list_is_the_pinned_one():
    assert sorted(dualinv.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    assert [name for name in dualinv.__all__ if not hasattr(dualinv, name)] == []
    assert len(dualinv.__all__) == len(set(dualinv.__all__))


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(dualinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(dualinv.__all__)) == []


@pytest.mark.parametrize("name", dualinv.__all__)
def test_each_name_resolves_through_the_lazy_getattr(name):
    value = dualinv.__getattr__(name)
    home = importlib.import_module(f"dualinv.{dualinv._MODULE_OF[name]}")
    assert value is getattr(home, name)
    # the resolved name is kept in the package namespace
    assert vars(dualinv)[name] is value
    assert getattr(dualinv, name) is value


# Names the package no longer binds: test-only second routes now kept in
# tests/support.py, and sharp_of_weak_group, which was
# block_diagonalize_ind1(a).sharp() under another name.
MOVED_TO_SUPPORT = [
    "PreconditionViolated",
    "block_diag",
    "dual_block_diag",
    "is_dual_nilpotent",
    "solve_ind1_corollaries",
    "wddi_from_given_decomposition",
]
REMOVED = sorted(MOVED_TO_SUPPORT + ["sharp_of_weak_group"])


@pytest.mark.parametrize("name", REMOVED)
def test_a_removed_name_is_bound_nowhere_in_the_package(name):
    assert name not in dualinv.__all__
    assert name not in dualinv._MODULE_OF
    assert not hasattr(dualinv, name)
    for path in SOURCES:
        if path.stem != "__init__":
            module = importlib.import_module(f"dualinv.{path.stem}")
            assert not hasattr(module, name), path.name
    assert hasattr(support, name) == (name in MOVED_TO_SUPPORT)


def test_dir_covers_every_exported_name():
    assert sorted(set(dualinv.__all__) - set(dir(dualinv))) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dualinv.no_such_name
    assert not hasattr(dualinv, "no_such_name")
    with pytest.raises(ImportError):
        from dualinv import no_such_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace = {}
    exec("from dualinv import *", namespace)
    assert sorted(set(dualinv.__all__) - set(namespace)) == []
    assert all(namespace[name] is getattr(dualinv, name) for name in dualinv.__all__)


def _imported_and_used(tree: ast.Module) -> tuple[dict[str, int], set[str]]:
    """(bound name -> line of its import, names the module reads), where a
    name inside a string annotation counts as read."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    expr = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return imported, used


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_a_name_it_never_uses(path):
    imported, used = _imported_and_used(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
