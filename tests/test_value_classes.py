"""The package's value classes: structural equality, hash and repr, and
the checks their constructors make.

Each class is built from the same field values twice, by keyword and by
position; the two are equal and hash-equal, and the repr names every field
in order, as Name(field=value, ...).  Changing one field makes them unequal.
A class that binds its fields in the shared base constructor raises a
TypeError naming them, in order, for a field too many, missing, unknown or
given twice.
DualAffineSet, the doubled-system reference in ``support``, is built on the
same base class and checked the same way.
"""

import weakref

import pytest

from dualinv import (
    CoreNilpotentDecomposition,
    DimensionError,
    DualBlockDecompositionInd1,
    DualIndexProfile,
    DualMatrix,
    ExistenceProfile,
    InternalInvariantViolation,
    ParametricDualSolutions,
    RealMatrix,
    ResultDocument,
    VerificationReport,
    block_diagonalize_ind1,
)
from support import DualAffineSet

A = DualMatrix.of([[1, 2], [0, 0]], [[0, 1], [1, 0]])
B = DualMatrix.of([[1, 2], [0, 0]], [[0, 1], [1, 1]])
I2 = RealMatrix.identity(2)
FORM = block_diagonalize_ind1(A)
FORM_FIELDS = ("phat", "chat", "nhat", "r", "phat_inv", "chat_inv")

# class -> (field values in order, one field name and a different value for it)
CASES = {
    "DualMatrix": (DualMatrix, {"std": A.std, "dual": A.dual}, ("dual", B.dual)),
    "CoreNilpotentDecomposition": (
        CoreNilpotentDecomposition,
        {
            "p": I2,
            "p_inv": I2,
            "c": RealMatrix.from_rows([[3]]),
            "n": RealMatrix.zeros(1, 1),
            "r": 1,
            "k": 1,
            "c_inv": RealMatrix.from_rows([["1/3"]]),
        },
        ("k", 2),
    ),
    "DualBlockDecompositionInd1": (
        DualBlockDecompositionInd1,
        {name: getattr(FORM, name) for name in FORM_FIELDS},
        ("chat", DualMatrix.of([[7]], [[0]])),
    ),
    "DualIndexProfile": (
        DualIndexProfile,
        {"arank": 1, "drank": 2, "aind": 1, "dind": 1},
        ("dind", 2),
    ),
    "ExistenceProfile": (
        ExistenceProfile,
        {
            "ddi_exists": True,
            "index_equality": True,
            "rank_equality": True,
            "obstruction": RealMatrix.zeros(2, 2),
        },
        ("obstruction", RealMatrix.zeros(3, 3)),
    ),
    "VerificationReport": (
        VerificationReport,
        {
            "kind": "group",
            "exponent": 1,
            "equations": (("A X A^1 = A^1", True), ("X A X = X", False)),
            "all_hold": False,
        },
        ("kind", "wdgi"),
    ),
    "ParametricDualSolutions": (
        ParametricDualSolutions,
        {"particular": A, "generators": (A, B)},
        ("generators", (A,)),
    ),
    "DualAffineSet": (
        DualAffineSet,
        {"point": RealMatrix.zeros(4, 1), "span": I2},
        ("span", RealMatrix.zeros(2, 0)),
    ),
    "ResultDocument": (
        ResultDocument,
        {
            "status": "ok",
            "operation": "info",
            "inputs": ({"path": "a.json", "sha256": "00"},),
            "payload": {"rows": 2},
        },
        ("payload", {"rows": 3}),
    ),
}

UNHASHABLE = {"ResultDocument"}  # its inputs and payload hold dicts
OWN_CONSTRUCTOR = {"DualMatrix"}  # the rest bind their fields in _Value

# a wrong set of fields -> the arguments that give it, from a CASES entry's fields
BAD_FIELD_SETS = {
    "one value too many": lambda fields: ((*fields.values(), None), {}),
    "a missing field": lambda fields: ((), dict(list(fields.items())[:-1])),
    "an unknown name": lambda fields: ((), {**fields, "unknown": None}),
    "by position and by name": lambda fields: ((next(iter(fields.values())),), fields),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_make_equal_values(name):
    cls, fields, _ = CASES[name]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    for field, value in fields.items():
        assert getattr(by_keyword, field) is value
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_different_field_makes_unequal_values(name):
    cls, fields, (field, other) = CASES[name]
    changed = cls(**{**fields, field: other})
    assert changed != cls(**fields)
    assert getattr(changed, field) is other


@pytest.mark.parametrize("name", sorted(CASES))
def test_values_of_another_type_are_unequal(name):
    cls, fields, _ = CASES[name]
    value = cls(**fields)
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert value != tuple(fields.values())
    assert value != object()


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_names_every_field_in_order(name):
    cls, fields, _ = CASES[name]
    body = ", ".join(f"{field}={value!r}" for field, value in fields.items())
    assert repr(cls(**fields)) == f"{name}({body})"


@pytest.mark.parametrize("problem", list(BAD_FIELD_SETS))
@pytest.mark.parametrize("name", sorted(set(CASES) - OWN_CONSTRUCTOR))
def test_a_bad_field_set_raises_a_type_error_naming_the_fields(name, problem):
    cls, fields, _ = CASES[name]
    values, named = BAD_FIELD_SETS[problem](fields)
    with pytest.raises(TypeError) as raised:
        cls(*values, **named)
    assert str(raised.value) == f"{name} takes the fields ({', '.join(fields)})"


def test_dual_matrix_parts_must_share_a_shape():
    with pytest.raises(DimensionError):
        DualMatrix(RealMatrix.zeros(1, 2), RealMatrix.zeros(2, 1))
    with pytest.raises(DimensionError):
        DualMatrix(RealMatrix.zeros(2, 2), RealMatrix.zeros(2, 3))


def test_dual_matrix_is_weak_referenceable():
    a = DualMatrix.of([[1]], [[2]])
    assert weakref.ref(a)() is a


@pytest.mark.parametrize(
    "values",
    [
        (2, 1, 1, 1),  # dual rank below appreciable rank
        (1, 1, 2, 1),  # dind below aind
        (1, 1, 1, 3),  # dind above 2*aind
    ],
)
def test_index_profile_checks_its_invariants(values):
    with pytest.raises(InternalInvariantViolation):
        DualIndexProfile(*values)


@pytest.mark.parametrize(
    "values",
    [
        (True, True, True, RealMatrix.identity(1)),  # nonzero obstruction
        (True, False, True, RealMatrix.zeros(1, 1)),
        (False, False, True, RealMatrix.identity(1)),
        (False, False, False, RealMatrix.zeros(1, 1)),
    ],
)
def test_existence_profile_insists_the_characterizations_agree(values):
    with pytest.raises(InternalInvariantViolation):
        ExistenceProfile(*values)
