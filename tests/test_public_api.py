"""The package's export list matches the names it binds."""

import types

import dualinv


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
