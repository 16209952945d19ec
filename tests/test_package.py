"""The ``seqmine`` namespace: every public name loads from its submodule on first use."""

import importlib

import pytest

import seqmine


@pytest.mark.parametrize("name", seqmine.__all__)
def test_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"seqmine.{seqmine._EXPORTS[name]}")
    assert getattr(seqmine, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(seqmine.__all__) <= set(dir(seqmine))
    assert {"__all__", "__version__"} <= set(dir(seqmine))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from seqmine import *", namespace)
    assert {name: namespace[name] for name in seqmine.__all__} == {
        name: getattr(seqmine, name) for name in seqmine.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'seqmine' has no attribute 'no_such_name'"):
        seqmine.no_such_name
    assert not hasattr(seqmine, "no_such_name")
