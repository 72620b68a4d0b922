"""The package namespace: public names resolve on first use to the objects
their modules define."""

import importlib

import pytest

import dqdyn


@pytest.mark.parametrize("name", dqdyn.__all__)
def test_public_name_is_its_module_object(name):
    module = importlib.import_module(f"dqdyn.{dqdyn._MODULE_OF[name]}")
    assert getattr(dqdyn, name) is getattr(module, name)
    assert name in dir(dqdyn)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dqdyn.no_such_name
    assert not hasattr(dqdyn, "no_such_name")
    with pytest.raises(ImportError):
        from dqdyn import no_such_name  # noqa: F401


def test_version_is_eager():
    assert "__version__" in vars(dqdyn)
