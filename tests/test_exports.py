"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import symprep

# every module that declares a public surface (the cli entry point does not)
MODULES = [symprep] + [
    m for m in (importlib.import_module(f"symprep.{i.name}") for i in pkgutil.iter_modules(symprep.__path__))
    if hasattr(m, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
