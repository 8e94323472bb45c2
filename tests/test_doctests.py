"""Run every docstring example in the package, so none can rot unseen."""

import doctest
import importlib
import pkgutil

import pytest

import naplespf

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(naplespf.__path__, prefix="naplespf.")
)


@pytest.mark.parametrize("name", ["naplespf", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} failed"
