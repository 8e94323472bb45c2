"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import naplespf

SOURCES = sorted(Path(naplespf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so every check must raise instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10, so no newer syntax
    # (an except* block, say) may slip in while the tests run on a later one
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
