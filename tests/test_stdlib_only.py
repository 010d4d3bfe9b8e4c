"""The core package imports nothing outside the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import schuralg

PACKAGE = Path(schuralg.__file__).parent


def _imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in _imported_modules(path)
        if name not in sys.stdlib_module_names and name != "schuralg"
    }
    assert not outside


def _code_names(tree):
    """The names a module imports, reads and reads as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


OUTSIDE_ROOTVECTORS = sorted(path.name for path in PACKAGE.glob("*.py")
                             if path.name not in ("rootvectors.py", "__init__.py"))


@pytest.mark.parametrize("source", OUTSIDE_ROOTVECTORS)
def test_bases_does_not_import_eval_label(source):
    # Ranks, expansions, the corner and every check take rows, columns
    # and images.  eval_label is the operator reference that only tests
    # and benchmarks call: no other module of the package names it.
    names = set(_code_names(ast.parse((PACKAGE / source).read_text())))
    assert names and "eval_label" not in names


@pytest.mark.parametrize("source", OUTSIDE_ROOTVECTORS)
def test_no_command_builds_a_one_label_image(source):
    # Ranks, products and the corner build the images of pinned labels
    # in block_images walks.  label_image is the one-label reference
    # that tests call: no other module of the package names it.
    names = set(_code_names(ast.parse((PACKAGE / source).read_text())))
    assert names and "label_image" not in names


@pytest.mark.parametrize("source", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_exported_names_exist(source):
    # Each module's __all__, and each name the package __init__ imports
    # from a module of its own, names something that module defines, so
    # a deleted function cannot stay exported.
    name = "schuralg" if source == "__init__.py" else f"schuralg.{source[:-3]}"
    module = importlib.import_module(name)
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []
    if source == "__init__.py":
        tree = ast.parse((PACKAGE / source).read_text())
        imported = [(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names]
        assert imported
        for name, attr in imported:
            assert hasattr(importlib.import_module(f"schuralg.{name}"), attr), (name, attr)
