"""Every exported name has a home in ``__all__`` and a caller or a test, and so
does every public method or property of an exported class; ``measure`` exports
need a caller in ``src`` or a traced name in the benchmark."""

import ast
import importlib
import re
from pathlib import Path

import pytest
from test_bench_targets import tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorshift"
TESTS = Path(__file__).resolve().parent
MODULES = ("expansions", "shifts", "salem", "measure")


def _package_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _src_uses():
    """Names read anywhere in ``src``, outside the top-level definition of the same name."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return used


def test_package_imports_are_exported():
    missing = [
        f"{module}.{name}"
        for module, name in _package_imports()
        if name not in importlib.import_module(f"cantorshift.{module}").__all__
    ]
    assert missing == []


def _tests_text():
    return "\n".join(path.read_text() for path in TESTS.glob("*.py") if path.name != "test_exports.py")


@pytest.mark.parametrize("module", MODULES)
def test_exports_have_a_caller_or_a_test(module):
    used = _src_uses()
    tests_text = _tests_text()
    unused = [
        name
        for name in importlib.import_module(f"cantorshift.{module}").__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", tests_text)
    ]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_exported_class_methods_have_a_caller_or_a_test(module):
    # a method is read as an attribute, so a test names it as ``.name``
    exported = set(importlib.import_module(f"cantorshift.{module}").__all__)
    used = _src_uses()
    tests_text = _tests_text()
    unused = [
        f"{cls.name}.{node.name}"
        for cls in ast.parse((SRC / f"{module}.py").read_text()).body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        if node.name not in used and not re.search(rf"\.{re.escape(node.name)}\b", tests_text)
    ]
    assert unused == []


def test_measure_exports_have_a_caller_or_a_traced_name():
    # a test alone does not keep a measure export alive
    used = _src_uses()
    traced = {attr for module, attr, _, _ in tracing.TARGETS if module == "measure"}
    unused = [name for name in importlib.import_module("cantorshift.measure").__all__ if name not in used | traced]
    assert not unused, f"measure exports with no caller in src and no bench/tracing.py target: {unused}"
