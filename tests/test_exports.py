"""The package exports exactly its modules' ``__all__`` lists.  Every name on
them has a caller in ``src``, in a demo, or a span in the benchmark's
tracing, and one without a caller in ``src`` also needs a test; ``measure``
exports need a caller in ``src`` or a traced name.  Every public method or
property of an exported class has a caller or a test."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest
from test_bench_targets import tracing

import cantorshift

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorshift"
TESTS = Path(__file__).resolve().parent
MODULES = ("expansions", "shifts", "salem", "measure")


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


def _demo_uses():
    """Names the demos read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in (ROOT / "demos").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def test_package_exports_each_module_all():
    public = {
        name
        for name, value in vars(cantorshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in importlib.import_module(f"cantorshift.{module}").__all__}


def _tests_text():
    return "\n".join(path.read_text() for path in TESTS.glob("*.py") if path.name != "test_exports.py")


@pytest.mark.parametrize("module", MODULES)
def test_exports_have_a_caller(module):
    # a test alone does not keep an export alive
    traced = {attr for owner, attr, _, _ in tracing.TARGETS if owner == module}
    reached = _src_uses() | _demo_uses() | traced
    unused = [name for name in importlib.import_module(f"cantorshift.{module}").__all__ if name not in reached]
    assert not unused, f"{module} exports with no caller in src or a demo and no bench/tracing.py target: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_exports_have_a_caller_or_a_test(module):
    # a demo or a traced name is not a test: an export they alone reach still needs one
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
    # the scan engine is not kept alive by a demo either
    used = _src_uses()
    traced = {attr for module, attr, _, _ in tracing.TARGETS if module == "measure"}
    unused = [name for name in importlib.import_module("cantorshift.measure").__all__ if name not in used | traced]
    assert not unused, f"measure exports with no caller in src and no bench/tracing.py target: {unused}"
