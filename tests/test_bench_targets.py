"""The benchmark's traced names still exist in the package.

``bench/tracing.py`` wraps each ``TARGETS`` entry by name, so a rename in
``cantorshift`` would break the benchmark's traced run; this reads the file
(stdlib only) without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cantorshift import verify

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracing.TARGETS], ids=lambda v: v)
def test_target_resolves(module, attr):
    home = importlib.import_module(f"cantorshift.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__[method])
    else:
        assert callable(getattr(home, attr))


def test_suites_match_the_verify_registry():
    assert tracing.SUITES == tuple(verify.SUITES)
