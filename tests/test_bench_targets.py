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
from cantorshift.cli import main

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


def test_tracer_records_each_cli_command(tmp_path, monkeypatch, capsys):
    # the traced run installs its tracer after a warm-up op has built the
    # cached parser, so dispatch must reach the wrapped commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text("family = itershift\nq = 2\nn = 1\nx = 1/3\n")
    main(["eval", "q=2; p=1/2,1/2", "1/3"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main(["eval", "q=2; p=1/2,1/2", "1/3"])
        main(["curve", "q=2; p=1/2,1/2", "--grid", "2", "--out", "c.csv"])
        main(["verify", "schedule"])
        main(["measure", "exp.cfg"])
    finally:
        tracer.uninstall()
    traced = [tracer.names[span[0]] for span in tracer.spans]
    assert [name for name in traced if name.startswith("cli.")] == [f"cli.cmd_{c}" for c in ("eval", "curve", "verify", "measure")]
