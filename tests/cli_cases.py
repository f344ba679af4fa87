"""Command lines and the results each must give, written once for every runner.

Each row of CASES gives a command line (and, for ``measure``, the config
text it reads as exp.cfg), its exit code, the whole of stdout, stderr as
exact text or a pattern it matches in full, and the files the run must or
must not leave.  Every row also checks that stderr holds no traceback.  A
row runs in a fresh temporary directory: in-process through
``cantorshift.cli.main``, or, where a wrong decision would build huge numbers
or lists, as ``python -m cantorshift`` in a child process under a timeout and
a 1 GiB address-space limit.

Run with:  (ulimit -v 1048576 && python tests/cli_cases.py)
It prints one line per row and exits 1 if any row fails.  The test suite
runs each row as its own test; run from outside the checkout, the script
checks the installed package.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import cantorshift
from cantorshift.cli import main as cli_main

LIMIT = sys.get_int_max_str_digits()
TRUNCATED = re.compile(r"truncation depth: \d+\n")


def usage_error(message: str) -> re.Pattern:
    """argparse's refusal: its usage line, then ``message`` on the error line."""
    return re.compile(r"usage: cantorshift .*\ncantorshift: error: " + re.escape(message) + r"\n", re.DOTALL)


class Case(NamedTuple):
    id: str
    argv: tuple[str, ...]
    code: int
    stdout: str | None = None  # the whole of stdout
    stderr: str | re.Pattern | None = None  # the whole of stderr, or a pattern it matches in full
    config: str | None = None  # written to exp.cfg before the run
    files: tuple = ()  # (name, substrings) for a non-empty file holding each, (name, None) for no file
    child: bool = False  # run in a child process with a timeout and 1 GiB of address space
    seconds: float | None = None  # the child's timeout, or the in-process run's wall-time bound


def _refused(id: str, config: str, error: str, seconds: float, code: int = 4) -> Case:
    """A measure config refused at once in a bounded child: exit ``code``, the
    one line ``error: {error}``, no output and no CSV."""
    return Case(id, ("measure", "exp.cfg"), code, "", f"error: {error}\n", config + "out = out.csv\n",
                (("out.csv", None),), True, seconds)


def _xs(count: int) -> str:
    return ", ".join(f"{i}/1000" for i in range(count))


CASES = (
    # an exponent past the integer string limit is refused before 10^|e| is
    # built, and so is a threshold whose denominator the CSV could not print
    Case("eval-exponent-past-limit", ("eval", "q=2; p=1/2,1/2", "1e-99999999"), 2, "",
         f"error: cannot parse rational '1e-99999999' (past the integer string limit of {LIMIT} digits)\n",
         child=True, seconds=20),
    _refused("measure-threshold-past-limit", "family = itershift\nq = 2\nn = 1\nx = 1e-5000\n",
             f"cannot parse rational '1e-5000' (past the integer string limit of {LIMIT} digits)", 20, code=2),
    Case("eval-point", ("eval", "q=2; p=0.3,0.7", "1/3"), 0, "0.113924050633\n", "exact\n"),
    # a cut series is read until both ends of its tail round alike: the
    # 12-place rounding of g(1/1000) = 0.99910030997149...
    Case("eval-cut-rounding", ("eval", "q=2; p=9999/10000,1/10000", "1/1000"), 0, "0.999100309971\n", TRUNCATED,
         seconds=1.0),
    # g(1/2) = 0.2000000000005 exactly, a tie at 12 places; through a float it printed 0.200000000001
    Case("eval-tie-half-even", ("eval", "q=2; p=0.2000000000005,0.7999999999995", "1/2"), 0, "0.2\n", "exact\n"),
    # g(x) = x = 1.5e-12 exactly, a tie whose base-2 period is too long to
    # read: the cut returns the even rounding
    Case("eval-cut-tie", ("eval", "q=2; p=1/2,1/2", "3/2000000000000"), 0, "0.000000000002\n", TRUNCATED),
    # the integral suite sums g over the cylinder endpoints in the spec's order
    Case("verify-integral-perm312", ("verify", "integral", "--spec", "q=3; p=1/5,2/5,2/5; seq=perm(3 1 2)"), 0,
         "PASS  closed form matches exact terminating-grid quadrature\n"
         "PASS  closed form matches exact cylinder-endpoint sums\n", ""),
    # n = 1..8 give exact rows and n = 9, past the default iterate limit, Monte Carlo rows
    Case("measure-itershift-exact-and-mc", ("measure", "exp.cfg"), 0, "",
         config="family = itershift\nq = 2\nn = 1..9\nx = 1/3, 1/2\nsamples = 1000\nout = measures.csv\n",
         files=(("measures.csv", (",exact,", ",mc,")),)),
    Case("curve-grid", ("curve", "q=2; p=0.3,0.7", "--grid", "64", "--out", "curve.csv"), 0, "", "",
         files=(("curve.csv", ()),)),
    # a set too deep to enumerate or sample is refused from its depth alone:
    # a decision that listed, powered or drew to the depth would hit the
    # memory limit or the timeout
    _refused("measure-deep-itershift", "family = itershift\nq = 2\nn = 1000000000000\nx = 1/3\n",
             "iterate count 1000000000000 over limit 8; "
             "a sample would draw 1000000000016 digits, over the limit 100016", 20),
    _refused("measure-deep-genchain", "family = genchain\nq = 3\nindices = 1000000000\nx = 1/3\nfallback = false\n",
             "3^1000000000 branches exceed budget 1000000", 20),
    # 99,992 sets past the iterate limit, each row 10^5 samples of n + 16
    # digits: about 5e14 bits, against about 10^9 bits a second
    _refused("measure-many-sets",
             "family = itershift\nq = 2\nn = 1..100000\nx = 1/2\nsamples = 100000\nfallback = true\n",
             "Monte Carlo sampling would draw 503164743600000 bits, over the limit 50000000000", 5),
    # 1000 sampled sets by 1001 thresholds at one sample a row: about 8e8
    # bits, inside the sampling bound, but 1,001,000 rows
    _refused("measure-many-rows", f"family = itershift\nq = 2\nn = 9..1008\nx = {_xs(1001)}\nsamples = 1\n",
             "the scan would hold 1001000 rows, over the limit 1000000", 5),
    # one deletion at position 19: 2^19 branches, inside the default budget,
    # built and read at 1000 thresholds would take minutes
    _refused("measure-exact-work", f"family = genchain\nq = 2\nindices = 19\nx = {_xs(1000)}\n",
             "the exact rows would cost 527958016 branch reads, over the limit 60000000", 5),
    # --tol is no flag: argparse refuses it before the command runs
    Case("eval-unknown-flag", ("eval", "q=2;p=0.5,0.5", "1/2", "--tol", "0"), 2, "",
         usage_error("unrecognized arguments: --tol 0")),
    Case("eval-unknown-flag-inf", ("eval", "q=2;p=0.5,0.5", "1/2", "--tol", "inf"), 2, "",
         usage_error("unrecognized arguments: --tol inf")),
    Case("curve-unknown-flag", ("curve", "q=2;p=0.5,0.5", "--grid", "2", "--tol", "nan", "--out", "x.csv"), 2, "",
         usage_error("unrecognized arguments: --tol nan"), files=(("x.csv", None),)),
)


def _bounded() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_child(args: list[str], seconds: float, cwd: str | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a child process with 1 GiB of address space,
    killed after ``seconds``; the child imports the cantorshift this process
    imported."""
    root = str(Path(cantorshift.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=seconds,
        preexec_fn=_bounded,
    )


def _in_process(argv: tuple[str, ...], cwd: str) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in ``cwd``; an
    exception that escapes it leaves its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc()
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def run(case: Case) -> list[str]:
    """Run one row in a fresh temporary directory; the list of its mismatches."""
    with tempfile.TemporaryDirectory() as work:
        if case.config is not None:
            Path(work, "exp.cfg").write_text(case.config)
        started = time.monotonic()
        if case.child:
            try:
                done = run_child(["-m", "cantorshift", *case.argv], case.seconds, work)
            except subprocess.TimeoutExpired:
                return [f"no exit within {case.seconds} s"]
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            code, out, err = _in_process(case.argv, work)
        seconds = time.monotonic() - started
        problems = []
        if code != case.code:
            problems.append(f"exit {code}, expected {case.code}")
        if case.stdout is not None and out != case.stdout:
            problems.append(f"stdout {out!r}, expected {case.stdout!r}")
        if "Traceback" in err:
            problems.append(f"traceback on stderr {err!r}")
        elif isinstance(case.stderr, re.Pattern) and not case.stderr.fullmatch(err):
            problems.append(f"stderr {err!r} does not match {case.stderr.pattern!r}")
        elif isinstance(case.stderr, str) and err != case.stderr:
            problems.append(f"stderr {err!r}, expected {case.stderr!r}")
        if not case.child and case.seconds is not None and seconds >= case.seconds:
            problems.append(f"took {seconds:.2f} s, over {case.seconds} s")
        for name, parts in case.files:
            path = Path(work, name)
            if parts is None:
                if path.exists():
                    problems.append(f"{name} was written")
            elif not path.is_file() or not path.stat().st_size:
                problems.append(f"{name} is missing or empty")
            else:
                text = path.read_text()
                problems += [f"{name} lacks {part!r}" for part in parts if part not in text]
    return problems


def main(cases=CASES) -> int:
    failed = False
    for case in cases:
        problems = run(case)
        print(f"FAIL  {case.id}: {'; '.join(problems)}" if problems else f"PASS  {case.id}", flush=True)
        failed = failed or bool(problems)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
