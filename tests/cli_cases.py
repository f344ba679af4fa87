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
checks the installed package.  Row ids must be distinct: the module refuses
to load otherwise.
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
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import cantorshift
from cantorshift.cli import main as cli_main

LIMIT = sys.get_int_max_str_digits()
TRUNCATED = re.compile(r"truncation depth: \d+\n")
CSV_HEADER = "family,param,x_num,x_den,measure_num,measure_den,method,samples,halfwidth\n"
# tokens past the integer string limit, and their clipped quotes in an error line
HUGE = "1" * 4400
HUGE_QUOTE = "'" + "1" * 40 + f"'... (4400 characters, more digits than the integer string limit of {LIMIT})"
BIG = "1" * 5000
BIG_QUOTE = "'" + "1" * 40 + f"'... (5000 characters, more digits than the integer string limit of {LIMIT})"
TINY_DECIMAL = "0." + "0" * 4299 + "1"
TINY_QUOTE = "'0." + "0" * 38 + f"'... (4302 characters, more digits than the integer string limit of {LIMIT})"
# 4000 ones parse as one integer, under the limit
LONG_DIGIT = "1" * 4000
LONG_DIGIT_QUOTE = "'" + "1" * 40 + "'... (4000 characters)"

# a function spec reaches eval, curve and verify through these command lines
SPEC_COMMANDS = {
    "eval": ("eval", "{}", "1/3"),
    "curve": ("curve", "{}", "--grid", "4", "--out", "x.csv"),
    "verify": ("verify", "integral", "--spec", "{}"),
}
BAD_SPECS = (  # (name, spec, error)
    ("q", "q=two; p=0.5,0.5", "spec key q must be an integer, got 'two'"),
    ("p-zero-denominator", "q=2; p=1/0,1", "p entry '1/0' is not a rational"),
    ("p-junk", "q=2; p=x,1", "p entry 'x' is not a rational"),
    ("seq", "q=2; p=0.5,0.5; seq=perm(a)", "seq entry 'a' must be an integer"),
)
# the integer flags, each the last argument of its command line
FLAG_COMMANDS = {
    "budget": ("measure", "exp.cfg", "--budget"),
    "grid": ("curve", "q=2; p=1/2,1/2", "--out", "x.csv", "--grid"),
    "seed": ("measure", "exp.cfg", "--seed"),
}
# each verify suite's checks, in the order ``verify all`` prints them
SUITE_CHECKS = {
    "duality": (
        "dual representations have equal values",
        "digit extraction round-trips terminating values",
        "notation parser and printer round-trip",
    ),
    "lemma1": (
        "drop-first after m deletions at 2 equals (m+1)-fold shift",
        "consecutive deletion chain collapses to an iterated shift",
        "descending deletion chain collapses to an iterated shift",
        "deletion difference identity holds exactly",
        "one-sided gap at cylinder endpoints is -1/block(m-1)",
    ),
    "compose": ("two-deletion closed form equals sequential deletions",),
    "schedule": (
        "re-indexed steps of (1,5,7,3,6) are (1,4,5,2,3)",
        "re-indexed steps of (1,5,7,3,6,10,2,4,8,9) are (1,4,5,2,3,5,1,1,1,1)",
        "scheduled deletions equal direct position removal",
    ),
    "system": ("peeling identities hold along deletion chains",),
    "integral": (
        "closed form matches exact terminating-grid quadrature",
        "closed form matches exact cylinder-endpoint sums",
    ),
    "continuity": (
        "identity order is continuous at two-expansion points",
        "swapped order jumps at the first cylinder endpoint",
    ),
    "distribution": ("distribution function is a monotone CDF",),
    "increment": (
        "cylinder increments equal weight products (identity order)",
        "rank-r increments partition unity",
    ),
    "measure": (
        "iterated shifts preserve Lebesgue measure",
        "Monte Carlo agrees with the exact measure",
        "iterate comparison agrees with Monte Carlo",
    ),
}
PASSED = {suite: "".join(f"PASS  {check}\n" for check in checks) for suite, checks in SUITE_CHECKS.items()}
PASSED["all"] = "".join(PASSED.values())
# a reading order of 20 positions; the weights read multiply to 1e-12 after at most 18 digits
LONG_ORDER_SPEC = (
    "q=10; p=0.21,0.09,0.09,0.09,0.09,0.09,0.09,0.09,0.09,0.07; "
    "seq=perm(20 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 1)"
)
# weights whose denominator has 1200 digits
HUGE_DEN = 10**1199 + 7
HUGE_WEIGHT_SPEC = f"q=2; p={HUGE_DEN // 3}/{HUGE_DEN},{HUGE_DEN - HUGE_DEN // 3}/{HUGE_DEN}"
CURVE_HEADER = "# q-rational grid points are evaluated in the terminating digit form\nx,g\n"
UNKNOWN_SUITE = ("error: unknown suite 'nosuchsuite'; known: compose, continuity, distribution, duality, increment, "
                 "integral, lemma1, measure, schedule, system, all\n")


def usage_error(message: str, prog: str = "cantorshift") -> re.Pattern:
    """argparse's refusal: its usage lines, then ``message`` on the error line of ``prog``."""
    return re.compile(r"usage: cantorshift .*\n" + re.escape(f"{prog}: error: {message}") + r"\n", re.DOTALL)


class Case(NamedTuple):
    id: str
    argv: tuple[str, ...]
    code: int
    stdout: str | None = None  # the whole of stdout
    stderr: str | re.Pattern | None = None  # the whole of stderr, or a pattern it matches in full
    config: str | None = None  # written to exp.cfg before the run
    # (name, substrings) for a non-empty file holding each, (name, text) for a
    # file of exactly that text, (name, None) for no file
    files: tuple = ()
    child: bool = False  # run in a child process with a timeout and 1 GiB of address space
    seconds: float | None = None  # the child's timeout, or the in-process run's wall-time bound


def _refused(id: str, config: str, error: str, seconds: float, code: int = 4) -> Case:
    """A measure config refused at once in a bounded child: exit ``code``, the
    one line ``error: {error}``, no output and no CSV."""
    return Case(id, ("measure", "exp.cfg"), code, "", f"error: {error}\n", config + "out = out.csv\n",
                (("out.csv", None),), True, seconds)


def _rejected(id: str, config: str, error: str, *flags: str, code: int = 2) -> Case:
    """A measure config refused in-process: exit ``code``, the one line
    ``error: {error}``, no output and no CSV."""
    return Case(id, ("measure", "exp.cfg", *flags), code, "", f"error: {error}\n", config + "out = out.csv\n",
                (("out.csv", None),))


def _xs(count: int) -> str:
    return ", ".join(f"{i}/1000" for i in range(count))


def _exact_rows(family: str, param: str, count: int) -> str:
    """The CSV of a threshold set whose measure at each of ``_xs(count)`` is x."""
    rows = [f"{family},{param},{x.numerator},{x.denominator},{x.numerator},{x.denominator},exact,,\n"
            for x in (Fraction(i, 1000) for i in range(count))]
    return CSV_HEADER + "".join(rows)


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
    _refused("measure-deep-itershift-no-fallback",
             "family = itershift\nq = 2\nn = 1000000000\nx = 1/3\nfallback = false\n",
             "iterate count 1000000000 over limit 8", 20),
    _refused("measure-deep-genchain", "family = genchain\nq = 3\nindices = 1000000000\nx = 1/3\nfallback = false\n",
             "3^1000000000 branches exceed budget 1000000", 20),
    # 99,992 sets past the iterate limit, each row 10^5 samples of n + 16
    # digits: about 6.5 days of sampling
    _refused("measure-many-sets",
             "family = itershift\nq = 2\nn = 1..100000\nx = 1/2\nsamples = 100000\nfallback = true\n",
             "the work would take about 565871 s, over the limit of 60 s", 5),
    # 1000 sampled sets by 1001 thresholds at one sample a row: about 0.5 s
    # of sampling, inside the work bound, but 1,001,000 rows
    _refused("measure-many-rows", f"family = itershift\nq = 2\nn = 9..1008\nx = {_xs(1001)}\nsamples = 1\n",
             "the scan would hold 1001000 rows, over the limit 1000000", 5),
    # the 2^30 cylinders of the 30-fold drop, inside the raised budget and
    # iterate limit: a pass of about 100-170 s
    _refused("measure-exact-work",
             "family = itershift\nq = 2\nn = 30\niter_limit = 30\nbudget = 1100000000\nx = 1/3\n",
             "the work would take about 172 s, over the limit of 60 s", 5),
    # two deletions that split a 100,016-digit q = 10 draw into runs of about
    # 50,000 digits: each sample divides about 7.8 * 10^7 word pairs, some
    # 0.1 s, so a row of 10^5 samples would run for hours
    _refused("measure-deep-chain-divisions", "family = genchain\nq = 10\nindices = 50000, 99999\nx = 1/3\n",
             "the work would take about 15684 s, over the limit of 60 s", 5),
    # one deletion at position 19 at 1000 thresholds: one pass counts its 2^19
    # cylinders, about 0.1 s, and each row reads two counts
    Case("measure-exact-chain", ("measure", "exp.cfg"), 0, "", "wrote 1000 rows to out.csv\n",
         f"family = genchain\nq = 2\nindices = 19\nx = {_xs(1000)}\nout = out.csv\n",
         (("out.csv", _exact_rows("genchain", "1", 1000)),), True, 5),
    # --tol is no flag: argparse refuses it before the command runs
    Case("eval-unknown-flag", ("eval", "q=2;p=0.5,0.5", "1/2", "--tol", "0"), 2, "",
         usage_error("unrecognized arguments: --tol 0")),
    Case("eval-unknown-flag-inf", ("eval", "q=2;p=0.5,0.5", "1/2", "--tol", "inf"), 2, "",
         usage_error("unrecognized arguments: --tol inf")),
    Case("curve-unknown-flag", ("curve", "q=2;p=0.5,0.5", "--grid", "2", "--tol", "nan", "--out", "x.csv"), 2, "",
         usage_error("unrecognized arguments: --tol nan"), files=(("x.csv", None),)),
    # eval: g at a point, exact once the digits repeat, else the 12-place rounding
    Case("eval-identity-third", ("eval", "q=2;p=0.5,0.5", "1/3"), 0, "0.333333333333\n", "exact\n"),
    Case("eval-quarter", ("eval", "q=2;p=0.5,0.5", "0.25"), 0, "0.25\n", "exact\n"),
    Case("eval-terminating", ("eval", "q=2;p=0.5,0.5", "1/2"), 0, "0.5\n", "exact\n"),
    Case("eval-digit-notation", ("eval", "q=2;p=0.3,0.7", "q2:[1]:zeros"), 0, "0.3\n", "exact\n"),
    # g(3/4) = 3/10 + 7/10 * 3/10
    Case("eval-digit-notation-max", ("eval", "q=2;p=0.3,0.7", "q2:[1,0]:max"), 0, "0.51\n", "exact\n"),
    # g = 589228574607 / (2 * 10^12); through a float it printed 0.294614287303
    Case("eval-tie-digit-notation", ("eval", "q=4; p=0.27,0.23,0.09,0.41", "q4:[1,0,1,2,2,2,1]:max"), 0,
         "0.294614287304\n", "exact\n"),
    Case("eval-weights-sum", ("eval", "q=2;p=0.3,0.8", "1/2"), 2, "", "error: weights must sum to 1 exactly\n"),
    # 3/7, with an order longer than the series is read
    Case("eval-long-order", ("eval", LONG_ORDER_SPEC, "1/3"), 0, "0.428571428571\n", "exact\n"),
    # g(5/8) = 11/21; a cut at 31 digits printed 0.523809523809
    Case("eval-period-closes", ("eval", "q=3; p=1/5,2/5,2/5", "5/8"), 0, "0.52380952381\n", "exact\n", seconds=1.0),
    # 99980001/99990001 and 9999800001/9999900001
    Case("eval-near-one-4", ("eval", "q=2; p=9999/10000,1/10000", "1/3"), 0, "0.99989999\n", "exact\n", seconds=1.0),
    Case("eval-near-one-5", ("eval", "q=2; p=99999/100000,1/100000", "1/3"), 0, "0.9999899999\n", "exact\n",
         seconds=1.0),
    Case("eval-long-reading-order",
         ("eval", "q=2; p=1/2,1/2; seq=perm(" + " ".join(map(str, range(50000, 0, -1))) + ")", "1/3"), 0,
         "0.666666666667\n", "exact\n", seconds=2.0),
    # 1/10^400 is 0.0 as a float, yet the weight is not 0
    Case("eval-weight-underflow", ("eval", f"q=2; p=1/{10**400},{10**400 - 1}/{10**400}", "1/3"), 0, "0\n",
         "truncation depth: 1\n"),
    # the base-3 period of 0.123456789012 is 195,312,500 digits long
    Case("eval-long-period", ("eval", "q=3; p=1/5,2/5,2/5", "0.123456789012"), 0, "0.043199995249\n", TRUNCATED,
         seconds=1.0),
    Case("eval-huge-weights-long-period", ("eval", HUGE_WEIGHT_SPEC, "0.123456789"), 0, "0.034011967763\n", TRUNCATED,
         seconds=2.0),
    # 50,000 base entries equal to the tail base 2 normalize to q2
    Case("eval-long-cantor-prefix", ("eval", "q=2; p=0.3,0.7", "Q(" + ",".join(["2"] * 50000) + "|2):[1]:zeros"), 0,
         "0.3\n", "exact\n", seconds=1.0),
    # curve: the CSV of g on a grid
    Case("curve-small-grid", ("curve", "q=2;p=0.3,0.7", "--grid", "2", "--out", "curve.csv"), 0, "", "",
         files=(("curve.csv", CURVE_HEADER + "0,0\n0.5,0.3\n1,1\n"),)),
    Case("curve-identity-grid", ("curve", "q=2;p=0.5,0.5", "--grid", "4", "--out", "curve.csv"), 0, "", "",
         files=(("curve.csv", CURVE_HEADER + "0,0\n0.25,0.25\n0.5,0.5\n0.75,0.75\n1,1\n"),)),
    Case("curve-five-eighths", ("curve", "q=3; p=1/5,2/5,2/5", "--grid", "256", "--out", "curve.csv"), 0, "", "",
         files=(("curve.csv", ("\n0.625,0.52380952381\n",)),), seconds=1.0),
    Case("curve-grid-guard", ("curve", "q=2;p=0.5,0.5", "--grid", "1", "--out", "x.csv"), 2, "",
         "error: grid must be >= 2\n", files=(("x.csv", None),)),
    Case("curve-bad-grid", ("curve", "q=2; p=0.3,0.7", "--grid", "1", "--out", "x.csv"), 2, "",
         "error: grid must be >= 2\n", files=(("x.csv", None),)),
    Case("curve-bad-spec", ("curve", "q=2; p=0.3", "--grid", "4", "--out", "x.csv"), 2, "",
         "error: expected 2 weights, got 1\n", files=(("x.csv", None),)),
    Case("curve-unwritable", ("curve", "q=2;p=0.5,0.5", "--grid", "2", "--out", "missing/x.csv"), 3, "",
         "error: [Errno 2] No such file or directory: 'missing/x.csv'\n", files=(("missing", None),)),
    # verify: every suite passes, with the default function or a spec
    *(Case(f"verify-{suite}", ("verify", suite), 0, stdout, "") for suite, stdout in PASSED.items()),
    Case("verify-integral-spec", ("verify", "integral", "--spec", "q=2;p=0.3,0.7"), 0, PASSED["integral"], ""),
    # the endpoint sums read the spec's own order up to 4096 cells, and the
    # 20-position order's weights in the identity order
    Case("verify-integral-perm21", ("verify", "integral", "--spec", "q=2; p=0.3,0.7; seq=perm(2 1)"), 0,
         PASSED["integral"], ""),
    Case("verify-all-perm21", ("verify", "all", "--spec", "q=2; p=0.3,0.7; seq=perm(2 1)"), 0, PASSED["all"], ""),
    Case("verify-integral-order20", ("verify", "integral", "--spec", LONG_ORDER_SPEC), 0, PASSED["integral"], ""),
    # continuity checks the spec's weights, here under a rearranged order and
    # with a negative middle weight; system reads the spec's own order
    Case("verify-continuity-perm21", ("verify", "continuity", "--spec", "q=2; p=0.3,0.7; seq=perm(2 1)"), 0,
         PASSED["continuity"], ""),
    Case("verify-continuity-negative-weight", ("verify", "continuity", "--spec", "q=3; p=0.6,-0.19,0.59"), 0,
         PASSED["continuity"], ""),
    Case("verify-system-perm312", ("verify", "system", "--spec", "q=3; p=1/5,2/5,2/5; seq=perm(3 1 2)"), 0,
         PASSED["system"], ""),
    Case("verify-system-long-order",
         ("verify", "system", "--spec", "q=2; p=0.3,0.7; seq=perm(" + " ".join(map(str, range(3000, 0, -1))) + ")"), 0,
         PASSED["system"], "", seconds=2.0),
    # a bad function spec is refused by eval, curve and verify alike, before any output
    *(Case(f"{command}-repeated-key", tuple(arg.format("q=2; p=0.3,0.7; p=0.6,0.4") for arg in argv), 2, "",
           "error: spec key p set twice\n", files=(("x.csv", None),)) for command, argv in SPEC_COMMANDS.items()),
    *(Case(f"{command}-spec-{key}", tuple(arg.format(spec) for arg in argv), 2, "", f"error: {message}\n",
           files=(("x.csv", None),)) for command, argv in SPEC_COMMANDS.items() for key, spec, message in BAD_SPECS),
    # a token past the integer string limit is clipped in its error line, which names the limit
    Case("eval-huge-point", ("eval", "q=2; p=1/2,1/2", HUGE), 2, "",
         f"error: cannot parse rational {HUGE_QUOTE}\n"),
    Case("eval-huge-p-entry", ("eval", f"q=2; p={HUGE},1/2", "1/3"), 2, "",
         f"error: p entry {HUGE_QUOTE} is not a rational\n"),
    # building 10^99999999 would take minutes; the exponent is refused first
    Case("eval-p-exponent-past-limit", ("eval", "q=2; p=1e-99999999,99999999/100000000", "1/3"), 2, "",
         f"error: p entry '1e-99999999' is not a rational (past the integer string limit of {LIMIT} digits)\n",
         child=True, seconds=20),
    Case("eval-digits-letter", ("eval", "q=2; p=0.3,0.7", "q2:[a]:zeros"), 2, "",
         "error: digit entry 'a' must be an integer\n"),
    Case("eval-digits-long-digit", ("eval", "q=2; p=0.3,0.7", f"q2:[{BIG}]:zeros"), 2, "",
         f"error: digit entry {BIG_QUOTE} must be an integer\n"),
    Case("eval-digits-long-constant-base", ("eval", "q=2; p=0.3,0.7", f"q{BIG}:[1]:zeros"), 2, "",
         f"error: base entry {BIG_QUOTE} must be an integer\n"),
    Case("eval-digits-long-cantor-base", ("eval", "q=2; p=0.3,0.7", f"Q(2,{BIG}|2):[1]:zeros"), 2, "",
         f"error: base entry {BIG_QUOTE} must be an integer\n"),
    Case("eval-digits-long-junk", ("eval", "q=2; p=0.3,0.7", "q2:[1," + "x" * 300 + "]:zeros"), 2, "",
         "error: digit entry '" + "x" * 40 + "'... (300 characters) must be an integer\n"),
    # 4000 ones parse as one integer, under the limit, and are clipped as a digit out of the alphabet
    Case("eval-long-digit", ("eval", "q=2; p=0.3,0.7", f"q2:[{LONG_DIGIT}]:zeros"), 2, "",
         f"error: digit {LONG_DIGIT_QUOTE} at position 1 outside alphabet 0..1\n"),
    _rejected("measure-long-digit", f"family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[{LONG_DIGIT}]:zeros\n",
              f"digit {LONG_DIGIT_QUOTE} at position 1 outside alphabet 0..1"),
    Case("eval-base-mismatch", ("eval", "q=2; p=0.3,0.7", "q3:[1]:zeros"), 2, "", "error: expansion base must be q2\n"),
    # after --, a negative point is an argument and reaches the range check
    Case("eval-negative-point", ("eval", "q=2; p=0.3,0.7", "--", "-1/3"), 2, "", "error: x must lie in [0, 1]\n"),
    # argparse refuses a bad integer flag before the command runs; a huge one is clipped
    *(Case(f"{flag}-flag-{name}", (*argv, value), 2, "",
           usage_error(f"argument --{flag}: invalid int value: {quote}", f"cantorshift {argv[0]}"),
           files=(("x.csv", None),))
      for name, value, quote in (("huge", HUGE, HUGE_QUOTE), ("two", "two", "'two'"))
      for flag, argv in FLAG_COMMANDS.items()),
    # the suite name is checked before the spec is read
    Case("verify-unknown-suite", ("verify", "nosuchsuite"), 2, "", UNKNOWN_SUITE),
    Case("verify-unknown-suite-bad-spec", ("verify", "nosuchsuite", "--spec", "q=two"), 2, "", UNKNOWN_SUITE),
    # a long suite name is clipped, as every other token
    Case("verify-unknown-suite-long", ("verify", "s" * 200), 2, "",
         UNKNOWN_SUITE.replace("'nosuchsuite'", "'" + "s" * 40 + "'... (200 characters)")),
    *(Case(f"verify-{suite}-bad-spec", ("verify", suite, "--spec", "q=two"), 2, "",
           "error: spec key q must be an integer, got 'two'\n") for suite in PASSED),
    # measure: the tables a config asks for
    Case("measure-itershift-table", ("measure", "exp.cfg"), 0, "", "wrote 5 rows to out.csv\n",
         "family = itershift\nq = 2\nn = 1..5\nx = 1/3\nout = out.csv\n",
         (("out.csv", CSV_HEADER + "".join(f"itershift,{n},1,3,1,3,exact,,\n" for n in range(1, 6))),)),
    Case("measure-compareiter-row", ("measure", "exp.cfg"), 0, "", "wrote 1 rows to out.csv\n",
         "family = compareiter\nq = 2\na = 2\nb = 1\nout = out.csv\n",
         (("out.csv", CSV_HEADER + "compareiter,2:1,,,1,2,exact,,\n"),)),
    # sigma(0.101b) = 0.01b = 1/4, and shifts preserve measure
    Case("measure-threshold-point", ("measure", "exp.cfg"), 0, "", "wrote 2 rows to out.csv\n",
         "family = itershift\nq = 2\nn = 1..2\nthreshold_point = q2:[1,0,1]:zeros\nthreshold_iter = 1\nout = out.csv\n",
         (("out.csv", CSV_HEADER + "itershift,1,1,4,1,4,exact,,\nitershift,2,1,4,1,4,exact,,\n"),)),
    Case("measure-threshold-point-shifted-past-digits", ("measure", "exp.cfg"), 0, "", "wrote 2 rows to out.csv\n",
         "family = itershift\nq = 2\nn = 1..2\nthreshold_point = q2:[1,0,1]:zeros\nthreshold_iter = 1000000000\n"
         "out = out.csv\n",
         (("out.csv", CSV_HEADER + "itershift,1,0,1,0,1,exact,,\nitershift,2,0,1,0,1,exact,,\n"),)),
    # a set refused for exact work names the refusal, then falls back to Monte Carlo
    Case("measure-fallback-iterate-limit", ("measure", "exp.cfg"), 0, "",
         "itershift 9: iterate count 9 over limit 8, Monte Carlo fallback\nwrote 1 rows to out.csv\n",
         "family = itershift\nq = 2\nn = 9\nx = 1/3\nsamples = 50\nbudget = 1000000\nout = out.csv\n",
         (("out.csv", (",mc,50,",)),)),
    Case("measure-fallback-budget", ("measure", "exp.cfg"), 0, "",
         "itershift 3: 2^3 branches exceed budget 7, Monte Carlo fallback\nwrote 1 rows to out.csv\n",
         "family = itershift\nq = 2\nn = 3\nx = 1/3\nsamples = 50\nbudget = 7\nout = out.csv\n",
         (("out.csv", (",mc,50,",)),)),
    # M = max(a, b) decides a comparison, so 9:11 is refused for its 11
    Case("measure-compareiter-deeper-iterate", ("measure", "exp.cfg"), 0, "",
         "compareiter 9:11: iterate count 11 over limit 8, Monte Carlo fallback\n"
         "compareiter 3:9: iterate count 9 over limit 8, Monte Carlo fallback\nwrote 2 rows to out.csv\n",
         "family = compareiter\nq = 2\npsi = 9,3\nphi = 11,9\nsamples = 100\nout = out.csv\n",
         (("out.csv", CSV_HEADER + "compareiter,9:11,,,13,25,mc,100,0.128688\n"
                                   "compareiter,3:9,,,49,100,mc,100,0.128766\n"),)),
    # 2^20000 has 6021 decimal digits; the refusal names it as a power
    Case("measure-branch-power-fallback", ("measure", "exp.cfg"), 0, "",
         "genchain 1: 2^20000 branches exceed budget 1000000, Monte Carlo fallback\nwrote 1 rows to out.csv\n",
         "family = genchain\nq = 2\nindices = 20000\nx = 1/3\nsamples = 10\nout = out.csv\n",
         (("out.csv", (",mc,10,",)),)),
    _rejected("measure-branch-power", "family = genchain\nq = 2\nindices = 20000\nx = 1/3\nfallback = false\n",
              "2^20000 branches exceed budget 1000000", code=4),
    # a sample may draw 100000 + 16 digits: M + 16 for a threshold family and |a - b| + 16 for a comparison
    Case("measure-draw-itershift-at", ("measure", "exp.cfg"), 0, "",
         "itershift 100000: iterate count 100000 over limit 8, Monte Carlo fallback\nwrote 1 rows to out.csv\n",
         "q = 2\nfamily = itershift\nn = 100000\nx = 1/3\nsamples = 10\nout = out.csv\n", (("out.csv", (",mc,10,",)),)),
    _rejected("measure-draw-itershift-past", "q = 2\nfamily = itershift\nn = 100001\nx = 1/3\nsamples = 10\n",
              "iterate count 100001 over limit 8; a sample would draw 100017 digits, over the limit 100016", code=4),
    Case("measure-draw-compareiter-at", ("measure", "exp.cfg"), 0, "",
         "compareiter 100001:1: iterate count 100001 over limit 8, Monte Carlo fallback\nwrote 1 rows to out.csv\n",
         "q = 2\nfamily = compareiter\na = 100001\nb = 1\nsamples = 10\nout = out.csv\n", (("out.csv", (",mc,10,",)),)),
    _rejected("measure-draw-compareiter-past", "q = 2\nfamily = compareiter\na = 1\nb = 100002\nsamples = 10\n",
              "iterate count 100002 over limit 8; a sample would draw 100017 digits, over the limit 100016", code=4),
    Case("measure-draw-compareiter-deep-close", ("measure", "exp.cfg"), 0, "",
         "compareiter 1000000000000:1000000000001: iterate count 1000000000001 over limit 8, Monte Carlo fallback\n"
         "wrote 1 rows to out.csv\n",
         "q = 2\nfamily = compareiter\na = 1000000000000\nb = 1000000000001\nsamples = 10\nout = out.csv\n",
         (("out.csv", (",mc,10,",)),)),
    _rejected("measure-draw-genchain-past", "q = 2\nfamily = genchain\nindices = 100001\nx = 1/3\nsamples = 10\n",
              "2^100001 branches exceed budget 1000000; a sample would draw 100017 digits, over the limit 100016",
              code=4),
    # deep sets in a bounded child: a decision that listed, powered or drew to
    # the depth would hit the memory limit or the timeout
    _refused("measure-deep-genchain-1e7", "family = genchain\nq = 3\nindices = 10000000\nx = 1/3\nfallback = false\n",
             "3^10000000 branches exceed budget 1000000", 20),
    _refused("measure-deep-itershift-1e7", "family = itershift\nq = 2\nn = 10000000\nx = 1/3\n",
             "iterate count 10000000 over limit 8; a sample would draw 10000016 digits, over the limit 100016", 20),
    _refused("measure-deep-compareiter-1e12", "family = compareiter\nq = 2\na = 1000000000000\nb = 1\n",
             "iterate count 1000000000000 over limit 8; "
             "a sample would draw 1000000000015 digits, over the limit 100016", 20),
    # measure: a missing file, an unwritable output, a set refused without fallback
    Case("measure-missing-config", ("measure", "missing.cfg"), 3, "",
         "error: [Errno 2] No such file or directory: 'missing.cfg'\n"),
    Case("measure-unwritable-out", ("measure", "exp.cfg"), 3, "",
         "error: [Errno 2] No such file or directory: 'missing/out.csv'\n",
         "family = itershift\nq = 2\nn = 1..2\nx = 1/3\nout = missing/out.csv\n", (("missing", None),)),
    # the output path is opened before the scan: this one would sample for
    # about a second, and log a fallback line a set, before it could fail
    Case("measure-unwritable-out-before-scan", ("measure", "exp.cfg"), 3, "",
         "error: [Errno 2] No such file or directory: 'missing/out.csv'\n",
         "family = itershift\nq = 3\nn = 100..140\nx = 1/3\nsamples = 100000\nout = missing/out.csv\n",
         (("missing", None),), seconds=0.5),
    # an existing out, here the longer config itself, is replaced by the table alone
    Case("measure-existing-out-is-replaced", ("measure", "exp.cfg"), 0, "", "wrote 1 rows to exp.cfg\n",
         "#" * 300 + "\nfamily = itershift\nq = 2\nn = 1\nx = 1/3\nout = exp.cfg\n",
         (("exp.cfg", CSV_HEADER + "itershift,1,1,3,1,3,exact,,\n"),)),
    # a refused scan leaves an existing out as it was: here the config itself
    Case("measure-refused-keeps-existing-out", ("measure", "exp.cfg"), 4, "", "error: iterate count 9 over limit 8\n",
         "family = itershift\nq = 2\nn = 9\nx = 1/3\nfallback = false\nout = exp.cfg\n",
         (("exp.cfg", "family = itershift\nq = 2\nn = 9\nx = 1/3\nfallback = false\nout = exp.cfg\n"),)),
    _rejected("measure-no-fallback", "family = itershift\nq = 2\nn = 9..9\nx = 1/3\nfallback = false\n",
              "iterate count 9 over limit 8", code=4),
    # measure: a config refused before any set is decided
    _rejected("measure-malformed", "family = itershift\nq = 2\nn = 1..3\nbogus = 1\n",
              "itershift needs x = ... or threshold_point = ..."),
    _rejected("measure-unread-key-line", "family = itershift\nq = 2\nn = 1..3\nbogus = 1\nx = 1/3\n",
              "line 4: itershift does not read bogus"),
    _rejected("measure-repeated-key", "family = itershift\nq = 2\nn = 1\nn = 2\nx = 1/3\n", "line 4: key n set twice"),
    _rejected("measure-threshold-above-one", "family = itershift\nq = 2\nn = 1..2\nx = 3/2\n",
              "line 4: x must lie in [0, 1]"),
    _rejected("measure-zero-samples", "family = itershift\nq = 2\nn = 9..9\nx = 1/3\nsamples = 0\n",
              "line 5: samples must be >= 1"),
    _rejected("measure-negative-budget", "family = itershift\nq = 2\nn = 1..2\nx = 1/3\nbudget = -5\n",
              "line 5: budget must be >= 1"),
    # gk_scan checks the budget that --budget sets, before the seed
    _rejected("measure-zero-budget-flag", "family = itershift\nq = 2\nn = 1..2\nx = 1/3\n", "budget must be >= 1",
              "--budget", "0"),
    _rejected("measure-zero-budget-flag-negative-seed", "family = itershift\nq = 2\nn = 1..2\nx = 1/3\n",
              "budget must be >= 1", "--budget", "0", "--seed", "-3"),
    # Random(-s) draws the stream of Random(s): with seed -3 rows 1 and 5
    # (seeds -2 and 2) of this scan would print the same estimate
    _rejected("measure-negative-seed-flag",
              "family = itershift\nq = 2\nn = 12\nx = 1/3, 1/3, 1/3, 1/3, 1/3\nsamples = 1000\n",
              "seed must be >= 0", "--seed", "-3"),
    # the scan refuses the seed before it decides any set, exact or sampled
    _rejected("measure-negative-seed-flag-exact", "family = itershift\nq = 2\nn = 1..2\nx = 1/3\n",
              "seed must be >= 0", "--seed", "-3"),
    *(_rejected(f"measure-iter-limit-{limit}-{fallback}",
                f"family = itershift\nq = 2\nn = 1..2\nx = 1/3\niter_limit = {limit}\nfallback = {fallback}\n",
                "line 5: iter_limit must be >= 1")
      for limit, fallback in (("0", "true"), ("-3", "false"))),
    *(_rejected(f"measure-no-thresholds-{family}", f"family = {family}\n{lines}q = 2\n",
                f"{family} needs x = ... or threshold_point = ...")
      for family, lines in (("itershift", "n = 1..2\n"), ("genchain", "indices = 2,2\n"),
                            ("schedulechain", "psi = 2,3\n"))),
    _rejected("measure-x-and-threshold-point",
              "family = itershift\nq = 2\nn = 1..2\nx = 1/3\nthreshold_point = q2:[1]:zeros\n",
              "line 5: itershift does not read threshold_point"),
    # a key the family does not read names its line
    *(_rejected(f"measure-unread-{name}", lines + "q = 2\n", f"line {line}: {family} does not read {key}")
      for name, lines, line, family, key in (
          ("compareiter-x", "family = compareiter\na = 2\nb = 1\nx = 1/3\n", 4, "compareiter", "x"),
          ("compareiter-threshold_point", "family = compareiter\na = 2\nb = 1\nthreshold_point = q2:[1]:zeros\n",
           4, "compareiter", "threshold_point"),
          ("compareiter-ab-and-tables", "family = compareiter\na = 2\nb = 1\npsi = 3\nphi = 1\n", 2,
           "compareiter", "a"),
          ("threshold_iter-without-point", "family = itershift\nn = 1..2\nx = 1/3\nthreshold_iter = 3\n", 4,
           "itershift", "threshold_iter"),
          ("itershift-count", "family = itershift\nn = 1..2\nx = 1/3\ncount = 5\n", 4, "itershift", "count"),
          ("itershift-indices", "family = itershift\nn = 1..2\nx = 1/3\nindices = 1,2\n", 4, "itershift", "indices"),
          ("genchain-indices-and-psi", "family = genchain\nindices = 2,2\npsi = 3,1\nx = 1/3\n", 3, "genchain",
           "psi"),
      )),
    # unchecked, count = -1 would slice table[:-1], a two-index chain
    *(_rejected(f"measure-count-{count}-{family}",
                f"family = {family}\n{table} = 2,3,1\nq = 2\ncount = {count}\nx = 1/3\n",
                "line 4: count must lie in 1..3, the lookup table length")
      for count in ("-1", "0", "4", "2..4") for family, table in (("genchain", "indices"), ("schedulechain", "psi"))),
    *(_rejected(f"measure-empty-tables-{name}", f"family = compareiter\nq = 2\n{tables}",
                "psi and phi tables must be nonempty and of equal length")
      for name, tables in (("empty", "psi =\nphi =\n"), ("commas", "psi = ,\nphi = ,\n"))),
    *(_rejected(f"measure-empty-x-{name}", f"family = itershift\nq = 2\nn = 1..2\n{x_line}",
                "itershift needs x = ... or threshold_point = ...")
      for name, x_line in (("empty", "x =\n"), ("comma", "x = ,\n"))),
    *(_rejected(f"measure-not-integer-{name}", config, f"line {line}: {key} must be an integer, got 'two'")
      for name, config, line, key in (
          ("q", "family = itershift\nq = two\nn = 1\nx = 1/3\n", 2, "q"),
          ("n", "family = itershift\nq = 2\nn = two\nx = 1/3\n", 3, "n"),
          ("n-range", "family = itershift\nq = 2\nn = 1..two\nx = 1/3\n", 3, "n"),
          ("indices", "family = genchain\nq = 2\nindices = 2,two\nx = 1/3\n", 3, "indices entry"),
          ("psi", "family = schedulechain\nq = 2\npsi = two,1\nx = 1/3\n", 3, "psi entry"),
          ("count", "family = genchain\nq = 2\nindices = 2,1\ncount = two..2\nx = 1/3\n", 4, "count"),
          ("a", "family = compareiter\nq = 2\na = two\nb = 1\n", 3, "a"),
          ("b", "family = compareiter\nq = 2\na = 2\nb = two\n", 4, "b"),
          ("phi", "family = compareiter\nq = 2\npsi = 2\nphi = two\n", 4, "phi entry"),
          ("samples", "family = itershift\nq = 2\nn = 1\nx = 1/3\nsamples = two\n", 5, "samples"),
          ("seed", "family = itershift\nq = 2\nn = 1\nx = 1/3\nseed = two\n", 5, "seed"),
          ("budget", "family = itershift\nq = 2\nn = 1\nx = 1/3\nbudget = two\n", 5, "budget"),
          ("iter_limit", "family = itershift\nq = 2\nn = 1\nx = 1/3\niter_limit = two\n", 5, "iter_limit"),
          ("threshold_iter", "family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1]:zeros\nthreshold_iter = two\n",
           5, "threshold_iter"),
      )),
    *(_rejected(f"measure-out-of-range-{name}", config, message) for name, config, message in (
        ("threshold_iter", "family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1]:zeros\nthreshold_iter = -1\n",
         "line 5: threshold_iter must be >= 0"),
        ("q", "family = itershift\nq = 1\nn = 1\nx = 1/3\n", "line 2: q must be >= 2"),
        ("n", "family = itershift\nq = 2\nn = 0..2\nx = 1/3\n", "line 3: n must be >= 1"),
        ("indices", "family = genchain\nq = 2\nindices = 0,1\nx = 1/3\n", "line 3: indices must be >= 1"),
        ("psi", "family = schedulechain\nq = 2\npsi = 2,-1\nx = 1/3\n", "line 3: psi must be >= 1"),
        ("a", "family = compareiter\nq = 2\na = 0\nb = 1\n", "line 3: a must be >= 1"),
        ("b", "family = compareiter\nq = 2\na = 2\nb = -3\n", "line 4: b must be >= 1"),
        ("phi", "family = compareiter\nq = 2\npsi = 2,1\nphi = 1,0\n", "line 4: phi must be >= 1"),
        ("x", "family = itershift\nq = 2\nn = 1\nx = 1/3, 3/2\n", "line 4: x must lie in [0, 1]"),
        ("budget", "family = itershift\nq = 2\nn = 1\nx = 1/3\nbudget = 0\n", "line 5: budget must be >= 1"),
        ("seed", "family = itershift\nq = 2\nn = 1\nx = 1/3\nseed = -3\n", "line 5: seed must be >= 0"),
        ("iter_limit", "family = itershift\nq = 2\nn = 1\nx = 1/3\niter_limit = 0\n",
         "line 5: iter_limit must be >= 1"),
        ("samples", "family = itershift\nq = 2\nn = 1\nx = 1/3\nsamples = 0\n", "line 5: samples must be >= 1"),
        ("count", "family = genchain\nq = 2\nindices = 2,1\ncount = 3\nx = 1/3\n",
         "line 4: count must lie in 1..2, the lookup table length"),
        ("empty-range", "family = itershift\nq = 2\nn = 5..3\nx = 1/3\n", "line 3: n range '5..3' is empty"),
        ("fallback", "family = itershift\nq = 2\nn = 1\nx = 1/3\nfallback = maybe\n",
         "line 5: fallback must be true or false"),
    )),
    *(_rejected(f"measure-unsized-range-{key}", config,
                f"line {line}: {key} range '1..100000000000000000000' has more than {sys.maxsize} entries")
      for key, config, line in (
          ("n", "family = itershift\nq = 2\nn = 1..100000000000000000000\nx = 1/3\n", 3),
          ("count", "family = genchain\nq = 2\nindices = 2,2\ncount = 1..100000000000000000000\nx = 1/3\n", 4))),
    # a count range is checked by its ends: listing this one would take 8 TB
    _rejected("measure-count-range-ends",
              "family = genchain\nq = 2\nindices = 2,2\ncount = 1..1000000000000\nx = 1/3\n",
              "line 4: count must lie in 1..2, the lookup table length")._replace(seconds=1.0),
    # 1..30000 lists 450,015,000 chain indices: building them would hit the
    # address-space limit instead of exiting 2
    _refused("measure-count-range-total",
             f"family = genchain\nq = 2\nindices = {','.join(['1'] * 30000)}\ncount = 1..30000\nx = 1/3\n",
             "line 4: count range '1..30000' lists more than 1000000 chain indices", 5, code=2),
    # 4400 decimal ones: the value's denominator 10^4400 has too many digits to print
    _rejected("measure-threshold-point-past-limit",
              f"family = itershift\nq = 10\nn = 1\nthreshold_point = q10:[{','.join(['1'] * 4400)}]:zeros\n",
              f"line 4: threshold_point value has more than {LIMIT} digits"),
    # a threshold whose denominator the CSV could not print is refused before any row
    _refused("measure-threshold-e-4300", "family = itershift\nq = 2\nn = 1\nx = 1e-4300\n",
             f"cannot parse rational '1e-4300' (past the integer string limit of {LIMIT} digits)", 20, code=2),
    _refused("measure-threshold-decimal-past-limit", f"family = itershift\nq = 2\nn = 1\nx = {TINY_DECIMAL}\n",
             f"cannot parse rational {TINY_QUOTE} (past the integer string limit of {LIMIT} digits)", 20, code=2),
    # 10^4299 has 4300 digits, the default limit, and prints
    Case("measure-threshold-at-limit", ("measure", "exp.cfg"), 0, "", "wrote 1 rows to out.csv\n",
         "family = itershift\nq = 2\nn = 1\nx = 1e-4299\nout = out.csv\n",
         (("out.csv", CSV_HEADER + f"itershift,1,1,1{'0' * 4299},1,1{'0' * 4299},exact,,\n"),), True, 20),
    _rejected("measure-threshold-point-bad-entry",
              "family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1,a]:zeros\n",
              "digit entry 'a' must be an integer"),
    _rejected("measure-huge-seed", f"family = itershift\nq = 2\nn = 1\nx = 1/3\nseed = {HUGE}\n",
              f"line 5: seed must be an integer, got {HUGE_QUOTE}"),
    _rejected("measure-not-ascii", "family = itershift\nq = 2\nn = 1\nx = 1/3 \u00e9\n",
              "config is not ASCII: 'ascii' codec can't decode byte 0xc3 in position 39: ordinal not in range(128)"),
)

# pytest would suffix a repeated id without complaint, and this script print
# two lines under one name
_REPEATED = sorted(id for id, count in Counter(case.id for case in CASES).items() if count > 1)
if _REPEATED:
    raise ValueError(f"repeated CASES ids: {', '.join(_REPEATED)}")


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


def in_process(argv: tuple[str, ...], cwd: str = ".") -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in ``cwd``; an
    exception that escapes it leaves its traceback on stderr and the code None."""
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
            Path(work, "exp.cfg").write_text(case.config, encoding="utf-8")
        started = time.monotonic()
        if case.child:
            try:
                done = run_child(["-m", "cantorshift", *case.argv], case.seconds, work)
            except subprocess.TimeoutExpired:
                return [f"no exit within {case.seconds} s"]
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            code, out, err = in_process(case.argv, work)
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
            elif isinstance(parts, str):
                if path.read_text() != parts:
                    problems.append(f"{name} differs from the expected text")
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
