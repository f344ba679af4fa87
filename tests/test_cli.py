import contextlib
import io
import random
import re
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantorshift import measure, verify
from cantorshift.cli import MeasureConfig, build_parser, main, parse_config
from cantorshift.measure import FamilyKind, SetFamilySpec
from cantorshift.expansions import parse_expansion, quote_token
from cantorshift.salem import evaluate, format_function_spec, parse_function_spec
from cantorshift.verify import DEFAULT_FUNCTION, SUITES
from oracles import salem_value_exact
import cli_cases

def run_main(*argv):
    """Run ``main`` in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.monotonic() - started


@pytest.mark.parametrize("case", cli_cases.CASES, ids=[case.id for case in cli_cases.CASES])
def test_cli_case(case):
    assert cli_cases.run(case) == []


def test_cli_cases_names_a_failing_row(capsys):
    # a runner that passed every row would leave the CI step green
    wrong = cli_cases.Case("wrong-exit-code", ("eval", "q=2; p=0.3,0.7", "1/3"), 1)
    assert cli_cases.main([wrong]) == 1
    assert capsys.readouterr().out == "FAIL  wrong-exit-code: exit 0, expected 1\n"


# A reading order of 20 positions; the weights read multiply to 1e-12 after
# at most 18 digits.
LONG_ORDER_SPEC = (
    "q=10; p=0.21,0.09,0.09,0.09,0.09,0.09,0.09,0.09,0.09,0.07; "
    "seq=perm(20 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 1)"
)


class TestEval:
    def test_identity_third(self):
        # the period 01 closes after 2 digits
        assert run_main("eval", "q=2;p=0.5,0.5", "1/3")[:3] == (0, "0.333333333333\n", "exact\n")

    def test_digit_notation_input(self):
        assert run_main("eval", "q=2;p=0.3,0.7", "q2:[1]:zeros")[:2] == (0, "0.3\n")

    def test_terminating_point_is_exact(self, capsys):
        assert main(["eval", "q=2;p=0.5,0.5", "1/2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0.5"
        assert captured.err.strip() == "exact"

    def test_digit_notation_is_exact(self, capsys):
        assert main(["eval", "q=2;p=0.3,0.7", "q2:[1,0]:max"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0.51"  # g(3/4) = 3/10 + 7/10 * 3/10
        assert captured.err.strip() == "exact"

    def test_weights_must_sum_to_one(self):
        code, _, err, _ = run_main("eval", "q=2;p=0.3,0.8", "1/2")
        assert code == 2 and "sum" in err

    def test_base_mismatch(self):
        assert run_main("eval", "q=2;p=0.5,0.5", "q3:[1]:zeros")[0] == 2

    def test_reading_order_longer_than_series_depth(self):
        # 3/7
        assert run_main("eval", LONG_ORDER_SPEC, "1/3")[:3] == (0, "0.428571428571\n", "exact\n")


class TestCurve:
    def test_small_grid(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        assert run_main("curve", "q=2;p=0.3,0.7", "--grid", "2", "--out", str(out_path))[0] == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "x,g"
        assert lines[2:] == ["0,0", "0.5,0.3", "1,1"]

    def test_identity_grid(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        run_main("curve", "q=2;p=0.5,0.5", "--grid", "4", "--out", str(out_path))
        rows = [line.split(",") for line in out_path.read_text().splitlines()[2:]]
        assert rows == [["0", "0"], ["0.25", "0.25"], ["0.5", "0.5"], ["0.75", "0.75"], ["1", "1"]]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main("curve", "q=3;p=1/5,2/5,2/5", "--grid", "7", "--out", str(a))
        run_main("curve", "q=3;p=1/5,2/5,2/5", "--grid", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_grid_guard(self, tmp_path):
        assert run_main("curve", "q=2;p=0.5,0.5", "--grid", "1", "--out", str(tmp_path / "x.csv"))[0] == 2

    @pytest.mark.parametrize("spec, grid", [("q=2; p=0.3,0.7", "1"), ("q=2; p=0.3", "4")], ids=["grid", "spec"])
    def test_bad_input_writes_no_file(self, tmp_path, spec, grid):
        out_path = tmp_path / "x.csv"
        code, _, err, _ = run_main("curve", spec, "--grid", grid, "--out", str(out_path))
        assert code == 2 and err.startswith("error: ")
        assert not out_path.exists()

    def test_rows_are_written_as_they_are_computed(self, tmp_path):
        # the rows are never held at once: a list of these 2,001 rows peaks
        # near 270 kB, one row at a time near 65 kB
        build_parser()
        tracemalloc.start()
        try:
            code = main(["curve", "q=2; p=0.3,0.7", "--grid", "2000", "--out", str(tmp_path / "c.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 200_000
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert len(lines) == 2003 and lines[-1] == "1,1"

    def test_unwritable_path(self):
        assert run_main("curve", "q=2;p=0.5,0.5", "--grid", "2", "--out", "/nonexistent-dir/x.csv")[0] == 3

    def test_reading_order_longer_than_series_depth(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        assert main(["curve", LONG_ORDER_SPEC, "--grid", "3", "--out", str(out_path)]) == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[2:]]
        assert len(rows) == 4
        p = [Fraction(21, 100)] + [Fraction(9, 100)] * 8 + [Fraction(7, 100)]
        beta = [sum(p[:i], Fraction(0)) for i in range(10)]
        order = (20,) + tuple(range(2, 20)) + (1,)
        for i, (_, g) in enumerate(rows):
            exact = salem_value_exact(beta, p, order, i, 3, 10)
            assert g == rounded_text(exact)


SPEC_315 = "q=3; p=1/5,2/5,2/5"


# the specs whose curve rows a cut at |weight product| <= 1e-12 mis-rounded
ROUNDING_SPECS = [
    "q=3; p=1/5,2/5,2/5",
    "q=3; p=0.6,-0.19,0.59",
    "q=3; p=0.09,0.9,0.01; seq=perm(2 1 3)",
    "q=2; p=9999/10000,1/10000",
    "q=2; p=0.3,0.7; seq=perm(2 1)",
]


def rounded_text(v: Fraction) -> str:
    """v rounded to 12 places, half to even, as the CLI prints it."""
    n = round(v * 10**12)
    return f"{n // 10**12}.{n % 10**12:012d}".rstrip("0").rstrip(".")


class TestRationalValues:
    """g at a rational is exact once its digits repeat, and otherwise the
    12-place rounding of the exact value."""

    def test_period_closes_before_the_cut(self):
        # g(5/8) = 11/21; a cut at 31 digits printed 0.523809523809
        code, out, err, seconds = run_main("eval", SPEC_315, "5/8")
        assert (code, out, err) == (0, "0.52380952381\n", "exact\n")
        assert seconds < 1.0

    def test_curve_row_at_five_eighths(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _, seconds = run_main("curve", SPEC_315, "--grid", "256", "--out", str(out_path))
        assert code == 0 and seconds < 1.0
        assert "0.625,0.52380952381" in out_path.read_text().splitlines()

    @pytest.mark.parametrize(
        "spec, printed",
        [
            ("q=2; p=9999/10000,1/10000", "0.99989999"),  # 99980001/99990001
            ("q=2; p=99999/100000,1/100000", "0.9999899999"),  # 9999800001/9999900001
        ],
    )
    def test_weights_near_one(self, spec, printed):
        code, out, err, seconds = run_main("eval", spec, "1/3")
        assert (code, out, err) == (0, printed + "\n", "exact\n")
        assert seconds < 1.0

    @pytest.mark.parametrize(
        "spec, grid", [(spec, 256) for spec in ROUNDING_SPECS] + [(SPEC_315, 997)]
    )
    def test_curve_rows_are_correctly_rounded(self, tmp_path, spec, grid):
        out_path = tmp_path / "curve.csv"
        assert run_main("curve", spec, "--grid", str(grid), "--out", str(out_path))[0] == 0
        f = parse_function_spec(spec)
        w = f.weights
        rows = [line.split(",")[1] for line in out_path.read_text().splitlines()[2:]]
        expected = [rounded_text(salem_value_exact(w.beta, w.p, f.seq.prefix, i, grid, w.q)) for i in range(grid + 1)]
        assert rows == expected

    @pytest.mark.parametrize(
        "spec, x, printed",
        [
            # g = 589228574607 / (2 * 10^12); through a float it printed 0.294614287303
            ("q=4; p=0.27,0.23,0.09,0.41", "q4:[1,0,1,2,2,2,1]:max", "0.294614287304"),
        ],
        ids=["digit-notation"],
    )
    def test_exact_value_on_a_tie_rounds_half_to_even(self, spec, x, printed):
        assert run_main("eval", spec, x)[:3] == (0, printed + "\n", "exact\n")

    def test_long_reading_order(self):
        order = " ".join(map(str, range(50000, 0, -1)))
        code, out, err, seconds = run_main("eval", f"q=2; p=1/2,1/2; seq=perm({order})", "1/3")
        assert (code, out, err) == (0, "0.666666666667\n", "exact\n")
        assert seconds < 2.0

    @pytest.mark.parametrize("seq", ["", "; seq=perm(3 2 1)"], ids=["identity", "perm"])
    def test_cut_after_a_zero_weight_is_exact(self, seq):
        # 1/7 = 0.(010212) in base 3; the digit 1 has weight 0, so every term
        # after the second digit read is 0
        code, out, err, _ = run_main("eval", f"q=3; p=1/2,0,1/2{seq}", "1/7")
        half = Fraction(1, 2)
        exact = salem_value_exact([0, half, half], [half, 0, half], (3, 2, 1) if seq else (), 1, 7, 3)
        assert exact == Fraction(1, 4)
        assert (code, out, err) == (0, "0.25\n", "exact\n")

    def test_weight_that_underflows_to_zero_keeps_the_cut(self):
        # 1/10^400 is 0.0 as a float, yet the weight is not 0
        den = 10**400
        code, out, err, _ = run_main("eval", f"q=2; p=1/{den},{den - 1}/{den}", "1/3")
        assert (code, out, err) == (0, "0\n", "truncation depth: 1\n")

    def test_long_period_is_cut(self):
        # the base-3 period of 0.123456789012 is 195,312,500 digits long
        code, out, err, seconds = run_main("eval", SPEC_315, "0.123456789012")
        assert code == 0 and out.strip()
        assert re.fullmatch(r"truncation depth: \d+\n", err)
        assert seconds < 1.0


# weights whose denominator has 1200 digits
HUGE_DEN = 10**1199 + 7
HUGE_WEIGHTS = (Fraction(HUGE_DEN // 3, HUGE_DEN), Fraction(HUGE_DEN - HUGE_DEN // 3, HUGE_DEN))
HUGE_WEIGHT_SPEC = f"q=2; p={HUGE_WEIGHTS[0]},{HUGE_WEIGHTS[1]}"


class TestHeavyInputs:
    """Inputs near the size limits stay fast: each command takes under 2 s."""

    @pytest.mark.parametrize("num, den", [(1, 3), (5, 7)])
    def test_huge_weight_denominators_at_periodic_points(self, num, den):
        code, out, err, seconds = run_main("eval", HUGE_WEIGHT_SPEC, f"{num}/{den}")
        exact = salem_value_exact([0, HUGE_WEIGHTS[0]], HUGE_WEIGHTS, (), num, den, 2)
        assert (code, out, err) == (0, rounded_text(exact) + "\n", "exact\n")
        assert seconds < 2.0

    def test_huge_weight_denominators_at_a_long_period(self):
        code, out, err, seconds = run_main("eval", HUGE_WEIGHT_SPEC, "0.123456789")
        assert code == 0 and re.fullmatch(r"0\.\d+\n", out)
        assert re.fullmatch(r"truncation depth: \d+\n", err)
        assert seconds < 2.0

    def test_huge_weight_denominators_curve(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _, seconds = run_main("curve", HUGE_WEIGHT_SPEC, "--grid", "64", "--out", str(out_path))
        assert code == 0 and seconds < 2.0
        rows = out_path.read_text().splitlines()[2:]
        assert len(rows) == 65 and rows[32] == f"0.5,{rounded_text(HUGE_WEIGHTS[0])}"

    def test_verify_system_long_reading_order(self):
        spec = "q=2; p=0.3,0.7; seq=perm(" + " ".join(map(str, range(3000, 0, -1))) + ")"
        code, out, err, seconds = run_main("verify", "system", "--spec", spec)
        assert (code, out, err) == (0, "PASS  peeling identities hold along deletion chains\n", "")
        assert seconds < 2.0

    def test_long_cantor_base_prefix(self):
        # 50,000 base entries equal to the tail base 2 normalize to q2
        point = "Q(" + ",".join(["2"] * 50_000) + "|2):[1]:zeros"
        code, out, err, seconds = run_main("eval", "q=2; p=0.3,0.7", point)
        assert (code, out, err) == (0, "0.3\n", "exact\n")
        assert seconds < 1.0

    def test_long_threshold_point(self, tmp_path):
        rng = random.Random(4000)
        digits = [rng.randrange(2) for _ in range(4000)]
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "family = itershift\nq = 2\nn = 1..8\n"
            f"threshold_point = q2:[{','.join(map(str, digits))}]:zeros\nthreshold_iter = 3\nout = {out_csv}\n"
        )
        code, _, _, seconds = run_main("measure", str(cfg))
        assert code == 0 and seconds < 2.0
        x = Fraction(int("".join(map(str, digits[3:])), 2), 2**3997)
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["itershift", str(n)] for n in range(1, 9)]
        # iterated shifts preserve Lebesgue measure, so each row's measure is x
        assert all(Fraction(int(r[2]), int(r[3])) == x == Fraction(int(r[4]), int(r[5])) for r in rows)


# near 0 and near 1: runs of one digit in a/b, b <= 10^15, are short, so the
# weights read fall to 1e-12 within a few hundred digits
FUZZ_SPECS = [
    *(f"q=2; p={1 - Fraction(1, 10**k)},{Fraction(1, 10**k)}" for k in (1, 3, 6)),
    *(f"q=2; p={Fraction(1, 10**k)},{1 - Fraction(1, 10**k)}" for k in (1, 3, 6)),
    "q=3; p=1/1000000,999998/1000000,1/1000000",
    "q=10; p=" + ",".join(["1/1000000"] * 9 + ["999991/1000000"]),
    "q=3; p=1/5,2/5,2/5; seq=perm(3 1 2)",
]
PRIMES = [2147483647, 999999000001, 999999999937, 999999999959, 999999999961, 999999999989]


@st.composite
def rational_texts(draw):
    if draw(st.booleans()):
        places = draw(st.integers(1, 15))
        n = draw(st.integers(0, 10**places + 10**places // 8))
        return f"{n // 10**places}.{n % 10**places:0{places}d}"
    den = draw(st.one_of(st.integers(1, 10**12), st.sampled_from(PRIMES)))
    return f"{draw(st.integers(0, den + den // 8))}/{den}"


# Function specs and points from bounded pieces: weights are small fractions
# and two-place decimals, so the weights read fall to 1e-12 within a few
# thousand digits; orders have at most 8 entries, exponents at most two digits
# and digit lists at most 12 entries.
def weight_tokens(q):
    # c_i / sum(c): sums to 1 unless the sum is 0; zeros and negatives included
    summing = st.lists(st.sampled_from([*range(1, 10), 0, -1]), min_size=q, max_size=q).map(
        lambda c: [f"{v}/{sum(c) or 1}" for v in c]
    )
    token = st.one_of(
        st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 20)),
        st.builds("{}.{:02d}".format, st.sampled_from(["0", "-0", "1"]), st.integers(0, 99)),
        st.sampled_from(["0", "1", "-1", "1e-1", "5E-01", "2.5e-2", "x", ""]),
    )
    loose = st.sampled_from([q - 1, q, q + 1]).flatmap(lambda n: st.lists(token, min_size=n, max_size=n))
    return st.one_of(summing, loose)


ORDERS = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.lists(st.integers(0, 9), max_size=8),
)
JUNK_PARTS = ["", " ", "r=1", "p=", "q", "=2", "seq=2 1", "seq=perm(", "p=1/2,1/2=3", "q=two"]


@st.composite
def eval_arguments(draw):
    q = draw(st.sampled_from([2, 3, 4, 10]))
    parts = [f"q={q}", "p=" + ",".join(draw(weight_tokens(q)))]
    if draw(st.booleans()):
        parts.append("seq=perm(" + " ".join(map(str, draw(ORDERS))) + ")")
    rarely = st.sampled_from([False, False, False, True])
    if draw(rarely):  # a repeated key
        parts.append(draw(st.sampled_from(parts)))
    if draw(rarely):  # an unknown key, an empty value or junk
        parts.append(draw(st.sampled_from(JUNK_PARTS)))
    spec = draw(st.sampled_from([";", "; "])).join(draw(st.permutations(parts)))
    kind = draw(st.sampled_from(["rational", "decimal", "digits"]))
    if kind == "rational":
        den = draw(st.integers(0, 10**6))
        x = f"{draw(st.integers(-den // 8, den + den // 8))}/{den}"
    elif kind == "decimal":
        places = draw(st.integers(1, 6))
        x = f"{draw(st.sampled_from(['', '', '', '-']))}0.{draw(st.integers(0, 10**places - 1)):0{places}d}"
        x += draw(st.sampled_from(["", "e1", "e-2", "E+01"]))
    else:
        base = draw(st.sampled_from([f"q{q}", f"q{q}", "q2", "q0", "q1", "qx", "Q(2,3|2)", ""]))
        digits = draw(st.lists(st.integers(-1, q) | st.just("a"), max_size=12))
        tail = draw(st.sampled_from(["zeros", "max", "ones", ""]))
        x = f"{base}:[{','.join(map(str, digits))}]:{tail}"
    return spec, x


class TestEvalFuzz:
    @given(st.sampled_from(FUZZ_SPECS), rational_texts())
    @settings(max_examples=300, deadline=None)
    def test_rational_argument(self, spec, text):
        code, out, err, _ = run_main("eval", spec, text)
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 0:
            assert re.fullmatch(r"(exact|truncation depth: \d+)\n", err)
            assert 0 <= float(out) <= 1
        else:
            assert err.startswith("error:")

    @given(eval_arguments())
    @settings(max_examples=300, deadline=None)
    def test_spec_and_point(self, arguments):
        code, out, err, _ = run_main("eval", *arguments)  # any other exception fails the test
        assert code in (0, 2)
        if code == 0:
            assert len(out.splitlines()) == 1
            assert re.fullmatch(r"(exact|truncation depth: \d+)\n", err)
        else:
            assert out == "" and err.startswith(("error:", "usage:"))


ALL_CHECKS = [
    "dual representations have equal values",
    "digit extraction round-trips terminating values",
    "notation parser and printer round-trip",
    "drop-first after m deletions at 2 equals (m+1)-fold shift",
    "consecutive deletion chain collapses to an iterated shift",
    "descending deletion chain collapses to an iterated shift",
    "deletion difference identity holds exactly",
    "one-sided gap at cylinder endpoints is -1/block(m-1)",
    "two-deletion closed form equals sequential deletions",
    "re-indexed steps of (1,5,7,3,6) are (1,4,5,2,3)",
    "re-indexed steps of (1,5,7,3,6,10,2,4,8,9) are (1,4,5,2,3,5,1,1,1,1)",
    "scheduled deletions equal direct position removal",
    "peeling identities hold along deletion chains",
    "closed form matches exact terminating-grid quadrature",
    "closed form matches exact cylinder-endpoint sums",
    "identity order is continuous at two-expansion points",
    "swapped order jumps at the first cylinder endpoint",
    "distribution function is a monotone CDF",
    "cylinder increments equal weight products (identity order)",
    "rank-r increments partition unity",
    "iterated shifts preserve Lebesgue measure",
    "Monte Carlo agrees with the exact measure",
    "iterate comparison agrees with Monte Carlo",
]


REPEATED_KEY_SPEC = "q=2; p=0.3,0.7; p=0.6,0.4"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", REPEATED_KEY_SPEC, "1/3"],
        ["curve", REPEATED_KEY_SPEC, "--grid", "4", "--out", "unused.csv"],
        ["verify", "integral", "--spec", REPEATED_KEY_SPEC],
    ],
    ids=["eval", "curve", "verify"],
)
def test_repeated_spec_key_is_a_usage_error(argv):
    code, out, err, _ = run_main(*argv)
    assert (code, out, err) == (2, "", "error: spec key p set twice\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("q=two; p=0.5,0.5", "spec key q must be an integer, got 'two'"),
        ("q=2; p=1/0,1", "p entry '1/0' is not a rational"),
        ("q=2; p=x,1", "p entry 'x' is not a rational"),
        ("q=2; p=0.5,0.5; seq=perm(a)", "seq entry 'a' must be an integer"),
    ],
    ids=["q", "p-zero-denominator", "p-junk", "seq"],
)
@pytest.mark.parametrize(
    "command",
    [["eval", "{}", "1/3"], ["curve", "{}", "--grid", "4", "--out", "unused.csv"], ["verify", "integral", "--spec", "{}"]],
    ids=["eval", "curve", "verify"],
)
def test_bad_spec_token_names_its_key(spec, message, command):
    code, out, err, _ = run_main(*(arg.format(spec) for arg in command))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# 4400 digits, past the default integer string limit of 4300
HUGE_TOKEN = "1" * 4400


@pytest.mark.parametrize(
    "argv",
    [["eval", "q=2; p=1/2,1/2", HUGE_TOKEN], ["eval", f"q=2; p={HUGE_TOKEN},1/2", "1/3"]],
    ids=["point", "p-entry"],
)
def test_huge_token_is_clipped_and_names_the_limit(argv):
    code, out, err, _ = run_main(*argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert "'" + "1" * 40 + "'... (4400 characters" in err
    assert f"integer string limit of {sys.get_int_max_str_digits()}" in err


@pytest.mark.parametrize(
    "argv, token",
    [(["eval", "q=2; p=1e-99999999,99999999/100000000", "1/3"], "p entry '1e-99999999' is not a rational")],
    ids=["p-entry"],
)
def test_exponent_past_the_int_string_limit_is_refused_at_once(argv, token):
    # building 10^99999999 would take minutes; the exponent is refused first
    out = cli_cases.run_child(["-m", "cantorshift", *argv], 20)
    limit = sys.get_int_max_str_digits()
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: {token} (past the integer string limit of {limit} digits)\n"


BIG_ENTRY = "1" * 5000


@pytest.mark.parametrize(
    "point, entry",
    [
        ("q2:[a]:zeros", "digit entry 'a'"),
        (f"q2:[{BIG_ENTRY}]:zeros", "digit entry '" + "1" * 40 + "'... (5000 characters"),
        (f"q{BIG_ENTRY}:[1]:zeros", "base entry '" + "1" * 40 + "'... (5000 characters"),
        (f"Q(2,{BIG_ENTRY}|2):[1]:zeros", "base entry '" + "1" * 40 + "'... (5000 characters"),
        ("q2:[1," + "x" * 300 + "]:zeros", "digit entry '" + "x" * 40 + "'... (300 characters)"),
    ],
    ids=["letter", "long-digit", "long-constant-base", "long-cantor-base", "long-junk"],
)
def test_bad_digit_notation_entry_is_named(point, entry):
    code, out, err, _ = run_main("eval", "q=2; p=0.3,0.7", point)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {entry}") and err.endswith(" must be an integer\n")
    assert err.count("\n") == 1 and len(err) < 200
    assert ("integer string limit" in err) == (BIG_ENTRY in point)


FLAG_COMMANDS = {
    "grid": ["curve", "q=2; p=1/2,1/2", "--out", "unused.csv", "--grid"],
    "budget": ["measure", "unused.cfg", "--budget"],
    "seed": ["measure", "unused.cfg", "--seed"],
}


@pytest.mark.parametrize("flag", sorted(FLAG_COMMANDS))
def test_huge_flag_value_is_clipped_and_names_the_limit(flag):
    # argparse rejects the value before the command runs
    code, out, err, _ = run_main(*FLAG_COMMANDS[flag], HUGE_TOKEN)
    assert (code, out) == (2, "")
    assert len(err) < 400
    assert f"argument --{flag}: invalid int value: '" + "1" * 40 + "'... (4400 characters" in err
    assert f"integer string limit of {sys.get_int_max_str_digits()}" in err


@pytest.mark.parametrize("flag", sorted(FLAG_COMMANDS))
def test_short_bad_flag_value_keeps_the_argparse_text(flag):
    code, out, err, _ = run_main(*FLAG_COMMANDS[flag], "two")
    assert (code, out) == (2, "")
    assert err.endswith(f"argument --{flag}: invalid int value: 'two'\n")


# 4000 ones parse as one integer, under the integer string limit
LONG_DIGIT = "1" * 4000


@pytest.mark.parametrize("command", ["eval", "threshold_point"])
def test_long_out_of_alphabet_digit_is_clipped(tmp_path, command):
    point = f"q2:[{LONG_DIGIT}]:zeros"
    if command == "eval":
        code, out, err, _ = run_main("eval", "q=2; p=0.3,0.7", point)
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = itershift\nq = 2\nn = 1\nthreshold_point = {point}\nout = {tmp_path / 'r.csv'}\n")
        code, out, err, _ = run_main("measure", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: digit '" + "1" * 40 + "'... (4000 characters)")
    assert err.endswith(" at position 1 outside alphabet 0..1\n")
    assert err.count("\n") == 1 and len(err) < 200


def test_base_mismatch_names_the_base():
    code, out, err, _ = run_main("eval", "q=2; p=0.3,0.7", "q3:[1]:zeros")
    assert (code, out, err) == (2, "", "error: expansion base must be q2\n")
    with pytest.raises(ValueError) as exc:
        evaluate(parse_function_spec("q=2; p=0.3,0.7"), parse_expansion("q3:[1]:zeros"))
    assert str(exc.value) == "expansion base must be q2"


def test_negative_point_after_double_dash_reaches_the_range_check():
    code, out, err, _ = run_main("eval", "q=2; p=0.3,0.7", "--", "-1/3")
    assert (code, out, err) == (2, "", "error: x must lie in [0, 1]\n")


class TestVerify:
    def test_known_suite_passes(self):
        code, out, _, _ = run_main("verify", "schedule")
        assert code == 0 and "PASS" in out and "FAIL" not in out

    def test_unknown_suite(self):
        # the suite name is checked before the spec is read
        known = ", ".join(sorted(SUITES) + ["all"])
        for spec in ([], ["--spec", "q=two"]):
            code, out, err, _ = run_main("verify", "nosuchsuite", *spec)
            assert (code, out, err) == (2, "", f"error: unknown suite 'nosuchsuite'; known: {known}\n")

    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_malformed_spec_is_a_usage_error_for_every_suite(self, suite):
        code, out, err, _ = run_main("verify", suite, "--spec", "q=two")
        assert (code, out, err) == (2, "", "error: spec key q must be an integer, got 'two'\n")

    @pytest.mark.parametrize("spec", ["", "q=3; p=1/5,2/5,2/5"], ids=["default", "q3"])
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suite_passes_in_process(self, suite, spec):
        f = parse_function_spec(spec) if spec else DEFAULT_FUNCTION
        checks = SUITES[suite](f)
        assert checks and [check for check in checks if not check[1]] == []

    def test_integral_with_spec(self):
        code, out, _, _ = run_main("verify", "integral", "--spec", "q=2;p=0.3,0.7")
        assert code == 0 and "FAIL" not in out

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_suite_passes(self, suite, capsys):
        assert main(["verify", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS  ") for line in lines)

    def test_all_prints_every_check_in_order(self, capsys):
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"PASS  {name}" for name in ALL_CHECKS]

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        # no known valid spec fails a suite, so one is made to fail
        monkeypatch.setitem(SUITES, "integral", lambda f: [("forced", False, format_function_spec(f))])
        assert main(["verify", "integral", "--spec", "q=2; p=0.3,0.7; seq=perm(2 1)"]) == 1
        assert capsys.readouterr().out == "FAIL  forced  [q=2; p=3/10,7/10; seq=perm(2 1)]\n"

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("integral", "q=2; p=0.3,0.7; seq=perm(2 1)"),
            ("all", "q=2; p=0.3,0.7; seq=perm(2 1)"),
            ("integral", LONG_ORDER_SPEC),
        ],
    )
    def test_integral_with_a_rearranged_order(self, command, spec):
        # the endpoint sums read the spec's own order up to 4096 cells, and
        # the 20-position order's weights in the identity order
        code, out, err, _ = run_main("verify", command, "--spec", spec)
        assert (code, err) == (0, "")
        assert "PASS  closed form matches exact terminating-grid quadrature\n" in out
        assert "PASS  closed form matches exact cylinder-endpoint sums\n" in out

    @pytest.mark.parametrize(
        "spec, order, k",
        [
            ("q=2; p=0.3,0.7", (), 11),
            ("q=2; p=0.3,0.7; seq=perm(2 1)", (2, 1), 11),
            ("q=3; p=1/5,2/5,2/5; seq=perm(3 1 2)", (3, 1, 2), 6),
            ("q=2; p=0.3,0.7; seq=perm(12 2 3 4 5 6 7 8 9 10 11 1)", (12, *range(2, 12), 1), 12),
            ("q=2; p=0.3,0.7; seq=perm(13 2 3 4 5 6 7 8 9 10 11 12 1)", (), 11),
            (LONG_ORDER_SPEC, (), 3),
        ],
        ids=["identity", "perm21", "perm312", "order12", "order13", "order20"],
    )
    def test_integral_reads_the_spec_order_up_to_4096_cells(self, monkeypatch, spec, order, k):
        # q^n cells at the order's length n, raised to at most 2048 cells;
        # past 4096, the weights in the identity order
        cases = []
        monkeypatch.setattr(verify, "check_endpoint_sums", lambda c: cases.extend(c) or ("sums", True, ""))
        SUITES["integral"](parse_function_spec(spec))
        [(f, depth)] = cases
        assert (f.weights, f.seq.prefix, depth) == (parse_function_spec(spec).weights, order, k)


class TestMeasure:
    def test_iter_shift_table(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_csv = tmp_path / "rows.csv"
        cfg.write_text(
            "family = itershift\nq = 2\nn = 1..5\nx = 1/3\nout = %s\n" % out_csv
        )
        assert run_main("measure", str(cfg))[0] == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 6
        assert all(line.split(",")[4:7] == ["1", "3", "exact"] for line in lines[1:])

    def test_compare_iter_row(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_csv = tmp_path / "rows.csv"
        cfg.write_text("family = compareiter\nq = 2\na = 2\nb = 1\nout = %s\n" % out_csv)
        assert run_main("measure", str(cfg))[0] == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4:7] == ["1", "2", "exact"]

    def test_threshold_from_shifted_point(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_csv = tmp_path / "rows.csv"
        cfg.write_text(
            "family = itershift\nq = 2\nn = 1..2\n"
            "threshold_point = q2:[1,0,1]:zeros\nthreshold_iter = 1\nout = %s\n" % out_csv
        )
        assert run_main("measure", str(cfg))[0] == 0
        lines = out_csv.read_text().strip().splitlines()
        # sigma(0.101b) = 0.01b = 1/4; shifts preserve measure
        assert lines[1].split(",")[2:6] == ["1", "4", "1", "4"]

    def test_threshold_point_shifted_past_its_digits(self, tmp_path):
        out_csv = tmp_path / "rows.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "family = itershift\nq = 2\nn = 1..2\n"
            "threshold_point = q2:[1,0,1]:zeros\nthreshold_iter = 1000000000\nout = %s\n" % out_csv
        )
        assert main(["measure", str(cfg)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert [line.split(",")[:7] for line in lines[1:]] == [
            ["itershift", str(n), "0", "1", "0", "1", "exact"] for n in (1, 2)
        ]

    @pytest.mark.parametrize(
        "n, budget, reason",
        [(9, 10**6, "iterate count 9 over limit 8"), (3, 7, "2^3 branches exceed budget 7")],
        ids=["iterate-limit", "budget"],
    )
    def test_fallback_log_names_the_refusal(self, tmp_path, capsys, n, budget, reason):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"family = itershift\nq = 2\nn = {n}\nx = 1/3\nsamples = 50\nbudget = {budget}\n"
            f"out = {tmp_path / 'r.csv'}\n"
        )
        assert main(["measure", str(cfg)]) == 0
        assert capsys.readouterr().err.splitlines()[0] == f"itershift {n}: {reason}, Monte Carlo fallback"

    def test_compareiter_refusal_names_the_deeper_iterate(self, tmp_path, capsys):
        # M = max(a, b) decides a comparison, so 9:11 is refused for its 11
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = compareiter\nq = 2\npsi = 9,3\nphi = 11,9\nsamples = 100\nout = {out_csv}\n")
        assert main(["measure", str(cfg)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "compareiter 9:11: iterate count 11 over limit 8, Monte Carlo fallback",
            "compareiter 3:9: iterate count 9 over limit 8, Monte Carlo fallback",
            f"wrote 2 rows to {out_csv}",
        ]
        assert out_csv.read_text() == (
            "family,param,x_num,x_den,measure_num,measure_den,method,samples,halfwidth\n"
            "compareiter,9:11,,,13,25,mc,100,0.128688\n"
            "compareiter,3:9,,,49,100,mc,100,0.128766\n"
        )

    def test_depth_decides_without_listing_positions(self, tmp_path, capsys, monkeypatch):
        def listed(_spec):
            raise AssertionError("the decision listed the deleted positions")

        monkeypatch.setattr(SetFamilySpec, "deleted_positions", listed)
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = itershift\nq = 2\nn = 1000000000\nx = 1/3\nfallback = false\nout = {out_csv}\n")
        assert main(["measure", str(cfg)]) == 4
        assert capsys.readouterr().err == "error: iterate count 1000000000 over limit 8\n"
        assert not out_csv.exists()

    def test_chain_depth_decides_without_listing_positions(self, tmp_path, capsys, monkeypatch):
        def listed(*_args):
            raise AssertionError("the decision listed the deleted positions")

        monkeypatch.setattr(measure.sh, "original_positions", listed)
        monkeypatch.setattr(SetFamilySpec, "deleted_positions", listed)
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = genchain\nq = 3\nindices = 1000000000\nx = 1/3\nfallback = false\nout = {out_csv}\n")
        assert main(["measure", str(cfg)]) == 4
        assert capsys.readouterr().err == "error: 3^1000000000 branches exceed budget 1000000\n"
        assert not out_csv.exists()

    # a sample may draw L + 16 digits: M + 16 for a threshold family and
    # |a - b| + 16 for a comparison
    L = 100000

    @pytest.mark.parametrize(
        "body, code",
        [
            (f"family = itershift\nn = {L}\nx = 1/3\n", 0),
            (f"family = itershift\nn = {L + 1}\nx = 1/3\n", 4),
            (f"family = compareiter\na = {L + 1}\nb = 1\n", 0),
            (f"family = compareiter\na = 1\nb = {L + 2}\n", 4),
            ("family = compareiter\na = 1000000000000\nb = 1000000000001\n", 0),
            (f"family = genchain\nindices = {L + 1}\nx = 1/3\n", 4),
        ],
        ids=[
            "itershift-at",
            "itershift-past",
            "compareiter-at",
            "compareiter-past",
            "compareiter-deep-close",
            "genchain-past",
        ],
    )
    def test_sample_draw_limit(self, tmp_path, capsys, body, code):
        assert measure._MAX_DRAW == self.L + 16
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"q = 2\n{body}samples = 10\nout = {out_csv}\n")
        assert main(["measure", str(cfg)]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert out_csv.read_text().splitlines()[1].split(",")[6:8] == ["mc", "10"]
        else:
            assert len(err) == 1 and err[0].endswith(f" digits, over the limit {self.L + 16}")
            assert not out_csv.exists()

    @pytest.mark.parametrize(
        "body, error",
        [
            (
                "family = genchain\nq = 3\nindices = 10000000\nx = 1/3\nfallback = false\n",
                "3^10000000 branches exceed budget 1000000",
            ),
            (
                "family = itershift\nq = 2\nn = 10000000\nx = 1/3\n",
                "iterate count 10000000 over limit 8; a sample would draw 10000016 digits, over the limit 100016",
            ),
            (
                "family = compareiter\nq = 2\na = 1000000000000\nb = 1\n",
                "iterate count 1000000000000 over limit 8; a sample would draw 1000000000015 digits, over the limit 100016",
            ),
        ],
        ids=["genchain-1e7", "itershift-1e7", "compareiter-1e12"],
    )
    def test_deep_set_is_refused_in_a_bounded_process(self, tmp_path, body, error):
        # a decision that lists, powers or draws to the depth would hit the
        # address-space limit or the timeout instead of exiting 4
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{body}out = {out_csv}\n")
        out = cli_cases.run_child(["-m", "cantorshift", "measure", str(cfg)], 20)
        assert (out.returncode, out.stdout, out.stderr) == (4, "", f"error: {error}\n")
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "setting, code",
        [("samples = 10", 0), ("fallback = false", 4)],
        ids=["fallback", "no-fallback"],
    )
    def test_branch_count_past_the_int_string_limit(self, tmp_path, setting, code):
        # 2^20000 has 6021 decimal digits; the refusal names it as a power
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = genchain\nq = 2\nindices = 20000\nx = 1/3\n{setting}\nout = {out_csv}\n")
        exit_code, _, err, _ = run_main("measure", str(cfg))
        assert exit_code == code, err
        lines = err.splitlines()
        assert "Traceback" not in err and all(len(line) < 200 for line in lines)
        refusal = "2^20000 branches exceed budget 1000000"
        if code == 0:
            # the refusal, then the count of rows written
            assert lines == [f"genchain 1: {refusal}, Monte Carlo fallback", f"wrote 1 rows to {out_csv}"]
            assert out_csv.read_text().splitlines()[1].split(",")[6] == "mc"
        else:
            assert lines == [f"error: {refusal}"]
            assert not out_csv.exists()

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("family = itershift\nq = 2\nn = 1..3\nbogus = 1\n")
        assert run_main("measure", str(cfg))[0] == 2

    def test_budget_without_fallback(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "family = itershift\nq = 2\nn = 9..9\nx = 1/3\nfallback = false\nout = %s\n"
            % (tmp_path / "r.csv")
        )
        assert run_main("measure", str(cfg))[0] == 4

    def test_missing_config_is_io_error(self, tmp_path):
        assert run_main("measure", str(tmp_path / "missing.cfg"))[0] == 3

    def test_unwritable_out_is_io_error(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_csv = tmp_path / "missing" / "rows.csv"
        cfg.write_text("family = itershift\nq = 2\nn = 1..2\nx = 1/3\nout = %s\n" % out_csv)
        code, out, err, _ = run_main("measure", str(cfg))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_render_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def refuse(rows):
            raise ValueError("cannot render")

        monkeypatch.setattr(measure, "rows_to_csv", refuse)
        err = _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1\nx = 1/3\n")
        assert err.endswith("error: cannot render\n")


def _measure_usage_error(tmp_path, capsys, body, *flags):
    """Run a config that must exit 2 and write nothing; returns stderr."""
    cfg = tmp_path / "exp.cfg"
    out_csv = tmp_path / "rows.csv"
    cfg.write_text(body + "out = %s\n" % out_csv)
    code = main(["measure", str(cfg), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert not out_csv.exists()
    return err


class TestMeasureInputs:
    def test_threshold_above_one(self, tmp_path, capsys):
        _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1..2\nx = 3/2\n")

    def test_zero_samples_with_fallback(self, tmp_path, capsys):
        _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 9..9\nx = 1/3\nsamples = 0\n")

    def test_negative_budget_in_config(self, tmp_path, capsys):
        _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1..2\nx = 1/3\nbudget = -5\n")

    # gk_scan checks the budget that --budget sets, before the seed
    def test_zero_budget_flag(self, tmp_path, capsys):
        err = _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1..2\nx = 1/3\n", "--budget", "0")
        assert err == "error: budget must be >= 1\n"

    def test_zero_budget_flag_with_negative_seed(self, tmp_path, capsys):
        body = "family = itershift\nq = 2\nn = 1..2\nx = 1/3\n"
        err = _measure_usage_error(tmp_path, capsys, body, "--budget", "0", "--seed", "-3")
        assert err == "error: budget must be >= 1\n"

    # Random(-s) draws the stream of Random(s): with seed -3 rows 1 and 5
    # (seeds -2 and 2) of this scan would print the same estimate
    def test_negative_seed_flag(self, tmp_path, capsys):
        body = "family = itershift\nq = 2\nn = 12\nx = 1/3, 1/3, 1/3, 1/3, 1/3\nsamples = 1000\n"
        err = _measure_usage_error(tmp_path, capsys, body, "--seed", "-3")
        assert err == "error: seed must be >= 0\n"

    # the scan refuses the seed before it decides any set, exact or sampled
    def test_negative_seed_flag_on_exact_sets(self, tmp_path, capsys):
        body = "family = itershift\nq = 2\nn = 1..2\nx = 1/3\n"
        err = _measure_usage_error(tmp_path, capsys, body, "--seed", "-3")
        assert err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize("limit, fallback", [("0", "true"), ("-3", "false")])
    def test_iter_limit_below_one(self, tmp_path, capsys, limit, fallback):
        _measure_usage_error(
            tmp_path,
            capsys,
            f"family = itershift\nq = 2\nn = 1..2\nx = 1/3\niter_limit = {limit}\nfallback = {fallback}\n",
        )

    @pytest.mark.parametrize(
        "family_lines",
        ["family = itershift\nn = 1..2\n", "family = genchain\nindices = 2,2\n", "family = schedulechain\npsi = 2,3\n"],
        ids=["itershift", "genchain", "schedulechain"],
    )
    def test_threshold_family_without_thresholds(self, tmp_path, capsys, family_lines):
        _measure_usage_error(tmp_path, capsys, family_lines + "q = 2\n")

    def test_x_with_threshold_point(self, tmp_path, capsys):
        _measure_usage_error(
            tmp_path,
            capsys,
            "family = itershift\nq = 2\nn = 1..2\nx = 1/3\nthreshold_point = q2:[1]:zeros\n",
        )

    @pytest.mark.parametrize(
        "family_lines",
        [
            "family = compareiter\na = 2\nb = 1\nx = 1/3\n",
            "family = compareiter\na = 2\nb = 1\nthreshold_point = q2:[1]:zeros\n",
            "family = compareiter\na = 2\nb = 1\npsi = 3\nphi = 1\n",
            "family = itershift\nn = 1..2\nx = 1/3\nthreshold_iter = 3\n",
            "family = itershift\nn = 1..2\nx = 1/3\ncount = 5\n",
            "family = itershift\nn = 1..2\nx = 1/3\nindices = 1,2\n",
            "family = genchain\nindices = 2,2\npsi = 3,1\nx = 1/3\n",
        ],
        ids=[
            "compareiter-x",
            "compareiter-threshold_point",
            "compareiter-ab-and-tables",
            "threshold_iter-without-point",
            "itershift-count",
            "itershift-indices",
            "genchain-indices-and-psi",
        ],
    )
    def test_key_the_family_does_not_read(self, tmp_path, capsys, family_lines):
        _measure_usage_error(tmp_path, capsys, family_lines + "q = 2\n")

    @pytest.mark.parametrize(
        "family_lines",
        ["family = genchain\nindices = 2,3,1\n", "family = schedulechain\npsi = 2,3,1\n"],
        ids=["genchain", "schedulechain"],
    )
    @pytest.mark.parametrize("count", ["-1", "0", "4", "2..4"])
    def test_count_outside_the_table(self, tmp_path, capsys, family_lines, count):
        # unchecked, count = -1 would slice table[:-1], a two-index chain
        err = _measure_usage_error(tmp_path, capsys, family_lines + f"q = 2\ncount = {count}\nx = 1/3\n")
        assert "count must lie in 1..3" in err

    def test_repeated_key(self, tmp_path, capsys):
        err = _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1\nn = 2\nx = 1/3\n")
        assert err == "error: line 4: key n set twice\n"

    def test_unread_key_names_its_line(self, tmp_path, capsys):
        err = _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1..3\nbogus = 1\nx = 1/3\n")
        assert err == "error: line 4: itershift does not read bogus\n"

    @pytest.mark.parametrize("tables", ["psi =\nphi =\n", "psi = ,\nphi = ,\n"], ids=["empty", "commas"])
    def test_empty_compare_tables(self, tmp_path, capsys, tables):
        _measure_usage_error(tmp_path, capsys, "family = compareiter\nq = 2\n" + tables)

    @pytest.mark.parametrize("x_line", ["x =\n", "x = ,\n"], ids=["empty", "comma"])
    def test_empty_threshold_list(self, tmp_path, capsys, x_line):
        _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1..2\n" + x_line)

    @pytest.mark.parametrize(
        "body, line, key",
        [
            pytest.param("family = itershift\nq = two\nn = 1\nx = 1/3\n", 2, "q", id="q"),
            pytest.param("family = itershift\nq = 2\nn = two\nx = 1/3\n", 3, "n", id="n"),
            pytest.param("family = itershift\nq = 2\nn = 1..two\nx = 1/3\n", 3, "n", id="n-range"),
            pytest.param("family = genchain\nq = 2\nindices = 2,two\nx = 1/3\n", 3, "indices entry", id="indices"),
            pytest.param("family = schedulechain\nq = 2\npsi = two,1\nx = 1/3\n", 3, "psi entry", id="psi"),
            pytest.param("family = genchain\nq = 2\nindices = 2,1\ncount = two..2\nx = 1/3\n", 4, "count", id="count"),
            pytest.param("family = compareiter\nq = 2\na = two\nb = 1\n", 3, "a", id="a"),
            pytest.param("family = compareiter\nq = 2\na = 2\nb = two\n", 4, "b", id="b"),
            pytest.param("family = compareiter\nq = 2\npsi = 2\nphi = two\n", 4, "phi entry", id="phi"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nsamples = two\n", 5, "samples", id="samples"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nseed = two\n", 5, "seed", id="seed"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nbudget = two\n", 5, "budget", id="budget"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\niter_limit = two\n", 5, "iter_limit", id="iter_limit"),
            pytest.param("family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1]:zeros\nthreshold_iter = two\n", 5, "threshold_iter", id="threshold_iter"),
        ],
    )
    def test_non_integer_value_names_key_and_line(self, tmp_path, capsys, body, line, key):
        err = _measure_usage_error(tmp_path, capsys, body)
        assert err == f"error: line {line}: {key} must be an integer, got 'two'\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param(
                "family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1]:zeros\nthreshold_iter = -1\n",
                "line 5: threshold_iter must be >= 0",
                id="threshold_iter",
            ),
            pytest.param("family = itershift\nq = 1\nn = 1\nx = 1/3\n", "line 2: q must be >= 2", id="q"),
            pytest.param("family = itershift\nq = 2\nn = 0..2\nx = 1/3\n", "line 3: n must be >= 1", id="n"),
            pytest.param("family = genchain\nq = 2\nindices = 0,1\nx = 1/3\n", "line 3: indices must be >= 1", id="indices"),
            pytest.param("family = schedulechain\nq = 2\npsi = 2,-1\nx = 1/3\n", "line 3: psi must be >= 1", id="psi"),
            pytest.param("family = compareiter\nq = 2\na = 0\nb = 1\n", "line 3: a must be >= 1", id="a"),
            pytest.param("family = compareiter\nq = 2\na = 2\nb = -3\n", "line 4: b must be >= 1", id="b"),
            pytest.param("family = compareiter\nq = 2\npsi = 2,1\nphi = 1,0\n", "line 4: phi must be >= 1", id="phi"),
        ],
    )
    def test_value_below_its_range_names_key_and_line(self, tmp_path, capsys, body, message):
        err = _measure_usage_error(tmp_path, capsys, body)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3, 3/2\n", "line 4: x must lie in [0, 1]", id="x"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nbudget = 0\n", "line 5: budget must be >= 1", id="budget"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nseed = -3\n", "line 5: seed must be >= 0", id="seed"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\niter_limit = 0\n", "line 5: iter_limit must be >= 1", id="iter_limit"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nsamples = 0\n", "line 5: samples must be >= 1", id="samples"),
            pytest.param(
                "family = genchain\nq = 2\nindices = 2,1\ncount = 3\nx = 1/3\n",
                "line 4: count must lie in 1..2, the lookup table length",
                id="count",
            ),
            pytest.param("family = itershift\nq = 2\nn = 5..3\nx = 1/3\n", "line 3: n range '5..3' is empty", id="empty-range"),
            pytest.param("family = itershift\nq = 2\nn = 1\nx = 1/3\nfallback = maybe\n", "line 5: fallback must be true or false", id="fallback"),
        ],
    )
    def test_setting_out_of_range_names_its_line(self, tmp_path, capsys, body, message):
        err = _measure_usage_error(tmp_path, capsys, body)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "body, line, key",
        [
            pytest.param("family = itershift\nq = 2\nn = 1..100000000000000000000\nx = 1/3\n", 3, "n", id="n"),
            pytest.param(
                "family = genchain\nq = 2\nindices = 2,2\ncount = 1..100000000000000000000\nx = 1/3\n", 4, "count", id="count"
            ),
        ],
    )
    def test_range_python_cannot_size(self, tmp_path, capsys, body, line, key):
        err = _measure_usage_error(tmp_path, capsys, body)
        assert err == f"error: line {line}: {key} range '1..100000000000000000000' has more than {sys.maxsize} entries\n"

    def test_n_range_is_bounded_before_any_set_is_built(self, tmp_path, capsys, monkeypatch):
        calls = []

        def build(q, n):
            # fail on the first set, so an unbounded range stops at once
            calls.append(n)
            raise AssertionError("a set was built")

        monkeypatch.setattr(SetFamilySpec, "iter_shift", build)
        body = "family = itershift\nq = 2\nn = 1..1000000000\nx = 1/3\n"
        err = _measure_usage_error(tmp_path, capsys, body)
        assert err == "error: line 3: n range '1..1000000000' has more than 100000 entries\n"
        assert calls == []

    def test_n_range_bound_is_inclusive(self):
        assert len(parse_config("family = itershift\nq = 2\nn = 5..100004\nx = 1/3\n").specs) == 100000
        with pytest.raises(ValueError, match=r"^line 3: n range '5\.\.100005' has more than 100000 entries$"):
            parse_config("family = itershift\nq = 2\nn = 5..100005\nx = 1/3\n")

    def test_count_range_is_checked_by_its_ends(self, tmp_path, capsys):
        # listing this range would take 8 TB
        body = "family = genchain\nq = 2\nindices = 2,2\ncount = 1..1000000000000\nx = 1/3\n"
        start = time.perf_counter()
        err = _measure_usage_error(tmp_path, capsys, body)
        assert time.perf_counter() - start < 1
        assert err == "error: line 4: count must lie in 1..2, the lookup table length\n"

    def test_count_range_total_is_bounded_in_a_bounded_process(self, tmp_path):
        # 1..30000 lists 450,015,000 chain indices: building them would hit
        # the address-space limit instead of exiting 2
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        indices = ",".join(["1"] * 30000)
        cfg.write_text(f"family = genchain\nq = 2\nindices = {indices}\ncount = 1..30000\nx = 1/3\nout = {out_csv}\n")
        out = cli_cases.run_child(["-m", "cantorshift", "measure", str(cfg)], 5)
        error = "error: line 4: count range '1..30000' lists more than 1000000 chain indices\n"
        assert (out.returncode, out.stdout, out.stderr) == (2, "", error)
        assert not out_csv.exists()

    def test_count_range_total_bound_is_inclusive(self):
        # a range lists (lo + hi)(hi - lo + 1)/2 indices: 998,991 for 1..1413
        # and 1,000,405 for 1..1414, against max(10^6, the table's length)
        body = "family = genchain\nq = 2\nindices = {}\ncount = 1..{}\nx = 1/3\n"
        specs = parse_config(body.format(",".join(["1"] * 1413), 1413)).specs
        assert len(specs) == 1413 and sum(len(s.indices) for s in specs) == 998991
        with pytest.raises(ValueError, match=r"^line 4: count range '1\.\.1414' lists more than 1000000 chain indices$"):
            parse_config(body.format(",".join(["1"] * 1414), 1414))

    def test_single_count_passes_past_the_index_limit(self):
        # one count lists at most its table, even one longer than 10^6
        cfg = parse_config("family = genchain\nq = 2\nindices = %s\ncount = 1000001\nx = 1/3\n" % ",".join(["1"] * 1000001))
        assert [len(s.indices) for s in cfg.specs] == [1000001]

    def test_threshold_point_past_the_int_string_limit(self, tmp_path, capsys):
        # 4400 decimal ones: the value's denominator 10^4400 has too many digits to print
        point = "q10:[" + ",".join(["1"] * 4400) + "]:zeros"
        err = _measure_usage_error(tmp_path, capsys, f"family = itershift\nq = 10\nn = 1\nthreshold_point = {point}\n")
        assert err == f"error: line 4: threshold_point value has more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize("x", ["1e-4300", "0." + "0" * 4299 + "1"], ids=["e-4300", "decimal"])
    def test_threshold_past_the_int_string_limit_is_refused_before_any_row(self, tmp_path, x):
        # its denominator has more digits than the CSV can print; the scan
        # used to run, then fail to render and leave an empty CSV
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = itershift\nq = 2\nn = 1\nx = {x}\nout = {out_csv}\n")
        out = cli_cases.run_child(["-m", "cantorshift", "measure", str(cfg)], 20)
        limit = sys.get_int_max_str_digits()
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: cannot parse rational {quote_token(x)} (past the integer string limit of {limit} digits)\n"
        assert not out_csv.exists()

    def test_threshold_at_the_int_string_limit_still_prints(self, tmp_path):
        # 10^4299 has 4300 digits, the default limit, and prints
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = itershift\nq = 2\nn = 1\nx = 1e-4299\nout = {out_csv}\n")
        out = cli_cases.run_child(["-m", "cantorshift", "measure", str(cfg)], 20)
        assert out.returncode == 0, out.stderr
        assert out_csv.read_text().splitlines()[1].startswith(f"itershift,1,1,{10**4299},1,{10**4299},exact,")

    def test_threshold_point_with_a_bad_digit_entry(self, tmp_path, capsys):
        err = _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1,a]:zeros\n")
        assert err == "error: digit entry 'a' must be an integer\n"

    def test_huge_integer_is_clipped_and_names_the_limit(self, tmp_path, capsys):
        err = _measure_usage_error(tmp_path, capsys, f"family = itershift\nq = 2\nn = 1\nx = 1/3\nseed = {HUGE_TOKEN}\n")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("error: line 5: seed must be an integer, got '" + "1" * 40 + "'... (4400 characters")
        assert f"integer string limit of {sys.get_int_max_str_digits()}" in err

    def test_non_ascii_config(self, tmp_path, capsys):
        err = _measure_usage_error(tmp_path, capsys, "family = itershift\nq = 2\nn = 1\nx = 1/3 \u00e9\n")
        assert "not ASCII" in err


class TestMeasureConfig:
    def test_parse_builds_specs_and_grid(self):
        cfg = parse_config("family = schedulechain\nq = 3\npsi = 2,3,1\ncount = 2..3\nx = 1/3, 1/2\n")
        assert cfg.specs == (
            SetFamilySpec(FamilyKind.SCHEDULE_CHAIN, 3, indices=(2, 3)),
            SetFamilySpec(FamilyKind.SCHEDULE_CHAIN, 3, indices=(2, 3, 1)),
        )
        assert cfg.x_grid == (Fraction(1, 3), Fraction(1, 2))
        assert (cfg.samples, cfg.seed, cfg.fallback, cfg.out) == (100000, 0, True, "measures.csv")

    def test_samples_unchecked_without_fallback(self):
        cfg = parse_config("family = itershift\nq = 2\nn = 1\nx = 1/3\nsamples = 0\nfallback = false\n")
        assert (cfg.samples, cfg.fallback) == (0, False)

    def test_threshold_from_shifted_point(self):
        cfg = parse_config("family = itershift\nq = 2\nn = 1\nthreshold_point = q2:[1,0,1]:zeros\nthreshold_iter = 1\n")
        assert cfg.x_grid == (Fraction(1, 4),)

    def test_frozen_and_replaced(self):
        # a replaced budget is checked by gk_scan, which every budget reaches
        cfg = parse_config("family = compareiter\nq = 2\na = 2\nb = 1\n")
        assert cfg.x_grid == ()
        with pytest.raises(AttributeError, match="^cannot assign to field 'budget'$"):
            cfg.budget = 5
        assert cfg.budget == measure.DEFAULT_BRANCH_BUDGET
        assert cfg._replace(budget=5) == MeasureConfig(cfg.specs, (), 100000, 0, 5, 8, True, "measures.csv")


# Config text from bounded pieces: every integer, range end and count is at
# most 8 in absolute value, q is 2 or 3 (or not a base at all) and samples at
# most 50, so no draw builds a large range, grid, sample count or exponent.
small = st.integers(-8, 8)


def int_lists(min_size, max_size):
    return st.lists(st.integers(1, 8), min_size=min_size, max_size=max_size).map(lambda v: ",".join(map(str, v)))


PLAUSIBLE = {
    "q": st.sampled_from(["2", "3"]),
    "n": st.builds("{}..{}".format, st.integers(1, 4), st.integers(4, 8)) | st.integers(1, 8).map(str),
    "x": st.lists(
        st.integers(1, 8).flatmap(lambda d: st.builds("{}/{}".format, st.integers(0, d), st.just(d))),
        min_size=1,
        max_size=3,
    ).map(", ".join),
    "indices": int_lists(2, 3),
    "psi": int_lists(2, 2),
    "phi": int_lists(2, 2),
    "count": st.sampled_from(["1", "2", "1..2"]),
    "a": st.integers(1, 8).map(str),
    "b": st.integers(1, 8).map(str),
    "threshold_point": st.builds(
        "q{}:[{}]:{}".format,
        st.sampled_from([2, 3]),
        st.lists(st.integers(0, 1), max_size=4).map(lambda v: ",".join(map(str, v))),
        st.sampled_from(["zeros", "max"]),
    ),
    "threshold_iter": st.integers(0, 8).map(str),
    "seed": small.map(str),
    "budget": st.integers(1, 8).map(str),
    "iter_limit": st.integers(1, 8).map(str),
    "fallback": st.sampled_from(["true", "false", "yes", "no"]),
    "out": st.just("unused.csv"),
}
# the keys a family reads, in each of its shapes
SHAPES = {
    "itershift": [["n", "x"], ["n", "threshold_point", "threshold_iter"]],
    "genchain": [["indices", "count", "x"]],
    "schedulechain": [["psi", "count", "x"]],
    "compareiter": [["a", "b"], ["psi", "phi"]],
}
SETTINGS = ["seed", "budget", "iter_limit", "fallback", "out"]
# negative numbers, reversed or empty ranges, bad fractions and expansions, garbage
BAD_VALUES = st.one_of(
    small.map(str),
    st.builds("{}..{}".format, small, small),
    st.lists(small, max_size=3).map(lambda v: ",".join(map(str, v))),
    st.lists(st.builds("{}/{}".format, small, small), max_size=3).map(", ".join),
    st.builds("q2:[{}]:{}".format, small, st.sampled_from(["zeros", "ones"])),
    st.sampled_from([*SHAPES, "bogus", "maybe"]),
    st.text(alphabet="abxyz_/.,:-[] #=\u00e9", max_size=6),
)


@st.composite
def measure_configs(draw):
    family = draw(st.sampled_from(sorted(SHAPES) + ["bogus"]))
    keys = ["family", "q", *draw(st.sampled_from(SHAPES.get(family, [[]])))]
    keys += draw(st.lists(st.sampled_from(SETTINGS), unique=True))
    if draw(st.integers(0, 3)) == 0:  # an unread, unknown or repeated key
        keys.append(draw(st.sampled_from([*PLAUSIBLE.keys() - {"q"}, "samples", "bogus", ""])))
    lines = []
    for key in keys:
        if draw(st.integers(0, 15)) == 0:
            continue  # a missing line
        if key == "family":
            value = family
        elif draw(st.integers(0, 11)) == 0:
            value = draw(st.sampled_from(["1", "-2", "", "two"]) if key == "q" else BAD_VALUES)
        else:
            value = draw(PLAUSIBLE.get(key, BAD_VALUES))
        lines.append(f"{key} = {value}")
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(["garbage", "= 1", "# comment", ""])))
    lines = draw(st.permutations(lines))
    # without a samples line each Monte Carlo row would draw 100000 samples
    lines.append(f"samples = {draw(st.integers(-8, 50))}")
    return "\n".join(lines) + "\n"


flag_values = st.none() | small.map(str) | st.just("two")


class TestMeasureFuzz:
    @given(measure_configs(), flag_values, flag_values)
    @settings(max_examples=200, deadline=None)
    def test_config_and_flags(self, text, budget, seed):
        with tempfile.TemporaryDirectory() as work:
            cfg, out_csv = Path(work) / "exp.cfg", Path(work) / "rows.csv"
            cfg.write_text(text, encoding="utf-8")
            argv = ["measure", str(cfg), "--out", str(out_csv)]
            argv += ["--budget", budget] if budget is not None else []
            argv += ["--seed", seed] if seed is not None else []
            code, _, err, _ = run_main(*argv)  # any other exception fails the test
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert out_csv.read_text().startswith("family,param,")
            else:
                assert err.startswith(("error:", "usage:"))
                assert not out_csv.exists()


class TestMainEntry:
    def test_in_process_eval(self, capsys):
        code = main(["eval", "q=2;p=0.5,0.5", "0.25"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "0.25"
