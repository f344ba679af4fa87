import random
import re
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
from cantorshift.expansions import parse_expansion
from cantorshift.salem import evaluate, format_function_spec, parse_function_spec
from cantorshift.verify import DEFAULT_FUNCTION, SUITES
from oracles import salem_value_exact
import cli_cases


ROWS = {case.id: case for case in cli_cases.CASES}
# Each CASES row is checked once here.  A test written before the table keeps
# its name, so the suite's test ids stay put, and checks the rows its command
# lines became: a parametrized test through ``rows``, a plain one through a
# default argument ``row(...)``, which pytest leaves alone.  test_cli_case,
# last in this module, checks every other row.
_NAMED: set[str] = set()


def rows(ids: dict[str, str]):
    """Parametrize a test over CASES rows, given as {test id: row id}."""
    _NAMED.update(ids.values())
    return pytest.mark.parametrize("case", [ROWS[row] for row in ids.values()], ids=list(ids))


def row(*ids: str) -> tuple[cli_cases.Case, ...]:
    """The CASES rows ``ids``, bound as a test's default argument."""
    _NAMED.update(ids)
    return tuple(ROWS[id] for id in ids)


def check(*cases: cli_cases.Case) -> None:
    """Every row's list of mismatches is empty; a failure names the row."""
    assert [(case.id, cli_cases.run(case)) for case in cases] == [(case.id, []) for case in cases]


def test_cli_cases_names_a_failing_row(capsys):
    # a runner that passed every row would leave the CI step green
    wrong = cli_cases.Case("wrong-exit-code", ("eval", "q=2; p=0.3,0.7", "1/3"), 1)
    assert cli_cases.main([wrong]) == 1
    assert capsys.readouterr().out == "FAIL  wrong-exit-code: exit 0, expected 1\n"


LONG_ORDER_SPEC = cli_cases.LONG_ORDER_SPEC


class TestEval:
    def test_identity_third(self, cases=row("eval-identity-third")):
        check(*cases)

    def test_digit_notation_input(self, cases=row("eval-digit-notation")):
        check(*cases)

    def test_terminating_point_is_exact(self, cases=row("eval-terminating")):
        check(*cases)

    def test_digit_notation_is_exact(self, cases=row("eval-digit-notation-max")):
        check(*cases)

    def test_weights_must_sum_to_one(self, cases=row("eval-weights-sum")):
        check(*cases)

    def test_base_mismatch(self, cases=row("eval-base-mismatch")):
        check(*cases)

    def test_reading_order_longer_than_series_depth(self, cases=row("eval-long-order")):
        check(*cases)


class TestCurve:
    def test_small_grid(self, cases=row("curve-small-grid")):
        check(*cases)

    def test_identity_grid(self, cases=row("curve-identity-grid")):
        check(*cases)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli_cases.in_process(("curve", "q=3;p=1/5,2/5,2/5", "--grid", "7", "--out", str(a)))
        cli_cases.in_process(("curve", "q=3;p=1/5,2/5,2/5", "--grid", "7", "--out", str(b)))
        assert a.read_bytes() == b.read_bytes()

    def test_grid_guard(self, cases=row("curve-grid-guard")):
        check(*cases)

    @rows({"grid": "curve-bad-grid", "spec": "curve-bad-spec"})
    def test_bad_input_writes_no_file(self, case):
        check(case)

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

    def test_unwritable_path(self, cases=row("curve-unwritable")):
        check(*cases)

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

    def test_period_closes_before_the_cut(self, cases=row("eval-period-closes")):
        check(*cases)

    def test_curve_row_at_five_eighths(self, cases=row("curve-five-eighths")):
        check(*cases)

    @rows({
        "q=2; p=9999/10000,1/10000-0.99989999": "eval-near-one-4",
        "q=2; p=99999/100000,1/100000-0.9999899999": "eval-near-one-5",
    })
    def test_weights_near_one(self, case):
        check(case)

    @pytest.mark.parametrize(
        "spec, grid", [(spec, 256) for spec in ROUNDING_SPECS] + [(SPEC_315, 997)]
    )
    def test_curve_rows_are_correctly_rounded(self, tmp_path, spec, grid):
        out_path = tmp_path / "curve.csv"
        assert cli_cases.in_process(("curve", spec, "--grid", str(grid), "--out", str(out_path)))[0] == 0
        f = parse_function_spec(spec)
        w = f.weights
        rows = [line.split(",")[1] for line in out_path.read_text().splitlines()[2:]]
        expected = [rounded_text(salem_value_exact(w.beta, w.p, f.seq.prefix, i, grid, w.q)) for i in range(grid + 1)]
        assert rows == expected

    @rows({"digit-notation": "eval-tie-digit-notation"})
    def test_exact_value_on_a_tie_rounds_half_to_even(self, case):
        check(case)

    def test_long_reading_order(self, cases=row("eval-long-reading-order")):
        check(*cases)

    @pytest.mark.parametrize("seq", ["", "; seq=perm(3 2 1)"], ids=["identity", "perm"])
    def test_cut_after_a_zero_weight_is_exact(self, seq):
        # 1/7 = 0.(010212) in base 3; the digit 1 has weight 0, so every term
        # after the second digit read is 0
        code, out, err = cli_cases.in_process(("eval", f"q=3; p=1/2,0,1/2{seq}", "1/7"))
        half = Fraction(1, 2)
        exact = salem_value_exact([0, half, half], [half, 0, half], (3, 2, 1) if seq else (), 1, 7, 3)
        assert exact == Fraction(1, 4)
        assert (code, out, err) == (0, "0.25\n", "exact\n")

    def test_weight_that_underflows_to_zero_keeps_the_cut(self, cases=row("eval-weight-underflow")):
        check(*cases)

    def test_long_period_is_cut(self, cases=row("eval-long-period")):
        check(*cases)


# weights whose denominator has 1200 digits
HUGE_DEN = 10**1199 + 7
HUGE_WEIGHTS = (Fraction(HUGE_DEN // 3, HUGE_DEN), Fraction(HUGE_DEN - HUGE_DEN // 3, HUGE_DEN))
HUGE_WEIGHT_SPEC = f"q=2; p={HUGE_WEIGHTS[0]},{HUGE_WEIGHTS[1]}"


class TestHeavyInputs:
    """Inputs near the size limits stay fast: each command takes under 2 s."""

    @pytest.mark.parametrize("num, den", [(1, 3), (5, 7)])
    def test_huge_weight_denominators_at_periodic_points(self, num, den):
        started = time.monotonic()
        code, out, err = cli_cases.in_process(("eval", HUGE_WEIGHT_SPEC, f"{num}/{den}"))
        assert time.monotonic() - started < 2.0
        exact = salem_value_exact([0, HUGE_WEIGHTS[0]], HUGE_WEIGHTS, (), num, den, 2)
        assert (code, out, err) == (0, rounded_text(exact) + "\n", "exact\n")

    def test_huge_weight_denominators_at_a_long_period(self, cases=row("eval-huge-weights-long-period")):
        check(*cases)

    def test_huge_weight_denominators_curve(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        started = time.monotonic()
        code, _, err = cli_cases.in_process(("curve", HUGE_WEIGHT_SPEC, "--grid", "64", "--out", str(out_path)))
        assert time.monotonic() - started < 2.0
        assert code == 0, err
        rows = out_path.read_text().splitlines()[2:]
        assert len(rows) == 65 and rows[32] == f"0.5,{rounded_text(HUGE_WEIGHTS[0])}"

    def test_verify_system_long_reading_order(self, cases=row("verify-system-long-order")):
        check(*cases)

    def test_long_cantor_base_prefix(self, cases=row("eval-long-cantor-prefix")):
        check(*cases)

    def test_long_threshold_point(self, tmp_path):
        rng = random.Random(4000)
        digits = [rng.randrange(2) for _ in range(4000)]
        out_csv = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "family = itershift\nq = 2\nn = 1..8\n"
            f"threshold_point = q2:[{','.join(map(str, digits))}]:zeros\nthreshold_iter = 3\nout = {out_csv}\n"
        )
        started = time.monotonic()
        code, _, err = cli_cases.in_process(("measure", str(cfg)))
        assert time.monotonic() - started < 2.0
        assert code == 0, err
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
        code, out, err = cli_cases.in_process(("eval", spec, text))
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            assert re.fullmatch(r"(exact|truncation depth: \d+)\n", err)
            assert 0 <= float(out) <= 1
        else:
            assert err.startswith("error:")

    @given(eval_arguments())
    @settings(max_examples=300, deadline=None)
    def test_spec_and_point(self, arguments):
        code, out, err = cli_cases.in_process(("eval", *arguments))  # an exception leaves code None
        assert code in (0, 2), err
        if code == 0:
            assert len(out.splitlines()) == 1
            assert re.fullmatch(r"(exact|truncation depth: \d+)\n", err)
        else:
            assert out == "" and err.startswith(("error:", "usage:"))


COMMANDS = ("eval", "curve", "verify")


@rows({command: f"{command}-repeated-key" for command in COMMANDS})
def test_repeated_spec_key_is_a_usage_error(case):
    check(case)


@rows({f"{command}-{key}": f"{command}-spec-{key}" for command in COMMANDS for key, _, _ in cli_cases.BAD_SPECS})
def test_bad_spec_token_names_its_key(case):
    check(case)


@rows({"point": "eval-huge-point", "p-entry": "eval-huge-p-entry"})
def test_huge_token_is_clipped_and_names_the_limit(case):
    check(case)


@rows({"p-entry": "eval-p-exponent-past-limit"})
def test_exponent_past_the_int_string_limit_is_refused_at_once(case):
    check(case)


@rows({name: f"eval-digits-{name}"
       for name in ("letter", "long-digit", "long-constant-base", "long-cantor-base", "long-junk")})
def test_bad_digit_notation_entry_is_named(case):
    check(case)


@rows({flag: f"{flag}-flag-huge" for flag in cli_cases.FLAG_COMMANDS})
def test_huge_flag_value_is_clipped_and_names_the_limit(case):
    check(case)


@rows({flag: f"{flag}-flag-two" for flag in cli_cases.FLAG_COMMANDS})
def test_short_bad_flag_value_keeps_the_argparse_text(case):
    check(case)


@rows({"eval": "eval-long-digit", "threshold_point": "measure-long-digit"})
def test_long_out_of_alphabet_digit_is_clipped(case):
    check(case)


def test_base_mismatch_names_the_base():
    # the command's refusal is the eval-base-mismatch row
    with pytest.raises(ValueError) as exc:
        evaluate(parse_function_spec("q=2; p=0.3,0.7"), parse_expansion("q3:[1]:zeros"))
    assert str(exc.value) == "expansion base must be q2"


def test_negative_point_after_double_dash_reaches_the_range_check(cases=row("eval-negative-point")):
    check(*cases)


class TestVerify:
    def test_unknown_suite(self, cases=row("verify-unknown-suite", "verify-unknown-suite-bad-spec")):
        check(*cases)

    @rows({suite: f"verify-{suite}-bad-spec" for suite in [*SUITES, "all"]})
    def test_malformed_spec_is_a_usage_error_for_every_suite(self, case):
        check(case)

    @pytest.mark.parametrize("spec", ["", "q=3; p=1/5,2/5,2/5"], ids=["default", "q3"])
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suite_passes_in_process(self, suite, spec):
        f = parse_function_spec(spec) if spec else DEFAULT_FUNCTION
        checks = SUITES[suite](f)
        assert checks and [check for check in checks if not check[1]] == []

    def test_integral_with_spec(self, cases=row("verify-integral-spec")):
        check(*cases)

    @rows({suite: f"verify-{suite}" for suite in sorted(SUITES)})
    def test_every_suite_passes(self, case):
        check(case)

    def test_all_prints_every_check_in_order(self, cases=row("verify-all")):
        check(*cases)

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        # no known valid spec fails a suite, so one is made to fail
        monkeypatch.setitem(SUITES, "integral", lambda f: [("forced", False, format_function_spec(f))])
        assert main(["verify", "integral", "--spec", "q=2; p=0.3,0.7; seq=perm(2 1)"]) == 1
        assert capsys.readouterr().out == "FAIL  forced  [q=2; p=3/10,7/10; seq=perm(2 1)]\n"

    @rows({
        "integral-q=2; p=0.3,0.7; seq=perm(2 1)": "verify-integral-perm21",
        "all-q=2; p=0.3,0.7; seq=perm(2 1)": "verify-all-perm21",
        f"integral-{LONG_ORDER_SPEC}": "verify-integral-order20",
    })
    def test_integral_with_a_rearranged_order(self, case):
        check(case)

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
    def test_iter_shift_table(self, cases=row("measure-itershift-table")):
        check(*cases)

    def test_compare_iter_row(self, cases=row("measure-compareiter-row")):
        check(*cases)

    def test_threshold_from_shifted_point(self, cases=row("measure-threshold-point")):
        check(*cases)

    def test_threshold_point_shifted_past_its_digits(self, cases=row("measure-threshold-point-shifted-past-digits")):
        check(*cases)

    @rows({"iterate-limit": "measure-fallback-iterate-limit", "budget": "measure-fallback-budget"})
    def test_fallback_log_names_the_refusal(self, case):
        check(case)

    def test_compareiter_refusal_names_the_deeper_iterate(self, cases=row("measure-compareiter-deeper-iterate")):
        check(*cases)

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

    @rows({name: f"measure-draw-{name}" for name in (
        "itershift-at", "itershift-past", "compareiter-at", "compareiter-past", "compareiter-deep-close",
        "genchain-past",
    )})
    def test_sample_draw_limit(self, case):
        check(case)

    @rows({name: f"measure-deep-{name}" for name in ("genchain-1e7", "itershift-1e7", "compareiter-1e12")})
    def test_deep_set_is_refused_in_a_bounded_process(self, case):
        check(case)

    @rows({"fallback": "measure-branch-power-fallback", "no-fallback": "measure-branch-power"})
    def test_branch_count_past_the_int_string_limit(self, case):
        check(case)

    def test_malformed_config(self, cases=row("measure-malformed")):
        check(*cases)

    def test_budget_without_fallback(self, cases=row("measure-no-fallback")):
        check(*cases)

    def test_missing_config_is_io_error(self, cases=row("measure-missing-config")):
        check(*cases)

    def test_unwritable_out_is_io_error(self, cases=row("measure-unwritable-out")):
        check(*cases)

    def test_failed_render_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def refuse(rows):
            raise ValueError("cannot render")

        monkeypatch.setattr(measure, "rows_to_csv", refuse)
        check(cli_cases._rejected("failed-render", "family = itershift\nq = 2\nn = 1\nx = 1/3\n", "cannot render"))


class TestMeasureInputs:
    def test_threshold_above_one(self, cases=row("measure-threshold-above-one")):
        check(*cases)

    def test_zero_samples_with_fallback(self, cases=row("measure-zero-samples")):
        check(*cases)

    def test_negative_budget_in_config(self, cases=row("measure-negative-budget")):
        check(*cases)

    def test_zero_budget_flag(self, cases=row("measure-zero-budget-flag")):
        check(*cases)

    def test_zero_budget_flag_with_negative_seed(self, cases=row("measure-zero-budget-flag-negative-seed")):
        check(*cases)

    def test_negative_seed_flag(self, cases=row("measure-negative-seed-flag")):
        check(*cases)

    def test_negative_seed_flag_on_exact_sets(self, cases=row("measure-negative-seed-flag-exact")):
        check(*cases)

    @rows({f"{limit}-{fallback}": f"measure-iter-limit-{limit}-{fallback}"
           for limit, fallback in (("0", "true"), ("-3", "false"))})
    def test_iter_limit_below_one(self, case):
        check(case)

    @rows({family: f"measure-no-thresholds-{family}" for family in ("itershift", "genchain", "schedulechain")})
    def test_threshold_family_without_thresholds(self, case):
        check(case)

    def test_x_with_threshold_point(self, cases=row("measure-x-and-threshold-point")):
        check(*cases)

    @rows({name: f"measure-unread-{name}" for name in (
        "compareiter-x",
        "compareiter-threshold_point",
        "compareiter-ab-and-tables",
        "threshold_iter-without-point",
        "itershift-count",
        "itershift-indices",
        "genchain-indices-and-psi",
    )})
    def test_key_the_family_does_not_read(self, case):
        check(case)

    @rows({f"{count}-{family}": f"measure-count-{count}-{family}"
           for count in ("-1", "0", "4", "2..4") for family in ("genchain", "schedulechain")})
    def test_count_outside_the_table(self, case):
        check(case)

    def test_repeated_key(self, cases=row("measure-repeated-key")):
        check(*cases)

    def test_unread_key_names_its_line(self, cases=row("measure-unread-key-line")):
        check(*cases)

    @rows({name: f"measure-empty-tables-{name}" for name in ("empty", "commas")})
    def test_empty_compare_tables(self, case):
        check(case)

    @rows({name: f"measure-empty-x-{name}" for name in ("empty", "comma")})
    def test_empty_threshold_list(self, case):
        check(case)

    @rows({key: f"measure-not-integer-{key}" for key in (
        "q", "n", "n-range", "indices", "psi", "count", "a", "b", "phi", "samples", "seed", "budget", "iter_limit",
        "threshold_iter",
    )})
    def test_non_integer_value_names_key_and_line(self, case):
        check(case)

    @rows({key: f"measure-out-of-range-{key}"
           for key in ("threshold_iter", "q", "n", "indices", "psi", "a", "b", "phi")})
    def test_value_below_its_range_names_key_and_line(self, case):
        check(case)

    @rows({key: f"measure-out-of-range-{key}" for key in (
        "x", "budget", "seed", "iter_limit", "samples", "count", "empty-range", "fallback"
    )})
    def test_setting_out_of_range_names_its_line(self, case):
        check(case)

    @rows({key: f"measure-unsized-range-{key}" for key in ("n", "count")})
    def test_range_python_cannot_size(self, case):
        check(case)

    def test_n_range_is_bounded_before_any_set_is_built(self, tmp_path, capsys, monkeypatch):
        calls = []

        def build(q, n):
            # fail on the first set, so an unbounded range stops at once
            calls.append(n)
            raise AssertionError("a set was built")

        monkeypatch.setattr(SetFamilySpec, "iter_shift", build)
        check(cli_cases._rejected("n-range", "family = itershift\nq = 2\nn = 1..1000000000\nx = 1/3\n",
                                  "line 3: n range '1..1000000000' has more than 100000 entries"))
        assert calls == []

    def test_n_range_bound_is_inclusive(self):
        assert len(parse_config("family = itershift\nq = 2\nn = 5..100004\nx = 1/3\n").specs) == 100000
        with pytest.raises(ValueError, match=r"^line 3: n range '5\.\.100005' has more than 100000 entries$"):
            parse_config("family = itershift\nq = 2\nn = 5..100005\nx = 1/3\n")

    def test_count_range_is_checked_by_its_ends(self, cases=row("measure-count-range-ends")):
        check(*cases)

    def test_count_range_total_is_bounded_in_a_bounded_process(self, cases=row("measure-count-range-total")):
        check(*cases)

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

    def test_threshold_point_past_the_int_string_limit(self, cases=row("measure-threshold-point-past-limit")):
        check(*cases)

    @rows({"e-4300": "measure-threshold-e-4300", "decimal": "measure-threshold-decimal-past-limit"})
    def test_threshold_past_the_int_string_limit_is_refused_before_any_row(self, case):
        check(case)

    def test_threshold_at_the_int_string_limit_still_prints(self, cases=row("measure-threshold-at-limit")):
        check(*cases)

    def test_threshold_point_with_a_bad_digit_entry(self, cases=row("measure-threshold-point-bad-entry")):
        check(*cases)

    def test_huge_integer_is_clipped_and_names_the_limit(self, cases=row("measure-huge-seed")):
        check(*cases)

    def test_non_ascii_config(self, cases=row("measure-not-ascii")):
        check(*cases)


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
            code, _, err = cli_cases.in_process(tuple(argv))  # an exception leaves code None
            assert code in (0, 2, 3, 4), err
            if code == 0:
                assert out_csv.read_text().startswith("family,param,")
            else:
                assert err.startswith(("error:", "usage:"))
                assert not out_csv.exists()


class TestMainEntry:
    def test_in_process_eval(self, cases=row("eval-quarter")):
        check(*cases)


@pytest.mark.parametrize("case", [case for case in cli_cases.CASES if case.id not in _NAMED], ids=lambda case: case.id)
def test_cli_case(case):
    check(case)
