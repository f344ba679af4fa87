import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorshift import (
    BaseSpec,
    Cylinder,
    DigitExpansion,
    Tail,
    cylinder_interval,
    dual_representation,
    expansion_of,
    format_expansion,
    parse_base,
    parse_expansion,
    parse_rational,
    quote_token,
    same_stream,
    value_of,
)
from oracles import long_division_digits, same_stream_horizon


def bases(draw_cantor=True):
    constant = st.integers(2, 10).map(BaseSpec.constant)
    if not draw_cantor:
        return constant
    cantor = st.builds(
        BaseSpec.cantor,
        st.lists(st.integers(2, 6), min_size=0, max_size=4),
        st.integers(2, 6),
    )
    return st.one_of(constant, cantor)


@st.composite
def expansions(draw, max_len=10):
    base = draw(bases())
    length = draw(st.integers(0, max_len))
    digits = tuple(draw(st.integers(0, base.base_at(k) - 1)) for k in range(1, length + 1))
    tail = draw(st.sampled_from([Tail.ZEROS, Tail.MAX]))
    return DigitExpansion(base, digits, tail)


class TestValue:
    def test_finite_prefix(self):
        e = DigitExpansion(BaseSpec.constant(10), (2, 5))
        assert value_of(e) == Fraction(1, 4)

    def test_all_max_digits_is_one(self):
        assert value_of(DigitExpansion(BaseSpec.constant(2), (), Tail.MAX)) == 1

    def test_cantor_max_tail_telescopes(self):
        e = DigitExpansion(BaseSpec.cantor((2, 3, 4), 5), (0,), Tail.MAX)
        assert value_of(e) == Fraction(1, 2)

    @given(expansions())
    @settings(max_examples=150, deadline=None)
    def test_value_in_unit_interval(self, e):
        assert 0 <= value_of(e) <= 1


class TestExpansionOf:
    def test_zeros_preference_pads_to_depth(self):
        e = expansion_of(Fraction(1, 4), BaseSpec.constant(10), 4)
        assert e.prefix == (2, 5, 0, 0) and e.tail is Tail.ZEROS

    def test_max_preference_uses_dual(self):
        e = expansion_of(Fraction(1, 4), BaseSpec.constant(10), 4, Tail.MAX)
        assert e.prefix == (2, 4) and e.tail is Tail.MAX

    def test_truncation_against_long_division(self):
        e = expansion_of(Fraction(1, 3), BaseSpec.constant(2), 4)
        assert e.prefix == tuple(long_division_digits(1, 3, [2], 4))
        assert e.tail is Tail.ZEROS

    def test_one_and_zero_conventions(self):
        one = expansion_of(1, BaseSpec.constant(3), 5)
        assert one.prefix == () and one.tail is Tail.MAX
        zero = expansion_of(0, BaseSpec.constant(3), 3, Tail.MAX)
        assert value_of(zero) == 0 and zero.tail is Tail.ZEROS

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            expansion_of(Fraction(1, 2), BaseSpec.constant(2), 0)

    @given(expansions(max_len=8), st.sampled_from([Tail.ZEROS, Tail.MAX]))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_for_terminating_values(self, e, pref):
        x = value_of(e)
        depth = len(e.prefix) + 2
        assert value_of(expansion_of(x, e.base, depth, pref)) == x

    def test_agrees_with_integer_fast_path(self):
        rng = random.Random(3)
        for _ in range(50):
            q = rng.choice([2, 3, 10])
            num = rng.randrange(0, 97)
            e = expansion_of(Fraction(num, 97), BaseSpec.constant(q), 12)
            assert list(e.prefix) == long_division_digits(num, 97, [q], 12)


CANTOR_BASES = [
    BaseSpec.cantor((2, 3, 4), 5),
    BaseSpec.cantor((7, 2), 3),
    BaseSpec.cantor((10, 10, 2, 6), 4),
]


def _base_list(base: BaseSpec) -> list[int]:
    return list(base.prefix) + [base.tail_value]


def _plain_value(digits, bases, max_tail: bool) -> Fraction:
    total, den = Fraction(0), 1
    for k, d in enumerate(digits):
        den *= bases[k] if k < len(bases) else bases[-1]
        total += Fraction(d, den)
    return total + Fraction(1, den) if max_tail else total


class TestLongDivisionKernel:
    """``expansion_of`` and ``value_of`` against plain long division and
    term-by-term sums, on constant and Cantor bases."""

    @pytest.mark.parametrize("base", CANTOR_BASES, ids=str)
    def test_zeros_preference_matches_long_division(self, base):
        rng = random.Random(17)
        for _ in range(60):
            den = rng.randint(1, 500)
            num = rng.randint(0, den - 1)
            depth = rng.randint(1, 12)
            e = expansion_of(Fraction(num, den), base, depth)
            assert list(e.prefix) == long_division_digits(num, den, _base_list(base), depth)
            assert e.tail is Tail.ZEROS

    @pytest.mark.parametrize("base", CANTOR_BASES, ids=str)
    def test_max_preference_matches_long_division(self, base):
        rng = random.Random(19)
        bases = _base_list(base)
        hits = 0
        for _ in range(60):
            # half the draws have a denominator q_1 ... q_j, so they terminate
            den = _plain_value([0] * rng.randint(1, 8), bases, True).denominator
            den = rng.choice([rng.randint(1, 500), den])
            num = rng.randint(0, den - 1)
            depth = rng.randint(1, 12)
            digits = long_division_digits(num, den, bases, depth)
            e = expansion_of(Fraction(num, den), base, depth, Tail.MAX)
            exact = _plain_value(digits, bases, False) == Fraction(num, den)
            if exact and any(digits):
                hits += 1
                last = max(k for k, d in enumerate(digits) if d)
                assert e.prefix == tuple(digits[:last]) + (digits[last] - 1,)
                assert e.tail is Tail.MAX
            else:
                assert list(e.prefix) == digits and e.tail is Tail.ZEROS
        assert hits >= 10

    @pytest.mark.parametrize("base", CANTOR_BASES + [BaseSpec.constant(10)], ids=str)
    def test_zero_and_one(self, base):
        for pref in (Tail.ZEROS, Tail.MAX):
            zero = expansion_of(0, base, 6, pref)
            assert zero.prefix == (0,) * 6 and zero.tail is Tail.ZEROS
            one = expansion_of(1, base, 6, pref)
            assert one.prefix == () and one.tail is Tail.MAX

    @pytest.mark.parametrize("base", CANTOR_BASES + [BaseSpec.constant(3)], ids=str)
    def test_terminating_exactly_at_depth(self, base):
        rng = random.Random(23)
        bases = _base_list(base)
        for depth in range(1, 9):
            digits = [rng.randrange(base.base_at(k)) for k in range(1, depth)]
            digits.append(rng.randrange(1, base.base_at(depth)))
            x = _plain_value(digits, bases, False)
            assert list(expansion_of(x, base, depth).prefix) == digits
            dual = expansion_of(x, base, depth, Tail.MAX)
            assert dual.prefix == tuple(digits[:-1]) + (digits[-1] - 1,) and dual.tail is Tail.MAX
            if depth > 1:
                cut = expansion_of(x, base, depth - 1, Tail.MAX)
                assert list(cut.prefix) == digits[:-1] and cut.tail is Tail.ZEROS

    @pytest.mark.parametrize("base", CANTOR_BASES + [BaseSpec.constant(2), BaseSpec.constant(10)], ids=str)
    def test_value_of_matches_plain_sum(self, base):
        rng = random.Random(29)
        bases = _base_list(base)
        for _ in range(60):
            digits = [rng.randrange(base.base_at(k)) for k in range(1, rng.randint(0, 12) + 1)]
            tail = rng.choice([Tail.ZEROS, Tail.MAX])
            e = DigitExpansion(base, tuple(digits), tail)
            assert value_of(e) == _plain_value(digits, bases, tail is Tail.MAX)

    @pytest.mark.parametrize(
        "base, digits, message",
        [
            (BaseSpec.constant(2), (2,), "digit 2 at position 1 outside alphabet 0..1"),
            (BaseSpec.constant(3), (0, 5, 7), "digit 5 at position 2 outside alphabet 0..2"),
            (BaseSpec.constant(10), (1, -1), "digit -1 at position 2 outside alphabet 0..9"),
            (BaseSpec.cantor((2, 3), 4), (1, 3), "digit 3 at position 2 outside alphabet 0..2"),
            (BaseSpec.cantor((2, 3), 4), (1, 2, 3, 4, 9), "digit 4 at position 4 outside alphabet 0..3"),
            (BaseSpec.cantor((5, 2), 3), (4, 1, -2), "digit -2 at position 3 outside alphabet 0..2"),
        ],
    )
    def test_out_of_alphabet_digits_rejected(self, base, digits, message):
        with pytest.raises(ValueError) as exc:
            DigitExpansion(base, digits)
        assert str(exc.value) == message

    def test_alphabet_check_matches_the_per_position_rule(self):
        """Random digits against 0 <= d_k < q_k, with q_k read from the raw
        base lists: accepted exactly when no position breaks it, and the
        error names the first one that does."""
        rng = random.Random(1818)
        seen = Counter()
        for _ in range(3000):
            prefix = [rng.randint(2, 6) for _ in range(rng.choice([0, 0, 1, 3, 8]))]
            tail = rng.randint(2, 10)
            q_at = lambda k: prefix[k - 1] if k <= len(prefix) else tail  # noqa: E731
            digits = [rng.randrange(q_at(k)) for k in range(1, rng.randint(0, 12) + 1)]
            for _ in range(rng.choice([0, 0, 1, 2])):
                if digits:
                    k = rng.randint(1, len(digits))
                    digits[k - 1] = rng.choice([-1, -rng.randint(2, 9), q_at(k), q_at(k) + rng.randint(1, 9)])
            bad = [k for k, d in enumerate(digits, start=1) if not 0 <= d < q_at(k)]
            seen.update(
                negative=any(d < 0 for d in digits),
                at_base=any(d == q_at(k) for k, d in enumerate(digits, start=1)),
                cantor=bool(prefix),
                shorter=0 < len(prefix) < len(digits),
                longer=len(prefix) > len(digits),
                rejected=bool(bad),
                accepted=not bad,
            )
            base = BaseSpec(tuple(prefix), tail)
            if not bad:
                assert DigitExpansion(base, tuple(digits)).prefix == tuple(digits)
                continue
            k = bad[0]
            with pytest.raises(ValueError) as exc:
                DigitExpansion(base, tuple(digits))
            assert str(exc.value) == f"digit {digits[k - 1]} at position {k} outside alphabet 0..{q_at(k) - 1}"
        assert len(seen) == 7 and min(seen.values()) >= 300, seen

    def test_block_matches_a_loop_product(self):
        rng = random.Random(1819)
        for _ in range(300):
            prefix = [rng.randint(2, 9) for _ in range(rng.randint(0, 8))]
            tail = rng.randint(2, 9)
            base = BaseSpec(tuple(prefix), tail)
            product = 1
            for n in range(len(prefix) + 6):
                assert base.block(n) == product, (prefix, tail, n)
                product *= prefix[n] if n < len(prefix) else tail

    def test_long_blocks_and_base_prefixes_are_fast(self):
        started = time.perf_counter()
        block = BaseSpec.constant(10).block(100_000)
        assert time.perf_counter() - started < 0.1
        assert block == 10**100_000
        started = time.perf_counter()
        base = BaseSpec((3,) + (5,) * 50_000, 5)
        assert time.perf_counter() - started < 0.1
        assert base.prefix == (3,)


class TestDuality:
    def test_terminating_to_max(self):
        d = dual_representation(DigitExpansion(BaseSpec.constant(10), (2, 5)))
        assert d.prefix == (2, 4) and d.tail is Tail.MAX

    def test_zero_is_unique(self):
        assert dual_representation(DigitExpansion(BaseSpec.constant(2), ())) is None

    def test_one_is_unique(self):
        assert dual_representation(DigitExpansion(BaseSpec.constant(2), (), Tail.MAX)) is None

    def test_cantor_base_dual(self):
        d = dual_representation(DigitExpansion(BaseSpec.cantor((2, 3, 4), 5), (1,)))
        assert d.prefix == (0,) and d.tail is Tail.MAX
        assert value_of(d) == Fraction(1, 2)

    @given(expansions())
    @settings(max_examples=200, deadline=None)
    def test_dual_preserves_value(self, e):
        d = dual_representation(e)
        if d is None:
            assert value_of(e) in (0, 1)
        else:
            assert value_of(d) == value_of(e)
            back = dual_representation(d)
            assert back is not None and value_of(back) == value_of(e)


class TestCylinders:
    def test_rank_one(self):
        assert cylinder_interval(Cylinder(BaseSpec.constant(2), (1,))) == (Fraction(1, 2), Fraction(1))

    def test_rank_two_decimal(self):
        assert cylinder_interval(Cylinder(BaseSpec.constant(10), (2, 5))) == (
            Fraction(1, 4),
            Fraction(13, 50),
        )

    def test_cantor_word(self):
        assert cylinder_interval(Cylinder(BaseSpec.cantor((2, 3), 3), (1, 2))) == (
            Fraction(5, 6),
            Fraction(1),
        )

    @given(expansions(max_len=6))
    @settings(max_examples=150, deadline=None)
    def test_length_is_reciprocal_block(self, e):
        if not e.prefix:
            return
        c = Cylinder(e.base, e.prefix)
        lo, hi = cylinder_interval(c)
        assert hi - lo == Fraction(1, e.base.block(c.rank))

    def test_fixed_rank_cover_and_disjointness(self):
        for base in (BaseSpec.constant(3), BaseSpec.cantor((2, 3), 4)):
            rank = 3
            words = [()]
            for k in range(1, rank + 1):
                words = [w + (d,) for w in words for d in range(base.base_at(k))]
            intervals = sorted(cylinder_interval(Cylinder(base, w)) for w in words)
            assert intervals[0][0] == 0 and intervals[-1][1] == 1
            for (_, right), (nxt, _) in zip(intervals, intervals[1:]):
                assert right == nxt


class TestNotation:
    def test_examples(self):
        assert parse_expansion("q10:[2,5]:zeros") == DigitExpansion(
            BaseSpec.constant(10), (2, 5), Tail.ZEROS
        )
        e = parse_expansion("Q(2,3,4|5):[1,2]:max")
        assert e == DigitExpansion(BaseSpec.cantor((2, 3, 4), 5), (1, 2), Tail.MAX)

    def test_rejects_garbage(self):
        for text in ("q1:[0]:zeros", "q10:2,5:zeros", "q10:[2,5]:loop", "10:[2]:zeros"):
            with pytest.raises(ValueError):
                parse_expansion(text)

    def test_base_normalization_keeps_round_trip(self):
        assert parse_base("Q(5,5|5)") == BaseSpec.constant(5)
        assert format_expansion(DigitExpansion(BaseSpec.cantor((5,), 5), (1,))) == "q5:[1]:zeros"

    @given(expansions())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, e):
        assert parse_expansion(format_expansion(e)) == e

    def test_parse_rational(self):
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("0.25") == Fraction(1, 4)
        with pytest.raises(ValueError):
            parse_rational("0x10")

    def test_parse_rational_obeys_the_int_string_limit(self):
        # the limit bounds the value's numerator and denominator, and the
        # exponent before 10^|e| is built; with the limit off nothing changes
        limit = sys.get_int_max_str_digits()
        assert parse_rational("1e-4299") == Fraction(1, 10**4299)  # 4300 digits print
        assert parse_rational("2e-4300") == Fraction(1, 5 * 10**4299)
        for token in ("1e-4300", "1e4300", "1e-99999999", "0." + "0" * 4299 + "1"):
            with pytest.raises(ValueError) as err:
                parse_rational(token, "entry {} is not a rational")
            assert str(err.value) == f"entry {quote_token(token)} is not a rational (past the integer string limit of {limit} digits)"
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e-5000") == Fraction(1, 10**5000)
        finally:
            sys.set_int_max_str_digits(limit)


class TestStreams:
    def test_trailing_zeros_do_not_matter(self):
        a = DigitExpansion(BaseSpec.constant(2), (1, 0, 0))
        b = DigitExpansion(BaseSpec.constant(2), (1,))
        assert same_stream(a, b)

    def test_dual_forms_are_different_streams(self):
        e = DigitExpansion(BaseSpec.constant(10), (2, 5))
        assert not same_stream(e, dual_representation(e))

    def test_matches_the_horizon_scan_on_random_pairs(self):
        # few bases and short prefixes, so that equal streams come up often
        rng = random.Random(2001)
        pool = [BaseSpec.constant(2), BaseSpec.constant(3), BaseSpec.cantor((3,), 2), BaseSpec.cantor((2, 3), 2)]

        def draw():
            base = rng.choice(pool)
            digits = tuple(rng.randrange(base.base_at(k)) for k in range(1, rng.randrange(0, 5)))
            return DigitExpansion(base, digits, rng.choice([Tail.ZEROS, Tail.MAX]))

        def padded(e):
            top = 0 if e.tail is Tail.ZEROS else 1
            n = len(e.prefix)
            more = tuple(top * (e.base.base_at(k) - 1) for k in range(n + 1, n + rng.randrange(2, 5)))
            return DigitExpansion(e.base, e.prefix + more, e.tail)

        def variant(e):
            pick = rng.randrange(5)
            if pick == 0:
                return padded(e)
            if pick == 1:
                return dual_representation(e) or e
            if pick == 2:
                # the same base stream, written with tail entries in the prefix
                base = BaseSpec(e.base.prefix + (e.base.tail_value,) * 2, e.base.tail_value)
                return DigitExpansion(base, e.prefix, e.tail)
            if pick == 3:
                return DigitExpansion(e.base, e.prefix, Tail.MAX if e.tail is Tail.ZEROS else Tail.ZEROS)
            return draw()

        equal = 0
        for _ in range(4000):
            a = draw()
            b = padded(variant(a)) if rng.random() < 0.5 else variant(a)
            assert same_stream(a, b) == same_stream_horizon(a, b) == same_stream(b, a), (a, b)
            equal += same_stream(a, b)
        assert 1000 < equal < 3000

    def test_digit_guard(self):
        with pytest.raises(ValueError):
            DigitExpansion(BaseSpec.constant(2), (2,))
        with pytest.raises(ValueError):
            Cylinder(BaseSpec.constant(2), ())

    def test_cylinder_alphabet_error_names_the_alphabet(self):
        with pytest.raises(ValueError) as err:
            Cylinder(BaseSpec.constant(2), (2,))
        assert str(err.value) == "digit 2 at position 1 outside alphabet 0..1"

    @pytest.mark.parametrize("sign, shown", [(1, ""), (-1, "-")], ids=["positive", "negative"])
    def test_digit_past_the_int_string_limit(self, sign, shown):
        # str() of the digit would raise; the error names the limit instead
        with pytest.raises(ValueError) as err:
            DigitExpansion(BaseSpec.constant(2), (sign * 10**5000,))
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"digit {shown}<more digits than the integer string limit of {limit}> at position 1 outside alphabet 0..1"

    def test_cylinder_digit_past_the_int_string_limit(self):
        with pytest.raises(ValueError) as err:
            Cylinder(BaseSpec.constant(2), (10**5000,))
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"digit <more digits than the integer string limit of {limit}> at position 1 outside alphabet 0..1"
