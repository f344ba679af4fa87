import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorshift import (
    BaseSpec,
    DigitExpansion,
    Tail,
    alternating_shift_value,
    alternating_value,
    compose_two,
    delete_positions,
    dual_representation,
    generalized_shift,
    generalized_shift_value,
    make_schedule,
    original_positions,
    prefix_sum,
    same_stream,
    shift_n,
    value_of,
)
from cantorshift.verify import matches_stream, stream_after_deleting
from oracles import (
    alternating_full_value,
    alternating_series_direct,
    alternating_termwise,
    chain_deleted_positions,
    digit_sum,
    schedule_by_counting,
)


def random_expansion(rng, cantor=False, maxlen=12, force_zeros=False):
    if cantor:
        prefix = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(0, 4)))
        base = BaseSpec.cantor(prefix, rng.randrange(2, 6))
    else:
        base = BaseSpec.constant(rng.choice([2, 3, 10]))
    n = rng.randrange(0, maxlen)
    digits = tuple(rng.randrange(base.base_at(k)) for k in range(1, n + 1))
    tail = Tail.ZEROS if force_zeros else rng.choice([Tail.ZEROS, Tail.MAX])
    return DigitExpansion(base, digits, tail)


def sequential_deletions(e, positions):
    """Single deletions at the re-indexed ``make_schedule`` steps, in order."""
    return functools.reduce(generalized_shift, make_schedule(positions), e)


class TestShift:
    def test_drops_first_digit(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3))
        assert shift_n(e, 1).prefix == (2, 3)

    def test_cantor_base_advances(self):
        e = DigitExpansion(BaseSpec.cantor((2, 3, 4), 5), (1, 2, 3))
        s = shift_n(e, 1)
        assert s.prefix == (2, 3) and s.base == BaseSpec.cantor((3, 4), 5)

    def test_one_is_fixed(self):
        e = DigitExpansion(BaseSpec.constant(2), (), Tail.MAX)
        assert value_of(shift_n(e, 1)) == 1

    def test_iterates(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3, 4))
        assert shift_n(e, 0) == e
        assert shift_n(e, 2).prefix == (3, 4)
        with pytest.raises(ValueError):
            shift_n(e, -1)

    def test_shift_past_the_prefix_is_immediate(self):
        e = DigitExpansion(BaseSpec.constant(2), (1, 0, 1))
        assert shift_n(e, 10**12) == DigitExpansion(BaseSpec.constant(2), ())
        f = DigitExpansion(BaseSpec.cantor((3, 5, 2), 4), (2, 4), Tail.MAX)
        assert shift_n(f, 10**12) == DigitExpansion(BaseSpec.constant(4), (), Tail.MAX)

    def test_prefix_sum_equals_the_digit_sum_oracle(self):
        rng = random.Random(67)
        for _ in range(150):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            n = rng.randrange(0, 31)
            for tail in Tail:
                f = DigitExpansion(e.base, e.prefix, tail)
                assert prefix_sum(f, n) == digit_sum(f, n)

    def test_decomposition_identity(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3, 4))
        assert value_of(e) == Fraction(12, 100) + value_of(shift_n(e, 2)) / 100
        rng = random.Random(7)
        for _ in range(100):
            f = random_expansion(rng, cantor=rng.random() < 0.5)
            n = rng.randrange(0, 6)
            assert value_of(f) == prefix_sum(f, n) + value_of(shift_n(f, n)) / f.base.block(n)


class TestGeneralizedShift:
    def test_deletes_digit(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3, 4))
        assert generalized_shift(e, 2).prefix == (1, 3, 4)

    def test_cantor_base_loses_entry(self):
        e = DigitExpansion(BaseSpec.cantor((2, 3, 4), 5), (1, 2, 3))
        g = generalized_shift(e, 2)
        assert g.prefix == (1, 3) and g.base == BaseSpec.cantor((2, 4), 5)

    def test_beyond_prefix_keeps_value_for_zero_tail(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2))
        assert value_of(generalized_shift(e, 7)) == value_of(e)

    def test_value_formula_decimal(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3, 4))
        x = value_of(e)
        assert x == Fraction(617, 5000)
        assert generalized_shift_value(e, 2) == Fraction(67, 500)

    def test_value_formula_zero(self):
        e = DigitExpansion(BaseSpec.constant(2), ())
        for m in range(1, 5):
            assert generalized_shift_value(e, m) == 0

    def test_value_formula_cantor(self):
        e = DigitExpansion(BaseSpec.cantor((2, 3, 4), 5), (1, 2, 3))
        assert generalized_shift_value(e, 1) == value_of(generalized_shift(e, 1))

    def test_digit_and_formula_agree(self):
        rng = random.Random(11)
        for _ in range(300):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            m = rng.randrange(1, 8)
            assert generalized_shift_value(e, m) == value_of(generalized_shift(e, m))


class TestComposeTwo:
    def test_worked_cases(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3, 4, 5, 6, 7, 8, 9))
        assert compose_two(e, 2, 5).prefix == (1, 3, 4, 5, 7, 8, 9)
        assert compose_two(e, 6, 3).prefix == (1, 2, 4, 5, 7, 8, 9)
        assert compose_two(e, 3, 3).prefix == (1, 2, 5, 6, 7, 8, 9)

    def test_equals_sequential_everywhere(self):
        rng = random.Random(17)
        for q in (2, 10):
            e = DigitExpansion(
                BaseSpec.constant(q), tuple(rng.randrange(q) for _ in range(12))
            )
            for n1 in range(1, 9):
                for n2 in range(1, 9):
                    assert same_stream(
                        compose_two(e, n1, n2),
                        generalized_shift(generalized_shift(e, n1), n2),
                    )

    def test_cantor_bases_follow(self):
        e = DigitExpansion(BaseSpec.cantor((2, 3, 4, 5), 6), (1, 2, 3, 4))
        assert same_stream(
            compose_two(e, 1, 2), generalized_shift(generalized_shift(e, 1), 2)
        )


class TestSchedules:
    def test_worked_re_indexings(self):
        assert make_schedule((1, 5, 7, 3, 6)) == (1, 4, 5, 2, 3)
        assert make_schedule((1, 5, 7, 3, 6, 10, 2, 4, 8, 9)) == (
            1, 4, 5, 2, 3, 5, 1, 1, 1, 1,
        )
        assert make_schedule((1,)) == (1,)
        assert make_schedule(()) == ()

    def test_schedule_equals_counting_oracle_on_every_short_list(self):
        for k in range(0, 6):
            for positions in itertools.permutations(range(1, 8), k):
                assert list(make_schedule(positions)) == schedule_by_counting(positions), positions

    def test_original_positions_worked_case(self):
        assert original_positions((1, 4, 5, 2, 3)) == (1, 5, 7, 3, 6)
        assert original_positions(()) == ()
        with pytest.raises(ValueError):
            original_positions((2, 0))

    def test_original_positions_on_every_short_list(self):
        for k in range(0, 5):
            for steps in itertools.product(range(1, 7), repeat=k):
                assert sorted(original_positions(steps)) == chain_deleted_positions(steps), steps

    def test_rejects_duplicates(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3))
        for build in (make_schedule, lambda positions: delete_positions(e, positions)):
            with pytest.raises(ValueError, match="distinct"):
                build((2, 2))
            with pytest.raises(ValueError, match=">= 1"):
                build((0, 1))

    def test_deletion_matches_direct_removal(self):
        e = DigitExpansion(BaseSpec.constant(10), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
        assert delete_positions(e, (1, 5, 7, 3, 6)).prefix == (1, 3, 7, 8, 9)
        assert sequential_deletions(e, (1, 5, 7, 3, 6)).prefix == (1, 3, 7, 8, 9)

    def test_empty_schedule_is_identity(self):
        e = DigitExpansion(BaseSpec.constant(10), (1, 2, 3))
        assert delete_positions(e, ()) == e
        assert delete_positions(e, (2,)).prefix == (1, 3)

    def test_many_positions_take_one_pass(self):
        # linear in the length: a kernel that rebuilds the expansion once per
        # position takes seconds here
        rng = random.Random(2000)
        e = DigitExpansion(BaseSpec.constant(10), tuple(rng.randrange(10) for _ in range(20000)))
        positions = rng.sample(range(1, 20001), 2000)
        started = time.monotonic()
        result = delete_positions(e, positions)
        assert time.monotonic() - started < 0.5
        assert matches_stream(result, *stream_after_deleting(e, positions, horizon=20000))

    def test_all_orderings_of_small_subsets(self):
        rng = random.Random(19)
        for q in (2, 10):
            e = DigitExpansion(BaseSpec.constant(q), tuple(rng.randrange(q) for _ in range(9)))
            for size in range(0, 4):
                for subset in itertools.combinations(range(1, 6), size):
                    for perm in itertools.permutations(subset):
                        digits, bases = stream_after_deleting(e, perm, horizon=12)
                        assert matches_stream(delete_positions(e, perm), digits, bases), perm
                        assert matches_stream(sequential_deletions(e, perm), digits, bases), perm

    def test_cantor_base_schedule(self):
        rng = random.Random(23)
        e = DigitExpansion(BaseSpec.cantor((2, 3, 4, 5, 2, 3), 4), (1, 2, 3, 4, 1, 2))
        for perm in itertools.permutations((1, 3, 5)):
            digits, bases = stream_after_deleting(e, perm, horizon=10)
            assert matches_stream(delete_positions(e, perm), digits, bases)
            assert matches_stream(sequential_deletions(e, perm), digits, bases)


class TestOperatorIdentities:
    def test_first_deletion_then_drop(self):
        rng = random.Random(29)
        for _ in range(150):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            m = rng.randrange(0, 5)
            lhs = e
            for _ in range(m):
                lhs = generalized_shift(lhs, 2)
            assert same_stream(shift_n(lhs, 1), shift_n(e, m + 1))

    def test_consecutive_chain_collapses(self):
        rng = random.Random(31)
        for _ in range(150):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            k1, n = rng.randrange(1, 5), rng.randrange(1, 5)
            cur = e
            for k in range(k1, k1 + n):
                cur = generalized_shift(cur, k)
            assert same_stream(shift_n(cur, k1 + n - 1), shift_n(e, k1 + 2 * n - 1))

    def test_descending_chain_collapses(self):
        # With strictly decreasing deletion positions the chain removes the
        # positions verbatim; dropping the survivors below the largest one
        # leaves the iterated shift at the largest position.
        rng = random.Random(37)
        for _ in range(150):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            n = rng.randrange(2, 5)
            ks = sorted(rng.sample(range(1, 9), n), reverse=True)
            cur = e
            for k in ks:
                cur = generalized_shift(cur, k)
            assert same_stream(shift_n(cur, ks[0] - n), shift_n(e, ks[0]))

    def test_difference_identity(self):
        rng = random.Random(41)
        for _ in range(200):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            m = rng.randrange(1, 6)
            x = value_of(e)
            blk = e.base.block(m)
            lhs = x - value_of(generalized_shift(e, m))
            rhs = Fraction(e.digit_at(m), blk) + value_of(shift_n(e, m)) / blk * (
                1 - e.base.base_at(m)
            )
            assert lhs == rhs

    def test_endpoint_gap(self):
        rng = random.Random(43)
        for _ in range(200):
            e = random_expansion(rng, maxlen=6, force_zeros=True)
            digits = list(e.prefix)
            if not digits or digits[-1] == 0:
                continue
            m = len(digits)
            right_form = DigitExpansion(e.base, tuple(digits), Tail.ZEROS)
            left_form = dual_representation(right_form)
            gap = value_of(generalized_shift(right_form, m)) - value_of(
                generalized_shift(left_form, m)
            )
            assert gap == Fraction(-1, e.base.block(m - 1))


@st.composite
def constant_base_expansions(draw, max_len=12):
    q = draw(st.integers(2, 8))
    length = draw(st.integers(0, max_len))
    digits = tuple(draw(st.integers(0, q - 1)) for _ in range(length))
    tail = draw(st.sampled_from([Tail.ZEROS, Tail.MAX]))
    return DigitExpansion(BaseSpec.constant(q), digits, tail)


@st.composite
def cantor_base_expansions(draw, max_len=10):
    """A base prefix of up to six entries (none gives a constant base), up to
    ``max_len`` digits and either tail."""
    base = BaseSpec.cantor(draw(st.lists(st.integers(2, 6), max_size=6)), draw(st.integers(2, 8)))
    length = draw(st.integers(0, max_len))
    digits = tuple(draw(st.integers(0, base.base_at(k) - 1)) for k in range(1, length + 1))
    tail = draw(st.sampled_from([Tail.ZEROS, Tail.MAX]))
    return DigitExpansion(base, digits, tail)


class TestProperties:
    # m up to 20 also lies past the stored digits (at most 12) and the base
    # prefix (at most 6), under either tail
    @given(constant_base_expansions() | cantor_base_expansions(), st.integers(1, 20))
    @settings(max_examples=400, deadline=None)
    def test_deletion_formula_equals_digit_deletion(self, e, m):
        g = generalized_shift(e, m)
        assert generalized_shift_value(e, m) == value_of(g)
        assert alternating_shift_value(e, m) == alternating_value(g)

    # a zeros tail adds no digit past the stored ones, so m up to 10^12 is
    # read at once, and deleting there leaves both values unchanged
    @given(cantor_base_expansions(), st.integers(1, 20) | st.integers(1, 10**12))
    @settings(max_examples=200, deadline=None)
    def test_deletion_formulas_deep_in_a_zeros_tail(self, e, m):
        e = DigitExpansion(e.base, e.prefix)
        g = generalized_shift(e, m)
        if m >= len(e.prefix):
            assert prefix_sum(e, m) == value_of(e)
        assert generalized_shift_value(e, m) == value_of(g)
        assert alternating_shift_value(e, m) == alternating_value(g)

    # the formulas read the two shifted tails, never a max tail's digits past
    # the stored ones, so m up to 10^12 is read at once here too
    @given(constant_base_expansions() | cantor_base_expansions(), st.integers(1, 20) | st.integers(1, 10**12))
    @settings(max_examples=300, deadline=None)
    def test_deletion_formulas_deep_in_a_max_tail(self, e, m):
        e = DigitExpansion(e.base, e.prefix, Tail.MAX)
        g = generalized_shift(e, m)
        assert generalized_shift_value(e, m) == value_of(g)
        assert alternating_shift_value(e, m) == alternating_value(g)

    # positions up to 14 also lie past the digit prefix and the base prefix
    @given(cantor_base_expansions(), st.lists(st.integers(1, 14), unique=True, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_schedule_matches_stream_oracle(self, e, positions):
        digits, bases = stream_after_deleting(e, positions, horizon=14)
        assert matches_stream(delete_positions(e, positions), digits, bases)
        assert matches_stream(sequential_deletions(e, positions), digits, bases)

    # steps up to 10^12 would not fit in memory if any were listed
    @given(st.lists(st.integers(1, 12) | st.integers(1, 10**12), max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_original_positions_inverts_make_schedule(self, steps):
        positions = original_positions(steps)
        assert make_schedule(positions) == tuple(steps)
        assert sorted(positions) == chain_deleted_positions(steps)

    @given(constant_base_expansions(max_len=10), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_two_deletion_composition(self, e, n1, n2):
        assert same_stream(
            compose_two(e, n1, n2), generalized_shift(generalized_shift(e, n1), n2)
        )


class TestAlternating:
    def test_zero_digits(self):
        e = DigitExpansion(BaseSpec.constant(2), (0, 0))
        assert alternating_value(e) == 0
        assert alternating_shift_value(e, 1) == 0

    def test_two_ones_base_two(self):
        e = DigitExpansion(BaseSpec.constant(2), (1, 1))
        x = alternating_value(e)
        assert x == Fraction(-1, 4)
        got = alternating_shift_value(e, 1)
        assert got == alternating_series_direct(e, 1) == Fraction(-1, 2)

    def test_deletion_beyond_digits(self):
        e = DigitExpansion(BaseSpec.constant(2), (1,))
        assert alternating_shift_value(e, 3) == alternating_series_direct(e, 3)

    def test_value_matches_termwise_oracle(self):
        rng = random.Random(47)
        for _ in range(200):
            e = random_expansion(rng, cantor=rng.random() < 0.5, force_zeros=True)
            assert alternating_value(e) == alternating_full_value(e)

    def test_formula_matches_series_oracle(self):
        rng = random.Random(53)
        for _ in range(300):
            e = random_expansion(rng, cantor=rng.random() < 0.5, force_zeros=True)
            m = rng.randrange(1, 7)
            assert alternating_shift_value(e, m) == alternating_series_direct(e, m)

    def test_max_tails_match_the_termwise_sum(self):
        # Cantor prefixes up to 6 entries over up to 3 digits: the max tail
        # runs through the rest of the base prefix before the constant part
        rng = random.Random(61)
        depth = 40
        for _ in range(300):
            base = BaseSpec.cantor([rng.randrange(2, 6) for _ in range(rng.randrange(0, 7))], rng.randrange(2, 6))
            digits = tuple(rng.randrange(base.base_at(k)) for k in range(1, rng.randrange(0, 4)))
            e = DigitExpansion(base, digits, Tail.MAX)
            assert abs(alternating_value(e) - alternating_termwise(e, depth)) <= Fraction(1, base.block(depth))

    def test_formula_matches_deletion_with_max_tails(self):
        rng = random.Random(59)
        for _ in range(300):
            e = random_expansion(rng, cantor=rng.random() < 0.5)
            m = rng.randrange(1, 7)
            assert alternating_shift_value(e, m) == alternating_value(
                generalized_shift(e, m)
            )
