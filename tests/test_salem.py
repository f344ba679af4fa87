import itertools
import random
from decimal import Decimal, localcontext
import sys
from collections import Counter
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorshift import (
    BaseSpec,
    Cylinder,
    DigitExpansion,
    DistributionSpec,
    IndexSequence,
    Monotonicity,
    SalemFunction,
    Tail,
    WeightSet,
    chain_expansion,
    chain_value,
    classify_monotonicity,
    continuity_at,
    cylinder_increment,
    delete_positions,
    distribution_function,
    dual_representation,
    evaluate,
    expansion_of,
    first_terms,
    format_function_spec,
    format_value,
    increment_product,
    increment_via_evaluate,
    integral_closed_form,
    make_schedule,
    parse_expansion,
    parse_function_spec,
    residual,
    value_at,
    value_of,
    verify,
)
from cantorshift.verify import (
    check_endpoint_sums,
    check_grid_integral,
    check_peeling_identities,
    grid_integral,
    random_positive_weights,
    random_terminating,
    stream_after_deleting,
)
from oracles import continuity_k0_rule, riemann_bracket, salem_series_brute, salem_value_exact, weight_set_plain

B2 = BaseSpec.constant(2)
W37 = WeightSet(2, (Fraction(3, 10), Fraction(7, 10)))
IDENT37 = SalemFunction(W37)
W315 = WeightSet(3, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)))
EXAMPLE_ORDER = IndexSequence((1, 5, 7, 3, 6, 10, 2, 4, 8, 9))


class TestWeightSet:
    def test_cumulative_sums(self):
        assert W37.beta == (Fraction(0), Fraction(3, 10))
        w = WeightSet(3, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)))
        assert w.beta == (Fraction(0), Fraction(1, 5), Fraction(3, 5))

    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            WeightSet(2, (Fraction(3, 10), Fraction(8, 10)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightSet(2, (Fraction(-1, 5), Fraction(6, 5)))
        # a trailing zero weight pushes a cumulative sum to 1
        with pytest.raises(ValueError):
            WeightSet(3, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        # a leading zero weight pins a cumulative sum at 0
        with pytest.raises(ValueError):
            WeightSet(3, (Fraction(0), Fraction(1, 2), Fraction(1, 2)))

    def test_weight_count_past_the_int_string_limit(self):
        # str() of q would raise; the error names the limit instead
        with pytest.raises(ValueError) as err:
            WeightSet(10**5000, ())
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"expected <more digits than the integer string limit of {limit}> weights, got 0"

    def test_negative_weights_allowed_inside(self):
        w = WeightSet(3, (Fraction(7, 10), Fraction(-1, 5), Fraction(1, 2)))
        assert w.beta == (Fraction(0), Fraction(7, 10), Fraction(1, 2))

    def test_fields_and_errors_match_a_plain_running_sum(self):
        """Random weight sets, half of them broken in one of four ways, against
        a Fraction running sum that checks the rules in order."""
        rng = random.Random(1811)
        huge = 10**1199 + 7  # a 1200-digit denominator
        seen = Counter()
        for _ in range(1500):
            q = rng.randint(2, 10)
            grains = [rng.randint(1, 12)] + [rng.randint(-4, 12) for _ in range(q - 2)] + [rng.randint(1, 12)]
            scale = rng.choice([1, huge])
            jitter = [rng.randint(-5, 5) * (scale > 1) for _ in range(q - 1)]
            jitter.append(-sum(jitter))
            den = max(sum(grains), 1) * scale
            p = [Fraction(g * scale + j, den) for g, j in zip(grains, jitter)]
            damage = rng.choice(["none", "none", "count", "range", "sum", "cumulative"])
            if damage == "count":
                p = p[:-1] if rng.random() < 0.5 else p + p[:1]
            elif damage == "range":
                p[rng.randrange(q)] = rng.choice([Fraction(-1), Fraction(1), Fraction(3, 2), Fraction(-7, 5)])
            elif damage == "sum":
                p[rng.randrange(q)] += Fraction(rng.choice([-1, 1]), den * rng.randint(1, 5))
            elif damage == "cumulative":
                k = rng.randrange(1, q)  # beta_1 = 0, or beta_k = 1 and zero weights after it
                p[:k] = [Fraction(0)] * k if k == 1 or rng.random() < 0.5 else [Fraction(1, k)] * k
                p[k:] = [(1 - sum(p[:k])) / (q - k)] * (q - k)
            try:
                expected = weight_set_plain(q, p)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    WeightSet(q, tuple(p))
                assert str(got.value) == str(exc), (q, p)
                rule = "count" if str(exc).startswith("expected") else str(exc)
                seen[rule] += 1
                continue
            w = WeightSet(q, tuple(p))
            assert (w.beta, w.den, w.p_num, w.beta_num) == expected
            seen.update(ok=1, negative=any(v < 0 for v in p), huge=w.den >= huge)
        assert min(seen.values()) >= 20 and len(seen) == 7, seen


class TestIndexSequence:
    def test_identity_is_canonical(self):
        assert IndexSequence((1, 2, 3)).is_identity
        assert IndexSequence((2, 1, 3)).prefix == (2, 1)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            IndexSequence((1, 3))
        with pytest.raises(ValueError):
            IndexSequence((2, 2))

    def test_reading_and_deletion_indices(self):
        seq = EXAMPLE_ORDER
        assert [seq.n_at(k) for k in range(1, 13)] == [1, 5, 7, 3, 6, 10, 2, 4, 8, 9, 11, 12]
        assert make_schedule([seq.n_at(k) for k in range(1, 13)]) == (1, 4, 5, 2, 3, 5, 1, 1, 1, 1, 1, 1)

    def test_long_order_builds_fast(self):
        started = time.monotonic()
        seq = IndexSequence(tuple(range(50000, 0, -1)))
        assert time.monotonic() - started < 0.5
        assert seq.size == 50000 and seq.n_at(1) == 50000

    def test_induced_order_is_a_permutation(self):
        for k in range(0, 12):
            induced = EXAMPLE_ORDER.induced_after(k)
            assert isinstance(induced, IndexSequence)
        assert EXAMPLE_ORDER.induced_after(11).is_identity
        assert IndexSequence(()).induced_after(5).is_identity

    def test_reading_slices_match_per_index_reading(self):
        # seeded permutations of 0..12 entries, some with trailing fixed
        # points; the induced order is rebuilt from n_at alone: read the
        # first M positions, drop the first k and rank the rest among the
        # survivors
        rng = random.Random(97)
        for size in range(0, 13):
            for fixed in (0, 0, 2) * 6:
                perm = rng.sample(range(1, size + 1), size) + list(range(size + 1, size + fixed + 1))
                f = SalemFunction(W37, IndexSequence(tuple(perm)))
                seq = f.seq
                e = random_terminating(rng, 2, 14)
                for k in range(0, 21):
                    top = max(seq.size, k) + 2
                    order = [seq.n_at(j) for j in range(1, top + 1)]
                    survivors = sorted(set(range(1, top + 1)) - set(order[:k]))
                    rank = {n: i for i, n in enumerate(survivors, start=1)}
                    assert seq.induced_after(k) == IndexSequence(tuple(rank[n] for n in order[k:]))
                    assert chain_expansion(f, e, k) == delete_positions(e, order[:k])
                    assert chain_expansion(f, e, k) == delete_positions(e, seq._steps(k))


class TestEvaluate:
    def test_equal_weights_give_identity(self):
        for q in (2, 3, 10):
            f = SalemFunction(WeightSet(q, tuple(Fraction(1, q) for _ in range(q))))
            base = BaseSpec.constant(q)
            for num, den in ((0, 1), (1, 2), (1, 3), (2, 5), (1, 1)):
                e = expansion_of(Fraction(num, den), base, 30)
                assert evaluate(f, e) == value_of(e)

    def test_endpoints(self):
        assert evaluate(IDENT37, DigitExpansion(B2, ())) == 0
        assert evaluate(IDENT37, DigitExpansion(B2, (), Tail.MAX)) == 1

    def test_exact_on_terminating_points(self):
        assert evaluate(IDENT37, DigitExpansion(B2, (1,))) == Fraction(3, 10)
        # second term is beta_{d2} * p_{d1} = (3/10) * (3/10)
        assert evaluate(IDENT37, DigitExpansion(B2, (0, 1))) == Fraction(9, 100)

    def test_matches_brute_series(self):
        rng = random.Random(61)
        for seq in (IndexSequence(()), EXAMPLE_ORDER):
            f = SalemFunction(W37, seq)
            for _ in range(50):
                e = random_terminating(rng, 2, 12)
                brute = salem_series_brute(
                    W37.beta, W37.p, e.digit_at, seq.n_at, max(seq.size, 12) + 5
                )
                assert evaluate(f, e) == brute

    def test_bounds_for_nonnegative_weights(self):
        rng = random.Random(67)
        for _ in range(10):
            q = rng.choice([2, 3, 4])
            f = SalemFunction(WeightSet(q, random_positive_weights(rng, q)))
            for _ in range(30):
                e = DigitExpansion(
                    BaseSpec.constant(q),
                    tuple(rng.randrange(q) for _ in range(rng.randrange(0, 10))),
                    rng.choice([Tail.ZEROS, Tail.MAX]),
                )
                assert 0 <= evaluate(f, e) <= 1

    def test_strictly_increasing_on_pairs(self):
        rng = random.Random(71)
        f = IDENT37
        for _ in range(1000):
            a = value_of(random_terminating(rng, 2, 14))
            b = value_of(random_terminating(rng, 2, 14))
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            ea = expansion_of(a, B2, 16)
            eb = expansion_of(b, B2, 16)
            assert evaluate(f, ea) < evaluate(f, eb)

    def test_guards(self):
        with pytest.raises(ValueError, match="^expansion base must be q2$"):
            evaluate(IDENT37, DigitExpansion(BaseSpec.constant(3), (1,)))
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            residual(IDENT37, DigitExpansion(B2, (1,)), 0)
        # a base-3 first digit ahead of base-2 ones: without its base check
        # residual reads 0 at k = 2 and 3
        cantor = parse_expansion("Q(3|2):[2,1,0,1]:zeros")
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="^expansion base must be q2$"):
                residual(parse_function_spec("q=2; p=1/3,2/3"), cantor, k)


def _signed_weights(rng: random.Random, q: int) -> tuple[Fraction, ...]:
    """q weights summing to 1 whose inner entries may be zero or negative;
    drawn until ``WeightSet`` accepts them."""
    while True:
        grains = [rng.randint(1, 12)] + [rng.randint(-4, 12) for _ in range(q - 2)] + [rng.randint(1, 12)]
        if q > 2 and rng.random() < 0.4:
            grains[rng.randrange(1, q - 1)] = 0
        total = sum(grains)
        if total <= 0:
            continue
        p = tuple(Fraction(g, total) for g in grains)
        try:
            WeightSet(q, p)
        except ValueError:
            continue
        return p


class TestEvaluateKernel:
    """The integer Horner pass against the series summed term by term."""

    def test_matches_brute_series_with_tails(self):
        rng = random.Random(4093)
        seen_negative = seen_zero = seen_shorter = seen_longer = False
        for q in (2, 3, 4, 10):
            for _ in range(40):
                p = _signed_weights(rng, q)
                seen_negative |= any(v < 0 for v in p)
                seen_zero |= any(v == 0 for v in p)
                w = WeightSet(q, p)
                beta = [sum(p[:i], Fraction(0)) for i in range(q)]
                digits = [rng.randrange(q) for _ in range(rng.randrange(0, 9))]
                # orders shorter and longer than the digit prefix
                size = rng.choice([0, 3, len(digits) + rng.randrange(1, 6)])
                order = list(range(1, size + 1))
                rng.shuffle(order)
                seq = IndexSequence(tuple(order))
                seen_shorter |= 0 < size < len(digits)
                seen_longer |= size > len(digits)
                tail = rng.choice([Tail.ZEROS, Tail.MAX])
                tail_digit = q - 1 if tail is Tail.MAX else 0

                def digit_at(t):
                    return digits[t - 1] if t <= len(digits) else tail_digit

                def order_at(k):
                    return order[k - 1] if k <= len(order) else k

                terms = max(size, len(digits))
                expected = salem_series_brute(beta, p, digit_at, order_at, terms)
                if tail is Tail.MAX:
                    prod = Fraction(1)
                    for k in range(1, terms + 1):
                        prod *= p[digit_at(order_at(k))]
                    expected += prod
                e = DigitExpansion(BaseSpec.constant(q), tuple(digits), tail)
                assert evaluate(SalemFunction(w, seq), e) == expected
        assert seen_negative and seen_zero and seen_shorter and seen_longer

    def test_tail_read_through_a_longer_order_matches_the_rational_oracle(self):
        # a zeros tail is the terminating rational x itself; a max tail is the
        # digit reflection d -> q-1-d of a zeros tail at 1 - x, read under the
        # reflected weights p'_d = p_(q-1-d), where g(x) = 1 - g'(1 - x)
        rng = random.Random(4099)
        for q in (2, 3, 10):
            base = BaseSpec.constant(q)
            for _ in range(30):
                p = _signed_weights(rng, q)
                w, flipped = WeightSet(q, p), WeightSet(q, p[::-1])
                digits = tuple(rng.randrange(q) for _ in range(rng.randrange(0, 7)))
                order = list(range(1, len(digits) + rng.randrange(2, 6) + 1))
                rng.shuffle(order)
                if order[-1] == len(order):
                    order[0], order[-1] = order[-1], order[0]
                f = SalemFunction(w, IndexSequence(tuple(order)))
                assert f.seq.size > len(digits)
                x = value_of(DigitExpansion(base, digits))
                assert evaluate(f, DigitExpansion(base, digits)) == salem_value_exact(
                    w.beta, w.p, f.seq.prefix, x.numerator, x.denominator, q
                )
                y = 1 - value_of(DigitExpansion(base, digits, Tail.MAX))
                assert evaluate(f, DigitExpansion(base, digits, Tail.MAX)) == 1 - salem_value_exact(
                    flipped.beta, flipped.p, f.seq.prefix, y.numerator, y.denominator, q
                )

    def test_integer_weights_over_common_denominator(self):
        w = WeightSet(3, (Fraction(1, 2), Fraction(-1, 6), Fraction(2, 3)))
        assert w.den == 6
        assert w.p_num == (3, -1, 4)
        assert w.beta_num == (0, 3, 2)

    def test_trailing_zero_digits_do_not_change_the_value(self):
        f = SalemFunction(W37, EXAMPLE_ORDER)
        short = DigitExpansion(B2, (1, 0, 1))
        padded = DigitExpansion(B2, (1, 0, 1) + (0,) * 30)
        assert evaluate(f, short) == evaluate(f, padded)


class TestRationalExpansion:
    """``value_at`` reads a rational's digits until the period closes (exact)
    or the series is cut, where it returns the 12-place rounding of g."""

    # perm(20 2 .. 19 1); the weights read multiply to 1e-12 before 20 digits.
    LONG = SalemFunction(
        WeightSet(10, (Fraction(21, 100),) + (Fraction(9, 100),) * 8 + (Fraction(7, 100),)),
        IndexSequence((20,) + tuple(range(2, 20)) + (1,)),
    )

    def test_depth_covers_the_reading_order(self):
        w = self.LONG.weights
        # periods of 1, 6 and 16 digits, all closing inside the reading order
        for num, den in ((1, 3), (1, 7), (1, 17)):
            exact = salem_value_exact(w.beta, w.p, self.LONG.seq.prefix, num, den, 10)
            assert value_at(self.LONG, Fraction(num, den)) == (exact, None)
        # 1/47 has a period of 46 digits: the cut waits for the 20 read ones
        value, cut = value_at(self.LONG, Fraction(1, 47))
        assert cut == 20
        exact = salem_value_exact(w.beta, w.p, self.LONG.seq.prefix, 1, 47, 10)
        assert value == round(exact, 12)

    def test_terminating_points_are_exact(self):
        assert value_at(IDENT37, Fraction(3, 8)) == (evaluate(IDENT37, DigitExpansion(B2, (0, 1, 1))), None)
        assert value_at(IDENT37, 0) == (0, None)
        assert value_at(IDENT37, 1) == (1, None)
        assert value_at(SalemFunction(W37, EXAMPLE_ORDER), Fraction(1, 2)) == (Fraction(3, 10), None)

    def test_values_within_accuracy_of_exact(self):
        rng = random.Random(59)
        cases = [(self.LONG, 1, 3), (self.LONG, 2, 3), (SalemFunction(W37, EXAMPLE_ORDER), 5, 7)]
        cases += [(IDENT37, rng.randrange(0, 13), 13) for _ in range(10)]
        # a cut at max|p|^K <= 1e-12 read 31 digits at 5/8 (g = 11/21, printed
        # 0.523809523809) and 276297 at 1/3; both periods are short
        cases += [(parse_function_spec("q=3; p=1/5,2/5,2/5"), 5, 8)]
        cases += [(parse_function_spec("q=2; p=9999/10000,1/10000"), 1, 3)]
        for f, num, den in cases:
            w = f.weights
            exact = salem_value_exact(w.beta, w.p, f.seq.prefix, num, den, w.q)
            assert value_at(f, Fraction(num, den)) == (exact, None)

    def test_long_period_is_cut(self):
        # 0.123456789012 has a base-3 period of 195,312,500 digits
        f = parse_function_spec("q=3; p=1/5,2/5,2/5")
        x = Fraction("0.123456789012")
        value, cut = value_at(f, x)
        assert cut is not None and cut < 60
        # 120 digits fix g within (2/5)^120, far inside a printed unit
        deeper = evaluate(f, expansion_of(x, BaseSpec.constant(3), 120))
        assert value == round(deeper, 12)

    def test_a_tie_returns_its_half_even_rounding(self):
        # g(x) = x sits on a rounding midpoint, and its base-2 period has
        # 4*5^11 digits: the two ends never round alike, so the second check
        # (2^-87 <= 1e-26) returns the even one of their roundings, as a cut;
        # 1.5e-12 rounds up to 2e-12, and 0.5e-12 down to 0
        f = SalemFunction(WeightSet(2, (Fraction(1, 2), Fraction(1, 2))))
        assert value_at(f, Fraction(1, 2 * 10**12)) == (0, 87)
        assert value_at(f, Fraction(3, 2 * 10**12)) == (Fraction(2, 10**12), 87)

    def test_rejects_points_outside_the_unit_interval(self):
        for x in (Fraction(-1, 3), Fraction(4, 3)):
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
                value_at(IDENT37, x)


# q in {2, 3, 4, 10}, with zero and negative weights
WEIGHT_SETS = [
    W37,
    WeightSet(2, (Fraction(1, 2), Fraction(1, 2))),
    WeightSet(2, (Fraction(39, 40), Fraction(1, 40))),
    WeightSet(3, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))),
    WeightSet(3, (Fraction(1, 2), Fraction(0), Fraction(1, 2))),
    WeightSet(3, (Fraction(7, 10), Fraction(-1, 5), Fraction(1, 2))),
    WeightSet(3, (Fraction(9, 10), Fraction(-4, 5), Fraction(9, 10))),
    WeightSet(4, (Fraction(1, 4), Fraction(1, 8), Fraction(3, 8), Fraction(1, 4))),
    WeightSet(4, (Fraction(2, 5), Fraction(0), Fraction(-1, 10), Fraction(7, 10))),
    WeightSet(10, (Fraction(21, 100),) + (Fraction(9, 100),) * 8 + (Fraction(7, 100),)),
]


@st.composite
def unit_rationals(draw):
    den = draw(st.integers(1, 400))
    return Fraction(draw(st.integers(0, den)), den)


class TestValueAtAgainstOracle:
    @given(st.sampled_from(WEIGHT_SETS), st.permutations(range(1, 9)), st.integers(0, 8), unit_rationals())
    @settings(max_examples=300, deadline=None)
    def test_exact_or_cut_within_accuracy(self, w, perm, size, x):
        # the entries <= size of a permutation of 1..8 permute 1..size
        f = SalemFunction(w, IndexSequence(tuple(n for n in perm if n <= size)))
        value, cut = value_at(f, x)
        exact = salem_value_exact(w.beta, w.p, f.seq.prefix, x.numerator, x.denominator, w.q)
        if cut is None:
            assert value == exact
        else:
            assert value == round(exact, 12)
            assert cut >= f.seq.size


class TestFunctionalEquations:
    def test_identity_residuals_are_zero(self):
        rng = random.Random(73)
        for _ in range(30):
            e = random_terminating(rng, 2, 12)
            for k in range(1, 12):
                assert residual(IDENT37, e, k) == 0

    def test_example_order_residuals_are_zero(self):
        rng = random.Random(79)
        f = SalemFunction(W37, EXAMPLE_ORDER)
        for _ in range(30):
            e = random_terminating(rng, 2, 12)
            for k in range(1, 22):
                assert residual(f, e, k) == 0

    def test_zero_point_residuals(self):
        e = DigitExpansion(B2, ())
        f = SalemFunction(W37, EXAMPLE_ORDER)
        for k in range(1, 8):
            assert residual(f, e, k) == 0

    def test_chain_values_need_reindexed_reading(self):
        # Evaluating the shifted point with the unshifted reading order pairs
        # the wrong digits with the wrong series slots.
        f = SalemFunction(W37, IndexSequence((2, 1)))
        e = DigitExpansion(B2, (1, 0, 0))
        naive = evaluate(f, chain_expansion(f, e, 1))
        assert chain_value(f, e, 1) != naive

    def test_long_chain_takes_one_pass(self):
        # the reversed order deletes positions 5000 down to 1001; the digits
        # 1..1000 survive and are read in reverse
        f = parse_function_spec("q=2; p=1/3,2/3; seq=perm(" + " ".join(map(str, range(5000, 0, -1))) + ")")
        rng = random.Random(5000)
        e = DigitExpansion(B2, tuple(rng.randrange(2) for _ in range(5000)))
        started = time.monotonic()
        value = chain_value(f, e, 4000)
        assert time.monotonic() - started < 0.5
        digits, _ = stream_after_deleting(e, range(5000, 1000, -1), horizon=1000)
        survivor = value_of(DigitExpansion(B2, tuple(digits)))
        beta, p = [0, Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]
        order = tuple(range(1000, 0, -1))
        assert value == salem_value_exact(beta, p, order, survivor.numerator, survivor.denominator, 2)

    def test_identity_chain_values_are_plain_evaluations(self):
        rng = random.Random(83)
        for _ in range(20):
            e = random_terminating(rng, 2, 10)
            for k in range(0, 6):
                assert chain_value(IDENT37, e, k) == evaluate(
                    IDENT37, chain_expansion(IDENT37, e, k)
                )


class TestPeelingCheck:
    POINT = (SalemFunction(W37, EXAMPLE_ORDER), random_terminating(random.Random(89), 2, 12))

    def test_a_wrong_chain_value_fails(self, monkeypatch):
        # the check compares independently computed chain values, so one
        # wrong value breaks the identity that reads it
        real = verify.sm.chain_value

        def off_at_5(f, e, k):
            return real(f, e, k) + (Fraction(1, 7) if k == 5 else 0)

        monkeypatch.setattr(verify.sm, "chain_value", off_at_5)
        _, ok, detail = check_peeling_identities([(*self.POINT, range(1, 12))])
        assert not ok and " k=5 " in detail

    def test_a_chain_value_one_step_off_fails_with_its_residual(self, monkeypatch):
        # each g_k read as g_(k+1): the first identity it breaks is named,
        # with its exact residual
        f, e = self.POINT
        real, w = verify.sm.chain_value, f.weights
        g = [real(f, e, k) for k in range(13)]
        for k in range(1, 12):
            d = e.digit_at(f.seq.n_at(k))
            r = abs(g[k] - (w.beta[d] + w.p[d] * g[k + 1]))
            if r:
                break
        monkeypatch.setattr(verify.sm, "chain_value", lambda f, e, k: real(f, e, k + 1))
        _, ok, detail = check_peeling_identities([(f, e, range(1, 12))])
        assert not ok and detail == f"{format_function_spec(f)} k={k} residual={r}"

    @pytest.mark.parametrize("ks, calls", [(range(1, 12), 12), ((1, 7, 20), 6)])
    def test_each_chain_value_is_read_once(self, monkeypatch, ks, calls):
        real, seen = verify.sm.chain_value, []

        def counting(f, e, k):
            seen.append(k)
            return real(f, e, k)

        monkeypatch.setattr(verify.sm, "chain_value", counting)
        assert check_peeling_identities([(*self.POINT, ks)])[1]
        assert len(seen) == len(set(seen)) == calls


class TestSeriesTerms:
    def test_rearranged_second_term(self):
        f = SalemFunction(W37, EXAMPLE_ORDER)
        e = DigitExpansion(B2, (1, 0, 1, 0, 1, 0, 1))
        terms = first_terms(f, e, 4)
        assert terms[0] == W37.beta[e.digit_at(1)]
        assert terms[1] == W37.beta[e.digit_at(5)] * W37.p[e.digit_at(1)]
        assert terms[2] == W37.beta[e.digit_at(7)] * W37.p[e.digit_at(1)] * W37.p[e.digit_at(5)]

    def test_identity_terms(self):
        e = DigitExpansion(B2, (1, 1, 0, 1))
        terms = first_terms(IDENT37, e, 4)
        prod = Fraction(1)
        for k, term in enumerate(terms, start=1):
            assert term == W37.beta[e.digit_at(k)] * prod
            prod *= W37.p[e.digit_at(k)]

    def test_zero_point(self):
        assert first_terms(IDENT37, DigitExpansion(B2, ()), 5) == [Fraction(0)] * 5

    def test_partial_sum_matches_evaluate(self):
        e = DigitExpansion(B2, (1, 0, 1, 1))
        assert sum(first_terms(IDENT37, e, 12)) == evaluate(IDENT37, e)


class TestIncrements:
    def test_simple_product(self):
        assert increment_product(IDENT37, (1, 0)) == Fraction(21, 100)
        assert increment_via_evaluate(IDENT37, (1, 0)) == Fraction(21, 100)

    def test_single_digit(self):
        f = SalemFunction(W37, EXAMPLE_ORDER)
        assert increment_product(f, (0,)) == Fraction(3, 10)
        assert increment_via_evaluate(f, (0,)) == Fraction(3, 10)

    def test_digit_past_the_int_string_limit(self):
        with pytest.raises(ValueError) as err:
            increment_product(IDENT37, (10**5000,))
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"digit <more digits than the integer string limit of {limit}> outside alphabet 0..1"

    def test_rank_two_partition(self):
        total = sum(increment_product(IDENT37, w) for w in itertools.product(range(2), repeat=2))
        assert total == 1

    def test_products_match_evaluation_for_rearranged_orders(self):
        rng = random.Random(89)
        f = SalemFunction(W37, EXAMPLE_ORDER)
        for _ in range(40):
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
            assert increment_via_evaluate(f, word) == increment_product(f, word)

    def test_cylinder_increment_identity_reduction(self):
        for rank in (1, 2, 3, 4):
            for word in itertools.product(range(2), repeat=rank):
                cyl = Cylinder(B2, word)
                assert cylinder_increment(IDENT37, cyl) == increment_product(IDENT37, word)

    def test_zero_weight_kills_cylinder(self):
        f = SalemFunction(WeightSet(3, (Fraction(1, 2), Fraction(0), Fraction(1, 2))))
        cyl = Cylinder(BaseSpec.constant(3), (0, 1))
        assert cylinder_increment(f, cyl) == 0

    def test_swapped_order_recorded_value(self):
        f = SalemFunction(W37, IndexSequence((2, 1)))
        got = cylinder_increment(f, Cylinder(B2, (1,)))
        assert got == Fraction(91, 100)  # 1 - p0^2, fixed by direct evaluation


# q in {2, 3, 4, 5, 10}, a negative weight and a weight of 1/10000
INTEGRAL_SPECS = [
    *(f"q={q}; p=" + ",".join(map(str, random_positive_weights(random.Random(q), q))) for q in (2, 3, 4, 5, 10)),
    "q=3; p=0.6,-0.19,0.59",
    "q=2; p=9999/10000,1/10000",
]

# wrong closed forms of the integral I = sum(beta)/(q - 1)
INTEGRAL_MUTANTS = {
    "over-q": lambda f: Fraction(sum(f.weights.beta), f.weights.q),
    "sum-p": lambda f: Fraction(sum(f.weights.p), f.weights.q - 1),
    "shifted-beta": lambda f: Fraction(sum(f.weights.beta[1:]) + 1, f.weights.q - 1),
    "one-minus": lambda f: 1 - integral_closed_form(f),
    "half": lambda f: Fraction(1, 2),
    "plus-1e-3": lambda f: integral_closed_form(f) + Fraction(1, 10**3),
    "plus-1e-9": lambda f: integral_closed_form(f) + Fraction(1, 10**9),
}


class TestIntegral:
    def test_closed_forms(self):
        assert integral_closed_form(SalemFunction(WeightSet(2, (Fraction(1, 2), Fraction(1, 2))))) == Fraction(1, 2)
        assert integral_closed_form(IDENT37) == Fraction(3, 10)
        assert integral_closed_form(
            SalemFunction(WeightSet(3, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))))
        ) == Fraction(1, 2)

    def test_riemann_bracket_contains_closed_form(self):
        closed = integral_closed_form(IDENT37)
        lower, upper = riemann_bracket(IDENT37, 9)
        assert lower <= closed <= upper
        assert upper - lower == Fraction(1, 2**9)

    @pytest.mark.parametrize("spec", INTEGRAL_SPECS)
    def test_grid_integral_is_exact(self, spec):
        f = parse_function_spec(spec)
        assert grid_integral(f) == integral_closed_form(f)

    @pytest.mark.parametrize("order", [(), (2, 1), (3, 1, 2)], ids=["identity", "perm21", "perm312"])
    @pytest.mark.parametrize("spec", INTEGRAL_SPECS)
    def test_endpoint_sums_are_exact(self, spec, order):
        f = SalemFunction(parse_function_spec(spec).weights, IndexSequence(order))
        assert check_endpoint_sums([(f, max(len(order), 3))])[1:] == (True, "exact equality")

    @pytest.mark.parametrize("spec", [spec for spec in INTEGRAL_SPECS if spec.startswith("q=2;")])
    def test_endpoint_sums_in_the_ten_position_order(self, spec):
        f = SalemFunction(parse_function_spec(spec).weights, EXAMPLE_ORDER)
        assert check_endpoint_sums([(f, 10)])[1:] == (True, "exact equality")

    def test_endpoint_sums(self):
        # I = 3/10: the 2^11 zeros-tail endpoints sum to 2047 * 3/10, and
        # their max-tail forms to one more
        zeros = sum(evaluate(IDENT37, DigitExpansion(B2, w)) for w in itertools.product(range(2), repeat=11))
        assert zeros == 2047 * Fraction(3, 10)
        assert check_endpoint_sums([(IDENT37, 11)])[1:] == (True, "exact equality")

    def test_rearranged_endpoint_sums(self):
        # the 10-position order at q = 2, at its own length and one past it
        f = SalemFunction(W37, EXAMPLE_ORDER)
        ones = sum(
            evaluate(f, DigitExpansion(B2, w, Tail.MAX)) for w in itertools.product(range(2), repeat=10)
        )
        assert ones == 1023 * Fraction(3, 10) + 1
        assert check_endpoint_sums([(f, 10), (f, 11)])[1:] == (True, "exact equality")

    def test_endpoint_sums_name_the_failing_case(self):
        # k below the order's length breaks the identity: past position k the
        # digits are not the tail's
        f = SalemFunction(W37, IndexSequence((3, 1, 2)))
        name, ok, detail = check_endpoint_sums([(IDENT37, 4), (f, 2)])
        assert not ok and detail.startswith("q=2; p=3/10,7/10; seq=perm(3 1 2) k=2 zeros tail: sum=")

    @pytest.mark.parametrize("mutant", INTEGRAL_MUTANTS.values(), ids=INTEGRAL_MUTANTS.keys())
    def test_both_exact_checks_fail_on_every_mutant(self, monkeypatch, mutant):
        functions = [IDENT37, SalemFunction(W315, IndexSequence((3, 1, 2)))]
        monkeypatch.setattr(verify.sm, "integral_closed_form", mutant)
        assert not check_endpoint_sums([(f, 6) for f in functions])[1]
        assert not check_grid_integral(SalemFunction(f.weights) for f in functions)[1]


class TestMonotonicityClassifier:
    def test_strictly_increasing(self):
        assert classify_monotonicity(IDENT37) == Monotonicity.STRICTLY_INCREASING

    def test_zero_weight_means_constant_ae(self):
        f = SalemFunction(WeightSet(3, (Fraction(1, 2), Fraction(0), Fraction(1, 2))))
        assert classify_monotonicity(f) == Monotonicity.CONSTANT_AE

    def test_negative_weight_means_no_intervals(self):
        f = SalemFunction(WeightSet(3, (Fraction(7, 10), Fraction(-1, 5), Fraction(1, 2))))
        assert classify_monotonicity(f) == Monotonicity.NO_MONOTONICITY_INTERVALS

    def test_finite_rearrangement_keeps_an_interval(self):
        f = SalemFunction(W37, EXAMPLE_ORDER)
        assert classify_monotonicity(f) == Monotonicity.HAS_MONOTONICITY_INTERVAL

    def test_zero_weight_wins_over_rearrangement(self):
        f = SalemFunction(
            WeightSet(3, (Fraction(1, 2), Fraction(0), Fraction(1, 2))), IndexSequence((2, 1))
        )
        assert classify_monotonicity(f) == Monotonicity.CONSTANT_AE


class TestContinuity:
    def test_identity_order_continuous(self):
        rng = random.Random(97)
        for _ in range(100):
            digits = [rng.randrange(2) for _ in range(rng.randrange(1, 9))]
            if digits[-1] == 0:
                digits[-1] = 1
            e = DigitExpansion(B2, tuple(digits))
            res = continuity_at(IDENT37, e)
            assert res.is_continuous
            assert evaluate(IDENT37, e) == evaluate(IDENT37, dual_representation(e))

    def test_swapped_order_jump_at_half(self):
        f = SalemFunction(W37, IndexSequence((2, 1)))
        e = DigitExpansion(B2, (1,))
        res = continuity_at(f, e)
        assert not res.is_continuous
        assert res.jump == Fraction(-21, 50)  # -2 p0 p1
        assert res.jump == evaluate(f, e) - evaluate(f, DigitExpansion(B2, (0,), Tail.MAX))

    def test_swapped_order_continuous_beyond_the_block(self):
        f = SalemFunction(W37, IndexSequence((2, 1)))
        e = DigitExpansion(B2, (0, 0, 1))
        res = continuity_at(f, e)
        assert res.is_continuous
        assert evaluate(f, e) == evaluate(f, dual_representation(e))

    def test_example_order_jump_matches_duals(self):
        f = SalemFunction(W37, EXAMPLE_ORDER)
        e = DigitExpansion(B2, (0, 1))
        res = continuity_at(f, e)
        assert not res.is_continuous
        assert res.jump == evaluate(f, e) - evaluate(f, dual_representation(e))

    def test_unique_representations_rejected(self):
        with pytest.raises(ValueError):
            continuity_at(IDENT37, DigitExpansion(B2, ()))
        with pytest.raises(ValueError):
            continuity_at(IDENT37, DigitExpansion(B2, (), Tail.MAX))

    def test_rule_matches_the_k0_formula_on_every_short_order(self):
        cases = 0
        for size in range(7):
            for order in itertools.permutations(range(1, size + 1)):
                f = SalemFunction(W37, IndexSequence(order))
                for m in range(1, 10):
                    e = DigitExpansion(B2, (0,) * (m - 1) + (1,))
                    assert continuity_at(f, e).is_continuous == continuity_k0_rule(order, m), (order, m)
                    cases += 1
        assert cases == 7866

    def test_max_form_input_accepted(self):
        e = DigitExpansion(B2, (0,), Tail.MAX)
        assert continuity_at(IDENT37, e).is_continuous

    @pytest.mark.parametrize(
        "q, digits, tail",
        [
            (2, (1, 0, 0, 0), Tail.ZEROS),
            (2, (0, 1, 1, 1), Tail.MAX),
            (2, (0,), Tail.MAX),
            (3, (1, 0, 0), Tail.ZEROS),
            (3, (0, 2, 2, 2), Tail.MAX),
            (3, (2, 0), Tail.ZEROS),
            (3, (1, 2, 2), Tail.MAX),
        ],
    )
    def test_padded_forms_give_the_canonical_jump(self, q, digits, tail):
        # zero-padded zeros forms and (q-1)-padded max forms are the same
        # streams as the canonical ones, at 1/q or 2/q, under perm(2 1)
        f = SalemFunction(W37 if q == 2 else W315, IndexSequence((2, 1)))
        e = DigitExpansion(BaseSpec.constant(q), digits, tail)
        zeros_form = DigitExpansion(BaseSpec.constant(q), (value_of(e) * q,), Tail.ZEROS)
        max_form = dual_representation(zeros_form)
        jump = continuity_at(f, e).jump
        assert jump == evaluate(f, zeros_form) - evaluate(f, max_form) != 0
        if q == 2:
            assert jump == Fraction(-21, 50)  # -2 p0 p1


def rendered_round(v: Fraction) -> str:
    """round(v, 12), written out exactly through Decimal, less trailing zeros."""
    r = round(v, 12)
    with localcontext() as ctx:
        ctx.prec = 60  # the quotient terminates within 12 places, so it is exact
        text = format(Decimal(r.numerator) / Decimal(r.denominator), "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


class TestFormatValue:
    def test_matches_round_to_twelve_places(self):
        rng = random.Random(27)
        values = [Fraction(rng.randrange(-10**15, 2 * 10**15), rng.randrange(1, 10**15)) for _ in range(3000)]
        # ties k / (2 * 10^12) for odd k, both even and odd neighbours
        values += [Fraction(rng.randrange(-10**12, 4 * 10**12) * 2 + 1, 2 * 10**12) for _ in range(3000)]
        values += [Fraction(n, d) for n in range(-3, 30) for d in range(1, 12)]
        for v in values:
            assert format_value(v) == rendered_round(v), v

    @pytest.mark.parametrize(
        "v, text",
        [
            (Fraction(0), "0"),
            (Fraction(1), "1"),
            (Fraction(1, 2), "0.5"),
            (Fraction(1, 3), "0.333333333333"),
            (Fraction(2, 3), "0.666666666667"),
            (Fraction(1, 2 * 10**12), "0"),
            (Fraction(3, 2 * 10**12), "0.000000000002"),
            (Fraction(4000000000001, 2 * 10**13), "0.2"),
            (Fraction(589228574607, 2 * 10**12), "0.294614287304"),
            (Fraction(-1, 3), "-0.333333333333"),
        ],
    )
    def test_values(self, v, text):
        assert format_value(v) == text


class TestDistribution:
    def test_outside_unit_interval(self):
        d = DistributionSpec(W37)
        assert distribution_function(d, Fraction(-1, 2)) == 0
        assert distribution_function(d, 2) == 1
        assert distribution_function(d, 1) == 1

    def test_uniform_case(self):
        d = DistributionSpec(WeightSet(2, (Fraction(1, 2), Fraction(1, 2))))
        assert distribution_function(d, Fraction(1, 3)) == Fraction(1, 3)

    def test_within_accuracy_of_exact(self):
        # periods of 2, 3 and 10 digits: the values are exact
        d = DistributionSpec(W37)
        for num, den in ((1, 3), (2, 7), (5, 11)):
            exact = salem_value_exact(W37.beta, W37.p, (), num, den, 2)
            assert distribution_function(d, Fraction(num, den)) == exact

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DistributionSpec(WeightSet(3, (Fraction(7, 10), Fraction(-1, 5), Fraction(1, 2))))

    def test_monotone_on_grid(self):
        rng = random.Random(101)
        for _ in range(3):
            q = rng.choice([2, 3])
            d = DistributionSpec(WeightSet(q, random_positive_weights(rng, q)))
            prev = Fraction(-1)
            for i in range(0, 301):
                val = distribution_function(d, Fraction(i, 300))
                assert val >= prev
                prev = val

    def test_order_field_does_not_change_the_law(self):
        # the law holds no reading order: its CDF is the identity-order
        # function, exact here as 1/49 has a 21-digit period
        d = DistributionSpec(W37)
        for i in range(0, 50):
            assert distribution_function(d, Fraction(i, 49)) == salem_value_exact(W37.beta, W37.p, (), i, 49, 2)


class TestFunctionSpecs:
    def test_parse_examples(self):
        f = parse_function_spec("q=2; p=0.3,0.7")
        assert f.weights == W37 and f.seq.is_identity
        f = parse_function_spec("q=2; p=3/10,7/10; seq=perm(1 5 7 3 6 10 2 4 8 9)")
        assert f.seq == EXAMPLE_ORDER

    def test_round_trip(self):
        for text in ("q=2; p=0.3,0.7", "q=3; p=1/5,2/5,2/5; seq=perm(2 1)"):
            f = parse_function_spec(text)
            assert parse_function_spec(format_function_spec(f)) == f

    @pytest.mark.parametrize(
        "text, key",
        [
            ("q=2; p=0.3,0.7; p=0.6,0.4", "p"),
            ("q=3; q=2; p=0.3,0.7", "q"),
            ("Q=2; p=0.3,0.7; q=2", "q"),
            ("q=2; p=0.3,0.7; seq=perm(2 1); seq=perm(2 1)", "seq"),
        ],
    )
    def test_rejects_repeated_keys(self, text, key):
        with pytest.raises(ValueError, match=f"^spec key {key} set twice$"):
            parse_function_spec(text)

    def test_rejects_bad_specs(self):
        for text in ("q=2", "p=0.5,0.5", "q=2; p=0.4,0.7", "q=2; p=0.5,0.5; seq=perm(1 3)", "q=2; p=0.5,0.5; flip=1"):
            with pytest.raises(ValueError):
                parse_function_spec(text)
