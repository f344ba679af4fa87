import random
import re
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from cantorshift import (
    BaseSpec,
    BudgetExceededError,
    DigitExpansion,
    FamilyKind,
    SetFamilySpec,
    comparison_measure,
    delete_positions,
    generalized_shift,
    gk_scan,
    make_schedule,
    monte_carlo_measure,
    plm_generalized_chain,
    plm_iter_shift,
    plm_single_deletion,
    rows_to_csv,
    shift_n,
    sublevel_measure,
    sublevel_set,
    value_of,
)
from cantorshift import measure
import cli_cases
import deep_calls
from oracles import chain_deleted_positions, compare_mc_counts, constant_slope_map, threshold_mc_counts

THIRDS = (Fraction(1, 7), Fraction(1, 3), Fraction(2, 5))


def random_point(rng, q, length=10):
    digits = tuple(rng.randrange(q) for _ in range(length))
    e = DigitExpansion(BaseSpec.constant(q), digits)
    return e, value_of(e)


class TestPiecewiseMaps:
    def test_doubling_map(self):
        plm = plm_iter_shift(2, 1)
        assert len(plm) == 2
        assert plm.apply(Fraction(1, 4)) == Fraction(1, 2)
        assert plm.apply(Fraction(3, 4)) == Fraction(1, 2)

    def test_decimal_shift(self):
        plm = plm_iter_shift(10, 1)
        assert plm.apply(Fraction(1234, 10000)) == Fraction(234, 1000)

    def test_three_fold_branches(self):
        plm = plm_iter_shift(2, 3)
        assert len(plm) == 8
        assert all(br.slope == 8 for br in plm.branches)
        rng = random.Random(7)
        for _ in range(50):
            e, z = random_point(rng, 2)
            if z == 1:
                continue
            assert plm.apply(z) == value_of(shift_n(e, 3))

    def test_rejects_out_of_order_branches(self):
        b0, b1, b2, b3 = plm_iter_shift(2, 2).branches
        with pytest.raises(ValueError, match="branch domains must tile"):
            measure.PiecewiseLinearMap([b0, b2, b1, b3])

    def test_iterate_limit_guard(self):
        with pytest.raises(BudgetExceededError):
            plm_iter_shift(10, 8)

    def test_single_deletion_matches_digit_operator(self):
        rng = random.Random(11)
        for q, m in ((10, 1), (10, 2), (10, 3), (10, 4), (2, 3), (3, 2)):
            plm = plm_single_deletion(q, m)
            for _ in range(40):
                e, z = random_point(rng, q)
                if z == 1:
                    continue
                assert plm.apply(z) == value_of(generalized_shift(e, m))

    def test_chain_matches_scheduled_deletions(self):
        rng = random.Random(13)
        positions = (1, 5, 7, 3, 6)
        chain = plm_generalized_chain(2, make_schedule(positions))
        for _ in range(100):
            e, z = random_point(rng, 2, length=14)
            if z == 1:
                continue
            assert chain.apply(z) == value_of(delete_positions(e, positions))

    def test_empty_chain_is_rejected(self):
        # like every other way of building an empty chain
        with pytest.raises(ValueError, match="chain indices must be >= 1 and nonempty"):
            plm_generalized_chain(3, ())

    # each builder checks its arguments through SetFamilySpec
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: plm_iter_shift(2, 0), "iterate count must be >= 1"),
            (lambda: plm_single_deletion(2, 0), "chain indices must be >= 1 and nonempty"),
            (lambda: plm_iter_shift(1, 1), "q must be >= 2"),
            (lambda: plm_single_deletion(1, 1), "q must be >= 2"),
        ],
        ids=["itershift-n", "single-m", "itershift-q", "single-q"],
    )
    def test_builder_messages(self, build, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            build()

    def test_builders_check_the_budget_before_listing(self, monkeypatch):
        def listed(*_args):
            raise AssertionError("a builder listed the deleted positions")

        monkeypatch.setattr(measure.sh, "original_positions", listed)
        monkeypatch.setattr(SetFamilySpec, "deleted_positions", listed)
        for build, refusal in [
            (lambda: plm_generalized_chain(3, (10**9,)), "3^1000000000 branches exceed budget 1000000"),
            (lambda: plm_single_deletion(2, 10**9), "2^1000000000 branches exceed budget 1000000"),
            (lambda: plm_iter_shift(2, 30), "2^30 branches exceed budget 1000000"),
        ]:
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(refusal)}$"):
                build()

    def test_chain_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            plm_generalized_chain(2, (1, 1, 1, 1), budget=8)


class TestSublevelMeasure:
    def test_identity_map(self):
        assert sublevel_measure(constant_slope_map(1, 0), Fraction(1, 3)) == Fraction(1, 3)

    def test_boundary_thresholds(self):
        for plm in (plm_iter_shift(2, 2), plm_single_deletion(3, 2)):
            assert sublevel_measure(plm, 0) == 0
            assert sublevel_measure(plm, 1) == 1

    def test_iterated_shift_preserves_measure(self):
        for q in (2, 3):
            for n in range(1, 7):
                plm = plm_iter_shift(q, n)
                for x in THIRDS:
                    assert sublevel_measure(plm, x) == x

    def test_single_deletion_preserves_measure(self):
        for m in range(1, 5):
            plm = plm_single_deletion(10, m)
            assert sublevel_measure(plm, Fraction(1, 4)) == Fraction(1, 4)

    def test_monotone_in_threshold(self):
        plm = plm_generalized_chain(2, (2, 1, 3))
        values = [sublevel_measure(plm, Fraction(i, 17)) for i in range(18)]
        assert values == sorted(values)

    def test_sublevel_set_is_within_unit(self):
        pieces = sublevel_set(plm_iter_shift(2, 2), Fraction(1, 3))
        assert all(0 <= a < b <= 1 for a, b in pieces)
        # one piece per branch, in order, so disjoint
        assert len(pieces) == 4
        assert all(b <= c for (_, b), (c, _) in zip(pieces, pieces[1:]))


class TestComparison:
    def test_equal_maps(self):
        plm = plm_iter_shift(2, 2)
        assert comparison_measure(plm, plm) == 0

    def test_identity_below_constant(self):
        assert comparison_measure(constant_slope_map(1, 0), constant_slope_map(0, Fraction(1, 2))) == Fraction(1, 2)

    def test_second_iterate_below_first(self):
        got = comparison_measure(plm_iter_shift(2, 2), plm_iter_shift(2, 1))
        assert got == Fraction(1, 2)
        mc = monte_carlo_measure(SetFamilySpec.compare_iter(2, 2, 1), 0, 10**6, seed=3)
        sigma = mc.halfwidth / 2.5758293035489004
        assert abs(mc.estimate - 0.5) < 3 * sigma

    def test_asymmetric_pairs(self):
        a = plm_iter_shift(2, 3)
        b = plm_iter_shift(2, 1)
        lt = comparison_measure(a, b)
        gt = comparison_measure(b, a)
        eq = 1 - lt - gt
        assert lt > 0 and gt > 0 and eq >= 0


class TestMonteCarlo:
    def test_trivial_thresholds(self):
        spec = SetFamilySpec.iter_shift(2, 1)
        assert monte_carlo_measure(spec, 0, 1000, seed=1).estimate == 0.0
        assert monte_carlo_measure(spec, 1, 1000, seed=1).estimate == 1.0

    def test_seed_determinism(self):
        spec = SetFamilySpec.iter_shift(3, 2)
        a = monte_carlo_measure(spec, Fraction(1, 3), 20000, seed=9)
        b = monte_carlo_measure(spec, Fraction(1, 3), 20000, seed=9)
        assert a == b
        c = monte_carlo_measure(spec, Fraction(1, 3), 20000, seed=10)
        assert a != c

    def test_matches_exact_iter_shift(self):
        spec = SetFamilySpec.iter_shift(2, 1)
        mc = monte_carlo_measure(spec, Fraction(1, 2), 10**6, seed=7)
        assert abs(mc.estimate - 0.5) <= 4 * mc.halfwidth
        assert abs(mc.halfwidth - 0.0013) < 2e-4

    def test_matches_exact_chain(self):
        steps = make_schedule((1, 4, 2))
        exact = float(
            sublevel_measure(plm_generalized_chain(2, steps), Fraction(1, 3))
        )
        spec = SetFamilySpec.gen_chain(2, steps)
        mc = monte_carlo_measure(spec, Fraction(1, 3), 10**5, seed=21)
        assert abs(mc.estimate - exact) <= 4 * mc.halfwidth

    def test_deletion_beyond_guard_window(self):
        # the sampled digit block must reach past the last deleted position
        spec = SetFamilySpec.gen_chain(2, (20,))
        mc = monte_carlo_measure(spec, Fraction(1, 3), 10**5, seed=2)
        assert abs(mc.estimate - 1 / 3) <= 4 * mc.halfwidth

    def test_mixed_chain_against_exact(self):
        indices = (9, 1, 7)
        exact = float(
            sublevel_measure(plm_generalized_chain(2, indices, budget=10**7), Fraction(2, 5))
        )
        mc = monte_carlo_measure(SetFamilySpec.gen_chain(2, indices), Fraction(2, 5), 10**5, seed=3)
        assert abs(mc.estimate - exact) <= 4 * mc.halfwidth

    def test_guards(self):
        with pytest.raises(ValueError):
            monte_carlo_measure(SetFamilySpec.iter_shift(2, 1), Fraction(1, 2), 0, seed=0)

    # a sample may draw 100016 digits: M + 16 for a threshold family and
    # |a - b| + 16 for a comparison
    @pytest.mark.parametrize(
        "spec, draw",
        [
            (SetFamilySpec.iter_shift(2, 100000), None),
            (SetFamilySpec.iter_shift(2, 100001), 100017),
            (SetFamilySpec.compare_iter(2, 100001, 1), None),
            (SetFamilySpec.compare_iter(2, 1, 100002), 100017),
        ],
        ids=["itershift-at", "itershift-past", "compareiter-at", "compareiter-past"],
    )
    def test_draw_limit(self, spec, draw):
        if draw is None:
            assert monte_carlo_measure(spec, Fraction(1, 3), 1, seed=0).samples == 1
        else:
            with pytest.raises(BudgetExceededError, match=f"^a sample would draw {draw} digits, over the limit 100016$"):
                monte_carlo_measure(spec, Fraction(1, 3), 1, seed=0)

    @pytest.mark.parametrize("x", [2, Fraction(-1, 3), Fraction(4, 3)])
    def test_threshold_outside_unit_interval(self, x):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\]"):
            monte_carlo_measure(SetFamilySpec.gen_chain(2, (1, 4, 2)), x, 100, seed=0)
        # a comparison reads no threshold
        assert monte_carlo_measure(SetFamilySpec.compare_iter(2, 2, 1), x, 100, seed=0).samples == 100

    @pytest.mark.parametrize(
        "spec",
        [
            SetFamilySpec.iter_shift(2, 1),
            SetFamilySpec.iter_shift(3, 9),
            SetFamilySpec.gen_chain(2, (1, 4, 2)),
            SetFamilySpec.gen_chain(2, (7, 7)),
            SetFamilySpec.gen_chain(2, (20,)),
            SetFamilySpec.gen_chain(3, (3, 4, 1)),
            SetFamilySpec.gen_chain(4, (2, 2, 5)),
            SetFamilySpec(FamilyKind.SCHEDULE_CHAIN, 2, indices=(5, 6, 4)),
            SetFamilySpec(FamilyKind.SCHEDULE_CHAIN, 2, indices=(3, 1, 5, 2, 6)),
        ],
        ids=lambda spec: f"{spec.kind.value}-q{spec.q}-{spec.n or '.'.join(map(str, spec.indices))}",
    )
    def test_matches_digit_by_digit_reference(self, spec):
        deleted = chain_deleted_positions(spec.indices) if spec.indices else range(1, spec.n + 1)
        # x * q^(top - L) is an integer at 3/8 for q = 2, 4 and at 1/9 for q = 3
        for x in (Fraction(0), Fraction(1, 3), Fraction(3, 8), Fraction(1, 9), Fraction(1, 2), Fraction(5, 7)):
            for seed in (4, 19):
                mc = monte_carlo_measure(spec, x, 600, seed)
                assert (mc.hits, mc.indeterminate) == threshold_mc_counts(spec.q, deleted, x, 600, seed)

    # at these seeds one of the 600 samples draws the block floor(x * 2^16):
    # at 1/3 it reads further digits and ends in a hit (seed 1380, sample 21)
    # or a miss (seed 1190, sample 15); at 3/8, where x * 2^16 is an integer,
    # it is a miss that reads nothing more (seeds 63 and 529, samples 365 and
    # 107).  Each draw below 2^33 reads two 32-bit words, and at these seeds a
    # digit drawn too many or too few shifts the later samples off them.
    @pytest.mark.parametrize(
        "x, seed", [(Fraction(1, 3), 1380), (Fraction(1, 3), 1190), (Fraction(3, 8), 63), (Fraction(3, 8), 529)]
    )
    def test_threshold_block_at_x_reads_on_only_if_x_splits_it(self, x, seed):
        mc = monte_carlo_measure(SetFamilySpec.iter_shift(2, 17), x, 600, seed)
        assert (mc.hits, mc.indeterminate) == threshold_mc_counts(2, range(1, 18), x, 600, seed)

    @pytest.mark.parametrize("q", [2, 3, 10])
    @pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 20])
    def test_comparison_matches_digit_by_digit_reference(self, q, k):
        for a, b in ((2 + k, 2), (2, 2 + k)):
            for seed in (4, 19):
                mc = monte_carlo_measure(SetFamilySpec.compare_iter(q, a, b), 0, 300, seed)
                assert (mc.hits, mc.indeterminate) == compare_mc_counts(q, a, b, 300, seed)

    # at these seeds one of the 300 samples ties on its first windows, so the
    # round that keeps the last |a - b| digits and draws 16 more decides it
    @pytest.mark.parametrize("a, b, seed", [(3, 2, 30), (2, 3, 30), (19, 2, 276), (2, 19, 276)])
    def test_comparison_tie_keeps_the_lag_digits(self, a, b, seed):
        mc = monte_carlo_measure(SetFamilySpec.compare_iter(2, a, b), 0, 300, seed)
        assert (mc.hits, mc.indeterminate) == compare_mc_counts(2, a, b, 300, seed)


class TestBinaryRounds:
    """A q = 2 draw that fits one 32-bit word is decided a round of words at a
    time by ``measure._binary_counts``; every count must still equal the
    digit-by-digit oracle's, which draws one ``randrange`` sample at a time."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """The ``samples`` of every ``_binary_counts`` call, and the number of
        tied samples refined (by either path) under "ties"."""
        calls = {"samples": [], "ties": 0}
        kernel, block, windows = measure._binary_counts, measure._refine_block, measure._refine_windows

        def spy(rng, samples, *rest):
            calls["samples"].append(samples)
            return kernel(rng, samples, *rest)

        def refine(refiner):
            def counted(*args):
                calls["ties"] += 1
                return refiner(*args)

            return counted

        monkeypatch.setattr(measure, "_binary_counts", spy)
        monkeypatch.setattr(measure, "_refine_block", refine(block))
        monkeypatch.setattr(measure, "_refine_windows", refine(windows))
        return calls

    # a draw takes M + 17 bits, or |a - b| + 17 for a comparison: depth or lag
    # 15 is the widest one word holds, 16 the first read one draw at a time
    @pytest.mark.parametrize(
        "spec, deleted, binary",
        [
            (SetFamilySpec.iter_shift(2, 15), range(1, 16), True),
            (SetFamilySpec.iter_shift(2, 16), range(1, 17), False),
            (SetFamilySpec.gen_chain(2, (9, 14)), (9, 15), True),
            (SetFamilySpec.gen_chain(2, (9, 15)), (9, 16), False),
            (SetFamilySpec.compare_iter(2, 17, 2), None, True),
            (SetFamilySpec.compare_iter(2, 2, 18), None, False),
        ],
        ids=["itershift-15", "itershift-16", "genchain-15", "genchain-16", "compareiter-lag-15", "compareiter-lag-16"],
    )
    def test_widest_one_word_draw(self, rounds, spec, deleted, binary):
        if deleted is None:
            mc = monte_carlo_measure(spec, 0, 3000, 5)
            assert (mc.hits, mc.indeterminate) == compare_mc_counts(2, spec.a, spec.b, 3000, 5)
        else:
            for x in (Fraction(1, 3), Fraction(5, 7)):
                mc = monte_carlo_measure(spec, x, 3000, 5)
                assert (mc.hits, mc.indeterminate) == threshold_mc_counts(2, deleted, x, 3000, 5)
        assert bool(rounds["samples"]) == binary

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1)])
    def test_end_thresholds(self, rounds, x):
        mc = monte_carlo_measure(SetFamilySpec.gen_chain(2, (9, 14)), x, 5000, 2)
        assert (mc.hits, mc.indeterminate) == (5000 * x, 0) == threshold_mc_counts(2, (9, 15), x, 5000, 2)
        assert rounds["samples"] == [5000]

    def test_samples_past_one_round(self, rounds):
        # about 20,000 words, at most 4096 a round
        spec = SetFamilySpec(FamilyKind.SCHEDULE_CHAIN, 2, indices=(5, 6, 4))
        deleted = chain_deleted_positions(spec.indices)
        mc = monte_carlo_measure(spec, Fraction(2, 5), 10000, 8)
        assert (mc.hits, mc.indeterminate) == threshold_mc_counts(2, deleted, Fraction(2, 5), 10000, 8)
        assert rounds["samples"] == [10000]

    # a sample ties when its 16 trailing digits form floor(2^16 / 3) = 21845:
    # seed 7711 at sample 0, the first slot of the first round; seed 7 at
    # sample 6318 (word 12475, past the first round's 4096 words); seed 62 at
    # samples 2709 and 3212 (words 5446 and 6455)
    @pytest.mark.parametrize(
        "seed, samples, ties", [(7711, 600, 1), (7, 10000, 1), (62, 10000, 2)], ids=["first-slot", "later-round", "two"]
    )
    def test_threshold_ties(self, rounds, seed, samples, ties):
        mc = monte_carlo_measure(SetFamilySpec.iter_shift(2, 9), Fraction(1, 3), samples, seed)
        assert (mc.hits, mc.indeterminate) == threshold_mc_counts(2, range(1, 10), Fraction(1, 3), samples, seed)
        assert rounds == {"samples": [samples], "ties": ties}

    # the two windows of a lag-1 draw tie at seed 12735, sample 0; of a lag-3
    # draw at seed 8, sample 4456 (word 8895), and at seed 60, samples 303
    # and 7170 (words 649 and 14148)
    @pytest.mark.parametrize(
        "a, b, seed, samples, ties",
        [(3, 2, 12735, 600, 1), (2, 5, 8, 10000, 1), (5, 2, 60, 10000, 2)],
        ids=["first-slot", "later-round", "two"],
    )
    def test_comparison_ties(self, rounds, a, b, seed, samples, ties):
        mc = monte_carlo_measure(SetFamilySpec.compare_iter(2, a, b), 0, samples, seed)
        assert (mc.hits, mc.indeterminate) == compare_mc_counts(2, a, b, samples, seed)
        assert rounds == {"samples": [samples], "ties": ties}

    def test_equal_iterates_draw_nothing(self, rounds, monkeypatch):
        # both windows read the same digits, so every sample ties through all
        # 16 rounds: 0 hits and every sample indeterminate, for every seed and q
        sizes = []

        class Recording(random.Random):
            def getrandbits(self, k):
                sizes.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(measure, "random", SimpleNamespace(Random=Recording))
        for q in (2, 3, 5):
            for seed in (0, 1, 7):
                mc = monte_carlo_measure(SetFamilySpec.compare_iter(q, 9, 9), 0, 300, seed)
                assert (mc.hits, mc.indeterminate) == compare_mc_counts(q, 9, 9, 300, seed) == (0, 300)
                assert (mc.estimate, mc.halfwidth, mc.samples) == (0.0, 0.0, 300)
        started = time.perf_counter()
        rows = gk_scan([SetFamilySpec.compare_iter(2, 9, 9)], [], samples=20000, seed=4)
        assert time.perf_counter() - started < 1.0
        assert [(row.measure, row.indeterminate) for row in rows] == [(0, 20000)]
        assert rounds == {"samples": [], "ties": 0}
        assert sizes == []

    def test_a_round_draws_at_most_2_to_the_17_bits(self, monkeypatch):
        sizes = []

        class Recording(random.Random):
            def getrandbits(self, k):
                sizes.append(k)
                return super().getrandbits(k)

        spec = SetFamilySpec.iter_shift(2, 9)
        plain = monte_carlo_measure(spec, Fraction(1, 3), 10**6, 3)
        monkeypatch.setattr(measure, "random", SimpleNamespace(Random=Recording))
        assert monte_carlo_measure(spec, Fraction(1, 3), 10**6, 3) == plain
        assert max(sizes) == 2**17


class TestScan:
    def test_iter_shift_columns(self):
        specs = [SetFamilySpec.iter_shift(2, n) for n in range(1, 6)]
        rows = gk_scan(specs, [Fraction(1, 3)])
        assert [row.measure for row in rows] == [Fraction(1, 3)] * 5
        assert all(row.method == "exact" for row in rows)

    def test_constant_chain_columns(self):
        specs = [SetFamilySpec.gen_chain(2, (2,) * c) for c in range(1, 5)]
        rows = gk_scan(specs, [Fraction(1, 3)])
        assert all(row.method == "exact" for row in rows)
        assert [row.param for row in rows] == ["1", "2", "3", "4"]

    def test_empty_grid_empty_table(self):
        rows = gk_scan([SetFamilySpec.iter_shift(2, 1)], [])
        assert rows == []

    def test_fallback_row_is_tagged(self):
        messages = []
        rows = gk_scan(
            [SetFamilySpec.iter_shift(2, 9)],
            [Fraction(1, 3)],
            samples=20000,
            seed=5,
            log=messages.append,
        )
        assert rows[0].method == "mc" and rows[0].samples == 20000
        assert abs(float(rows[0].measure) - 1 / 3) < 0.02
        assert messages

    def test_refused_sets_build_no_map(self, monkeypatch):
        def build(*_args, **_kwargs):
            raise AssertionError("a map was built or cylinders counted for a refused set")

        for name in ("plm_iter_shift", "plm_generalized_chain", "_cylinders_below", "_kept_digits"):
            monkeypatch.setattr(measure, name, build)
        # 2^9 fits the budget, so the iterates are refused by the iterate
        # limit alone; the chain deletes up to position 10
        specs = [SetFamilySpec.iter_shift(2, 9), SetFamilySpec.gen_chain(2, (9, 9)), SetFamilySpec.compare_iter(2, 9, 3)]
        rows = gk_scan(specs, [Fraction(1, 3)], budget=600, samples=200, seed=1)
        assert [row.method for row in rows] == ["mc"] * 3

    def test_negative_seed_is_refused_before_any_row(self, monkeypatch):
        # Random(-s) draws the stream of Random(s): with seed -3 rows 1 and 5
        # (seeds -2 and 2) would draw the same samples
        def draw(*_args, **_kwargs):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(measure, "monte_carlo_measure", draw)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            gk_scan([SetFamilySpec.iter_shift(2, 12)], [Fraction(1, 3)] * 5, samples=1000, seed=-3)

    @pytest.mark.parametrize("iter_limit", [0, -5])
    def test_iter_limit_below_one_is_refused_before_any_row(self, monkeypatch, iter_limit):
        def draw(*_args, **_kwargs):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(measure, "monte_carlo_measure", draw)
        specs = [SetFamilySpec.iter_shift(2, 1), SetFamilySpec.compare_iter(2, 1, 2)]
        with pytest.raises(ValueError, match="^iter_limit must be >= 1$"):
            gk_scan(specs, [Fraction(1, 3)], iter_limit=iter_limit, samples=100)
        # the budget is checked first, the seed after
        with pytest.raises(ValueError, match="^budget must be >= 1$"):
            gk_scan(specs, [Fraction(1, 3)], budget=0, iter_limit=iter_limit)
        with pytest.raises(ValueError, match="^iter_limit must be >= 1$"):
            gk_scan(specs, [Fraction(1, 3)], iter_limit=iter_limit, seed=-3)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused_before_any_row(self, monkeypatch, budget):
        def draw(*_args, **_kwargs):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(measure, "monte_carlo_measure", draw)
        with pytest.raises(ValueError, match="^budget must be >= 1$"):
            gk_scan([SetFamilySpec.iter_shift(2, 1)], [Fraction(1, 3)], budget=budget)
        # the budget is checked before the seed
        with pytest.raises(ValueError, match="^budget must be >= 1$"):
            gk_scan([SetFamilySpec.iter_shift(2, 1)], [Fraction(1, 3)], budget=budget, seed=-3)

    def test_single_estimate_takes_any_seed(self):
        # one call draws one stream, so no two of its draws can share it
        spec = SetFamilySpec.iter_shift(2, 12)
        assert monte_carlo_measure(spec, Fraction(1, 3), 200, -3) == monte_carlo_measure(spec, Fraction(1, 3), 200, 3)

    def test_no_fallback_raises(self):
        with pytest.raises(BudgetExceededError):
            gk_scan([SetFamilySpec.iter_shift(2, 9)], [Fraction(1, 3)], allow_fallback=False)

    def test_csv_schema(self):
        rows = gk_scan(
            [SetFamilySpec.iter_shift(2, 1), SetFamilySpec.compare_iter(2, 2, 1)],
            [Fraction(1, 3)],
        )
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "family,param,x_num,x_den,measure_num,measure_den,method,samples,halfwidth"
        assert lines[1].split(",") == ["itershift", "1", "1", "3", "1", "3", "exact", "", ""]
        assert lines[2].split(",") == ["compareiter", "2:1", "", "", "1", "2", "exact", "", ""]


class TestThresholdRows:
    """An exact threshold row comes from one integer pass over the rank-M
    cylinders; the PLM engine, which builds the q^M branches and sums their
    pieces, is its oracle."""

    @staticmethod
    def seeded_specs(q, seed):
        rng = random.Random(seed)
        deepest = {2: 8, 3: 6, 4: 5}[q]  # at most the default iterate limit
        specs = [SetFamilySpec.iter_shift(q, rng.randint(1, deepest))]
        while len(specs) < 7:
            indices = tuple(rng.randint(1, deepest - 1) for _ in range(rng.randint(1, 3)))
            kind = FamilyKind.GEN_CHAIN if len(specs) % 2 else FamilyKind.SCHEDULE_CHAIN
            spec = SetFamilySpec(kind, q, indices=indices)
            if spec.depth <= deepest:
                specs.append(spec)
        return rng, specs

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_rows_match_the_map_engine(self, q, seed):
        rng, specs = self.seeded_specs(q, seed)
        for spec in specs:
            if spec.kind is FamilyKind.ITER_SHIFT:
                plm = plm_iter_shift(q, spec.n)
            else:
                plm = plm_generalized_chain(q, spec.indices)
            # x * q^K is an integer at a piece boundary, K the surviving digits
            scale = q ** (spec.depth - len(spec.deleted_positions()))
            xs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(rng.randint(0, scale), scale)]
            xs += [Fraction(rng.randint(0, den), den) for den in (rng.randint(2, 50) for _ in range(4))]
            rows = gk_scan([spec], xs)
            assert [row.method for row in rows] == ["exact"] * len(xs)
            assert [row.measure for row in rows] == [sublevel_measure(plm, x) for x in xs]

    def test_threshold_rows_build_no_branch(self, monkeypatch):
        def build(*_args, **_kwargs):
            raise AssertionError("a branch or map was built for a threshold row")

        for name in ("Branch", "PiecewiseLinearMap", "plm_iter_shift", "plm_generalized_chain", "_plm_deleting"):
            monkeypatch.setattr(measure, name, build)
        specs = [SetFamilySpec.iter_shift(3, 4), SetFamilySpec.gen_chain(2, (3, 1, 5))]
        rows = gk_scan(specs, [Fraction(1, 3), Fraction(5, 8)])
        assert [row.measure for row in rows] == [Fraction(1, 3), Fraction(5, 8)] * 2

    @pytest.mark.parametrize("x", [2, Fraction(-1, 3), Fraction(4, 3), "-1/2"])
    def test_threshold_outside_unit_interval(self, x):
        for spec in (SetFamilySpec.iter_shift(2, 3), SetFamilySpec.gen_chain(3, (2, 1))):
            with pytest.raises(ValueError, match=r"^threshold must lie in \[0, 1\]$"):
                gk_scan([spec], [Fraction(1, 2), x])


class TestSamplingBound:
    """All sampled rows of a scan, and one direct estimate, are bounded in
    drawn bits: (q - 1).bit_length() a digit plus a fixed cost a sample."""

    # n = 1 is exact; n = 9 and 10 pass the iterate limit and are sampled
    SPECS = [SetFamilySpec.iter_shift(2, n) for n in (1, 9, 10)]
    XS = [Fraction(1, 3), Fraction(1, 2)]
    # 10 samples a row, 2 rows a set, one bit a digit: 9 + 16 and 10 + 16 digits
    BITS = 10 * 2 * ((25 + measure._SAMPLE_COST) + (26 + measure._SAMPLE_COST))

    def test_one_bit_over_the_bound_is_refused_before_any_work(self, monkeypatch):
        def work(*_args, **_kwargs):
            raise AssertionError("a map was built or a sample drawn")

        monkeypatch.setattr(measure, "_MAX_SAMPLING", self.BITS - 1)
        for name in ("monte_carlo_measure", "plm_iter_shift", "_cylinders_below", "_kept_digits"):
            monkeypatch.setattr(measure, name, work)
        logged = []
        with pytest.raises(BudgetExceededError) as exc:
            gk_scan(self.SPECS, self.XS, samples=10, log=logged.append)
        assert str(exc.value) == f"Monte Carlo sampling would draw {self.BITS} bits, over the limit {self.BITS - 1}"
        assert logged == []

    def test_at_the_bound_the_scan_runs(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_SAMPLING", self.BITS)
        rows = gk_scan(self.SPECS, self.XS, samples=10)
        assert [row.method for row in rows] == ["exact"] * 2 + ["mc"] * 4

    def test_an_earlier_refusal_takes_precedence(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_SAMPLING", 0)
        with pytest.raises(BudgetExceededError, match="^iterate count 9 over limit 8$"):
            gk_scan(self.SPECS, self.XS, samples=10, allow_fallback=False)
        deep = SetFamilySpec.iter_shift(2, 10**6)
        with pytest.raises(BudgetExceededError, match=" digits, over the limit 100016$"):
            gk_scan(self.SPECS + [deep], self.XS, samples=10)

    def test_a_direct_estimate_is_refused_before_it_draws(self, monkeypatch):
        def draw(_seed):
            raise AssertionError("a sample was drawn")

        spec = SetFamilySpec.compare_iter(10, 1, 5)
        bits = 7 * ((4 + 16) * 4 + measure._SAMPLE_COST)  # 4 bits a decimal digit
        monkeypatch.setattr(measure, "_MAX_SAMPLING", bits - 1)
        monkeypatch.setattr(measure.random, "Random", draw)
        with pytest.raises(BudgetExceededError, match=f"^Monte Carlo sampling would draw {bits} bits"):
            monte_carlo_measure(spec, 0, 7, 0)

    @pytest.mark.parametrize("q", [2, 10])
    def test_a_deepest_row_at_the_default_samples_fits(self, q):
        spec = SetFamilySpec.iter_shift(q, measure._MAX_DRAW - 16)
        measure._bound_sampling([(spec, measure.DEFAULT_SAMPLES)])


class TestRowBound:
    """A scan holds at most ``_MAX_ROWS`` rows, counted from its plan: one a
    threshold for each threshold set, one for each comparison."""

    # 3 threshold sets of 2 rows each and one comparison row: 7 rows, 4 sampled
    SPECS = TestSamplingBound.SPECS + [SetFamilySpec.compare_iter(2, 2, 1)]
    XS = TestSamplingBound.XS

    def test_one_row_over_the_bound_is_refused_before_any_work(self, monkeypatch):
        def work(*_args, **_kwargs):
            raise AssertionError("a map was built or a sample drawn")

        monkeypatch.setattr(measure, "_MAX_ROWS", 6)
        for name in ("monte_carlo_measure", "plm_iter_shift", "_cylinders_below", "_kept_digits"):
            monkeypatch.setattr(measure, name, work)
        logged = []
        with pytest.raises(BudgetExceededError) as exc:
            gk_scan(self.SPECS, self.XS, samples=10, log=logged.append)
        assert str(exc.value) == "the scan would hold 7 rows, over the limit 6"
        assert logged == []

    def test_at_the_bound_the_scan_runs(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_ROWS", 7)
        rows = gk_scan(self.SPECS, self.XS, samples=10)
        assert [row.method for row in rows] == ["exact"] * 2 + ["mc"] * 4 + ["exact"]

    def test_the_earlier_refusals_take_precedence(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_ROWS", 0)
        with pytest.raises(BudgetExceededError, match="^iterate count 9 over limit 8$"):
            gk_scan(self.SPECS, self.XS, samples=10, allow_fallback=False)
        deep = SetFamilySpec.iter_shift(2, 10**6)
        with pytest.raises(BudgetExceededError, match=" digits, over the limit 100016$"):
            gk_scan(self.SPECS + [deep], self.XS, samples=10)
        monkeypatch.setattr(measure, "_MAX_SAMPLING", 0)
        with pytest.raises(BudgetExceededError, match="^Monte Carlo sampling would draw "):
            gk_scan(self.SPECS, self.XS, samples=10)


class TestExactWorkBound:
    """The exact rows of a scan cost at most ``_MAX_EXACT`` branch reads, charged
    from the plan: building a threshold set's q^M branches, reading them once a
    row, and a comparison's q^M branches at ``_COMPARE_COST`` each."""

    # itershift 2 and genchain (2, 1) (M = 2) are exact and read at 2 thresholds,
    # compareiter 3:1 (M = 3) is exact, itershift 9 is sampled and costs nothing here
    SPECS = [
        SetFamilySpec.iter_shift(2, 2),
        SetFamilySpec.gen_chain(2, (2, 1)),
        SetFamilySpec.compare_iter(2, 3, 1),
        SetFamilySpec.iter_shift(2, 9),
    ]
    XS = [Fraction(1, 3), Fraction(1, 2)]
    COST = 2 * 4 * (measure._BUILD_COST + 2) + 8 * measure._COMPARE_COST

    def test_one_read_over_the_bound_is_refused_before_any_work(self, monkeypatch):
        def work(*_args, **_kwargs):
            raise AssertionError("a map was built or a sample drawn")

        monkeypatch.setattr(measure, "_MAX_EXACT", self.COST - 1)
        for name in (
            "plm_iter_shift",
            "plm_generalized_chain",
            "plm_single_deletion",
            "_cylinders_below",
            "_kept_digits",
            "monte_carlo_measure",
        ):
            monkeypatch.setattr(measure, name, work)
        logged = []
        with pytest.raises(BudgetExceededError) as exc:
            gk_scan(self.SPECS, self.XS, samples=10, log=logged.append)
        assert str(exc.value) == f"the exact rows would cost {self.COST} branch reads, over the limit {self.COST - 1}"
        assert logged == []

    def test_at_the_bound_the_scan_runs(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_EXACT", self.COST)
        rows = gk_scan(self.SPECS, self.XS, samples=10)
        assert [row.method for row in rows] == ["exact"] * 5 + ["mc"] * 2

    def test_the_earlier_refusals_take_precedence(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_EXACT", 0)
        monkeypatch.setattr(measure, "_MAX_ROWS", 0)
        with pytest.raises(BudgetExceededError, match="^the scan would hold 7 rows"):
            gk_scan(self.SPECS, self.XS, samples=10)

    def test_a_scan_without_exact_rows_costs_nothing(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_EXACT", 0)
        rows = gk_scan(self.SPECS[3:], self.XS, samples=10)
        assert [row.method for row in rows] == ["mc"] * 2


def test_deep_deletions_in_a_bounded_process():
    # tests/deep_calls.py lists the calls and their expected lines; the CI
    # job runs the same file against the installed package
    out = cli_cases.run_child([str(Path(__file__).with_name("deep_calls.py"))], 20)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == deep_calls.EXPECTED
