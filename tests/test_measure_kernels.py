"""The bisecting compose and the integer sublevel kernel against their oracles.

``compose`` must give the same branch tuple as the all-pairs construction;
the builders must give the branches of the all-pairs chain without composing,
and a chain must have q^M branches (M its largest deleted position, which
its closed-form depth must equal) and trip the branch budget where the
all-pairs chain does; ``sublevel_measure`` and
``comparison_measure`` must equal the summed lengths of the pieces that
``sublevel_set`` builds.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorshift import (
    BudgetExceededError,
    FamilyKind,
    SetFamilySpec,
    comparison_measure,
    plm_generalized_chain,
    plm_iter_shift,
    plm_single_deletion,
    sublevel_measure,
    sublevel_set,
)
from cantorshift import measure
from cantorshift.measure import _budget_refusal, _sublevel_kernel
from oracles import (
    chain_all_pairs,
    chain_deleted_positions,
    compose_all_pairs,
    constant_slope_map,
    single_deletion,
    subtract_on_refinement,
)

# largest deletion index per base, keeping the all-pairs oracle cheap
TOP_INDEX = {2: 6, 3: 4, 4: 3}


def random_chain(rng, q):
    return tuple(rng.randint(1, TOP_INDEX[q]) for _ in range(rng.randint(1, 3)))


def random_maps(seed):
    """(q, map) pairs: seeded chains, iterates, and compositions of both."""
    rng = random.Random(seed)
    maps = []
    for q in (2, 3):
        chains = [plm_generalized_chain(q, random_chain(rng, q)) for _ in range(4)]
        step = plm_iter_shift(q, rng.randint(1, 2))
        maps += [(q, m) for m in chains + [step, chains[-1].compose(step)]]
    return maps


def subtracted_maps(maps):
    """Differences of same-base maps: slopes positive, zero and negative."""
    out = []
    for (q, a), (r, b) in zip(maps, maps[1:] + maps[:1]):
        if q == r:
            out += [a.subtract(b), b.subtract(a), a.subtract(a)]
    return out


def piece_measure(pieces):
    """Total length of disjoint half-open pieces, each checked to lie in order inside [0, 1]."""
    ends = [e for piece in pieces for e in piece]
    assert ends == sorted(ends) and all(0 <= e <= 1 for e in ends)
    return sum((hi - lo for lo, hi in pieces), Fraction(0))


def thresholds(rng, plm, k=10):
    """0, 1, and samples of branch endpoints, endpoint images and rationals."""
    ends = sorted({br.lo for br in plm.branches} | {Fraction(1)})
    images = sorted({br.slope * e + br.intercept for br in plm.branches for e in (br.lo, br.hi)})
    xs = {Fraction(0), Fraction(1)}
    xs |= set(rng.sample(ends, min(k, len(ends)))) | set(rng.sample(images, min(k, len(images))))
    xs |= {Fraction(rng.randrange(-40, 41), rng.randint(1, 40)) for _ in range(k)}
    return sorted(xs)


class TestCompose:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_random_chains_match_all_pairs(self, q):
        rng = random.Random(100 + q)
        for _ in range(12):
            indices = random_chain(rng, q)
            assert plm_generalized_chain(q, indices).branches == chain_all_pairs(q, indices, 10**6).branches

    @pytest.mark.parametrize("q", [2, 3])
    def test_iterates_match_all_pairs(self, q):
        rng = random.Random(200 + q)
        for n in (1, 2, 3):
            # the n-fold drop is n deletions at position 1
            assert plm_iter_shift(q, n).branches == chain_all_pairs(q, (1,) * n, 10**6).branches
            chain = plm_generalized_chain(q, random_chain(rng, q))
            step = plm_iter_shift(q, n)
            assert chain.compose(step).branches == compose_all_pairs(chain, step, 10**6).branches
            assert step.compose(chain).branches == compose_all_pairs(step, chain, 10**6).branches

    def test_constant_source(self):
        target = plm_generalized_chain(2, (2, 3))
        for c in (Fraction(0), Fraction(1, 3), Fraction(5, 8)):
            source = constant_slope_map(0, c)
            assert source.compose(target).branches == compose_all_pairs(source, target, 10**6).branches

    def test_negative_slope_rejected_like_oracle(self):
        source = constant_slope_map(1, 0).subtract(plm_iter_shift(2, 2))
        target = plm_iter_shift(2, 1)
        with pytest.raises(ValueError):
            compose_all_pairs(source, target, 10**6)
        with pytest.raises(ValueError):
            source.compose(target)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_budget_trips_exactly_where_the_oracle_does(self, q):
        rng = random.Random(300 + q)
        for _ in range(6):
            indices = random_chain(rng, q)
            current, critical = constant_slope_map(1, 0), set()
            for m in indices:
                current = current.compose(plm_single_deletion(q, m))
                critical |= {len(current), q**m}
            budgets = sorted({b + d for b in critical for d in (-1, 0, 1) if b + d >= 1})
            for budget in budgets:
                try:
                    expected = chain_all_pairs(q, indices, budget).branches
                except BudgetExceededError:
                    expected = None
                try:
                    got = plm_generalized_chain(q, indices, budget=budget).branches
                except BudgetExceededError:
                    got = None
                assert got == expected, (indices, budget)


class TestBranchCount:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_chain_has_q_to_the_largest_deleted_position(self, q):
        rng = random.Random(700 + q)
        for _ in range(8):
            indices = random_chain(rng, q) + random_chain(rng, q)[:1]
            for k in range(1, len(indices) + 1):
                prefix = indices[:k]
                deleted = SetFamilySpec.gen_chain(q, prefix).deleted_positions()
                assert deleted == chain_deleted_positions(prefix)
                assert len(plm_generalized_chain(q, prefix)) == q ** max(deleted)

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (1, 3), (4, 2)])
    def test_comparison_has_q_to_the_deeper_iterate(self, a, b):
        for q in (2, 3):
            deleted = SetFamilySpec.compare_iter(q, a, b).deleted_positions()
            assert deleted == list(range(1, max(a, b) + 1))
            assert len(plm_iter_shift(q, a).subtract(plm_iter_shift(q, b))) == q ** max(deleted)

    @pytest.mark.parametrize(
        "spec, depth",
        [
            (SetFamilySpec.iter_shift(3, 5), 5),
            (SetFamilySpec.compare_iter(2, 2, 7), 7),
            (SetFamilySpec.compare_iter(2, 7, 2), 7),
            (SetFamilySpec.gen_chain(2, (3, 3, 1)), 4),
            (SetFamilySpec(FamilyKind.SCHEDULE_CHAIN, 3, indices=(5, 6, 4)), 7),
        ],
        ids=["itershift", "compareiter-b", "compareiter-a", "genchain", "schedulechain"],
    )
    def test_depth_is_the_deepest_deleted_position(self, spec, depth):
        assert spec.depth == depth == max(spec.deleted_positions())
        if spec.indices:
            assert depth == max(chain_deleted_positions(spec.indices))

    def test_iterate_depth_lists_nothing(self):
        # 10^18 positions could not be listed
        assert SetFamilySpec.iter_shift(2, 10**18).depth == 10**18
        assert SetFamilySpec.compare_iter(2, 3, 10**18).depth == 10**18
        assert SetFamilySpec.gen_chain(2, (10**18, 1)).depth == 10**18
        assert SetFamilySpec.gen_chain(2, (10**18, 10**18)).depth == 10**18 + 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    def test_chain_depth_is_the_closed_form(self, steps):
        assert SetFamilySpec.gen_chain(2, steps).depth == max(chain_deleted_positions(steps))

    def test_chain_depth_on_every_short_chain(self):
        for k in range(1, 5):
            for steps in itertools.product(range(1, 7), repeat=k):
                assert SetFamilySpec.gen_chain(3, steps).depth == max(chain_deleted_positions(steps)), steps

    @pytest.mark.parametrize(
        "q, depth, budget, fits",
        [
            (2, 20, 2**20, True),
            (3, 12, 3**12, True),
            (2, 21, 2**20, False),
            (2, 20, 2**20 - 1, False),
            (3, 13, 3**12, False),
            # 3^(10^9) is never built: 10^9 is past the budget's 20 bits
            (3, 10**9, 10**6, False),
        ],
    )
    def test_budget_refusal_boundaries(self, q, depth, budget, fits):
        refusal = _budget_refusal(q, depth, budget)
        assert refusal == (None if fits else f"{q}^{depth} branches exceed budget {budget}")

    def test_builders_do_not_compose(self, monkeypatch):
        def build(*_args, **_kwargs):
            raise AssertionError("a builder composed maps")

        monkeypatch.setattr(measure, "plm_single_deletion", build)
        monkeypatch.setattr(measure.PiecewiseLinearMap, "compose", build)
        rng = random.Random(800)
        for q in (2, 3, 4):
            for _ in range(4):
                indices = random_chain(rng, q)
                assert plm_generalized_chain(q, indices).branches == chain_all_pairs(q, indices, 10**6).branches
            for n in (1, 2, 3):
                assert plm_iter_shift(q, n).branches == chain_all_pairs(q, (1,) * n, 10**6).branches
                assert plm_single_deletion(q, n).branches == single_deletion(q, n, 10**6).branches

    def test_chain_budget_is_checked_before_building(self, monkeypatch):
        def build(*_args, **_kwargs):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(measure, "plm_single_deletion", build)
        monkeypatch.setattr(measure.PiecewiseLinearMap, "compose", build)
        with pytest.raises(BudgetExceededError):
            plm_generalized_chain(2, (7, 7), budget=150)


class TestSubtract:
    def test_matches_refinement_oracle(self):
        maps = random_maps(400)
        for (q, a), (r, b) in zip(maps, maps[1:] + maps[:1]):
            if q == r:
                assert a.subtract(b).branches == subtract_on_refinement(a, b).branches
                assert b.subtract(a).branches == subtract_on_refinement(b, a).branches

    def test_differences_cover_every_slope_sign(self):
        slopes = [br.slope for m in subtracted_maps(random_maps(400)) for br in m.branches]
        assert min(slopes) < 0 and 0 in slopes and max(slopes) > 0


class TestSublevelKernel:
    def test_measure_matches_interval_set(self):
        rng = random.Random(500)
        maps = random_maps(500)
        for plm in [m for _, m in maps] + subtracted_maps(maps):
            for x in thresholds(rng, plm):
                expected = piece_measure(sublevel_set(plm, x))
                assert _sublevel_kernel(plm.branches, x) == expected
                if 0 <= x <= 1:
                    assert sublevel_measure(plm, x) == expected

    def test_comparison_matches_interval_set(self):
        maps = random_maps(600)
        for (q, a), (r, b) in zip(maps, maps[1:] + maps[:1]):
            if q == r:
                assert comparison_measure(a, b) == piece_measure(sublevel_set(a.subtract(b), 0))
                assert comparison_measure(b, a) == piece_measure(sublevel_set(b.subtract(a), 0))
                assert comparison_measure(a, a) == 0

    def test_threshold_range_guard(self):
        with pytest.raises(ValueError):
            sublevel_measure(constant_slope_map(1, 0), Fraction(3, 2))
        with pytest.raises(ValueError):
            sublevel_measure(constant_slope_map(1, 0), Fraction(-1, 3))
