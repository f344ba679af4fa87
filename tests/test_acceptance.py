"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2-9 call the checks of ``cantorshift.verify``, the functions that
``cantorshift verify`` runs, with their own seeds and larger cases; each check
holds its predicate, oracle and tolerance.  Run with
``pytest -s tests/test_acceptance.py -v`` to see the per-criterion lines; a
criterion with a runtime bound asserts it.
"""

import itertools
import random
import time
from fractions import Fraction

from cantorshift import (
    BaseSpec,
    DigitExpansion,
    DistributionSpec,
    IndexSequence,
    SalemFunction,
    Tail,
    WeightSet,
    value_at,
    verify,
)
from cantorshift.verify import random_positive_weights, random_terminating, random_two_expansion_point

EXAMPLE_ORDER = IndexSequence((1, 5, 7, 3, 6, 10, 2, 4, 8, 9))
W37 = WeightSet(2, (Fraction(3, 10), Fraction(7, 10)))


def report(number: int, ok: bool, elapsed: float, detail: str, checks=()) -> None:
    """Print the criterion's line and assert it.  ``checks`` are results of
    ``cantorshift.verify`` checks; each failed one is appended to the line."""
    failed = [f"FAIL {name} [{why}]" for name, passed, why in checks if not passed]
    ok = ok and not failed
    tag = "PASS" if ok else "FAIL"
    detail = "; ".join([detail, *failed])
    print(f"[criterion {number}] {tag} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_identity_reduction():
    started = time.monotonic()
    worst = Fraction(0)
    for q in (2, 3, 10):
        f = SalemFunction(WeightSet(q, tuple(Fraction(1, q) for _ in range(q))))
        for i in range(1001):
            x = Fraction(i, 1000)
            worst = max(worst, abs(value_at(f, x)[0] - x))
    elapsed = time.monotonic() - started
    ok = worst <= Fraction(1, 10**12) and elapsed < 5.0
    report(1, ok, elapsed, f"max |g(x) - x| = {float(worst):.2e} over 3 bases x 1001 points")


def test_criterion_2_integral_formula():
    started = time.monotonic()
    rng = random.Random(2024)
    functions = []
    for i in range(10):
        q = rng.choice([2, 3, 4, 5])
        weights = WeightSet(q, random_positive_weights(rng, q, grains=32))
        functions.append(SalemFunction(weights, IndexSequence(()) if i % 2 == 0 else EXAMPLE_ORDER))
    # the rearranged functions at the order's length, 3^10 words; the others
    # at 5 digits, up to 5^5 words
    sums = verify.check_endpoint_sums((f, max(f.seq.size, 5)) for f in functions)
    grid = verify.check_grid_integral(SalemFunction(f.weights) for f in functions)
    elapsed = time.monotonic() - started
    report(2, elapsed < 60.0, elapsed, f"endpoint sums: {sums[2]}, exact grid: {grid[2]}", [sums, grid])


def test_criterion_3_increment_formula():
    started = time.monotonic()
    configs = [
        (SalemFunction(W37), 5),
        (SalemFunction(WeightSet(5, tuple(Fraction(n, 10) for n in (1, 2, 3, 2, 2)))), 3),
    ]
    ranks = [(f, rank) for f, max_rank in configs for rank in range(1, max_rank + 1)]
    words = [(f, word) for f, rank in ranks for word in itertools.product(range(f.weights.q), repeat=rank)]
    checks = [verify.check_cylinder_increments(words), verify.check_increments_partition_unity(ranks)]
    elapsed = time.monotonic() - started
    report(3, elapsed < 10.0, elapsed, f"{len(words)} cylinders, exact rational equality", checks)


def test_criterion_4_functional_equation_system():
    started = time.monotonic()
    configs = [
        SalemFunction(W37),
        SalemFunction(W37, EXAMPLE_ORDER),
        SalemFunction(WeightSet(3, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)))),
        SalemFunction(WeightSet(3, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))), IndexSequence((2, 1))),
        SalemFunction(WeightSet(4, (Fraction(1, 4), Fraction(1, 8), Fraction(3, 8), Fraction(1, 4))), EXAMPLE_ORDER),
    ]
    rng = random.Random(4)
    cases = []
    for f in configs:
        for _ in range(100):
            e = random_terminating(rng, f.weights.q, 12)
            cases.append((f, e, range(1, 21)))
        # and one more point at spread-out k
        e = random_terminating(rng, f.weights.q, 12)
        cases.append((f, e, (1, 7, 20)))
    check = verify.check_peeling_identities(cases)
    elapsed = time.monotonic() - started
    report(4, elapsed < 10.0, elapsed, "residual exactly 0 over 5 configs x 100 points x k<=20", [check])


def test_criterion_5_operator_algebra():
    started = time.monotonic()
    rng = random.Random(5)
    stems = [random_terminating(rng, q, 11) for q in (2, 10)]
    subsets = [s for size in range(0, 8) for s in itertools.combinations(range(1, 8), size)]
    schedules = [(e, perm) for e in stems for s in subsets for perm in itertools.permutations(s)]
    stems = [random_terminating(rng, q, 12) for q in (2, 10)]
    pairs = [(e, n1, n2) for e in stems for n1 in range(1, 9) for n2 in range(1, 9)]
    drops, runs, descents = [], [], []
    for _ in range(100):
        q = rng.choice([2, 10])
        e = DigitExpansion(
            BaseSpec.constant(q),
            tuple(rng.randrange(q) for _ in range(rng.randrange(0, 12))),
            rng.choice([Tail.ZEROS, Tail.MAX]),
        )
        drops.append((e, rng.randrange(0, 5)))
        runs.append((e, rng.randrange(1, 5), rng.randrange(1, 5)))
        descents.append((e, sorted(rng.sample(range(1, 9), 3), reverse=True)))
    checks = [
        verify.check_scheduled_deletions(schedules),
        verify.check_two_deletions(pairs),
        verify.check_drop_after_deletions(drops),
        verify.check_consecutive_chain(runs),
        verify.check_descending_chain(descents),
    ]
    elapsed = time.monotonic() - started
    detail = f"{len(schedules)} schedules, {len(pairs)} two-deletion pairs, {3 * len(drops)} chain identities"
    report(5, elapsed < 30.0, elapsed, detail, checks)


def test_criterion_6_bar_index_reproduction():
    started = time.monotonic()
    check = verify.check_schedule_steps((1, 5, 7, 3, 6, 10, 2, 4, 8, 9), (1, 4, 5, 2, 3, 5, 1, 1, 1, 1))
    elapsed = time.monotonic() - started
    report(6, True, elapsed, f"steps = {check[2]}", [check])


def test_criterion_7_measure_engine():
    started = time.monotonic()
    shifts = [(q, n) for q in (2, 3) for n in range(1, 7)]
    exact = verify.check_iter_shift_measure(shifts, (Fraction(1, 7), Fraction(1, 3), Fraction(2, 5)))
    runs = [(q, n, x, q * 10 + n) for q, n, x in ((2, 3, Fraction(1, 3)), (3, 2, Fraction(2, 5)))]
    mc = verify.check_monte_carlo_measure(runs, 10**6)
    elapsed = time.monotonic() - started
    report(7, elapsed < 60.0, elapsed, "36 exact sublevel values; " + mc[2], [exact, mc])


def test_criterion_8_continuity_classifier():
    started = time.monotonic()
    rng = random.Random(8)
    points = []
    for _ in range(200):
        q = rng.choice([2, 3])
        f = SalemFunction(WeightSet(q, random_positive_weights(rng, q)))
        points.append((f, random_two_expansion_point(rng, q, 9)))
    checks = [verify.check_continuous_at_two_expansion_points(points), verify.check_swapped_order_jump(W37)]
    elapsed = time.monotonic() - started
    detail = f"identity continuous on 200 points; perm(2 1) {checks[1][2]} at 1/2"
    report(8, True, elapsed, detail, checks)


def test_criterion_9_distribution_function():
    started = time.monotonic()
    rng = random.Random(9)
    specs = []
    for _ in range(4):
        q = rng.choice([2, 3, 4])
        specs.append(DistributionSpec(WeightSet(q, random_positive_weights(rng, q))))
    # one spec with an interior zero weight
    specs.append(DistributionSpec(WeightSet(3, (Fraction(1, 2), Fraction(0), Fraction(1, 2)))))
    check = verify.check_distribution_function(specs, 1000)
    elapsed = time.monotonic() - started
    report(9, True, elapsed, "5 nonnegative weight sets, 1001-point monotone grid", [check])
