"""The paper's identities as checks, and the suites behind ``cantorshift verify``.

Each ``check_*`` function is one identity: it holds the predicate, the oracle,
the tolerance and the check's name.  It takes the cases to check as arguments
and returns one (name, ok, detail) triple.  The detail names the first failing
case; a check with a tolerance reports its measured gap there when it passes.

The ``suite_*`` functions build interactive-size cases from fixed seeds and
call the checks.  Each takes the function that ``cantorshift verify --spec``
names, ``DEFAULT_FUNCTION`` without one: ``system`` checks it, ``integral``
and ``continuity`` check its weights, and the other suites ignore it.  The
acceptance tests (``tests/test_acceptance.py``) call the same checks with
their own seeds and larger cases, so every identity, oracle and tolerance is
written once.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Iterable
from fractions import Fraction

from . import expansions as xp
from . import measure as me
from . import salem as sm
from . import shifts as sh

Check = tuple[str, bool, str]


# --- cases -------------------------------------------------------------------


def _random_expansion(rng: random.Random, cantor: bool = False, maxlen: int = 12) -> xp.DigitExpansion:
    if cantor:
        prefix = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(0, 4)))
        base = xp.BaseSpec.cantor(prefix, rng.randrange(2, 6))
    else:
        base = xp.BaseSpec.constant(rng.choice([2, 3, 10]))
    n = rng.randrange(0, maxlen)
    digits = tuple(rng.randrange(base.base_at(k)) for k in range(1, n + 1))
    tail = rng.choice([xp.Tail.ZEROS, xp.Tail.MAX])
    return xp.DigitExpansion(base, digits, tail)


def random_terminating(rng: random.Random, q: int, length: int) -> xp.DigitExpansion:
    """A zeros-tail base-q expansion of ``length`` uniform digits."""
    return xp.DigitExpansion(xp.BaseSpec.constant(q), tuple(rng.randrange(q) for _ in range(length)))


def random_two_expansion_point(rng: random.Random, q: int, maxlen: int) -> xp.DigitExpansion:
    """A zeros-tail base-q expansion of 1..maxlen-1 digits whose last digit is
    nonzero, so the point it names has a second, (q-1)-tail expansion."""
    digits = [rng.randrange(q) for _ in range(rng.randrange(1, maxlen))]
    if digits[-1] == 0:
        digits[-1] = rng.randrange(1, q)
    return xp.DigitExpansion(xp.BaseSpec.constant(q), tuple(digits))


def random_positive_weights(rng: random.Random, q: int, grains: int = 40) -> tuple[Fraction, ...]:
    """q positive rationals with denominator ``grains`` summing to 1."""
    cuts = sorted(rng.sample(range(1, grains), q - 1))
    return tuple(Fraction(hi - lo, grains) for lo, hi in zip([0] + cuts, cuts + [grains]))


# --- oracles -----------------------------------------------------------------


def stream_after_deleting(e: xp.DigitExpansion, positions, horizon: int):
    """(digits, bases) of e's stream through original position
    max(horizon, positions) + 1, with the given positions removed by plain
    list surgery."""
    top = max([horizon] + list(positions)) + 1
    gone = set(positions)
    keep = [k for k in range(1, top + 1) if k not in gone]
    digits = [e.digit_at(k) for k in keep]
    bases = [e.base.base_at(k) for k in keep]
    return digits, bases


def matches_stream(result: xp.DigitExpansion, digits, bases) -> bool:
    return all(
        result.digit_at(k) == digits[k - 1] and result.base.base_at(k) == bases[k - 1]
        for k in range(1, len(digits) + 1)
    )


def grid_integral(f: sm.SalemFunction) -> Fraction:
    """Exact lower Riemann sum of g over the deepest terminating base-q grid
    of at most 30000 cells (for q > 30000, the one level of q cells), times
    cells/(cells - 1).

    For the identity reading order the images of the grid cells are
    self-similar copies whose weights sum to one, so the corrected lower sum
    reproduces the integral exactly.

    The cells are walked depth-first with a stack of at most
    level*(q-1) + 1 entries.  A head and a weight product at depth k are
    integer numerators over D^k, D the common weight denominator
    (``p_num``, ``beta_num`` and ``den``), and one Fraction is built from
    their sum at the end.
    """
    w = f.weights
    q = w.q
    level = 1
    while q ** (level + 1) <= 30000:
        level += 1
    cells = q**level
    B, P, D = w.beta_num, w.p_num, w.den
    total = 0
    stack = [(0, 1, 0)]
    while stack:
        head, prod, depth = stack.pop()
        if depth == level:
            total += head
            continue
        head *= D
        for d in range(q):
            stack.append((head + B[d] * prod, prod * P[d], depth + 1))
    return Fraction(total, D**level * (cells - 1))


# --- checks ------------------------------------------------------------------


def check_dual_values(expansions: Iterable[xp.DigitExpansion]) -> Check:
    """Both expansions of a two-expansion point have the same value; only 0
    and 1 lack a dual."""
    name = "dual representations have equal values"
    for e in expansions:
        x, d = xp.value_of(e), xp.dual_representation(e)
        if not (x in (0, 1) if d is None else xp.value_of(d) == x):
            return name, False, str(e)
    return name, True, ""


def check_extraction_round_trip(expansions: Iterable[xp.DigitExpansion]) -> Check:
    name = "digit extraction round-trips terminating values"
    for e in expansions:
        x = xp.value_of(e)
        if xp.value_of(xp.expansion_of(x, e.base, max(len(e.prefix), 1) + 2, e.tail)) != x:
            return name, False, str(e)
    return name, True, ""


def check_notation_round_trip(expansions: Iterable[xp.DigitExpansion]) -> Check:
    name = "notation parser and printer round-trip"
    for e in expansions:
        text = xp.format_expansion(e)
        if xp.parse_expansion(text) != e:
            return name, False, text
    return name, True, ""


def _chain_collapses(e: xp.DigitExpansion, steps: Iterable[int], t: int, n: int) -> bool:
    """Single deletions at ``steps`` in turn, then the t-fold shift, give the
    n-fold shift of e."""
    cur = functools.reduce(sh.generalized_shift, steps, e)
    return xp.same_stream(sh.shift_n(cur, t), sh.shift_n(e, n))


def check_drop_after_deletions(cases: Iterable[tuple[xp.DigitExpansion, int]]) -> Check:
    """Cases (e, m): deleting position 2 m times, then the first digit, is
    the (m+1)-fold shift."""
    name = "drop-first after m deletions at 2 equals (m+1)-fold shift"
    for e, m in cases:
        if not _chain_collapses(e, [2] * m, 1, m + 1):
            return name, False, f"{e} m={m}"
    return name, True, ""


def check_consecutive_chain(cases: Iterable[tuple[xp.DigitExpansion, int, int]]) -> Check:
    """Cases (e, k1, n): deleting positions k1, k1+1, .., k1+n-1 in turn and
    shifting k1+n-1 times is the (k1+2n-1)-fold shift."""
    name = "consecutive deletion chain collapses to an iterated shift"
    for e, k1, n in cases:
        if not _chain_collapses(e, range(k1, k1 + n), k1 + n - 1, k1 + 2 * n - 1):
            return name, False, f"{e} k1={k1} n={n}"
    return name, True, ""


def check_descending_chain(cases: Iterable[tuple[xp.DigitExpansion, list[int]]]) -> Check:
    """Cases (e, ks), ks decreasing: deleting ks in turn and shifting
    ks[0] - len(ks) times is the ks[0]-fold shift."""
    name = "descending deletion chain collapses to an iterated shift"
    for e, ks in cases:
        if not _chain_collapses(e, ks, ks[0] - len(ks), ks[0]):
            return name, False, f"{e} ks={ks}"
    return name, True, ""


def check_deletion_difference(cases: Iterable[tuple[xp.DigitExpansion, int]]) -> Check:
    """Cases (e, m): x - sigma_m(x) = c_m/Q_m + (1 - q_m) shift^m(x)/Q_m, with
    Q_m = q_1...q_m."""
    name = "deletion difference identity holds exactly"
    for e, m in cases:
        blk = e.base.block(m)
        lhs = xp.value_of(e) - xp.value_of(sh.generalized_shift(e, m))
        rhs = Fraction(e.digit_at(m), blk) + xp.value_of(sh.shift_n(e, m)) / blk * (1 - e.base.base_at(m))
        if lhs != rhs:
            return name, False, f"{e} m={m}"
    return name, True, ""


def check_endpoint_gap(points: Iterable[xp.DigitExpansion]) -> Check:
    """Points: zeros-tail expansions of m digits, the last one nonzero.
    sigma_m of the zeros form minus sigma_m of the dual form is -1/Q_(m-1)."""
    name = "one-sided gap at cylinder endpoints is -1/block(m-1)"
    for e in points:
        m = len(e.prefix)
        dual = xp.dual_representation(e)
        jump = xp.value_of(sh.generalized_shift(e, m)) - xp.value_of(sh.generalized_shift(dual, m))
        if jump != Fraction(-1, e.base.block(m - 1)):
            return name, False, f"{e} m={m}"
    return name, True, ""


def check_two_deletions(cases: Iterable[tuple[xp.DigitExpansion, int, int]]) -> Check:
    """Cases (e, n1, n2): ``compose_two`` equals deleting n1, then n2."""
    name = "two-deletion closed form equals sequential deletions"
    for e, n1, n2 in cases:
        if not xp.same_stream(sh.compose_two(e, n1, n2), sh.generalized_shift(sh.generalized_shift(e, n1), n2)):
            return name, False, f"{e} n1={n1} n2={n2}"
    return name, True, ""


def check_schedule_steps(order: tuple[int, ...], steps: tuple[int, ...]) -> Check:
    """``make_schedule(order)`` re-indexes the positions to these single-deletion steps."""
    got = sh.make_schedule(order)
    name = f"re-indexed steps of ({','.join(map(str, order))}) are ({','.join(map(str, steps))})"
    return name, got == steps, str(got)


def check_scheduled_deletions(cases: Iterable[tuple[xp.DigitExpansion, tuple[int, ...]]]) -> Check:
    """Cases (e, positions): single deletions at the ``make_schedule`` steps,
    in order, equal removing the positions from the stream, compared up to
    four digits past the prefix.

    Each single deletion runs through ``delete_positions``, the same kernel
    as a whole-set deletion, so the reference here is the list surgery of
    ``stream_after_deleting``, which shares no code with that kernel."""
    name = "scheduled deletions equal direct position removal"
    for e, positions in cases:
        result = functools.reduce(sh.generalized_shift, sh.make_schedule(positions), e)
        if not matches_stream(result, *stream_after_deleting(e, positions, horizon=len(e.prefix) + 3)):
            return name, False, str(positions)
    return name, True, ""


def check_peeling_identities(
    cases: Iterable[tuple[sm.SalemFunction, xp.DigitExpansion, Iterable[int]]],
) -> Check:
    """Cases (f, e, ks): for each k in ks the k-th peeling identity
    g_(k-1) = beta_d + p_d g_k of the system holds exactly, d the original
    digit at reading position k.

    Each g_k is ``chain_value(f, e, k)``, its own deletion, induced order and
    evaluation, computed once per point and shared by the identities k and
    k+1.  No g_k is derived from a neighbour, which would make the identity
    hold by construction.  With beta_d = B/D and p_d = P/D over the common
    weight denominator D, the identity is compared cross-multiplied in
    integers; the residual is built only for a failing case's detail."""
    name = "peeling identities hold along deletion chains"
    for f, e, ks in cases:
        w = f.weights
        g: dict[int, Fraction] = {}
        for k in ks:
            d = e.digit_at(f.seq.n_at(k))
            for j in (k - 1, k):
                if j not in g:
                    g[j] = sm.chain_value(f, e, j)
            lhs, rhs = g[k - 1], g[k]
            if lhs.numerator * w.den * rhs.denominator != (
                w.beta_num[d] * rhs.denominator + w.p_num[d] * rhs.numerator
            ) * lhs.denominator:
                r = abs(lhs - (w.beta[d] + w.p[d] * rhs))
                return name, False, f"{sm.format_function_spec(f)} k={k} residual={r}"
    return name, True, ""


def check_grid_integral(functions: Iterable[sm.SalemFunction]) -> Check:
    """The closed-form integral equals ``grid_integral`` (identity order)."""
    name = "closed form matches exact terminating-grid quadrature"
    for f in functions:
        closed, grid = sm.integral_closed_form(f), grid_integral(f)
        if grid != closed:
            return name, False, f"{sm.format_function_spec(f)}: closed={closed} grid={grid}"
    return name, True, "exact equality"


def check_endpoint_sums(cases: Iterable[tuple[sm.SalemFunction, int]]) -> Check:
    """Cases (f, k), k at least the length n of f's order: g summed over the
    q^k words 0.w000... is exactly (q^k - 1)*I, and over 0.w(q-1)(q-1)...
    exactly (q^k - 1)*I + 1, with I = ``integral_closed_form(f)``.

    Proof: past position k >= n every digit is the tail digit t, so
    g(0.w t t ...) = H(w') + P(w')*g_id(0.t t ...), where w' is w read through
    the order, H(w') and P(w') are its series head and weight product, and
    g_id(0) = 0, g_id(1) = 1.  As w -> w' is a bijection on the words of
    length k, sum P = (sum p)^k = 1 and sum H = sum_j (sum beta)*q^(k-j) =
    (q^k - 1)*I.  Weights of either sign that sum to 1 suffice.

    Each value is read through max(k, n) digits, so its denominator divides
    D^max(k, n), D the common weight denominator, and the sum is taken in
    numerators over that power.
    """
    name = "closed form matches exact cylinder-endpoint sums"
    for f, k in cases:
        q = f.weights.q
        base, want = xp.BaseSpec.constant(q), (q**k - 1) * sm.integral_closed_form(f)
        common = f.weights.den ** max(k, f.seq.size)
        for tail, extra in ((xp.Tail.ZEROS, 0), (xp.Tail.MAX, 1)):
            num = 0
            for w in itertools.product(range(q), repeat=k):
                value = sm.evaluate(f, xp.DigitExpansion(base, w, tail))
                num += value.numerator * (common // value.denominator)
            total = Fraction(num, common)
            if total != want + extra:
                return name, False, f"{sm.format_function_spec(f)} k={k} {tail.value} tail: sum={total}"
    return name, True, "exact equality"


def check_continuous_at_two_expansion_points(
    cases: Iterable[tuple[sm.SalemFunction, xp.DigitExpansion]],
) -> Check:
    """Cases (f, e), f in the identity order: ``continuity_at`` finds g
    continuous at e, and g takes the same value on both expansions."""
    name = "identity order is continuous at two-expansion points"
    for f, e in cases:
        same = sm.evaluate(f, e) == sm.evaluate(f, xp.dual_representation(e))
        if not (sm.continuity_at(f, e).is_continuous and same):
            return name, False, f"{sm.format_function_spec(f)} at {e}"
    return name, True, ""


def check_swapped_order_jump(weights: sm.WeightSet) -> Check:
    """In the order perm(2 1), g jumps at 1/q, and ``continuity_at`` reports
    the jump between the two expansions exactly."""
    f = sm.SalemFunction(weights, sm.IndexSequence((2, 1)))
    e = xp.DigitExpansion(xp.BaseSpec.constant(weights.q), (1,))
    jump = sm.continuity_at(f, e).jump
    direct = sm.evaluate(f, e) - sm.evaluate(f, xp.dual_representation(e))
    ok = jump is not None and jump != 0 and jump == direct
    return "swapped order jumps at the first cylinder endpoint", ok, f"jump {float(jump or 0):.4f}"


def check_distribution_function(specs: Iterable[sm.DistributionSpec], grid: int) -> Check:
    """F is 0 below 0, 1 from 1 on, and nondecreasing on the points i/grid."""
    name = "distribution function is a monotone CDF"
    for d in specs:
        p = d.weights.p
        if (
            sm.distribution_function(d, Fraction(-1, 2)) != 0
            or sm.distribution_function(d, 1) != 1
            or sm.distribution_function(d, 2) != 1
        ):
            return name, False, f"p={p}"
        prev = Fraction(-1)
        for i in range(grid + 1):
            value = sm.distribution_function(d, Fraction(i, grid))
            if value < prev:
                return name, False, f"p={p} x={Fraction(i, grid)}"
            prev = value
    return name, True, ""


def check_cylinder_increments(cases: Iterable[tuple[sm.SalemFunction, tuple[int, ...]]]) -> Check:
    """Cases (f, word), f in the identity order: the increment of g over the
    cylinder of ``word`` is the product of its weights."""
    name = "cylinder increments equal weight products (identity order)"
    for f, word in cases:
        cyl = xp.Cylinder(xp.BaseSpec.constant(f.weights.q), word)
        if sm.cylinder_increment(f, cyl) != sm.increment_product(f, word):
            return name, False, str(word)
    return name, True, ""


def check_increments_partition_unity(cases: Iterable[tuple[sm.SalemFunction, int]]) -> Check:
    """Cases (f, rank): the weight products of all words of that rank sum to 1."""
    name = "rank-r increments partition unity"
    for f, rank in cases:
        words = itertools.product(range(f.weights.q), repeat=rank)
        if sum(sm.increment_product(f, word) for word in words) != 1:
            return name, False, f"{sm.format_function_spec(f)} rank={rank}"
    return name, True, ""


def check_iter_shift_measure(shifts: Iterable[tuple[int, int]], points: Iterable[Fraction]) -> Check:
    """Shifts (q, n): {z : shift^n z < x} has exact measure x at every point x."""
    name = "iterated shifts preserve Lebesgue measure"
    points = tuple(points)
    for q, n in shifts:
        plm = me.plm_iter_shift(q, n)
        for x in points:
            if me.sublevel_measure(plm, x) != x:
                return name, False, f"q={q} n={n} x={x}"
    return name, True, ""


def _within_four_halfwidths(name: str, runs) -> Check:
    """Runs (label, exact, Monte Carlo result): each estimate lies within four
    halfwidths of the exact measure; the detail lists every gap."""
    ok, gaps = True, []
    for label, exact, mc in runs:
        gap = abs(mc.estimate - float(exact))
        ok = ok and gap <= 4 * mc.halfwidth
        gaps.append(f"{label}: |mc-exact|={gap:.2e} vs 4hw={4 * mc.halfwidth:.2e}")
    return name, ok, "; ".join(gaps)


def check_monte_carlo_measure(cases: Iterable[tuple[int, int, Fraction, int]], samples: int) -> Check:
    """Cases (q, n, x, seed): the Monte Carlo measure of {shift^n z < x}
    agrees with the exact one."""
    runs = []
    for q, n, x, seed in cases:
        exact = me.sublevel_measure(me.plm_iter_shift(q, n), x)
        mc = me.monte_carlo_measure(me.SetFamilySpec.iter_shift(q, n), x, samples, seed=seed)
        runs.append((f"q={q},n={n}", exact, mc))
    return _within_four_halfwidths("Monte Carlo agrees with the exact measure", runs)


def check_comparison_measure(cases: Iterable[tuple[int, int, int, int]], samples: int) -> Check:
    """Cases (q, a, b, seed): the Monte Carlo measure of {shift^a z < shift^b z}
    agrees with the exact one."""
    runs = []
    for q, a, b, seed in cases:
        exact = me.comparison_measure(me.plm_iter_shift(q, a), me.plm_iter_shift(q, b))
        mc = me.monte_carlo_measure(me.SetFamilySpec.compare_iter(q, a, b), 0, samples, seed=seed)
        runs.append((f"q={q},a={a},b={b}", exact, mc))
    return _within_four_halfwidths("iterate comparison agrees with Monte Carlo", runs)


# --- suites ------------------------------------------------------------------


# the function ``cantorshift verify`` checks when --spec is absent or empty
DEFAULT_FUNCTION = sm.SalemFunction(sm.WeightSet(2, (Fraction(3, 10), Fraction(7, 10))))


def suite_duality(_f: sm.SalemFunction) -> list[Check]:
    rng = random.Random(100)
    mixed = [_random_expansion(rng, cantor=rng.random() < 0.5) for _ in range(400)]
    constant = [_random_expansion(rng) for _ in range(300)]
    printed = [_random_expansion(rng, cantor=rng.random() < 0.5) for _ in range(300)]
    return [check_dual_values(mixed), check_extraction_round_trip(constant), check_notation_round_trip(printed)]


def suite_lemma1(_f: sm.SalemFunction) -> list[Check]:
    rng = random.Random(200)

    def point(maxlen: int = 12) -> xp.DigitExpansion:
        return _random_expansion(rng, cantor=rng.random() < 0.5, maxlen=maxlen)

    drops = [(point(), rng.randrange(0, 5)) for _ in range(200)]
    runs = [(point(), rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(200)]
    descents = [(point(), sorted(rng.sample(range(1, 9), rng.randrange(2, 5)), reverse=True)) for _ in range(200)]
    differences = [(point(), rng.randrange(1, 6)) for _ in range(200)]
    short = [point(maxlen=6) for _ in range(200)]
    endpoints = [xp.DigitExpansion(e.base, e.prefix) for e in short if e.prefix and e.prefix[-1]]
    return [
        check_drop_after_deletions(drops),
        check_consecutive_chain(runs),
        check_descending_chain(descents),
        check_deletion_difference(differences),
        check_endpoint_gap(endpoints),
    ]


def suite_compose(_f: sm.SalemFunction) -> list[Check]:
    rng = random.Random(300)
    points = [random_terminating(rng, q, 12) for q in (2, 10)]
    return [check_two_deletions((e, n1, n2) for e in points for n1 in range(1, 9) for n2 in range(1, 9))]


def suite_schedule(_f: sm.SalemFunction) -> list[Check]:
    rng = random.Random(400)
    e = random_terminating(rng, 10, 10)
    subsets = (s for size in range(0, 4) for s in itertools.combinations(range(1, 6), size))
    return [
        check_schedule_steps((1, 5, 7, 3, 6), (1, 4, 5, 2, 3)),
        check_schedule_steps((1, 5, 7, 3, 6, 10, 2, 4, 8, 9), (1, 4, 5, 2, 3, 5, 1, 1, 1, 1)),
        check_scheduled_deletions((e, perm) for s in subsets for perm in itertools.permutations(s)),
    ]


def suite_system(f: sm.SalemFunction) -> list[Check]:
    rng = random.Random(500)
    functions = [
        f,
        sm.SalemFunction(DEFAULT_FUNCTION.weights, sm.IndexSequence((1, 5, 7, 3, 6, 10, 2, 4, 8, 9))),
        sm.SalemFunction(sm.WeightSet(3, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)))),
    ]
    points = [(f, random_terminating(rng, f.weights.q, 12)) for f in functions for _ in range(25)]
    return [check_peeling_identities((f, e, range(1, 12)) for f, e in points)]


def suite_integral(f: sm.SalemFunction) -> list[Check]:
    # the endpoint sums read the spec's order up to q^n = 4096 cells, else its
    # weights in the identity order, with k past n to the deepest 2048-cell level
    ident = sm.SalemFunction(f.weights)
    q, n = f.weights.q, f.seq.size
    if n > 12 or q**n > 4096:
        f, n = ident, 0
    k = max(n, 1, *(j for j in range(12) if q**j <= 2048))
    return [check_grid_integral([ident]), check_endpoint_sums([(f, k)])]


def suite_continuity(f: sm.SalemFunction) -> list[Check]:
    weights = f.weights
    rng = random.Random(600)
    ident = sm.SalemFunction(weights)
    points = [(ident, random_two_expansion_point(rng, weights.q, 8)) for _ in range(150)]
    return [check_continuous_at_two_expansion_points(points), check_swapped_order_jump(weights)]


def suite_distribution(_f: sm.SalemFunction) -> list[Check]:
    rng = random.Random(700)
    specs = []
    for _ in range(5):
        q = rng.choice([2, 3, 4])
        specs.append(sm.DistributionSpec(sm.WeightSet(q, random_positive_weights(rng, q))))
    return [check_distribution_function(specs, 200)]


def suite_increment(_f: sm.SalemFunction) -> list[Check]:
    words = (w for rank in range(1, 5) for w in itertools.product(range(2), repeat=rank))
    return [
        check_cylinder_increments((DEFAULT_FUNCTION, w) for w in words),
        check_increments_partition_unity((DEFAULT_FUNCTION, rank) for rank in (1, 2, 3)),
    ]


def suite_measure(_f: sm.SalemFunction) -> list[Check]:
    return [
        check_iter_shift_measure(
            [(q, n) for q in (2, 3) for n in range(1, 7)], (Fraction(1, 7), Fraction(1, 3), Fraction(2, 5))
        ),
        check_monte_carlo_measure([(2, 2, Fraction(1, 3), 42)], 100000),
        check_comparison_measure([(2, 2, 1, 43)], 100000),
    ]


SUITES = {
    "duality": suite_duality,
    "lemma1": suite_lemma1,
    "compose": suite_compose,
    "schedule": suite_schedule,
    "system": suite_system,
    "integral": suite_integral,
    "continuity": suite_continuity,
    "distribution": suite_distribution,
    "increment": suite_increment,
    "measure": suite_measure,
}
