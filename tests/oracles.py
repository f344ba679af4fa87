"""Independent reference computations used to fix expected test values.

Everything here works on plain digit lists and integer arithmetic, separate
from the library's Fraction-based code paths, so the two routes can disagree
when one of them is wrong.  The piecewise-map oracles are the exception:
they build the library's ``Branch`` values, but cylinder by cylinder and by
plain all-pairs and linear-search constructions, instead of the library's
closed form from the deleted positions and its bisection.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from cantorshift import BaseSpec, DigitExpansion, Tail
from cantorshift.measure import (
    Branch,
    BudgetExceededError,
    PiecewiseLinearMap,
)


def long_division_digits(num: int, den: int, bases, count: int) -> list[int]:
    """First ``count`` digits of num/den over a base list, by long division."""
    digits = []
    for k in range(count):
        q = bases[k] if k < len(bases) else bases[-1]
        num *= q
        d, num = divmod(num, den)
        digits.append(d)
    return digits


def digit_sum(e: DigitExpansion, n: int) -> Fraction:
    """Sum of d_k / (q_1 ... q_k) over positions k = 1..n, one digit at a time."""
    total, den = Fraction(0), 1
    for k in range(1, n + 1):
        den *= e.base.base_at(k)
        total += Fraction(e.digit_at(k), den)
    return total


def periodic_digits(num: int, den: int, q: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of the base-q digits of num/den in [0, 1].

    Long division, stopping when a remainder repeats.  Terminating values
    get the period [0]; 1 is written 0.(q-1)(q-1)...
    """
    if num == den:
        return [], [q - 1]
    digits, seen = [], {}
    while num not in seen:
        seen[num] = len(digits)
        num *= q
        d, num = divmod(num, den)
        digits.append(d)
    start = seen[num]
    return digits[:start], digits[start:]


def salem_value_exact(beta, p, order_prefix, num: int, den: int, q: int) -> Fraction:
    """Exact g(num/den) for a reading order that is ``order_prefix`` (a
    permutation of 1..N) followed by the identity.

    Past max(N, preperiod length) the order reads the periodic digits in
    turn, so the series tail T satisfies T = S + P * T over one period, with
    S the period's partial sum and P its weight product.
    """
    pre, period = periodic_digits(num, den, q)

    def digit(t: int) -> int:
        return pre[t - 1] if t <= len(pre) else period[(t - len(pre) - 1) % len(period)]

    head = max(len(order_prefix), len(pre))
    total, prod = Fraction(0), Fraction(1)
    for k in range(1, head + 1):
        d = digit(order_prefix[k - 1] if k <= len(order_prefix) else k)
        total += beta[d] * prod
        prod *= p[d]
    block_sum, block_prod = Fraction(0), Fraction(1)
    for k in range(head + 1, head + len(period) + 1):
        d = digit(k)
        block_sum += beta[d] * block_prod
        block_prod *= p[d]
    return total + prod * block_sum / (1 - block_prod)


def alternating_series_direct(e: DigitExpansion, m: int, horizon: int = 40) -> Fraction:
    """Deleted-position alternating sum, term by term.

    Positions below m keep their signs; position j > m lands in slot j - 1
    and contributes with sign (-1)^(j-1) over the base product missing q_m.
    Only terminating (zeros-tail) expansions are supported, which is all the
    oracle is used for.
    """
    assert e.tail is Tail.ZEROS
    total = Fraction(0)
    den = 1
    for k in range(1, m):
        den *= e.base.base_at(k)
        d = e.digit_at(k)
        total += Fraction(d if k % 2 == 0 else -d, den)
    # den now holds q_1 .. q_{m-1}; skip q_m entirely
    for j in range(m + 1, max(horizon, len(e.prefix) + 1) + 1):
        den *= e.base.base_at(j)
        d = e.digit_at(j)
        total += Fraction(d if (j - 1) % 2 == 0 else -d, den)
    return total


def alternating_full_value(e: DigitExpansion, horizon: int = 40) -> Fraction:
    """Plain alternating sum of a terminating expansion, term by term."""
    assert e.tail is Tail.ZEROS
    total = Fraction(0)
    den = 1
    for k in range(1, max(horizon, len(e.prefix)) + 1):
        den *= e.base.base_at(k)
        d = e.digit_at(k)
        total += Fraction(d if k % 2 == 0 else -d, den)
    return total


def alternating_termwise(e: DigitExpansion, depth: int) -> Fraction:
    """Alternating sum (-1)^k d_k / (q_1 .. q_k) over positions 1..depth,
    term by term, with the digits and bases read off the raw fields (stored
    digits, then 0 or q_k - 1 per the tail).  The terms past ``depth`` add up
    to at most 1/(q_1 .. q_depth) in absolute value."""
    total = Fraction(0)
    den = 1
    for k in range(1, depth + 1):
        q = e.base.prefix[k - 1] if k <= len(e.base.prefix) else e.base.tail_value
        den *= q
        if k <= len(e.prefix):
            d = e.prefix[k - 1]
        else:
            d = 0 if e.tail is Tail.ZEROS else q - 1
        total += Fraction(-d if k % 2 else d, den)
    return total


def same_stream_horizon(e1: DigitExpansion, e2: DigitExpansion) -> bool:
    """Stream equality, position by position up to one past every stored
    prefix: beyond that both streams are constant."""
    horizon = 1 + max(len(e1.prefix), len(e2.prefix), len(e1.base.prefix), len(e2.base.prefix))
    if e1.base.tail_value != e2.base.tail_value or e1.tail is not e2.tail:
        return False
    for k in range(1, horizon + 1):
        if e1.base.base_at(k) != e2.base.base_at(k):
            return False
        if e1.digit_at(k) != e2.digit_at(k):
            return False
    return True


def weight_set_plain(q: int, p) -> tuple:
    """(beta, den, p_num, beta_num) of the weights ``p`` by a plain Fraction
    running sum, or a ValueError with the first rule they break, checked in
    the order q >= 2, q weights, each in (-1, 1), sum 1, each cumulative sum
    beta_1 .. beta_{q-1} in (0, 1)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    p = [Fraction(v) for v in p]
    if len(p) != q:
        raise ValueError(f"expected {q} weights, got {len(p)}")
    for v in p:
        if v <= -1 or v >= 1:
            raise ValueError("weights must lie in (-1, 1)")
    running = [Fraction(0)]
    for v in p:
        running.append(running[-1] + v)
    if running[-1] != 1:
        raise ValueError("weights must sum to 1 exactly")
    beta = running[:-1]
    for b in beta[1:]:
        if b <= 0 or b >= 1:
            raise ValueError("cumulative sums must lie strictly in (0, 1)")
    den = 1
    for v in p:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return tuple(beta), den, tuple(int(v * den) for v in p), tuple(int(b * den) for b in beta)


def continuity_k0_rule(order, m: int) -> bool:
    """The continuity rule at a point whose last nonzero digit sits at m, for
    the reading order ``order`` (a permutation of 1..N) then the identity:
    with k0 = max{k : n_k <= m}, n_{k0} = m and n_j <= m - 1 for j < k0."""

    def n_at(k: int) -> int:
        return order[k - 1] if k <= len(order) else k

    k0 = max(k for k in range(1, max(len(order), m) + 1) if n_at(k) <= m)
    return n_at(k0) == m and all(n_at(j) <= m - 1 for j in range(1, k0))


def salem_series_brute(beta, p, digit_at, order, terms: int) -> Fraction:
    """Partial Salem series straight from its definition."""
    total = Fraction(0)
    prod = Fraction(1)
    for k in range(1, terms + 1):
        d = digit_at(order(k))
        total += beta[d] * prod
        prod *= p[d]
    return total


def riemann_bracket(f, level: int):
    """(lower, upper) Riemann sums of an evaluate-style function on the
    terminating grid of q^level cells; valid brackets for nondecreasing g."""
    from cantorshift import evaluate, expansion_of

    q = f.weights.q
    cells = q**level
    lower = Fraction(0)
    upper = Fraction(0)
    for j in range(cells):
        lo = evaluate(f, expansion_of(Fraction(j, cells), BaseSpec.constant(q), level))
        lower += lo
    for j in range(1, cells + 1):
        hi = evaluate(f, expansion_of(Fraction(j, cells), BaseSpec.constant(q), level, Tail.MAX))
        upper += hi
    return lower / cells, upper / cells


def compose_all_pairs(first, then, budget: int):
    """z -> then(first(z)), pairing every source branch with every target
    branch.  The plain all-pairs construction that the bisecting
    ``PiecewiseLinearMap.compose`` must reproduce branch for branch, with the
    budget checked after each source branch."""
    out = []
    for br in first.branches:
        if br.slope < 0:
            raise ValueError("composition with negative slopes is not supported")
        if br.slope == 0:
            out.append(Branch(br.lo, br.hi, Fraction(0), then.apply(br.intercept)))
            continue
        for nxt in then.branches:
            zlo = max(br.lo, (nxt.lo - br.intercept) / br.slope)
            zhi = min(br.hi, (nxt.hi - br.intercept) / br.slope)
            if zlo < zhi:
                out.append(Branch(zlo, zhi, br.slope * nxt.slope, nxt.slope * br.intercept + nxt.intercept))
        if len(out) > budget:
            raise BudgetExceededError(f"composition exceeds branch budget {budget}")
    return PiecewiseLinearMap(out)


def single_deletion(q: int, m: int, budget: int):
    """Deletion of digit position m, cylinder by cylinder: on the rank-m
    cylinder with digits c_1..c_m it is
    z -> q z - (q - 1) * (c_1/q + .. + c_{m-1}/q^{m-1}) - c_m / q^{m-1}."""
    count = q**m
    if count > budget:
        raise BudgetExceededError(f"{count} branches exceed budget {budget}")
    out = []
    for j in range(count):
        head, c_m = divmod(j, q)
        intercept = Fraction(-((q - 1) * head + c_m), q ** (m - 1))
        out.append(Branch(Fraction(j, count), Fraction(j + 1, count), Fraction(q), intercept))
    return PiecewiseLinearMap(out)


def constant_slope_map(slope, intercept):
    """The one-branch map z -> slope * z + intercept on [0, 1)."""
    return PiecewiseLinearMap([Branch(Fraction(0), Fraction(1), Fraction(slope), Fraction(intercept))])


def chain_all_pairs(q: int, indices, budget: int):
    """Sequential single deletions composed with ``compose_all_pairs``."""
    current = constant_slope_map(1, 0)
    for m in indices:
        current = compose_all_pairs(current, single_deletion(q, m, budget), budget)
    return current


def chain_deleted_positions(indices) -> list[int]:
    """Original positions a chain of single deletions removes, sorted.

    Each index is mapped back through the earlier deletions, latest first:
    a position at or past an earlier deleted one moves one place right.
    """
    out = []
    for k, j in enumerate(indices):
        pos = j
        for earlier in reversed(indices[:k]):
            if pos >= earlier:
                pos += 1
        out.append(pos)
    return sorted(out)


def schedule_by_counting(positions) -> list[int]:
    """Single-deletion steps for distinct original positions in order: each
    position less the count of earlier positions below it."""
    return [n - sum(1 for earlier in positions[:i] if earlier < n) for i, n in enumerate(positions)]


def threshold_mc_counts(q: int, deleted, x: Fraction, samples: int, seed: int, guard: int = 16, cap: int = 128):
    """(hits, indeterminate) of ``monte_carlo_measure`` on a threshold
    family that deletes ``deleted``, read digit by digit.

    One draw u = randrange(q^top), top = max(deleted) + guard, holds the
    digits of positions 1..top; the surviving ones are read one digit at a
    time, then one fresh digit per round refines the bracket until it
    decides against x or the depth reaches ``cap``.
    """
    rng = random.Random(seed)
    top = max(deleted) + guard
    kept = [pos for pos in range(1, top + 1) if pos not in set(deleted)]
    hits = indet = 0
    for _ in range(samples):
        u = rng.randrange(q**top)
        block = 0
        for pos in kept:
            block = block * q + (u // q ** (top - pos)) % q
        scale, depth = q ** len(kept), len(kept)
        while True:
            if Fraction(block + 1, scale) <= x:
                hits += 1
                break
            if Fraction(block, scale) >= x:
                break
            if depth >= cap:
                indet += 1
                break
            block = block * q + rng.randrange(q)
            scale *= q
            depth += 1
    return hits, indet


def compare_mc_counts(q: int, a: int, b: int, samples: int, seed: int, guard: int = 16, cap: int = 256):
    """(hits, indeterminate) of ``monte_carlo_measure`` on {z : shift^a z < shift^b z},
    read and compared one digit at a time.

    The first draw, randrange(q^(k + guard)) with k = |a - b|, holds the
    digits of positions min(a, b) + 1 .. max(a, b) + guard; each later draw,
    randrange(q^guard), appends the next ``guard`` positions, and is made
    only when the comparison reaches a position not yet drawn.  Position
    pairs (a + i, b + i) are compared for i = 1..cap.
    """
    rng = random.Random(seed)
    lo, hi = min(a, b), max(a, b)

    def digits_of(u: int, count: int) -> list[int]:
        return [(u // q ** (count - 1 - j)) % q for j in range(count)]

    hits = indet = 0
    for _ in range(samples):
        width = hi - lo + guard
        digits = digits_of(rng.randrange(q**width), width)  # digits[j] is position lo + 1 + j
        for i in range(1, cap + 1):
            if len(digits) < hi + i - lo:
                digits += digits_of(rng.randrange(q**guard), guard)
            da, db = digits[a + i - lo - 1], digits[b + i - lo - 1]
            if da != db:
                hits += da < db
                break
        else:
            indet += 1
    return hits, indet


def subtract_on_refinement(a, b):
    """a - b on the sorted union of both maps' breakpoints, each piece's
    branches found by a search over the whole map."""
    points = sorted({br.lo for br in a.branches} | {br.lo for br in b.branches} | {Fraction(1)})
    out = []
    for lo, hi in zip(points, points[1:]):
        x = next(br for br in a.branches if br.lo <= lo < br.hi)
        y = next(br for br in b.branches if br.lo <= lo < br.hi)
        out.append(Branch(lo, hi, x.slope - y.slope, x.intercept - y.intercept))
    return PiecewiseLinearMap(out)
