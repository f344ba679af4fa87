"""Generalized Salem functions built from a weight set and a digit reading order.

Given weights p_0 .. p_{q-1} in (-1, 1) summing to 1, with cumulative sums
beta_i strictly inside (0, 1) for i != 0, and a reading order (n_k) that is a
finite rearrangement of the positive integers, the function

    g(x) = beta_{d(n_1)} + sum_{k >= 2} beta_{d(n_k)} * prod_{j < k} p_{d(n_j)}

maps [0, 1] to [0, 1] (d(t) is the t-th digit of x in base q).  For equal
weights 1/q and the natural reading order this is the identity; unequal
positive weights give the classical strictly increasing singular function,
rearranged orders give functions without monotonicity intervals.

The series is the peeling identity g(x) = beta_d + p_d * g(sigma x)
unrolled: each digit read is one affine map, and a digit word their
composite, in integers over a power of the common denominator D of the
weights.  One pass over a repeating digit block has a fixed point, g of the
periodic part, and the map of the digits before the block is read there.
``evaluate`` is exact; ``value_at`` is exact once a rational's digits
repeat, and where it cuts the series first it returns the 12-place rounding
of g, by the one integer half-even rule ``format_value`` prints with.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate

from .expansions import (
    BaseSpec,
    Cylinder,
    DigitExpansion,
    Tail,
    _quote_int,
    _rational,
    _Record,
    _read_token,
    dual_representation,
    parse_rational,
    quote_token,
)
from .shifts import delete_positions, shift_n

__all__ = [
    "WeightSet",
    "IndexSequence",
    "SalemFunction",
    "DistributionSpec",
    "Monotonicity",
    "ContinuityResult",
    "evaluate",
    "value_at",
    "first_terms",
    "chain_expansion",
    "chain_value",
    "residual",
    "increment_product",
    "increment_via_evaluate",
    "cylinder_increment",
    "integral_closed_form",
    "classify_monotonicity",
    "continuity_at",
    "distribution_function",
    "parse_function_spec",
    "format_function_spec",
    "format_value",
    "PRINTED_PLACES",
]

PRINTED_PLACES = 12  # the places g is printed to, and rounded to where its series is cut
_UNIT = 10**PRINTED_PLACES


def _rounded(num: int, den: int) -> int:
    """num/den (den > 0) in units of 10^-PRINTED_PLACES, rounded half to even."""
    units, rest = divmod(num * _UNIT, den)
    return units + (2 * rest > den or (2 * rest == den and units & 1))


def format_value(v: Fraction) -> str:
    """v rounded half to even to ``PRINTED_PLACES`` places in integers, less
    trailing zeros: 1/3 prints 0.333333333333, 1/2 prints 0.5 and 1 prints 1."""
    units = _rounded(v.numerator, v.denominator)
    digits = str(abs(units)).rjust(PRINTED_PLACES + 1, "0")
    return f"{'-' * (units < 0)}{digits[:-PRINTED_PLACES]}.{digits[-PRINTED_PLACES:]}".rstrip("0").rstrip(".")


class WeightSet(_Record):
    """Digit weights p_0 .. p_{q-1} with their cumulative sums.

    Constraints: each p_i in (-1, 1), sum p_i = 1, and every cumulative sum
    beta_i = p_0 + .. + p_{i-1} strictly between 0 and 1 for i >= 1
    (beta_0 = 0).  Negative weights are allowed as long as the cumulative
    sums stay inside (0, 1); that forces p_0 > 0 and p_{q-1} > 0.

    ``den`` is the lcm D of the weights' denominators; ``p_num`` and
    ``beta_num`` are the integers p_i * D and beta_i * D, and ``p_abs`` the
    floats |p_i| that ``value_at`` multiplies to decide where to cut.  Only
    ``q`` and ``p`` are compared, hashed and shown; the rest derive from them.
    """

    __slots__ = ("q", "p", "beta", "den", "p_num", "beta_num", "p_abs")
    _fields = ("q", "p")
    q: int
    p: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    den: int
    p_num: tuple[int, ...]
    beta_num: tuple[int, ...]
    p_abs: tuple[float, ...]

    def __init__(self, q: int, p: tuple[Fraction, ...]) -> None:
        if q < 2:
            raise ValueError("q must be >= 2")
        p = tuple(Fraction(v) for v in p)
        if len(p) != q:
            raise ValueError(f"expected {_quote_int(q)} weights, got {len(p)}")
        if any(not -1 < v < 1 for v in p):
            raise ValueError("weights must lie in (-1, 1)")
        den = math.lcm(*(v.denominator for v in p))
        p_num = tuple(v.numerator * (den // v.denominator) for v in p)
        *beta_num, total = accumulate(p_num, initial=0)
        if total != den:
            raise ValueError("weights must sum to 1 exactly")
        if any(not 0 < b < den for b in beta_num[1:]):
            raise ValueError("cumulative sums must lie strictly in (0, 1)")
        beta = tuple(Fraction(b, den) for b in beta_num)
        self._set(q, p, beta, den, p_num, tuple(beta_num), tuple(abs(float(v)) for v in p))


class IndexSequence(_Record):
    """Reading order n_1, n_2, ...: a permutation of {1..N} then the identity.

    Trailing fixed points of the permutation are stripped, so the identity
    order is always the empty prefix.
    """

    __slots__ = ("prefix",)
    prefix: tuple[int, ...]

    def __init__(self, prefix: tuple[int, ...] = ()) -> None:
        prefix = tuple(map(int, prefix))
        if sorted(prefix) != list(range(1, len(prefix) + 1)):
            raise ValueError("prefix must be a permutation of 1..N")
        self._set(_without_fixed_tail(prefix))

    @property
    def size(self) -> int:
        return len(self.prefix)

    @property
    def is_identity(self) -> bool:
        return not self.prefix

    def n_at(self, k: int) -> int:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return k

    def _steps(self, k: int) -> tuple[int, ...]:
        """n_1 .. n_k: the prefix's first k entries, then the identity."""
        return self.prefix[:k] + tuple(range(self.size + 1, k + 1))

    def induced_after(self, k: int) -> "IndexSequence":
        """Reading order of the remaining digits once the first k are deleted.

        Position n_{k+j} of the original stream sits at index
        n_{k+j} - #(deleted below it) among the survivors, counted by
        bisection in the sorted deleted prefix; the induced order is again a
        finite rearrangement, and the identity once the prefix is read.  The
        result, a permutation by construction, is not checked again.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if k >= len(self.prefix):
            return _IDENTITY
        deleted = sorted(self.prefix[:k])
        ranks = tuple(n - bisect_left(deleted, n) for n in self.prefix[k:])
        return IndexSequence._make(_without_fixed_tail(ranks))


def _without_fixed_tail(perm: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of 1..N less its trailing fixed points."""
    size = len(perm)
    while size and perm[size - 1] == size:
        size -= 1
    return perm[:size]


_IDENTITY = IndexSequence()  # the identity order, shared: a record is immutable


class SalemFunction(_Record):
    __slots__ = ("weights", "seq")
    weights: WeightSet
    seq: IndexSequence

    def __init__(self, weights: WeightSet, seq: IndexSequence = _IDENTITY) -> None:
        self._set(weights, seq)


class DistributionSpec(_Record):
    """A Salem function whose weights are nonnegative, so it is a CDF."""

    __slots__ = ("weights",)
    weights: WeightSet

    def __init__(self, weights: WeightSet) -> None:
        if any(v < 0 for v in weights.p):
            raise ValueError("distribution weights must be >= 0")
        self._set(weights)


def _check_base(f: SalemFunction, e: DigitExpansion) -> None:
    """Raise ValueError ``expansion base must be q{q}`` unless ``e`` is written
    in the constant base q of f's weights."""
    q, base = f.weights.q, e.base
    if base.prefix or base.tail_value != q:
        raise ValueError(f"expansion base must be q{q}")


def _word(w: WeightSet, digits) -> tuple[int, int, int]:
    """The map g -> (b + a*g)/s that reading ``digits`` applies to g past
    them, g <- beta_d + p_d * g for each digit, in integers over s = D^len
    with D the common weight denominator: a is the digits' weight product."""
    P, B, D = w.p_num, w.beta_num, w.den
    b, a = 0, 1
    for d in digits:
        b, a = b * D + a * B[d], a * P[d]
    return b, a, D ** len(digits)


def _read(order: tuple[int, ...], digits: list[int]) -> list[int]:
    return [digits[n - 1] for n in order] + digits[len(order) :]


def _periodic(w: WeightSet, order: tuple[int, ...], head: list[int], block: list[int]) -> Fraction:
    """g of the digits head, block, block, ... read through ``order``.

    The block's next digits move onto the head, turning the block, until the
    head covers the order; past it one pass over the block is the map
    g -> (b + a*g)/s, whose fixed point b/(s - a) (s > |a| as |p| < 1) the
    head's map is read at."""
    extra = max(len(order) - len(head), 0)
    turn = extra % len(block)
    head = head + block * (extra // len(block)) + block[:turn]
    b, a, s = _word(w, block[turn:] + block[:turn])
    hb, ha, hs = _word(w, _read(order, head))
    return Fraction(hb * (s - a) + ha * b, hs * (s - a))


def evaluate(f: SalemFunction, e: DigitExpansion) -> Fraction:
    """Exact value of the function at an expansion, in closed form: the digit
    prefix, padded with the tail digit to the order's length, is read through
    the order as one map g -> (b + a*g)/s, and past it g reads the identity
    order's value of its constant tail, 0 for the zeros tail and 1 for the
    (q-1) tail, so the value is b/s or (b + a)/s."""
    _check_base(f, e)
    return Fraction(*_evaluate_pair(f, e))


def _evaluate_pair(f: SalemFunction, e: DigitExpansion) -> tuple[int, int]:
    """``evaluate``'s value as the unreduced integers (num, D^len), D the
    common weight denominator and len the digits read, for an ``e`` in f's
    base; the identity order reads the stored digits as they are."""
    w, order, top = f.weights, f.seq.prefix, e.tail is Tail.MAX
    digits = e.prefix
    if order:
        pad = [w.q - 1 if top else 0] * (len(order) - len(digits))
        digits = _read(order, list(digits) + pad)
    b, a, s = _word(w, digits)
    return b + a if top else b, s


def value_at(f: SalemFunction, x: Fraction | int | str) -> tuple[Fraction, int | None]:
    """g at a rational x in [0, 1], and the number of digits read if the series
    was cut (None if the value is exact).

    Long division with a memo of the remainders reads digits until a remainder
    repeats, which closes the period and makes the value exact, or until the
    reading order is read and the series is cut.  Past a cut g is
    (lo + gap*t)/scale, t in [0, 1], with lo, gap and scale the map of the
    digits read; a gap of 0 makes lo/scale exact.  Once the |weights| read
    multiply to 10^-14 (in floats) both ends are rounded to ``PRINTED_PLACES``
    places, half to even, and a cut returns that rounding once they agree.
    A miss tightens the trigger by 10^-12; a second miss, g within 10^-26 of
    a tie, returns the even one of the two roundings, one unit apart, which
    is exact when g is the tie.  The cut spares long periods (0.123456789012
    in base 3 has one of 195,312,500 digits).  An x outside [0, 1] raises
    ValueError ``x must lie in [0, 1]``.
    """
    x = _rational(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    w, order = f.weights, f.seq.prefix
    if x == 1:
        return _periodic(w, order, [], [w.q - 1]), None
    absp = w.p_abs
    num, den = x.numerator, x.denominator
    seen: dict[int, int] = {}
    digits: list[int] = []
    prod, trigger = 1.0, 10.0 ** -(PRINTED_PLACES + 2)
    while num and num not in seen:
        if prod <= trigger and len(digits) >= len(order):
            lo, gap, scale = _word(w, _read(order, digits))
            if not gap:
                return Fraction(lo, scale), None
            value, high = (_rounded(n, scale) for n in (lo, lo + gap))
            trigger *= 10.0**-PRINTED_PLACES
            if value == high or trigger < 10.0 ** -(3 * PRINTED_PLACES):
                return Fraction(high if value & 1 else value, _UNIT), len(digits)
        seen[num] = len(digits)
        d, num = divmod(num * w.q, den)
        digits.append(d)
        prod *= absp[d]
    # the digits repeat from ``start`` on (a zero remainder at once)
    start = seen.get(num, len(digits))
    return _periodic(w, order, digits[:start], digits[start:] or [0]), None


def first_terms(f: SalemFunction, e: DigitExpansion, count: int) -> list[Fraction]:
    """The leading ``count`` series terms, for inspection."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_base(f, e)
    w = f.weights
    terms = []
    prod = Fraction(1)
    for k in range(1, count + 1):
        d = e.digit_at(f.seq.n_at(k))
        terms.append(w.beta[d] * prod)
        prod *= w.p[d]
    return terms


def chain_expansion(f: SalemFunction, e: DigitExpansion, k: int) -> DigitExpansion:
    """The expansion with the original positions n_1 .. n_k of the first k
    reading steps deleted: ``delete_positions`` of that list, which equals
    single deletions at its ``make_schedule`` steps in order.  Once k reaches
    the prefix's size those positions are 1..k, the k-fold shift."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= f.seq.size:
        return shift_n(e, k)
    return delete_positions(e, f.seq.prefix[:k])


def chain_value(f: SalemFunction, e: DigitExpansion, k: int) -> Fraction:
    """Function value at the k-th chain point.

    The surviving digits are read through the deletion-induced order (for
    the identity order this is a plain evaluation of the shifted point); a
    re-read through the original order would pair the wrong digits with the
    wrong series slots.
    """
    shifted = SalemFunction._make(f.weights, f.seq.induced_after(k))
    return evaluate(shifted, chain_expansion(f, e, k))


def residual(f: SalemFunction, e: DigitExpansion, k: int) -> Fraction:
    """Defect of the k-th peeling identity, zero for a correct evaluator.

    chain_value(k-1) should equal beta_d + p_d * chain_value(k) with d the
    original digit at reading position k.
    """
    d = e.digit_at(f.seq.n_at(k))
    _check_base(f, e)
    w = f.weights
    lhs = chain_value(f, e, k - 1)
    rhs = w.beta[d] + w.p[d] * chain_value(f, e, k)
    return abs(lhs - rhs)


def increment_product(f: SalemFunction, values: Sequence[int]) -> Fraction:
    """Image increment over the set fixing the first r read digits: prod p."""
    if not values:
        raise ValueError("need at least one constrained digit")
    w = f.weights
    for c in values:
        if not 0 <= c < w.q:
            raise ValueError(f"digit {_quote_int(c)} outside alphabet 0..{w.q - 1}")
    _, a, s = _word(w, values)
    return Fraction(a, s)


def increment_via_evaluate(f: SalemFunction, values: Sequence[int]) -> Fraction:
    """g(sup) - g(inf) over the set whose digits at the first r reading
    positions n_1..n_r are ``values``, by direct evaluation: the free
    positions take 0 in the inf and q-1 in the sup."""
    if not values:
        raise ValueError("need at least one constrained digit")
    q = f.weights.q
    positions = f.seq._steps(len(values))
    lo = [0] * max(positions)
    hi = [q - 1] * len(lo)
    for pos, c in zip(positions, values):
        lo[pos - 1] = hi[pos - 1] = c
    base = BaseSpec.constant(q)
    inf = DigitExpansion(base, tuple(lo), Tail.ZEROS)
    sup = DigitExpansion(base, tuple(hi), Tail.MAX)
    return evaluate(f, sup) - evaluate(f, inf)


def cylinder_increment(f: SalemFunction, c: Cylinder) -> Fraction:
    """g(sup) - g(inf) over a plain cylinder.

    Reduces to :func:`increment_product` when the reading order is the
    identity; for rearranged orders the sign can be either way.
    """
    lo = DigitExpansion(c.base, c.word, Tail.ZEROS)
    hi = DigitExpansion(c.base, c.word, Tail.MAX)
    return evaluate(f, hi) - evaluate(f, lo)


def integral_closed_form(f: SalemFunction) -> Fraction:
    """Lebesgue integral over [0, 1]: (sum of cumulative sums) / (q - 1)."""
    w = f.weights
    return Fraction(sum(w.beta), w.q - 1)


class Monotonicity:
    """Verdicts for the monotonicity classifier."""

    STRICTLY_INCREASING = "strictly_increasing"
    CONSTANT_AE = "constant_ae"
    NO_MONOTONICITY_INTERVALS = "no_monotonicity_intervals"
    HAS_MONOTONICITY_INTERVAL = "has_monotonicity_interval"


def classify_monotonicity(f: SalemFunction) -> str:
    """Monotonicity verdict from the weights and the reading order.

    A zero weight kills every increment over sets fixing that digit, so the
    function is constant almost everywhere.  A negative weight (with a
    finite-rearrangement order, whose tail is the identity) flips increment
    signs densely: no monotonicity intervals; the single stated negative
    case extends to several negatives with the same verdict.  With positive
    weights, the identity order is strictly increasing and a finite
    rearrangement still owns monotone cylinders beyond the rearranged block.
    An order agreeing with the identity only finitely often cannot be a
    finite rearrangement, so that branch is unreachable here.
    """
    w = f.weights
    if any(v == 0 for v in w.p):
        return Monotonicity.CONSTANT_AE
    if any(v < 0 for v in w.p):
        return Monotonicity.NO_MONOTONICITY_INTERVALS
    if f.seq.is_identity:
        return Monotonicity.STRICTLY_INCREASING
    return Monotonicity.HAS_MONOTONICITY_INTERVAL


class ContinuityResult(_Record):
    """Either continuous, or a jump of the stated size."""

    __slots__ = ("jump",)
    jump: Fraction | None

    def __init__(self, jump: Fraction | None = None) -> None:
        self._set(jump)

    @property
    def is_continuous(self) -> bool:
        return self.jump is None


def continuity_at(f: SalemFunction, e: DigitExpansion) -> ContinuityResult:
    """Continuity at a point with two expansions (last nonzero digit at m).

    Continuous exactly when the first m reading steps are a permutation of
    1..m ending in m: the order exhausts positions 1..m before ever reaching
    past m, finishing on m itself.  Otherwise the jump is the zeros form's
    value less the max form's; the dual of e holds its m significant digits.
    """
    _check_base(f, e)
    other = dual_representation(e)
    if other is None:
        raise ValueError(f"{0 if e.tail is Tail.ZEROS else 1} has a unique expansion")
    # past the order's prefix the steps are the identity, so they end on m
    m, order = len(other.prefix), f.seq.prefix
    if m > len(order) or order[m - 1] == m == max(order[:m]):
        return ContinuityResult(None)
    jump = evaluate(f, e) - evaluate(f, other)
    return ContinuityResult(jump if e.tail is Tail.ZEROS else -jump)


def distribution_function(d: DistributionSpec, x: Fraction | int | str) -> Fraction:
    """CDF of a random number whose base-q digits are drawn independently,
    digit value i with probability p_i.

    Reassigning which draw lands in which position (the reading order) does
    not change the law, so the spec holds no order and the CDF pairs the k-th
    series slot with the k-th digit of x.  The value is
    :func:`value_at`'s: exact when the digits of x repeat before its series
    is cut, and the 12-place rounding of the exact value otherwise.
    """
    x = _rational(x)
    if x < 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    return value_at(SalemFunction(d.weights), x)[0]


# --- textual function specs ----------------------------------------------
#
#   q=2; p=0.3,0.7
#   q=2; p=3/10,7/10; seq=perm(2 1)
#
# ``seq`` omitted means the identity reading order; each key is set at most once.


def parse_function_spec(text: str) -> SalemFunction:
    q: int | None = None
    p: list[Fraction] | None = None
    seq = IndexSequence()
    seen: set[str] = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ValueError(f"missing value in spec fragment {quote_token(part)}")
        if key in seen:
            raise ValueError(f"spec key {key} set twice")
        seen.add(key)
        if key == "q":
            q = _read_token(int, value, "spec key q must be an integer, got {}")
        elif key == "p":
            tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
            p = [parse_rational(tok, "p entry {} is not a rational") for tok in tokens]
        elif key == "seq":
            if not (value.startswith("perm(") and value.endswith(")")):
                raise ValueError(f"seq must look like perm(2 1), got {quote_token(value)}")
            tokens = value[5:-1].split()
            entries = [_read_token(int, tok, "seq entry {} must be an integer") for tok in tokens]
            seq = IndexSequence(tuple(entries))
        else:
            raise ValueError(f"unknown spec key {quote_token(key)}")
    if q is None or p is None:
        raise ValueError("function spec needs both q= and p=")
    return SalemFunction(WeightSet(q, tuple(p)), seq)


def format_function_spec(f: SalemFunction) -> str:
    parts = [f"q={f.weights.q}", "p=" + ",".join(str(v) for v in f.weights.p)]
    if not f.seq.is_identity:
        parts.append("seq=perm(" + " ".join(str(n) for n in f.seq.prefix) + ")")
    return "; ".join(parts)
