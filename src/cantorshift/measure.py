"""Exact Lebesgue measures for sublevel sets of shift compositions.

Iterated and generalized shifts over a constant base q delete digit
positions, so any finite composition of them deletes a set D of original
positions.  With M = max D and L = |D| it is affine on each rank-M cylinder:
on the j-th it is z -> q^L z + (s_j - j) / q^(M-L), where s_j is the integer
formed by the digits of j that survive; ``_kept_digits`` lists s_j.  The
builders emit these q^M exact rational branches in one pass from D.
``compose`` is a general map operation that the builders do not use; it
pairs each source branch only with the target branches its image meets,
found by bisection.

The set {z : map(z) < x} is a disjoint union of one piece per branch, so its
measure is the sum of the piece lengths; ``sublevel_measure`` adds them up
in an integer kernel, and the measure of {z : A(z) < B(z)} is the same sum
for the affine difference A - B on a common refinement.  ``sublevel_set``
returns the pieces themselves, in order; it is the set form of the same
computation and the reference the kernel is tested against.  ``gk_scan``
builds no map for a threshold set: with K = M - L the map is (s_j + t) / q^K
on the points (j + t) / q^M of cylinder j, so the piece there is the whole
cylinder when s_j < floor(x q^K), the fraction x q^K - s_j of it when s_j is
that floor, and empty otherwise.  One integer pass over the q^M cylinders
counts them by s_j, and each row reads two prefix counts.  A seeded
digit-sampling Monte Carlo estimator, which reads each sample's digits from
one integer draw as whole-integer runs and windows, provides an independent
stochastic cross-check.  Each draw is ``getrandbits`` of the range's bit
length, drawn again while out of range, the rule ``randrange`` follows on
Python 3.10-3.13, so seeded streams match a ``randrange`` loop.  A threshold
sample compares the integer its surviving digits form once with
floor(x * q^(M - L + 16)); only the one that holds x * q^(M - L + 16) reads
further digits.  A q = 2 draw of at most 32 bits is decided a round of
32-bit words at a time, in the bit fields of one big integer, with the same
stream; see ``monte_carlo_measure``.

The builders check q^M against the budget, and the sampler its draw against
``_MAX_DRAW`` digits, before they list, build or draw anything.  ``gk_scan``
decides once per set, from its closed-form depth M alone, whether its rows
are exact, sampled or refused: nothing is listed, counted, raised to a power
past the budget's bit length, or drawn before it decides.

All interval endpoints are rationals; intervals are half-open [a, b), so
single boundary points (the dual representations of the same number) never
affect a measure.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate

from . import shifts as sh
from .expansions import _rational, _Record

__all__ = [
    "BudgetExceededError",
    "Branch",
    "PiecewiseLinearMap",
    "FamilyKind",
    "SetFamilySpec",
    "MonteCarloResult",
    "ScanRow",
    "plm_single_deletion",
    "plm_iter_shift",
    "plm_generalized_chain",
    "sublevel_set",
    "sublevel_measure",
    "comparison_measure",
    "monte_carlo_measure",
    "gk_scan",
    "rows_to_csv",
    "DEFAULT_BRANCH_BUDGET",
    "DEFAULT_ITER_LIMIT",
    "DEFAULT_SAMPLES",
]

DEFAULT_BRANCH_BUDGET = 10**6
DEFAULT_ITER_LIMIT = 8
DEFAULT_SAMPLES = 10**5

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_GUARD = 16  # digits a draw reads past the last deleted position, and a comparison window's width
_MAX_DRAW = 10**5 + _GUARD  # the most digits one Monte Carlo sample may draw
# the sampling time model charges every draw as a draw-at-a-time sample; a
# binary draw, decided a round at a time, costs less, and the model is kept
# unchanged so that every refusal line stays the same
_SAMPLE_COST = 300  # a sample's cost past its digits, in drawn bits: about 0.3 us at about 1 ns a bit
_MAX_SAMPLING = 5 * 10**10  # the most bits one scan or estimate may draw, costs included: about a minute
_WORD = 32  # bits in one output word of the Mersenne Twister
_ROUND_WORDS = 4096  # the most words one round of binary Monte Carlo draws: 2^17 bits
_MAX_ROWS = 10**6  # the most rows one scan may hold: at the bound, rows and CSV peak near 0.6 GB
# exact work in branch reads, one branch at one threshold: a threshold set is
# charged 7 a cylinder for its pass and one a cylinder a row, a comparison row
# about 14 for each of its q^M branches (about 0.8 us a read when rows read maps)
_BUILD_COST = 7
_COMPARE_COST = 14
_MAX_EXACT = 6 * 10**7  # the most branch reads one scan's exact rows may cost: 60-80 s of comparisons at 14-19 us a branch


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation would exceed the branch budget, Monte Carlo
    sampling would draw over ``_MAX_DRAW`` digits a sample or ``_MAX_SAMPLING`` bits,
    or a scan would hold over ``_MAX_ROWS`` rows or read over ``_MAX_EXACT`` exact branches."""


class Branch(_Record):
    """Affine piece z -> slope * z + intercept on the domain [lo, hi)."""

    __slots__ = ("lo", "hi", "slope", "intercept")
    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __init__(self, lo: Fraction, hi: Fraction, slope: Fraction, intercept: Fraction) -> None:
        self._set(lo, hi, slope, intercept)


class PiecewiseLinearMap:
    """An exact piecewise affine map whose branch domains, given in order, tile [0, 1)."""

    __slots__ = ("branches", "_los")

    def __init__(self, branches: Sequence[Branch]):
        branches = tuple(branches)
        if not branches:
            raise ValueError("a map needs at least one branch")
        if branches[0].lo != 0 or branches[-1].hi != 1:
            raise ValueError("branches must cover [0, 1)")
        for left, right in zip(branches, branches[1:]):
            if left.hi != right.lo:
                raise ValueError("branch domains must tile [0, 1) exactly")
        for br in branches:
            if br.lo >= br.hi:
                raise ValueError("empty branch domain")
        self.branches = branches
        self._los = [br.lo for br in branches]

    def __len__(self) -> int:
        return len(self.branches)

    def apply(self, z: Fraction) -> Fraction:
        z = Fraction(z)
        if not 0 <= z < 1:
            raise ValueError("argument must lie in [0, 1)")
        br = self.branches[bisect_right(self._los, z) - 1]
        return br.slope * z + br.intercept

    def compose(self, then: "PiecewiseLinearMap") -> "PiecewiseLinearMap":
        """The map z -> then(self(z)).

        Supported for nonnegative slopes (shift compositions always have
        positive slopes; constant branches arise only from thresholds).
        Each source branch is paired only with the target branches that its
        image [s*lo + c, s*hi + c) meets, found by bisection, so the cost
        scales with the number of output branches.
        """
        out: list[Branch] = []
        targets, target_los = then.branches, then._los
        for br in self.branches:
            if br.slope < 0:
                raise ValueError("composition with negative slopes is not supported")
            if br.slope == 0:
                value = then.apply(br.intercept)
                out.append(Branch(br.lo, br.hi, Fraction(0), value))
                continue
            first = max(bisect_right(target_los, br.slope * br.lo + br.intercept) - 1, 0)
            stop = bisect_left(target_los, br.slope * br.hi + br.intercept)
            for nxt in targets[first:stop]:
                zlo = max(br.lo, (nxt.lo - br.intercept) / br.slope)
                zhi = min(br.hi, (nxt.hi - br.intercept) / br.slope)
                if zlo < zhi:
                    out.append(
                        Branch(
                            zlo,
                            zhi,
                            br.slope * nxt.slope,
                            nxt.slope * br.intercept + nxt.intercept,
                        )
                    )
        return PiecewiseLinearMap(out)

    def subtract(self, other: "PiecewiseLinearMap") -> "PiecewiseLinearMap":
        """Pointwise difference self - other on the common refinement."""
        mine, theirs = iter(self.branches), iter(other.branches)
        a, b = next(mine), next(theirs)
        lo = a.lo
        out = []
        while True:
            hi = min(a.hi, b.hi)
            out.append(Branch(lo, hi, a.slope - b.slope, a.intercept - b.intercept))
            if hi == 1:
                return PiecewiseLinearMap(out)
            lo = hi
            if a.hi == hi:
                a = next(mine)
            if b.hi == hi:
                b = next(theirs)


def _surviving_runs(q: int, deleted: Sequence[int], top: int) -> list[tuple[int, int]]:
    """(q^(top - last position), q^length) of each run of surviving positions
    before the last deleted one: with u holding the digits of 1..top, folding
    ``block * size + (u // div) % size`` over the runs gives the integer they form."""
    runs = []
    start = 1
    for pos in deleted:
        if pos > start:
            runs.append((q ** (top - pos + 1), q ** (pos - start)))
        start = pos + 1
    return runs


def _budget_refusal(q: int, depth: int, budget: int) -> str | None:
    """Why a map with q^depth branches is not built, or None when they fit the
    budget; the count is written as a power, so it stays short for any depth.
    It is not built from the budget's bit length on: there q^depth >= 2^depth > budget."""
    if depth >= budget.bit_length() or q**depth > budget:
        return f"{q}^{depth} branches exceed budget {budget}"
    return None


def _draw(spec: "SetFamilySpec") -> int:
    """Digits one Monte Carlo sample of ``spec`` draws: M + ``_GUARD``, or |a - b| + ``_GUARD`` for a comparison."""
    return (abs(spec.a - spec.b) if spec.kind is FamilyKind.COMPARE_ITER else spec.depth) + _GUARD


def _draw_refusal(spec: "SetFamilySpec") -> str | None:
    """Why a Monte Carlo sample of ``spec`` is not drawn, or None when its ``_draw`` fits ``_MAX_DRAW``."""
    draw = _draw(spec)
    if draw > _MAX_DRAW:
        return f"a sample would draw {draw} digits, over the limit {_MAX_DRAW}"
    return None


def _bound_sampling(work: Iterable[tuple["SetFamilySpec", int]]) -> None:
    """Refuse n samples of each spec in ``work`` past ``_MAX_SAMPLING`` bits, counting
    (q - 1).bit_length() a drawn digit and ``_SAMPLE_COST`` a sample; no q^draw is built."""
    bits = sum(n * (_draw(spec) * (spec.q - 1).bit_length() + _SAMPLE_COST) for spec, n in work)
    if bits > _MAX_SAMPLING:
        raise BudgetExceededError(f"Monte Carlo sampling would draw {bits} bits, over the limit {_MAX_SAMPLING}")


def _bound_exact(work: Iterable[tuple["SetFamilySpec", int]]) -> None:
    """Refuse the exact rows of each spec in ``work`` past ``_MAX_EXACT`` branch reads:
    a threshold set is charged ``_BUILD_COST`` for each of its q^M cylinders and one
    read a cylinder a row, a comparison ``_COMPARE_COST`` a branch.  Each q^M fits the
    budget.  A threshold row reads two prefix counts, so its charge over-counts the
    work; it stays so that the bound refuses the same scans with the same line."""
    cost = 0
    for spec, rows in work:
        each = _COMPARE_COST if spec.kind is FamilyKind.COMPARE_ITER else _BUILD_COST + rows
        cost += spec.q**spec.depth * each
    if cost > _MAX_EXACT:
        raise BudgetExceededError(f"the exact rows would cost {cost} branch reads, over the limit {_MAX_EXACT}")


def _kept_digits(q: int, deleted: Sequence[int], top: int) -> Iterator[int]:
    """s_j for j = 0 .. q^top - 1 in order: the integer that the digits of j at
    the positions 1..top outside ``deleted`` form, ``deleted`` ending at top."""
    runs = _surviving_runs(q, deleted, top)
    for j in range(q**top):
        kept = 0
        for div, size in runs:
            kept = kept * size + (j // div) % size
        yield kept


def _plm_deleting(spec: "SetFamilySpec", budget: int) -> PiecewiseLinearMap:
    """The map deleting the original positions D of ``spec``, listed once q^M fits the budget:
    z -> q^L z + (s_j - j) / q^(M-L) on the j-th rank-M cylinder; see the module docstring."""
    q, top = spec.q, spec.depth
    refusal = _budget_refusal(q, top, budget)
    if refusal is not None:
        raise BudgetExceededError(refusal)
    deleted = spec.deleted_positions()
    count = q**top
    slope = Fraction(q ** len(deleted))
    scale = q ** (top - len(deleted))
    out, lo = [], Fraction(0)
    for j, kept in enumerate(_kept_digits(q, deleted, top)):
        hi = Fraction(j + 1, count)
        out.append(Branch(lo, hi, slope, Fraction(kept - j, scale)))
        lo = hi
    return PiecewiseLinearMap(out)


def _cylinders_below(spec: "SetFamilySpec") -> list[int]:
    """below[F] = #{j : s_j < F} for F = 0 .. q^K, K = M - L, over the q^M rank-M
    cylinders of ``spec``'s deletion: one pass counts them by s_j."""
    q, top = spec.q, spec.depth
    deleted = spec.deleted_positions()
    counts = [0] * q ** (top - len(deleted))
    for kept in _kept_digits(q, deleted, top):
        counts[kept] += 1
    return list(accumulate(counts, initial=0))


def _threshold_measure(below: Sequence[int], x: Fraction) -> Fraction:
    """Measure of {z : map(z) < x} from ``_cylinders_below``: with F, r = divmod(x q^K, 1)
    it is (#{s_j < F} + #{s_j = F} * r) / q^M, as the module docstring derives."""
    xn, xd = x.numerator, x.denominator
    if not 0 <= xn <= xd:
        raise ValueError("threshold must lie in [0, 1]")
    whole, part = divmod(xn * (len(below) - 1), xd)
    num = below[whole] * xd
    if part:
        num += (below[whole + 1] - below[whole]) * part
    return Fraction(num, xd * below[-1])


def plm_iter_shift(q: int, n: int, budget: int = DEFAULT_BRANCH_BUDGET) -> PiecewiseLinearMap:
    """The n-fold digit drop (deletion of 1..n): z -> q^n z - j on the j-th rank-n cylinder."""
    return _plm_deleting(SetFamilySpec.iter_shift(q, n), budget)


def plm_single_deletion(q: int, m: int, budget: int = DEFAULT_BRANCH_BUDGET) -> PiecewiseLinearMap:
    """Deletion of digit position m as a map: affine on each rank-m cylinder.

    It is the deletion of {m}; on the cylinder with digits c_1..c_m it is
    z -> q z - (q - 1) * (c_1/q + .. + c_{m-1}/q^{m-1}) - c_m / q^{m-1}.
    """
    return _plm_deleting(SetFamilySpec.gen_chain(q, (m,)), budget)


def plm_generalized_chain(
    q: int,
    indices: Sequence[int],
    budget: int = DEFAULT_BRANCH_BUDGET,
) -> PiecewiseLinearMap:
    """Sequential digit deletions at ``indices`` (first entry applied first).

    The chain removes the original positions ``deleted_positions()`` of its
    ``SetFamilySpec``, so it is built in one pass as that deletion; it has
    q^M branches, M the largest of them.
    """
    return _plm_deleting(SetFamilySpec.gen_chain(q, indices), budget)


def sublevel_set(plm: PiecewiseLinearMap, x) -> tuple[tuple[Fraction, Fraction], ...]:
    """{z : plm(z) < x} as its half-open pieces [lo, hi), one per branch that
    meets the set, in order; they are disjoint because the branch domains tile
    [0, 1) in order.

    ``sublevel_measure`` returns the measure of this set without building it.

    Boundary points where plm(z) = x are measure zero and may fall on either
    side of a half-open endpoint.
    """
    x = _rational(x)
    pairs = []
    for br in plm.branches:
        if br.slope > 0:
            t = (x - br.intercept) / br.slope
            hi = min(br.hi, t)
            if br.lo < hi:
                pairs.append((br.lo, hi))
        elif br.slope == 0:
            if br.intercept < x:
                pairs.append((br.lo, br.hi))
        else:
            t = (x - br.intercept) / br.slope
            lo = max(br.lo, t)
            if lo < br.hi:
                pairs.append((lo, br.hi))
    return tuple(pairs)


def _sublevel_kernel(branches: Iterable[Branch], x: Fraction) -> Fraction:
    """Measure of {z : plm(z) < x}, summed piece by piece in integers.

    Branch domains are disjoint, so the measure of the union is the sum of
    the piece lengths.  Endpoints are compared by cross-multiplying and the
    pieces are added over a running lcm denominator; one Fraction is built
    at the end.  Slopes may be positive, zero or negative.
    """
    xn, xd = x.numerator, x.denominator
    num, den = 0, 1
    for br in branches:
        ln, ld = br.lo.numerator, br.lo.denominator
        hn, hd = br.hi.numerator, br.hi.denominator
        sn, sd = br.slope.numerator, br.slope.denominator
        cn, cd = br.intercept.numerator, br.intercept.denominator
        if sn == 0:
            if cn * xd >= xn * cd:
                continue
        else:
            # the crossing point t = (x - c) / s, with a positive denominator
            tn = (xn * cd - cn * xd) * sd
            td = xd * cd * sn
            if sn > 0:
                # piece [lo, min(hi, t))
                if tn * hd < hn * td:
                    if tn * ld <= ln * td:
                        continue
                    hn, hd = tn, td
            else:
                # piece [max(lo, t), hi)
                tn, td = -tn, -td
                if tn * ld > ln * td:
                    if tn * hd >= hn * td:
                        continue
                    ln, ld = tn, td
        if hd == ld:
            pn, pd = hn - ln, ld
        else:
            pn, pd = hn * ld - ln * hd, hd * ld
        if den % pd:
            scale = pd // math.gcd(den, pd)
            num *= scale
            den *= scale
        num += pn * (den // pd)
    return Fraction(num, den)


def sublevel_measure(plm: PiecewiseLinearMap, x) -> Fraction:
    x = _rational(x)
    if not 0 <= x <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    return _sublevel_kernel(plm.branches, x)


def comparison_measure(a: PiecewiseLinearMap, b: PiecewiseLinearMap) -> Fraction:
    """Exact measure of {z : a(z) < b(z)}."""
    return _sublevel_kernel(a.subtract(b).branches, Fraction(0))


# --- set families ---------------------------------------------------------


class FamilyKind(Enum):
    ITER_SHIFT = "itershift"
    GEN_CHAIN = "genchain"
    SCHEDULE_CHAIN = "schedulechain"
    COMPARE_ITER = "compareiter"


class SetFamilySpec(_Record):
    """One concrete shift-composition set, {z : op(z) < x} or {z : A(z) < B(z)}."""

    __slots__ = ("kind", "q", "n", "indices", "a", "b")
    kind: FamilyKind
    q: int
    n: int
    indices: tuple[int, ...]
    a: int
    b: int

    def __init__(
        self, kind: FamilyKind, q: int, n: int = 0, indices: tuple[int, ...] = (), a: int = 0, b: int = 0
    ) -> None:
        if q < 2:
            raise ValueError("q must be >= 2")
        if kind is FamilyKind.ITER_SHIFT and n < 1:
            raise ValueError("iterate count must be >= 1")
        if kind in (FamilyKind.GEN_CHAIN, FamilyKind.SCHEDULE_CHAIN):
            if not indices or any(i < 1 for i in indices):
                raise ValueError("chain indices must be >= 1 and nonempty")
        if kind is FamilyKind.COMPARE_ITER and (a < 1 or b < 1):
            raise ValueError("compared iterates must be >= 1")
        self._set(kind, q, n, indices, a, b)

    @classmethod
    def iter_shift(cls, q: int, n: int) -> "SetFamilySpec":
        return cls(FamilyKind.ITER_SHIFT, q, n=n)

    @classmethod
    def gen_chain(cls, q: int, indices: Sequence[int]) -> "SetFamilySpec":
        return cls(FamilyKind.GEN_CHAIN, q, indices=tuple(indices))

    @classmethod
    def compare_iter(cls, q: int, a: int, b: int) -> "SetFamilySpec":
        return cls(FamilyKind.COMPARE_ITER, q, a=a, b=b)

    @property
    def param(self) -> str:
        if self.kind is FamilyKind.ITER_SHIFT:
            return str(self.n)
        if self.kind is FamilyKind.COMPARE_ITER:
            return f"{self.a}:{self.b}"
        return str(len(self.indices))

    @property
    def depth(self) -> int:
        """M, the largest original digit position the composition deletes: n
        for the n-fold drop, max(a, b) for a comparison (the positions of its
        deeper iterate) and max(s_i + i - 1) over a chain's 1-based steps s_i,
        since an earlier deletion moves a step at most one place.  The exact
        map is affine on every rank-M cylinder and has q^M branches."""
        if self.kind is FamilyKind.ITER_SHIFT:
            return self.n
        if self.kind is FamilyKind.COMPARE_ITER:
            return max(self.a, self.b)
        return max(s + i for i, s in enumerate(self.indices))

    def deleted_positions(self) -> list[int]:
        """Original digit positions the composition deletes, in increasing
        order: 1..M for the iterates, one surviving position per index for a chain."""
        if self.kind in (FamilyKind.ITER_SHIFT, FamilyKind.COMPARE_ITER):
            return list(range(1, self.depth + 1))
        return sorted(sh.original_positions(self.indices))


class MonteCarloResult(_Record):
    __slots__ = ("estimate", "halfwidth", "samples", "hits", "indeterminate")
    estimate: float
    halfwidth: float
    samples: int
    hits: int
    indeterminate: int

    def __init__(self, estimate: float, halfwidth: float, samples: int, hits: int, indeterminate: int) -> None:
        self._set(estimate, halfwidth, samples, hits, indeterminate)


def _halfwidth(hits: int, samples: int) -> float:
    phat = hits / samples
    return _Z99 * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples)


def _refine_block(rng: random.Random, q: int, block: int, depth: int, xn: int, xd: int) -> bool | None:
    """A threshold sample whose block of ``depth`` digits holds x = xn / xd * q^depth:
    one fresh digit a round narrows [block, block + 1) / q^depth until it lies
    below x (True, a hit) or not below it (False), or None past 128 digits."""
    scale = q**depth
    while depth < 128:
        block = block * q + rng.randrange(q)
        scale *= q
        depth += 1
        if (block + 1) * xd <= xn * scale:
            return True
        if block * xd >= xn * scale:
            return False
    return None


def _refine_windows(rng: random.Random, u: int, lag: int, window: int) -> bool | None:
    """A comparison draw u whose two windows tie: each round keeps the last
    |a - b| digits and appends ``_GUARD`` fresh ones, up to 256 compared digits.
    Whether the shallow window ends below the deep one, or None if every round ties."""
    for _ in range(256 // _GUARD - 1):
        u = u % lag * window + rng.randrange(window)
        shallow, deep = u // lag, u % window
        if shallow != deep:
            return shallow < deep
    return None


def _binary_counts(
    rng: random.Random,
    samples: int,
    fields: Callable[[int], Callable[[int], tuple[int, int]]],
    settle: Callable[[int], bool | None] | None,
) -> tuple[int, int]:
    """(hits, indeterminate) of ``samples`` draws of ``bits`` <= 32 bits each,
    decided a round of 32-bit words at a time; the stream is that of a
    ``getrandbits(bits)`` loop that draws again while the top bit is set.

    ``getrandbits(32 n)`` returns the n words that n calls of
    ``getrandbits(bits)`` would read, the first least significant, each draw
    the top ``bits`` bits of its word, so bit 31 of a slot is its rejection
    bit.  ``fields(ones)``, given 1 in each slot, returns the reader of a
    round: two integers that hold in each slot's bits 0-30 the two values a
    sample compares, a hit when the first is below the second.  Guard-bit
    subtraction compares every slot at once and ``int.bit_count`` counts
    them.  A round draws one word for each sample still to decide, at most
    ``_ROUND_WORDS``.  A tie, where the two values are equal, is finished by
    ``settle`` from its word, and it may draw: the state saved at the start or
    after the last tie is restored, the words up to the tied one are drawn
    again, and ``settle`` reads on from there, as the one-draw-at-a-time loop does.
    Without ``settle`` equal values are a miss.
    """
    hits = indet = 0
    state, words = rng.getstate(), 0  # words drawn since ``state``
    n = 0
    while samples:
        if n != min(samples, _ROUND_WORDS):
            n = min(samples, _ROUND_WORDS)
            ones = int.from_bytes(b"\1\0\0\0" * n, "little")
            high = ones << 31
            read = fields(ones)
        draw = rng.getrandbits(_WORD * n)
        first, second = read(draw)
        accepted = high ^ (draw & high)
        at_least = (first | high) - second  # bit 31 set where first >= second
        below = accepted & ~at_least
        tied = accepted & (at_least ^ (at_least - ones)) & high if settle else 0
        if tied:
            tie = tied & -tied  # bit 31 of the first tied slot
            slot = tie.bit_length() // _WORD - 1
            accepted &= tie - 1
            below &= tie - 1
        hits += below.bit_count()
        samples -= accepted.bit_count()
        if not tied:
            words += n
            continue
        rng.setstate(state)
        words += slot + 1
        while words:
            rng.getrandbits(_WORD * min(words, _ROUND_WORDS))
            words -= min(words, _ROUND_WORDS)
        outcome = settle(draw >> _WORD * slot & 0xFFFFFFFF)
        hits += outcome is True
        indet += outcome is None
        samples -= 1
        state = rng.getstate()
    return hits, indet


def monte_carlo_measure(
    spec: SetFamilySpec,
    x,
    samples: int,
    seed: int,
) -> MonteCarloResult:
    """Seeded uniform digit-sampling estimate of the set's measure.

    Digits of z are drawn uniformly.  Each draw u from [0, span) is
    ``getrandbits(span.bit_length())``, drawn again while it is out of range:
    the rule ``randrange(span)`` follows on Python 3.10-3.13, so a seed gives
    the same stream as a ``randrange`` loop.  For a threshold family one draw
    from span = q^top holds the digits at positions 1..top, where top is the
    last deleted position plus ``_GUARD``.  The surviving digits are read
    from u as whole runs between the deleted positions; the integer they
    form, the block, brackets the composed value.  The first round compares
    the block once with floor(x * q^(top - L)), L the number of deleted
    positions: below it is a hit, above it a miss.  Only the block that holds
    x * q^(top - L) itself reads further digits, one per round, until the
    comparison decides or the depth cap marks the sample indeterminate.  A
    comparison draws positions min(a, b) + 1 .. max(a, b) + ``_GUARD`` and
    compares the iterates' top and bottom ``_GUARD``-digit windows as
    integers; a tie keeps the last |a - b| digits and appends ``_GUARD``
    fresh ones, up to 256 compared digits.  Deterministic for a fixed seed;
    indeterminate samples are counted separately.  A draw past ``_MAX_DRAW``
    digits, or ``_MAX_SAMPLING`` bits in all, is refused before anything is drawn.

    A binary draw, q = 2 with span.bit_length() <= 32 (M <= 15 for a threshold
    family, 1 <= |a - b| <= 15 for a comparison), fits one 32-bit word and is
    decided a round of words at a time by ``_binary_counts``: one
    ``getrandbits(32 n)`` holds the words that n draws would read, the first
    least significant, each draw the top bits of its word; a draw is accepted
    when its top bit is clear, as ``randrange`` accepts it.  A tie restores
    the generator's state saved at the start or after the last tie, draws the
    words up to the tied sample again, and refines that sample as below, so
    the stream is the same.  Every other draw (q != 2 or over 32 bits) is
    read one at a time.  For a = b the two windows read the same digits, so
    every sample ties through every round: the result, 0 hits and every
    sample indeterminate, is returned without drawing.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    too_deep = _draw_refusal(spec)
    if too_deep is not None:
        raise BudgetExceededError(too_deep)
    _bound_sampling([(spec, samples)])
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    q = spec.q

    if spec.kind is FamilyKind.COMPARE_ITER:
        k = abs(spec.a - spec.b)
        if not k:
            return MonteCarloResult(0.0, 0.0, samples, 0, samples)
        lag, window, a_leads = q**k, q**_GUARD, spec.a < spec.b
        span = lag * window
        bits = span.bit_length()
        if q == 2 and bits <= _WORD:
            # the draw fills word bits 32 - bits .. 30: the shallow window is
            # bits 15..30, the deep one bits 15 - k .. 30 - k
            def fields(ones: int) -> Callable[[int], tuple[int, int]]:
                windows = (0xFFFF << 15) * ones
                if a_leads:
                    return lambda draw: (draw & windows, draw << k & windows)
                return lambda draw: (draw << k & windows, draw & windows)

            def settle(word: int) -> bool | None:
                below = _refine_windows(rng, word >> (_WORD - bits), lag, window)
                return None if below is None else below == a_leads

            hits, indet = _binary_counts(rng, samples, fields, settle)
            return MonteCarloResult(hits / samples, _halfwidth(hits, samples), samples, hits, indet)
        hits = indet = 0
        for _ in range(samples):
            # randrange(span) on Python 3.10-3.13, without its wrapper
            u = getrandbits(bits)
            while u >= span:
                u = getrandbits(bits)
            shallow, deep = u // lag, u % window
            if shallow == deep:
                below = _refine_windows(rng, u, lag, window)
                if below is None:
                    indet += 1
                    continue
            else:
                below = shallow < deep
            hits += below == a_leads
        return MonteCarloResult(hits / samples, _halfwidth(hits, samples), samples, hits, indet)

    x = _rational(x)
    if not 0 <= x <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    xn, xd = x.numerator, x.denominator
    deleted = spec.deleted_positions()
    # the draw reaches past the last deletion so that every later
    # refinement digit belongs to a surviving position
    top = deleted[-1] + _GUARD
    span, q_tail = q**top, q**_GUARD
    bits = span.bit_length()
    runs = _surviving_runs(q, deleted, top)
    block_len = top - len(deleted)
    # a block below x * q^block_len is a hit and one above it a miss; only the
    # block floor(x * q^block_len), when x * q^block_len is not an integer, reads on
    below, rest = divmod(xn * q**block_len, xd)
    if q == 2 and bits <= _WORD:
        # digit p of the draw is word bit 31 - p, so the surviving digits keep
        # their order with the deleted ones cleared, and floor(x * 2^block_len)
        # is spread over the same bits; 2^block_len itself (x = 1) over bit 31
        places = [31 - p for p in range(top, 0, -1) if p not in deleted] + [31]
        kept = sum(1 << place for place in places[:-1])
        target = sum(1 << place for i, place in enumerate(places) if below >> i & 1)

        def fields(ones: int) -> Callable[[int], tuple[int, int]]:
            mask, spread = kept * ones, target * ones
            return lambda draw: (draw & mask, spread)

        def settle(_word: int) -> bool | None:
            return _refine_block(rng, q, below, block_len, xn, xd)

        hits, indet = _binary_counts(rng, samples, fields, settle if rest else None)
        return MonteCarloResult(hits / samples, _halfwidth(hits, samples), samples, hits, indet)
    hits = indet = 0
    for _ in range(samples):
        # randrange(span) on Python 3.10-3.13, without its wrapper
        u = getrandbits(bits)
        while u >= span:
            u = getrandbits(bits)
        block = 0
        for div, size in runs:
            block = block * size + (u // div) % size
        block = block * q_tail + u % q_tail
        if block < below:
            hits += 1
        elif block == below and rest:
            outcome = _refine_block(rng, q, block, block_len, xn, xd)
            hits += outcome is True
            indet += outcome is None
    return MonteCarloResult(hits / samples, _halfwidth(hits, samples), samples, hits, indet)


# --- experiment tables ------------------------------------------------------


class ScanRow(_Record):
    __slots__ = ("family", "param", "x", "measure", "method", "samples", "halfwidth", "indeterminate")
    family: str
    param: str
    x: Fraction | None
    measure: Fraction
    method: str
    samples: int
    halfwidth: float
    indeterminate: int

    def __init__(
        self,
        family: str,
        param: str,
        x: Fraction | None,
        measure: Fraction,
        method: str,
        samples: int = 0,
        halfwidth: float = 0.0,
        indeterminate: int = 0,
    ) -> None:
        self._set(family, param, x, measure, method, samples, halfwidth, indeterminate)


def gk_scan(
    specs: Sequence[SetFamilySpec],
    x_grid: Sequence[Fraction],
    budget: int = DEFAULT_BRANCH_BUDGET,
    iter_limit: int = DEFAULT_ITER_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    allow_fallback: bool = True,
    log: Callable[[str], None] | None = None,
) -> list[ScanRow]:
    """Measure table over a family of shift-composition sets.

    Every set is decided from its ``depth`` M before any cylinder is counted,
    map built or row drawn or logged: its rows are exact when q^M fits the
    budget and, for itershift and compareiter, M is at most ``iter_limit``.
    An exact threshold set makes one integer pass over its q^M rank-M
    cylinders, counting them by s_j (see the module docstring), and each of
    its rows reads two of those counts; an exact comparison row is
    ``comparison_measure`` of the two iterates' maps.  Otherwise rows
    fall back to Monte Carlo, with per-row seeds ``seed + counter`` that keep
    the output deterministic.  BudgetExceededError names the first set with
    fallback off or a sample past ``_MAX_DRAW`` digits, or else all sampled
    rows past ``_MAX_SAMPLING`` bits, or else all rows past ``_MAX_ROWS``, or else
    the exact rows past ``_MAX_EXACT`` branch reads.
    ``budget`` and ``iter_limit`` must be >= 1, and ``seed`` >= 0:
    Random(-s) draws the stream of Random(s).
    Threshold families emit one row per grid value; comparison families emit
    one row with empty threshold columns.  No limits are extrapolated.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if iter_limit < 1:
        raise ValueError("iter_limit must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    plan = []
    for spec in specs:
        if spec.kind in (FamilyKind.ITER_SHIFT, FamilyKind.COMPARE_ITER) and spec.depth > iter_limit:
            refusal = f"iterate count {spec.depth} over limit {iter_limit}"
        else:
            refusal = _budget_refusal(spec.q, spec.depth, budget)
        if refusal is not None:
            if not allow_fallback:
                raise BudgetExceededError(refusal)
            too_deep = _draw_refusal(spec)
            if too_deep is not None:
                raise BudgetExceededError(f"{refusal}; {too_deep}")
        plan.append((spec, refusal, 1 if spec.kind is FamilyKind.COMPARE_ITER else len(x_grid)))
    _bound_sampling((spec, samples * n) for spec, refusal, n in plan if refusal)
    count = sum(n for _, _, n in plan)
    if count > _MAX_ROWS:
        raise BudgetExceededError(f"the scan would hold {count} rows, over the limit {_MAX_ROWS}")
    _bound_exact((spec, n) for spec, refusal, n in plan if refusal is None)
    rows: list[ScanRow] = []
    counter = 0
    for spec, refusal, _ in plan:
        family, param, q = spec.kind.value, spec.param, spec.q
        if refusal is not None:
            if log:
                log(f"{family} {param}: {refusal}, Monte Carlo fallback")
        elif spec.kind is FamilyKind.COMPARE_ITER:
            value = comparison_measure(plm_iter_shift(q, spec.a, budget), plm_iter_shift(q, spec.b, budget))
        else:
            below = _cylinders_below(spec)
        grid = [None] if spec.kind is FamilyKind.COMPARE_ITER else [_rational(x) for x in x_grid]
        for x in grid:
            counter += 1
            if refusal is None:
                measure = value if x is None else _threshold_measure(below, x)
                rows.append(ScanRow(family, param, x, measure, "exact"))
                continue
            mc = monte_carlo_measure(spec, Fraction(0) if x is None else x, samples, seed + counter)
            rows.append(
                ScanRow(
                    family,
                    param,
                    x,
                    Fraction(mc.hits, mc.samples),
                    "mc",
                    mc.samples,
                    mc.halfwidth,
                    mc.indeterminate,
                )
            )
    return rows


CSV_HEADER = "family,param,x_num,x_den,measure_num,measure_den,method,samples,halfwidth"


def rows_to_csv(rows: Sequence[ScanRow]) -> str:
    """Render scan rows in the fixed CSV schema (exact rows leave the
    sampling columns empty)."""
    lines = [CSV_HEADER]
    for row in rows:
        x_num = str(row.x.numerator) if row.x is not None else ""
        x_den = str(row.x.denominator) if row.x is not None else ""
        if row.method == "exact":
            samples = ""
            halfwidth = ""
        else:
            samples = str(row.samples)
            halfwidth = f"{row.halfwidth:.6g}"
        lines.append(
            ",".join(
                [
                    row.family,
                    row.param,
                    x_num,
                    x_den,
                    str(row.measure.numerator),
                    str(row.measure.denominator),
                    row.method,
                    samples,
                    halfwidth,
                ]
            )
        )
    return "\n".join(lines) + "\n"
