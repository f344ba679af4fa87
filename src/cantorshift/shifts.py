"""Shift operators on digit expansions.

The plain shift ``shift_n(e, 1)`` drops the first digit (and first base
entry).  The generalized shift deletes the digit and base entry at an
arbitrary position m; on each rank-m cylinder it acts as the affine map

    x  ->  H(m-1) + q_m * (x - H(m))

where H(k) is the partial sum over the first k digits: digits 1..m-1 stay,
and every later digit moves up one slot, which multiplies its weight by q_m.
A composition of deletions is the set of original positions it removes:
``delete_positions`` takes them and builds the result in one pass, keeping
the digits and base entries at every other position.  Deleting original
positions n_1, .., n_k in that order one at a time instead takes the
re-indexed single-deletion steps n_i - (number of earlier n_j below n_i),
which ``make_schedule`` returns.

An alternating-series reading of the same digit data (position k weighted by
(-1)^k) is supported for the value and single-deletion formula, where the
moved digits also change sign: x -> A(m-1) - q_m * (x - A(m)).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from typing import Sequence

from .expansions import BaseSpec, DigitExpansion, Tail, _bases, value_of

__all__ = [
    "prefix_sum",
    "shift_n",
    "generalized_shift",
    "generalized_shift_value",
    "compose_two",
    "make_schedule",
    "original_positions",
    "delete_positions",
    "alternating_value",
    "alternating_shift_value",
]


def _head(e: DigitExpansion, n: int) -> DigitExpansion:
    """Digits 1..n of e over a zeros tail; only a max tail lists digits past the stored ones."""
    digits = e.prefix[:n]
    if e.tail is Tail.MAX:
        digits += tuple(q - 1 for q in _bases(e.base, n)[len(digits) :])
    return DigitExpansion(e.base, digits)


def prefix_sum(e: DigitExpansion, n: int) -> Fraction:
    """Partial value over the first n digit positions (tail digits included):
    a zeros tail reads only the stored digits, a max tail lists n digits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return value_of(_head(e, n))


def shift_n(e: DigitExpansion, n: int) -> DigitExpansion:
    """n-fold shift, dropping the first n digits and base entries at once; n = 0 is the identity.

    Satisfies value_of(e) == prefix_sum(e, n) + value_of(shift_n(e, n)) / block(n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return DigitExpansion(BaseSpec(e.base.prefix[n:], e.base.tail_value), e.prefix[n:], e.tail)


def generalized_shift(e: DigitExpansion, m: int) -> DigitExpansion:
    """Delete the digit at position m, and the base entry at position m:
    :func:`delete_positions` of the single position m.

    Beyond the stored prefix the deletion removes a symbolic tail digit,
    which leaves zeros tails untouched and keeps max tails aligned with the
    shortened base sequence.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return delete_positions(e, (m,))


def generalized_shift_value(e: DigitExpansion, m: int) -> Fraction:
    """Value of the position-m deletion, H(m-1) + q_m * (x - H(m)), with
    x = value_of(e) and H = :func:`prefix_sum`.

    Agrees exactly with value_of(generalized_shift(e, m)).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return prefix_sum(e, m - 1) + e.base.base_at(m) * (value_of(e) - prefix_sum(e, m))


def _distinct_positions(positions: Sequence[int]) -> tuple[int, ...]:
    positions = tuple(map(int, positions))
    if positions and min(positions) < 1:
        raise ValueError("positions must be >= 1")
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    return positions


def delete_positions(e: DigitExpansion, positions: Sequence[int]) -> DigitExpansion:
    """Remove the distinct original positions (each >= 1) from the digit
    stream and the base sequence at once.

    One pass keeps the stored digits and base-prefix entries at every other
    position; a position past a prefix removes a symbolic tail entry, which
    leaves the constant stream beyond it unchanged.
    """
    cuts = sorted(_distinct_positions(positions))
    base = e.base
    if cuts and cuts[0] <= len(base.prefix):
        base = BaseSpec(_without(base.prefix, cuts), base.tail_value)
    return DigitExpansion(base, _without(e.prefix, cuts), e.tail)


def _without(seq: tuple[int, ...], cuts: list[int]) -> tuple[int, ...]:
    """``seq`` less its entries at the ascending 1-indexed positions ``cuts``."""
    out: list[int] = []
    start = 0
    for m in cuts:
        out += seq[start : m - 1]
        start = m
    out += seq[start:]
    return tuple(out)


def compose_two(e: DigitExpansion, n1: int, n2: int) -> DigitExpansion:
    """Apply the deletion at n1, then the deletion at n2, in one step.

    The pair of original positions removed is ``original_positions((n1, n2))``;
    the result equals two sequential :func:`generalized_shift` calls.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("positions must be >= 1")
    return delete_positions(e, original_positions((n1, n2)))


def make_schedule(positions: Sequence[int]) -> tuple[int, ...]:
    """The single-deletion steps that remove the distinct original
    ``positions`` in the given order: step i is positions[i] less the number
    of earlier positions below it."""
    gone: list[int] = []  # the earlier positions, sorted
    out = []
    for n in _distinct_positions(positions):
        out.append(n - bisect_left(gone, n))
        insort(gone, n)
    return tuple(out)


def original_positions(steps: Sequence[int]) -> tuple[int, ...]:
    """The original positions that single deletions at ``steps``, in order,
    remove, in the same order; the inverse of :func:`make_schedule`."""
    if any(j < 1 for j in steps):
        raise ValueError("steps must be >= 1")
    gone: list[int] = []  # the positions removed so far, sorted
    out = []
    for j in steps:
        # gone[i] - i ascends, and the r entries with gone[i] - i <= j lie below position j + r
        pos = j + bisect_right(range(len(gone)), j, key=lambda i: gone[i] - i)
        insort(gone, pos)
        out.append(pos)
    return tuple(out)


def alternating_value(e: DigitExpansion) -> Fraction:
    """Value of the digit data read as an alternating series.

    Position k contributes (-1)^k d_k / (q_1 ... q_k).  A max tail pads the
    digits with q_k - 1 through the end of the base prefix; past the m digits
    summed the base q is constant and the rest telescopes to
    (-1)^(m+1) (q - 1) / (q_1 ... q_m (q + 1)).  The sum is one integer over
    q_1 ... q_m (times q + 1 for a max tail), as in :func:`value_of`.
    """
    digits = e.prefix
    if e.tail is Tail.MAX:
        digits += tuple(q - 1 for q in e.base.prefix[len(digits) :])
    num, den = 0, 1
    for k, (d, q) in enumerate(zip(digits, _bases(e.base, len(digits))), start=1):
        num = num * q + (-d if k % 2 else d)
        den *= q
    if e.tail is Tail.MAX:
        q = e.base.tail_value
        num = num * (q + 1) + (q - 1 if len(digits) % 2 else 1 - q)
        den *= q + 1
    return Fraction(num, den)


def alternating_shift_value(e: DigitExpansion, m: int) -> Fraction:
    """Position-m deletion value under the alternating reading,
    A(m-1) - q_m * (x - A(m)), with x = alternating_value(e) and A(k) the
    alternating value of the first k digits.

    Equals alternating_value(generalized_shift(e, m)): the digits after the
    deleted position carry the sign (-1)^(j-1) of their new slot.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    head = alternating_value(_head(e, m - 1))
    return head - e.base.base_at(m) * (alternating_value(e) - alternating_value(_head(e, m)))
