"""Shift operators on digit expansions.

The plain shift ``shift_n(e, 1)`` drops the first digit (and first base
entry).  The generalized shift deletes the digit and base entry at an
arbitrary position m; on each rank-m cylinder it acts as the affine map

    x  ->  H(m-1) + q_m * (x - H(m))  =  x - (T(m-1) - T(m)) / Q_(m-1)

where H(k) is the partial sum over the first k digits and T(k) the k-fold
shift's value, x = H(k) + T(k)/Q_k: digits 1..m-1 stay, and every later
digit moves up one slot, which multiplies its weight by q_m.
A composition of deletions is the set of original positions it removes:
``delete_positions`` takes them and builds the result in one pass, keeping
the digits and base entries at every other position.  Deleting original
positions n_1, .., n_k in that order one at a time instead takes the
re-indexed single-deletion steps n_i - (number of earlier n_j below n_i),
which ``make_schedule`` returns.

An alternating-series reading of the same digit data (position k weighted by
(-1)^k) is supported for the value and single-deletion formula, where the
moved digits also change sign: x -> A(m-1) - q_m * (x - A(m)), which is
x + (-1)^m (S(m-1) - S(m)) / Q_(m-1) with S(k) the k-fold shift's value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from fractions import Fraction

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


def prefix_sum(e: DigitExpansion, n: int) -> Fraction:
    """Partial value over the first n digit positions (tail digits included):
    the stored digits up to n under e's tail, less the 1/Q_n that a max tail
    adds past n.  So a max tail builds Q_n, the denominator of the value."""
    if n < 0:
        raise ValueError("n must be >= 0")
    head = value_of(DigitExpansion(e.base, e.prefix[:n], e.tail))
    return head - Fraction(1, e.base.block(n)) if e.tail is Tail.MAX else head


def shift_n(e: DigitExpansion, n: int) -> DigitExpansion:
    """n-fold shift, dropping the first n digits and base entries at once; n = 0 is the identity.

    Satisfies value_of(e) == prefix_sum(e, n) + value_of(shift_n(e, n)) / block(n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # a tail of a stripped base prefix is stripped, each kept digit keeps its
    # base, and a constant base is its own shift
    base = e.base
    if base.prefix:
        base = BaseSpec._make(base.prefix[n:], base.tail_value)
    return DigitExpansion._make(base, e.prefix[n:], e.tail)


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
    """Value of the position-m deletion, value_of(generalized_shift(e, m)):
    H(m-1) + q_m * (x - H(m)) = x - (T(m-1) - T(m)) / Q_(m-1), with
    x = value_of(e), H = :func:`prefix_sum` and T(k) = value_of(shift_n(e, k)).
    Past the stored digits and base entries T(m-1) = T(m), and no Q is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    gap = value_of(shift_n(e, m - 1)) - value_of(shift_n(e, m))
    return value_of(e) - (gap / e.base.block(m - 1) if gap else 0)


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
    leaves the constant stream beyond it unchanged.  Each kept digit keeps
    its base, so only a shortened base prefix is checked again, for the
    entries equal to the tail value that it may now end in.
    """
    cuts = sorted(_distinct_positions(positions))
    base = e.base
    if cuts and cuts[0] <= len(base.prefix):
        base = BaseSpec(_without(base.prefix, cuts), base.tail_value)
    return DigitExpansion._make(base, _without(e.prefix, cuts), e.tail)


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
    A(m-1) - q_m * (x - A(m)) = x + (-1)^m (S(m-1) - S(m)) / Q_(m-1), with
    x = alternating_value(e), A(k) the alternating value of the first k digits
    and S(k) = alternating_value(shift_n(e, k)).

    Equals alternating_value(generalized_shift(e, m)): the digits after the
    deleted position carry the sign (-1)^(j-1) of their new slot.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    gap = alternating_value(shift_n(e, m - 1)) - alternating_value(shift_n(e, m))
    return alternating_value(e) + ((-gap if m % 2 else gap) / e.base.block(m - 1) if gap else 0)
