"""Shift operators: single deletions, compositions, and deletion schedules.

Run with:  python3 demos/shift_operators_demo.py
"""

from cantorshift import (
    BaseSpec,
    DigitExpansion,
    alternating_shift_value,
    alternating_value,
    compose_two,
    delete_positions,
    generalized_shift,
    generalized_shift_value,
    make_schedule,
    prefix_sum,
    shift_n,
    value_of,
)

b10 = BaseSpec.constant(10)
x = DigitExpansion(b10, (1, 2, 3, 4))
print("x =", value_of(x), "with digits", x.prefix)

# The plain shift drops leading digits; the value decomposes exactly.
print("\nafter dropping 2 digits:", value_of(shift_n(x, 2)))
print("check: x = 0.12 + sigma^2(x)/100 ->", prefix_sum(x, 2) + value_of(shift_n(x, 2)) / 100)

# The generalized shift deletes one interior digit.  It is affine on the
# cylinder containing x, and the closed formula matches digit deletion.
deleted = generalized_shift(x, 2)
print("\ndeleting digit 2:", deleted.prefix, "=", value_of(deleted))
print("affine formula gives:", generalized_shift_value(x, 2))

# Read as an alternating series (position k weighted by (-1)^k), the same
# deletion has its own affine formula.
print("\nalternating reading of the deletion:", alternating_value(deleted))
print("alternating affine formula gives:", alternating_shift_value(x, 2))

# Two deletions compose with a position shift: deleting at 2 then at 5
# removes original positions 2 and 6.
nine = DigitExpansion(b10, (1, 2, 3, 4, 5, 6, 7, 8, 9))
print("\ndelete at 2 then at 5 on digits 1..9:", compose_two(nine, 2, 5).prefix)

# A whole set of original positions is deleted at once.  Deleting them one at
# a time in the given order instead lowers each deletion index by the number
# of earlier deletions below it: those are the re-indexed steps.
positions = (1, 5, 7, 3, 6)
print("\ndeleting original positions", positions)
print("re-indexed single-deletion steps:", make_schedule(positions))
ten = DigitExpansion(b10, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
print("surviving digits:", delete_positions(ten, positions).prefix)
