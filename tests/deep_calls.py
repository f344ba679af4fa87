"""Library calls at depths no listing could reach, with their expected output.

Each call decides from a deletion's steps and depth, and reads no digit past
the stored ones under either tail; one that listed or drew up to position
10^9 or 10^12 would hit an address-space limit or a timeout instead.  The
10^5-entry schedule and its inverse each take O(k log k) comparisons.  A
``str`` x whose exponent is past the integer string limit is refused before
10^|e| is built.

Run with:  (ulimit -v 1048576 && python tests/deep_calls.py)
It prints one line per call and exits 1 if the lines differ from EXPECTED.
"""

import random
import sys
from fractions import Fraction

from cantorshift import (
    BaseSpec,
    DigitExpansion,
    DistributionSpec,
    SetFamilySpec,
    Tail,
    alternating_shift_value,
    chain_value,
    compose_two,
    distribution_function,
    expansion_of,
    generalized_shift_value,
    make_schedule,
    monte_carlo_measure,
    original_positions,
    parse_function_spec,
    plm_generalized_chain,
    prefix_sum,
    value_at,
)

LIMIT = sys.get_int_max_str_digits()
PAST_LIMIT = f"ValueError cannot parse rational '1e-99999999' (past the integer string limit of {LIMIT} digits)"

EXPECTED = [
    "(1000000000,)",
    "(2, 0, 1)",
    "BudgetExceededError 3^1000000000 branches exceed budget 1000000",
    "BudgetExceededError a sample would draw 1000000000016 digits, over the limit 100016",
    "BudgetExceededError a sample would draw 1000000000015 digits, over the limit 100016",
    "0",
    "46/81",
    "46/81",
    "-8/81",
    "True",
    "47/81",
    "-17/162",
    "43/60",
    "-71/240",
    PAST_LIMIT,
    PAST_LIMIT,
    PAST_LIMIT,
]


def main() -> int:
    e = DigitExpansion(BaseSpec.constant(3), (1, 2, 0, 1))
    e3 = DigitExpansion(BaseSpec.constant(3), (1, 2, 0, 1), Tail.MAX)
    c3 = DigitExpansion(BaseSpec.cantor((2, 5, 4), 3), (1, 2, 0, 1), Tail.MAX)
    f = parse_function_spec("q=3; p=1/5,2/5,2/5; seq=perm(2 1)")
    p = list(range(1, 10**5 + 1))
    random.Random(5).shuffle(p)
    lines = []
    for call in (
        lambda: original_positions((10**9,)),
        lambda: compose_two(e, 10**9, 1).prefix,
        lambda: plm_generalized_chain(3, (10**9,)),
        lambda: monte_carlo_measure(SetFamilySpec.iter_shift(2, 10**12), Fraction(1, 3), 1, 0),
        lambda: monte_carlo_measure(SetFamilySpec.compare_iter(2, 10**12, 1), 0, 1, 0),
        lambda: chain_value(f, e, 10**9),
        lambda: prefix_sum(e, 10**9),
        lambda: generalized_shift_value(e, 10**9),
        lambda: alternating_shift_value(e, 10**9),
        lambda: original_positions(make_schedule(p)) == tuple(p),
        lambda: generalized_shift_value(e3, 10**9),
        lambda: alternating_shift_value(e3, 10**9),
        lambda: generalized_shift_value(c3, 10**9),
        lambda: alternating_shift_value(c3, 10**9),
        lambda: value_at(f, "1e-99999999"),
        lambda: distribution_function(DistributionSpec(f.weights), "1e-99999999"),
        lambda: expansion_of("1e-99999999", BaseSpec.constant(3), 10),
    ):
        try:
            lines.append(str(call()))
        except Exception as exc:
            lines.append(f"{type(exc).__name__} {exc}")
        print(lines[-1], flush=True)
    return int(lines != EXPECTED)


if __name__ == "__main__":
    sys.exit(main())
