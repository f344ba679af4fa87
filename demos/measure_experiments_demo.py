"""Measures of shift-defined sets: exact tables with Monte Carlo cross-checks.

Run with:  python3 demos/measure_experiments_demo.py
"""

from fractions import Fraction

from cantorshift import (
    SetFamilySpec,
    comparison_measure,
    gk_scan,
    monte_carlo_measure,
    plm_generalized_chain,
    plm_iter_shift,
    rows_to_csv,
    sublevel_measure,
)

# How much of [0, 1) lands below x after n digit drops?  Exactly x: the
# shift preserves Lebesgue measure, and the table makes that visible.
print("measure of {z : sigma^n(z) < 1/3} over base 2:")
for n in range(1, 7):
    value = sublevel_measure(plm_iter_shift(2, n), Fraction(1, 3))
    print(f"  n={n}: {value}")

# Interior deletions preserve measure as well.
chain = plm_generalized_chain(2, (1, 4, 2))
print("\nchain deletion at 1,4,2:", sublevel_measure(chain, Fraction(1, 3)))

# Comparing two iterates at the same point is a different kind of set.
a = plm_iter_shift(2, 2)
b = plm_iter_shift(2, 1)
print("\nmeasure of {z : sigma^2(z) < sigma(z)} =", comparison_measure(a, b))
mc = monte_carlo_measure(SetFamilySpec.compare_iter(2, 2, 1), 0, 200_000, seed=1)
print(f"Monte Carlo cross-check: {mc.estimate:.4f} +- {mc.halfwidth:.4f} (99%)")

# The scan produces the CSV table the CLI writes.  Each row is exact when
# the map's q^n branches fit the branch budget and n is within the iterate
# limit (8 by default), both decided before any map is built; beyond that
# the row is a seeded Monte Carlo estimate.
specs = [SetFamilySpec.iter_shift(2, n) for n in range(1, 10)]
rows = gk_scan(specs, [Fraction(1, 3)], samples=100_000, seed=7, log=print)
print()
print(rows_to_csv(rows))
