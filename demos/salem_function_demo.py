"""Generalized Salem functions: evaluation, increments, continuity, integral.

Run with:  python3 demos/salem_function_demo.py
"""

from fractions import Fraction

from cantorshift import (
    BaseSpec,
    Cylinder,
    DigitExpansion,
    IndexSequence,
    SalemFunction,
    Tail,
    WeightSet,
    classify_monotonicity,
    continuity_at,
    cylinder_increment,
    evaluate,
    expansion_of,
    first_terms,
    increment_product,
    increment_via_evaluate,
    integral_closed_form,
    residual,
    value_at,
)

b2 = BaseSpec.constant(2)
w = WeightSet(2, (Fraction(3, 10), Fraction(7, 10)))

# With the natural digit order this is the classical strictly increasing
# singular function: continuous, exactly computable at terminating points.
f = SalemFunction(w)
print("weights p =", w.p, " cumulative sums =", w.beta)
print("classification:", classify_monotonicity(f))
for num, den in ((0, 1), (1, 4), (1, 2), (3, 4), (1, 1)):
    e = expansion_of(Fraction(num, den), b2, 20)
    print(f"  g({num}/{den}) = {evaluate(f, e)}")
# 1/3 = 0.010101... in base 2: the period closes after two digits, and g is
# the fixed point of g -> beta_0 + p_0 (beta_1 + p_1 g), exactly.
value, cut = value_at(f, Fraction(1, 3))
print(f"  g(1/3) = {value}", "(exact)" if cut is None else f"(cut after {cut} digits)")

# Increments over cylinders are plain weight products.
print("\ncylinder [1,0]: increment =", cylinder_increment(f, Cylinder(b2, (1, 0))),
      " product =", increment_product(f, (1, 0)))

# Reading digits in a rearranged order produces a different function: it
# keeps the same integral, but picks up jump discontinuities.
order = IndexSequence((1, 5, 7, 3, 6, 10, 2, 4, 8, 9))
g = SalemFunction(w, order)
print("\nrearranged order", order.prefix)
print("classification:", classify_monotonicity(g))
e = DigitExpansion(b2, (1, 0, 1, 1, 0, 1, 1))
print("leading series terms at x =", float(sum(first_terms(g, e, 30))), ":")
for k, term in enumerate(first_terms(g, e, 5), start=1):
    print(f"  term {k}: {term}")
print("peeling residuals k=1..6:", [residual(g, e, k) for k in range(1, 7)])
# Fixing the digits at the first two reading positions (1 and 5) still gives
# the weight product as the increment.
print(f"digits 1, 0 at positions {order.prefix[:2]}: increment =", increment_via_evaluate(g, (1, 0)),
      " product =", increment_product(g, (1, 0)))

swapped = SalemFunction(w, IndexSequence((2, 1)))
half = DigitExpansion(b2, (1,))
res = continuity_at(swapped, half)
print("\nswapped order at x=1/2: continuous =", res.is_continuous, " jump =", res.jump)
res = continuity_at(f, half)
print("natural order at x=1/2: continuous =", res.is_continuous)

# The integral depends only on the weights.
print("\nintegral (natural order)   =", integral_closed_form(f))
print("integral (rearranged order) =", integral_closed_form(g))

# Evaluation is exact on both tails: all-max digits give exactly 1.
print("g(1) =", evaluate(f, DigitExpansion(b2, (), Tail.MAX)))
