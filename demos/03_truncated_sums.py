# Truncated q-hypergeometric sums as exact rational functions
#
# A truncated sum is held as a Laurent numerator over a *factored*
# denominator.  Denominators of consecutive terms nest, so accumulation
# multiplies by the new binomials 1 - q^m of each step and never reduces
# fractions; cyclotomic valuations of the denominator are read off
# analytically.

from dataclasses import replace

from qcongruence import FamilySpec, eta_product_coefficients, sum_truncated
from qcongruence.qseries import plan_sum

# %% the quartic family: [4k+1] (q;q^2)_k^4 / (q^2;q^2)_k^4
spec = FamilySpec("C", base=1, upper=3)
term = plan_sum(replace(spec, upper=1), 1).series()    # the terms 1..1
print("k=1 term numerator:", term.numerator)
print("k=1 term denominator factors (1-q^m)^e:", term.denominator.factors)

s = sum_truncated(spec)
print("sum to k=3: numerator degree", s.numerator.high_degree,
      "| denominator factors", s.denominator.factors)

# %% C and J take an optional t: the free parameter specialized to q^t,
# t odd.  It moves one pair of Pochhammer factors: C's (q;q^2)_k^2 becomes
# (q^{1+t};q^2)_k (q^{1-t};q^2)_k and its (q^2;q^2)_k^2 becomes
# (q^{2+t};q^2)_k (q^{2-t};q^2)_k.  M takes no t.
# At t=-3 the numerator factor 1 - q^{(2k-1)+t} is 1 - q^0 at k=2, so every
# term from k=2 on is zero and the plan's run stops there: the run holds
# the terms k < 2, held over their denominators' binomials (and the
# q-integers' 1 - q), and the binomials of the steps k >= 2, the tail,
# enter the denominator only.  sum_truncated multiplies the tail back into
# the numerator, so the sum is numerator / denominator.
plan = plan_sum(FamilySpec("C", base=1, upper=2, t=-3))
print("specialized plan at t=-3:", len(plan.numerator), "steps in its run")
print("  held factors", plan.held.factors,
      "| denominator factors", plan.denominator.factors)
p = sum_truncated(FamilySpec("C", base=1, upper=2, t=-3))
print("specialized sum at t=-3: numerator", p.numerator)

# %% the eta-style product q (q^2;q^2)^4 (q^4;q^4)^4 expands exactly
print("gamma_1..gamma_13:", eta_product_coefficients(13))
