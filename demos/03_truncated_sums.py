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

# %% parametric families specialize a free parameter to q^t (t odd)
# At t=-3 the numerator factor 1 - q^{(2k-1)+t} is 1 - q^0 at k=2, so every
# term from k=2 on is zero and the sum stops there: the numerator holds the
# terms k < 2, and the binomials of the steps k >= 2 stay factored in the
# cofactor.  The sum is cofactor * numerator / denominator.
p = sum_truncated(FamilySpec("C_PARAM", base=1, upper=2, t=-3))
print("specialized sum at t=-3: numerator", p.numerator)
print("  cofactor factors", p.cofactor.factors,
      "| denominator factors", p.denominator.factors)

# %% the eta-style product q (q^2;q^2)^4 (q^4;q^4)^4 expands exactly
print("gamma_1..gamma_13:", eta_product_coefficients(13))
