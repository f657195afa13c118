# Cyclotomic polynomials and q-integers
#
# Phi_n is the product of the binomials 1 - q^{n/e} over the divisors e of
# n with Moebius value +1, divided exactly by those with value -1: never
# through roots of unity.  The q-integer [n] factors as the product of
# Phi_d over the divisors d > 1 of n.  That factorization is what turns "modulo [n^r]"
# statements into per-cyclotomic valuation checks.

from math import gcd

from qcongruence import (
    Poly,
    cyclotomic,
    divisors,
    q_integer,
    q_integer_cyclotomic_factors,
)

# %% the first few cyclotomic polynomials
for n in (1, 2, 3, 6, 9, 15):
    print(f"Phi_{n}(q) =", cyclotomic(n))

# %% degrees match Euler's totient, and the product identity holds
n = 30
prod = Poly.one()
for d in divisors(n):
    prod = prod * cyclotomic(d)
print("prod of Phi_d over d | 30 equals q^30 - 1:",
      prod == Poly([-1] + [0] * 29 + [1]))
print("degree of Phi_105:", cyclotomic(105).high_degree, "= phi(105) =",
      sum(1 for k in range(1, 106) if gcd(k, 105) == 1))

# %% q-integers and their cyclotomic factorizations
print("[9] =", q_integer(9))
print("[9] factors through Phi_d for d in", q_integer_cyclotomic_factors(9))
print("[5] in base q^3:", q_integer(5, 3))
