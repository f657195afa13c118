# Exact polynomial arithmetic in q
#
# Everything in this library runs on dense integer polynomials and Laurent
# polynomials.  Multiplication picks schoolbook or Kronecker substitution
# automatically; a product with binomials 1 - q^m is instead one linear
# pass per binomial (LaurentPoly.times_one_minus).  Division is monic-only
# so results stay integral.  Phi_d-adic valuations divide by the binomials
# 1 - q^m whose Moebius product is Phi_d, so they never build Phi_d itself.

from fractions import Fraction

from qcongruence import (
    LaurentPoly,
    Poly,
    div_rem_by_monic,
    eval_at,
    normalize_one_minus_pow,
    valuation_at,
)
from qcongruence.polycore import mul_schoolbook, one_minus_q

# %% basic products
a = Poly([1, 1])          # 1 + q
b = Poly([1, -1])         # 1 - q
print("(1+q)(1-q) =", a * b)
print("(q-1)(q^2+q+1) =", Poly([-1, 1]) * Poly([1, 1, 1]))

# %% strategy independence: the Kronecker path agrees with schoolbook
import random

rng = random.Random(0)
big1 = Poly([rng.randint(-9, 9) for _ in range(2001)])
big2 = Poly([rng.randint(-9, 9) for _ in range(2001)])
print("degree-2000 Kronecker == schoolbook:", big1 * big2 == mul_schoolbook(big1, big2))

# %% monic division is exact over the integers
quotient, remainder = div_rem_by_monic(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
print("(q^3-1)/(q-1) =", quotient, " remainder", remainder)

# %% products with binomials are linear passes, not general products
square = LaurentPoly.one().times_one_minus([6, 6])   # (1 - q^6)^2
print("(1-q^6)^2 by passes == by products:",
      square == one_minus_q(6) * one_minus_q(6))

# %% cyclotomic valuations through binomial factors, without building Phi_d
print("valuation of (1-q^6)^2 at Phi_3:", valuation_at(square, 3))

# %% Laurent polynomials carry negative exponents; evaluation is exact
lp = LaurentPoly(Poly([1, 1]), -2)            # q^-2 + q^-1
print("(q^-2 + q^-1) at q = 1/2:", eval_at(lp, Fraction(1, 2)))

# %% rewriting 1 - q^m for negative m keeps factor bases positive
print("1 - q^-2 rewritten:", normalize_one_minus_pow(-2))
