# Exact polynomial arithmetic in q
#
# Everything in this library runs on one type, Poly: a dense integer
# Laurent polynomial, its coefficients held from an integer offset with no
# zero at either end.  A general product is one Kronecker substitution; a
# product with binomials 1 - q^m is instead one shift-subtract per binomial
# of the coefficients packed into one integer (Poly.times_one_minus), and
# an exact quotient by one is one in-place pass over the list
# (Poly.times_binomials with a negative exponent).  Phi_d-adic
# valuations divide by the binomials 1 - q^m whose Moebius product is
# Phi_d, so they never build Phi_d itself.

from fractions import Fraction

from qcongruence import Poly, eval_at, valuation_at
from qcongruence.polycore import one_minus_q

# %% basic products
a = Poly([1, 1])          # 1 + q
b = Poly([1, -1])         # 1 - q
print("(1+q)(1-q) =", a * b)
print("(q-1)(q^2+q+1) =", Poly([-1, 1]) * Poly([1, 1, 1]))

# %% a big product is exact: its value at a rational point is the product
import random

rng = random.Random(0)
big1 = Poly([rng.randint(-9, 9) for _ in range(2001)])
big2 = Poly([rng.randint(-9, 9) for _ in range(2001)])
x = Fraction(-3, 7)
print("degree-2000 product exact at q = -3/7:",
      eval_at(big1 * big2, x) == eval_at(big1, x) * eval_at(big2, x))

# %% one normal form: zeros at both ends move into the offset
p = Poly([0, 0, 2, 1, 0], -5)                  # 2 q^-3 + q^-2
print("coefficients", p.coeffs, "from exponent", p.offset, "=", p)

# %% products with binomials are shift-subtracts, not general products
square = Poly.one().times_one_minus([6, 6])   # (1 - q^6)^2
print("(1-q^6)^2 by passes == by products:",
      square == one_minus_q(6) * one_minus_q(6))
print("(1-q^6)^2 / (1-q^2), divided in place:",
      square.times_binomials({2: -1})
      == one_minus_q(6) * Poly([1, 0, 1, 0, 1]))

# %% cyclotomic valuations through binomial factors, without building Phi_d
print("valuation of (1-q^6)^2 at Phi_3:", valuation_at(square, 3))

# %% negative exponents: 1 - q^-2 is -q^-2 (1 - q^2); evaluation is exact
lp = Poly.one().times_one_minus([-2])
print("1 - q^-2 =", lp, "| at q = 1/2:", eval_at(lp, Fraction(1, 2)))
