# Exact polynomials in q
#
# The checks work on integers, not on polynomial objects.  A coefficient
# list is packed into one integer, its value at q = 2^W, so a product with
# a binomial 1 - q^m is one shift-subtract x - (x << W m); the sums and
# the delta of a global check stay packed until the delta is unpacked
# once.  On a list, a product with 1 - q^m is one pass, and an exact
# quotient by it one in-place pass of running sums.  Phi_d-adic valuations
# divide by the binomials 1 - q^m whose Moebius product is Phi_d, so they
# never build Phi_d itself.  Poly only holds coefficients, from an integer
# offset, with no zero at either end.

import random
from fractions import Fraction

from qcongruence import Poly, valuation_at
from qcongruence.polycore import (
    _divide_one_minus,
    _pack,
    _times_one_minus,
    _unpack,
)


def value_at(p, x):
    # the exact value of p at a rational x, by Horner's rule
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc * Fraction(x) ** p.offset


# %% one normal form: zeros at both ends move into the offset
p = Poly([0, 0, 2, 1, 0], -5)                  # 2 q^-3 + q^-2
print("coefficients", p.coeffs, "from exponent", p.offset, "=", p)

# %% a packed value is the list at q = 2^16; one shift-subtract per binomial
x = _pack([3, -1, 2], 2)
print("3 - q + 2q^2 at q = 2^16:", x == 3 - 2 ** 16 + 2 * 2 ** 32)
print("times 1 - q^6:", Poly(_unpack(x - (x << 16 * 6), 2, 9)))

# %% on a list: products with binomials are passes, exact quotients too
square = _times_one_minus(_times_one_minus([1], 6), 6)     # (1 - q^6)^2
quotient = list(square)
print("(1-q^6)^2 / (1-q^2), divided in place:",
      _divide_one_minus(quotient, 2),
      Poly(quotient) == Poly(_times_one_minus([1, 0, 1, 0, 1], 6)))

# %% cyclotomic valuations through binomial factors, without building Phi_d
print("valuation of (1-q^6)^2 at Phi_3:", valuation_at(Poly(square), 3))

# %% a general product is one Kronecker substitution, exact at any size
rng = random.Random(0)
big1 = Poly([rng.randint(-9, 9) for _ in range(2001)])
big2 = Poly([rng.randint(-9, 9) for _ in range(2001)])
q = Fraction(-3, 7)
print("degree-2000 product exact at q = -3/7:",
      value_at(big1 * big2, q) == value_at(big1, q) * value_at(big2, q))
