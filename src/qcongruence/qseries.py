"""Truncated q-hypergeometric sums held as exact rational functions.

A sum is a SeriesSum: a Laurent numerator over a *factored* denominator
prod (1 - q^m)^e, m >= 1, a multiset of binomials.  A binomial with a
negative exponent is rewritten 1 - q^{-m} = -q^{-m} (1 - q^m) as it
enters, and its unit -q^{-m} goes into the numerator, so a denominator
never carries a sign or a power of q.  Denominators are never expanded
while a sum is accumulated; consecutive terms of every supported family
share nested denominators, so each step multiplies the running numerator
by the new binomials 1 - q^m, one linear pass over its coefficients
each, and adds the next term's numerator.  A term's q-integer factor
[N]_{q^s} = (1 - q^{sN}) / (1 - q^s) enters the same way, as one pass
and one exact division in place (Poly.times_binomials of
q_integer_binomials), so building a sum never makes a general product.
Keeping the denominator factored also makes its cyclotomic valuations
analytic (count the bases m divisible by d) instead of requiring any
division.

A specialized parametric sum stops at its first vanishing term: once a
numerator factor 1 - q^0 enters the nested product at step k0, every
later term is zero, so the numerator gets no more passes.  The binomials
of steps k0..upper still enter the denominator, and are carried
unexpanded as the sum's cofactor: the sum is (cofactor * numerator) /
denominator, with denominator the full last-term denominator F_upper and
cofactor dividing it.  A sum that never vanishes has cofactor 1.

Five term families are supported, named by the tags used throughout the
check drivers:

  C        [4k+1] (q^s;q^{2s})_k^4 / (q^{2s};q^{2s})_k^4
  J        q^{s k^2} [6k+1]_{q^s} (q^s;q^{2s})_k^2 (q^{2s};q^{4s})_k
             / (q^{4s};q^{4s})_k^3
  M        q^{2sk} (q^s;q^{2s})_k^4 / (q^{2s};q^{2s})_k^4
  C_PARAM  [4k+1]_{q^s} (q^{s+t};q^{2s})_k (q^{s-t};q^{2s})_k
             (q^s;q^{2s})_k^2 / ((q^{2s+t};q^{2s})_k (q^{2s-t};q^{2s})_k
             (q^{2s};q^{2s})_k^2)
  J_PARAM  q^{s k^2} [6k+1]_{q^s} (q^{s+t};q^{2s})_k (q^{s-t};q^{2s})_k
             (q^{2s};q^{4s})_k / ((q^{4s+t};q^{4s})_k (q^{4s-t};q^{4s})_k
             (q^{4s};q^{4s})_k)

s is the base exponent (the whole series written in q^s) and, for the
parametric families, t is the exponent of the monomial specialization of
the free parameter.  t must be odd: the denominator factor exponents then
stay odd (never zero), while numerator factors are allowed to vanish and
simply truncate the sum.  For the J families the q^{.k^2} prefactor scale
and the base of [6k+1] can be overridden independently, because the two
printed readings of one target disagree on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .cyclotomic import divisors
from .polycore import Poly

PLAIN_FAMILIES = ("C", "J", "M")
PARAMETRIC_FAMILIES = ("C_PARAM", "J_PARAM")
FAMILIES = PLAIN_FAMILIES + PARAMETRIC_FAMILIES


# ---------------------------------------------------------------------------
# structured products and sums


@dataclass
class FactoredProduct:
    """prod over factors m -> e of (1 - q^m)^e, m, e >= 1: a multiset of
    binomials.

    Treated as immutable after construction; operations return new values.
    """

    factors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for m, e in self.factors.items():
            if m < 1 or e < 1:
                raise ValueError("factor bases and exponents must be >= 1")

    def times(self, other: "FactoredProduct") -> "FactoredProduct":
        merged = dict(self.factors)
        for m, e in other.factors.items():
            merged[m] = merged.get(m, 0) + e
        return FactoredProduct(merged)

    def divided_by(self, other: "FactoredProduct") -> "FactoredProduct":
        """self / other, exactly; other's binomials must be among self's."""
        rest = dict(self.factors)
        for m, e in other.factors.items():
            left = rest.get(m, 0) - e
            if left < 0:
                raise ValueError(
                    f"(1 - q^{m})^{e} does not divide the product")
            if left:
                rest[m] = left
            else:
                del rest[m]
        return FactoredProduct(rest)

    def ord_cyclotomic(self, d: int) -> int:
        """Multiplicity of the d-th cyclotomic polynomial, analytically."""
        if d < 1:
            raise ValueError("cyclotomic index must be >= 1")
        return sum(e for m, e in self.factors.items() if m % d == 0)

    def cyclotomic_content(self) -> dict[int, int]:
        """d -> ord_cyclotomic(d) for every d at which it is positive."""
        content: dict[int, int] = {}
        for m, e in self.factors.items():
            for d in divisors(m):
                content[d] = content.get(d, 0) + e
        return content

    def expand(self) -> Poly:
        """Multiply everything out, one linear pass per binomial."""
        return Poly.one().times_one_minus(
            [m for m in sorted(self.factors) for _ in range(self.factors[m])])


@dataclass
class SeriesSum:
    """A truncated sum as (cofactor * numerator) / denominator.

    cofactor and denominator are factored products, and cofactor divides
    denominator; only the numerator is ever expanded.
    """

    numerator: Poly
    denominator: FactoredProduct = field(default_factory=FactoredProduct)
    cofactor: FactoredProduct = field(default_factory=FactoredProduct)

    def __post_init__(self):
        self.denominator.divided_by(self.cofactor)  # raises unless it divides

    @staticmethod
    def zero() -> "SeriesSum":
        return SeriesSum(Poly.zero())

    def times(self, other: "SeriesSum") -> "SeriesSum":
        return SeriesSum(self.numerator * other.numerator,
                         self.denominator.times(other.denominator),
                         self.cofactor.times(other.cofactor))


@dataclass
class FamilySpec:
    """Which family, in which base q^s, truncated at which upper index.

    For parametric families t (odd) is the specialization exponent.
    prefix_base and qint_base override the J-family prefactor scale and
    q-integer base; both default to the series base.
    """

    family: str
    base: int = 1
    upper: int = 0
    t: Optional[int] = None
    prefix_base: Optional[int] = None
    qint_base: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.base < 1:
            raise ValueError("base exponent must be >= 1")
        if self.upper < 0:
            raise ValueError("upper index must be >= 0")
        if self.family in PARAMETRIC_FAMILIES:
            if self.t is None:
                raise ValueError("parametric families need a specialization t")
            if self.t % 2 == 0:
                raise ValueError("specialization exponent t must be odd")
        elif self.t is not None:
            raise ValueError("plain families take no specialization")
        if self.family not in ("J", "J_PARAM"):
            if self.prefix_base is not None or self.qint_base is not None:
                raise ValueError("prefix/qint overrides are J-family only")


# ---------------------------------------------------------------------------
# elementary builders


def q_integer(n: int, base: int = 1) -> Poly:
    """1 + q^s + ... + q^{s(n-1)}; the q-analogue of n in base q^s.

    >>> q_integer(3).coeffs
    (1, 1, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if base < 1:
        raise ValueError("base exponent must be >= 1")
    cs = [0] * (base * (n - 1) + 1)
    for i in range(n):
        cs[base * i] = 1
    return Poly._adopt(cs)


def q_integer_binomials(count: int, step: int = 1) -> dict[int, int]:
    """[count] in base q^step as the binomials of Poly.times_binomials:
    (1 - q^{step*count}) / (1 - q^step), or none at all for count 1.

    >>> q_integer_binomials(3, 2)
    {6: 1, 2: -1}
    """
    if count == 1:
        return {}
    return {step * count: 1, step: -1}


# ---------------------------------------------------------------------------
# term generation

# Per family, the exponents of the binomials that enter the numerator
# product and the raw denominator at step k (k >= 1), before any
# positive-base normalization of negative denominator exponents.


def _step_exponents(spec: FamilySpec, k: int) -> tuple[list[int], list[int]]:
    s, t = spec.base, spec.t
    odd = 2 * k - 1
    if spec.family in ("C", "M"):
        return [s * odd] * 4, [2 * s * k] * 4
    if spec.family == "J":
        return [s * odd, s * odd, 2 * s * odd], [4 * s * k] * 3
    if spec.family == "C_PARAM":
        return ([s * odd + t, s * odd - t, s * odd, s * odd],
                [2 * s * k + t, 2 * s * k - t, 2 * s * k, 2 * s * k])
    # J_PARAM
    return ([s * odd + t, s * odd - t, 2 * s * odd],
            [4 * s * k + t, 4 * s * k - t, 4 * s * k])


def _finish_term(spec: FamilySpec, k: int, prod: Poly) -> Poly:
    s = spec.base
    if spec.family in ("C", "C_PARAM"):
        return prod.times_binomials(q_integer_binomials(4 * k + 1, s))
    if spec.family in ("J", "J_PARAM"):
        num = prod.times_binomials(
            q_integer_binomials(6 * k + 1, spec.qint_base or s))
        return num.shift((spec.prefix_base or s) * k * k)
    # M
    return prod.shift(2 * s * k)


def _term_stream(spec: FamilySpec
                 ) -> Iterator[tuple[int, Poly, list[int]]]:
    """Yield (k, raw numerator, raw new denominator exponents) for k <= upper.

    The numerator is exact; a vanishing numerator factor makes it (and all
    later numerators) zero.  Denominator exponents are raw and may be
    negative; the caller normalizes them.
    """
    prod = Poly.one()
    yield 0, Poly.one(), []
    for k in range(1, spec.upper + 1):
        num_exps, den_exps = _step_exponents(spec, k)
        prod = prod.times_one_minus(num_exps)
        yield k, _finish_term(spec, k, prod), den_exps


class _Accumulator:
    """Common-denominator accumulation with unit folding.

    The raw denominator after step k factors as unit * F_k with F_k a
    positive-base FactoredProduct and F_{k-1} dividing F_k; the running
    numerator is kept over F_k, so each step multiplies it by the binomials
    of F_k / F_{k-1}, one linear pass each, and adds the unit-adjusted term
    numerator.  No rational reduction is ever performed.

    After stop() every later term is zero: the new binomials of each step
    still enter F_k but go to the cofactor instead of the numerator, so
    the sum is cofactor * numerator over F_k.
    """

    def __init__(self) -> None:
        self.numerator = Poly.zero()
        self.factors: dict[int, int] = {}
        self.unit_sign = 1
        self.unit_power = 0
        self.tail: Optional[dict[int, int]] = None   # cofactor, once stopped

    def absorb(self, raw_num: Poly, raw_den_exps: list[int]) -> None:
        pos_exps = []
        for e in raw_den_exps:
            if e == 0:
                raise ZeroDivisionError("vanishing denominator factor")
            if e < 0:
                self.unit_sign = -self.unit_sign
                self.unit_power += e
                e = -e
            self.factors[e] = self.factors.get(e, 0) + 1
            pos_exps.append(e)
        if self.tail is not None:
            for e in pos_exps:
                self.tail[e] = self.tail.get(e, 0) + 1
            return
        self.numerator = self.numerator.times_one_minus(pos_exps)
        if not raw_num.is_zero():
            adjusted = raw_num.scale(self.unit_sign).shift(-self.unit_power)
            self.numerator = self.numerator + adjusted

    def stop(self) -> None:
        if self.tail is None:
            self.tail = {}

    def last_term_numerator(self, raw_num: Poly) -> Poly:
        return raw_num.scale(self.unit_sign).shift(-self.unit_power)

    def denominator(self) -> FactoredProduct:
        return FactoredProduct(dict(self.factors))

    def cofactor(self) -> FactoredProduct:
        return FactoredProduct(dict(self.tail or {}))


def term_of(spec: FamilySpec, k: int) -> tuple[Poly, FactoredProduct]:
    """The exact k-th term as (numerator, factored denominator)."""
    if k > spec.upper:
        spec = FamilySpec(spec.family, spec.base, k, spec.t,
                          spec.prefix_base, spec.qint_base)
    acc = _Accumulator()
    for i, raw_num, raw_exps in _term_stream(spec):
        acc.absorb(Poly.zero(), raw_exps)
        if i == k:
            return acc.last_term_numerator(raw_num), acc.denominator()
    raise AssertionError("unreachable")


def sum_truncated(spec: FamilySpec) -> SeriesSum:
    """Sum of the terms k = 0..upper over the common (last) denominator.

    The first zero term (k0 >= 1, as term 0 is 1; only a vanishing
    numerator factor makes one) stops the sum: the binomials of steps k0..upper become the
    cofactor, and the numerator is the sum of the terms k < k0 over
    F_{k0-1}.
    """
    acc = _Accumulator()
    for _, raw_num, raw_exps in _term_stream(spec):
        if raw_num.is_zero():
            acc.stop()
        acc.absorb(raw_num, raw_exps)
    return SeriesSum(acc.numerator, acc.denominator(),
                     cofactor=acc.cofactor())


# ---------------------------------------------------------------------------
# classical (q -> 1) values


def classical_term_value(family: str, k: int) -> Fraction:
    """Exact rational limit of the k-th term at q = 1 for plain families.

    All three reduce to central binomial coefficients over powers of 4:
    C(2k,k)/4^k is the classical normalized half-integer ratio.
    """
    if family not in PLAIN_FAMILIES:
        raise ValueError("classical values exist for plain families only")
    if k < 0:
        raise ValueError("k must be >= 0")
    central = math.comb(2 * k, k)
    if family == "C":
        return Fraction((4 * k + 1) * central ** 4, 256 ** k)
    if family == "J":
        return Fraction((6 * k + 1) * central ** 3, 256 ** k)
    return Fraction(central ** 4, 256 ** k)


# ---------------------------------------------------------------------------
# eta-style product expansion


def eta_product_coefficients(n: int) -> list[int]:
    """Coefficients gamma_1..gamma_n of q * (q^2;q^2)_inf^4 (q^4;q^4)_inf^4.

    Factors beyond degree n cannot reach the reported range, so truncating
    each infinite product at n is exact.

    >>> eta_product_coefficients(3)
    [1, 0, -4]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [0] * (n + 1)
    coeffs[1] = 1
    for step in (2, 4):
        m = step
        while m <= n:
            for _ in range(4):
                for i in range(n, m - 1, -1):
                    coeffs[i] -= coeffs[i - m]
            m += step
    return coeffs[1:]
