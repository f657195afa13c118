"""Truncated q-hypergeometric sums held as exact rational functions.

A sum is numerator / denominator with the denominator a *factored*
product prod (1 - q^m)^e, m >= 1, a multiset of binomials whose
cyclotomic valuations are read off the bases m.  Consecutive terms of
every supported family share nested denominators, so each step
multiplies the running numerator by the new binomials and adds the next
term's numerator.  A term's q-integer [N]_{q^s} = (1 - q^{sN}) /
(1 - q^s) enters as one binomial 1 - q^{sN}; the divisor 1 - q^s,
common to every term, is held in the denominator.

A sum is described once, by its plan (plan_sum): its run of steps (the
whole value, a scale included, each term with an integer coefficient;
the empty run is 0), denominator, held divisor and a count bound on its
numerator.  Every binomial of a plan has a positive exponent: one with
a negative exponent is rewritten 1 - q^{-m} = -q^{-m} (1 - q^m) as it
enters, and its unit goes into the sign and shift of the terms it
reaches.  The local path reads the run (local), the global path builds
it at a slot width proven from that bound, numerator and nested product
each one packed integer (polycore._pack), each binomial one
shift-subtract.  A global check never unpacks its sums (congruence);
only SeriesSum.series, which no check calls, unpacks a sum.

A sum whose nested product vanishes stops at its first zero term k0:
every later term is zero, and the binomials of steps k0..upper enter the
full last-term denominator F_upper but not the run.  They are the tail
of the denominator, the binomials the run's dens lack; a sum that never
vanishes has none.

Three term families are supported, named by the tags used throughout
the check drivers:

  C  [4k+1]_{q^s} (q^s;q^{2s})_k^4 / (q^{2s};q^{2s})_k^4
  J  q^{s k^2} [6k+1]_{q^s} (q^s;q^{2s})_k^2 (q^{2s};q^{4s})_k
       / (q^{4s};q^{4s})_k^3
  M  q^{2sk} (q^s;q^{2s})_k^4 / (q^{2s};q^{2s})_k^4

s is the base exponent (the whole series written in q^s).  C and J take
an optional specialization q^t of the free parameter of the paper's
parametric sums, which turns two factors (q^a;q^b)_k of the numerator,
and two of the denominator, into (q^{a+t};q^b)_k (q^{a-t};q^b)_k:

  C at t  (a, b) = (s, 2s) above and (2s, 2s) below
  J at t  (a, b) = (s, 2s) above and (4s, 4s) below

t must be odd: the denominator factor exponents then stay odd (never
zero), while numerator factors are allowed to vanish and simply truncate
the sum.  A J spec can ask for the printed reading of a base-raised
target instead, q^{k^2} [6k+1]_{q^2} whatever the base, because the two
readings of that target disagree on the prefactor.  target_sign is the
sign of the sextic targets' (-q)^{(1-n)/2}, at q = 1 too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from .polycore import Poly, _divide_one_minus, _pack, _slots, _times_one_minus

FAMILIES = ("C", "J", "M")


def target_sign(family: str, n: int) -> int:
    """(-1)^{(n-1)/2} for the sextic family J, 1 for the others; n is odd."""
    return -1 if family == "J" and (n - 1) // 2 % 2 else 1


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

    def ord_cyclotomic(self, d: int) -> int:
        """Multiplicity of the d-th cyclotomic polynomial, analytically."""
        if d < 1:
            raise ValueError("cyclotomic index must be >= 1")
        return sum(e for m, e in self.factors.items() if m % d == 0)

    # kept only for perfbench/tracing.py, which wraps it
    def expand(self) -> Poly:
        """Multiply everything out, one list pass per binomial."""
        cs = [1]
        for m in Counter(self.factors).elements():
            cs = _times_one_minus(cs, m)
        return Poly(cs)


@dataclass
class SeriesSum:
    """A truncated sum as N / denominator, a factored product.

    numerator is a Poly, or a run of _planned that is only ever built
    packed, each step (ups, dens, tops, shift, coeff) with three lists of
    positive exponents.  Either is held over held, set as the sum is made:
    extra (an undivided 1 - q^step, the 1 - q of a scale) times the run's
    dens, or times the whole denominator for a Poly.  A run's dens are
    among the denominator's binomials (ValueError otherwise); the rest
    are the tail of a stopped sum.  So a run's passes carry a start value
    to held / extra (congruence._delta relies on it), and N is the held
    numerator over extra, times the tail.  packed(w) builds the held
    numerator as one integer (polycore._pack) in slots of w bytes; bits
    is a count bound: every |c| of it is below 2^bits.
    """

    numerator: object
    denominator: FactoredProduct = field(default_factory=FactoredProduct)
    extra: FactoredProduct = field(default_factory=FactoredProduct)
    bits: Optional[int] = None
    held: FactoredProduct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        extra, den = self.extra.factors, self.denominator.factors
        held = dict(extra)
        for m, e in (den.items() if isinstance(self.numerator, Poly) else
                     ((m, 1) for step in self.numerator for m in step[1])):
            held[m] = held.get(m, 0) + e
        for m, e in held.items():
            if e - extra.get(m, 0) > den.get(m, 0):
                raise ValueError(f"a 1 - q^{m} of the run is not among the "
                                 "denominator's binomials")
        self.held = FactoredProduct(held)
        if self.bits is None:
            self.bits = max(map(abs, self.numerator.coeffs),
                            default=0).bit_length()

    def scaled(self, n: int, c: int) -> "SeriesSum":
        """self * c q^{(1-n)/2} [n], n odd, c a nonzero integer, self a
        plan: [n] = (1 - q^n) / (1 - q) cancels a 1 - q^n of extra or else
        joins step 0's binomials, 1 - q joins extra, and the run's shifts
        gain (1 - n)/2 and its coefficients the factor c."""
        extra, up = Counter(self.extra.factors), [n]
        if extra[n]:
            extra[n], up = extra[n] - 1, []
        extra[1] += 1
        numerator = [([*ups, *up] if k == 0 else ups, dens, tops,
                      shift + (1 - n) // 2, coeff * c)
                     for k, (ups, dens, tops, shift, coeff)
                     in enumerate(self.numerator)]
        return replace(self, numerator=numerator,
                       extra=FactoredProduct(dict(+extra)),
                       bits=self.bits + len(up) + (abs(c) - 1).bit_length())

    def packed(self, w: int) -> tuple[int, int]:
        """(the numerator at q = 2^(8w), its offset): exact if bits < 8w."""
        num = self.numerator
        # a Poly numerator comes only from the tests' sides
        return (_pack(num.coeffs, w), num.offset) \
            if isinstance(num, Poly) else _accumulate(num, w)

    # kept only for sum_truncated, which perfbench/tracing.py wraps
    def series(self) -> "SeriesSum":
        """The sum with a Poly numerator over its denominator: built at its
        own width, unpacked once, divided by extra in place, exactly, and
        multiplied by the tail."""
        w = self.bits // 8 + 1
        x, off = self.packed(w)
        cs = _slots(x, w) if x else []
        for m in Counter(self.extra.factors).elements() if x else ():
            if not _divide_one_minus(cs, m):
                raise AssertionError(f"inexact division by 1 - q^{m}")
        for m in (Counter(self.denominator.factors) + Counter(
                self.extra.factors) - Counter(self.held.factors)).elements():
            cs = _times_one_minus(cs, m)
        return SeriesSum(Poly(cs, off), self.denominator)


@dataclass
class FamilySpec:
    """Which family, in which base q^s, truncated at which upper index.

    t, for C and J only, is the odd exponent of the specialization, or
    None for the unspecialized sum.  printed (J only) takes the printed
    reading of the term, q^{k^2} [6k+1]_{q^2}, in place of q^{s k^2}
    [6k+1]_{q^s}.
    """

    family: str
    base: int = 1
    upper: int = 0
    t: Optional[int] = None
    printed: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.base < 1:
            raise ValueError("base exponent must be >= 1")
        if self.upper < 0:
            raise ValueError("upper index must be >= 0")
        if self.t is not None and self.t % 2 == 0:
            raise ValueError("specialization exponent t must be odd")
        if self.t is not None and self.family == "M":
            raise ValueError("the M family takes no specialization")
        if self.printed and self.family != "J":
            raise ValueError("the printed reading is J-family only")


# ---------------------------------------------------------------------------
# term generation


def _steps(spec: FamilySpec) -> tuple[list[tuple], int]:
    """(steps, step): the steps k = 0..upper of spec for _planned, and the
    base q^step of its terms' q-integers, 0 for M, which has none.

    Step k >= 1 brings the binomials of the family's Pochhammer factors
    at k, unturned: the nested product's in ups, the denominator's in
    dens, the first two of each moved by +-t in a specialized sum.  Term
    k is its q-integer [N]_{q^step} = (1 - q^{step N}) / (1 - q^step) as
    one binomial of tops, and its power of q, shift.
    """
    s, t = spec.base, spec.t or 0
    step = 0 if spec.family == "M" else 2 if spec.printed else s
    steps = []
    for k in range(spec.upper + 1):
        odd = s * (2 * k - 1)
        if spec.family == "J":
            even = 4 * s * k
            ups, dens = [odd + t, odd - t, 2 * odd], [even + t, even - t, even]
            term = [step * (6 * k + 1)], (1 if spec.printed else s) * k * k
        else:
            even = 2 * s * k
            ups = [odd + t, odd - t, odd, odd]
            dens = [even + t, even - t, even, even]
            term = ([step * (4 * k + 1)], 0) if step else ([], 2 * s * k)
        steps.append((ups, dens, *term) if k else ([], [], *term))
    return steps, step


def _planned(steps: list[tuple], step: int = 0) -> SeriesSum:
    """The sum of steps over the common (last) denominator, planned.

    Step k is (ups, dens, tops, shift): prod_k is prod_{k-1} times 1 -
    q^e, e in ups; term k is prod_k times 1 - q^e, e in tops, times
    q^shift / (1 - q^step) (no divisor for step 0) over the binomials of
    dens of steps 0..k.  Every exponent is turned positive as it enters,
    1 - q^e = -q^e (1 - q^-e) for e < 0: the unit of one in dens or ups
    goes into the sign and shift of this term and every later one, that
    of one in tops into this term's only.  So the run keeps, per step,
    the binomials of prod_k / prod_{k-1}, of F_k / F_{k-1} and of the
    term, all positive, and the term's shift and integer coefficient, the
    units' sign.  From a zero in ups on, every term is zero, and each
    step's dens enter the denominator only, as its tail.  bits counts:
    each binomial at most doubles max|c|, so term j times the binomials
    of later steps stays below 2^num_bits, and the sum of the terms below
    2^(num_bits + bits(terms)).
    """
    factors: dict[int, int] = {}
    stopped = False
    run = []
    unit_sign, unit_power = 1, 0
    prod_bits, num_bits = 1, 0
    for ups, dens, tops, shift in steps:
        new = []
        for e in dens:
            if e == 0:
                raise ZeroDivisionError("vanishing denominator factor")
            if e < 0:
                unit_sign, unit_power, e = -unit_sign, unit_power - e, -e
            factors[e] = factors.get(e, 0) + 1
            new.append(e)
        stopped = stopped or 0 in ups
        if stopped:
            continue
        turned, own = [], []
        for e in ups:
            if e < 0:
                unit_sign, unit_power, e = -unit_sign, unit_power + e, -e
            turned.append(e)
        sign, power = unit_sign, unit_power
        for e in tops:
            if e < 0:
                sign, power, e = -sign, power + e, -e
            own.append(e)
        prod_bits += len(ups)
        num_bits = max(num_bits + len(new), prod_bits + len(tops))
        run.append((turned, new, own, shift + power, sign))
    return SeriesSum(run, FactoredProduct(factors),
                     FactoredProduct({step: 1} if step else {}),
                     num_bits + len(run).bit_length())


def _accumulate(run: list[tuple], w: int, start: int = 0, start_off: int = 0
                ) -> tuple[int, int]:
    """The held numerator of a run of _planned in slots of w bytes, and its
    offset (start_off for the empty run): kept over F_k (1 - q^step), it is
    multiplied by each step's binomials and takes the term times 1 -
    q^step, coeff prod_k (1 - q^e, e in tops) q^shift, with no division.
    The numerator and prod are packed integers, so each binomial is one
    shift-subtract, and a term of coefficient -1 is subtracted (on a long
    int, ten times cheaper than a product).  The numerator starts at
    start, from start_off: every dens binomial of the run multiplies it,
    so the result gains start times held / extra, and its offset is at
    most start_off."""
    bits = 8 * w
    prod, num, num_off = 1, start, start_off
    for ups, dens, tops, shift, coeff in run:
        for e in ups:
            prod -= prod << bits * e
        for e in dens:
            num -= num << bits * e
        term = prod
        for e in tops:
            term -= term << bits * e
        if coeff != 1 and coeff != -1:
            term *= coeff
        if shift >= num_off:
            term <<= bits * (shift - num_off)
        else:
            num, num_off = num << bits * (num_off - shift), shift
        num = num - term if coeff == -1 else num + term
    return num, num_off


# kept only for perfbench/tracing.py, which wraps it by congruence's name
def sum_truncated(spec: FamilySpec) -> SeriesSum:
    """Sum of the terms k = 0..upper over the common (last) denominator.

    The first zero term (k0 >= 1, as term 0 is 1; only a vanishing
    numerator factor makes one) stops the plan's run; the binomials of
    steps k0..upper, the tail, are multiplied back into the numerator
    once it is built at its own width, unpacked and divided by its
    q-integers' 1 - q^step in place.
    """
    return plan_sum(spec).series()


def plan_sum(spec: FamilySpec, start: int = 0) -> SeriesSum:
    """The sum of the terms k = start..upper over the whole denominator
    F_upper, planned from its steps alone: steps 0..start enter as one
    step that carries term start's q-integer and shift."""
    if not 0 <= start <= spec.upper:
        raise ValueError("start must be in 0..upper")
    steps, step = _steps(spec)
    first = ([e for taken in steps[:start + 1] for e in taken[0]],
             [e for taken in steps[:start + 1] for e in taken[1]],
             *steps[start][2:])
    return _planned([first, *steps[start + 1:]], step)


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
    coeffs = [0, 1] + [0] * (n - 1)
    for step in (2, 4):
        for m in range(step, n + 1, step):
            for _ in range(4):
                coeffs = _times_one_minus(coeffs, m)[:n + 1]
    return coeffs[1:]
