"""Truncated q-hypergeometric sums held as exact rational functions.

A sum is (cofactor * numerator) / denominator with the denominator a
*factored* product prod (1 - q^m)^e, m >= 1, a multiset of binomials
whose cyclotomic valuations are read off the bases m.  A binomial with a
negative exponent is rewritten 1 - q^{-m} = -q^{-m} (1 - q^m) as it
enters, and its unit goes into the numerator.  Consecutive terms of every
supported family share nested denominators, so each step multiplies the
running numerator by the new binomials and adds the next term's
numerator.  A term's q-integer [N]_{q^s} = (1 - q^{sN}) / (1 - q^s)
enters as one binomial 1 - q^{sN}; the divisor 1 - q^s, common to every
term, is held in the denominator.

A sum is described once, by its plan (plan_sum): its run of steps (the
whole value, a scale included, each term with an integer coefficient;
the empty run is 0), denominator, cofactor, held divisor and a count
bound on its numerator.  The local path reads the run (local), the
global path builds it at a slot width proven from that bound, numerator
and nested product each one packed integer (polycore._pack), each
binomial one shift-subtract.  A global check never unpacks its sums
(congruence); only SeriesSum.series, which no check calls, unpacks a sum
and divides its held divisor out.

A specialized parametric sum stops at its first vanishing term k0: every
later term is zero, and the binomials of steps k0..upper enter the full
last-term denominator F_upper but not the numerator; they are carried
unexpanded as the sum's cofactor, which divides the denominator.  A sum
that never vanishes has cofactor 1.

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
simply truncate the sum.  A J-family spec can ask for the printed reading
of a base-raised target instead, q^{k^2} [6k+1]_{q^2} whatever the base,
because the two readings of that target disagree on the prefactor.
target_sign is the sign of the sextic targets' (-q)^{(1-n)/2}, at q = 1 too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from .polycore import (
    Poly,
    _divide_one_minus,
    _pack,
    _packed_one_minus,
    _slots,
    _times_one_minus,
)

PLAIN_FAMILIES = ("C", "J", "M")
PARAMETRIC_FAMILIES = ("C_PARAM", "J_PARAM")
FAMILIES = PLAIN_FAMILIES + PARAMETRIC_FAMILIES
SEXTIC_FAMILIES = ("J", "J_PARAM")


def target_sign(family: str, n: int) -> int:
    """(-1)^{(n-1)/2} for the sextic families, 1 for the others; n is odd."""
    return -1 if family in SEXTIC_FAMILIES and (n - 1) // 2 % 2 else 1


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

    def divided_by(self, other: "FactoredProduct") -> "FactoredProduct":
        """self / other, exactly; other's binomials must be among self's."""
        rest = Counter(self.factors)
        rest.subtract(other.factors)
        for m, left in rest.items():
            if left < 0:
                raise ValueError(f"(1 - q^{m})^{other.factors[m]} does not "
                                 "divide the product")
        return FactoredProduct(dict(+rest))

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
    """A truncated sum as (cofactor * N) / denominator.

    cofactor and denominator are factored products, cofactor dividing
    denominator.  numerator is a Poly, or a run of _planned that is only
    ever built packed; it is N times the binomials of extra (an undivided
    1 - q^step, the 1 - q of a scale), so it is held over held,
    denominator / cofactor times extra, set as the sum is made.  packed(w)
    builds it as one integer (polycore._pack) in slots of w bytes, once
    per w; bits is a count bound: every |c| of it is below 2^bits.
    """

    numerator: object
    denominator: FactoredProduct = field(default_factory=FactoredProduct)
    cofactor: FactoredProduct = field(default_factory=FactoredProduct)
    extra: FactoredProduct = field(default_factory=FactoredProduct)
    bits: Optional[int] = None
    held: FactoredProduct = field(init=False, repr=False, compare=False)
    _built: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        # raises unless the cofactor divides the denominator
        reduced = self.denominator.divided_by(self.cofactor)
        self.held = FactoredProduct(dict(Counter(self.extra.factors)
                                         + Counter(reduced.factors)))
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
        numerator = [([*ups, *up] if k == 0 else ups, dens, top,
                      shift + (1 - n) // 2, coeff * c)
                     for k, (ups, dens, top, shift, coeff)
                     in enumerate(self.numerator)]
        return replace(self, numerator=numerator,
                       extra=FactoredProduct(dict(+extra)),
                       bits=self.bits + len(up) + (abs(c) - 1).bit_length())

    def packed(self, w: int) -> tuple[int, int]:
        """(the built value at q = 2^(8w), its offset), built once per w;
        it unpacks exactly when bits <= 8w - 1."""
        if w not in self._built:
            num = self.numerator
            # a Poly numerator comes only from the tests' sides
            self._built[w] = (_pack(num.coeffs, w), num.offset) \
                if isinstance(num, Poly) else _accumulate(num, w)
        return self._built[w]

    # kept only for sum_truncated, which perfbench/tracing.py wraps
    def series(self) -> "SeriesSum":
        """The sum with a Poly numerator: built at its own width, unpacked
        once and divided by extra in place, exactly."""
        w = self.bits // 8 + 1
        x, off = self.packed(w)
        cs = _slots(x, w) if x else []
        for m in Counter(self.extra.factors).elements() if x else ():
            if not _divide_one_minus(cs, m):
                raise AssertionError(f"inexact division by 1 - q^{m}")
        return SeriesSum(Poly(cs, off), self.denominator, self.cofactor)


@dataclass
class FamilySpec:
    """Which family, in which base q^s, truncated at which upper index.

    For parametric families t (odd) is the specialization exponent.
    printed (J families only) takes the printed reading of the term,
    q^{k^2} [6k+1]_{q^2}, in place of q^{s k^2} [6k+1]_{q^s}.
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
        if self.family in PARAMETRIC_FAMILIES:
            if self.t is None:
                raise ValueError("parametric families need a specialization t")
            if self.t % 2 == 0:
                raise ValueError("specialization exponent t must be odd")
        elif self.t is not None:
            raise ValueError("plain families take no specialization")
        if self.printed and self.family not in SEXTIC_FAMILIES:
            raise ValueError("the printed reading is J-family only")


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


def _q_integer_step(spec: FamilySpec) -> int:
    """The base q^step of every term's q-integer; 0 for M, which has none."""
    if spec.family in ("C", "C_PARAM"):
        return spec.base
    if spec.family in SEXTIC_FAMILIES:
        return 2 if spec.printed else spec.base
    return 0


def _term_binomial(spec: FamilySpec, k: int) -> tuple[Optional[int], int]:
    """(top, shift): term k's numerator is prod_k (1 - q^top) q^shift over
    1 - q^step, its q-integer [N]_{q^step} = (1 - q^{step N}) / (1 - q^step)
    written as one binomial; top is None for M."""
    s, step = spec.base, _q_integer_step(spec)
    if spec.family in ("C", "C_PARAM"):
        return step * (4 * k + 1), 0
    if spec.family in SEXTIC_FAMILIES:
        return step * (6 * k + 1), (1 if spec.printed else s) * k * k
    return None, 2 * s * k


def _steps(spec: FamilySpec) -> list[tuple]:
    """The steps k = 0..upper of spec for _planned."""
    return [(*(_step_exponents(spec, k) if k else ([], [])),
             *_term_binomial(spec, k)) for k in range(spec.upper + 1)]


def _planned(steps: list[tuple], step: int = 0) -> SeriesSum:
    """The sum of steps over the common (last) denominator, planned.

    Step k is (ups, dens, top, shift): prod_k is prod_{k-1} times 1 - q^e,
    e in ups; term k is prod_k (1 - q^top) q^shift / (1 - q^step) (no
    binomial for top None, no divisor for step 0) over the binomials of
    dens of steps 0..k, unit * F_k with F_{k-1} dividing F_k.  The run
    keeps each step's binomials of F_k / F_{k-1} and its term's offset
    and integer coefficient, the unit's sign.  From a zero in ups on,
    every term is zero and each step's binomials go to the cofactor.  bits
    counts: each binomial at most doubles max|c|, so term j times the
    binomials of later steps stays below 2^num_bits, and the sum of the
    terms below 2^(num_bits + bits(terms)).
    """
    factors: dict[int, int] = {}
    tail: Optional[dict[int, int]] = None   # cofactor, once stopped
    run = []
    unit_sign, unit_power = 1, 0
    prod_bits, num_bits = 1, 0
    for ups, dens, top, shift in steps:
        new = []
        for e in dens:
            if e == 0:
                raise ZeroDivisionError("vanishing denominator factor")
            if e < 0:
                unit_sign, unit_power, e = -unit_sign, unit_power + e, -e
            factors[e] = factors.get(e, 0) + 1
            new.append(e)
        if tail is None and 0 in ups:
            tail = {}
        if tail is not None:
            for e in new:
                tail[e] = tail.get(e, 0) + 1
            continue
        prod_bits += len(ups)
        num_bits = max(num_bits + len(new), prod_bits + (top is not None))
        run.append((ups, new, top, shift - unit_power, unit_sign))
    return SeriesSum(run, FactoredProduct(factors),
                     FactoredProduct(tail or {}),
                     FactoredProduct({step: 1} if step else {}),
                     num_bits + len(run).bit_length())


def _accumulate(run: list[tuple], w: int) -> tuple[int, int]:
    """The held numerator of a run of _planned in slots of w bytes, and its
    offset (0 for the empty run): kept over F_k (1 - q^step), it is
    multiplied by each step's binomials and takes the term times 1 -
    q^step, coeff prod_k (1 - q^top) q^shift, with no division.  The
    numerator and prod are packed integers, so each binomial is one
    shift-subtract, and a coefficient -1 a negation (on a long int, ten
    times cheaper than a product)."""
    bits = 8 * w
    prod, prod_off = 1, 0
    num, num_off = 0, 0
    for ups, new, top, shift, coeff in run:
        for e in ups:
            prod, move = _packed_one_minus(prod, e, bits)
            prod_off += move
        for e in new:
            num -= num << bits * e
        term, move = (prod, 0) if top is None \
            else _packed_one_minus(prod, top, bits)
        term_off = prod_off + move + shift
        if coeff == -1:
            term = -term
        elif coeff != 1:
            term *= coeff
        if term_off >= num_off:
            num += term << bits * (term_off - num_off)
        else:
            num = (num << bits * (num_off - term_off)) + term
            num_off = term_off
    return num, num_off


# kept only for perfbench/tracing.py, which wraps it by congruence's name
def sum_truncated(spec: FamilySpec) -> SeriesSum:
    """Sum of the terms k = 0..upper over the common (last) denominator.

    The first zero term (k0 >= 1, as term 0 is 1; only a vanishing
    numerator factor makes one) stops the sum: the binomials of steps
    k0..upper become the cofactor, and the numerator is the sum of the
    terms k < k0 over F_{k0-1}.  The sum is built at its own width,
    unpacked once and divided by its q-integers' 1 - q^step in place.
    """
    return plan_sum(spec).series()


def plan_sum(spec: FamilySpec, start: int = 0) -> SeriesSum:
    """The sum of the terms k = start..upper over the whole denominator
    F_upper, planned from its steps alone: steps 0..start enter as one
    step that carries term start's q-integer and shift."""
    if not 0 <= start <= spec.upper:
        raise ValueError("start must be in 0..upper")
    steps = _steps(spec)
    first = ([e for step in steps[:start + 1] for e in step[0]],
             [e for step in steps[:start + 1] for e in step[1]],
             *steps[start][2:])
    return _planned([first, *steps[start + 1:]], _q_integer_step(spec))


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
