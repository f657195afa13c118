"""Slow reference implementations the tests compare the engine against.

None of them is used by the engine.  First the polynomial arithmetic
that only the tests need, one coefficient or one list pass at a time:
shift, scale, sum, power, exact evaluation, 1 - q^e, the q-integer, and
products and exact quotients by binomials (the oracle for the packed
sums and lifts).  Then the quadratic schoolbook product (the oracle for
the Kronecker product), monic long division (the oracle for the
binomial-pass valuation and cyclotomic construction), the rewrite of
1 - q^m to a positive base, Euler's totient, the cyclotomic content of
a binomial, a family term, the scale of a sum held as a Poly, the
pole-free q = 1 value of an unspecialized term, the sums built with one
list pass per binomial from the Pochhammer symbols of each family (the
oracle for the packed accumulator and for qseries's steps), [n] as
binomials, the cross-multiplied sides as polynomials (the oracle for
the packed lifts and delta), the raw steps of a plan summed with no
exponent turned (the oracle for the plan's turning), and the product
conjectures through the global path, their sums expanded and multiplied
out (the oracle for the local path), the local path's runs to their
last step, every unit applied (the oracle for its stopped runs), the
value of a Laurent polynomial in A_P one monomial at a time (the oracle
for the power, unit and product of both row forms), and its l1 bounds
row by row (the oracle for the two-number majorants that prove
a packed width).
Also here: Jackson's terminating 6phi5 summation, its two sides as plans
compared exactly, and the global cases of the two fingerprint sweeps,
which the width and cross-path tests run.  And the classical side as
exact rationals: each unspecialized term at q = 1, each truncation summed
as Fractions term by term, its valuations and residues read off the
reduced rational, and each term's valuation taken whole (the oracle for
padic's integer numerators and Kummer's carries).
"""

import functools
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from qcongruence import congruence, local
from qcongruence.cli import CHECKS, RunConfig, enumerate_cases
from qcongruence.padic import _require_odd_prime, padic_valuation
from qcongruence.polycore import INFINITE, Poly
from qcongruence.qseries import (
    FactoredProduct,
    FamilySpec,
    SeriesSum,
    _planned,
    eta_product_coefficients,
    plan_sum,
    sum_truncated,
    target_sign,
)


# ---------------------------------------------------------------------------
# polynomial arithmetic, one coefficient at a time


def shift(p: Poly, e: int) -> Poly:
    """p * q^e."""
    return Poly(p.coeffs, p.offset + e)


def scale(p: Poly, c: int) -> Poly:
    """p * c."""
    return Poly([c * x for x in p.coeffs], p.offset)


def add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    """a + sign * b, each coefficient added at its exponent."""
    low = min(a.offset, b.offset)
    out = [0] * (max(a.high_degree, b.high_degree) + 1 - low)
    for p, s in ((a, 1), (b, sign)):
        for i, c in enumerate(p.coeffs, p.offset - low):
            out[i] += s * c
    return Poly(out, low)


def sub(a: Poly, b: Poly) -> Poly:
    """a - b."""
    return add(a, b, -1)


def power(p: Poly, n: int) -> Poly:
    """p^n, n >= 0, by n general products."""
    out = Poly.one()
    for _ in range(n):
        out = out * p
    return out


def eval_at(p: Poly, x) -> Fraction:
    """The exact rational value of p at x, by Horner's rule."""
    x = Fraction(x)
    if p.offset < 0 and x == 0:
        raise ZeroDivisionError("evaluation at 0 with negative offset")
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc * x ** p.offset


def one_minus_q(e: int) -> Poly:
    """The binomial 1 - q^e (zero when e == 0)."""
    if e == 0:
        return Poly.zero()
    if e > 0:
        return Poly([1] + [0] * (e - 1) + [-1])
    return Poly([-1] + [0] * (-e - 1) + [1], e)


def q_integer(n: int, base: int = 1) -> Poly:
    """1 + q^s + ... + q^{s(n-1)}; the q-analogue of n in base q^s.

    >>> q_integer(3).coeffs
    (1, 1, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if base < 1:
        raise ValueError("base exponent must be >= 1")
    return Poly([1 if i % base == 0 else 0 for i in range(base * (n - 1) + 1)])


def times_one_minus(p: Poly, exps) -> Poly:
    """p * prod over exps of (1 - q^e), one list pass per binomial: out[i]
    = cs[i] - cs[i - m]; a negative e as q^e (q^-e - 1), and e == 0 gives
    zero.

    >>> p = times_one_minus(Poly.one(), [2, -1])
    >>> p.coeffs, p.offset
    ((-1, 1, 1, -1), -1)
    """
    cs, offset = list(p.coeffs), p.offset
    for e in exps:
        if e == 0:
            return Poly.zero()
        m = abs(e)
        lo, hi = cs + [0] * m, [0] * m + cs
        cs = [y - x for x, y in zip(lo, hi)] if e < 0 \
            else [x - y for x, y in zip(lo, hi)]
        offset += min(e, 0)
    return Poly(cs, offset)


def _divided_by_one_minus(p: Poly, m: int) -> Poly:
    # the exact quotient by 1 - q^m: running sums along each class mod m
    if p.is_zero():
        return p
    y = list(p.coeffs)
    for i in range(m, len(y)):
        y[i] += y[i - m]
    assert len(y) > m and not any(y[-m:]), f"inexact division by 1 - q^{m}"
    return Poly(y[:-m], p.offset)


def times_binomials(p: Poly, net: dict[int, int]) -> Poly:
    """p * prod over m of (1 - q^m)^net[m], m >= 1: one pass per binomial
    of positive exponent, then one exact division per binomial of negative
    exponent; an inexact one raises AssertionError.

    >>> times_binomials(Poly([1, 1]), {4: 1, 2: -1}).coeffs
    (1, 1, 1, 1)
    """
    p = times_one_minus(p, [m for m, g in net.items() for _ in range(g)])
    for m, g in net.items():
        for _ in range(-g):
            p = _divided_by_one_minus(p, m)
    return p


def _schoolbook(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        if x == 1:
            for j, y in enumerate(b):
                out[i + j] += y
        elif x == -1:
            for j, y in enumerate(b):
                out[i + j] -= y
        else:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def mul_schoolbook(a: Poly, b: Poly) -> Poly:
    """Reference quadratic product, the oracle for the Kronecker product."""
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    return Poly(_schoolbook(a.coeffs, b.coeffs), a.offset + b.offset)


def _dense(p: Poly) -> list:
    # coefficients from exponent 0; p must be an ordinary polynomial
    assert p.offset >= 0, "long division takes no negative exponents"
    return [0] * p.offset + list(p.coeffs)


def div_rem_by_monic(a: Poly, m: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a monic m of degree >= 1, by long
    division over the integers: a == q*m + r with deg(r) < deg(m).

    >>> q, r = div_rem_by_monic(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
    >>> (q.coeffs, r.coeffs)
    ((1, 1, 1), ())
    """
    r, mc = _dense(a), _dense(m)
    dm = len(mc) - 1
    assert dm >= 1 and mc[-1] == 1, "divisor must be monic and nonconstant"
    # the divisor's nonzero coefficients, each at its offset from the top
    terms = [(j - dm, x) for j, x in enumerate(mc) if x]
    q = [0] * max(len(r) - dm, 0)
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i]
        if c:
            q[i - dm] = c
            for j, x in terms:
                r[i + j] -= c * x
    return Poly(q), Poly(r[:dm])


def normalize_one_minus_pow(m: int) -> tuple[tuple[int, int], int]:
    """Rewrite 1 - q^m with a positive-exponent base factor.

    Returns ((sign, exponent), factor_index) with
    1 - q^m == sign * q^exponent * (1 - q^factor_index).

    >>> normalize_one_minus_pow(-2)
    ((-1, -2), 2)
    >>> normalize_one_minus_pow(5)
    ((1, 0), 5)
    """
    if m == 0:
        raise ValueError("1 - q^0 is zero: degenerate factor")
    if m > 0:
        return (1, 0), m
    return (-1, m), -m


def euler_phi(n: int) -> int:
    """Euler's totient, by counting the residues prime to n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def ord_cyclotomic_in_one_minus_pow(d: int, m: int) -> int:
    """Multiplicity of the d-th cyclotomic polynomial in 1 - q^m.

    Since q^m - 1 is the squarefree product of the cyclotomic polynomials
    over the divisors of m, the answer is 1 exactly when d divides m.
    """
    if d < 2:
        raise ValueError("cyclotomic index must be >= 2")
    if m < 1:
        raise ValueError("exponent must be >= 1")
    return 1 if m % d == 0 else 0


def term_of(spec: FamilySpec, k: int) -> tuple[Poly, FactoredProduct]:
    """The exact k-th term as (numerator, factored denominator): the sum
    of the terms k..k, planned by plan_sum."""
    if k < 0:
        raise ValueError("k must be >= 0")
    term = plan_sum(replace(spec, upper=k), k).series()
    return term.numerator, term.denominator


def scaled(series: SeriesSum, n: int, c: int) -> SeriesSum:
    """series * c q^{(1-n)/2} [n] for a sum held as a Poly, n odd: the
    oracle of SeriesSum.scaled on a plan.  [n] = (1 - q^n) / (1 - q)
    cancels a 1 - q^n of extra or else multiplies the numerator, and
    1 - q joins extra."""
    extra, up = Counter(series.extra.factors), [n]
    if extra[n]:
        extra[n], up = extra[n] - 1, []
    extra[1] += 1
    numerator = scale(shift(times_one_minus(series.numerator, up),
                            (1 - n) // 2), c)
    return SeriesSum(numerator, series.denominator, series.cofactor,
                     FactoredProduct(dict(+extra)))


@functools.cache
def central_q_binomial(k: int, base: int = 1) -> Poly:
    """(q^s;q^s)_{2k} / (q^s;q^s)_k^2, an integer polynomial: the product
    of q^{si} - 1 over k < i <= 2k, long-divided by q^{si} - 1 for i <= k.
    Memoized per (k, base); a Poly is immutable, so sharing it is safe.
    """
    num = Poly.one()
    for i in range(k + 1, 2 * k + 1):
        num = num * scale(one_minus_q(base * i), -1)
    for i in range(1, k + 1):
        num, rem = div_rem_by_monic(num, scale(one_minus_q(base * i), -1))
        assert rem.is_zero()
    return num


def term_value_at_one(family: str, k: int) -> Fraction:
    """Pole-free q = 1 evaluation of the k-th unspecialized term.

    Each shifted-factorial ratio is rewritten through the central
    q-binomial coefficient divided by (-q^s;q^s)_k^2 so that no factor
    vanishes at q = 1; the pieces are then evaluated exactly.
    """
    minus_poch1 = minus_poch2 = Fraction(2) ** k  # (-q;q)_k, (-q^2;q^2)_k
    cqb1 = eval_at(central_q_binomial(k, 1), 1)
    if family == "C":
        return (4 * k + 1) * (cqb1 / minus_poch1 ** 2) ** 4
    if family == "M":
        return (cqb1 / minus_poch1 ** 2) ** 4
    cqb2 = eval_at(central_q_binomial(k, 2), 1)
    ratio_a = cqb1 / (minus_poch1 ** 2 * minus_poch2)
    ratio_b = cqb2 / minus_poch2 ** 2
    return (6 * k + 1) * ratio_a ** 2 * ratio_b


def _pochhammers(spec) -> tuple[list, list]:
    """The (a, b) of each Pochhammer symbol (q^a; q^b)_k of term k of spec,
    its numerator's and its denominator's, as the qseries docstring writes
    them; step k multiplies each by 1 - q^{a + b (k - 1)}."""
    s, t = spec.base, spec.t
    if spec.family == "J" and t is None:
        return [(s, 2 * s), (s, 2 * s), (2 * s, 4 * s)], [(4 * s, 4 * s)] * 3
    if spec.family == "J":
        return ([(s + t, 2 * s), (s - t, 2 * s), (2 * s, 4 * s)],
                [(4 * s + t, 4 * s), (4 * s - t, 4 * s), (4 * s, 4 * s)])
    if t is None:       # C and M
        return [(s, 2 * s)] * 4, [(2 * s, 2 * s)] * 4
    return ([(s + t, 2 * s), (s - t, 2 * s), (s, 2 * s), (s, 2 * s)],
            [(2 * s + t, 2 * s), (2 * s - t, 2 * s), (2 * s, 2 * s),
             (2 * s, 2 * s)])


def sum_by_passes(spec, stop: bool = True) -> SeriesSum:
    """sum_truncated(spec) on coefficient lists, one pass per binomial.

    Each step multiplies the nested product and then the running
    numerator (over the last denominator) by its binomials, and adds the
    term, whose q-integer is one pass and one exact division.  A zero term
    stops the sum as in the engine: the binomials of the steps from it on
    become the cofactor.  With stop False every step is taken, so the
    numerator takes each binomial and each (zero) term, and the cofactor
    is 1.
    """
    s, pochhammers = spec.base, _pochhammers(spec)
    prod = numerator = Poly.one()
    factors, tail = {}, None
    unit_sign, unit_power = 1, 0
    for k in range(1, spec.upper + 1):
        ups, dens = ([a + b * (k - 1) for a, b in symbols]
                     for symbols in pochhammers)
        prod = times_one_minus(prod, ups)
        if spec.family == "C":
            term = _divided_by_one_minus(
                times_one_minus(prod, [s * (4 * k + 1)]), s)
        elif spec.family == "J":
            prefix, step = (1, 2) if spec.printed else (s, s)
            term = shift(_divided_by_one_minus(times_one_minus(
                prod, [step * (6 * k + 1)]), step), prefix * k * k)
        else:
            term = shift(prod, 2 * s * k)
        if stop and term.is_zero() and tail is None:
            tail = {}
        new = []
        for e in dens:
            if e < 0:
                unit_sign, unit_power, e = -unit_sign, unit_power + e, -e
            factors[e] = factors.get(e, 0) + 1
            new.append(e)
        if tail is not None:
            for e in new:
                tail[e] = tail.get(e, 0) + 1
            continue
        numerator = add(times_one_minus(numerator, new),
                        shift(scale(term, unit_sign), -unit_power))
    return SeriesSum(numerator, FactoredProduct(factors),
                     FactoredProduct(tail or {}))


def raw_steps_sum(steps) -> tuple[Poly, Poly]:
    """(N, D), the sum of qseries._planned's raw steps (ups, dens, tops,
    shift) as N / D, with no exponent turned: every binomial is multiplied
    in by times_one_minus as its exponent comes, negative or zero, and no
    sum is stopped, since a zero in ups makes every later term zero by
    itself.  D is the product of every step's dens, and N the terms, each
    times the dens of the steps after it."""
    prod, num, den = Poly.one(), Poly.zero(), Poly.one()
    for ups, dens, tops, power in steps:
        prod = times_one_minus(prod, ups)
        num, den = times_one_minus(num, dens), times_one_minus(den, dens)
        num = add(num, shift(times_one_minus(prod, tops), power))
    return num, den


def raw_steps_side(steps) -> SeriesSum:
    """raw_steps_sum(steps) as a side over positive binomials: the product
    of 1 - q^|e| over the dens is D times a unit +-q^j, read off the two
    polynomials' lowest terms, and N takes that unit."""
    num, den = raw_steps_sum(steps)
    positive = FactoredProduct(dict(Counter(
        abs(e) for step in steps for e in step[1])))
    full = positive.expand()
    unit = Poly([full.coeffs[0] * den.coeffs[0]], full.offset - den.offset)
    assert den * unit == full
    return SeriesSum(num * unit, positive)


def q_integer_binomials(count: int, step: int = 1) -> dict[int, int]:
    """[count] in base q^step as the binomials of times_binomials:
    (1 - q^{step*count}) / (1 - q^step), or none at all for count 1.

    >>> q_integer_binomials(3, 2)
    {6: 1, 2: -1}
    """
    if count == 1:
        return {}
    return {step * count: 1, step: -1}


def lcm_cross_products(lhs: SeriesSum, rhs: SeriesSum):
    """(L, (L / R_L) * lhsN, (L / R_R) * rhsN) as polynomials, for the
    reduced denominators R_L = D_L / C_L and R_R = D_R / C_R and their lcm
    L as multisets of binomials: at each base m, the larger exponent.

    Both products are L * (LHS - RHS) split in two, so they are equal
    exactly when the two sides are.  Each lift L / R is a multiset of
    binomials, multiplied in by times_binomials.
    """
    left = lhs.denominator.divided_by(lhs.cofactor)
    right = rhs.denominator.divided_by(rhs.cofactor)
    lcm = FactoredProduct({m: max(left.factors.get(m, 0),
                                  right.factors.get(m, 0))
                           for m in left.factors | right.factors})
    return (lcm, times_binomials(lhs.numerator, lcm.divided_by(left).factors),
            times_binomials(rhs.numerator, lcm.divided_by(right).factors))


def factored_times(a: FactoredProduct, b: FactoredProduct) -> FactoredProduct:
    """The product of two multisets of binomials: exponents added."""
    return FactoredProduct(dict(Counter(a.factors) + Counter(b.factors)))


def series_times(a: SeriesSum, b: SeriesSum) -> SeriesSum:
    """The product of two sums: the numerators multiplied out, the
    denominators and the cofactors merged."""
    return SeriesSum(a.numerator * b.numerator,
                     factored_times(a.denominator, b.denominator),
                     factored_times(a.cofactor, b.cofactor))


#: kind -> (divisor of the ranges, None for the d axis; exponent of Phi_n;
#: whether the inner base is n^2 rather than n)
PRODUCT_CONJECTURES = {"conj41": (1, 3, True), "conj42": (2, 3, True),
                       "conj43": (None, 2, False)}


def product_conjecture_global(kind: str, n: int, r: int = 1, d: int = 2):
    """The product conjecture's report through the global path: the
    M-family sums to (n^{r+1} - 1) / div against (n - 1) / div times
    (n^r - 1) / div in base n^2 or n, modulo Phi_n^exponent, built by
    sum_truncated, the right side's two multiplied out, and certified by
    congruence.check_congruence, looked up when called."""
    div, exponent, squared = PRODUCT_CONJECTURES[kind]
    div = div or d
    lhs = sum_truncated(FamilySpec("M", 1, (n ** (r + 1) - 1) // div))
    first = sum_truncated(FamilySpec("M", 1, (n - 1) // div))
    second = sum_truncated(FamilySpec("M", n * n if squared else n,
                                      (n ** r - 1) // div))
    return congruence.check_congruence(
        lhs, series_times(first, second),
        congruence.ModulusSpec([(n, exponent)]), conjectural=True)


def local_run_full(ring, series, numerator: list, prod: list,
                   lift: int = 0) -> list:
    """local._run over the whole of series' run, the steps after its last
    live term included: the oracle for the stopped run."""
    for (ups, dens, tops, shift, coeff), gap in zip(series.run, series.gaps):
        for e in dens:
            numerator = ring.times_unit(numerator, e)
        for e in ups:
            prod = ring.times_unit(prod, e)
        if lift + gap >= ring.precision:
            continue
        term = prod
        for e in tops:
            term = ring.times_unit(term, e)
        if shift:
            term = ring.times_power(term, shift)
        numerator = ring.add(numerator, ring.shifted(term, lift + gap), coeff)
    return numerator


def local_evaluate_full(ring, series) -> tuple[list, list]:
    """(V, B) of the sum from its whole run, B the units of every step's
    denominator and of the held divisor."""
    units = ring.one()
    for e in [e for step in series.run for e in step[1]] + series.extra:
        units = ring.times_unit(units, e)
    return local_run_full(ring, series, ring.zero(), ring.one()), units


def local_bracket_full(ring, a, b, lift_a: int, lift_b: int) -> list:
    """local._bracket of two single sums from their whole runs: the longer
    run, seeded with the other sum's V and B."""
    (long, up), (short, low) = (a, lift_a), (b, lift_b)
    if len(short.run) > len(long.run):
        (long, up), (short, low) = (short, low), (long, up)
    v, units = local_evaluate_full(ring, short)
    seed = ring.shifted(v, low)
    for e in long.extra:
        seed = ring.times_unit(seed, e)
    return local_run_full(ring, long, ring.add(ring.zero(), seed, -1), units,
                          up)


def local_value(coeffs, offset: int, d: int, precision: int) -> list:
    """sum_k coeffs[k] q^(offset + k) in A_P = (Z[g]/(g^d - 1))[x]/(x^P),
    q -> g (1 + x), as P rows of d slots: each monomial c q^s adds c C(s,
    i), the falling factorial s (s - 1) .. (s - i + 1) over i!, to slot s
    mod d of row i."""
    rows = [[0] * d for _ in range(precision)]
    for k, c in enumerate(coeffs):
        s = offset + k
        for i in range(precision):
            falling = math.prod(range(s - i + 1, s + 1))
            rows[i][s % d] += c * (falling // math.factorial(i))
    return rows


class LocalNorms(local._Rows):
    """l1 bounds on A_P, row by row: each row an int at least the l1 norm,
    the sum of the |coefficients|, of that row of the element it stands
    for.  Every operation mirrors local._Ring's by the triangle
    inequality: a rotation keeps a row's norm, a weight counts as its
    absolute value, and the norm of a cyclic convolution is at most the
    product of the norms.  The oracle for local._Norms's majorants,
    which bound these rows."""

    def _times_series(self, a: list, weights: list) -> list:
        out = []
        for i in range(self.precision):
            bound = 0
            for t in range(i + 1):
                bound += abs(weights[i - t]) * a[t]
            out.append(bound)
        return out

    def times_power(self, a: list, s: int) -> list:
        return self._times_series(a, self._binomial_series(s))

    def times_unit(self, a: list, e: int) -> list:
        series = self._binomial_series(e)
        if e % self.d == 0:
            return self._times_series(a, series[1:])
        # a - a q^e: a's bound plus a q^e's
        return [x + y for x, y in zip(a, self._times_series(a, series))]

    def mul(self, a: list, b: list) -> list:
        return self._times_series(a, b)

    def add(self, a: list, b: list, c: int) -> list:
        return [x + abs(c) * y for x, y in zip(a, b)]


def jackson_6phi5_terminating(a_exp: int, b_exp: int, c_exp: int,
                              n_upper: int, base: int = 1) -> bool:
    """Verify the terminating very-well-poised 6phi5 summation exactly:
    with every parameter a monomial q^exp in base q^s, the sum over k =
    0..N of (1-q^{A+2sk})/(1-q^A) q^{(A+s(N+1)-B-C)k} *
      (q^A;q^s)_k (q^B;q^s)_k (q^C;q^s)_k (q^{-sN};q^s)_k /
      ((q^s;q^s)_k (q^{A-B+s};q^s)_k (q^{A-C+s};q^s)_k (q^{A+s(N+1)};q^s)_k)
    equals (q^{A+s};q^s)_N (q^{A-B-C+s};q^s)_N /
    ((q^{A-B+s};q^s)_N (q^{A-C+s};q^s)_N).
    """
    s, a, b, c, n = base, a_exp, b_exp, c_exp, n_upper
    if s < 1:
        raise ValueError("base exponent must be >= 1")
    if n < 0:
        raise ValueError("upper index must be >= 0")
    lam = a + s * (n + 1) - b - c
    # step 0 is the term 1 as (1 - q^a) / (1 - q^a); step k multiplies the
    # nested product by the k-th numerator factors of the four shifted
    # factorials, and its term carries 1 - q^{A+2sk}.  A vanishing
    # denominator factor raises ZeroDivisionError in the plan.
    lhs = _planned([([], [a], [a], 0)] + [
        ((a + s * (k - 1), b + s * (k - 1), c + s * (k - 1), s * (k - 1 - n)),
         [s * k, a - b + s * k, a - c + s * k, a + s * (n + k)],
         [a + 2 * s * k], lam * k) for k in range(1, n + 1)])

    # the closed form as one term: the plan turns its negative exponents
    # around and moves their units into the term's sign and shift
    ks = range(1, n + 1)
    rhs = _planned([(
        [e for k in ks for e in (a + s * k, a - b - c + s * k)],
        [e for k in ks for e in (a - b + s * k, a - c + s * k)], [], 0)])
    return congruence.check_identity_equal(lhs, rhs)


def sweep_cases() -> dict:
    """(kind, params items) -> params for the global cases of both
    fingerprint sweeps, each once: every q-side case but the product
    conjectures, which go the local path."""
    cases = {}
    for name in ("reference.json", "all-checks.json"):
        path = Path(__file__).resolve().parent.parent / "sweeps" / name
        cfg = RunConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
        for kind, params in enumerate_cases(cfg):
            if not CHECKS[kind].classical and kind not in PRODUCT_CONJECTURES:
                cases[kind, tuple(params.items())] = params
    return cases


def classical_term_value(family: str, k: int) -> Fraction:
    """Exact rational limit of the k-th unspecialized term at q = 1.

    All three reduce to central binomial coefficients over powers of 4:
    C(2k,k)/4^k is the classical normalized half-integer ratio.
    """
    if family not in ("C", "J", "M"):
        raise ValueError("classical values exist for C, J and M only")
    if k < 0:
        raise ValueError("k must be >= 0")
    central = math.comb(2 * k, k)
    if family == "C":
        return Fraction((4 * k + 1) * central ** 4, 256 ** k)
    if family == "J":
        return Fraction((6 * k + 1) * central ** 3, 256 ** k)
    return Fraction(central ** 4, 256 ** k)


def fraction_valuation(x: Fraction, p: int):
    """v_p of a rational; INFINITE for 0."""
    if x == 0:
        return INFINITE
    return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)


def truncation(p: int, r: int, cap: int = None) -> list[Fraction]:
    """Coefficients A_0..A_{p^r-1} of the quartic central-binomial series,
    optionally capped at index cap."""
    _require_odd_prime(p)
    if r < 0:
        raise ValueError("r must be >= 0")
    count = p ** r
    if cap is not None:
        if cap < 0:
            raise ValueError("cap must be >= 0")
        count = min(count, cap + 1)
    return [classical_term_value("M", k) for k in range(count)]


def classical_sum(family: str, upper: int) -> Fraction:
    """The unspecialized family's truncation to upper at q = 1, as
    Fractions."""
    return sum((classical_term_value(family, k) for k in range(upper + 1)),
               Fraction(0))


#: classical quotient check -> (family, divisor of the ranges)
CLASSICAL_COMPANIONS = {"c2": ("C", 2), "j2": ("J", 2), "c3": ("C", 2),
                        "j3": ("J", 2), "cc": ("C", 1), "jj": ("J", 1)}


def companion_valuation(kind: str, p: int, r: int = 1):
    """v_p of the sum to (p^r - 1) // div minus +-p times the sum to
    (p^{r-1} - 1) // div, both as Fractions: the valuation verify_van_hamme
    (kind c2 or j2, at r = 1) and verify_swisher report."""
    family, div = CLASSICAL_COMPANIONS[kind]
    inner = classical_sum(family, (p ** (r - 1) - 1) // div)
    return fraction_valuation(classical_sum(family, (p ** r - 1) // div)
                              - target_sign(family, p) * p * inner, p)


def m2_values(p: int) -> tuple:
    """(half residue, full residue, v_p(full - gamma_p)) of the quartic sums
    to (p - 1) / 2 and p - 1, reduced mod p^3 as Fractions."""
    modulus = p ** 3
    half, full = (classical_sum("M", k) for k in ((p - 1) // 2, p - 1))
    gamma_p = eta_product_coefficients(p)[p - 1]
    return (*(x.numerator * pow(x.denominator, -1, modulus) % modulus
              for x in (half, full)), fraction_valuation(full - gamma_p, p))


def lucas_min_valuation(p: int, r: int):
    """The smallest v_p(A_k) over the vanishing windows (p^s+1)/2 <= k <=
    p^s-1, s = 1..r, each term's valuation taken of the whole rational."""
    return min(fraction_valuation(classical_term_value("M", k), p)
               for s in range(1, r + 1)
               for k in range((p ** s + 1) // 2, p ** s))
