"""One Phi_d part of a congruence, certified at q = zeta_d (1 + x).

Phi_d is irreducible and separable, and Phi_d(zeta (1 + x)) is x times a
unit of Q(zeta)[[x]] for a primitive d-th root of unity zeta, so the
Phi_d-adic valuation of every nonzero f in Z[q, 1/q] is the x-order of
f(zeta (1 + x)).  (This is the expansion at a root of unity behind the
"creative microscoping" of Guo and Zudilin.)  Here that order is read in

    A_P = (Z[g]/(g^d - 1))[x]/(x^P),   q -> g (1 + x),

an element being P rows, one per power of x below P, each standing for d
exact integers, the coefficients of g^0 .. g^(d-1).  Z[g]/(g^d - 1) maps
onto Z[zeta], so nothing is reduced until a row is tested for zero
modulo Phi_d(g), by valuation_at's residue test (cyclotomic._count_phi).
No sum is ever expanded in q: each is read off the run of its plan
(qseries.plan_sum), and each binomial costs P (P + 1) / 2 row operations.

A row is held packed, as one integer: its value at g = 2^W modulo M =
2^(dW) - 1, for slots of W = 8w bits.  2^(dW) is 1 modulo M, so g ->
2^W is a ring map from Z[g]/(g^d - 1): a rotation by g^j is a shift by
jW bits and a fold (x & M) + (x >> dW), a row operation one integer
multiply-subtract, and the cyclic convolution of two rows one integer
product.  That arithmetic is exact modulo M whatever size the rows
reach on the way; the d coefficients read back (the slots of the
balanced residue, polycore._unpack) only while each is below 2^(W - 1)
in absolute value, and only the rows of the final bracket are read.  So
only those need the width, and it is proven before the work: _bracket
runs first over _Norms, whose elements are majorants, two integers (b,
l) that say row i has l1 norm (the sum of |c|) at most b l^i / i!, and
that each operation moves in O(1).  The largest row bound is
b l^(P - 1) / (P - 1)!, and w is the fewest bytes that hold it with its
sign.  Where that width would pass PACK_BITS, the rows are lists of d
integers instead.  The bound sees no cancellation: it is close at small
d (458 against 349 bits at thm1-full (7, 2), d = 7) but overshoots by
ten times at the top parts of the frontier cases (840 against 66 bits
at thm1-full (7, 3), d = 343), where the lists are the cheaper form.

A monomial and a binomial go over as

    q^s     -> g^(s mod d) sum_i C(s, i) x^i     (C generalized, any s)
    1 - q^e -> x^v u, with
               v = 0, u = 1 - g^(e mod d) (1 + x)^e   if d does not divide e,
               v = 1, u = -sum_i C(e, i + 1) x^i      if d divides e,

and u(0) is nonzero in Z[zeta] (1 - zeta^j with d not dividing j, or
-e), so u is a unit of Q(zeta)[[x]] and the x-order of a product of
binomials is the count v of exponents d divides.  Multiplying a by u or
by q^s is one truncated convolution of a's rows with binomial weights,
rotated by g^j, never a general product: q^s convolves with C(s, .) at
j = s, a unit with d dividing e with -C(e, . + 1) at j = 0, and any
other unit gives a less the convolution with C(e, .) at j = e.  Both
forms of a row run that one algorithm (_Rows), each supplying only its
convolution kernel.

A sum sum_k T_k is held as x^sigma V / B with V and B in A_P and B(0) a
unit.  The x-order m_k of term k is counted from its binomials before
any row is built, and mu is the least of them.  The numerator runs

    V_k = V_{k-1} u(dens_k) + x^(m_k - mu) X_k,

u(dens_k) the product of the units of step k's denominator binomials and
X_k the unit part of term k's numerator, with its coefficient and shift
(which hold the sign, the units -q^e the plan took out of its negative
exponents, and a scale's c q^{(1-n)/2}; the scale's 1 - q^n, unless it
cancels one of extra, is a binomial of step 0); B is the product of every
denominator unit and of those of the held divisor (extra), and sigma is
mu less the x-order of extra.  The run of a sum that stops at a
vanishing term ends before it, so the later steps enter V and B not at
all (their binomials, the cofactor, stay in the nominal denominator and
its content); the empty run is 0.

A sum entered at x^lift runs only to its last live step, the last k
with lift + gap_k below P: each later step only multiplies V and B by
its units and adds a term at x^P or beyond.  So the V and B of the
stopped run both lack the same unit U, the product of those steps'
units, and x^lift V B_full = x^lift V_full B exactly in A_P.  A bracket
built from such pairs is the full one divided by a product of such
units, whose row 0 is nonzero in Z[zeta], a domain; so the first row
nonzero modulo Phi_d(g), and so found, is the same.  At the top part
d = n^r of a quartic sum, every term from k = (n^r + 1) / 2 on holds
(1 - q^(n^r))^4, so with the P = 4 rows of an exponent of 3, half the
run goes.

The difference of two sides, with m the lesser sigma, is

    x^m (x^(sigma_L - m) V_L B_R - x^(sigma_R - m) V_R B_L) / (B_L B_R),

so its x-order is m plus the index of the first row of the bracket that
is nonzero modulo Phi_d(g), and found is that plus the Phi_d content of
both nominal denominators, cofactors included: the valuation of the
cross-multiplied numerator difference, as the global path reports it.
Rows below P are exact, since no factor carries a negative power of x.

When each side is one sum, the bracket comes from one run of the longer
sum S's recurrence, with O the other sum.  B_S is E_S, the units of S's
held divisor, times the units of every live step of S's run, and V_S is
the sum over k of x^(gap_k) X_k times the units of the live steps after
k.  So the accumulator started at -x^(sigma_O - m) V_O E_S, with S's
nested product started at B_O and term k entered at
x^(sigma_S - m + gap_k), ends at

    x^(sigma_S - m) V_S B_O - x^(sigma_O - m) V_O B_S,

the bracket up to sign.  Each unit of S's live steps is applied once, no
general product is formed, and a term at x^P or beyond is skipped.  A
product of sums (the product conjectures) multiplies (sigma, V, B)
componentwise, each factor's run stopped at x^0, and its bracket takes
the two cross products.

P starts at exponent - m + 1, the fewest rows that show found whenever
it is at most the exponent plus the content, and doubles while every row
vanishes.  A nonzero f has v_{Phi_d}(f) <= span(f) / phi(d), with the
span of the Laurent difference bounded from the specs' exponents, so
once the rows reach that bound less m and the content, an all-zero
bracket proves the two sides equal and found is INFINITE.  For two long
sides that are equal, the bound can be thousands of rows; a caller that
can test the equality exactly (check_identity_equal, by its packed
delta) passes that test.  It is asked once the doubled bracket is all
zero too, and P doubles on only when it says the sides differ.  Asked at
the first all-zero bracket, it would build both sums in q for every part
with a positive margin, which one doubling shows: thm1-full (15, 2),
whose d = 45 and d = 75 parts find 2 above their exponents, took 28 s
and 202 MB that way against 1.1 s and 17 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from operator import mul

from .cyclotomic import _count_phi
from .polycore import INFINITE, _unpack
from .qseries import SeriesSum


def _binomials(e: int, count: int) -> list[int]:
    """C(e, 0), .., C(e, count - 1), generalized to any integer e."""
    out = [1]
    for i in range(1, count):
        out.append(out[-1] * (e - i + 1) // i)
    return out


#: The widest slot, in bits, that a packed row may take: a part whose
#: proven width is wider takes the list ring.  Measured part by part,
#: CPU time with its majorant pass, packing is the cheaper at 666 bits at
#: d = 289 (0.35 against 0.40 s) and about even at 1003 bits at d = 11;
#: no part measured at 640 bits or less was slower packed.
PACK_BITS = 640


class _Rows:
    """What the list and packed forms of A_P share for one d and one
    precision P: an element is a list of P rows, row i the coefficient of
    x^i, and the one algorithm for a power and a unit.  A form supplies
    only its kernel, _convolved(a, weights, j, base): g^j sum_t
    weights[i - t] a_t for each row i, or base less that when base is
    given.  Every operation returns new rows and never changes its
    arguments."""

    def __init__(self, d: int, precision: int):
        self.d, self.precision = d, precision
        self._series: dict[int, list[int]] = {}

    def zero(self) -> list:
        return [0] * self.precision

    def one(self) -> list:
        return [1] + [0] * (self.precision - 1)

    def _binomial_series(self, e: int) -> list[int]:
        # C(e, i) for i <= P, computed once per exponent and precision
        if e not in self._series:
            self._series[e] = _binomials(e, self.precision + 1)
        return self._series[e]

    def shifted(self, a: list, k: int) -> list:
        """a * x^k, k >= 0."""
        if k >= self.precision:
            return self.zero()
        return self.zero()[:k] + a[:self.precision - k]

    def times_power(self, a: list, s: int) -> list:
        """a * q^s."""
        return self._convolved(a, self._binomial_series(s), s)

    def times_unit(self, a: list, e: int) -> list:
        """a * u for 1 - q^e = x^v u; v is 1 if d divides e, else 0."""
        series = self._binomial_series(e)
        if e % self.d == 0:
            return self._convolved(a, [-c for c in series[1:]])
        # a - a q^e
        return self._convolved(a, series, e, a)


class _Ring(_Rows):
    """A_P with each row a list of d ints, the coefficients of g^0 ..
    g^(d-1): the form of the parts wider than PACK_BITS.  Its kernel
    rotates a's rows by g^j once, then makes one triangular pass over
    them that skips a zero weight and takes a row as it is for a weight
    of 1; with a base it negates the weights once, so that each row
    operation is an add."""

    def zero(self) -> list:
        return [[0] * self.d for _ in range(self.precision)]

    def one(self) -> list:
        rows = self.zero()
        rows[0][0] = 1
        return rows

    def read(self, row: list) -> list:
        """row's coefficients of g^0 .. g^(d-1)."""
        return row

    def _convolved(self, a: list, weights: list, j: int = 0,
                   base: list = None) -> list:
        j %= self.d
        if j:
            a = [row[-j:] + row[:-j] for row in a]
        if base is not None:
            weights = [-w for w in weights[:self.precision]]
        out = []
        for i in range(self.precision):
            row = None if base is None else base[i]
            for t in range(i + 1):
                w = weights[i - t]
                if not w:
                    continue
                if row is None:
                    row = a[t] if w == 1 else [w * v for v in a[t]]
                else:
                    row = [r + w * v for r, v in zip(row, a[t])]
            out.append(row if row is not None else [0] * self.d)
        return out

    def mul(self, a: list, b: list) -> list:
        """The general product: over each slot s of a's rows, g^s times b
        convolved with that slot's column."""
        out = self.zero()
        for s, column in enumerate(zip(*a)):
            if any(column):
                # out less the convolution with -column adds it
                out = self._convolved(b, [-v for v in column], s, out)
        return out

    def add(self, a: list, b: list, c: int) -> list:
        """a + c b."""
        return [[x + c * y for x, y in zip(r, s)] for r, s in zip(a, b)]


class _Norms:
    """Majorants on A_P: an element is a pair (b, l) of ints, l >= P - 1,
    standing for every element whose row i has l1 norm (the sum of the
    |coefficients|) at most b l^i / i!.  Each operation is O(1) scalar
    work, with r the rate of an exponent (_rate), |C(e, i)| <= r^i / i!:
    a unit is 1 - g^e (1 + x)^e, whose row i has norm at most
    2 r^i / i!, or -sum_i C(e, i + 1) x^i with |C(e, i + 1)| <= |e| r^i
    / i!; a power q^s has rows of norm |C(s, i)|; and by the binomial
    theorem sum_t l1^t / t! l2^(i - t) / (i - t)! = (l1 + l2)^i / i!,
    the norm of a cyclic convolution being at most the product of the
    norms.  A shift by x^k keeps the pair, since i! / (i - k)! <= l^k
    for i < P."""

    def __init__(self, d: int, precision: int):
        self.d, self.precision = d, precision

    def _rate(self, e: int) -> int:
        # |C(e, i)| <= r^i / i! for i <= P: C(-e', i) = (-1)^i C(e' + i
        # - 1, i) for e' > 0
        return e if e >= 0 else self.precision - e

    def zero(self) -> tuple:
        return 0, self.precision

    def one(self) -> tuple:
        return 1, self.precision

    def bound(self, a: tuple) -> int:
        """The largest row norm a proves, b l^(P - 1) / (P - 1)! rounded
        up: l^i / i! grows with i while i < l."""
        b, l = a
        top = self.precision - 1
        return -(-b * l ** top // factorial(top))

    def shifted(self, a: tuple, k: int) -> tuple:
        return a

    def times_power(self, a: tuple, s: int) -> tuple:
        b, l = a
        return b, l + self._rate(s)

    def times_unit(self, a: tuple, e: int) -> tuple:
        b, l = a
        return (abs(e) if e % self.d == 0 else 2) * b, l + self._rate(e)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return a[0] * b[0], a[1] + b[1]

    def add(self, a: tuple, b: tuple, c: int) -> tuple:
        return a[0] + abs(c) * b[0], max(a[1], b[1])


class _Packed(_Rows):
    """A_P with each row one int, its value at g = 2^W modulo M = 2^(dW)
    - 1, W = 8 width, kept in [0, M]: g^d is 1 there, so g -> 2^W is a
    ring map from Z[g]/(g^d - 1), exact whatever the coefficients.  read
    gives a row's coefficients back only while each is below 2^(W - 1)
    in absolute value, so the width comes from the bound that a _Norms
    majorant of the same work proves first.  Its kernel takes each row's
    convolution as one dot product of ints, shifted by jW bits for g^j,
    and folds each row once."""

    def __init__(self, d: int, precision: int, bound: int):
        # slots of w bytes hold every coefficient of absolute value at
        # most bound with its sign
        super().__init__(d, precision)
        self.width = (bound.bit_length() + 8) // 8
        self._bits = 8 * self.width
        self._span = d * self._bits
        self._modulus = (1 << self._span) - 1

    def _fold(self, x: int) -> int:
        # x modulo M, in [0, M]: x = high 2^(dW) + low, and 2^(dW) is 1
        modulus, span = self._modulus, self._span
        while not 0 <= x <= modulus:
            x = (x & modulus) + (x >> span)
        return x

    def read(self, row: int) -> list:
        """row's coefficients of g^0 .. g^(d-1): the slots of its balanced
        residue modulo M."""
        if row > self._modulus >> 1:
            row -= self._modulus
        return _unpack(row, self.width, self.d)

    def _convolved(self, a: list, weights: list, j: int = 0,
                   base: list = None) -> list:
        shift = self._bits * (j % self.d)
        if base is None:
            return [self._fold(sum(map(mul, weights[i::-1], a)) << shift)
                    for i in range(self.precision)]
        return [self._fold(row - (sum(map(mul, weights[i::-1], a)) << shift))
                for i, row in enumerate(base)]

    def mul(self, a: list, b: list) -> list:
        """The general product: each row pair's cyclic convolution is one
        integer product."""
        return self._convolved(b, a)

    def add(self, a: list, b: list, c: int) -> list:
        """a + c b."""
        return [self._fold(x + c * y) for x, y in zip(a, b)]


@dataclass
class _Sum:
    """What a sum's plan says at one d, before any row is built.

    run is the plan's run, the steps before the stop, and gaps their
    terms' m_k - mu; extra lists the binomials of the held divisor;
    content is ord_d of the nominal denominator, cofactor included, and
    degree its degree; low and high bound the exponents of the nominal
    numerator (cofactor times numerator), the sum times that denominator.
    """

    run: list
    extra: list[int]
    gaps: list[int]
    sigma: int
    content: int
    degree: int
    low: int
    high: int


def _read(plan: SeriesSum, d: int) -> _Sum:
    """The x-orders and the exponent bounds of a plan's sum.

    Term k times the nominal denominator times extra is its coefficient
    times q^shift and binomials 1 - q^e, e >= 1: those of prod_k, its own
    and the later steps' dens, so its exponents run from shift to shift
    plus their sum.  The held numerator is exactly divisible by extra, so
    the nominal numerator's top is at most the largest term's less extra's.
    """
    extra = [m for m, e in plan.extra.factors.items() for _ in range(e)]
    up_order = den_order = up_degree = degree = 0
    orders, lows, highs = [], [], []
    for ups, dens, tops, shift, _ in plan.numerator:
        den_order += sum(e % d == 0 for e in dens)
        degree += sum(dens)
        up_order += sum(e % d == 0 for e in ups)
        up_degree += sum(ups)
        orders.append(up_order + sum(e % d == 0 for e in tops) - den_order)
        lows.append(shift)
        highs.append(up_degree + sum(tops) + shift - degree)
    mu, total = min(orders, default=0), sum(
        m * e for m, e in plan.denominator.factors.items())
    return _Sum(plan.numerator, extra, [m - mu for m in orders],
                mu - sum(e % d == 0 for e in extra),
                plan.denominator.ord_cyclotomic(d), total,
                min(lows, default=0),
                max(highs, default=0) + total - sum(extra))


def _live(series: _Sum, lift: int, precision: int) -> list:
    """series' steps, each with its gap, up to the last whose term,
    entered at x^(lift + gap), lies below x^P: the steps after it only
    multiply by units, which leave the bracket's x-order alone."""
    steps = list(zip(series.run, series.gaps))
    while steps and lift + steps[-1][1] >= precision:
        steps.pop()
    return steps


def _run(ring: _Rows, steps: list, numerator: list, prod: list,
         lift: int = 0) -> list:
    """The numerator recurrence over steps (_live), from numerator and the
    nested product prod: each step multiplies numerator by its denominator
    units and adds x^(lift + gap) times its term, skipped when that is x^P
    or beyond."""
    for (ups, dens, tops, shift, coeff), gap in steps:
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


def _evaluate(ring: _Rows, series: _Sum, lift: int = 0) -> tuple[list, list]:
    """(x^lift V, B) of the sum in ring, its value x^sigma V / B, from the
    steps up to the last live one at lift (_live): both lack the units of
    the later steps."""
    steps = _live(series, lift, ring.precision)
    units = ring.one()
    for e in [e for step, _ in steps for e in step[1]] + series.extra:
        units = ring.times_unit(units, e)
    return _run(ring, steps, ring.zero(), ring.one(), lift), units


def _product(ring: _Rows, sums: list[_Sum]) -> tuple[list, list]:
    """(V, B) of the product of the sums."""
    numerator, units = _evaluate(ring, sums[0])
    for series in sums[1:]:
        v, b = _evaluate(ring, series)
        numerator, units = ring.mul(numerator, v), ring.mul(units, b)
    return numerator, units


def _bracket(ring: _Rows, left: list[_Sum], right: list[_Sum], lift_l: int,
             lift_r: int) -> list:
    """x^lift_l V_L B_R - x^lift_r V_R B_L, up to sign and a unit, each
    run stopped after its last live step.  Two single sums run the longer
    one's recurrence once, from the other's V and B."""
    if len(left) == len(right) == 1:
        (long, up), (short, low) = (left[0], lift_l), (right[0], lift_r)
        if len(short.run) > len(long.run):
            (long, up), (short, low) = (short, low), (long, up)
        seed, b = _evaluate(ring, short, low)
        for e in long.extra:
            seed = ring.times_unit(seed, e)
        return _run(ring, _live(long, up, ring.precision),
                    ring.add(ring.zero(), seed, -1), b, up)
    v_l, b_l = _product(ring, left)
    v_r, b_r = _product(ring, right)
    return ring.add(ring.shifted(ring.mul(v_l, b_r), lift_l),
                    ring.shifted(ring.mul(v_r, b_l), lift_r), -1)


def _ring(d: int, precision: int, left: list[_Sum], right: list[_Sum],
          lift_l: int, lift_r: int) -> _Rows:
    """The form of A_P for this bracket: packed at the width its _Norms
    majorant proves, if that is at most PACK_BITS, else lists."""
    norms = _Norms(d, precision)
    bound = norms.bound(_bracket(norms, left, right, lift_l, lift_r))
    if bound >> (PACK_BITS - 1):
        return _Ring(d, precision)
    return _Packed(d, precision, bound)


def certify_part(lhs: list[SeriesSum], rhs: list[SeriesSum], d: int,
                 exponent: int, equal=None) -> object:
    """found for prod(lhs) == prod(rhs) modulo Phi_d^exponent, each side a
    product of sums, each sum read off its plan (plan_sum), d >= 2.

    found is the Phi_d-adic valuation of the cross-multiplied difference
    of the nominal numerators, INFINITE when it is zero: the number the
    global path reports for the expanded sums.  The exponent sets only the
    first precision, enough rows to show found up to the exponent plus the
    Phi_d content of both nominal denominators.  equal, if given, is
    called with no arguments when a bracket below the span bound is all
    zero after P has doubled once: it says whether the two sides are
    equal, and only if they differ does P double again.
    """
    left = [_read(plan, d) for plan in lhs]
    right = [_read(plan, d) for plan in rhs]
    sigma_l = sum(s.sigma for s in left)
    sigma_r = sum(s.sigma for s in right)
    m = min(sigma_l, sigma_r)
    content = sum(s.content for s in left + right)
    # Exponent range of D_R C_L N_L - D_L C_R N_R.
    low_l, low_r = (sum(s.low for s in side) for side in (left, right))
    high_l = sum(s.high for s in left) + sum(s.degree for s in right)
    high_r = sum(s.high for s in right) + sum(s.degree for s in left)
    # found <= span / phi(d) unless the difference is zero, so rows below
    # this many all vanish only when it is
    span = max(high_l, high_r) - min(low_l, low_r)
    phi = sum(gcd(k, d) == 1 for k in range(d))
    enough = span // phi - m - content + 1
    precision, doubled = exponent - m + 1, False
    while True:
        precision = max(1, min(precision, enough))
        ring = _ring(d, precision, left, right, sigma_l - m, sigma_r - m)
        bracket = _bracket(ring, left, right, sigma_l - m, sigma_r - m)
        for i, row in enumerate(map(ring.read, bracket)):
            if any(row) and not _count_phi(row, d):
                return m + i + content
        if precision >= enough or doubled and equal is not None and equal():
            return INFINITE
        precision, doubled = 2 * precision, True
