"""Dense arbitrary-precision polynomial and Laurent-polynomial arithmetic in q.

Coefficients are Python integers stored ascending by exponent with no
trailing zeros.  A product is schoolbook when the shorter operand is
short, and otherwise one Kronecker substitution: both operands are packed
into big integers, which CPython's C code multiplies.  The result never
depends on the strategy.  Division is restricted to monic divisors so
every intermediate stays an exact integer.  Products with and exact
divisions by a binomial 1 - q^m never go through the general product:
each is a single linear pass over a coefficient list (a shifted
difference, and a running sum per residue class mod m).
LaurentPoly.times_one_minus, the q-series sums and denominators, and
cyclotomic.valuation_at are built from them.  All values are immutable
after construction and safe to share between concurrent workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Union

#: Valuation of the zero polynomial (divisible by every power).
INFINITE = math.inf

#: Shorter-operand length up to which schoolbook beats Kronecker
#: substitution (measured crossover).  Correctness never depends on it.
SCHOOLBOOK_THRESHOLD = 16


# ---------------------------------------------------------------------------
# low-level list arithmetic


def _trimmed(cs: list) -> list:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    del cs[n:]
    return cs


def _add_lists(a, b) -> list:
    # a + b as one C-level pass over the common length, then the tail of
    # the longer operand copied as it is.
    if len(a) < len(b):
        a, b = b, a
    out = list(map(operator.add, a, b))
    out += a[len(b):]
    return out


def _sub_lists(a, b) -> list:
    # a - b the same way; a tail of b is negated in a second C-level pass.
    out = list(map(operator.sub, a, b))
    if len(a) >= len(b):
        out += a[len(b):]
    else:
        out += map(operator.neg, b[len(a):])
    return out


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


def _kronecker(a, b) -> list:
    # |product coefficient| <= min(la, lb) * max|a| * max|b|; a slot of w
    # bytes holds it plus half a slot of bias, so every slot is nonnegative
    # and no borrow crosses into the next one.
    la, lb = len(a), len(b)
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(la, lb).bit_length() + 2)
    w = (bits + 7) // 8
    half = 1 << (8 * w - 1)
    bias = half.to_bytes(w, "little")

    def pack(cs):
        biases = bias * len(cs)
        buf = bytearray(biases)
        for i, c in enumerate(cs):
            if c:
                buf[i * w:i * w + w] = (c + half).to_bytes(w, "little")
        return int.from_bytes(buf, "little") - int.from_bytes(biases, "little")

    n = la + lb - 1
    product = pack(a) * pack(b) + int.from_bytes(bias * n, "little")
    view = memoryview(product.to_bytes(w * n, "little"))
    return [int.from_bytes(view[i:i + w], "little") - half
            for i in range(0, w * n, w)]


def _mul_lists(a, b) -> list:
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= SCHOOLBOOK_THRESHOLD:
        return _schoolbook(a, b)
    return _kronecker(a, b)


def _divmod_monic(a: list, m: tuple) -> tuple[list, list]:
    # m monic of degree >= 1; exact over the integers.
    dm = len(m) - 1
    r = list(a)
    if len(r) <= dm:
        return [], _trimmed(r)
    q = [0] * (len(r) - dm)
    lower = [(j, c) for j, c in enumerate(m[:-1]) if c]
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i]
        if c:
            q[i - dm] = c
            off = i - dm
            for j, mc in lower:
                r[off + j] -= c * mc
            r[i] = 0
    return q, _trimmed(r[:dm])


def _times_one_minus(cs, m: int, negated: bool = False) -> list:
    # cs * (1 - q^m) as one C-level pass: out[i] = cs[i] - cs[i - m]; with
    # negated, cs * (q^m - 1) by the same pass with the operands swapped.
    zeros = [0] * m
    lo, hi = chain(cs, zeros), chain(zeros, cs)
    return list(map(operator.sub, hi, lo) if negated
                else map(operator.sub, lo, hi))


def _divide_one_minus(x: list, m: int) -> bool:
    # Divide a nonzero x by (1 - q^m) in place: the quotient y has y[i] =
    # x[i] + y[i - m], a running sum along each residue class mod m.  The
    # division is exact iff the last m running sums vanish; they are then
    # deleted.  On False, x is left holding the running sums.
    n = len(x)
    if n <= m:
        return False    # nonzero of degree < m
    for i in range(m):
        x[i::m] = accumulate(x[i::m])
    if any(x[n - m:]):
        return False
    del x[n - m:]
    return True


# ---------------------------------------------------------------------------
# value types


@dataclass(init=False, eq=True)
class Poly:
    """Integer polynomial in q, dense, ascending, trailing zeros stripped.

    >>> Poly([1, 0, -2]).coeffs
    (1, 0, -2)
    >>> Poly([0, 0]).is_zero()
    True
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        self.coeffs = tuple(cs[:n])

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("Poly exponents are nonnegative; use LaurentPoly")
        return Poly([0] * exponent + [coefficient])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def shift(self, e: int) -> "Poly":
        """Multiply by q^e, e >= 0."""
        if e < 0:
            raise ValueError("negative shift on Poly")
        if not self.coeffs:
            return self
        return Poly((0,) * e + self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_add_lists(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(_sub_lists(self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_mul_lists(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, m: "Poly") -> tuple["Poly", "Poly"]:
        return div_rem_by_monic(self, m)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = "" if (abs(c) == 1 and e) else str(abs(c))
            var = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            parts.append(("- " if c < 0 else "+ " if parts else "") + mag + var)
        return " ".join(parts)


@dataclass(init=False, eq=True)
class LaurentPoly:
    """Laurent polynomial: body * q^offset with body(0) != 0 unless zero.

    >>> LaurentPoly(Poly([0, 1, -1]), -3).offset
    -2
    """

    body: Poly
    offset: int

    def __init__(self, body: Union[Poly, Iterable[int]] = (), offset: int = 0):
        cs = body.coeffs if isinstance(body, Poly) else tuple(body)
        i = 0
        n = len(cs)
        while i < n and cs[i] == 0:
            i += 1
        if i == n:
            self.body = Poly()
            self.offset = 0
        else:
            self.body = Poly(cs[i:])
            self.offset = offset + i

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(Poly.one())

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return LaurentPoly(Poly((coefficient,)), exponent)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    @property
    def high_degree(self) -> int:
        return self.offset + self.body.degree

    def shift(self, e: int) -> "LaurentPoly":
        if self.is_zero():
            return self
        return LaurentPoly(self.body, self.offset + e)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero()
        if c == 1:
            return self
        return LaurentPoly(self.body * c, self.offset)

    def times_one_minus(self, exps: Iterable[int]) -> "LaurentPoly":
        """self * prod over e in exps of (1 - q^e), one linear pass each.

        A negative e is folded as -q^e (1 - q^-e); e == 0 gives zero, as
        one_minus_q(0) does.

        >>> lp = LaurentPoly.one().times_one_minus([2, -1])
        >>> lp.body.coeffs, lp.offset
        ((-1, 1, 1, -1), -1)
        """
        if self.is_zero():
            return self
        cs, offset = self.body.coeffs, self.offset
        for e in exps:
            if e == 0:
                return LaurentPoly.zero()
            if e < 0:
                offset += e
            cs = _times_one_minus(cs, abs(e), negated=e < 0)
        return LaurentPoly(cs, offset)

    def _aligned(self, other: "LaurentPoly") -> tuple[tuple, tuple, int]:
        # both coefficient tuples written from the lower of the two offsets
        off = min(self.offset, other.offset)
        a, b = self.body.coeffs, other.body.coeffs
        if self.offset > off:
            a = (0,) * (self.offset - off) + a
        if other.offset > off:
            b = (0,) * (other.offset - off) + b
        return a, b, off

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, off = self._aligned(other)
        return LaurentPoly(_add_lists(a, b), off)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        a, b, off = self._aligned(other)
        return LaurentPoly(_sub_lists(a, b), off)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(-self.body, self.offset)

    def __mul__(self, other: Union["LaurentPoly", Poly, int]) -> "LaurentPoly":
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, Poly):
            other = LaurentPoly(other)
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        return LaurentPoly(self.body * other.body, self.offset + other.offset)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        return LaurentPoly(self.body ** n, self.offset * n)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.offset == 0:
            return str(self.body)
        return f"q^{self.offset} * ({self.body})"


def as_laurent(a: Union[Poly, LaurentPoly]) -> LaurentPoly:
    return a if isinstance(a, LaurentPoly) else LaurentPoly(a)


# ---------------------------------------------------------------------------
# spec operations


def mul(a, b):
    """Exact product; Poly*Poly stays Poly, anything Laurent stays Laurent."""
    if isinstance(a, Poly) and isinstance(b, Poly):
        return a * b
    return as_laurent(a) * as_laurent(b)


def mul_schoolbook(a: Poly, b: Poly) -> Poly:
    """Reference quadratic product, used as the oracle for strategy checks."""
    if a.is_zero() or b.is_zero():
        return Poly()
    return Poly(_schoolbook(a.coeffs, b.coeffs))


def div_rem_by_monic(a: Poly, m: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a monic divisor of degree >= 1.

    The result is exact over the integers: a == q*m + r with
    deg(r) < deg(m).

    >>> q, r = div_rem_by_monic(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
    >>> (q.coeffs, r.coeffs)
    ((1, 1, 1), ())
    """
    if m.degree < 1:
        raise ValueError("divisor must be nonconstant")
    if m.leading() != 1:
        raise ValueError("divisor must be monic")
    q, r = _divmod_monic(list(a.coeffs), m.coeffs)
    return Poly(q), Poly(r)


def eval_at(a: Union[Poly, LaurentPoly], x) -> Fraction:
    """Exact rational value by Horner evaluation."""
    x = Fraction(x)
    if isinstance(a, Poly):
        acc = Fraction(0)
        for c in reversed(a.coeffs):
            acc = acc * x + c
        return acc
    if a.offset < 0 and x == 0:
        raise ZeroDivisionError("evaluation at 0 with negative offset")
    return eval_at(a.body, x) * x ** a.offset


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


def one_minus_q(e: int) -> LaurentPoly:
    """The binomial 1 - q^e as a Laurent polynomial (zero when e == 0)."""
    if e == 0:
        return LaurentPoly.zero()
    if e > 0:
        return LaurentPoly(Poly([1] + [0] * (e - 1) + [-1]))
    return LaurentPoly(Poly([-1] + [0] * (-e - 1) + [1]), e)
