"""Dense arbitrary-precision Laurent-polynomial arithmetic in q.

A Poly holds Python integer coefficients ascending by exponent from an
integer offset, in one normal form: no zero at either end, and the zero
polynomial is () at offset 0.  A general product is one Kronecker
substitution: both operands are packed into big integers, which CPython's
C code multiplies.  Products with and exact divisions by a binomial
1 - q^m never go through it: each is a single linear pass over a
coefficient list (a shifted difference, and a running sum per residue
class mod m).  Poly.times_one_minus and Poly.times_binomials, the exact
product with prod (1 - q^m)^g for integer g, are built from them, and so
are the q-series sums, the q-integer scalings, the lifts of the
cross-multiplied difference, cyclotomic.cyclotomic and
cyclotomic.valuation_at.  Products and passes of normal-form operands are
in normal form already, so their lists are adopted as they are; only sums
and differences, which can cancel at either end, are trimmed.  All values
are immutable after construction.
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


# ---------------------------------------------------------------------------
# low-level list arithmetic


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
    # deleted.  On False, x is left holding the running sums, whose last m
    # are the class sums, x mod q^m - 1 (slot j: the exponents = j mod m),
    # or is left as it was if it has at most m slots.
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
# the value type


@dataclass(init=False, eq=True, slots=True)
class Poly:
    """Integer Laurent polynomial: the sum of coeffs[i] * q^(offset + i).

    Zeros at both ends are trimmed into the offset, so equal polynomials
    have equal fields.

    >>> Poly([0, 0], 4) == Poly.zero()
    True
    """

    coeffs: tuple[int, ...]
    offset: int

    def __init__(self, coeffs: Iterable[int] = (), offset: int = 0):
        """Trim zeros at both ends, moving the low ones into the offset.

        >>> Poly([0, 1, -1], -3).offset
        -2
        >>> p = Poly([0, 0, 2, 0, -1, 0], -5)
        >>> p.coeffs, p.offset, p.high_degree
        ((2, 0, -1), -3, -1)
        """
        cs = tuple(coeffs)
        hi = len(cs)
        while hi and cs[hi - 1] == 0:
            hi -= 1
        lo = 0
        while lo < hi and cs[lo] == 0:
            lo += 1
        self.coeffs = cs[lo:hi]
        self.offset = offset + lo if hi else 0

    @classmethod
    def _adopt(cls, cs: Iterable[int], offset: int = 0) -> "Poly":
        # cs is already nonzero at both ends (or empty), as every product
        # and binomial pass of normal-form operands is: one tuple
        # conversion, no scan.
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        p.offset = offset if p.coeffs else 0
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly._adopt(())

    @staticmethod
    def one() -> "Poly":
        return Poly._adopt((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high_degree(self) -> int:
        """The highest exponent; -1 for the zero polynomial."""
        return self.offset + len(self.coeffs) - 1

    def shift(self, e: int) -> "Poly":
        """Multiply by q^e."""
        if not self.coeffs:
            return self
        return Poly._adopt(self.coeffs, self.offset + e)

    def scale(self, c: int) -> "Poly":
        if c == 1:
            return self
        if c == 0:
            return Poly.zero()
        return Poly._adopt(map(c.__mul__, self.coeffs), self.offset)

    def times_one_minus(self, exps: Iterable[int]) -> "Poly":
        """self * prod over e in exps of (1 - q^e), one linear pass each.

        A negative e is folded as -q^e (1 - q^-e); e == 0 gives zero, as
        one_minus_q(0) does.

        >>> p = Poly.one().times_one_minus([2, -1])
        >>> p.coeffs, p.offset
        ((-1, 1, 1, -1), -1)
        """
        if not self.coeffs:
            return self
        cs, offset = self.coeffs, self.offset
        for e in exps:
            if e == 0:
                return Poly.zero()
            if e < 0:
                offset += e
            cs = _times_one_minus(cs, abs(e), negated=e < 0)
        return Poly._adopt(cs, offset)

    def times_binomials(self, net: dict[int, int]) -> "Poly":
        """self * prod over m of (1 - q^m)^net[m], m >= 1, exactly.

        One linear pass per binomial of positive exponent, then one exact
        in-place division per binomial of negative exponent, the longest
        first; an inexact division raises AssertionError.

        >>> Poly([1, 1]).times_binomials({4: 1, 2: -1}).coeffs
        (1, 1, 1, 1)
        """
        if not net or not self.coeffs:
            return self
        cs = self.coeffs
        for m, g in sorted(net.items()):
            for _ in range(g):
                cs = _times_one_minus(cs, m)
        down = [m for m, g in sorted(net.items(), reverse=True)
                for _ in range(-g)]
        if down and cs is self.coeffs:
            cs = list(cs)
        for m in down:
            if not _divide_one_minus(cs, m):
                raise AssertionError(f"inexact division by 1 - q^{m}")
        return Poly._adopt(cs, self.offset)

    def _aligned(self, other: "Poly") -> tuple[tuple, tuple, int]:
        # both coefficient tuples written from the lower of the two offsets
        off = min(self.offset, other.offset)
        a, b = self.coeffs, other.coeffs
        if self.offset > off:
            a = (0,) * (self.offset - off) + a
        if other.offset > off:
            b = (0,) * (other.offset - off) + b
        return a, b, off

    def __add__(self, other: "Poly") -> "Poly":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        a, b, off = self._aligned(other)
        return Poly(_add_lists(a, b), off)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        a, b, off = self._aligned(other)
        return Poly(_sub_lists(a, b), off)

    def __neg__(self) -> "Poly":
        return Poly._adopt(map(operator.neg, self.coeffs), self.offset)

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        return Poly._adopt(_kronecker(self.coeffs, other.coeffs),
                           self.offset + other.offset)

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

    def __str__(self) -> str:
        parts = []
        for e, c in enumerate(self.coeffs, self.offset):
            if not c:
                continue
            mag = "" if (abs(c) == 1 and e) else str(abs(c))
            var = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            parts.append(("- " if c < 0 else "+ " if parts else "") + mag + var)
        return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# spec operations


def eval_at(a: Poly, x) -> Fraction:
    """Exact rational value by Horner evaluation."""
    x = Fraction(x)
    if a.offset < 0 and x == 0:
        raise ZeroDivisionError("evaluation at 0 with negative offset")
    acc = Fraction(0)
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return acc * x ** a.offset


def one_minus_q(e: int) -> Poly:
    """The binomial 1 - q^e (zero when e == 0)."""
    if e == 0:
        return Poly.zero()
    if e > 0:
        return Poly([1] + [0] * (e - 1) + [-1])
    return Poly([-1] + [0] * (-e - 1) + [1], e)
