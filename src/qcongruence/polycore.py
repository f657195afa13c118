"""Dense arbitrary-precision Laurent-polynomial arithmetic in q.

A Poly holds Python integer coefficients ascending by exponent from an
integer offset, in one normal form: no zero at either end, and the zero
polynomial is () at offset 0.  Big work runs on a packed value: _pack
writes a coefficient list as one integer, its value at q = 2^W with W =
8w for slots of w bytes, and _unpack (or _slots, every slot) reads it
back while every |c| < 2^(W - 1).  Packed arithmetic is exact whatever
the coefficients; only the unpack needs that bound, so w always comes
from a bound proven before the work.  A product with a binomial 1 - q^m
is one shift-subtract x - (x << W m) of the packed value and at most
doubles max|c|.  The q-series sums and the lifts and delta of a global
check stay packed from their first step to the delta, which is unpacked
once (qseries, congruence).  Here Poly.times_one_minus and the positive
part of Poly.times_binomials pack once, shift-subtract per binomial and
unpack once, and a general product is one Kronecker substitution.  An
exact division by a binomial has no such bound on its quotient, so it
stays a linear pass over the list, a running sum per residue class mod
m, made in place; so do cyclotomic.valuation_at's passes.  Products and
passes of normal-form operands are in normal form already, so their
lists are adopted as they are; only sums and differences are trimmed.
All values are immutable after construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from struct import iter_unpack
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


def _bias(w: int, n: int) -> int:
    # 2^(8w - 1) in each of n slots of w bytes
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * n,
                          "little")


def _pack(cs, w: int) -> int:
    """The value of cs at q = 2^(8w): sum of cs[i] * 2^(8wi), exact for any
    integers; _unpack reads it back while every |c| < 2^(8w - 1).

    >>> w = 2
    >>> _unpack(_pack([-2 ** 15, 2 ** 15 - 1, 0, -1], w), w, 4)
    [-32768, 32767, 0, -1]
    >>> _pack([1, -1], 1) == 1 - 256
    True
    """
    half = 1 << (8 * w - 1)
    # every slot biased into [0, 2^(8w)) and written with C-level calls
    data = b"".join(map(int.to_bytes, map(half.__add__, cs), repeat(w),
                        repeat("little")))
    return int.from_bytes(data, "little") - _bias(w, len(cs))


def _unpack(x: int, w: int, n: int) -> list:
    # the n slots of x = _pack(cs, w), every |c| < 2^(8w - 1): with the
    # bias added no slot borrows from the next, and each slot less the
    # bias is its coefficient
    half = 1 << (8 * w - 1)
    data = (x + _bias(w, n)).to_bytes(w * n, "little")
    slots = map(operator.itemgetter(0), iter_unpack(f"{w}s", data))
    return list(map(half.__rsub__, map(int.from_bytes, slots,
                                       repeat("little"))))


def _slots(x: int, w: int) -> list:
    # every slot of x = _pack(cs, w) up to its top one
    return _unpack(x, w, abs(x).bit_length() // (8 * w) + 1)


def _kronecker(a, b) -> list:
    # |product coefficient| <= min(la, lb) * max|a| * max|b|, which a slot
    # of w bytes holds with its sign.
    la, lb = len(a), len(b)
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(la, lb).bit_length() + 2)
    w = (bits + 7) // 8
    return _unpack(_pack(a, w) * _pack(b, w), w, la + lb - 1)


def _packed_one_minus(x: int, e: int, bits: int) -> tuple[int, int]:
    # x * (1 - q^e) at q = 2^bits, and the move of the offset; a negative e
    # is folded as -q^e (1 - q^-e) = q^e (q^-e - 1)
    if e >= 0:
        return x - (x << bits * e), 0
    return (x << -bits * e) - x, e


def _times_binomials_packed(cs, exps: list) -> tuple[list, int]:
    # cs * prod over e in exps of (1 - q^e), every e != 0, and the move of
    # the offset, on the packed value: one shift-subtract per binomial.
    # Each binomial at most doubles max|c|, so slots of bits(max|c|) +
    # len(exps) bits and a sign bit hold the product.
    w = (max(map(abs, cs)).bit_length() + len(exps)) // 8 + 1
    x, move = _pack(cs, w), 0
    for e in exps:
        x, shift = _packed_one_minus(x, e, 8 * w)
        move += shift
    return _unpack(x, w, len(cs) + sum(map(abs, exps))), move


def _times_one_minus(cs, m: int) -> list:
    # cs * (1 - q^m) as one C-level pass: out[i] = cs[i] - cs[i - m]
    zeros = [0] * m
    return list(map(operator.sub, chain(cs, zeros), chain(zeros, cs)))


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
        """self * prod over e in exps of (1 - q^e), one shift-subtract each
        on the packed coefficients.

        A negative e is folded as -q^e (1 - q^-e); e == 0 gives zero, as
        one_minus_q(0) does.

        >>> p = Poly.one().times_one_minus([2, -1])
        >>> p.coeffs, p.offset
        ((-1, 1, 1, -1), -1)
        """
        exps = list(exps)
        if not self.coeffs or not exps:
            return self
        if 0 in exps:
            return Poly.zero()
        cs, move = _times_binomials_packed(self.coeffs, exps)
        return Poly._adopt(cs, self.offset + move)

    def times_binomials(self, net: dict[int, int]) -> "Poly":
        """self * prod over m of (1 - q^m)^net[m], m >= 1, exactly.

        One shift-subtract per binomial of positive exponent on the packed
        coefficients, then one exact in-place division per binomial of
        negative exponent, the longest first; an inexact division raises
        AssertionError.

        >>> Poly([1, 1]).times_binomials({4: 1, 2: -1}).coeffs
        (1, 1, 1, 1)
        """
        if not net or not self.coeffs:
            return self
        up = [m for m, g in sorted(net.items()) for _ in range(g)]
        down = [m for m, g in sorted(net.items(), reverse=True)
                for _ in range(-g)]
        cs = _times_binomials_packed(self.coeffs, up)[0] if up \
            else list(self.coeffs)
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
