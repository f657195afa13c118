"""Dense arbitrary-precision Laurent polynomials in q: the packed format,
three list passes and a coefficient holder.

Big work runs on a packed value: _pack writes a coefficient list as one
integer, its value at q = 2^W with W = 8w for slots of w bytes, and
_unpack (or _slots, every slot) reads it back while every
|c| < 2^(W - 1).  Packed arithmetic is exact whatever the coefficients;
only the unpack needs that bound, so w always comes from a bound proven
before the work.  A product with a binomial 1 - q^m, m >= 1, is one
shift-subtract x - (x << W m) of the packed value, written inline,
and at most doubles max|c|.  The q-series sums and the lifts and delta
of a global check stay packed from their first step to the delta, which
is unpacked once (qseries, congruence).  On a list, a product with a
binomial is one C-level pass (_times_one_minus), and an exact division
by one has no such bound on its quotient, so it is a linear pass, a
running sum per residue class mod m, made in place (_divide_one_minus);
the cyclotomic polynomials and cyclotomic.valuation_at are built from
these two.

A Poly holds the integer coefficients of a list ascending by exponent
from an integer offset, in one normal form: no zero at either end, and
the zero polynomial is () at offset 0.  It is immutable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from struct import iter_unpack
from typing import Iterable

#: Valuation of the zero polynomial (divisible by every power).
INFINITE = math.inf


# ---------------------------------------------------------------------------
# low-level list arithmetic


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


# kept only for Poly.__mul__, which perfbench/tracing.py wraps
def _kronecker(a, b) -> list:
    # |product coefficient| <= min(la, lb) * max|a| * max|b|, which a slot
    # of w bytes holds with its sign.
    la, lb = len(a), len(b)
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(la, lb).bit_length() + 2)
    w = (bits + 7) // 8
    return _unpack(_pack(a, w) * _pack(b, w), w, la + lb - 1)


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

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    # kept only for perfbench/tracing.py's observer of FactoredProduct.expand
    @property
    def high_degree(self) -> int:
        """The highest exponent; -1 for the zero polynomial."""
        return self.offset + len(self.coeffs) - 1

    # kept only for perfbench/tracing.py, which wraps __mul__ and __rmul__
    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        return Poly(_kronecker(self.coeffs, other.coeffs),
                    self.offset + other.offset)

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for e, c in enumerate(self.coeffs, self.offset):
            if not c:
                continue
            mag = "" if (abs(c) == 1 and e) else str(abs(c))
            var = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            parts.append(("- " if c < 0 else "+ " if parts else "") + mag + var)
        return " ".join(parts) or "0"
