"""Cyclotomic polynomials and the Phi_d-adic valuation of a polynomial,
both through the binomials 1 - q^m.

Neither ever touches roots of unity.  Both use the Moebius factorisation

    Phi_d = prod over e | d of (1 - q^{d/e})^{mu(e)}     (d >= 2),

whose sign is + because the mu(e) sum to 0 (_binomial_exponents).
cyclotomic(d) is 1 times each binomial of mu(e) = +1, one list pass
each, then divided in place by each of mu(e) = -1.  One exact division
by Phi_d is the opposite: a product with each binomial of mu(e) = -1,
then an in-place exact division by each of mu(e) = +1.  Cyclotomic
polynomials are memoized; Phi_1 = q - 1 is preset, since the
factorisation gives 1 - q for it.

The valuation makes that product only when it must.  1 - q^d, the
product of Phi_e over e | d, holds exactly one Phi_d, so while it
divides, each power of Phi_d costs one in-place pass.  The pass that
fails leaves the residue R of the list mod q^d - 1 in its last d slots,
and Phi_d divides the list iff it divides R.  Only when it does is the
list restored and the rest counted through the Moebius factorisation.
"""

from __future__ import annotations

from .polycore import INFINITE, Poly, _divide_one_minus, _times_one_minus

_CACHE: dict[int, Poly] = {1: Poly((-1, 1))}


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending.

    >>> divisors(15)
    [1, 3, 5, 15]
    """
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


# kept only for perfbench/tracing.py, which wraps it and resets _CACHE
def cyclotomic(n: int) -> Poly:
    """The monic integer polynomial with the primitive n-th roots of unity
    as roots, built from the binomials of _binomial_exponents(n).

    >>> cyclotomic(1).coeffs
    (-1, 1)
    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n not in _CACHE:
        up, down = _binomial_exponents(n)
        cs = [1]
        for m in down:
            cs = _times_one_minus(cs, m)
        for m in up:
            if not _divide_one_minus(cs, m):
                raise AssertionError(f"inexact division by 1 - q^{m}")
        _CACHE[n] = Poly(cs)
    return _CACHE[n]


def q_integer_cyclotomic_factors(n: int) -> list[int]:
    """Indices d with 1 + q + ... + q^{n-1} = product of cyclotomic(d).

    >>> q_integer_cyclotomic_factors(9)
    [3, 9]
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return [d for d in divisors(n) if d > 1]


def _binomial_exponents(d: int) -> tuple[list[int], list[int]]:
    """(up, down) with Phi_d = +-prod over m in down of (1 - q^m) divided
    by prod over m in up of (1 - q^m); down holds d/e for the divisors e
    with mu(e) = +1, up those with mu(e) = -1.

    >>> _binomial_exponents(12)
    ([6, 4], [12, 2])
    """
    down, up = [d], []
    for p in _prime_factors(d):
        down, up = down + [m // p for m in up], up + [m // p for m in down]
    return up, down


def valuation_at(a: Poly, d: int):
    """Largest e with Phi_d^e dividing a; INFINITE for a = 0.

    The offset is ignored, since q is a unit modulo every Phi_d.  Each
    exact in-place division by 1 - q^d counts one Phi_d; at the first
    inexact one the residue of the list mod q^d - 1 decides whether Phi_d
    divides it at all, and only then are the remaining powers counted one
    exact division by Phi_d at a time (module docstring).

    >>> valuation_at(Poly([1, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 1]), 3)
    2
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if a.is_zero():
        return INFINITE
    cs = list(a.coeffs)
    count = 0
    while _divide_one_minus(cs, d):
        count += 1
    n = len(cs)
    if n <= d:
        return count + _count_phi(cs, d)    # untouched: it is its residue
    # The last d slots hold the class sums of slots n - d.. mod d: the
    # residue mod q^d - 1 times a power of q, a unit modulo Phi_d.
    if not _count_phi(cs[n - d:], d):
        return count
    cs = _times_one_minus(cs, d)        # the running sums, undone
    del cs[n:]
    return count + _count_phi(cs, d)


def _count_phi(cs: list, d: int) -> int:
    # Exact divisions of the nonzero cs by Phi_d through its binomials,
    # until one fails; cs is consumed.
    up, down = _binomial_exponents(d)
    count = 0
    while True:
        for m in up:
            cs = _times_one_minus(cs, m)
        for m in down:
            if not _divide_one_minus(cs, m):
                return count
        count += 1
