"""Cyclotomic polynomials, their valuations in binomials 1 - q^m, and the
Phi_d-adic valuation of a polynomial.

Construction never touches roots of unity: the n-th cyclotomic polynomial
is obtained by exactly dividing q^n - 1 by the cyclotomic polynomials of
the proper divisors of n, which keeps every intermediate an integer
polynomial.  Results are memoized; the fill is idempotent, so concurrent
workers may share the table without locking.

The valuation never builds Phi_d.  It uses the Moebius factorisation

    Phi_d = +-prod over e | d of (1 - q^{d/e})^{mu(e)},

so one exact division by Phi_d is a product with each binomial of
mu(e) = -1 followed by an in-place exact division by each binomial of
mu(e) = +1: linear passes over the coefficient list that run in C.
"""

from __future__ import annotations

from typing import Union

from .polycore import (
    INFINITE,
    LaurentPoly,
    Poly,
    _divide_one_minus,
    _times_one_minus,
    as_laurent,
    div_rem_by_monic,
)

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


def euler_phi(n: int) -> int:
    """Euler's totient by trial-division factorization."""
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def cyclotomic(n: int) -> Poly:
    """The monic integer polynomial with the primitive n-th roots of unity
    as roots, of degree euler_phi(n).

    >>> cyclotomic(1).coeffs
    (-1, 1)
    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    cached = _CACHE.get(n)
    if cached is not None:
        return cached
    pol = Poly([-1] + [0] * (n - 1) + [1])
    for d in divisors(n):
        if d < n:
            pol, rem = div_rem_by_monic(pol, cyclotomic(d))
            if not rem.is_zero():
                raise AssertionError(f"inexact cyclotomic division at n={n}")
    _CACHE[n] = pol
    return pol


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


def valuation_at(a: Union[Poly, LaurentPoly], d: int):
    """Largest e with Phi_d^e dividing a; INFINITE for a = 0.

    Laurent offsets are ignored, since q is a unit modulo every Phi_d.
    Each pass is one exact division by Phi_d through its binomial factors
    (see the module docstring); the first inexact one ends the count.

    >>> valuation_at(Poly([1, 0, 0, 0, 0, 0, -1]) ** 2, 3)
    2
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    lp = as_laurent(a)
    if lp.is_zero():
        return INFINITE
    up, down = _binomial_exponents(d)
    cs = list(lp.body.coeffs)
    count = 0
    while True:
        for m in up:
            cs = _times_one_minus(cs, m)
        for m in down:
            if not _divide_one_minus(cs, m):
                return count
        count += 1
