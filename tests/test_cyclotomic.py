import importlib
import random

import pytest

from qcongruence.cyclotomic import (
    _binomial_exponents,
    cyclotomic,
    divisors,
    q_integer_cyclotomic_factors,
    valuation_at,
)
from qcongruence.polycore import INFINITE, Poly

from oracles import (
    div_rem_by_monic,
    euler_phi,
    eval_at,
    one_minus_q,
    ord_cyclotomic_in_one_minus_pow,
    power,
    q_integer,
    times_binomials,
    times_one_minus,
)

# the module itself: the package's name `cyclotomic` is the function
cyclotomic_module = importlib.import_module("qcongruence.cyclotomic")


def test_first_values():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(3) == Poly([1, 1, 1])
    # derived by exact division of q^6-1 and q^9-1
    assert cyclotomic(6) == Poly([1, -1, 1])
    assert cyclotomic(9) == Poly([1, 0, 0, 1, 0, 0, 1])


def test_product_identity_up_to_200():
    for n in range(1, 201):
        prod = Poly.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == Poly([-1] + [0] * (n - 1) + [1]), n


def test_matches_repeated_monic_division_up_to_400():
    # the oracle: q^n - 1 long-divided by the oracle's Phi_d for every
    # proper divisor d of n
    oracle = {}
    for n in range(1, 401):
        pol = Poly([-1] + [0] * (n - 1) + [1])
        for d in divisors(n)[:-1]:
            pol, rem = div_rem_by_monic(pol, oracle[d])
            assert rem.is_zero(), (n, d)
        oracle[n] = pol
        assert cyclotomic(n) == pol, n


def test_degree_is_totient():
    for n in range(1, 201):
        assert cyclotomic(n).high_degree == euler_phi(n), n


def test_odd_index_value_at_minus_one_is_odd():
    for n in range(3, 200, 2):
        assert eval_at(cyclotomic(n), -1) % 2 == 1, n


def test_ord_in_one_minus_pow():
    assert ord_cyclotomic_in_one_minus_pow(3, 6) == 1
    assert ord_cyclotomic_in_one_minus_pow(9, 6) == 0
    assert ord_cyclotomic_in_one_minus_pow(5, 10) == 1
    with pytest.raises(ValueError):
        ord_cyclotomic_in_one_minus_pow(1, 6)


def test_q_integer_factorization():
    assert q_integer_cyclotomic_factors(9) == [3, 9]
    assert q_integer_cyclotomic_factors(15) == [3, 5, 15]
    assert q_integer_cyclotomic_factors(25) == [5, 25]
    for n in (2, 9, 15, 24, 49):
        prod = Poly.one()
        for d in q_integer_cyclotomic_factors(n):
            prod = prod * cyclotomic(d)
        assert prod == q_integer(n), n


def test_rejects_bad_indices():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        valuation_at(Poly([1, 1]), 0)
    with pytest.raises(ValueError):
        q_integer_cyclotomic_factors(1)


# ---------------------------------------------------------------------------
# Phi_d-adic valuation against repeated monic division


def valuation_by_repeated_division(a: Poly, d: int):
    body = Poly(a.coeffs)
    if body.is_zero():
        return INFINITE
    phi = cyclotomic(d)
    count = 0
    while True:
        body, rem = div_rem_by_monic(body, phi)
        if not rem.is_zero():
            return count
        count += 1


# every d up to 49, then prime powers and composites with several
# binomials of each Moebius sign
ORACLE_INDICES = list(range(1, 50)) + [63, 75, 105, 121, 225]


def random_laurent(rng, length, bits):
    bound = 1 << bits
    return Poly([rng.randint(-bound, bound) for _ in range(length)],
                rng.randint(-9, 9))


def _times_phi_power(a, d, k):
    # a * Phi_d^k through the binomial passes of its Moebius form, which
    # reads 1 - q = -Phi_1 for d = 1, so d = 1 keeps the general product
    if d == 1:
        return a * power(cyclotomic(1), k)
    up, down = _binomial_exponents(d)
    return times_binomials(a, {**{m: k for m in down},
                               **{m: -k for m in up}})


@pytest.mark.parametrize("bits", [3, 64, 300])
def test_valuation_matches_repeated_division(bits):
    # a * Phi_d^k, where a sometimes carries 1 - q^j for a proper divisor j
    # of d: the Phi_e content of every other e | d, but no Phi_d.  Each is
    # also taken times (1 - q^d)^c, so that the Moebius passes follow c
    # divisions by 1 - q^d; 1 - q^d holds Phi_d once, so the oracle's
    # count for a * Phi_d^k grows by c.  Beside them comes an a * Phi_d^k
    # of at most d coefficients, which no division by 1 - q^d touches.
    # The extra inputs draw from a second generator, leaving the first
    # one's as they were.
    rng, extra = random.Random(bits), random.Random(-bits)
    for d in ORACLE_INDICES:
        assert valuation_at(Poly(), d) == INFINITE
        for k in range(6):
            for _ in range(4):
                a = random_laurent(rng, rng.randint(1, 2 * d + 8), bits)
                if a.is_zero():
                    continue
                if d > 1 and rng.random() < 0.5:
                    a = times_one_minus(a, [rng.choice(divisors(d)[:-1])])
                x = _times_phi_power(a, d, k)
                expected = valuation_by_repeated_division(x, d)
                assert expected >= k
                assert valuation_at(x, d) == expected, (d, k)
                c = extra.randint(1, 3)
                x = times_one_minus(x, [d] * c)
                assert valuation_at(x, d) == expected + c, (d, k, c)
            room = d - k * euler_phi(d)
            if room < 1:
                continue
            a = random_laurent(extra, extra.randint(1, room), bits)
            if a.is_zero():
                continue
            x = _times_phi_power(a, d, k)
            assert len(x.coeffs) <= d
            assert valuation_at(x, d) == \
                valuation_by_repeated_division(x, d), (d, k)


def test_valuation_makes_one_pass_per_power_of_one_minus_q_d(monkeypatch):
    # b * (1 - q^7)^c with b(1) != 0: c exact divisions by 1 - q^7 and the
    # inexact one are the only passes over the list; the residue check
    # after them works on at most 2 * 7 coefficients, and nothing
    # multiplies the list
    calls = []

    def counted(name, fn):
        def wrapper(cs, m, *args):
            calls.append((name, len(cs)))
            return fn(cs, m, *args)
        return wrapper

    for name in ("_divide_one_minus", "_times_one_minus"):
        monkeypatch.setattr(cyclotomic_module, name,
                            counted(name, getattr(cyclotomic_module, name)))
    rng = random.Random(7)
    for c in range(5):
        b = Poly([rng.randint(1, 99) for _ in range(40)])   # b(1) > 0
        assert valuation_by_repeated_division(b, 7) == 0
        a = b * power(one_minus_q(7), c)
        calls.clear()
        assert valuation_at(a, 7) == c
        passes = [call for call in calls if call[1] > 2 * 7]
        assert passes == [("_divide_one_minus", 40 + 7 * (c - i))
                          for i in range(c + 1)], c


def test_valuation_of_short_inputs_is_zero():
    # degree < phi(d): not divisible, and shorter than the first binomial
    rng = random.Random(3)
    for d in ORACLE_INDICES:
        for length in {1, 2, euler_phi(d)}:
            a = random_laurent(rng, length, 8)
            if a.is_zero():
                continue
            assert valuation_at(a, d) == 0 == \
                valuation_by_repeated_division(a, d), (d, length)
