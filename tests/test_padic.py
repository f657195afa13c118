import random
from fractions import Fraction

import pytest

from qcongruence.padic import (
    INFINITE,
    MIN_PRIME,
    dwork_quotient_check,
    is_prime,
    lucas_min_valuation,
    padic_valuation,
    verify_lucas,
    verify_m2,
    verify_swisher,
    verify_van_hamme,
)

import oracles
from oracles import classical_term_value, fraction_valuation, truncation


def test_padic_valuation():
    assert padic_valuation(0, 5) == INFINITE
    assert padic_valuation(50, 5) == 2
    assert padic_valuation(-125, 5) == 3
    assert fraction_valuation(Fraction(5, 16), 5) == 1
    assert fraction_valuation(Fraction(3, 25), 5) == -2


def test_truncation_coefficients():
    a = truncation(5, 1)
    assert a[0] == 1
    assert a[1] == Fraction(1, 16)
    assert a[2] == Fraction(81, 4096)
    assert len(a) == 5
    assert len(truncation(5, 2, cap=7)) == 8
    with pytest.raises(ValueError, match="cap must be >= 0"):
        truncation(5, 1, cap=-3)


def test_van_hamme_exact_values_p5():
    # frozen from direct rational arithmetic
    half_c = sum(classical_term_value("C", k) for k in range(3))
    assert half_c == Fraction(6105, 4096)
    assert half_c - 5 == Fraction(-(5 ** 4) * 23, 4096)
    rep = verify_van_hamme("c2", 5, 4)
    assert rep.passed and rep.valuation == 4

    half_j = sum(classical_term_value("J", k) for k in range(3))
    assert half_j == Fraction(10335, 8192)
    assert half_j - 5 == Fraction(-(5 ** 4) * 49, 8192)
    rep = verify_van_hamme("j2", 5, 4)
    assert rep.passed and rep.valuation == 4


def test_van_hamme_more_primes():
    assert verify_van_hamme("c2", 7, 3).passed
    for p in (7, 11, 13):
        assert verify_van_hamme("c2", p, 4).passed
        assert verify_van_hamme("j2", p, 4).passed


def test_van_hamme_is_the_r1_quotient_check():
    # at r = 1 the quotient congruence's inner sum is the single term 1,
    # so c3/j3 compare the same difference as c2/j2
    for p in (5, 7, 11, 13):
        for half, quotient in (("c2", "c3"), ("j2", "j3")):
            assert verify_van_hamme(half, p, 4).valuation \
                == verify_swisher(quotient, p, 1, 3).valuation, (p, half)


def test_van_hamme_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_van_hamme("c2", 9, 3)
    with pytest.raises(ValueError):
        verify_van_hamme("c2", 3, 3)
    with pytest.raises(ValueError):
        verify_van_hamme("c2", 5, 5)


def test_swisher_examples():
    rep = verify_swisher("c3", 5, 1, 3)
    assert rep.passed and rep.valuation == 4 and not rep.conjectural
    assert verify_swisher("j3", 5, 1, 3).passed
    rep = verify_swisher("c3", 5, 2, 6)
    assert rep.passed
    rep8 = verify_swisher("c3", 5, 2, 8)
    assert rep8.conjectural
    assert rep8.passed


def test_swisher_full_range_companions_at_3r():
    for p in (5, 7, 11):
        for r in (1, 2):
            assert verify_swisher("cc", p, r, 3 * r).passed
            assert verify_swisher("jj", p, r, 3 * r).passed


def test_m2_residues():
    rep = verify_m2(3)
    # hand-verified: both sums and the eta coefficient are -4 mod 27
    assert rep.passed
    assert rep.extra["half_residue"] == 27 - 4
    assert rep.extra["full_residue"] == 27 - 4
    assert rep.extra["gamma_residue"] == 27 - 4
    for p in (5, 7):
        assert verify_m2(p).passed


def test_m2_two_path_reduction_agreement():
    # reducing term by term matches reducing the exact total
    p, modulus = 7, 343
    total = sum((classical_term_value("M", k) for k in range(p)), Fraction(0))
    exact = total.numerator * pow(total.denominator, -1, modulus) % modulus
    termwise = sum(
        v.numerator * pow(v.denominator, -1, modulus)
        for v in (classical_term_value("M", k) for k in range(p))) % modulus
    assert exact == termwise == verify_m2(p).extra["full_residue"]


def test_half_and_full_sums_agree_mod_p3():
    for p in (5, 7, 11):
        modulus = p ** 3
        half = sum((classical_term_value("M", k)
                    for k in range((p - 1) // 2 + 1)), Fraction(0))
        full = sum((classical_term_value("M", k) for k in range(p)),
                   Fraction(0))
        assert fraction_valuation(full - half, p) >= 3, p
        assert verify_m2(p).extra["half_residue"] \
            == verify_m2(p).extra["full_residue"]


def test_dwork_spot_coefficients_p5():
    # degree-5 coefficient: A_5 == 1 and A_0 A_1 == 1 mod 5
    a5 = classical_term_value("M", 5)
    assert a5.numerator * pow(a5.denominator, -1, 5) % 5 == 1
    a1 = classical_term_value("M", 1)
    assert a1.numerator * pow(a1.denominator, -1, 5) % 5 == 1
    assert dwork_quotient_check(5, 1, 5).passed
    assert dwork_quotient_check(5, 1, 0).passed


def test_dwork_grid():
    for p in (5, 7):
        for r in (1, 2):
            rep = dwork_quotient_check(p, r, 50)
            assert rep.passed and not rep.conjectural, (p, r)
    assert dwork_quotient_check(7, 2, 50, exponent=3).conjectural


@pytest.mark.parametrize("p, r, exponent", [(3, 2, 5), (5, 1, 3), (7, 2, 4)])
def test_dwork_valuation_is_largest_passing_exponent(p, r, exponent):
    rep = dwork_quotient_check(p, r, 50, exponent)
    assert not rep.passed and rep.conjectural
    passing = [e for e in range(1, exponent + 1)
               if dwork_quotient_check(p, r, 50, e).passed]
    assert rep.valuation == max(passing, default=0)
    assert dwork_quotient_check(p, r, 50).valuation == r


def test_lucas_vanishing():
    # frozen examples: valuations of single coefficients
    assert fraction_valuation(classical_term_value("M", 3), 5) == 4
    assert classical_term_value("M", 3) == Fraction(5, 16) ** 4
    assert fraction_valuation(classical_term_value("M", 4), 5) == 4
    assert classical_term_value("M", 4) == Fraction(35, 128) ** 4
    assert fraction_valuation(classical_term_value("M", 2), 3) == 4
    for p in (5, 7, 11):
        assert verify_lucas(p, 2).passed, p
        assert lucas_min_valuation(p, 2) >= 4
    assert verify_lucas(5, 1).passed


def _domain(kind: str) -> list:
    # (p, r) with p <= 31, r <= 3 and p^r <= 2500; c2 and j2 take r = 1
    rs = (1,) if kind in ("c2", "j2") else (1, 2, 3)
    return [(p, r) for p in range(MIN_PRIME[kind], 32) if is_prime(p)
            for r in rs if p ** r <= 2500]


def test_valuations_match_the_fraction_oracle():
    # three seeded cases of each quotient kind, so that every draw holds
    # sextic (J) cases, whose terms carry 256^k and not 64^k, and four of
    # lucas, each against the sums and terms taken whole as Fractions
    rng = random.Random(2500)
    for kind in oracles.CLASSICAL_COMPANIONS:
        for p, r in rng.sample(_domain(kind), 3):
            rep = verify_van_hamme(kind, p, 4) if kind in ("c2", "j2") \
                else verify_swisher(kind, p, r, 3 * r)
            assert rep.valuation == oracles.companion_valuation(kind, p, r), \
                (kind, p, r)
    for p, r in rng.sample(_domain("lucas"), 4):
        assert lucas_min_valuation(p, r) \
            == oracles.lucas_min_valuation(p, r), (p, r)


def test_m2_matches_the_fraction_oracle():
    for p, _ in _domain("m2"):
        rep = verify_m2(p)
        assert (rep.extra["half_residue"], rep.extra["full_residue"],
                rep.valuation) == oracles.m2_values(p), p


def test_frontier_cases():
    # c3 (101, 2): the Fraction sums confirm 8, in about 15 s.  lucas: each
    # k of a window s has 2k >= p^s + 1, so k + k carries out of its top
    # digit, and at s = 1 only there: the minimum is 4 at every (p, r)
    rep = verify_swisher("c3", 101, 2, 8)
    assert rep.valuation == 8 and rep.passed and rep.conjectural
    assert lucas_min_valuation(31, 3) == 4
    assert verify_lucas(31, 3).passed
