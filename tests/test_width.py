"""The slot width of the packed delta holds every comparison it is used for.

A global comparison sets its slot width before any arithmetic, from
counts alone (congruence._delta): a side's count bound, one bit per
binomial of its lift, one bit for the difference and a sign bit.  The
delta is unpacked once, and a packed zero reads as a zero polynomial,
only while every coefficient fits its slot with its sign.  Every delta
made here, by every global comparison of the two fingerprint sweeps and
by seeded random side pairs, is unpacked and must have max |c| <
2^(8w - 1) and repack to the same integer; on the random pairs
check_identity_equal must also agree with the polynomial cross products
of tests/oracles.py.
"""

import random

import pytest

from qcongruence import congruence
from qcongruence.cli import CHECKS
from qcongruence.congruence import (
    _corrected_target,
    check_identity_equal,
    verify_case,
)
from qcongruence.polycore import Poly, _pack, _slots
from qcongruence.qseries import (
    FamilySpec,
    SeriesSum,
    plan_sum,
    target_sign,
)

from oracles import (
    PRODUCT_CONJECTURES,
    cofactor,
    jackson_6phi5_terminating,
    lcm_cross_products,
    sweep_cases,
)


@pytest.fixture
def deltas(monkeypatch):
    """Every delta the engine makes, checked as it is made."""
    seen = []
    real = congruence._delta

    def checked(lhs, rhs):
        lcm, delta, w, offset = real(lhs, rhs)
        cs = _slots(delta, w)
        assert max(map(abs, cs)) < 1 << (8 * w - 1)
        assert _pack(cs, w) == delta
        seen.append((lhs, rhs, delta))
        return lcm, delta, w, offset

    monkeypatch.setattr(congruence, "_delta", checked)
    return seen


def test_every_sweep_comparison_fits_its_width(monkeypatch, deltas):
    # Only the deltas are checked here, so their valuations are skipped.
    monkeypatch.setattr(congruence, "valuation_at", lambda delta, d: 0)
    cases = sweep_cases()
    kinds = {kind for kind, _ in cases}
    assert kinds == set(CHECKS) - set(PRODUCT_CONJECTURES) - {
        name for name, check in CHECKS.items() if check.classical}
    for (kind, _), params in cases.items():
        verify_case(kind, **params)
    assert len(deltas) > len(cases)


# The five kinds of spec a seeded draw picks from, in the order that fixes
# its draws: C, J and M, then C and J at a specialization t.
KINDS = ("C", "J", "M", "C_PARAM", "J_PARAM")


def _random_side(rng):
    # (side, tags): a family sum, maybe scaled or times an integer, or a
    # gw/qj2 right side
    if rng.random() < 0.12:
        family = rng.choice(("C", "J"))
        return _corrected_target(family, rng.randrange(3, 16, 2)), {"gw"}
    kind = rng.choice(KINDS)
    family, base = kind[0], rng.randint(1, 3)
    t = rng.choice([-1, 1]) * rng.randrange(1, 10, 2) \
        if kind.endswith("_PARAM") else None
    printed = family == "J" and rng.random() < 0.4
    spec = FamilySpec(family, base, rng.randint(0, 5), t, printed)
    side = plan_sum(spec)
    tags = {kind, "printed"} if printed else {kind}
    if cofactor(side).factors:
        tags.add("stopped")
    draw = rng.random()
    if draw < 0.4:
        n = rng.choice((1, 3, 5, base)) | 1
        if n in side.extra.factors:
            tags.add("cancelled")
        side = side.scaled(n, target_sign(family, n))
    elif draw < 0.5:
        side = side.scaled(1, rng.choice((-24, 24, 7)))
    return side, tags


def _explicit(side):
    # the same value as a given numerator over the nominal denominator
    return side.series()


def _bumped(side):
    # the same but for the top coefficient, moved by 2^bits of the
    # numerator: the two differ in one coefficient, at the top of the
    # slot range
    series = side.series()
    cs = list(series.numerator.coeffs) or [0]
    bits = max(map(abs, cs)).bit_length()
    cs[-1] += (1 << bits) * (1 if cs[-1] >= 0 else -1)
    return SeriesSum(Poly(cs, series.numerator.offset), series.denominator)


def _oracle_equal(lhs, rhs):
    _, left, right = lcm_cross_products(lhs.series(), rhs.series())
    return left == right


def test_random_side_pairs_fit_and_match_the_oracle(deltas):
    rng = random.Random(1811)
    tags, outcomes = set(), set()
    for trial in range(120):
        lhs, lhs_tags = _random_side(rng)
        tags |= lhs_tags
        shape = trial % 4
        if shape == 0:
            rhs, expected = _explicit(lhs), True
        elif shape == 1:
            rhs, expected = _bumped(lhs), False
        else:
            rhs, rhs_tags = _random_side(rng)
            tags |= rhs_tags
            expected = _oracle_equal(lhs, rhs)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        assert check_identity_equal(lhs, rhs) == expected, trial
        assert _oracle_equal(lhs, rhs) == expected, trial
        outcomes.add((shape, expected))
    assert tags >= {*KINDS, "printed", "stopped", "cancelled", "gw"}
    assert {(0, True), (1, False), (2, False)} <= outcomes
    # the gw and qj2 comparisons themselves
    for n in range(3, 16, 2):
        assert verify_case("gw", n=n).passed
        verify_case("qj2", n=n)
    assert len(deltas) == 120 + 2 * 7


def test_jackson_comparisons_fit_and_match_the_oracle(deltas):
    rng = random.Random(65)
    done = 0
    while done < 12:
        s = rng.choice([1, 2])
        a, b, c = (rng.randint(-4, 5) for _ in range(3))
        n = rng.randint(0, 4)
        if a == 0 or any(a - b + s * k == 0 or a - c + s * k == 0
                         or a + s * (n + k) == 0 for k in range(1, n + 1)):
            continue
        assert jackson_6phi5_terminating(a, b, c, n, s)
        done += 1
    assert len(deltas) == 12
    for lhs, rhs, delta in deltas:
        assert delta == 0 and _oracle_equal(lhs, rhs)
