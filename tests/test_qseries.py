import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qcongruence import qseries
from qcongruence.cli import CHECKS, RunConfig, sweep
from qcongruence.congruence import check_identity_equal
from qcongruence.cyclotomic import valuation_at
from qcongruence.polycore import Poly
from qcongruence.qseries import (
    FactoredProduct,
    FamilySpec,
    SeriesSum,
    _planned,
    eta_product_coefficients,
    plan_sum,
    sum_truncated,
)

from oracles import (
    add,
    central_q_binomial,
    classical_term_value,
    cofactor,
    divided_by,
    factored_times,
    one_minus_q,
    power,
    q_integer,
    q_integer_binomials,
    raw_steps_side,
    raw_steps_sum,
    scaled,
    series_times,
    shift,
    sub,
    sum_by_passes,
    term_of,
    term_value_at_one,
    times_binomials,
    times_one_minus,
)

SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"

# ---------------------------------------------------------------------------
# independent oracle: build each term by direct per-factor expansion and add
# the fractions naively over fully expanded denominators.


def poch_laurent(start, step, count):
    acc = Poly.one()
    for i in range(count):
        acc = acc * one_minus_q(start + step * i)
    return acc


def naive_term(spec, k):
    s, t = spec.base, spec.t
    fam = spec.family
    if fam == "C" and t is None:
        num = q_integer(4 * k + 1, s) * power(poch_laurent(s, 2 * s, k), 4)
        den = power(poch_laurent(2 * s, 2 * s, k), 4)
    elif fam == "M":
        num = shift(power(poch_laurent(s, 2 * s, k), 4), 2 * s * k)
        den = power(poch_laurent(2 * s, 2 * s, k), 4)
    elif fam == "J" and t is None:
        pb, qb = (1, 2) if spec.printed else (s, s)
        num = shift(q_integer(6 * k + 1, qb)
                    * power(poch_laurent(s, 2 * s, k), 2)
                    * poch_laurent(2 * s, 4 * s, k), pb * k * k)
        den = power(poch_laurent(4 * s, 4 * s, k), 3)
    elif fam == "C":
        num = (q_integer(4 * k + 1, s)
               * poch_laurent(s + t, 2 * s, k) * poch_laurent(s - t, 2 * s, k)
               * power(poch_laurent(s, 2 * s, k), 2))
        den = (poch_laurent(2 * s + t, 2 * s, k)
               * poch_laurent(2 * s - t, 2 * s, k)
               * power(poch_laurent(2 * s, 2 * s, k), 2))
    else:  # J at t
        pb, qb = (1, 2) if spec.printed else (s, s)
        num = shift(q_integer(6 * k + 1, qb)
                    * poch_laurent(s + t, 2 * s, k)
                    * poch_laurent(s - t, 2 * s, k)
                    * poch_laurent(2 * s, 4 * s, k), pb * k * k)
        den = (poch_laurent(4 * s + t, 4 * s, k)
               * poch_laurent(4 * s - t, 4 * s, k)
               * poch_laurent(4 * s, 4 * s, k))
    return num, den


def naive_sum(spec):
    num, den = Poly.zero(), Poly.one()
    for k in range(spec.upper + 1):
        nk, dk = naive_term(spec, k)
        num = add(num * dk, nk * den)
        den = den * dk
    return num, den


def assert_same_rational(series: SeriesSum, num: Poly, den: Poly):
    # series holds numerator / denominator
    left = series.numerator * den
    right = num * series.denominator.expand()
    assert left == right


ALL_SPECS = [
    FamilySpec("C", 1, 12), FamilySpec("C", 2, 9),
    FamilySpec("J", 1, 12), FamilySpec("J", 2, 8),
    FamilySpec("M", 1, 12), FamilySpec("M", 3, 7),
    FamilySpec("C", 1, 10, 3), FamilySpec("C", 1, 9, -5),
    FamilySpec("C", 3, 7, 5),
    FamilySpec("J", 1, 9, 3), FamilySpec("J", 2, 7, -7),
    FamilySpec("J", 3, 6, 5, printed=True),
]


# ---------------------------------------------------------------------------
# factored products


def test_q_integer():
    assert q_integer(1, 1) == Poly([1])
    assert q_integer(3, 1) == Poly([1, 1, 1])
    assert q_integer(5, 3).coeffs == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        q_integer(0)


def expand_by_fold(fp):
    # every binomial, one general product at a time
    acc = Poly.one()
    for m, e in sorted(fp.factors.items()):
        for _ in range(e):
            acc = acc * one_minus_q(m)
    return acc


@pytest.mark.parametrize("bits", [3, 64, 300])
def test_factored_product_multiply_matches_expanded_product(bits):
    rng = random.Random(404 + bits)
    for _ in range(80):
        factors = {rng.randint(1, 30): rng.randint(1, 4)
                   for _ in range(rng.randint(0, 5))}
        fp = FactoredProduct(factors)
        lp = Poly([rng.randint(-(1 << bits), 1 << bits)
                   for _ in range(rng.randint(1, 50))], rng.randint(-9, 9))
        expanded = expand_by_fold(fp)
        exps = [m for m, e in fp.factors.items() for _ in range(e)]
        assert fp.expand() == expanded
        assert times_one_minus(lp, exps) == lp * expanded
    assert times_one_minus(Poly.zero(), [2]) == Poly.zero()


def test_q_integer_product_matches_general_product():
    rng = random.Random(5)
    for _ in range(200):
        lp = Poly([rng.randint(-(1 << 80), 1 << 80)
                   for _ in range(rng.randint(1, 40))], rng.randint(-9, 9))
        count, step = rng.randint(1, 30), rng.randint(1, 8)
        assert times_binomials(lp, q_integer_binomials(count, step)) \
            == lp * q_integer(count, step)


def test_factored_product_validation():
    with pytest.raises(ValueError):
        FactoredProduct({0: 1})
    with pytest.raises(ValueError):
        FactoredProduct({3: 0})


# ---------------------------------------------------------------------------
# terms


def test_term_c_k0_and_k1():
    num, den = term_of(FamilySpec("C", 1, 1), 0)
    assert num == Poly.one() and den == FactoredProduct()
    num, den = term_of(FamilySpec("C", 1, 1), 1)
    expected = q_integer(5) * power(one_minus_q(1), 4)
    assert num == expected
    assert den.factors == {2: 4}


def test_term_j_k1():
    num, den = term_of(FamilySpec("J", 1, 1), 1)
    expected = shift(q_integer(7) * power(one_minus_q(1), 2)
                     * one_minus_q(2), 1)
    assert num == expected
    assert den.factors == {4: 3}


def test_terms_match_naive_expansion():
    for spec in ALL_SPECS:
        for k in range(0, min(spec.upper, 6) + 1):
            num, den = term_of(spec, k)
            nnum, nden = naive_term(spec, k)
            assert num * nden == nnum * den.expand(), (spec, k)


def test_term_of_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        term_of(FamilySpec("C", 1, 3), -1)


def test_printed_reading_is_j_family_only():
    for family, t in (("C", None), ("M", None), ("C", 3)):
        with pytest.raises(ValueError):
            FamilySpec(family, 3, 2, t, printed=True)
    for family, t in (("J", None), ("J", 3)):
        assert FamilySpec(family, 3, 2, t, printed=True).printed


def test_parametric_term_truncates_at_vanishing_numerator():
    # t = -3: the numerator factor ladder hits 1 - q^0 beyond k = 1
    spec = FamilySpec("C", 1, 4, -3)
    num, _ = term_of(spec, 2)
    assert num.is_zero()
    assert not term_of(spec, 1)[0].is_zero()


def test_denominator_vanishing_is_an_error():
    # odd t keeps every family denominator exponent odd, hence nonzero;
    # even t is rejected up front, and M takes no t at all
    for family in ("C", "J"):
        for t in (None, -3, 3):
            assert FamilySpec(family, 1, 3, t).t == t
        with pytest.raises(ValueError, match="t must be odd"):
            FamilySpec(family, 1, 3, 2)
    with pytest.raises(ValueError, match="takes no specialization"):
        FamilySpec("M", 1, 3, 3)
    # a zero factor reaching a denominator position is an error
    with pytest.raises(ZeroDivisionError):
        _planned([([], [2, 0], [], 0)])


# ---------------------------------------------------------------------------
# sums


def test_sum_k0_is_one():
    for family in ("C", "J", "M"):
        s = sum_truncated(FamilySpec(family, 1, 0))
        assert s.numerator == Poly.one()
        assert s.denominator == FactoredProduct()


def test_sum_c_one_step():
    s = sum_truncated(FamilySpec("C", 1, 1))
    expected_num = add(power(one_minus_q(2), 4),
                       q_integer(5) * power(one_minus_q(1), 4))
    assert s.numerator == expected_num
    assert s.denominator.factors == {2: 4}


def test_sum_m_two_steps_matches_naive():
    spec = FamilySpec("M", 1, 2)
    assert_same_rational(sum_truncated(spec), *naive_sum(spec))


def test_sums_match_naive_all_families():
    for spec in ALL_SPECS:
        assert_same_rational(sum_truncated(spec), *naive_sum(spec))


# (spec, k0): t = +-s(2 k0 - 1) makes the numerator factor 1 - q^{s(2k0-1)
# -+ t} vanish at step k0; k0 > upper never vanishes within the sum.
EARLY_STOP_SPECS = [
    (FamilySpec("C", 1, 6, 1), 1),
    (FamilySpec("C", 1, 6, -5), 3),
    (FamilySpec("C", 1, 6, 11), 6),
    (FamilySpec("C", 1, 6, -13), 7),
    (FamilySpec("C", 3, 5, -3), 1),
    (FamilySpec("C", 3, 5, 9), 2),
    (FamilySpec("C", 3, 5, -27), 5),
    (FamilySpec("C", 3, 4, 27), 5),
    (FamilySpec("J", 1, 6, -1), 1),
    (FamilySpec("J", 1, 6, 7), 4),
    (FamilySpec("J", 1, 6, -11), 6),
    (FamilySpec("J", 1, 5, 11), 6),
    (FamilySpec("J", 3, 5, 3), 1),
    (FamilySpec("J", 3, 5, -15), 3),
    (FamilySpec("J", 3, 5, 27), 5),
    (FamilySpec("J", 3, 5, -9, printed=True), 2),
    (FamilySpec("J", 3, 4, 15, printed=True), 3),
    (FamilySpec("J", 3, 3, -27, printed=True), 5),
]


@pytest.mark.parametrize("spec, k0", EARLY_STOP_SPECS)
def test_sum_stops_at_first_vanishing_term(spec, k0):
    series = sum_truncated(spec)
    assert_same_rational(series, *naive_sum(spec))
    # the denominator stays the last term's; the plan's tail, the
    # cofactor, holds the binomials of steps k0..upper, and its run and
    # held divisor are over F_{k0-1}
    plan = plan_sum(spec)
    last = term_of(spec, spec.upper)[1].factors
    before = term_of(spec, min(k0 - 1, spec.upper))[1].factors
    assert series.denominator.factors == plan.denominator.factors == last
    assert cofactor(plan).factors == {
        m: e - before.get(m, 0) for m, e in last.items()
        if e != before.get(m, 0)}
    assert divided_by(plan.held, plan.extra).factors == before
    assert (cofactor(plan) == FactoredProduct()) == (k0 > spec.upper)
    stopped = [k for k in range(1, spec.upper + 1)
               if term_of(spec, k)[0].is_zero()]
    assert stopped == list(range(k0, spec.upper + 1))


def test_series_sum_carries_its_cofactor():
    # a stopped plan's tail, the cofactor, is in its denominator but in
    # neither its run nor its held divisor; a scale keeps it, and series
    # multiplies it back into the Poly numerator
    plans = plan_sum(FamilySpec("C", 1, 4, -3)), plan_sum(FamilySpec(
        "J", 3, 3, 3))
    for plan in plans:
        assert cofactor(plan).factors
        assert factored_times(divided_by(plan.held, plan.extra),
                              cofactor(plan)) == plan.denominator
        assert cofactor(plan.scaled(3, 1)) == cofactor(plan)
    a, b = (plan.series() for plan in plans)
    # times q^-1 [3], as a Poly and as a plan
    expected = (a.numerator * shift(q_integer(3), -1),
                a.denominator.expand())
    for tripled in (scaled(a, 3, 1).series(), plans[0].scaled(3, 1).series()):
        assert tripled.denominator == a.denominator
        assert_same_rational(tripled, *expected)
    assert_same_rational(series_times(a, b), a.numerator * b.numerator,
                         a.denominator.expand() * b.denominator.expand())


def test_vanishing_denominator_after_the_stop_still_raises():
    # the nested product vanishes at step 1, so its binomials and those of
    # step 2 go to the tail; a zero exponent among them still raises
    steps = [([], [], [], 0), ([0], [3, -1], [], 0), ([], [5, 0], [], 0)]
    stopped = _planned(steps[:2])
    assert cofactor(stopped).factors == {3: 1, 1: 1}
    assert stopped.series().numerator \
        == times_one_minus(Poly.one(), [3, 1])
    with pytest.raises(ZeroDivisionError):
        _planned(steps)


def test_every_plan_of_the_fingerprint_sweep_has_positive_binomials(
        monkeypatch):
    # every plan the checks build, scaled plans and the literal plans of
    # congruence included, holds each step's binomials as lists of
    # positive exponents, a term's empty for M
    runs = []
    post_init = SeriesSum.__post_init__

    def record(self):
        runs.append(self.numerator)
        post_init(self)

    monkeypatch.setattr(SeriesSum, "__post_init__", record)
    sweep(RunConfig.from_dict({
        "checks": list(CHECKS), "n_values": [3], "r_max": 2,
        "d_values": [1, 2], "t_values": [7], "primes": [5],
        "exponent_policy": "both"}))
    steps = [step for run in runs if isinstance(run, list) for step in run]
    assert len(steps) > 400
    for ups, dens, tops, _, _ in steps:
        assert all(isinstance(b, list) for b in (ups, dens, tops))
        assert all(e > 0 for e in [*ups, *dens, *tops]), (ups, dens, tops)
    assert any(not tops for _, _, tops, _, _ in steps[1:])


def _raw_steps(rng):
    # up to 5 steps of small exponents, negative ones everywhere; now and
    # then a zero among the numerator binomials or the denominators
    def exponents(most, zero):
        return [0 if rng.random() < zero else rng.choice((-1, 1))
                * rng.randint(1, 6) for _ in range(rng.randint(0, most))]
    return [(exponents(3, 0.06), exponents(3, 0.02), exponents(2, 0.04),
             rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]


def test_the_turning_of_raw_steps_matches_the_unturned_sum():
    # 1 - q^e = -q^e (1 - q^-e) for e < 0, taken in _planned as each
    # exponent enters, against the sum with every binomial multiplied in
    # as it comes; a zero in ups stops the sum into the tail, a zero
    # in dens raises
    rng = random.Random(3101)
    seen = Counter()
    for _ in range(300):
        steps = _raw_steps(rng)
        if any(0 in step[1] for step in steps):
            seen["raised"] += 1
            with pytest.raises(ZeroDivisionError):
                _planned(steps)
            continue
        plan = _planned(steps)
        series = plan.series()
        num, den = raw_steps_sum(steps)
        assert series.numerator * den == num * series.denominator.expand(), \
            steps
        assert check_identity_equal(plan, raw_steps_side(steps)), steps
        seen["stopped"] += bool(cofactor(plan).factors)
        for name, b in zip(("ups", "dens", "tops"), zip(*steps)):
            seen[name] += any(e < 0 for exps in b for e in exps)
    assert min(seen.values()) >= 20 and sum(seen.values()) > 200, seen


# The sums of the checks: base 1 to 48 (the theorems at n = 7, r = 2),
# their base-7 and base-49 targets, the lemma sums at n = 81, and the
# printed J reading.
ORACLE_SPECS = [
    *(FamilySpec(family, 1, 48) for family in ("C", "J", "M")),
    FamilySpec("C", 7, 6), FamilySpec("J", 7, 6), FamilySpec("M", 7, 6),
    FamilySpec("M", 49, 6), FamilySpec("M", 49, 3),
    FamilySpec("C", 1, 40, -81), FamilySpec("J", 1, 40, -81),
    FamilySpec("J", 7, 6, printed=True),
    FamilySpec("J", 7, 3, -21, printed=True),
    *ALL_SPECS, *(spec for spec, _ in EARLY_STOP_SPECS),
]


def test_sums_match_list_pass_accumulation():
    # the packed accumulator against one list pass per binomial: the same
    # numerator and denominator
    for spec in ORACLE_SPECS:
        assert sum_truncated(spec) == sum_by_passes(spec), spec


# The five kinds of spec a seeded draw picks from, in the order that fixes
# its draws: C, J and M, then C and J at a specialization t.
KINDS = ("C", "J", "M", "C_PARAM", "J_PARAM")


def _random_specs(rng, count):
    specs = []
    for kind in KINDS:
        for _ in range(count):
            t = rng.randrange(-9, 10, 2) if kind.endswith("_PARAM") else None
            specs.append(FamilySpec(kind[0], rng.randint(1, 3),
                                    rng.randint(0, 8), t,
                                    kind[0] == "J" and rng.random() < 0.3))
    return specs


def test_tail_plans_match_list_pass_accumulation():
    # plan_sum(spec, start) is the sum of the terms start..upper over
    # F_upper: times F_upper, the list oracle's sum to upper less its sum
    # to start - 1 lifted to F_upper.  Seeded specs of all five kinds
    # and the stopped sums, at every start, some past the stop.
    past = 0
    for spec in _random_specs(random.Random(1919), 3) \
            + [spec for spec, _ in EARLY_STOP_SPECS]:
        full = sum_by_passes(spec)
        for start in range(spec.upper + 1):
            plan = plan_sum(spec, start)
            tail = plan.series()
            assert tail.denominator == full.denominator, (spec, start)
            expected = full.numerator
            if start:
                head = sum_by_passes(replace(spec, upper=start - 1))
                expected = sub(expected, head.numerator * divided_by(
                    full.denominator, head.denominator).expand())
            assert tail.numerator == expected, (spec, start)
            past += start and cofactor(plan) == plan.denominator
    assert past >= 5


def test_plan_sum_rejects_a_start_outside_the_range():
    for start in (-1, 4):
        with pytest.raises(ValueError, match="start must be in 0..upper"):
            plan_sum(FamilySpec("C", 1, 3), start)


def _held(plan):
    # a plan as its run, its three factored products and its bits
    return repr((plan.numerator, *(sorted(f.factors.items()) for f in (
        plan.denominator, cofactor(plan), plan.extra)), plan.bits))


def test_plans_keep_their_fingerprint():
    # every plan of a fixed grid: C, J and M, C and J also at each odd t
    # in -9..9, J printed or not, bases 1-3, uppers 0-8, every start.  A
    # step rule that moves any plan fails here.
    specs = [FamilySpec(family, base, upper, t, printed)
             for family in ("C", "J", "M")
             for t in ((None,) if family == "M"
                       else (None, *range(-9, 10, 2)))
             for printed in ((False, True) if family == "J" else (False,))
             for base in (1, 2, 3) for upper in range(9)]
    held = [_held(plan_sum(spec, start))
            for spec in specs for start in range(spec.upper + 1)]
    assert len(held) == 4590
    assert hashlib.sha256("".join(held).encode()).hexdigest() == (
        "ac118c11513e42f5d24e27a488303cd5e9047cf03a6273b19cc2cda9e5a690b2")


def _stored_cofactor(steps):
    # the cofactor that _planned once stored: the dens, turned positive,
    # of the raw steps from the first whose ups hold a zero
    tail, stopped = Counter(), False
    for ups, dens, _, _ in steps:
        stopped = stopped or 0 in ups
        if stopped:
            tail.update(abs(e) for e in dens)
    return tail


def test_held_is_the_stored_cofactor_rule(monkeypatch):
    # held, read off the run's dens, is extra times the denominator less
    # the cofactor that _planned once stored, for every plan of the
    # fingerprint grid and every side the committed sweeps with a q-side
    # check build; a scaled plan keeps its source's cofactor.  An empty
    # run that no plan made, 0 over a denominator, is held over its extra
    # alone, where the stored rule held it over the whole denominator.
    sides, stored = [], {}
    planned, scaled_plan = qseries._planned, SeriesSum.scaled
    post_init = SeriesSum.__post_init__

    def record(self):
        post_init(self)
        sides.append(self)

    def plan(steps, step=0):
        side = planned(steps, step)
        stored[id(side)] = _stored_cofactor(steps)
        return side

    def scale(self, n, c):
        side = scaled_plan(self, n, c)
        stored[id(side)] = stored.get(id(self), Counter())
        return side

    monkeypatch.setattr(SeriesSum, "__post_init__", record)
    monkeypatch.setattr(qseries, "_planned", plan)
    monkeypatch.setattr(SeriesSum, "scaled", scale)
    specs = [FamilySpec(family, base, upper, t, printed)
             for family in ("C", "J", "M")
             for t in ((None,) if family == "M"
                       else (None, *range(-9, 10, 2)))
             for printed in ((False, True) if family == "J" else (False,))
             for base in (1, 2, 3) for upper in range(9)]
    for spec in specs:
        for start in range(spec.upper + 1):
            plan_sum(spec, start)
    assert len(sides) == 4590
    for path in sorted(SWEEPS.glob("*.json")):
        cfg = RunConfig.from_dict(json.loads(path.read_text("utf-8")))
        if not all(CHECKS[check].classical for check in cfg.checks):
            sweep(cfg)
    kinds = Counter()
    for side in sides:
        assert isinstance(side.numerator, list)
        den = Counter(side.denominator.factors)
        if id(side) not in stored and not side.numerator and den:
            assert side.held == side.extra
            kinds["empty"] += 1
            continue
        cofactor = stored.get(id(side), Counter())
        assert not cofactor - den
        assert side.held.factors == Counter(side.extra.factors) \
            + den - cofactor
        kinds["stopped" if cofactor else "plain"] += 1
    assert len(sides) > 5600 and min(kinds.values()) >= 5, kinds


def test_sum_denominator_is_last_term_denominator():
    for spec in ALL_SPECS[:6]:
        s = sum_truncated(spec)
        assert s.denominator.factors == term_of(spec, spec.upper)[1].factors


# ---------------------------------------------------------------------------
# factored-product valuations vs division oracle


def test_ord_cyclotomic_matches_division_valuation():
    rng = random.Random(424242)
    for _ in range(500):
        factors = {}
        for _ in range(rng.randint(1, 6)):
            m = rng.randint(1, 12)
            factors[m] = factors.get(m, 0) + rng.randint(1, 3)
        fp = FactoredProduct(factors)
        d = rng.randint(2, 12)
        assert fp.ord_cyclotomic(d) == valuation_at(fp.expand(), d)


# ---------------------------------------------------------------------------
# classical values


def test_classical_term_values():
    assert classical_term_value("C", 1) == Fraction(5, 16)
    assert classical_term_value("J", 1) == Fraction(7, 32)
    assert classical_term_value("C", 2) == 9 * Fraction(3, 8) ** 4
    assert classical_term_value("M", 2) == Fraction(81, 4096)


def test_q_terms_specialize_to_classical_values():
    for family in ("C", "J", "M"):
        for k in range(31):
            assert term_value_at_one(family, k) \
                == classical_term_value(family, k), (family, k)


def test_central_q_binomial():
    assert central_q_binomial(0) == Poly([1])
    assert central_q_binomial(1) == Poly([1, 1])  # 1 + q
    assert central_q_binomial(2, 1) == Poly([1, 1, 2, 1, 1])
    for base in (1, 2, 3):
        for k in range(9):
            assert central_q_binomial(k, base) \
                * power(poch_laurent(base, base, k), 2) \
                == poch_laurent(base, base, 2 * k), (base, k)


# ---------------------------------------------------------------------------
# eta product


def test_eta_coefficients_small():
    gammas = eta_product_coefficients(8)
    assert gammas[0] == 1
    assert gammas[1] == 0
    assert gammas[2] == -4
    # mini-oracle to degree 3: q (1-q^2)^4 ... == q - 4 q^3 + O(q^4)
    assert gammas[:3] == [1, 0, -4]


def test_eta_even_coefficients_vanish():
    gammas = eta_product_coefficients(60)
    assert all(gammas[i] == 0 for i in range(1, 60, 2))
