import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from qcongruence import congruence, polycore, qseries
from qcongruence.congruence import (
    ModulusSpec,
    admissible_root_indices,
    build_modulus_theorem,
    check_congruence,
    check_identity_equal,
    modulus_q_integer,
    verify_case,
)
from qcongruence.cyclotomic import cyclotomic
from qcongruence.polycore import INFINITE, Poly
from qcongruence.qseries import (
    FactoredProduct,
    FamilySpec,
    SeriesSum,
    plan_sum,
    sum_truncated,
)

from oracles import (
    PRODUCT_CONJECTURES,
    cofactor,
    div_rem_by_monic,
    divided_by,
    factored_times,
    jackson_6phi5_terminating,
    lcm_cross_products,
    over_held,
    product_conjecture_global,
    q_integer,
    scale,
    scaled,
    shift,
    sub,
    sum_by_passes,
    times_binomials,
    times_one_minus,
)


def laurent(coeffs, offset=0):
    return Poly(coeffs, offset)


# ---------------------------------------------------------------------------
# moduli


def test_build_modulus_theorem():
    assert build_modulus_theorem(3, 2).parts == ((3, 3), (9, 3))
    assert build_modulus_theorem(15, 1).parts == ((3, 1), (5, 1), (15, 3))
    assert build_modulus_theorem(5, 1).parts == ((5, 3),)
    with pytest.raises(ValueError):
        build_modulus_theorem(4, 1)


def test_modulus_spec_validation():
    with pytest.raises(ValueError):
        ModulusSpec([(1, 1)])
    with pytest.raises(ValueError):
        ModulusSpec([(3, 0)])
    with pytest.raises(ValueError):
        ModulusSpec([(3, 1), (3, 2)])
    with pytest.raises(ValueError):
        ModulusSpec([])
    assert modulus_q_integer(9).parts == ((3, 1), (9, 1))


# ---------------------------------------------------------------------------
# check_congruence basics


def test_structural_equality_reports_identical():
    s = sum_truncated(FamilySpec("C", 1, 2))
    rep = check_congruence(s, s, ModulusSpec([(3, 2)]))
    assert rep.identically_equal and rep.passed
    assert all(p.found == INFINITE for p in rep.parts)


def test_one_vs_q_fails_mod_phi3():
    rep = check_congruence(SeriesSum(Poly.one()),
                           SeriesSum(laurent([0, 1])),
                           ModulusSpec([(3, 1)]))
    assert not rep.passed
    assert rep.parts[0].found == 0 and rep.parts[0].required == 1


def test_theorem_spot_case_n3():
    # quartic family, n=3, r=1: sum of two terms vs q^-1 [3] mod Phi_3^3
    lhs = sum_truncated(FamilySpec("C", 1, 1))
    rhs = SeriesSum(shift(q_integer(3), -1))
    rep = check_congruence(lhs, rhs, ModulusSpec([(3, 3)]))
    assert rep.passed and not rep.identically_equal


def _times_expanded(lp, fp):
    # lp * expand(fp), one list pass of the oracles per binomial, none of
    # the engine's kernels
    return times_one_minus(
        lp, [m for m, e in sorted(fp.factors.items()) for _ in range(e)])


def _shared(fp_a, fp_b):
    # the binomials both products carry, each at the smaller exponent
    return FactoredProduct({m: min(e, fp_b.factors[m])
                            for m, e in fp_a.factors.items()
                            if m in fp_b.factors})


def _division_valuation(lp, d):
    # Phi_d-adic valuation of a nonzero lp by repeated monic division
    phi, body, count = cyclotomic(d), Poly(lp.coeffs), 0
    while True:
        body, rem = div_rem_by_monic(body, phi)
        if not rem.is_zero():
            return count
        count += 1


def _lcm(fp_a, fp_b):
    # the lcm of two multisets of binomials: each base at its larger
    # exponent
    return FactoredProduct({m: max(fp_a.factors.get(m, 0),
                                   fp_b.factors.get(m, 0))
                            for m in set(fp_a.factors) | set(fp_b.factors)})


def _nests(big, small):
    # big's binomials hold small's
    return all(big.factors.get(m, 0) >= e for m, e in small.factors.items())


def _lifted_sides(lhs, rhs):
    # the engine's two lifted sides, unpacked: (L, lifted lhs, lifted
    # rhs), each read as the delta against a side of numerator 0 over
    # the other's denominator, whose lifted numerator is 0
    def lifted(side, other):
        zero = SeriesSum(Poly.zero(), other.denominator)
        lcm, delta, w, offset = congruence._delta(side, zero)
        return lcm, Poly(polycore._slots(delta, w), offset)

    (lcm, over_l), (_, over_r) = lifted(lhs, rhs), lifted(rhs, lhs)
    return lcm, over_l, over_r


def test_lcm_lifts_are_content_maxima_and_exact_quotients(monkeypatch):
    # Over the numerator 1, each lifted side is the lift L / R expanded:
    # it times R expands to L, the lcm of the two multisets of binomials,
    # which holds each base at the larger of its two exponents; no lift
    # divides; and a side whose binomials hold the other's is lifted by
    # nothing while the other is lifted by exactly the binomials it lacks.
    # The packed lifts equal the polynomial cross products of the oracle.
    def no_division(cs, m):
        raise AssertionError("a lift divides")

    monkeypatch.setattr(polycore, "_divide_one_minus", no_division)
    monkeypatch.setattr(qseries, "_divide_one_minus", no_division)
    rng = random.Random(2019)
    for _ in range(150):
        a, b = (FactoredProduct({rng.randint(1, 24): rng.randint(1, 3)
                                 for _ in range(rng.randint(0, 5))})
                for _ in range(2))
        draw = rng.random()
        if draw < 0.3:
            b = factored_times(b, a)     # a's binomials all in b
        elif draw < 0.6:
            a = factored_times(a, b)
        sides = SeriesSum(Poly.one(), a), SeriesSum(Poly.one(), b)
        lcm, over_a, over_b = _lifted_sides(*sides)
        assert (lcm, over_a, over_b) == lcm_cross_products(*sides)
        assert lcm == _lcm(a, b)
        for fp, over in ((a, over_a), (b, over_b)):
            assert _times_expanded(over, fp) \
                == _times_expanded(Poly.one(), lcm)
        for small, big, over_small, over_big in ((a, b, over_a, over_b),
                                                 (b, a, over_b, over_a)):
            if _nests(big, small):
                assert over_big == Poly.one()
                assert over_small \
                    == _times_expanded(Poly.one(), divided_by(big, small))


def test_held_is_the_reduced_denominator_times_extra():
    # held, set as the sum is made, is extra times the run's dens, the
    # denominator D less the tail C of a stopped sum: expanded, it times
    # C is D times extra.  A planned sum holds its q-integers' 1 - q^step
    # in extra; a scale's 1 - q^n cancels one of extra or joins the
    # numerator, and its 1 - q joins extra; a Poly sum is held over its
    # whole denominator.  A run whose dens D lacks raises.
    planned = plan_sum(FamilySpec("C", 1, 3))
    stopped = plan_sum(FamilySpec("C", 1, 4, 3))
    sides = {"planned": planned, "stopped": stopped,
             "cancelled": plan_sum(FamilySpec("C", 3, 1)).scaled(3, 1),
             "kept": planned.scaled(5, -1),
             "poly": SeriesSum(q_integer(3), FactoredProduct({2: 1, 4: 1}))}
    assert cofactor(stopped).factors
    for name, side in sides.items():
        assert _times_expanded(_times_expanded(Poly.one(), side.held),
                               cofactor(side)) \
            == _times_expanded(_times_expanded(Poly.one(), side.denominator),
                               side.extra), name
    assert planned.held == FactoredProduct({1: 1, 2: 4, 4: 4, 6: 4})
    assert sides["cancelled"].held == FactoredProduct({1: 1, 6: 4})
    assert sides["kept"].held == FactoredProduct({1: 2, 2: 4, 4: 4, 6: 4})
    assert sides["poly"].held == FactoredProduct({2: 1, 4: 1})
    with pytest.raises(ValueError, match="not among"):
        SeriesSum([([], [2], [], 0, 1)], FactoredProduct({4: 1}), bits=1)


@pytest.mark.parametrize("case", [
    dict(kind="thm1-full", n=3, r=2),
    dict(kind="conj43", n=3, r=1, d=2),
    dict(kind="param-sampled-j", n=3, r=2, d=1, t=7),
    dict(kind="conj41", n=3, r=1),
    dict(kind="half-vs-full-m", n=3, r=1),   # the full sum's tail
    dict(kind="half-vs-full-m", n=3, r=2),   # against 0 over F_half
])
def test_delta_matches_expanded_denominator_oracle(monkeypatch, case):
    # With full = lhsN * D_R - rhsN * D_L (the nominal numerators, both
    # denominators expanded) and L the lcm of the held denominators (the
    # binomials each packed numerator is over) as multisets of binomials, the
    # delta handed to valuation_at times D_L D_R is L full, and every found
    # valuation is full's, counted by repeated division.
    seen = []
    real_check = congruence.check_congruence
    real_valuation = congruence.valuation_at

    def check(lhs, rhs, modulus, **kwargs):
        a, b = lhs.series(), rhs.series()
        full = sub(_times_expanded(a.numerator, b.denominator),
                   _times_expanded(b.numerator, a.denominator))
        lcm = _lcm(lhs.held, rhs.held)
        deltas = []
        monkeypatch.setattr(
            congruence, "valuation_at",
            lambda a, d: deltas.append(a) or real_valuation(a, d))
        report = real_check(lhs, rhs, modulus, **kwargs)
        assert report.identically_equal == full.is_zero()
        if full.is_zero():
            assert not deltas
            assert all(p.found == INFINITE for p in report.parts)
        else:
            assert deltas
            assert all(_times_expanded(_times_expanded(x, lhs.denominator),
                                       rhs.denominator)
                       == _times_expanded(full, lcm) for x in deltas)
            assert [p.found for p in report.parts] \
                == [_division_valuation(full, d) for d, _ in modulus.parts]
        seen.append(len(deltas))
        return report

    monkeypatch.setattr(congruence, "check_congruence", check)
    if case["kind"] in PRODUCT_CONJECTURES:
        product_conjecture_global(**case)   # the engine goes the local path
    else:
        verify_case(**case)
    assert sum(seen) > 0


def _closed_form(rng):
    # a side of one or two terms held over 1 - q or nothing: a lemma or
    # root closed form, gw's or qj2's corrected target, or a bare
    # one-term run, held over nothing, so lifted by all of the other's extra
    family, n = rng.choice("CJ"), rng.randrange(3, 12, 2)
    draw = rng.randrange(4)
    if draw == 0:
        return congruence._target(family, n, 1, 2, -n), "lemma"
    if draw == 1:
        m = n * rng.randrange(1, 6, 2)
        return SeriesSum([([], [], [], 0, 1)], bits=1).scaled(m, 1), "root"
    if draw == 2:
        return congruence._corrected_target(family, n), "corrected"
    c = rng.choice((-1, 1)) * rng.randint(1, 40)
    return SeriesSum([([], [], [], rng.randint(-3, 3), c)],
                     bits=c.bit_length()), "bare"


def _long_side(rng):
    # a C, J or M plan in base 1-3, with or without t, maybe scaled
    family = rng.choice(qseries.FAMILIES)
    t = rng.choice((None, rng.randrange(-9, 10, 2))) if family != "M" \
        else None
    side = plan_sum(FamilySpec(family, rng.randint(1, 3), rng.randint(2, 6),
                               t))
    tags = {family, "t" if t else "no t"}
    if cofactor(side).factors:
        tags.add("stopped")
    if rng.random() < 0.5:
        side = side.scaled(rng.choice((1, 3, 5)), rng.choice((-1, 1, 24)))
        tags.add("scaled")
    return side, tags


def _pair(seed):
    # (lhs, rhs, the long side, tags): the closed form on either side
    rng = random.Random(seed)
    (closed, form), (long, tags) = _closed_form(rng), _long_side(rng)
    if rng.random() < 0.5:
        return closed, long, long, tags | {form, "closed left"}
    return long, closed, long, tags | {form, "closed right"}


def _starts(lhs, rhs):
    # the rule: a run whose extra is the other side's held
    return any(isinstance(run.numerator, list) and run.extra == other.held
               for run, other in ((lhs, rhs), (rhs, lhs)))


def test_a_closed_form_starts_the_long_run(monkeypatch):
    # A run whose extra is the other side's held divisor starts
    # from the other side's value, negated, whatever was built before.
    # Its delta is the oracle's difference of the two sides lifted to
    # their lcm, and building the run at w first changes neither the
    # delta nor the start value that the run receives.  A bare one-term
    # run, held over nothing, starts only an unscaled M run.
    starts = []
    real = congruence._accumulate

    def spy(run, w, start=0, start_off=0):
        starts.append((start, start_off))
        return real(run, w, start, start_off)

    monkeypatch.setattr(congruence, "_accumulate", spy)
    rng = random.Random(3636)
    draws = []
    for trial in range(80):
        seed = rng.random()
        lhs, rhs, _, tags = _pair(seed)
        before = len(starts)
        lcm, delta, w, offset = congruence._delta(lhs, rhs)
        first = starts[before:]
        assert bool(first) == _starts(lhs, rhs), trial
        if first:
            assert first[0][0], trial
            tags.add("started")
        lhs, rhs, long, _ = _pair(seed)
        long.packed(w)
        before = len(starts)
        assert congruence._delta(lhs, rhs) == (lcm, delta, w, offset), trial
        assert starts[before:] == first, trial
        oracle_lcm, a, b = lcm_cross_products(over_held(lhs), over_held(rhs))
        assert oracle_lcm == lcm, trial
        assert Poly(polycore._slots(delta, w), offset) == sub(a, b), trial
        draws.append(tags)
    started = [tags for tags in draws if "started" in tags]
    assert {"C", "J", "M"} <= set().union(*draws)
    for tag in ("closed left", "closed right", "lemma", "root", "corrected",
                "bare", "t", "no t", "stopped", "scaled"):
        assert any(tag in tags for tags in started), tag
    assert all("M" in tags and "scaled" not in tags
               for tags in started if "bare" in tags)
    assert len(started) < len(draws)


def _hand_built(rng):
    # a run of 0-4 steps of small binomials, each term's coefficient
    # below 4 in size, over its dens and 0-2 more binomials (the tail of
    # a stopped sum), and 1 - q or nothing as extra; bits counts each
    # binomial as a doubling, two bits for the coefficient and the terms'
    # count
    run = [tuple([rng.randint(1, 6) for _ in range(rng.randint(0, most))]
                 for most in (2, 2, 1))
           + (rng.randint(-2, 2), rng.choice((-3, -1, 1, 2)))
           for _ in range(rng.randint(0, 4))]
    den = Counter(e for step in run for e in step[1])
    den.update(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
    bits = sum(len(b) for step in run for b in step[:3]) + 2 \
        + len(run).bit_length()
    return SeriesSum(run, FactoredProduct(dict(den)),
                     FactoredProduct({1: 1} if rng.random() < 0.5 else {}),
                     bits)


def test_hand_built_runs_over_a_tail_match_the_oracle():
    # A hand-built run whose denominator holds binomials its dens lack is
    # held over its extra times its dens alone, so both delta paths, a
    # closed form starting the run and the lift of each side, give the
    # oracle's difference of the two sides lifted to their lcm, with the
    # run on either side and empty runs too: 1 and 0 over the tail 1 - q^2
    # against 1 first, then seeded draws.  A run whose dens its
    # denominator lacks raises.
    def matches(lhs, rhs):
        lcm, delta, w, offset = congruence._delta(lhs, rhs)
        oracle_lcm, a, b = lcm_cross_products(over_held(lhs), over_held(rhs))
        assert oracle_lcm == lcm
        assert Poly(polycore._slots(delta, w), offset) == sub(a, b)
        assert check_identity_equal(lhs, rhs) == (a == b)
        return a == b

    one = SeriesSum([([], [], [], 0, 1)], bits=1)
    tail = FactoredProduct({2: 1})
    for side, equal in ((replace(one, denominator=tail), True),
                        (SeriesSum([], tail, bits=0), False)):
        assert matches(side, one) == matches(one, side) == equal
    rng = random.Random(3737)
    seen = Counter()
    for _ in range(300):
        run, (closed, _) = _hand_built(rng), _closed_form(rng)
        lhs, rhs = (run, closed) if rng.random() < 0.5 else (closed, run)
        matches(lhs, rhs)
        seen["started" if _starts(lhs, rhs) else "lifted"] += 1
        seen["tail"] += run.held != factored_times(run.denominator, run.extra)
        seen["empty"] += not run.numerator and _starts(lhs, rhs)
        dens = [e for step in run.numerator for e in step[1]]
        if dens:
            lacked = rng.choice(dens)
            with pytest.raises(ValueError, match="not among"):
                SeriesSum(run.numerator, FactoredProduct(
                    {m: e for m, e in run.denominator.factors.items()
                     if m != lacked}), run.extra, run.bits)
            seen["raised"] += 1
    assert min(seen.values()) >= 20, seen


def test_the_lemma_cases_make_no_long_lift(monkeypatch):
    # lemma22 and lemma31 at n = 81 and gw at n = 15 compare a long sum
    # with a closed form held over the sum's extra: the closed form
    # starts the sum's run, so nothing is lifted.  An r = 1 root case
    # runs its left sum once: its closed form is compared with the
    # companion once the two sums are equal.  param-roots-c at (5, 2),
    # j = 1, lifts both sums and runs its left sum, stopped by t = -15
    # after 8 steps, once too.
    lifted = []
    real_lifted = congruence._lifted
    monkeypatch.setattr(congruence, "_lifted", lambda x, lift, bits: (
        lifted.append(sum(lift.values())) or real_lifted(x, lift, bits)))
    for kind, n in (("lemma22", 81), ("lemma31", 81), ("gw", 15)):
        lifted.clear()
        assert verify_case(kind, n=n).passed, kind
        assert lifted == [], kind
    runs = []
    for module in (qseries, congruence):
        monkeypatch.setattr(module, "_accumulate", partial(
            lambda real, run, w, *start: runs.append(len(run))
            or real(run, w, *start), module._accumulate))
    for kind, case, steps in (("param-roots-c", (81, 1, 2, 0), 41),
                              ("param-roots-j", (81, 1, 2, 0), 41),
                              ("param-roots-c", (5, 2, 2, 1), 8)):
        runs.clear()
        assert verify_case(kind, **dict(zip("nrdj", case))).passed, kind
        assert max(runs) == steps and runs.count(steps) == 1, (kind, case)


@pytest.mark.parametrize("kind", ["param-roots-c", "param-roots-j"])
def test_a_root_case_falls_back_to_its_long_sum(monkeypatch, kind):
    # When the two sums differ, the closed form (C) or the printed reading
    # (J) is compared with the long sum itself, and the report carries
    # what a direct comparison gives.
    pairs = []
    real = congruence.check_identity_equal

    def check(lhs, rhs):
        pairs.append((lhs, rhs))
        return real(lhs, rhs) if len(pairs) > 1 else False

    monkeypatch.setattr(congruence, "check_identity_equal", check)
    report = verify_case(kind, n=5, r=2, d=2, j=1)
    (lhs, _), (left, other) = pairs
    assert left is lhs
    direct = real(lhs, other)
    if kind == "param-roots-c":
        assert report.extra["closed_form"] is direct
    else:
        assert report.extra["readings"] == {"scaled": False,
                                            "printed": direct}


def _random_poly(rng):
    return Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 12))],
                rng.randint(-4, 4))


def test_found_matches_full_difference_on_random_pairs():
    # Denominators over 1 - q^{2j} against 1 - q^{2n^2 k}: they share
    # Phi_d content through different binomials, so neither need hold the
    # other's.  Every found equals the repeated-division valuation of the
    # schoolbook full difference of the nominal numerators.
    rng = random.Random(4142)
    shapes = set()
    for trial in range(60):
        n = rng.choice((3, 5))
        den_l = FactoredProduct({2 * j: rng.randint(1, 3)
                                 for j in rng.sample(range(1, 14), 4)})
        den_r = FactoredProduct({2 * n * n * k: rng.randint(1, 2)
                                 for k in rng.sample(range(1, 3), 1)})
        # every third left numerator holds a binomial of its denominator
        cof_l = {m: 1 for m in list(den_l.factors)[:1]} if trial % 3 == 0 \
            else {}
        lhs = SeriesSum(times_binomials(_random_poly(rng), cof_l), den_l)
        rhs = SeriesSum(_random_poly(rng), den_r)
        if trial % 10 == 1:
            rhs = lhs                               # identical sides
        elif trial % 10 == 2:
            rhs = SeriesSum(Poly.zero(), den_r)     # a zero numerator
        elif trial % 10 == 3:
            lhs, rhs = rhs, lhs
        modulus = ModulusSpec([(d, 1) for d in sorted(
            {2, n, 2 * n, n * n, 2 * n * n, rng.randint(3, 40)})])
        full = sub(_times_expanded(lhs.numerator, rhs.denominator),
                   _times_expanded(rhs.numerator, lhs.denominator))
        report = check_congruence(lhs, rhs, modulus)
        assert report.identically_equal == full.is_zero()
        expected = [INFINITE if full.is_zero() else _division_valuation(full, d)
                    for d, _ in modulus.parts]
        assert [p.found for p in report.parts] == expected, trial
        assert check_identity_equal(lhs, rhs) == full.is_zero()
        held = lhs.held, rhs.held
        shapes.add((full.is_zero(), _nests(*held) or _nests(*held[::-1])))
    assert shapes == {(True, True), (False, False), (False, True)}


@pytest.mark.parametrize("family", ["c", "j"])
def test_sampled_parts_match_full_accumulation(monkeypatch, family):
    # the stopped sums give the same report as the full accumulations
    cases = [dict(kind=f"param-sampled-{family}", n=n, r=r, d=d, t=t)
             for n in (3, 5) for r in (1, 2) for d in (1, 2)
             for t in (3, 5, 7, 9)]
    stopped = []
    engine_plan = congruence.plan_sum

    def recording_plan(spec):
        side = engine_plan(spec)
        stopped.append(cofactor(side) != FactoredProduct())
        return side

    monkeypatch.setattr(congruence, "plan_sum", recording_plan)
    fast = [verify_case(**case).to_dict() for case in cases]
    # the full accumulations, every step taken, are Poly sums, so the
    # oracle scales them
    monkeypatch.setattr(congruence, "plan_sum", sum_by_passes)
    monkeypatch.setattr(SeriesSum, "scaled", scaled)
    slow = [verify_case(**case).to_dict() for case in cases]
    for a, b in zip(fast, slow):
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b, a["label"]
    assert any(stopped) and not all(stopped)


def _identity_pairs(rng):
    # (lhs, rhs, overlap, equal): lhs = Y E_L / (C E_L) and rhs the same
    # value written as Y E_R / (C E_R), then rhs with one numerator
    # coefficient changed.  The denominators share C only.
    def factors(bases):
        return {m: rng.randint(1, 4) for m in bases}

    def side(y, extra, common):
        num = _times_expanded(y, FactoredProduct(extra))
        return SeriesSum(num, factored_times(FactoredProduct(common),
                                             FactoredProduct(extra)))

    layouts = {
        "none": ({}, [3, 7, 11], [2, 5]),
        "partial": ({4: 2, 9: 1}, [1, 6], [10, 13, 40]),
        "full": ({2: 3, 5: 1, 8: 2}, [], []),
    }
    for overlap, (common, left, right) in layouts.items():
        y = laurent([rng.randint(-50, 50) for _ in range(rng.randint(1, 30))]
                    + [rng.choice((-1, 1))], rng.randint(-9, 9))
        lhs = side(y, factors(left), common)
        rhs = side(y, factors(right), common)
        yield lhs, rhs, overlap, True
        cs = list(rhs.numerator.coeffs)
        cs[rng.randrange(len(cs))] += 1
        bumped = SeriesSum(Poly(cs, rhs.numerator.offset), rhs.denominator)
        yield lhs, bumped, overlap, False


def test_identity_equal_matches_full_cross_multiplication():
    rng = random.Random(2019)
    kinds = set()
    for _ in range(4):
        for lhs, rhs, overlap, equal in _identity_pairs(rng):
            full_equal = _times_expanded(lhs.numerator, rhs.denominator) \
                == _times_expanded(rhs.numerator, lhs.denominator)
            assert full_equal == equal
            assert check_identity_equal(lhs, rhs) == equal
            assert check_identity_equal(rhs, lhs) == equal
            shared = _shared(lhs.denominator, rhs.denominator).factors
            kinds.add((overlap, bool(shared),
                       shared == lhs.denominator.factors))
    assert kinds == {("none", False, False), ("partial", True, False),
                     ("full", True, True)}


def test_multiplying_by_cyclotomic_raises_found_by_one():
    lhs = sum_truncated(FamilySpec("C", 1, 2))
    rhs = SeriesSum(shift(q_integer(5), -2))
    modulus = ModulusSpec([(5, 1)])
    base = check_congruence(lhs, rhs, modulus)
    phi = cyclotomic(5)
    boosted = check_congruence(
        SeriesSum(lhs.numerator * phi, lhs.denominator),
        SeriesSum(rhs.numerator * phi, rhs.denominator), modulus)
    for p0, p1 in zip(base.parts, boosted.parts):
        assert p1.found == p0.found + 1


def test_common_integer_factors_do_not_change_verdicts():
    # a nonzero integer is a unit modulo every Phi_d, so multiplying both
    # sides by it (as gw and qj2 do by 24) moves no valuation
    lhs = sum_truncated(FamilySpec("C", 1, 1))
    rhs = SeriesSum(shift(q_integer(3), -1))
    modulus = ModulusSpec([(3, 3)])
    plain = check_congruence(lhs, rhs, modulus)
    for factor in (24, -7, 168):
        scaled = check_congruence(
            SeriesSum(scale(lhs.numerator, factor), lhs.denominator),
            SeriesSum(scale(rhs.numerator, factor), rhs.denominator), modulus)
        assert [(p.required, p.found) for p in plain.parts] \
            == [(p.required, p.found) for p in scaled.parts]


# ---------------------------------------------------------------------------
# closed-form identities


def test_quartic_root_identity_small():
    # n=3: parametric sum at t=-3 equals q^-1 [3] exactly
    lhs = sum_truncated(FamilySpec("C", 1, 1, -3))
    rhs = SeriesSum(shift(q_integer(3), -1))
    assert check_identity_equal(lhs, rhs)


def test_identity_cases_via_driver():
    assert verify_case("lemma22", n=1).passed
    for n in range(3, 23, 2):
        assert verify_case("lemma22", n=n).passed, n
        assert verify_case("lemma31", n=n).passed, n


def test_sextic_root_identity_sign():
    # second closed form evaluates to -q^-1 [3] at n=3
    lhs = sum_truncated(FamilySpec("J", 1, 1, -3))
    rhs = SeriesSum(scale(shift(q_integer(3), -1), -1))
    assert check_identity_equal(lhs, rhs)
    assert not check_identity_equal(
        lhs, SeriesSum(shift(q_integer(3), -1)))


# ---------------------------------------------------------------------------
# terminating 6phi5


def test_jackson_trivial_and_specializations():
    assert jackson_6phi5_terminating(2, 1, 1, 0, base=1)
    for n in range(3, 17, 2):
        assert jackson_6phi5_terminating(1, 1, 1 + n, (n - 1) // 2, base=2), n


def test_jackson_small_case_matches_bruteforce_evaluation():
    # independent check: evaluate both sides of the identity at rational
    # points straight from the defining products
    a_exp, b_exp, c_exp, upper, s = 2, 1, 1, 3, 1
    assert jackson_6phi5_terminating(a_exp, b_exp, c_exp, upper, s)
    for x in (Fraction(2, 3), Fraction(5, 7)):
        assert _eval_6phi5_sum(a_exp, b_exp, c_exp, upper, s, x) \
            == _eval_6phi5_closed(a_exp, b_exp, c_exp, upper, s, x)


def _poch_val(start, step, count, x):
    val = Fraction(1)
    for i in range(count):
        val *= 1 - x ** (start + step * i)
    return val


def _eval_6phi5_sum(a, b, c, n, s, x):
    total = Fraction(0)
    for k in range(n + 1):
        term = (1 - x ** (a + 2 * s * k)) / (1 - x ** a)
        term *= _poch_val(a, s, k, x) * _poch_val(b, s, k, x)
        term *= _poch_val(c, s, k, x) * _poch_val(-s * n, s, k, x)
        term /= (_poch_val(s, s, k, x) * _poch_val(a - b + s, s, k, x)
                 * _poch_val(a - c + s, s, k, x)
                 * _poch_val(a + s * (n + 1), s, k, x))
        term *= x ** ((a + s * (n + 1) - b - c) * k)
        total += term
    return total


def _eval_6phi5_closed(a, b, c, n, s, x):
    return (_poch_val(a + s, s, n, x) * _poch_val(a - b - c + s, s, n, x)
            / (_poch_val(a - b + s, s, n, x) * _poch_val(a - c + s, s, n, x)))


def test_jackson_random_instances_against_bruteforce():
    rng = random.Random(20240314)
    done = 0
    while done < 30:
        s = rng.choice([1, 2])
        a, b, c = (rng.randint(-4, 5) for _ in range(3))
        n = rng.randint(0, 3)
        if a == 0 or any(a - b + s * k == 0 or a - c + s * k == 0
                         or a + s * (n + k) == 0 for k in range(1, n + 1)):
            continue
        assert jackson_6phi5_terminating(a, b, c, n, s), (a, b, c, n, s)
        x = Fraction(rng.randint(2, 5), rng.randint(6, 9))
        assert _eval_6phi5_sum(a, b, c, n, s, x) \
            == _eval_6phi5_closed(a, b, c, n, s, x)
        done += 1


def test_jackson_vanishing_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        jackson_6phi5_terminating(0, 1, 1, 2, base=1)
    with pytest.raises(ZeroDivisionError):
        jackson_6phi5_terminating(1, 2, 1, 2, base=1)  # a-b+s == 0


# ---------------------------------------------------------------------------
# parametric drivers


def test_parametric_roots_examples():
    rep = verify_case("param-roots-c", n=3, r=1, d=2, j=0)
    assert rep.passed and rep.identically_equal and rep.extra["closed_form"]
    for j in admissible_root_indices(3, 2, 1):
        assert verify_case("param-roots-c", n=3, r=2, d=1, j=j).passed, j
    rep = verify_case("param-roots-j", n=3, r=1, d=2, j=0)
    assert rep.passed
    assert rep.extra["readings"]["scaled"]


def test_lemma_is_the_r1_root_case():
    # the closed-form lemmas compare the same two sides as the root case
    # at r = 1, d = 2, j = 0, whose companion is the one-term sum
    for n in range(3, 12, 2):
        assert verify_case("lemma22", n=n).passed, n
        rep = verify_case("param-roots-c", n=n, r=1, d=2, j=0)
        assert rep.identically_equal, n
        assert verify_case("lemma31", n=n).passed, n
        rep = verify_case("param-roots-j", n=n, r=1, d=2, j=0)
        assert rep.identically_equal and rep.extra["readings"]["scaled"], n


def test_parametric_roots_j_readings_disagree_for_deeper_targets():
    rep = verify_case("param-roots-j", n=3, r=2, d=1, j=1)
    assert rep.extra["readings"]["scaled"] is True
    assert rep.extra["readings"]["printed"] is False
    assert rep.passed


def test_parametric_roots_rejects_out_of_range_j():
    with pytest.raises(ValueError):
        verify_case("param-roots-c", n=3, r=1, d=2, j=1)


def test_parametric_sampled_examples():
    assert verify_case("param-sampled-c", n=3, r=1, d=2, t=5).passed
    assert verify_case("param-sampled-c", n=3, r=2, d=1, t=7).passed
    assert verify_case("param-sampled-j", n=5, r=1, d=2, t=3).passed


def test_parameter_inversion_symmetry():
    # the sum is invariant under t -> -t as a rational function
    for t in (3, 9):
        for d in (1, 2):
            plus = sum_truncated(FamilySpec("C", 1, (3 - 1) // d, t))
            minus = sum_truncated(FamilySpec("C", 1, (3 - 1) // d, -t))
            assert check_identity_equal(plus, minus), (t, d)


# ---------------------------------------------------------------------------
# case driver


def test_theorem_cases_and_r1_target_is_single_term():
    for n in (3, 5, 7):
        rep = verify_case("thm1-half", n=n, r=1)
        assert rep.passed and not rep.identically_equal, n
    rep = verify_case("thm2-half", n=3, r=2)
    assert rep.passed


def test_gw_modulus_for_prime_n_is_fourth_power():
    rep = verify_case("gw", n=5)
    assert rep.passed
    assert [(p.d, p.required) for p in rep.parts] == [(5, 4)]


def test_conjecture_cases_flagged():
    rep = verify_case("conj41", n=3, r=1)
    assert rep.conjectural
    assert rep.passed  # expected pass; failure would be a finding
    rep = verify_case("qj2", n=3)
    assert rep.conjectural and rep.passed


def test_half_vs_full_separation():
    rep = verify_case("half-vs-full-m", n=3, r=1)
    assert rep.passed
    by_component = {p.component: p for p in rep.parts}
    assert by_component["separation"].expect == "lt"
    assert by_component["separation"].margin < 0
    assert by_component["agreement"].margin >= 0


def test_half_vs_full_compares_the_tail_past_the_half(monkeypatch):
    # The sides are the full sum's terms half+1..top-1 over F_{top-1}
    # and 0 over F_half: their difference is M(top - 1) - M(half), both
    # accumulated by the list oracle.  The reports alone do not pin the
    # start, since the terms past the half each carry (1 - q^top)^4.
    sides = []
    real_check = congruence.check_congruence

    def check(lhs, rhs, *args, **kwargs):
        sides.append((lhs, rhs))
        return real_check(lhs, rhs, *args, **kwargs)

    monkeypatch.setattr(congruence, "check_congruence", check)
    for n, r in ((3, 1), (5, 1)):
        sides.clear()
        verify_case("half-vs-full-m", n=n, r=r)
        (tail, zero), = sides
        top = n ** (r + 1)
        full = sum_by_passes(FamilySpec("M", 1, top - 1))
        half = sum_by_passes(FamilySpec("M", 1, (top - 1) // 2))
        assert zero.series().numerator.is_zero()
        assert zero.denominator == half.denominator
        tail = tail.series()
        assert tail.denominator == full.denominator
        assert tail.numerator == sub(full.numerator, _times_expanded(
            half.numerator, divided_by(full.denominator, half.denominator)))


def test_verify_case_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_case("thm1-half", n=4, r=1)
    with pytest.raises(ValueError):
        verify_case("thm1-half", n=3, r=0)
    # the modulus validates r before the sides' ranges are formed
    for r in (0, -1):
        with pytest.raises(ValueError, match="r must be >= 1"):
            verify_case("thm1-full", n=3, r=r)
    with pytest.raises(ValueError):
        verify_case("param-sampled-c", n=3, r=1, d=2)  # t missing
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        verify_case("nope", n=3)
    # a check's constants are bound in its runner, not taken as params
    with pytest.raises(TypeError):
        verify_case("thm1-half", n=3, half=False)
    with pytest.raises(TypeError):
        verify_case("gw", n=3, conjectural=True)
    # only conj43 of the product checks has a d axis
    with pytest.raises(TypeError):
        verify_case("conj41", n=3, d=1)
    with pytest.raises(TypeError):
        verify_case("conj42", n=3, d=1)


# ---------------------------------------------------------------------------
# q -> 1 consistency with the classical checks


def test_q_side_pass_implies_classical_pass():
    from qcongruence.padic import verify_swisher
    for p in (5, 7):
        assert verify_case("thm1-half", n=p, r=1).passed
        assert verify_swisher("c3", p, 1, 3).passed
        assert verify_case("thm2-half", n=p, r=1).passed
        assert verify_swisher("j3", p, 1, 3).passed
