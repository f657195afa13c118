"""The local path (qcongruence.local) against the global one.

The global path expands every sum, cross-multiplies through the lcm
of the denominators and counts each power of Phi_d by division
(check_congruence).  The local path reads the same part off P
rows at q = zeta_d (1 + x), from the same plans (plan_sum).  Every part
must agree: on the product conjectures, on seeded random pairs of sums
of the three families with and without t, scaled or not and against
zero, on pairs that are equal, and on every comparison of the global
checks of the two fingerprint sweeps, each between two plans.  A run
stopped after its last live term must differ from the full run
(tests/oracles.py) by a unit alone, and must stop where it can.
"""

import json
import random
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

from qcongruence import congruence, local
from qcongruence.cli import RunConfig, sweep
from qcongruence.congruence import (
    LOCAL_RUN,
    ModulusSpec,
    _global,
    _local,
    _sides,
    build_modulus_theorem,
    check_congruence,
    verify_case,
)
from qcongruence.local import certify_part
from qcongruence.polycore import INFINITE, Poly, _pack
from qcongruence.qseries import (
    FamilySpec,
    SeriesSum,
    _steps,
    plan_sum,
    target_sign,
)

from oracles import (
    LocalNorms,
    add,
    cofactor,
    local_bracket_full,
    local_evaluate_full,
    local_value,
    mul_schoolbook,
    one_minus_q,
    product_conjecture_global,
    scaled,
    series_times,
    shift,
    sweep_cases,
)

ROOT = Path(__file__).resolve().parent.parent

#: (required, found) from product_conjecture_global where it takes from
#: 0.2 s to 8 s; the other cases are compared with it as they run.
GLOBAL_PARTS = {"conj41 n=5 r=2": (195, 195), "conj42 n=5 r=2": (99, 99),
                "conj43 n=5 r=2 d=1": (194, 194),
                "conj43 n=5 r=2 d=2": (98, 98)}


def test_product_sweep_matches_the_global_path_with_margin_zero():
    # The committed n <= 7 sweep at n <= 5: every conj41/42/43 case with
    # r <= 2 and d in {1, 2}.  Each part equals the global path's, and
    # every exponent is met exactly.
    path = ROOT / "sweeps" / "product-conjectures.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    config["n_values"] = [3, 5]
    entries = sweep(RunConfig.from_dict(config)).entries
    assert len(entries) == 16
    for entry in entries:
        expected = GLOBAL_PARTS.get(entry["label"])
        if expected is None:
            params = entry["params"]
            oracle = product_conjecture_global(
                entry["kind"], params["n"], params["r"], params.get("d", 2))
            expected = (oracle.parts[0].required, oracle.parts[0].found)
            assert (entry["pass"], entry["identically_equal"]) \
                == (oracle.passed, oracle.identically_equal), entry["label"]
        required, found = expected
        assert [(p["d"], p["required"], p["found"], p["margin"])
                for p in entry["parts"]] \
            == [(entry["params"]["n"], required, found, 0)], entry["label"]
        assert entry["pass"] and entry["conjectural"]


@pytest.fixture
def routed(monkeypatch):
    """The comparisons check_congruence sends down the local path, one
    entry each, as they are made."""
    seen = []
    real = congruence._local

    def witnessed(lhs, rhs, modulus):
        seen.append((lhs, rhs))
        return real(lhs, rhs, modulus)

    monkeypatch.setattr(congruence, "_local", witnessed)
    return seen


def test_product_conjecture_reports_go_local(routed):
    verify_case("conj43", n=3, r=1, d=1)
    assert len(routed) == 1


def test_sweep_comparisons_match_the_global_path(monkeypatch):
    # Every part of every comparison the global checks of both
    # fingerprint sweeps make, each between two plans: the theorem sides
    # against their scaled companions, gw's and qj2's against their
    # corrected targets, the sampled sides against each other and against
    # zero (an empty plan), half-vs-full-m's tail against zero.  found
    # only: neither path computes required.  Left out: half-vs-full-m
    # (5, 2), whose 62-step run check_congruence already sends local,
    # while the global path takes seconds on it, and the 8 parts whose
    # sides are equal (param-sampled at n = 3, r = 2, t = 9), which take
    # up to 1.5 s each before the rows alone prove them INFINITE.
    a = plan_sum(FamilySpec("C", 1, 4))
    b = plan_sum(FamilySpec("C", 3, 1)).scaled(3, 1)
    assert certify_part([a], [b], 3, 3) == 11
    seen = []
    real = congruence.check_congruence

    def recorded(lhs, rhs, modulus, **kwargs):
        report = real(lhs, rhs, modulus, **kwargs)
        seen.append((kind, lhs, rhs, modulus, report))
        return report

    monkeypatch.setattr(congruence, "check_congruence", recorded)
    for (kind, items), params in sweep_cases().items():
        if (kind, items) != ("half-vs-full-m", (("n", 5), ("r", 2))):
            verify_case(kind, **params)
    kinds, equal = Counter(), 0
    for kind, lhs, rhs, modulus, report in seen:
        assert all(isinstance(side.numerator, list) for side in (lhs, rhs))
        for (d, exponent), part in zip(modulus.parts, report.parts):
            if part.found == INFINITE:
                equal += 1
                continue
            assert certify_part([lhs], [rhs], d, exponent) == part.found, \
                (report.label, part.component, d)
            kinds[kind] += 1
    assert equal == 8 and sum(kinds.values()) == 314 and len(kinds) == 9


# The five kinds of spec a seeded draw picks from, in the order that fixes
# its draws: C, J and M, then C and J at a specialization t.
KINDS = ("C", "J", "M", "C_PARAM", "J_PARAM")


def _random_spec(rng, top):
    kind = rng.choice(KINDS)
    t = rng.randrange(-9, 10, 2) if kind.endswith("_PARAM") else None
    printed = kind[0] == "J" and rng.random() < 0.3
    return FamilySpec(kind[0], rng.randint(1, 5), rng.randint(0, top), t,
                      printed)


def _scale(rng, spec, kinds):
    # a scale (n, c) drawn as tests/test_width.py draws a side's, or None
    draw = rng.random()
    if draw < 0.4:
        n = rng.choice((1, 3, 5, spec.base)) | 1
        kinds["cancelled" if n in plan_sum(spec).extra.factors
              else "kept"] += 1
        return n, target_sign(spec.family, n)
    if draw < 0.5:
        kinds["factor"] += 1
        return 1, rng.choice((-24, 24, 7))
    return None


def _side(plan, scale):
    # (plan, sum): the plan scaled, and the same value built apart, the
    # unscaled sum scaled as a Poly by the oracle
    series = plan.series()
    if scale is None:
        return plan, series
    return plan.scaled(*scale), scaled(series, *scale).series()


def _compare(plans, sums, d, exponent):
    # the local part of plans[0] against the product of plans[1:] equals
    # the global part of the same sums
    right = sums[1] if len(sums) == 2 else series_times(*sums[1:])
    part = check_congruence(sums[0], right,
                            ModulusSpec([(d, exponent)])).parts[0]
    assert certify_part(plans[:1], plans[1:], d, exponent) == part.found, \
        (plans, d)
    return part


def test_random_pairs_match_the_global_path():
    # A left sum against one sum or a product of two, at d from 2 to 27;
    # stopped specialized sums have a tail.  Every fourth pair is an
    # unspecialized sum against its truncation at (d - 1) / 2 for an odd
    # d: the terms between vanish to order 3 or more, so the margin is
    # positive and shows only after the precision doubles.  The plans
    # turn negative denominator exponents around, which some pairs must
    # hold.
    rng = random.Random(1803)
    stopped = doubled = turned = 0
    for trial in range(40):
        d, exponent = rng.randint(2, 27), rng.randint(1, 3)
        if trial % 4 == 0:
            d = rng.randrange(3, 12, 2)
            half, family = (d - 1) // 2, rng.choice(("C", "J", "M"))
            lhs = [FamilySpec(family, 1, rng.randint(half + 1, d - 1))]
            rhs = [FamilySpec(family, 1, half)]
        else:
            lhs = [_random_spec(rng, 6)]
            rhs = [_random_spec(rng, 6) for _ in range(2 if trial % 4 == 1
                                                       else 1)]
        plans = [plan_sum(spec) for spec in lhs + rhs]
        sums = [plan.series() for plan in plans]
        part = _compare(plans, sums, d, exponent)
        stopped += any(cofactor(plan).factors for plan in plans)
        doubled += part.margin > 0
        turned += any(e < 0 for spec in lhs + rhs
                      for step in _steps(spec)[0] for e in step[1])
    assert stopped >= 5 and doubled >= 5 and turned >= 5
    # Scaled sides: 1 - q^n cancels the held one, or joins step 0 (a
    # printed J, or base != n), or the scale is the factor of gw; and
    # an empty plan, 0 over a denominator, on the right.  Every third
    # pair is a scaled plain sum against its truncation times the scale
    # alone, so that the margin shows a term scaled wrongly.
    kinds, one = Counter(), plan_sum(FamilySpec("M", 1, 0))
    for trial in range(36):
        d, exponent = rng.randint(2, 27), rng.randint(1, 3)
        if trial % 3 == 0:
            d = rng.randrange(3, 12, 2)
            half, family = (d - 1) // 2, rng.choice(("C", "J", "M"))
            full = FamilySpec(family, 1, rng.randint(half + 1, d - 1))
            scale = _scale(rng, full, kinds)
            sides = [_side(plan_sum(full), scale),
                     _side(plan_sum(FamilySpec(family, 1, half)), None)]
            sides += [_side(one, scale)] if scale else []
        else:
            specs = [_random_spec(rng, 6) for _ in range(2 + trial % 2)]
            sides = [_side(plan_sum(spec), _scale(rng, spec, kinds))
                     for spec in specs]
        if trial % 4 == 3:
            kinds["empty"] += 1
            den = sides[1][1].denominator
            sides[1:] = [(SeriesSum([], den, bits=0),
                          SeriesSum(Poly.zero(), den))]
        _compare(*zip(*sides), d, exponent)
    assert min(kinds[kind] for kind in ("cancelled", "kept", "factor",
                                        "empty")) >= 3, kinds


def test_stopped_runs_lack_one_unit_of_the_full_ones():
    # A run stops after its last term below x^P, entered at
    # x^(lift + gap).  The full run's V and B both hold the units of the
    # steps after it, U, that the stopped ones lack, so V_full B_stop and
    # V_stop B_full agree exactly in A_P, not only modulo Phi_d, and a
    # bracket of two single sums is the full one over the two sides' U.
    rng = random.Random(2703)
    stopped = 0
    for _ in range(30):
        d, precision = rng.randint(2, 27), rng.randint(1, 6)
        ring = local._Ring(d, precision)
        sums = [local._read(plan_sum(_random_spec(rng, 9)), d)
                for _ in range(2)]
        lifts = [rng.randint(0, 2) for _ in sums]
        full, stop = [], []
        for series, lift in zip(sums, lifts):
            v_full, b_full = local_evaluate_full(ring, series)
            v_stop, b_stop = local._evaluate(ring, series, lift)
            assert ring.mul(ring.shifted(v_full, lift), b_stop) \
                == ring.mul(v_stop, b_full), (series, d, precision, lift)
            full.append(b_full)
            stop.append(b_stop)
            stopped += len(local._live(series, lift, precision)) \
                < len(series.run)
        assert ring.mul(local_bracket_full(ring, *sums, *lifts),
                        ring.mul(*stop)) \
            == ring.mul(local._bracket(ring, sums[:1], sums[1:], *lifts),
                        ring.mul(*full))
    assert stopped >= 5, stopped


def test_a_run_stops_after_its_last_live_term(monkeypatch):
    # thm1-full (7, 2): at d = 49 (P = 4) every C term from k = 25 on
    # holds (1 - q^49)^4, so the 49-step run stops after 25 steps and the
    # 7-step companion after 4; run to their ends they took 487 unit
    # multiplies at d = 49 and 493 at d = 7.  No J gap of thm2-full
    # reaches P, so its runs go to the end.  Counted on whichever ring a
    # part takes, not on its _Norms pass.
    calls = Counter()

    def counting(real):
        def counted(ring, a, e):
            calls[kind, ring.d] += 1
            return real(ring, a, e)
        return counted

    lhs, rhs = (local._read(plan, 49) for plan in _sides("C", 7, 2, 1))
    assert [len(local._live(s, 0, 4)) for s in (lhs, rhs)] == [25, 4]
    for ring in (local._Ring, local._Packed):
        monkeypatch.setattr(ring, "times_unit", counting(ring.times_unit))
    for kind in ("thm1-full", "thm2-full"):
        verify_case(kind, n=7, r=2)
    assert calls == {("thm1-full", 7): 469, ("thm1-full", 49): 259,
                     ("thm2-full", 7): 400, ("thm2-full", 49): 400}


def _program(rng, d, length):
    # a random run of A_P operations, each on two earlier results of the
    # pool [1, 0, ...]: units with negative exponents and exponents d
    # divides, powers with negative shifts, products, sums and shifts
    program = []
    for k in range(length):
        i, j = rng.randrange(k + 2), rng.randrange(k + 2)
        op = rng.choice(("unit", "unit", "power", "mul", "add", "shift"))
        if op == "unit":
            e = rng.choice((rng.randint(1, 3 * d), -rng.randint(1, 3 * d),
                            d * rng.choice((-2, -1, 1, 3))))
            program.append(("times_unit", (i,), e))
        elif op == "power":
            program.append(("times_power", (i,), rng.randint(-3 * d, 3 * d)))
        elif op == "mul":
            program.append(("mul", (i, j), None))
        elif op == "add":
            program.append(("add", (i, j), rng.choice((-7, -1, 1, 2, 24))))
        else:
            program.append(("shifted", (i,), rng.randint(0, 3)))
    return program


def _apply(ring, program):
    # every element the program makes in ring, the pool's two first
    pool = [ring.one(), ring.zero()]
    for name, args, value in program:
        args = [pool[k] for k in args] + ([] if value is None else [value])
        pool.append(getattr(ring, name)(*args))
    return pool


def _within(rows, bounds):
    # every row's l1 norm is at most its bound
    return all(sum(map(abs, row)) <= bound
               for row, bound in zip(rows, bounds, strict=True))


def _majorizes(pair, bounds):
    # the majorant (b, l) of _Norms is at least every row's bound:
    # b l^i / i! >= bounds[i], in integers
    b, l = pair
    return all(b * l ** i >= bound * factorial(i)
               for i, bound in enumerate(bounds))


def test_each_rate_bounds_its_binomials():
    # The three weights _Norms bounds by the rate r of an exponent, for
    # i < P <= 12 and every nonzero exponent in [-400, 400]: |C(e, i)| <=
    # r^i / i! (a power q^e), delta_i0 + |C(e, i)| <= 2 r^i / i! (the unit
    # of 1 - q^e where d does not divide e) and |C(e, i + 1)| <= |e| r^i
    # / i! (where it does), in integers.
    for precision in range(1, 13):
        norms = local._Norms(2, precision)
        for e in range(-400, 401):
            if not e:
                continue
            rate, series = norms._rate(e), local._binomials(e, precision + 1)
            for i in range(precision):
                top, scale = rate ** i, factorial(i)
                assert abs(series[i]) * scale <= top, (e, precision, i)
                assert ((i == 0) + abs(series[i])) * scale <= 2 * top, \
                    (e, precision, i)
                assert abs(series[i + 1]) * scale <= abs(e) * top, \
                    (e, precision, i)


def test_packed_rows_and_norm_bounds_match_the_list_ring():
    # Random runs of every operation, d from 2 to 60 and P from 1 to 8:
    # each _Norms majorant bounds the oracle's row-by-row l1 bounds, each
    # of those bounds the l1 norm of the list ring's row, and the packed
    # ring, built at the width the majorants prove, reads back the list
    # ring's rows exactly.
    rng = random.Random(2804)
    seen = Counter()
    for _ in range(120):
        d, precision = rng.randint(2, 60), rng.randint(1, 8)
        program = _program(rng, d, rng.randint(4, 10))
        norms = local._Norms(d, precision)
        pairs = _apply(norms, program)
        bounds = _apply(LocalNorms(d, precision), program)
        rows = _apply(local._Ring(d, precision), program)
        assert all(map(_majorizes, pairs, bounds)), (d, precision, program)
        assert all(map(_within, rows, bounds)), (d, precision, program)
        packed = local._Packed(d, precision, max(map(norms.bound, pairs)))
        assert [list(map(packed.read, element))
                for element in _apply(packed, program)] == rows, \
            (d, precision, program)
        seen.update(name for name, _, _ in program)
        seen["negative"] += any(name == "times_unit" and e < 0
                                for name, _, e in program)
        seen["divisible"] += any(name == "times_unit" and e % d == 0
                                 for name, _, e in program)
    assert min(seen.values()) >= 50, seen


def test_both_forms_match_the_value_of_each_product():
    # Both forms against local_value (tests/oracles.py), which maps a
    # Laurent polynomial to A_P one monomial at a time, on seeded random
    # f and h, d from 2 to 40 and P from 1 to 7: x^v times the unit of
    # 1 - q^e times f, v = [d | e], is the value of f (1 - q^e), for
    # positive e, negative e and e a multiple of d; f q^s, f h and f + c h
    # are the values of the product and the sum.  The packed form enters
    # its operands through polycore._pack and reads back at the width of
    # the largest slot expected.
    rng = random.Random(3202)
    units = Counter()
    for _ in range(300):
        d, precision = rng.randint(2, 40), rng.randint(1, 7)
        f, h = (Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))],
                     rng.randint(-3 * d, 3 * d)) for _ in range(2))
        e = rng.choice((rng.randint(1, 3 * d), -rng.randint(1, 3 * d),
                        d * rng.choice((-2, -1, 1, 3))))
        s, c = rng.randint(-3 * d, 3 * d), rng.choice((-7, -1, 1, 2, 24))
        units["divisible" if e % d == 0 else "negative" if e < 0
              else "positive"] += 1

        def value(p):
            return local_value(p.coeffs, p.offset, d, precision)

        expected = [value(mul_schoolbook(f, one_minus_q(e))),
                    value(shift(f, s)), value(mul_schoolbook(f, h)),
                    value(add(f, h, c))]
        top = max(abs(v) for rows in expected for row in rows for v in row)
        ring = local._Ring(d, precision)
        packed = local._Packed(d, precision, top)
        for form, enter in ((ring, value), (packed, lambda p: [
                packed._fold(_pack(row, packed.width)) for row in value(p)])):
            a, b = enter(f), enter(h)
            got = [form.shifted(form.times_unit(a, e), int(e % d == 0)),
                   form.times_power(a, s), form.mul(a, b), form.add(a, b, c)]
            assert [list(map(form.read, rows)) for rows in got] == expected, \
                (type(form).__name__, d, precision, f, h, e, s, c)
    assert min(units.values()) >= 50, units


def test_plan_brackets_pack_at_their_proven_width():
    # The brackets of random plans, one sum against one or against a
    # product of two (through mul), d from 2 to 60 and P from 1 to 6: the
    # _Norms majorant of the bracket bounds the oracle's rows, which bound
    # the list ring's, and where the width it proves is at most
    # PACK_BITS, _ring packs and its rows read back as the list ring's.
    rng = random.Random(2805)
    kinds = Counter()
    for trial in range(60):
        d, precision = rng.randint(2, 60), rng.randint(1, 6)
        sides = [[local._read(plan_sum(_random_spec(rng, 9)), d)]
                 for _ in range(2)]
        sides[1] += [local._read(plan_sum(_random_spec(rng, 4)), d)
                     for _ in range(trial % 2)]
        lifts = [rng.randint(0, 2) for _ in sides]
        rows = local._bracket(local._Ring(d, precision), *sides, *lifts)
        bounds = local._bracket(LocalNorms(d, precision), *sides, *lifts)
        pair = local._bracket(local._Norms(d, precision), *sides, *lifts)
        assert _majorizes(pair, bounds), (sides, d, precision, lifts)
        assert _within(rows, bounds), (sides, d, precision, lifts)
        ring = local._ring(d, precision, *sides, *lifts)
        kinds[type(ring).__name__, len(sides[1])] += 1
        if isinstance(ring, local._Packed):
            assert list(map(ring.read, local._bracket(ring, *sides, *lifts))) \
                == rows, (sides, d, precision, lifts)
    assert min(kinds[("_Packed", n)] for n in (1, 2)) >= 10, kinds


def test_the_proven_width_chooses_the_ring(monkeypatch):
    # The benchmark's (7, 2) parts and conj41 (7, 1) pack: their bracket
    # rows are proven to fit slots of 152 to 544 bits (thm1-full's rows
    # hold 41 bits at d = 49).  thm1-full (7, 3)'s d = 7 part would need
    # 4312 bits by the same bound (4310 bits and a sign), so it takes the
    # list ring, and finds 387 there as it does packed at that width.
    chosen, calls = Counter(), []
    real = local._ring

    def recorded(*args):
        ring = real(*args)
        calls.append(args)
        chosen[kind, args[0], type(ring).__name__,
               getattr(ring, "width", 0)] += 1
        return ring

    monkeypatch.setattr(local, "_ring", recorded)
    for kind, params in (("thm1-full", {"n": 7, "r": 2}),
                         ("thm2-full", {"n": 7, "r": 2}),
                         ("conj41", {"n": 7, "r": 1})):
        verify_case(kind, **params)
    kind = "wide"
    lhs, rhs = _sides("C", 7, 3, 1)
    part = [lhs], [rhs], 7, dict(build_modulus_theorem(7, 3).parts)[7]
    assert certify_part(*part) == 387
    assert chosen == {("thm1-full", 7, "_Packed", 58): 1,
                      ("thm1-full", 49, "_Packed", 19): 1,
                      ("thm2-full", 7, "_Packed", 51): 1,
                      ("thm2-full", 49, "_Packed", 28): 1,
                      ("conj41", 7, "_Packed", 68): 1,
                      ("wide", 7, "_Ring", 0): 1}
    assert 8 * max(width for *_, width in chosen) <= local.PACK_BITS
    monkeypatch.setattr(local, "PACK_BITS", 8192)
    assert 8 * real(*calls[-1]).width == 4312
    # packed at that width, the same part reads the same
    kind = "wide, packed"
    assert certify_part(*part) == 387
    assert chosen[kind, 7, "_Packed", 539] == 1


@pytest.mark.parametrize("lhs, rhs", [
    ([FamilySpec("C", 1, 2)], [FamilySpec("C", 1, 2)]),
    ([FamilySpec("C", 1, 2)],
     [FamilySpec("M", 3, 0), FamilySpec("C", 1, 2)]),  # times the sum 1
    # stopped at k = 2, so equal to its truncation at 1 over a tail
    ([FamilySpec("C", 1, 3, 3)], [FamilySpec("C", 1, 1, 3)]),
])
def test_equal_sides_are_infinite(lhs, rhs):
    plans = [plan_sum(spec) for spec in lhs + rhs]
    sums = [plan.series() for plan in plans]
    right = sums[1] if len(sums) == 2 else series_times(*sums[1:])
    report = check_congruence(sums[0], right, ModulusSpec([(3, 1)]))
    assert report.identically_equal and report.parts[0].found == INFINITE
    assert certify_part(plans[:1], plans[1:], 3, 1) == INFINITE


def _branches_agree(lhs, rhs, modulus):
    # check_congruence's report against the global branch called directly
    report = check_congruence(lhs, rhs, modulus)
    founds, identical = _global([lhs], [rhs], modulus)
    assert [p.found for p in report.parts] == founds
    assert report.identically_equal == identical
    return report


@pytest.mark.parametrize("kind, family", [("thm1-full", "C"),
                                          ("thm2-full", "J")])
def test_long_theorem_cases_go_local_and_match(routed, kind, family):
    # thm1-full and thm2-full at (7, 2): a 49-step sum against its scaled
    # companion.  Their base-1 sums hold 1 - q, so the accumulator's seed
    # carries a unit the global path divides out.
    report = verify_case(kind, n=7, r=2)
    assert len(routed) == 1
    lhs, rhs = _sides(family, 7, 2, 1)
    assert len(lhs.numerator) == 49
    founds, identical = _global([lhs], [rhs], build_modulus_theorem(7, 2))
    assert [p.found for p in report.parts] == founds
    assert report.passed and not identical
    assert all(p.margin == 0 for p in report.parts)


@pytest.mark.parametrize("upper, goes_local", [(LOCAL_RUN - 2, False),
                                               (LOCAL_RUN - 1, True)])
def test_the_rule_at_its_threshold(routed, upper, goes_local):
    # A C sum to upper (a run of upper + 1 steps) against the (5, 2)
    # companion, modulo the (5, 2) theorem modulus: either branch gives
    # the other's parts.
    lhs, rhs = plan_sum(FamilySpec("C", 1, upper)), _sides("C", 5, 2, 1)[1]
    modulus = build_modulus_theorem(5, 2)
    report = _branches_agree(lhs, rhs, modulus)
    assert len(routed) == goes_local
    founds, identical = _local([lhs], [rhs], modulus)
    assert founds == [p.found for p in report.parts] and not identical


def test_scaled_and_empty_long_sides_match(routed):
    # A 42-step J sum scaled by -q^-1 [3] (its 1 - q^3 joins step 0)
    # against the (5, 2) C companion, and the same sum against an empty
    # plan over a denominator that shares Phi_3 and Phi_9 content.
    long = plan_sum(FamilySpec("J", 1, 41)).scaled(3, -1)
    modulus = ModulusSpec([(3, 2), (5, 1), (9, 3), (25, 1)])
    zero = SeriesSum([], plan_sum(FamilySpec("C", 1, 4)).denominator, bits=0)
    for count, rhs in enumerate((_sides("C", 5, 2, 1)[1], zero), 1):
        report = _branches_agree(long, rhs, modulus)
        assert len(routed) == count
        assert all(p.found != INFINITE for p in report.parts)


@pytest.mark.parametrize("kind", ["param-sampled-c", "param-sampled-j"])
def test_equal_long_sides_are_settled_once(monkeypatch, kind):
    # At (9, 2, t = 81) the sampled sides are equal over 41 steps: their
    # parts read INFINITE after one packed-delta equality per comparison,
    # asked when a doubled bracket is all zero too.  The first INFINITE
    # part settles the comparison, so certify_part runs once for it, and
    # the whole report is the one every comparison on the global branch
    # gives.
    calls, parts, settled = Counter(), Counter(), set()
    real_equal = congruence.check_identity_equal

    def counted(lhs, rhs):
        calls[id(lhs), id(rhs)] += 1
        return real_equal(lhs, rhs)

    def certified(lhs, rhs, d, exponent, equal=None):
        found = certify_part(lhs, rhs, d, exponent, equal)
        key = tuple(map(id, lhs + rhs))
        parts[key] += 1
        if found == INFINITE:
            settled.add(key)
        return found

    monkeypatch.setattr(congruence, "check_identity_equal", counted)
    monkeypatch.setattr(congruence, "certify_part", certified)
    report = verify_case(kind, n=9, r=2, t=81)
    assert [p.found for p in report.parts if p.component == "lhs==rhs"] \
        == [INFINITE] * 4
    assert list(calls.values()) == [1]
    assert [parts[key] for key in settled] == [1]
    monkeypatch.setattr(congruence, "LOCAL_RUN", float("inf"))
    expected = verify_case(kind, n=9, r=2, t=81).to_dict()
    assert {**report.to_dict(), "elapsed_ms": 0} \
        == {**expected, "elapsed_ms": 0}


def test_a_positive_margin_doubles_before_any_equality(monkeypatch):
    # thm1-full (9, 2): the d = 27 part finds 19 against 17, as on the
    # global branch.  Its first bracket is all zero and one doubling shows
    # the row, so no sum is built for check_identity_equal.
    def unexpected(lhs, rhs):
        raise AssertionError("equality asked for a part that differs")

    monkeypatch.setattr(congruence, "check_identity_equal", unexpected)
    report = verify_case("thm1-full", n=9, r=2)
    assert [(p.d, p.required, p.found) for p in report.parts] \
        == [(3, 137, 137), (9, 67, 67), (27, 17, 19), (81, 3, 3)]


def test_the_largest_grid_sweep_shape_stays_global(routed):
    # thm1-full (5, 2) runs 25 steps, the longest run of grid-sweep.
    assert LOCAL_RUN > 25
    assert verify_case("thm1-full", n=5, r=2).parts and not routed
