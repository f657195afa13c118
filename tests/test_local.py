"""The local path (qcongruence.local) against the global one.

The global path expands every sum, cross-multiplies through the lcm
of the denominators and counts each power of Phi_d by division
(check_congruence).  The local path reads the same part off P
rows at q = zeta_d (1 + x), from the same plans (plan_sum).  Every part
must agree: on the product conjectures, on seeded random pairs of sums
of all five families, scaled or not and against zero, on pairs that
are equal, and on every comparison of the global checks of the two
fingerprint sweeps, each between two plans.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from qcongruence import congruence
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
from qcongruence.polycore import INFINITE, Poly
from qcongruence.qseries import (
    FAMILIES,
    FamilySpec,
    SeriesSum,
    _steps,
    plan_sum,
    target_sign,
)

from oracles import (
    product_conjecture_global,
    scaled,
    series_times,
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


def test_product_conjecture_reports_time_one_phase():
    assert list(verify_case("conj43", n=3, r=1, d=1).timings) == ["local_ms"]


def test_sweep_comparisons_match_the_global_path(monkeypatch):
    # Every part of every comparison the global checks of both
    # fingerprint sweeps make, each between two plans: the theorem sides
    # against their scaled companions, gw's and qj2's against their
    # corrected targets, the sampled sides against each other and against
    # zero (an empty plan), half-vs-full-m's tail against zero.  found
    # only: the sampled checks do not count the denominators into
    # required.  Left out: half-vs-full-m (5, 2), whose 62-step run
    # check_congruence already sends local, while the global path takes
    # seconds on it, and the 8 parts whose sides are equal (param-sampled
    # at n = 3, r = 2, t = 9), which take up to 1.5 s each before the
    # rows alone prove them INFINITE.
    a = plan_sum(FamilySpec("C", 1, 4))
    b = plan_sum(FamilySpec("C", 3, 1)).scaled(3, 1)
    assert certify_part([a], [b], 3, 3) == (11, 11)
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
            assert certify_part([lhs], [rhs], d, exponent)[1] == part.found, \
                (report.label, part.component, d)
            kinds[kind] += 1
    assert equal == 8 and sum(kinds.values()) == 314 and len(kinds) == 9


def _random_spec(rng, top):
    family = rng.choice(FAMILIES)
    t = rng.randrange(-9, 10, 2) if family.endswith("_PARAM") else None
    printed = family in ("J", "J_PARAM") and rng.random() < 0.3
    return FamilySpec(family, rng.randint(1, 5), rng.randint(0, top), t,
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
    assert certify_part(plans[:1], plans[1:], d, exponent) \
        == (part.required, part.found), (plans, d)
    return part


def test_random_pairs_match_the_global_path():
    # A left sum against one sum or a product of two, at d from 2 to 27;
    # stopped parametric sums carry a cofactor.  Every fourth pair is a
    # plain sum against its truncation at (d - 1) / 2 for an odd d: the
    # terms between vanish to order 3 or more, so the margin is positive
    # and shows only after the precision doubles.  The plans turn negative
    # denominator exponents around, which some pairs must hold.
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
        stopped += any(series.cofactor.factors for series in sums)
        doubled += part.margin > 0
        turned += any(e < 0 for spec in lhs + rhs
                      for step in _steps(spec) for e in step[1])
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


@pytest.mark.parametrize("lhs, rhs", [
    ([FamilySpec("C", 1, 2)], [FamilySpec("C", 1, 2)]),
    ([FamilySpec("C", 1, 2)],
     [FamilySpec("M", 3, 0), FamilySpec("C", 1, 2)]),  # times the sum 1
    # stopped at k = 2, so equal to its truncation at 1 over a cofactor
    ([FamilySpec("C_PARAM", 1, 3, 3)], [FamilySpec("C_PARAM", 1, 1, 3)]),
])
def test_equal_sides_are_infinite(lhs, rhs):
    plans = [plan_sum(spec) for spec in lhs + rhs]
    sums = [plan.series() for plan in plans]
    right = sums[1] if len(sums) == 2 else series_times(*sums[1:])
    report = check_congruence(sums[0], right, ModulusSpec([(3, 1)]))
    assert report.identically_equal and report.parts[0].found == INFINITE
    assert certify_part(plans[:1], plans[1:], 3, 1) \
        == (report.parts[0].required, INFINITE)


def _branches_agree(lhs, rhs, modulus, count_denominators=True):
    # check_congruence's report against the global branch called directly
    report = check_congruence(lhs, rhs, modulus,
                              count_denominators=count_denominators)
    parts, identical, _ = _global(lhs, rhs, modulus, count_denominators)
    assert [(p.d, p.required, p.found, p.margin) for p in report.parts] \
        == [(p.d, p.required, p.found, p.margin) for p in parts]
    assert report.identically_equal == identical
    return report


@pytest.mark.parametrize("kind, family", [("thm1-full", "C"),
                                          ("thm2-full", "J")])
def test_long_theorem_cases_go_local_and_match(kind, family):
    # thm1-full and thm2-full at (7, 2): a 49-step sum against its scaled
    # companion.  Their base-1 sums hold 1 - q, so the accumulator's seed
    # carries a unit the global path divides out.
    report = verify_case(kind, n=7, r=2)
    assert list(report.timings) == ["local_ms"]
    lhs, rhs = _sides(family, 7, 2, 1)
    assert len(lhs.numerator) == 49
    parts, identical, _ = _global(lhs, rhs, build_modulus_theorem(7, 2))
    assert [(p.d, p.required, p.found) for p in report.parts] \
        == [(p.d, p.required, p.found) for p in parts]
    assert report.passed and not identical
    assert all(p.margin == 0 for p in report.parts)


@pytest.mark.parametrize("upper, routed", [(LOCAL_RUN - 2, False),
                                           (LOCAL_RUN - 1, True)])
def test_the_rule_at_its_threshold(upper, routed):
    # A C sum to upper (a run of upper + 1 steps) against the (5, 2)
    # companion, modulo the (5, 2) theorem modulus: either branch gives
    # the other's parts.
    lhs, rhs = plan_sum(FamilySpec("C", 1, upper)), _sides("C", 5, 2, 1)[1]
    modulus = build_modulus_theorem(5, 2)
    report = _branches_agree(lhs, rhs, modulus)
    assert ("local_ms" in report.timings) == routed
    parts, identical, timings = _local([lhs], [rhs], modulus)
    assert list(timings) == ["local_ms"] and not identical
    assert [(p.required, p.found) for p in parts] \
        == [(p.required, p.found) for p in report.parts]


def test_scaled_and_empty_long_sides_match():
    # A 42-step J sum scaled by -q^-1 [3] (its 1 - q^3 joins step 0)
    # against the (5, 2) C companion, and the same sum against an empty
    # plan over a denominator that shares Phi_3 and Phi_9 content.
    long = plan_sum(FamilySpec("J", 1, 41)).scaled(3, -1)
    modulus = ModulusSpec([(3, 2), (5, 1), (9, 3), (25, 1)])
    zero = SeriesSum([], plan_sum(FamilySpec("C", 1, 4)).denominator, bits=0)
    for rhs in (_sides("C", 5, 2, 1)[1], zero):
        report = _branches_agree(long, rhs, modulus)
        assert list(report.timings) == ["local_ms"]
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
        required, found = certify_part(lhs, rhs, d, exponent, equal)
        key = tuple(map(id, lhs + rhs))
        parts[key] += 1
        if found == INFINITE:
            settled.add(key)
        return required, found

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


def test_the_largest_grid_sweep_shape_stays_global():
    # thm1-full (5, 2) runs 25 steps, the longest run of grid-sweep.
    assert LOCAL_RUN > 25
    assert list(verify_case("thm1-full", n=5, r=2).timings) \
        == ["build_ms", "delta_ms", "valuation_ms"]
