"""The local path (qcongruence.local) against the global one.

The global path expands every sum, cross-multiplies through the lcm
of the denominators and counts each power of Phi_d by division
(check_congruence).  The local path reads the same part off P
rows at q = zeta_d (1 + x), from the same plans (plan_sum).  Every part
must agree: on the product conjectures, on seeded random pairs of sums
of all five families, and on pairs that are equal.
"""

import json
import random
from pathlib import Path

import pytest

from qcongruence.cli import RunConfig, sweep
from qcongruence.congruence import ModulusSpec, check_congruence, verify_case
from qcongruence.local import certify_part
from qcongruence.polycore import INFINITE
from qcongruence.qseries import FAMILIES, FamilySpec, _steps, plan_sum

from oracles import product_conjecture_global, series_times

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


def _random_spec(rng, top):
    family = rng.choice(FAMILIES)
    t = rng.randrange(-9, 10, 2) if family.endswith("_PARAM") else None
    printed = family in ("J", "J_PARAM") and rng.random() < 0.3
    return FamilySpec(family, rng.randint(1, 5), rng.randint(0, top), t,
                      printed)


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
        right = sums[1] if len(sums) == 2 else series_times(*sums[1:])
        part = check_congruence(sums[0], right,
                                ModulusSpec([(d, exponent)])).parts[0]
        assert certify_part(plans[:1], plans[1:], d, exponent) \
            == (part.required, part.found), (lhs, rhs, d)
        stopped += any(series.cofactor.factors for series in sums)
        doubled += part.margin > 0
        turned += any(e < 0 for spec in lhs + rhs
                      for step in _steps(spec) for e in step[1])
    assert stopped >= 5 and doubled >= 5 and turned >= 5


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
