"""Acceptance suite: one test per criterion, one printed line per verdict.

Conjectural results (the cubic-corrected sextic target, the exponent-4r
quotient runs, the product-splitting checks) are executed and printed as
findings; only asserted statements can fail the suite.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time

from qcongruence.cli import RunConfig, canonical_entries, emit_report, sweep
from qcongruence.congruence import (
    admissible_root_indices,
    jackson_6phi5_terminating,
    verify_case,
)
from qcongruence.cyclotomic import cyclotomic, divisors, valuation_at
from qcongruence.padic import (
    dwork_quotient_check,
    lucas_min_valuation,
    verify_m2,
    verify_swisher,
    verify_van_hamme,
)
from qcongruence.polycore import Poly
from qcongruence.qseries import FactoredProduct, FamilySpec, sum_truncated

from oracles import add, div_rem_by_monic

THEOREM_GRID = [(3, 1), (5, 1), (7, 1), (9, 1), (15, 1),
                (3, 2), (5, 2), (7, 2), (3, 3)]


def _report(num, label, fn):
    start = time.perf_counter()
    try:
        detail = fn() or ""
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] PASS  {label}  [{elapsed:.1f}s]{suffix}")


def _theorem_criterion(half_kind, full_kind):
    total_start = time.perf_counter()
    worst = 0.0
    for n, r in THEOREM_GRID:
        for kind in (half_kind, full_kind):
            case_start = time.perf_counter()
            rep = verify_case(kind, n=n, r=r)
            case_elapsed = time.perf_counter() - case_start
            worst = max(worst, case_elapsed)
            assert rep.passed, rep.label
            assert all(p.margin >= 0 for p in rep.parts), rep.label
            assert case_elapsed < 60, (rep.label, case_elapsed)
    total = time.perf_counter() - total_start
    assert total < 600, total
    return f"18 cases, worst {worst:.1f}s, total {total:.1f}s"


def test_criterion_01_quartic_theorem_grid():
    _report(1, "quartic-family grid, half+full, modulus [n^r] prod Phi^2",
            lambda: _theorem_criterion("thm1-half",
                                       "thm1-full"))


def test_criterion_02_sextic_theorem_grid():
    _report(2, "sextic-family grid, half+full, modulus [n^r] prod Phi^2",
            lambda: _theorem_criterion("thm2-half",
                                       "thm2-full"))


def test_criterion_03_closed_form_identities():
    def run():
        start = time.perf_counter()
        for n in range(3, 23, 2):
            assert verify_case("lemma22", n=n).passed, n
            assert verify_case("lemma31", n=n).passed, n
        elapsed = time.perf_counter() - start
        assert elapsed < 5, elapsed
        return f"odd n <= 21, {elapsed:.2f}s"

    _report(3, "root-specialization closed forms, exact identity", run)


def test_criterion_04_parametric_root_identities():
    def run():
        printed_fails = []
        cases = 0
        for family in ("c", "j"):
            for n in (3, 5):
                for r in (1, 2):
                    for d in (1, 2):
                        for j in admissible_root_indices(n, r, d):
                            rep = verify_case(f"param-roots-{family}",
                                              n=n, r=r, d=d, j=j)
                            cases += 1
                            assert rep.passed, rep.label
                            if family == "c":
                                assert rep.identically_equal
                                assert rep.extra["closed_form"]
                            else:
                                readings = rep.extra["readings"]
                                assert readings["scaled"], rep.label
                                if not readings["printed"]:
                                    printed_fails.append(rep.label)
        return (f"{cases} cases; sextic target: scaled reading verifies "
                f"everywhere, printed reading fails "
                f"{len(printed_fails)} deeper cases")

    _report(4, "root specializations: both sides identical", run)


def test_criterion_05_parametric_sampled():
    def run():
        findings = []
        for family in ("c", "j"):
            for n, r in [(3, 1), (3, 2), (5, 1)]:
                for d in (1, 2):
                    for t in (3, 5, 7):
                        rep = verify_case(f"param-sampled-{family}",
                                          n=n, r=r, d=d, t=t)
                        assert rep.passed, rep.label
                        printed = rep.extra.get("printed_reading")
                        if printed and not all(printed.values()):
                            findings.append(rep.label)
        return (f"LHS == RHS == 0 mod [n^r] throughout; printed sextic "
                f"reading fails {len(findings)} r=2 cases")

    _report(5, "sampled specializations vanish modulo [n^r]", run)


def test_criterion_06_cubic_corrected_targets():
    def run():
        conj = []
        for n in range(3, 13, 2):
            rep = verify_case("gw", n=n)
            assert rep.passed and not rep.conjectural, rep.label
            rep = verify_case("qj2", n=n)
            assert rep.conjectural
            conj.append((rep.label, rep.passed))
        assert all(ok for _, ok in conj)  # expected pass
        return "asserted quartic target exact; conjectural sextic passes too"

    _report(6, "cubic-corrected closed-form targets mod [n] Phi_n^3", run)


def test_criterion_07_terminating_6phi5():
    def run():
        for n in range(3, 17, 2):
            assert jackson_6phi5_terminating(1, 1, 1 + n, (n - 1) // 2,
                                             base=2), n
        rng = random.Random(777)
        done = 0
        while done < 100:
            s = rng.choice([1, 2])
            a, b, c = (rng.randint(-4, 5) for _ in range(3))
            upper = rng.randint(0, 3)
            if a == 0 or any(a - b + s * k == 0 or a - c + s * k == 0
                             or a + s * (upper + k) == 0
                             for k in range(1, upper + 1)):
                continue
            assert jackson_6phi5_terminating(a, b, c, upper, s), \
                (a, b, c, upper, s)
            done += 1
        return "odd n <= 15 specializations + 100 random instances"

    _report(7, "terminating 6phi5 summation oracle", run)


def test_criterion_08_classical_quotient_congruences():
    def run():
        start = time.perf_counter()
        for p in (5, 7, 11, 13):
            assert verify_van_hamme("c2", p, 4).passed, p
            assert verify_van_hamme("j2", p, 4).passed, p
        findings = []
        for p in (5, 7, 11):
            for r in (1, 2):
                for kind in ("c3", "j3", "cc", "jj"):
                    rep = verify_swisher(kind, p, r, 3 * r)
                    assert rep.passed and not rep.conjectural, rep.label
                    rep4 = verify_swisher(kind, p, r, 4 * r)
                    assert rep4.conjectural
                    if not rep4.passed:
                        findings.append(
                            f"{kind} p={p} r={r}: valuation "
                            f"{rep4.valuation} < {4 * r}")
        elapsed = time.perf_counter() - start
        assert elapsed < 30, elapsed
        detail = f"exp-3r asserted pass, {elapsed:.1f}s"
        if findings:
            detail += ("; finding: conjectural 4r fails for full-range "
                       "sextic companion: " + "; ".join(findings[:3])
                       + ("..." if len(findings) > 3 else ""))
        return detail

    _report(8, "classical prime-power congruences", run)


def test_criterion_09_eta_coefficient_congruence():
    def run():
        for p in (3, 5, 7, 11, 13):
            rep = verify_m2(p)
            assert rep.passed, p
        rep3 = verify_m2(3)
        assert rep3.extra["half_residue"] == rep3.extra["modulus"] - 4
        return "p in {3,5,7,11,13}; p=3 residue -4 mod 27 confirmed"

    _report(9, "half and full sums match eta coefficients mod p^3", run)


def test_criterion_10_dwork_quotient():
    def run():
        for p in (5, 7):
            for r in (1, 2):
                rep = dwork_quotient_check(p, r, 50)
                assert rep.passed, (p, r)
        return "p in {5,7}, r in {1,2}, degrees <= 50"

    _report(10, "cross-multiplied truncation compatibility mod p^r", run)


def test_criterion_11_vanishing_windows():
    def run():
        for p in (5, 7, 11):
            assert lucas_min_valuation(p, 2) >= 4, p
        return "valuation >= 4 on both windows for p in {5,7,11}"

    _report(11, "central-binomial vanishing windows", run)


def test_criterion_12_truncation_separation():
    def run():
        rep = verify_case("half-vs-full-m", n=3, r=1)
        assert rep.passed, rep.label
        by_component = {p.component: p for p in rep.parts}
        assert by_component["separation"].margin < 0
        assert by_component["agreement"].margin >= 0
        return ("expected-fail mod Phi_3 confirmed, agreement mod "
                "Phi_9^4 confirmed")

    _report(12, "half vs full truncations separate and then agree", run)


def test_criterion_13_property_suites():
    def run():
        # cyclotomic product identity up to 200
        for n in range(1, 201):
            prod = Poly.one()
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod == Poly([-1] + [0] * (n - 1) + [1]), n
        # division reconstruction, 1000 random instances
        rng = random.Random(13)
        for _ in range(1000):
            a = Poly([rng.randint(-9, 9)
                      for _ in range(rng.randint(1, 30))])
            m = Poly([rng.randint(-9, 9)
                      for _ in range(rng.randint(1, 8))] + [1])
            q, r = div_rem_by_monic(a, m)
            assert add(q * m, r) == a and r.high_degree < m.high_degree
        # analytic vs division valuations, 500 random factored products
        for _ in range(500):
            factors = {}
            for _ in range(rng.randint(1, 6)):
                base = rng.randint(1, 12)
                factors[base] = factors.get(base, 0) + rng.randint(1, 3)
            fp = FactoredProduct(factors)
            d = rng.randint(2, 12)
            assert fp.ord_cyclotomic(d) == valuation_at(fp.expand(), d)
        # accumulated sums match naive fraction addition for K <= 12
        from test_qseries import assert_same_rational, naive_sum
        for spec in [FamilySpec("C", 1, 12), FamilySpec("J", 1, 12),
                     FamilySpec("M", 1, 12),
                     FamilySpec("C_PARAM", 1, 12, 3),
                     FamilySpec("J_PARAM", 1, 12, 5)]:
            assert_same_rational(sum_truncated(spec), *naive_sum(spec))
        # report determinism across two serial sweeps
        base = {"checks": ["thm1-half", "param-sampled-c", "m2"],
                "n_values": [3, 5], "r_max": 1, "primes": [5, 7]}
        one = sweep(RunConfig.from_dict(base))
        two = sweep(RunConfig.from_dict(base))
        assert canonical_entries(one) == canonical_entries(two)
        assert emit_report(one, "json") == emit_report(one, "json")
        return "all five property suites green"

    _report(13, "library property suites", run)


def test_conjectural_findings_product_splitting():
    # Executed and reported: not an acceptance gate, failures would be
    # findings.  At these sizes all of them pass.
    results = []
    for n in (3, 5, 7):
        for kind in ("conj41", "conj42"):
            rep = verify_case(kind, n=n, r=1)
            results.append((rep.label, rep.passed))
        for d in (1, 2):
            rep = verify_case("conj43", n=n, r=1, d=d)
            results.append((rep.label, rep.passed))
    failures = [label for label, ok in results if not ok]
    status = "all pass" if not failures else f"findings: {failures}"
    print(f"[conjectures ] REPORT  product-splitting checks n in "
          f"{{3,5,7}}, r=1: {status}")
