"""Certification of q-congruences by cyclotomic valuation.

A congruence LHS == RHS (mod prod over (d,e) of Phi_d^e) between rational
functions is certified through the valuation semantics: the Phi_d-adic
valuation of LHS - RHS must be at least e for every part.  Each side is
held as (C * N) / D, with N the expanded numerator and the cofactor C
(1 unless the sum stopped at a vanishing term) and the denominator D
factored, C dividing D.  A reduced denominator R = D / C is a multiset
of binomials 1 - q^m, so its Phi_d content ord_d(R) is the sum of its
exponents over the m divisible by d (1 - q standing in for Phi_1).  The
single cross-multiplied difference is taken through the lcm L of the
two multisets, at each base m the larger of the two exponents:

    delta = (L / lhsR) * lhsN - (L / rhsR) * rhsN = L * (LHS - RHS),

and per part the comparison is

    found = valuation(delta, Phi_d) + ord_d(lhsD) + ord_d(rhsD) - ord_d(L)
          >= e + ord_d(lhsD) + ord_d(rhsD).

found is the Phi_d-adic valuation of the full difference of the nominal
numerators, rhsD * lhsC * lhsN - lhsD * rhsC * rhsN = lhsD * rhsD *
delta / L, because valuations add; every term but the first is read off
the factored forms without any division.  Neither denominator is
expanded: each numerator is multiplied by its lift, the binomials its
reduced denominator lacks of L, through Poly.times_binomials: packed
once into one integer, one shift-subtract per binomial, unpacked once.
No lift divides.  A side whose reduced denominator holds the other's is
left as it is, and the other is multiplied by exactly the binomials it
lacks.  Only a sampled check whose sum stopped can be of another shape.

The right side of the theorem, parametric and closed-form checks carries
the q-integer [n] = (1 - q^n) / (1 - q), which enters through
Poly.times_binomials as well: one shift-subtract and one exact division,
never a general product.  No check makes a general product of expanded
polynomials.

The product conjectures (conj41, conj42, conj43), whose modulus is one
power of Phi_n and whose right side is a product of two sums, take the
local path instead (local.certify_part): no sum is expanded, and neither
the lcm lifts, the delta nor valuation_at runs.  Each part is read off a
few rows of integers at q = zeta_n (1 + x), from the three sums' specs,
and gives the same required and found as the global path below; their
reports time the one phase local_ms.  The check kind alone chooses the
path: every other check goes through check_congruence.

The valuation of delta is counted one power of Phi_d at a time, and
Phi_d is never built: cyclotomic.valuation_at divides delta in place by
1 - q^d, which holds Phi_d once, one linear pass per power for as long
as the division is exact.  The pass that fails leaves delta's residue
mod q^d - 1 in its last d coefficients, and Phi_d divides delta iff it
divides that residue.  Only if it does is the pass undone and the rest
counted through the Moebius factorisation of Phi_d: a product with each
binomial 1 - q^m of exponent -1, then an in-place division by each of
exponent +1.  Laurent offsets do not matter, since q is a unit modulo
every Phi_d.

verify_case looks up the runner of the named check in _RUNNERS, one row
per check with the check's constants bound in; the runner validates its
parameters, assembles both sides, picks the right modulus, and delegates
here.  The theorem, closed-form identity, root and sampled checks share one
shape, built by _sides: the base-1 sum to (n^r - 1) // div against its
companion _target, the base-n sum to (n^{r-1} - 1) // div scaled by
+-q^{(1-n)/2} [n].  The closed forms are its r = 1 root case, whose
companion is the single term 1.  Reports carry the per-part margins;
conjectural checks are flagged so that drivers can separate findings from
failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

# cyclotomic is not called here: perfbench/tracing.py wraps it by this name.
from .cyclotomic import (
    cyclotomic,
    divisors,
    q_integer_cyclotomic_factors,
    valuation_at,
)
from .local import certify_part
from .polycore import INFINITE, Poly
from .qseries import (
    FactoredProduct,
    FamilySpec,
    SeriesSum,
    _accumulate,
    q_integer,
    q_integer_binomials,
    sum_truncated,
    target_sign,
)


@dataclass
class ModulusSpec:
    """A modulus prod Phi_d^e as (d, e) pairs with distinct d >= 2."""

    parts: tuple[tuple[int, int], ...]

    def __init__(self, parts):
        seen = set()
        norm = []
        for d, e in parts:
            if d < 2:
                raise ValueError("cyclotomic index must be >= 2")
            if e < 1:
                raise ValueError("exponent must be >= 1")
            if d in seen:
                raise ValueError("duplicate cyclotomic index")
            seen.add(d)
            norm.append((d, e))
        self.parts = tuple(sorted(norm))


@dataclass
class PartResult:
    """Required vs found valuation for one cyclotomic part of a modulus."""

    d: int
    required: int
    found: object          # int or INFINITE
    margin: object         # found - required
    component: str = ""    # sub-check tag for composite reports
    expect: str = "ge"     # "ge": margin >= 0 required; "lt": must fail

    def met(self) -> bool:
        return self.margin >= 0 if self.expect == "ge" else self.margin < 0


@dataclass
class CongruenceReport:
    label: str
    kind: str
    params: dict
    parts: list[PartResult]
    passed: bool
    identically_equal: bool
    conjectural: bool = False
    timings: dict = field(default_factory=dict)
    note: str = ""
    extra: dict = field(default_factory=dict)

    def elapsed_ms(self) -> float:
        return sum(self.timings.values())

    def to_dict(self) -> dict:
        def enc(v):
            return None if v == INFINITE else v

        return {
            "type": "q",
            "label": self.label,
            "kind": self.kind,
            "params": dict(self.params),
            "conjectural": self.conjectural,
            "pass": self.passed,
            "identically_equal": self.identically_equal,
            "parts": [
                {
                    "component": p.component,
                    "d": p.d,
                    "required": p.required,
                    "found": enc(p.found),
                    "margin": enc(p.margin),
                    "expect": p.expect,
                }
                for p in self.parts
            ],
            "note": self.note,
            "extra": dict(self.extra),
            "elapsed_ms": round(self.elapsed_ms(), 3),
        }


# ---------------------------------------------------------------------------
# moduli


def build_modulus_theorem(n: int, r: int) -> ModulusSpec:
    """[n^r] * prod_{j<=r} Phi_{n^j}^2 as cyclotomic parts.

    The q-integer contributes every divisor of n^r above 1 once; the
    square product raises the powers of n themselves to 3.
    """
    _require_case(n, r)
    powers = {n ** j for j in range(1, r + 1)}
    return ModulusSpec([(d, 3 if d in powers else 1)
                        for d in divisors(n ** r) if d > 1])


def modulus_q_integer(n: int) -> ModulusSpec:
    """[n] as a modulus: every divisor above 1 contributes once."""
    return ModulusSpec([(d, 1) for d in q_integer_cyclotomic_factors(n)])


def _modulus_qint_times_cubed(n: int) -> ModulusSpec:
    # [n] * Phi_n^3: proper divisors once, n itself four times.
    return ModulusSpec([(d, 1) for d in divisors(n) if 1 < d < n] + [(n, 4)])


# ---------------------------------------------------------------------------
# core checks


def check_congruence(lhs: SeriesSum, rhs: SeriesSum, modulus: ModulusSpec, *,
                     label: str = "", kind: str = "", params: dict = None,
                     conjectural: bool = False, component: str = "",
                     count_denominators: bool = True) -> CongruenceReport:
    """Certify lhs == rhs modulo the given cyclotomic parts.

    With count_denominators (the default) the certified statement is about
    the rational functions themselves: the Phi_d-adic valuation of
    LHS - RHS is at least e, so the requirement on the cross-multiplied
    difference grows by the denominators' own cyclotomic content.  Checks
    that specialize a generic parameter instead certify divisibility of
    the cross-multiplied numerator (count_denominators=False): that is the
    statement that survives the specialization when a specialized
    denominator collides with the modulus.
    """
    t0 = time.perf_counter()
    lcm, left, right = _lcm_cross_products(lhs, rhs)
    delta = left - right
    del left, right     # not held through the valuation passes
    t1 = time.perf_counter()
    identical = delta.is_zero()
    parts = []
    for d, e in modulus.parts:
        dens = lhs.denominator.ord_cyclotomic(d) \
            + rhs.denominator.ord_cyclotomic(d)
        required = e + dens if count_denominators else e
        found = INFINITE if identical \
            else valuation_at(delta, d) + dens - lcm.ord_cyclotomic(d)
        parts.append(PartResult(d, required, found, found - required,
                                component))
    t2 = time.perf_counter()
    return CongruenceReport(
        label=label, kind=kind, params=dict(params or {}), parts=parts,
        passed=all(p.met() for p in parts), identically_equal=identical,
        conjectural=conjectural,
        timings={"delta_ms": (t1 - t0) * 1e3,
                 "valuation_ms": (t2 - t1) * 1e3})


def check_identity_equal(lhs: SeriesSum, rhs: SeriesSum) -> bool:
    """Exact equality of the two rational functions (cross-multiplied)."""
    _, left, right = _lcm_cross_products(lhs, rhs)
    return left == right


def _lcm_cross_products(lhs: SeriesSum, rhs: SeriesSum):
    """(L, (L / R_L) * lhsN, (L / R_R) * rhsN) for the reduced
    denominators R_L = D_L / C_L and R_R = D_R / C_R and their lcm L as
    multisets of binomials: at each base m, the larger exponent.

    Both products are L * (LHS - RHS) split in two, so they are equal
    exactly when the two sides are.  Each lift L / R is a multiset of
    binomials, so it only multiplies.
    """
    left = lhs.denominator.divided_by(lhs.cofactor)
    right = rhs.denominator.divided_by(rhs.cofactor)
    lcm = FactoredProduct({m: max(left.factors.get(m, 0),
                                  right.factors.get(m, 0))
                           for m in left.factors | right.factors})
    return (lcm, lhs.numerator.times_binomials(lcm.divided_by(left).factors),
            rhs.numerator.times_binomials(lcm.divided_by(right).factors))


def jackson_6phi5_terminating(a_exp: int, b_exp: int, c_exp: int,
                              n_upper: int, base: int = 1) -> bool:
    """Verify the terminating very-well-poised 6phi5 summation exactly.

    All parameters are monomials q^exp in base q^s.  The sum over
    k = 0..N of

      (1-q^{A+2sk})/(1-q^A) *
      (q^A;q^s)_k (q^B;q^s)_k (q^C;q^s)_k (q^{-sN};q^s)_k /
      ((q^s;q^s)_k (q^{A-B+s};q^s)_k (q^{A-C+s};q^s)_k (q^{A+s(N+1)};q^s)_k)
      * q^{(A+s(N+1)-B-C)k}

    must equal (q^{A+s};q^s)_N (q^{A-B-C+s};q^s)_N /
    ((q^{A-B+s};q^s)_N (q^{A-C+s};q^s)_N).
    """
    s, a, b, c, n = base, a_exp, b_exp, c_exp, n_upper
    if s < 1:
        raise ValueError("base exponent must be >= 1")
    if n < 0:
        raise ValueError("upper index must be >= 0")
    if a == 0:
        raise ZeroDivisionError("vanishing denominator factor 1 - a")
    for k in range(1, n + 1):
        for e in (a - b + s * k, a - c + s * k, a + s * (n + k)):
            if e == 0:
                raise ZeroDivisionError("vanishing denominator factor")
    lam = a + s * (n + 1) - b - c
    # step 0 is the term 1 as (1 - q^a) / (1 - q^a); step k multiplies the
    # nested product by the k-th numerator factors of the four shifted
    # factorials, and its term carries 1 - q^{A+2sk}
    lhs = _accumulate([([], [a], a, 0)] + [
        ((a + s * (k - 1), b + s * (k - 1), c + s * (k - 1), s * (k - 1 - n)),
         [s * k, a - b + s * k, a - c + s * k, a + s * (n + k)],
         a + 2 * s * k, lam * k) for k in range(1, n + 1)])

    # the closed form as one term: the accumulator turns its negative
    # denominator exponents around and moves their unit to the numerator
    ks = range(1, n + 1)
    rhs = _accumulate([(
        [e for k in ks for e in (a + s * k, a - b - c + s * k)],
        [e for k in ks for e in (a - b + s * k, a - c + s * k)], None, 0)])
    return check_identity_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# prefactors


def _scaled(series: SeriesSum, family: str, n: int) -> SeriesSum:
    # series * q^{(1-n)/2} [n], or * (-q)^{(1-n)/2} [n] for J; n is odd.
    numerator = series.numerator.times_binomials(q_integer_binomials(n))
    return replace(series, numerator=numerator.shift((1 - n) // 2)
                   .scale(target_sign(family, n)))


def _target(family: str, n: int, r: int, div: int, t: int = None,
            printed: bool = False) -> SeriesSum:
    """The companion: the base-n sum to (n^{r-1} - 1) // div, scaled."""
    inner = FamilySpec(family, n, (n ** (r - 1) - 1) // div, t, printed)
    return _scaled(sum_truncated(inner), family, n)


def _sides(family: str, n: int, r: int, div: int, t: int = None):
    """(the base-1 sum to (n^r - 1) // div, its companion _target)."""
    return (sum_truncated(FamilySpec(family, 1, (n ** r - 1) // div, t)),
            _target(family, n, r, div, t))


def _require_case(n: int, r: int = 1, d: int = 1, minimum: int = 3) -> None:
    if n is None or n < minimum or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= {minimum}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")


# ---------------------------------------------------------------------------
# parametric checks


def admissible_root_indices(n: int, r: int, d: int) -> range:
    """The j values covered by the root-specialization product."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return range((n ** (r - 1) - 1) // d + 1)


def _roots_case(family: str, kind: str, n: int, r: int = 1, d: int = 2,
                j: int = 0) -> CongruenceReport:
    """Exact equality of both sides at the root specialization t = -(2j+1)n.

    The +(2j+1)n specialization gives the same rational function by the
    t <-> -t symmetry of the terms, so only the negative root is computed.
    For family C the shared closed form q^{(1-(2j+1)n)/2} [(2j+1)n] is
    checked as well.  For family J both readings of the target prefactor
    (scaled: q^{nk^2}[6k+1]_{q^n}; printed: q^{k^2}[6k+1]_{q^2}) are
    evaluated and reported.
    """
    _require_case(n, r, d)
    if j not in admissible_root_indices(n, r, d):
        raise ValueError("j out of the admissible range")
    t0 = time.perf_counter()
    m = (2 * j + 1) * n
    lhs, rhs = _sides(family, n, r, d, -m)
    equal = check_identity_equal(lhs, rhs)
    if family == "C_PARAM":
        closed = SeriesSum(q_integer(m).shift((1 - m) // 2))
        closed_ok = check_identity_equal(lhs, closed)
        passed = equal and closed_ok
        extra = {"closed_form": closed_ok}
    else:
        printed = check_identity_equal(
            lhs, _target(family, n, r, d, -m, printed=True))
        passed = equal or printed
        extra = {"readings": {"scaled": equal, "printed": printed}}
    ms = (time.perf_counter() - t0) * 1e3
    return CongruenceReport(
        label=f"{kind} n={n} r={r} d={d} j={j}", kind=kind,
        params={"n": n, "r": r, "d": d, "j": j, "t": -m}, parts=[],
        passed=passed, identically_equal=equal,
        timings={"total_ms": ms}, extra=extra)


def _sampled_case(family: str, kind: str, n: int, r: int = 1, d: int = 2,
                  t: int = None) -> CongruenceReport:
    """At a sampled odd specialization t: LHS, RHS and their difference all
    vanish modulo the q-integer [n^r].

    The congruences are certified in the generic-parameter sense (numerator
    divisibility over the structured denominators): the parametric
    statement lives where every denominator is coprime to the modulus, and
    divisibility of its cross-multiplied numerator is what the monomial
    substitution preserves, even for t where a specialized denominator
    factor collides with the modulus.  For family J the scaled reading is
    asserted; the printed reading's outcome is recorded in extra.
    """
    _require_case(n, r, d)
    if t is None or t % 2 == 0:
        raise ValueError("sampled checks need an odd specialization t")
    t0 = time.perf_counter()
    check = partial(check_congruence, modulus=modulus_q_integer(n ** r),
                    count_denominators=False)
    zero = SeriesSum.zero()
    lhs, rhs = _sides(family, n, r, d, t)
    sub = [check(lhs, zero, component="lhs==0"),
           check(rhs, zero, component="rhs==0"),
           check(lhs, rhs, component="lhs==rhs")]
    parts = [p for rep in sub for p in rep.parts]
    extra = {}
    if family == "J_PARAM":
        printed = _target(family, n, r, d, t, printed=True)
        extra = {"printed_reading": {"rhs==0": check(printed, zero).passed,
                                     "lhs==rhs": check(lhs, printed).passed}}
    ms = (time.perf_counter() - t0) * 1e3
    return CongruenceReport(
        label=f"{kind} n={n} r={r} d={d} t={t}", kind=kind,
        params={"n": n, "r": r, "d": d, "t": t}, parts=parts,
        passed=all(p.met() for p in parts),
        identically_equal=all(rep.identically_equal for rep in sub),
        timings={"total_ms": ms}, extra=extra)


# ---------------------------------------------------------------------------
# case driver


def _theorem_case(family: str, div: int, kind: str, n: int, r: int = 1
                  ) -> CongruenceReport:
    # div 2 sums the half range, div 1 the full range
    modulus = build_modulus_theorem(n, r)
    t0 = time.perf_counter()
    lhs, rhs = _sides(family, n, r, div)
    build_ms = (time.perf_counter() - t0) * 1e3
    rep = check_congruence(
        lhs, rhs, modulus,
        label=f"{kind} n={n} r={r}", kind=kind, params={"n": n, "r": r})
    rep.timings["build_ms"] = build_ms
    return rep


def _correction_case(family: str, conjectural: bool, kind: str, n: int
                     ) -> CongruenceReport:
    # target q^{(1-n)/2}([n] + (n^2-1)(1-q)^2 [n]^3 / 24), sign -q for J,
    # modulo [n] Phi_n^3; both sides are multiplied by 24.  The correction
    # is (1 - q)^2 [n]^3 = (1 - q^n)^2 [n], so the right side is
    # (24 + (n^2-1)(1 - q^n)^2) scaled by [n].
    _require_case(n)
    t0 = time.perf_counter()
    lhs = sum_truncated(FamilySpec(family, 1, (n - 1) // 2))
    lhs = replace(lhs, numerator=lhs.numerator.scale(24))
    correction = Poly.one().times_one_minus([n, n]).scale(n * n - 1)
    rhs = _scaled(SeriesSum(Poly([24]) + correction), family, n)
    build_ms = (time.perf_counter() - t0) * 1e3
    rep = check_congruence(
        lhs, rhs, _modulus_qint_times_cubed(n),
        label=f"{kind} n={n}", kind=kind, params={"n": n},
        conjectural=conjectural)
    rep.timings["build_ms"] = build_ms
    return rep


def _product_conjecture_case(div: int | None, exponent: int, squared: bool,
                             kind: str, n: int, r: int = 1,
                             d: int | None = None,
                             ) -> CongruenceReport:
    # div None takes the divisor from the d axis (default 2), which only
    # that row has; squared makes the inner base n^2 instead of n.  The
    # one part is certified locally, from the three sums' specs.
    if div is not None and d is not None:
        raise TypeError(f"check {kind!r} takes no d")
    label, params = f"{kind} n={n} r={r}", {"n": n, "r": r}
    if div is None:
        div = params["d"] = 2 if d is None else d
        label += f" d={div}"
    _require_case(n, r, div)
    t0 = time.perf_counter()
    lhs = FamilySpec("M", 1, (n ** (r + 1) - 1) // div)
    rhs = [FamilySpec("M", 1, (n - 1) // div),
           FamilySpec("M", n * n if squared else n, (n ** r - 1) // div)]
    required, found = certify_part([lhs], rhs, n, exponent)
    part = PartResult(n, required, found, found - required)
    ms = (time.perf_counter() - t0) * 1e3
    return CongruenceReport(
        label=label, kind=kind, params=params, parts=[part],
        passed=part.met(), identically_equal=found == INFINITE,
        conjectural=True, timings={"local_ms": ms})


def _half_vs_full_case(kind: str, n: int, r: int = 1) -> CongruenceReport:
    # The two truncations of the M family must separate modulo Phi_n but
    # agree modulo Phi_{n^{r+1}}^4.
    _require_case(n, r)
    t0 = time.perf_counter()
    top = n ** (r + 1)
    full = sum_truncated(FamilySpec("M", 1, top - 1))
    half = sum_truncated(FamilySpec("M", 1, (top - 1) // 2))
    build_ms = (time.perf_counter() - t0) * 1e3
    rep = check_congruence(full, half, ModulusSpec([(n, 1), (top, 4)]),
                           label=f"{kind} n={n} r={r}",
                           kind=kind, params={"n": n, "r": r},
                           component="agreement")
    separation = rep.parts[0]       # parts ascend by d, and n < n^{r+1}
    separation.component, separation.expect = "separation", "lt"
    rep.passed = all(p.met() for p in rep.parts)
    rep.identically_equal = False
    rep.timings["build_ms"] = build_ms
    rep.note = "separation part expects non-divisibility"
    return rep


def _identity_case(family: str, kind: str, n: int) -> CongruenceReport:
    # the r = 1 root case: the companion is the one-term sum 1
    _require_case(n, minimum=1)
    t0 = time.perf_counter()
    equal = check_identity_equal(*_sides(family, n, 1, 2, -n))
    ms = (time.perf_counter() - t0) * 1e3
    return CongruenceReport(
        label=f"{kind} n={n}", kind=kind, params={"n": n},
        parts=[], passed=equal, identically_equal=equal,
        timings={"total_ms": ms})


#: Check name -> runner(name, **params), with the check's own constants
#: bound in front; each runner validates its own params.  qj2 and the
#: product checks are conjectural: a failed report is a finding, not an
#: implementation bug.
_RUNNERS = {
    "thm1-half": partial(_theorem_case, "C", 2),
    "thm1-full": partial(_theorem_case, "C", 1),
    "thm2-half": partial(_theorem_case, "J", 2),
    "thm2-full": partial(_theorem_case, "J", 1),
    "gw": partial(_correction_case, "C", False),
    "qj2": partial(_correction_case, "J", True),
    "conj41": partial(_product_conjecture_case, 1, 3, True),
    "conj42": partial(_product_conjecture_case, 2, 3, True),
    "conj43": partial(_product_conjecture_case, None, 2, False),
    "lemma22": partial(_identity_case, "C_PARAM"),
    "lemma31": partial(_identity_case, "J_PARAM"),
    "param-roots-c": partial(_roots_case, "C_PARAM"),
    "param-roots-j": partial(_roots_case, "J_PARAM"),
    "param-sampled-c": partial(_sampled_case, "C_PARAM"),
    "param-sampled-j": partial(_sampled_case, "J_PARAM"),
    "half-vs-full-m": _half_vs_full_case,
}


def verify_case(kind: str, **params) -> CongruenceReport:
    """Assemble and certify a single named check.

    params are the check's own parameters: n, plus r, d, j or t where the
    check takes them (r defaults to 1, d to 2, j to 0).
    """
    if kind not in _RUNNERS:
        raise ValueError(f"unknown check {kind!r}")
    return _RUNNERS[kind](kind, **params)
