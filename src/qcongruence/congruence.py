"""Certification of q-congruences by cyclotomic valuation.

A congruence LHS == RHS (mod prod over (d,e) of Phi_d^e) between rational
functions is certified through the valuation semantics: the Phi_d-adic
valuation of LHS - RHS must be at least e for every part.  A global check
holds each side as a qseries.SeriesSum, (C * N) / D with the cofactor C
and the denominator D multisets of binomials 1 - q^m, so ord_d of either
is the sum of its exponents over the m divisible by d.  Before any
arithmetic the check reads off each side its held denominator H, D / C
times the binomials its packed numerator V still carries, and the lcm L
of the two, at each base m the larger exponent.  Then

    delta = (L / lhsH) * lhsV - (L / rhsH) * rhsV = L * (LHS - RHS),

and per part

    found = valuation(delta, Phi_d) + ord_d(lhsD) + ord_d(rhsD) - ord_d(L)
          >= e + ord_d(lhsD) + ord_d(rhsD),

the valuation of the full difference of the nominal numerators, lhsD *
rhsD * delta / L, since valuations add (cyclotomic.valuation_at counts it
one in-place pass per power of Phi_d).  Every value stays one packed
integer from the sum's first step to delta: each lift is one
shift-subtract per binomial and the difference one integer subtraction;
a side held over exactly the other run's extra, a closed form against
its sum, enters that run as its start value, negated, and is lifted by
the run's own passes.  One function, _delta, does all of it, and
check_identity_equal is delta == 0; the global path unpacks delta once,
for valuation_at.  Each comparison builds its sums afresh at its own
slot width: the sides' count bounds, one bit per binomial of a lift,
one for the difference and one for the sign.  It is proven before the
work, from counts alone, and it is loose (for the J sums by up to
1.8x); it is not to be tightened without a proof, since a coefficient
that overflows its slot unpacks wrong without any error.

The local path (local.certify_part) reads each part off a few rows of
integers at q = zeta_d (1 + x), from the sums' plans, with the same found
as the global path.  The two paths answer alike: each gives every
part's found and whether the sides are equal, and _compare alone picks
the path, computes each part's required (the exponent, plus the Phi_d
content of every nominal denominator unless count_denominators is
False) and builds the report.
A product of sums always goes local: the product conjectures (conj41,
conj42, conj43), whose right side is a product of two sums.  So does a
comparison of two plans whose longer run has at least LOCAL_RUN steps;
every other comparison stays global: shorter runs, and a side held as a
Poly (only the tests make one).  The global cost grows faster with the
run, its delta being the sums expanded, while the local cost follows the
rows.  Measured on one 2-core host, global against local in ms, the
crossover lies near 40 steps for a theorem-shaped comparison (a C sum
against the (7, 2) companion: 34 against 42 at 39 steps, 47 against 46
at 43, 73 against 51 at 49) and near 31 for a sampled side against 0;
every grid-sweep comparison runs at most 25 steps.  A routed part whose
bracket is still all zero after one doubling is settled by
check_identity_equal, computed at most once per comparison, instead of
doubling the rows up to the span bound; once a part reads INFINITE the
sides are equal, and every later part is INFINITE with no row built.
Every side the engine builds is a plan, its closed forms and targets
included.  A zero side is an empty plan: the sampled checks compare each
side with 0, and half-vs-full-m the full sum's tail past the half with 0
over the half sum's denominator.

CHECKS is the one table of the q-side checks (the cli's q-side rows come
from it).  verify_case rejects a param outside the row's axes and names
the report by Report.named, the schema of q-side and classical reports
alike; the runner validates the values, assembles both sides, picks the
right modulus, and delegates here.  The theorem, closed-form
identity, root and sampled checks share one shape, built by _sides: the
base-1 sum to (n^r - 1) // div against its companion _target, the
base-n sum to (n^{r-1} - 1) // div scaled in its plan by +-q^{(1-n)/2}
[n], whose 1 - q^n cancels the companion's held 1 - q^n.  The closed
forms are its r = 1 root case, whose companion is the single term 1.
Conjectural checks are flagged so that drivers can separate findings
from failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache, partial

# cyclotomic and sum_truncated are not called here: perfbench/tracing.py
# wraps them by these names.
from .cyclotomic import (
    cyclotomic,
    divisors,
    q_integer_cyclotomic_factors,
    valuation_at,
)
from .local import certify_part
from .polycore import INFINITE, Poly, _slots
from .qseries import (
    FactoredProduct,
    FamilySpec,
    SeriesSum,
    _accumulate,
    plan_sum,
    sum_truncated,
    target_sign,
)


@dataclass
class ModulusSpec:
    """A modulus prod Phi_d^e as (d, e) pairs with distinct d >= 2 and
    e >= 1.  An empty list raises ValueError, as a bad pair does."""

    parts: tuple[tuple[int, int], ...]

    def __init__(self, parts):
        self.parts = tuple(sorted(parts))
        if not self.parts:
            raise ValueError("a modulus needs at least one part")
        if any(d < 2 for d, _ in self.parts):
            raise ValueError("cyclotomic index must be >= 2")
        if any(e < 1 for _, e in self.parts):
            raise ValueError("exponent must be >= 1")
        if len({d for d, _ in self.parts}) < len(self.parts):
            raise ValueError("duplicate cyclotomic index")


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


#: An axis -> the name a label gives it.
_LABEL_AXES = {"exponent": "exp", "kcap": "K"}


def label(kind: str, params: dict) -> str:
    """The kind, then axis=value per param: exp= for the exponent, K= for
    kcap.  It labels every report and every error entry."""
    return " ".join([kind] + [f"{_LABEL_AXES.get(k, k)}={v}"
                              for k, v in params.items()])


def _enc(v):
    # INFINITE is written as null
    return None if v == INFINITE else v


@dataclass(kw_only=True)
class Report:
    """The fields every report carries; to_dict adds its kind's _own()."""

    params: dict
    passed: bool
    conjectural: bool = False
    label: str = ""        # these three set by named
    kind: str = ""
    elapsed_ms: float = 0.0
    note: str = ""
    extra: dict = field(default_factory=dict)

    def named(self, kind: str, params: dict, start: float) -> Report:
        """Set kind, the label of params and elapsed_ms since start."""
        self.elapsed_ms = (time.perf_counter() - start) * 1e3
        self.kind, self.label = kind, label(kind, params)
        return self

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "params": dict(self.params),
            "conjectural": self.conjectural,
            "pass": self.passed,
            "note": self.note,
            "extra": dict(self.extra),
            "elapsed_ms": round(self.elapsed_ms, 3),
            **self._own(),
        }


@dataclass(kw_only=True)
class CongruenceReport(Report):
    parts: list[PartResult]
    identically_equal: bool

    def _own(self) -> dict:
        return {
            "type": "q",
            "identically_equal": self.identically_equal,
            "parts": [{"component": p.component, "d": p.d,
                       "required": p.required, "found": _enc(p.found),
                       "margin": _enc(p.margin), "expect": p.expect}
                      for p in self.parts],
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


#: A comparison of two plans whose longer run has at least this many
#: steps is certified on the local path; see the module docstring for
#: the measured crossover.
LOCAL_RUN = 40


def check_congruence(lhs: SeriesSum, rhs: SeriesSum, modulus: ModulusSpec, *,
                     params: dict = None, conjectural: bool = False,
                     component: str = "", count_denominators: bool = True
                     ) -> CongruenceReport:
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
    return _compare([lhs], [rhs], modulus, count_denominators, component,
                    params=dict(params or {}), conjectural=conjectural)


def _compare(lhs: list[SeriesSum], rhs: list[SeriesSum],
             modulus: ModulusSpec, count_denominators: bool, component: str,
             **report) -> CongruenceReport:
    """The report on prod(lhs) == prod(rhs): each part's found from the
    path the rule picks, its required the exponent plus the Phi_d content
    of every nominal denominator (the exponent alone without
    count_denominators)."""
    sides = lhs + rhs
    runs = [side.numerator for side in sides]
    # a side held as a Poly comes only from the tests, and stays global
    local = len(sides) > 2 or all(isinstance(run, list) for run in runs) \
        and max(map(len, runs)) >= LOCAL_RUN
    founds, identical = (_local if local else _global)(lhs, rhs, modulus)
    parts = []
    for (d, e), found in zip(modulus.parts, founds):
        required = e + sum(side.denominator.ord_cyclotomic(d)
                           for side in sides) if count_denominators else e
        parts.append(PartResult(d, required, found, found - required,
                                component))
    return CongruenceReport(
        parts=parts, passed=all(p.met() for p in parts),
        identically_equal=identical, **report)


def _global(lhs: list[SeriesSum], rhs: list[SeriesSum],
            modulus: ModulusSpec):
    """(founds, identically equal) of one sum a side on the global path:
    their delta unpacked once and each part counted by valuation_at."""
    (lhs,), (rhs,) = lhs, rhs
    lcm, delta, w, offset = _delta(lhs, rhs)
    if not delta:
        return [INFINITE] * len(modulus.parts), True
    delta = Poly(_slots(delta, w), offset)      # the one unpack
    return [valuation_at(delta, d) + lhs.denominator.ord_cyclotomic(d)
            + rhs.denominator.ord_cyclotomic(d) - lcm.ord_cyclotomic(d)
            for d, _ in modulus.parts], False


def _local(lhs: list[SeriesSum], rhs: list[SeriesSum], modulus: ModulusSpec):
    """(founds, identically equal) of prod(lhs) == prod(rhs) on the local
    path, each side a list of plans: each part from local.certify_part.
    Between two single sums, a part whose rows all vanish is settled by
    check_identity_equal, computed once.  Once a part reads INFINITE the
    sides are equal, and every later part is INFINITE with no row built."""
    equal = cache(partial(check_identity_equal, *lhs, *rhs)) \
        if len(lhs) == len(rhs) == 1 else None
    founds = []
    for d, e in modulus.parts:
        founds.append(INFINITE if INFINITE in founds
                      else certify_part(lhs, rhs, d, e, equal))
    return founds, INFINITE in founds


def check_identity_equal(lhs: SeriesSum, rhs: SeriesSum) -> bool:
    """Exact equality of the two rational functions: a packed delta of 0."""
    return not _delta(lhs, rhs)[1]


def _delta(lhs: SeriesSum, rhs: SeriesSum):
    """(L, delta, w, offset): L the lcm of the held denominators, each base
    at the larger exponent, and delta = L * (LHS - RHS) = (L / lhs.held) *
    lhsV - (L / rhs.held) * rhsV, packed from offset in slots of w bytes.
    w is set from counts before any arithmetic: the sides' count bounds,
    one bit per binomial of a lift, one for the difference, one for the
    sign.  Each side is built at w and lifted by one shift-subtract per
    binomial, except where a non-empty run S has extra equal to the other
    side O's held: then L is S.held, and O's value, negated, is S's start
    value, which S's dens passes carry to S.held / S.extra, so the run
    ends at V_S - V_O * S.held / O.held (negated when S is on the right).
    An empty run has no dens pass to carry a start, and never starts."""
    left, right = lhs.held.factors, rhs.held.factors
    lcm, up_l = dict(left), {}
    for m, e in right.items():
        if e > left.get(m, 0):
            lcm[m], up_l[m] = e, e - left.get(m, 0)
    up_r = {m: e - right.get(m, 0) for m, e in left.items()
            if e > right.get(m, 0)}
    w = (max(lhs.bits + sum(up_l.values()),
             rhs.bits + sum(up_r.values())) + 1) // 8 + 1
    for run, other, sign in (lhs, rhs, 1), (rhs, lhs, -1):
        if isinstance(run.numerator, list) and run.numerator \
                and run.extra == other.held:
            y, y_off = other.packed(w)
            num, off = _accumulate(run.numerator, w, -y, y_off)
            return FactoredProduct(lcm), sign * num, w, off
    (x, x_off), (y, y_off) = lhs.packed(w), rhs.packed(w)
    off = min(x_off, y_off)
    return (FactoredProduct(lcm),
            (_lifted(x, up_l, 8 * w) << 8 * w * (x_off - off))
            - (_lifted(y, up_r, 8 * w) << 8 * w * (y_off - off)), w, off)


def _lifted(x: int, lift: dict, bits: int) -> int:
    for m, e in sorted(lift.items()):
        for _ in range(e):
            x -= x << bits * m
    return x


# ---------------------------------------------------------------------------
# prefactors


def _target(family: str, n: int, r: int, div: int, t: int = None,
            printed: bool = False) -> SeriesSum:
    """The companion: the base-n sum to (n^{r-1} - 1) // div, scaled."""
    inner = FamilySpec(family, n, (n ** (r - 1) - 1) // div, t, printed)
    return plan_sum(inner).scaled(n, target_sign(family, n))


def _sides(family: str, n: int, r: int, div: int, t: int = None):
    """(the base-1 sum to (n^r - 1) // div, its companion _target)."""
    return (plan_sum(FamilySpec(family, 1, (n ** r - 1) // div, t)),
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


def _roots_case(family: str, n: int, r: int = 1, d: int = 2, j: int = 0
                ) -> CongruenceReport:
    """Exact equality of both sides at the root specialization t = -(2j+1)n.

    The +(2j+1)n specialization gives the same rational function by the
    t <-> -t symmetry of the terms, so only the negative root is computed.
    For family C the shared closed form q^{(1-(2j+1)n)/2} [(2j+1)n] is
    checked as well.  For family J both readings of the target prefactor
    (scaled: q^{nk^2}[6k+1]_{q^n}; printed: q^{k^2}[6k+1]_{q^2}) are
    evaluated and reported.  The report's params are the case's axes, and
    its extra carries the derived t.
    """
    _require_case(n, r, d)
    if j not in admissible_root_indices(n, r, d):
        raise ValueError("j out of the admissible range")
    m = (2 * j + 1) * n
    lhs, rhs = _sides(family, n, r, d, -m)
    other = SeriesSum([([], [], [], 0, 1)], bits=1).scaled(m, 1) \
        if family == "C" else _target(family, n, r, d, -m, printed=True)
    equal = check_identity_equal(lhs, rhs)
    # exact equality is transitive: once lhs == rhs, rhs stands in for lhs
    second = check_identity_equal(rhs if equal else lhs, other)
    if family == "C":
        passed, extra = equal and second, {"closed_form": second}
    else:
        passed = equal or second
        extra = {"readings": {"scaled": equal, "printed": second}}
    return CongruenceReport(
        params={"n": n, "r": r, "d": d, "j": j}, parts=[], passed=passed,
        identically_equal=equal, extra={**extra, "t": -m})


def _sampled_case(family: str, n: int, r: int = 1, d: int = 2,
                  t: int = None) -> CongruenceReport:
    """At a sampled odd specialization t: LHS, RHS and their difference all
    vanish modulo the q-integer [n^r].

    The congruences are certified in the generic-parameter sense, as
    divisibility of the cross-multiplied numerator: the parametric
    statement lives where every denominator is coprime to the modulus, and
    the monomial substitution preserves that divisibility even where a
    specialized denominator factor collides with the modulus.  For family
    J the scaled reading is asserted and the printed one recorded.
    """
    _require_case(n, r, d)
    if t is None or t % 2 == 0:
        raise ValueError("sampled checks need an odd specialization t")
    check = partial(check_congruence, modulus=modulus_q_integer(n ** r),
                    count_denominators=False)
    zero = SeriesSum([], bits=0)
    lhs, rhs = _sides(family, n, r, d, t)
    pairs = {"lhs==0": (lhs, zero), "rhs==0": (rhs, zero),
             "lhs==rhs": (lhs, rhs)}
    readings = {}
    if family == "J":
        printed = _target(family, n, r, d, t, printed=True)
        readings = {"rhs==0": (printed, zero), "lhs==rhs": (lhs, printed)}
    sub = [check(*pair, component=name) for name, pair in pairs.items()]
    parts = [p for rep in sub for p in rep.parts]
    extra = {"printed_reading": {name: check(*pair).passed
                                 for name, pair in readings.items()}} \
        if readings else {}
    return CongruenceReport(
        params={"n": n, "r": r, "d": d, "t": t}, parts=parts,
        passed=all(p.met() for p in parts),
        identically_equal=all(rep.identically_equal for rep in sub),
        extra=extra)


# ---------------------------------------------------------------------------
# case driver


def _theorem_case(family: str, div: int, n: int, r: int = 1
                  ) -> CongruenceReport:
    # div 2 sums the half range, div 1 the full; the modulus validates
    modulus = build_modulus_theorem(n, r)
    return check_congruence(*_sides(family, n, r, div), modulus,
                            params={"n": n, "r": r})


def _correction_case(family: str, conjectural: bool, n: int
                     ) -> CongruenceReport:
    # target q^{(1-n)/2}([n] + (n^2-1)(1-q)^2 [n]^3 / 24), sign -q for J,
    # modulo [n] Phi_n^3; both sides are multiplied by 24.  The correction
    # is (1 - q)^2 [n]^3 = (1 - q^n)^2 [n] (_corrected_target).
    _require_case(n)
    return check_congruence(
        plan_sum(FamilySpec(family, 1, (n - 1) // 2)).scaled(1, 24),
        _corrected_target(family, n), _modulus_qint_times_cubed(n),
        params={"n": n}, conjectural=conjectural)


def _corrected_target(family: str, n: int) -> SeriesSum:
    # 24 + c (1 - q^n)^2, c = n^2 - 1, as a two-term run, scaled by
    # +-q^{(1-n)/2} [n]
    c = n * n - 1
    return SeriesSum([([], [], [], 0, 24), ([n, n], [], [], 0, c)],
                     bits=(24 + 2 * c).bit_length()) \
        .scaled(n, target_sign(family, n))


def _product_conjecture_case(div: int | None, exponent: int, squared: bool,
                             n: int, r: int = 1, d: int | None = None,
                             ) -> CongruenceReport:
    # div None takes the divisor from the d axis (default 2), which only
    # that row has; squared makes the inner base n^2 instead of n.  A
    # product of sums, so the one part is certified locally, from the
    # three sums' plans.
    params = {"n": n, "r": r}
    if div is None:
        div = params["d"] = 2 if d is None else d
    _require_case(n, r, div)
    lhs = plan_sum(FamilySpec("M", 1, (n ** (r + 1) - 1) // div))
    rhs = [plan_sum(FamilySpec("M", 1, (n - 1) // div)),
           plan_sum(FamilySpec("M", n * n if squared else n,
                               (n ** r - 1) // div))]
    return _compare([lhs], rhs, ModulusSpec([(n, exponent)]), True, "",
                    params=params, conjectural=True)


def _half_vs_full_case(n: int, r: int = 1) -> CongruenceReport:
    # The two truncations of the M family must separate modulo Phi_n but
    # agree modulo Phi_{n^{r+1}}^4: the full sum's tail past the half,
    # over F_{top-1}, against 0 over the half sum's denominator.
    _require_case(n, r)
    top = n ** (r + 1)
    half = (top - 1) // 2
    tail = plan_sum(FamilySpec("M", 1, top - 1), half + 1)
    zero = SeriesSum([], plan_sum(FamilySpec("M", 1, half)).denominator,
                     bits=0)
    rep = check_congruence(tail, zero, ModulusSpec([(n, 1), (top, 4)]),
                           params={"n": n, "r": r}, component="agreement")
    separation = rep.parts[0]       # parts ascend by d, and n < n^{r+1}
    separation.component, separation.expect = "separation", "lt"
    rep.passed = all(p.met() for p in rep.parts)
    rep.note = "separation part expects non-divisibility"
    return rep


def _identity_case(family: str, n: int) -> CongruenceReport:
    # the r = 1 root case: the companion is the one-term sum 1
    _require_case(n, minimum=1)
    equal = check_identity_equal(*_sides(family, n, 1, 2, -n))
    return CongruenceReport(params={"n": n}, parts=[], passed=equal,
                            identically_equal=equal)


_N_R = ("n", "r")

#: Check name -> (runner(**params) with the check's constants bound in
#: front, its param axes, its description).  qj2 and the product checks
#: are conjectural: a failed report is a finding, not an implementation bug.
CHECKS = {
    "thm1-half": (partial(_theorem_case, "C", 2), _N_R,
                  "quartic family, half range vs base-raised target"),
    "thm1-full": (partial(_theorem_case, "C", 1), _N_R,
                  "quartic family, full range vs base-raised target"),
    "thm2-half": (partial(_theorem_case, "J", 2), _N_R,
                  "sextic family, half range vs base-raised target"),
    "thm2-full": (partial(_theorem_case, "J", 1), _N_R,
                  "sextic family, full range vs base-raised target"),
    "gw": (partial(_correction_case, "C", False), ("n",),
           "quartic family vs cubic-corrected closed form (asserted)"),
    "qj2": (partial(_correction_case, "J", True), ("n",),
            "sextic family vs cubic-corrected closed form (conjectural)"),
    "conj41": (partial(_product_conjecture_case, 1, 3, True), _N_R,
               "full-range product splitting mod Phi_n^3 (conjectural)"),
    "conj42": (partial(_product_conjecture_case, 2, 3, True), _N_R,
               "half-range product splitting mod Phi_n^3 (conjectural)"),
    "conj43": (partial(_product_conjecture_case, None, 2, False),
               ("n", "r", "d"),
               "product splitting at divisor d mod Phi_n^2 (conjectural)"),
    "lemma22": (partial(_identity_case, "C"), ("n",),
                "quartic root-specialization closed form (exact identity)"),
    "lemma31": (partial(_identity_case, "J"), ("n",),
                "sextic root-specialization closed form (exact identity)"),
    "param-roots-c": (partial(_roots_case, "C"), ("n", "r", "d", "j"),
                      "quartic parametric sides equal at root "
                      "specializations"),
    "param-roots-j": (partial(_roots_case, "J"), ("n", "r", "d", "j"),
                      "sextic parametric sides equal at root "
                      "specializations"),
    "param-sampled-c": (partial(_sampled_case, "C"), ("n", "r", "d", "t"),
                        "quartic parametric sides vanish mod [n^r] at odd t"),
    "param-sampled-j": (partial(_sampled_case, "J"), ("n", "r", "d", "t"),
                        "sextic parametric sides vanish mod [n^r] at odd t"),
    "half-vs-full-m": (_half_vs_full_case, _N_R,
                       "truncation separation mod Phi_n, agreement mod "
                       "Phi_{n^{r+1}}^4"),
}


def verify_case(kind: str, **params) -> CongruenceReport:
    """Assemble and certify a single named check.  Report.named names it,
    with the row's axes read off the report, and times the whole case,
    planning the sides included.

    params are the check's own parameters: n, plus r, d, j or t where the
    check takes them (r defaults to 1, d to 2, j to 0).
    """
    if kind not in CHECKS:
        raise ValueError(f"unknown check {kind!r}")
    run, axes, _ = CHECKS[kind]
    for axis in params:
        if axis not in axes:
            raise TypeError(f"check {kind!r} takes no {axis}")
    start = time.perf_counter()
    report = run(**params)
    return report.named(
        kind, {axis: report.params[axis] for axis in axes}, start)
