"""Classical prime-power congruences for the q = 1 limits.

Every term here is a rational with a power-of-2 denominator (the central
binomial ratio C(2k,k)/4^k and its powers), so modular reduction at an odd
prime power only ever inverts 2.  Sums are computed exactly as fractions;
a reported residue or valuation is therefore a statement about the exact
value, not about any modular shortcut.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .polycore import INFINITE
from .qseries import classical_term_value, eta_product_coefficients

#: Smallest prime each classical check accepts.
MIN_PRIME = {"c2": 5, "j2": 5, "c3": 5, "j3": 5, "cc": 5, "jj": 5,
             "m2": 3, "dwork": 3, "lucas": 3}


@dataclass
class ResidueReport:
    label: str
    kind: str
    params: dict
    exponent: int
    valuation: object       # int or INFINITE
    passed: bool
    conjectural: bool = False
    timings: dict = field(default_factory=dict)
    note: str = ""
    extra: dict = field(default_factory=dict)

    def elapsed_ms(self) -> float:
        return sum(self.timings.values())

    def to_dict(self) -> dict:
        val = None if self.valuation == INFINITE else self.valuation
        return {
            "type": "classical",
            "label": self.label,
            "kind": self.kind,
            "params": dict(self.params),
            "conjectural": self.conjectural,
            "pass": self.passed,
            "p": self.params.get("p"),
            "exponent": self.exponent,
            "valuation": val,
            "note": self.note,
            "extra": dict(self.extra),
            "elapsed_ms": round(self.elapsed_ms(), 3),
        }


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def padic_valuation(n: int, p: int):
    """Multiplicity of p in n; INFINITE for n = 0."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if n == 0:
        return INFINITE
    n = abs(n)
    count = 0
    while n % p == 0:
        count += 1
        n //= p
    return count


def fraction_valuation(x: Fraction, p: int):
    if x == 0:
        return INFINITE
    return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)


def _require_odd_prime(p: int, minimum: int = 3) -> None:
    if not is_prime(p) or p < minimum or p == 2:
        raise ValueError(f"p must be an odd prime >= {minimum}")


def truncation(p: int, r: int, cap: int = None) -> list[Fraction]:
    """Coefficients A_0..A_{p^r-1} of the quartic central-binomial series,
    optionally capped at index cap."""
    _require_odd_prime(p)
    if r < 0:
        raise ValueError("r must be >= 0")
    count = p ** r
    if cap is not None:
        if cap < 0:
            raise ValueError("cap must be >= 0")
        count = min(count, cap + 1)
    return [classical_term_value("M", k) for k in range(count)]


def _classical_sum(family: str, upper: int) -> Fraction:
    return sum((classical_term_value(family, k) for k in range(upper + 1)),
               Fraction(0))


def _j_sign(p: int) -> int:
    return -1 if ((p - 1) // 2) % 2 else 1


def verify_van_hamme(kind: str, p: int, exponent: int) -> ResidueReport:
    """The two half-range prime congruences: sum == p (quartic family) or
    sum == (-1)^{(p-1)/2} p (sextic family), modulo p^exponent.

    Both hold modulo p^4; exponent <= 4 is therefore asserted.
    """
    if kind not in ("c2", "j2"):
        raise ValueError("kind must be c2 or j2")
    _require_odd_prime(p, minimum=MIN_PRIME[kind])
    if not 1 <= exponent <= 4:
        raise ValueError("exponent must be between 1 and 4")
    t0 = time.perf_counter()
    family = "C" if kind == "c2" else "J"
    total = _classical_sum(family, (p - 1) // 2)
    target = p if kind == "c2" else _j_sign(p) * p
    val = fraction_valuation(total - target, p)
    ms = (time.perf_counter() - t0) * 1e3
    return ResidueReport(
        label=f"{kind} p={p} exp={exponent}", kind=kind,
        params={"p": p}, exponent=exponent, valuation=val,
        passed=val >= exponent, timings={"total_ms": ms})


def verify_swisher(kind: str, p: int, r: int, exponent: int) -> ResidueReport:
    """Dwork-type quotient congruences between consecutive truncations.

    Half ranges for c3/j3, full ranges for cc/jj.  Proven modulo p^{3r};
    runs at higher exponents are flagged conjectural, their failure is a
    finding.
    """
    if kind not in ("c3", "j3", "cc", "jj"):
        raise ValueError("kind must be one of c3, j3, cc, jj")
    _require_odd_prime(p, minimum=MIN_PRIME[kind])
    if r < 1:
        raise ValueError("r must be >= 1")
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    t0 = time.perf_counter()
    family = "C" if kind in ("c3", "cc") else "J"
    half = kind in ("c3", "j3")
    upper_l = (p ** r - 1) // 2 if half else p ** r - 1
    upper_r = (p ** (r - 1) - 1) // 2 if half else p ** (r - 1) - 1
    sign = 1 if family == "C" else _j_sign(p)
    diff = _classical_sum(family, upper_l) \
        - sign * p * _classical_sum(family, upper_r)
    val = fraction_valuation(diff, p)
    ms = (time.perf_counter() - t0) * 1e3
    return ResidueReport(
        label=f"{kind} p={p} r={r} exp={exponent}", kind=kind,
        params={"p": p, "r": r}, exponent=exponent, valuation=val,
        passed=val >= exponent, conjectural=exponent > 3 * r,
        timings={"total_ms": ms})


def _reduce_mod(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def verify_m2(p: int) -> ResidueReport:
    """Half and full sums of the quartic series match the eta-product
    coefficient gamma_p modulo p^3."""
    _require_odd_prime(p)
    t0 = time.perf_counter()
    modulus = p ** 3
    gamma_p = eta_product_coefficients(p)[p - 1]
    full_sum = _classical_sum("M", p - 1)
    gamma = gamma_p % modulus
    half = _reduce_mod(_classical_sum("M", (p - 1) // 2), modulus)
    full = _reduce_mod(full_sum, modulus)
    passed = half == full == gamma
    diff_val = fraction_valuation(full_sum - gamma_p, p)
    ms = (time.perf_counter() - t0) * 1e3
    return ResidueReport(
        label=f"m2 p={p}", kind="m2", params={"p": p}, exponent=3,
        valuation=diff_val, passed=passed,
        timings={"total_ms": ms},
        extra={"half_residue": half, "full_residue": full,
               "gamma_residue": gamma, "modulus": modulus})


def dwork_quotient_check(p: int, r: int, degree_cap: int,
                         exponent: int = None) -> ResidueReport:
    """Cross-multiplied compatibility of consecutive truncations:

        f_{r+1}(z) f_{r-1}(z^p) == f_r(z) f_r(z^p)  (mod p^exponent)

    coefficientwise up to degree_cap, with f_0 = 1.  Cross-multiplication
    avoids series inversion and is equivalent to the quotient form because
    the constant terms are 1.  The native exponent is r; higher exponents
    are exploratory.

    The reported valuation is the minimum over m <= degree_cap of
    v_p((lhs_m - rhs_m) mod p^exponent), capped at exponent: the largest
    e <= exponent at which the check passes (0 if none), since the residues
    are only held to precision p^exponent.
    """
    _require_odd_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    if exponent is None:
        exponent = r
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    t0 = time.perf_counter()
    modulus = p ** exponent
    cut_hi = p ** (r + 1)     # f_{r+1} keeps k < p^{r+1}
    cut_mid = p ** r
    cut_lo = p ** (r - 1)
    residues = []
    for k in range(min(degree_cap, cut_hi - 1) + 1):
        c = math.comb(2 * k, k)
        residues.append(pow(c, 4, modulus) * pow(4, -4 * k, modulus)
                        % modulus)

    def a(k: int, cut: int) -> int:
        return residues[k] if k < min(cut, len(residues)) else 0

    mismatches = []
    valuation = exponent
    for m in range(degree_cap + 1):
        lhs = sum(a(m - p * jj, cut_hi) * a(jj, cut_lo)
                  for jj in range(min(cut_lo - 1, m // p) + 1)) % modulus
        rhs = sum(a(m - p * jj, cut_mid) * a(jj, cut_mid)
                  for jj in range(min(cut_mid - 1, m // p) + 1)) % modulus
        if lhs != rhs:
            mismatches.append(m)
            valuation = min(valuation,
                            padic_valuation((lhs - rhs) % modulus, p))
    ms = (time.perf_counter() - t0) * 1e3
    return ResidueReport(
        label=f"dwork p={p} r={r} K={degree_cap} exp={exponent}",
        kind="dwork", params={"p": p, "r": r, "K": degree_cap},
        exponent=exponent, valuation=valuation,
        passed=not mismatches, conjectural=exponent > r,
        timings={"total_ms": ms},
        extra={"mismatched_degrees": mismatches[:10]})


def lucas_min_valuation(p: int, r: int):
    """Smallest p-adic valuation of A_k over the vanishing windows
    (p^s+1)/2 <= k <= p^s-1 for s = 1..r."""
    _require_odd_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    best = INFINITE
    for s in range(1, r + 1):
        for k in range((p ** s + 1) // 2, p ** s):
            val = fraction_valuation(classical_term_value("M", k), p)
            if val < best:
                best = val
    return best


def verify_lucas(p: int, r: int) -> ResidueReport:
    t0 = time.perf_counter()
    best = lucas_min_valuation(p, r)
    ms = (time.perf_counter() - t0) * 1e3
    return ResidueReport(
        label=f"lucas p={p} r={r}", kind="lucas", params={"p": p, "r": r},
        exponent=4, valuation=best, passed=best >= 4,
        timings={"total_ms": ms})
