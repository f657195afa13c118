"""Classical prime-power congruences for the q = 1 limits.

The k-th term of an unspecialized family is w_k C(2k,k)^e / 256^k: the quartic
family C has w_k = 4k + 1 and e = 4, the sextic family J has w_k = 6k + 1
and e = 3 (its C(2k,k)^3 / 64^k times a further 4^-k), and M has w_k = 1
and e = 4.  So the truncation S_K of a sum is one integer numerator over
256^K,

    N_K = sum over k <= K of w_k C(2k,k)^e 256^(K-k),

built by Horner's rule, with C(2k,k)^e carried from k - 1 by an exact
product and quotient of small integers (_numerators).  p is odd, so 256
is a p-adic unit: a residue of S_K mod p^E is that of N_K times
256^-K, and the companion difference S_K1 - +-p S_K2 is (N_K1 - +-p N_K2
256^(K1-K2)) / 256^K1, whose v_p is that of its integer numerator,
exactly, and INFINITE only when the difference is 0.  The vanishing
windows need only v_p(A_k) = 4 v_p(C(2k,k)), which by Kummer's theorem
is four times the number of carries when k + k is added in base p; no
term is formed.  So a reported residue or valuation is a statement about
the exact value, with no modulus or height bound to trust.  Only
dwork_quotient_check works with residues mod p^exponent, and its
valuation is capped there.

Each check returns a bare ResidueReport, a congruence.Report as the
q-side's are, its params under its case's axis names; cli.run_case names
it with Report.named.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .congruence import Report, _enc
from .cyclotomic import _prime_factors
from .polycore import INFINITE
from .qseries import eta_product_coefficients, target_sign

#: Smallest prime each classical check accepts.
MIN_PRIME = {"c2": 5, "j2": 5, "c3": 5, "j3": 5, "cc": 5, "jj": 5,
             "m2": 3, "dwork": 3, "lucas": 3}


@dataclass(kw_only=True)
class ResidueReport(Report):
    exponent: int
    valuation: object       # int or INFINITE

    def _own(self) -> dict:
        return {
            "type": "classical",
            "p": self.params.get("p"),
            "exponent": self.exponent,
            "valuation": _enc(self.valuation),
        }


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


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


def _require_odd_prime(p: int, minimum: int = 3) -> None:
    if not is_prime(p) or p < minimum or p == 2:
        raise ValueError(f"p must be an odd prime >= {minimum}")


#: family -> (a, e): the k-th term is (a k + 1) C(2k,k)^e / 256^k.
_TERMS = {"C": (4, 4), "J": (6, 3), "M": (0, 4)}


def _numerators(family: str, *uppers: int) -> list[int]:
    """N_K = S_K 256^K for each K of uppers, from one Horner pass to the
    largest: C(2k,k) = C(2k-2,k-1) 2(2k-1) / k, so its e-th power is one
    exact multiplication and one exact division by small integers."""
    a, e = _TERMS[family]
    found = {}
    n, power = 0, 1                         # power = C(2k,k)^e
    for k in range(max(uppers) + 1):
        if k:
            power = power * (4 * k - 2) ** e // k ** e
        n = (n << 8) + (a * k + 1) * power
        if k in uppers:
            found[k] = n
    return [found[k] for k in uppers]


# one entry: a sweep runs a quotient's two exponents back to back
@functools.lru_cache(maxsize=1)
def _companion_valuation(family: str, p: int, r: int, div: int):
    # the q -> 1 limit of the theorem-shaped comparison: v_p of the sum to
    # K1 = (p^r - 1) // div minus +-p times the sum to K2 = (p^{r-1} - 1)
    # // div, read off the numerator of the difference over 256^K1
    k1, k2 = (p ** r - 1) // div, (p ** (r - 1) - 1) // div
    n1, n2 = _numerators(family, k1, k2)
    return padic_valuation(
        n1 - target_sign(family, p) * p * (n2 << 8 * (k1 - k2)), p)


def verify_van_hamme(kind: str, p: int, exponent: int) -> ResidueReport:
    """The two half-range prime congruences: sum == p (quartic family) or
    sum == (-1)^{(p-1)/2} p (sextic family), modulo p^exponent.

    They are the r = 1 case of the quotient congruences c3/j3, whose
    inner sum is the single term 1.  Both hold modulo p^4; exponent <= 4
    is therefore asserted.
    """
    if kind not in ("c2", "j2"):
        raise ValueError("kind must be c2 or j2")
    _require_odd_prime(p, minimum=MIN_PRIME[kind])
    if not 1 <= exponent <= 4:
        raise ValueError("exponent must be between 1 and 4")
    val = _companion_valuation("C" if kind == "c2" else "J", p, 1, 2)
    return ResidueReport(params={"p": p, "exponent": exponent},
                         exponent=exponent, valuation=val,
                         passed=val >= exponent)


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
    family = "C" if kind in ("c3", "cc") else "J"
    div = 2 if kind in ("c3", "j3") else 1
    val = _companion_valuation(family, p, r, div)
    return ResidueReport(params={"p": p, "r": r, "exponent": exponent},
                         exponent=exponent, valuation=val,
                         passed=val >= exponent, conjectural=exponent > 3 * r)


def verify_m2(p: int) -> ResidueReport:
    """Half and full sums of the quartic series match the eta-product
    coefficient gamma_p modulo p^3; the valuation is v_p(full - gamma_p).
    Both sums are read off their numerators over 256^K."""
    _require_odd_prime(p)
    modulus = p ** 3
    gamma_p = eta_product_coefficients(p)[p - 1]
    k_half, k_full = (p - 1) // 2, p - 1
    n_half, n_full = _numerators("M", k_half, k_full)
    gamma = gamma_p % modulus
    half = n_half * pow(256, -k_half, modulus) % modulus
    full = n_full * pow(256, -k_full, modulus) % modulus
    passed = half == full == gamma
    diff_val = padic_valuation(n_full - (gamma_p << 8 * k_full), p)
    return ResidueReport(
        params={"p": p}, exponent=3, valuation=diff_val, passed=passed,
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
    return ResidueReport(
        params={"p": p, "r": r, "kcap": degree_cap, "exponent": exponent},
        exponent=exponent, valuation=valuation, passed=not mismatches,
        conjectural=exponent > r,
        extra={"mismatched_degrees": mismatches[:10]})


def _carries(k: int, p: int) -> int:
    """v_p(C(2k, k)) by Kummer's theorem: the number of carries when k + k
    is added in base p."""
    carries = carry = 0
    while k:
        carry = 2 * (k % p) + carry >= p
        carries += carry
        k //= p
    return carries


def lucas_min_valuation(p: int, r: int) -> int:
    """Smallest p-adic valuation of A_k = C(2k,k)^4 / 256^k, 4 v_p(C(2k,k)),
    over the vanishing windows (p^s+1)/2 <= k <= p^s-1 for s = 1..r."""
    _require_odd_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    return 4 * min(_carries(k, p) for s in range(1, r + 1)
                   for k in range((p ** s + 1) // 2, p ** s))


def verify_lucas(p: int, r: int) -> ResidueReport:
    best = lucas_min_valuation(p, r)
    return ResidueReport(params={"p": p, "r": r}, exponent=4, valuation=best,
                         passed=best >= 4)
