"""A theorem report at a prime bounds its classical limit.

Take n = p prime.  A theorem check at (p, r) has the modulus parts d =
p^j for j = 1..r, and a part's found is the Phi_d-adic valuation of
Delta, the cross-multiplied difference of the nominal numerators over
D_L D_R.  LHS - RHS is finite at q = 1, so Delta / (1 - q)^a is still a
Laurent polynomial over Z, a the number of binomials of D_L D_R.  By
Gauss's lemma its Phi_{p^j} content survives at q = 1 as p^found, since
Phi_{p^j}(1) = p and Phi_m(1) is prime to p for every other m > 1.  The
binomials 1 - q^m of D_L D_R give v_p(prod m), which is the sum over j
of their Phi_{p^j} content.  So

    v_p(S_K1 - +-p S_K2) >= sum over j <= r of (found_{p^j} - content_{p^j})
                          = 3r + the sum of the parts' margins,

where the left side is the q -> 1 limit of the comparison: the classical
companion difference that padic reads for c3, cc, j3 and jj.  No nominal
denominator has Phi_{p^{r+1}} content, since a base divisible by p^{r+1}
needs k >= p^r.  The q side (local, congruence) and the classical side
(padic) share no arithmetic, so the inequality ties each to the other.
"""

import pytest

from qcongruence import padic
from qcongruence.congruence import _sides, verify_case

#: q-side check -> (family, range divisor) of its classical limit, which
#: is c3, cc, j3 and jj in this order
PAIRS = {"thm1-half": ("C", 2), "thm1-full": ("C", 1),
         "thm2-half": ("J", 2), "thm2-full": ("J", 1)}

# every odd prime p <= 13 and r <= 2 with p^r <= 130 but (11, 2), whose
# four cases would take most of the time of all 36
POINTS = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p, r", POINTS)
@pytest.mark.parametrize("kind", PAIRS)
def test_theorem_at_a_prime_bounds_its_classical_limit(kind, p, r):
    family, div = PAIRS[kind]
    report = verify_case(kind, n=p, r=r)
    assert [part.d for part in report.parts] == [p ** j
                                                 for j in range(1, r + 1)]
    sides = _sides(family, p, r, div)

    def content(d):
        return sum(side.denominator.ord_cyclotomic(d) for side in sides)

    assert content(p ** (r + 1)) == 0
    bound = sum(part.found - content(part.d) for part in report.parts)
    assert bound == 3 * r + sum(part.margin for part in report.parts)
    assert padic._companion_valuation(family, p, r, div) >= bound
