# Classical prime-power congruences (the q -> 1 limits)
#
# Every classical term is an integer over 256^k, so a truncation to K is
# one integer numerator over 256^K, a p-adic unit for odd p.  Valuations
# are read off the exact numerator of each difference, and the vanishing
# windows off Kummer's carries; nothing is sampled or approximated.

from qcongruence import (
    dwork_quotient_check,
    verify_lucas,
    verify_m2,
    verify_swisher,
    verify_van_hamme,
)

# %% half-range sums against p and (-1)^((p-1)/2) p, modulo p^4
for p in (5, 7, 11, 13):
    c2 = verify_van_hamme("c2", p, 4)
    j2 = verify_van_hamme("j2", p, 4)
    print(f"p={p}: quartic valuation {c2.valuation}, sextic valuation "
          f"{j2.valuation} (need 4)")

# %% quotient congruences between consecutive truncations
for kind in ("c3", "jj"):
    for exponent in (3, 4):
        rep = verify_swisher(kind, 5, 1, exponent)
        tag = "conjectural" if rep.conjectural else "asserted"
        print(f"{kind} p=5 r=1 exp={exponent} [{tag}]:",
              "PASS" if rep.passed else "FAIL (finding)",
              f"valuation={rep.valuation}")

# %% the eta-product coefficient congruence, with the tiny p=3 case
rep = verify_m2(3)
print("m2 p=3 residues:", rep.extra, "->", "PASS" if rep.passed else "FAIL")

# %% truncation compatibility and the vanishing windows behind it
print("dwork p=7 r=2 K=50:", dwork_quotient_check(7, 2, 50).passed)
print("vanishing windows p=11, depth 2:", verify_lucas(11, 2).passed)
