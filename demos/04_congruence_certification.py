# Certifying q-congruences
#
# A congruence between two truncated sums modulo a product of cyclotomic
# powers is certified from a single cross-multiplied difference: for each
# part (d, e) of the modulus, the Phi_d-adic valuation of the difference
# must cover e plus the denominators' own Phi_d content.  Reports show
# required and found valuations part by part.

from qcongruence import verify_case
from qcongruence.congruence import verify_parametric_roots

# %% the flagship congruence for the quartic family, n=3, depth r=2
rep = verify_case("thm1-half", n=3, r=2)
print(rep.label, "->", "PASS" if rep.passed else "FAIL")
for part in rep.parts:
    print(f"  Phi_{part.d}: required {part.required}, found {part.found},"
          f" margin {part.margin}")

# %% exact identities at root specializations drive the parametric proofs
rep = verify_parametric_roots("C", 5, 2, 1, j=2)
print(rep.label, "-> identical:", rep.identically_equal,
      "| closed form:", rep.extra["closed_form"])

# %% the sextic target has two printed readings; only one survives depth
rep = verify_parametric_roots("J", 3, 2, 1, j=1)
print(rep.label, "-> readings:", rep.extra["readings"])

# %% conjectural checks are flagged; failures would be findings, not bugs
rep = verify_case("conj41", n=3, r=1)
print(rep.label, "-> pass:", rep.passed, "| conjectural:", rep.conjectural)

# %% two truncations that disagree mod Phi_3 but agree mod Phi_9^4
rep = verify_case("half-vs-full-m", n=3, r=1)
for part in rep.parts:
    print(f"  {part.component}: Phi_{part.d}, margin {part.margin},"
          f" expectation '{part.expect}' met: {part.met()}")
