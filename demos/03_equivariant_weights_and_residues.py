"""The rank-one equivariant toolkit: weights, characters, and residue sums.

Under the circle action on the projective line, every computation localizes
at the two fixed points.  The cohomology of a line bundle becomes a finite
multiset of integer (or, on a cyclic cover, fractional) weights, and the
fixed-point formula reproduces those multisets from nothing but the tangent
and fiber weights -- an exact identity of rational functions, no limits.
The same mechanism integrates classes over the space of branch divisors.
"""

from hurwitzlab import (
    EquivariantPolyRing,
    ab_integrate,
    fixed_point_weights_cover,
    grr_localization_check,
    point_class,
    pushforward_char_cover,
)
from hurwitzlab.eqcoh import WeightMultiset

print(__doc__)

print("Cohomology weights of O(k) on the line (lift weight a = 0):")
for k in (3, 1, 0, -1, -3):
    h0, h1 = pushforward_char_cover(k, 0, 1)  # the line is the degree-1 cover
    print(f"  k = {k:>2}:  H0 = {sorted(w for w, _ in h0.items())}"
          f"   H1 = {sorted(w for w, _ in h1.items())}")
print()

print("Pulled back through the degree-2 cover z -> z^2, weights subdivide:")
for k in (1, -1, -2):
    h0, h1 = pushforward_char_cover(k, 0, 2)
    print(f"  k = {k:>2}:  H0 = {sorted(w for w, _ in h0.items())}"
          f"   H1 = {sorted(w for w, _ in h1.items())}")
print()

print("Fixed-point check: sum of e^(fiber)/(1 - e^(-tangent)) over the two")
print("poles equals the claimed virtual character, as cleared polynomials:")
for d in (1, 2, 3, 4):
    ok = all(
        grr_localization_check(
            fixed_point_weights_cover(a, k, d),
            (lambda hh: hh[0] - hh[1])(pushforward_char_cover(k, a, d)),
        )
        for k in range(-5, 6)
        for a in range(-3, 4)
    )
    print(f"  degree d = {d}: {'all 77 (k, a) pairs verified' if ok else 'FAILED'}")
print()

print("A perturbed claim is caught:")
fp = fixed_point_weights_cover(0, 1, 1)
h0, h1 = pushforward_char_cover(1, 0, 1)
print("  verdict:", grr_localization_check(fp, (h0 - h1) + WeightMultiset({9: 1})))
print()

print("Integration over the space of degree-r branch divisors (a projective")
print("r-space) by summing fixed-point residues: the class Poincare dual to")
print("the distinguished fixed point integrates to exactly 1.")
for r in range(1, 9):
    ring = EquivariantPolyRing(r)
    print(f"  r = {r}: integral = {ab_integrate(ring, point_class(ring))}")
print()

print("Low-degree classes integrate to zero, honest top classes to numbers:")
ring = EquivariantPolyRing(3)
print("  integral of 1   =", ab_integrate(ring, ring.one))
print("  integral of H   =", ab_integrate(ring, ring.H))
print("  integral of H^3 =", ab_integrate(ring, ring.H**3))
