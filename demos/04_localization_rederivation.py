"""Re-deriving the cover-count/bracket bridge by symbolic localization.

The cover count is the degree of the branch map to the space of branch
divisors.  Localizing that degree at the distinguished fixed locus turns it
into an integral over the moduli of curves: the inverse Euler class of the
virtual normal bundle expands, in the truncated psi/lambda algebra, into
exactly the bracket combination the direct evaluation uses.  The equivariant
parameter u must -- and does -- drop out of the final expression.
"""

from fractions import Fraction

from hurwitzlab import (
    HodgeTable,
    Partition,
    elsv_evaluate,
    elsv_via_localization,
    fixed_locus_data,
    format_hodge_class,
    invert_into,
    inverse_euler_normal,
)

print(__doc__)

print("Fixed-locus data for genus 1 over the profile (2):")
data = fixed_locus_data(1, Partition([2]))
print("  node-smoothing factors (weight, marked point):", data.b4_moving)
print("  cyclic cover weights subtracted:", data.cover_weights)
print("  cover automorphisms:", data.automorphism_order)
print()

print("Its inverse virtual-normal Euler class, built twice (from the weight")
print("pieces and from the closed form) and required to match, prints as:")
inv = inverse_euler_normal(data)
print("  ", format_hodge_class(inv))
print()

print("The same object for three sheets at genus 0 collapses to a monomial:")
inv0 = inverse_euler_normal(fixed_locus_data(0, Partition([1, 1, 1])))
print("  ", format_hodge_class(inv0))
print()

table = HodgeTable()
for gh in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
    invert_into(table, *gh)

print("End to end, the localization chain reproduces both the direct table")
print("evaluation and the direct transposition count:")
for g, mu in [(0, Partition([1, 1, 1])), (1, Partition([2])), (0, Partition([2, 1, 1])),
              (1, Partition([2, 1])), (2, Partition([2]))]:
    loc = elsv_via_localization(g, mu, table)
    direct = elsv_evaluate(g, mu, table)
    print(f"  (g={g}, mu={mu}):  localization {loc}   table {direct}")
    assert loc == direct
print()

print("The answer cannot depend on the equivariant parameter; substituting")
print("arbitrary nonzero rationals before degree selection changes nothing:")
for a in (1, 2, Fraction(-3, 5), Fraction(22, 7)):
    value = elsv_via_localization(1, Partition([2]), table, u_value=a)
    print(f"  u = {str(a):>5}: {value}")
