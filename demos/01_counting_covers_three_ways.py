"""Counting branched covers of the sphere three independent ways.

A degree-d cover of the sphere with ramification profile mu over infinity and
only simple branching elsewhere is the same thing as a tuple of transpositions
in S_d multiplying to a fixed permutation of cycle type mu.  This script
computes the same counts by

  * a direct count of transitive transposition tuples (connected covers),
  * the cut-and-join recursion on cycle types, where one transposition
    joins two cycles or cuts one (disconnected covers, no representation
    theory), and
  * the character sum over irreducibles (disconnected covers again),

then splices the two disconnected engines through the exp/log transform and
checks everything agrees with the direct count, exactly.
"""

from hurwitzlab import (
    Partition,
    build_table,
    connected_dfs,
    connected_via_transform,
    disconnected_burnside,
    disconnected_dp,
    partitions_of,
    phi_series,
)

print(__doc__)

print("Partitions of 4 (these index both ramification profiles and")
print("irreducible representations):", ", ".join(str(p) or "()" for p in partitions_of(4)))
print()

table = build_table(4)
print("Character table of S_4 (rows nu, columns mu, exact integers):")
header = "        " + "".join(f"{str(mu):>10}" for mu in table.partitions)
print(header)
for nu, row in zip(table.partitions, table.entries):
    print(f"{str(nu):>8}" + "".join(f"{v:>10}" for v in row))
print()

print("Connected cover counts H(genus, mu), three routes each:")
print(f"{'genus':>5} {'mu':>8} {'direct count':>14} {'cut-and-join':>13} {'characters':>12}")
for mu in [Partition([3]), Partition([2, 1]), Partition([1, 1, 1]), Partition([2, 2])]:
    for g in (0, 1):
        r = 2 * g - 2 + mu.size + mu.length
        if r < 0:
            continue
        a = connected_dfs(g, mu)
        b = connected_via_transform(g, mu, "dp")
        c = connected_via_transform(g, mu, "burnside")
        assert a == b == c
        print(f"{g:>5} {str(mu):>8} {str(a):>14} {str(b):>13} {str(c):>12}")
print()

print("Disconnected counts carry an Euler-characteristic grading; the")
print("cut-and-join and character engines agree term by term:")
mu = Partition([3])
for chi in (2, 0, -2):
    dp = disconnected_dp(chi, mu)
    ch = disconnected_burnside(chi, mu)
    assert dp == ch
    print(f"  chi = {chi:>3}:  {dp}")
print()

print("One-variable series for mu = (2) (exponent = branch points minus degree):")
print(" ", phi_series(Partition([2]), "dp", max_r=7))
print()
print("The trivial profile mu = (1) admits only the identity cover:")
print(" ", phi_series(Partition([1]), "dfs", max_r=6))
