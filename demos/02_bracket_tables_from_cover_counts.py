"""Extracting intersection numbers from cover counts by exact interpolation.

Stripped of its combinatorial prefactor, the connected cover count for a
profile (mu_1, ..., mu_h) is a symmetric polynomial in the parts whose
coefficients are intersection numbers on the moduli of h-pointed genus-g
curves: top powers of the cotangent classes psi_i paired with one Chern class
lambda_i of the rank-g Hodge bundle.  Sampling the engines on a small grid of
profiles and solving the exact linear system recovers every such bracket.
"""

from hurwitzlab import (
    HodgeTable,
    Partition,
    connected_dfs,
    elsv_evaluate,
    elsv_inversion,
    hodge_export,
    invert_into,
    string_equation_check,
)

print(__doc__)

print("The forced genus-one values: the degree-one profile admits no covers")
print("and the degree-two count is 1/2, which pins both brackets to 1/24.")
print("  H(1,(1)) =", connected_dfs(1, Partition([1])))
print("  H(1,(2)) =", connected_dfs(1, Partition([2])))
result = elsv_inversion(1, 1)
for bracket, value in sorted(result.brackets.items(), key=lambda kv: kv[0].sort_key()):
    print(f"  {bracket} = {value}")
print()

print("Genus-zero brackets are multinomial coefficients; the inversion")
print("reproduces them from raw cover counts:")
table = HodgeTable()
for gh in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]:
    invert_into(table, *gh)
for b in table.brackets_for(0, 5):
    print(f"  {b} = {table.value(b)}")
print()

print("Genus two needs three brackets; all three fall out of one system:")
for b in table.brackets_for(2, 1):
    print(f"  {b} = {table.value(b)}")
print()

print("Forward evaluation round-trips through the engines; a profile the")
print("interpolation never saw:")
mu = Partition([2, 2])
print(f"  table evaluation H(1,{mu}) =", elsv_evaluate(1, mu, table))
print(f"  direct count              =", connected_dfs(1, mu))
print()

report = string_equation_check(table)
print(f"String-equation consistency: {report.summary()}")
for check in report.checks:
    print(f"  {check.lhs} = sum of {[str(b) for b in check.rhs]}: "
          f"{check.actual} == {check.expected}")
print()

print("The whole table, in its canonical on-disk form:")
print(hodge_export(table))
