"""Composition-operator bounds: sampled seminorm ratios against K_{p,q}.

Pulling a disc function f back through the map multiplies gradients by
|phi'|, and the ratio of the two homogeneous Sobolev seminorms can never
exceed the distortion functional K_{p,q}.  With a constant-gradient test
function on the identity map the Holder inequality is an equality, so the
bound is attained exactly.
"""

import math

from brennanlab import (
    equivalence_table,
    kpq_functional,
    make_pair,
    norm_ratio_report,
    q_from_ps,
)

print("Identity map, (p, q) = (4, 2): the bound pi^(1/4) is attained")
rep = norm_ratio_report(make_pair("identity"), 4.0, 2.0)
print(f"  K = {rep.bound_kpq:.10f}   pi^0.25 = {math.pi ** 0.25:.10f}")
for sample in rep.samples[:4]:
    print(f"  {sample.function:<18s} ratio = {sample.ratio:.8f}")

print("\nSlit-plane map, q chosen from s = 2.5 (inside the easy range):")
q = q_from_ps(4.0, 2.5)
rep = norm_ratio_report(make_pair("koebe"), 4.0, q)
print(f"  q = {q:.6f}, K = {rep.bound_kpq:.6f}, max sampled ratio = "
      f"{rep.max_ratio:.6f} -> bound holds: {rep.bound_satisfied}")

print("\nBeyond the threshold K is infinite and the report is informational:")
res = kpq_functional(make_pair("koebe"), 4.0, 3.0)
print(f"  (p, q) = (4, 3) means s = 6 > 4: K = {res.kpq_value}")

print("\nOne s, many operators: at fixed s every pair (p, q(p, s)) is backed")
print("by the same integral, so finiteness is decided once:")
table = equivalence_table(make_pair("koebe"), 2.5, [2.5, 3.0, 4.0, 6.0, 10.0])
first = table.rows[0]
print(f"  integral = {first.integral_value:.10f} ({first.classification.value})")
for row in table.rows:
    print(f"  p={row.p:<5g} q={row.q:.6f}  K={row.kpq_value:.6f}")
print(f"  exponent spread, the largest |s(p, q) - s|/s: {table.integral_spread:.2e}")
