"""Exponent algebra: how the Brennan exponent s ties to operator exponents.

For every p > 2 the target exponent q(p, s) = p*s/(p + s - 2) stays below
p, round-trips through s = (p-2)q/(p-q), and degenerates to q = s at
p = inf.  Holder conjugation gives the exponents of the inverse operator.
"""

import math

from brennanlab import (
    ExponentRecord,
    KnownBounds,
    alpha_range,
    classify_regime,
    dual_pair,
    holder_conjugate,
    q_from_ps,
    s_from_pq,
)

print("Target exponent q(p, s) for a few pairs:")
for p, s in [(4.0, 2.0), (3.0, 3.0), (6.0, 2.5), (math.inf, 3.0)]:
    q = q_from_ps(p, s)
    print(f"  p={p:<5g} s={s:<4g} -> q={q:.6g}   (round trip s={s_from_pq(p, q):.6g})")

print("\nHolder conjugates and the dual operator pair:")
for p, q in [(4.0, 3.0), (3.0, 2.5)]:
    q_conj, p_conj = dual_pair(p, q)
    print(f"  (p, q)=({p}, {q}) -> inverse operator exponents (q', p') = "
          f"({q_conj:.4g}, {p_conj:.4g})")
print(f"  conjugate of inf is {holder_conjugate(math.inf)}")

print("\nDistortion degrees alpha with alpha*(p-2) in (4/3, 4):")
for p in (3.0, 4.0, 1.0):
    lo, hi = alpha_range(p)
    print(f"  p={p}: alpha in ({lo:.6g}, {hi:.6g})")

kb = KnownBounds()
print("\nInverse-map exponent range:", kb.inverse_conjectured)

print("\nWhat is actually proved about the upper endpoint of s:")
print(f"  easy (distortion-theorem) range up to {kb.easy_upper}")
print(f"  improved to {kb.pommerenke}, then {kb.bertilsson}, "
      f"then {kb.hedenmalm_shimorin}; conjectured endpoint 4")
print(f"  inverse-exponent side proved down to r = {kb.inverse_proved_lower}")

print("\nOperator regimes:")
for p, q in [(2.0, 2.0), (4.0, 2.0), (3.0, 3.0), (2.0, 3.0), (math.inf, 2.0)]:
    print(f"  (p={p:g}, q={q:g}) -> {classify_regime(p, q).value}")

rec = ExponentRecord.from_p_s(4.0, 2.5)
rec.validate()
print(f"\nFull record at (p=4, s=2.5): q={rec.q:.6g}, r={rec.r}, "
      f"alpha={rec.alpha:.6g}, p'={rec.p_conj:.6g}, q'={rec.q_conj:.6g}")
