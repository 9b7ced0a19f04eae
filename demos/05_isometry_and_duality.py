"""The p = 2 isometry and the dual-exponent integral identity.

At p = q = 2 composition with a conformal map preserves the Dirichlet
energy because |phi'|^2 is exactly the Jacobian.  The check below is
two-sided: the domain-side energy is integrated over the forward image of
a disc patch (every node mapped back by the closed-form inverse, whose
point is accepted when its residual in z or the Newton step that residual
implies in w meets its target; no step is taken), never by pulling back.

The duality demo evaluates the same integral through the exponents (p, q)
and through their Holder conjugates (q', p'); the change-of-variables
chain says both routes must agree, divergence included.
"""

from brennanlab import (
    boundary_power,
    duality_check,
    harmonic_poly,
    isometry_check,
    make_pair,
    shifted_log,
)

MAPS = ["identity", "koebe", "sector:1.5", "cardioid"]
FUNCTIONS = [harmonic_poly(1), boundary_power(1.5), shifted_log()]

print("Isometry ratios (forward-patch energy / disc-side energy):")
for name in MAPS:
    pair = make_pair(name)
    devs = [abs(isometry_check(pair, f) - 1.0) for f in FUNCTIONS]
    print(f"  {name:<12s} worst |ratio - 1| = {max(devs):.2e}")

print("\nDual-route integrals (both exponent chains hit the same integrand):")
for name, p, q in [("identity", 4.0, 3.0), ("cardioid", 3.0, 2.0),
                   ("koebe", 4.0, 3.0), ("sector:1.5", 2.5, 1.5)]:
    res = duality_check(make_pair(name), p, q)
    if res.lhs_classification.value == "converged":
        print(f"  {name:<12s} (p={p}, q={q}): lhs = {res.lhs:.10f}, "
              f"rhs = {res.rhs:.10f}, rel diff = {res.rel_diff:.1e}")
    else:
        print(f"  {name:<12s} (p={p}, q={q}): both routes diverge together "
              f"(shared exponent {res.exponent_direct:+.3g})")
