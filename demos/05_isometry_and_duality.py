"""The p = 2 isometry and the dual-exponent integral identity.

At p = q = 2 composition with a conformal map preserves the Dirichlet
energy because |phi'|^2 is exactly the Jacobian.  The check below is
two-sided: the domain-side energy is integrated over the forward image of
a disc patch (every node mapped back by the closed-form inverse, whose
point is accepted when its residual in z or the Newton step that residual
implies in w meets its target; no step is taken), never by pulling back.

The duality demo forms the shared exponent from (p, q) and from their
Holder conjugates (q', p'); the change-of-variables chain says the two
closed forms are one exponent, so one integral, convergent or divergent,
stands for both routes.
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

print("\nDual routes: p(2-q)/(p-q) and (q'-2)p'/(q'-p') are one exponent, one integral:")
for name, p, q in [("identity", 4.0, 3.0), ("cardioid", 3.0, 2.0),
                   ("koebe", 4.0, 3.0), ("sector:1.5", 2.5, 1.5)]:
    res = duality_check(make_pair(name), p, q)
    gap = abs(res.exponent_dual - res.exponent_direct)
    integral = (f"= {res.value:.10f}" if res.rhs_classification.value == "converged"
                else "diverges")
    print(f"  {name:<12s} (p={p}, q={q}): exponent {res.exponent_direct:+.3g} "
          f"(routes {gap:.0e} apart), integral {integral}")
