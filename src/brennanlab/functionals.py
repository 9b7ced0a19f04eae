"""Integral functionals of catalog maps: Brennan integrals, K_{p,q}, thresholds.

Every domain-side integral is pulled back to the disc through the closed
form map psi: the change of variables turns ``integral over Omega of
|phi'|^s`` into ``integral over D of |psi'|^(2-s)``, which is the only
uniformly tractable chart since Omega may be unbounded.  The empirical
critical exponent machinery brackets the integrability threshold of a map
by bisecting on the sign of the fitted tail slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .catalog import ConformalPair, MapDescriptor, make_pair
from .exponents import ExponentDomainError, RegimeError, s_from_pq
from .quadrature import (
    Classification,
    GradingSpec,
    DEFAULT_SPEC,
    IntegralEstimate,
    _complex_integrand,
    _integrate_polar,
)

__all__ = [
    "CriticalExponentReport",
    "FunctionalResult",
    "InconclusiveProbeError",
    "ThresholdNotFoundError",
    "brennan_integral",
    "critical_exponent",
    "inverse_brennan_integral",
    "kpq_functional",
    "p_distortion",
    "threshold_oracle",
]

#: bisection brackets; s = 2 always converges (area identity) and anchors both
LOWER_BRACKET = (-6.0, 2.0)
UPPER_BRACKET = (2.0, 12.0)


class ThresholdNotFoundError(RuntimeError):
    """No integrability threshold exists inside the search bracket."""


class InconclusiveProbeError(RuntimeError):
    """A probe stayed inconclusive even after refining the grading."""


@dataclass(frozen=True)
class FunctionalResult:
    """One evaluated integral functional with its exponent bookkeeping.

    ``kind`` is ``"brennan"``, ``"inverse-brennan"`` or ``"kpq"``;
    ``exponent`` is the power of |psi'| actually integrated on the disc.
    ``kpq_value`` is the ``(p-q)/(p*q)`` power of the integral for the kpq
    kind (``inf`` when the integral diverges) and ``None`` otherwise.
    """

    kind: str
    descriptor: MapDescriptor
    integral: IntegralEstimate
    exponent: float
    s: float | None = None
    r: float | None = None
    p: float | None = None
    q: float | None = None
    kpq_value: float | None = None

    @property
    def converged(self) -> bool:
        return self.integral.classification is Classification.CONVERGED


@dataclass(frozen=True)
class CriticalExponentReport:
    """Bracketed empirical integrability threshold of one map.

    ``probes`` records every evaluated exponent with the verdict used by
    the bisection (sign of the fitted tail slope) and the slope itself.
    ``s_star`` is the slope-zero crossing interpolated inside the final
    bracket.
    """

    descriptor: MapDescriptor
    side: str
    s_star: float
    bracket: tuple[float, float]
    probes: tuple[tuple[float, str, float], ...]


def _disc_integral(pair: ConformalPair, exponent: float, spec: GradingSpec,
                   weight: Callable[[np.ndarray], np.ndarray] | None = None) -> IntegralEstimate:
    """Integral of ``|psi'|^exponent`` over the disc, graded toward every singular angle and pole.

    An optional ``weight`` of complex w multiplies the integrand; only then
    is each ring's complex grid built.  A non-finite exponent raises
    RegimeError, naming it as r and as s = 2 - r.
    """
    if not math.isfinite(exponent):
        raise RegimeError(f"the integral of |psi'|^r needs a finite exponent, got r={exponent} "
                          f"(s = 2 - r = {2.0 - exponent})")

    def g(r, theta):
        power = pair.abs_dpsi_power(r, theta, exponent)
        if weight is None:
            return power
        weighted = _complex_integrand(weight)(r, theta)
        return lambda i, part: power(i, part) * weighted(i, part)

    return _integrate_polar(g, pair.grading_angles, spec)


def brennan_integral(pair: ConformalPair, s: float,
                     spec: GradingSpec = DEFAULT_SPEC) -> FunctionalResult:
    """Integral of ``|phi'|^s`` over Omega, computed as ``|psi'|^(2-s)`` on the disc.

    No restriction on ``s``: probing outside the conjectured range is the
    whole point, and divergence is reported through the classification.
    """
    est = _disc_integral(pair, 2.0 - s, spec)
    return FunctionalResult("brennan", pair.descriptor, est, 2.0 - s, s=s, r=2.0 - s)


def inverse_brennan_integral(pair: ConformalPair, r: float,
                             spec: GradingSpec = DEFAULT_SPEC) -> FunctionalResult:
    """Integral of ``|psi'|^r`` over the disc; agrees with brennan_integral(2 - r)."""
    est = _disc_integral(pair, r, spec)
    return FunctionalResult("inverse-brennan", pair.descriptor, est, r, s=2.0 - r, r=r)


def kpq_functional(pair: ConformalPair, p: float, q: float,
                   spec: GradingSpec = DEFAULT_SPEC) -> FunctionalResult:
    """The operator-norm functional K_{p,q} of the map.

    For finite p the integrand exponent is ``s = (p-2)q/(p-q)`` and the
    functional is the ``(p-q)/(pq)`` power of the Brennan integral; for
    ``p = inf`` the exponent is ``q`` itself and the power is ``1/q``.  A
    diverging integral yields ``kpq_value = inf``, never a large float.
    Raises RegimeError unless ``1 <= q < p``, the upper bound through
    :func:`s_from_pq`.
    """
    if not q >= 1.0:
        raise RegimeError(f"q must be >= 1, got q={q}")
    s = s_from_pq(p, q)
    power = 1.0 / q if p == math.inf else (p - q) / (p * q)
    est = _disc_integral(pair, 2.0 - s, spec)
    if est.classification is Classification.CONVERGED:
        kpq = est.value ** power
    else:
        kpq = math.inf
    return FunctionalResult("kpq", pair.descriptor, est, 2.0 - s,
                            s=s, p=p, q=q, kpq_value=kpq)


def p_distortion(pair: ConformalPair, z: complex, p: float) -> float:
    """Pointwise p-distortion ``|phi'(z)|^(p-2)`` of the disc-ward map.

    Evaluated through ``ConformalPair.invert`` as ``|psi'(phi(z))|^(2-p)``,
    with the ``psi'`` the inversion computed at ``phi(z)``, in Python's
    arithmetic; identically 1 at p = 2, and inf where the power overflows.
    """
    if not p >= 1.0:
        raise ExponentDomainError(f"p-distortion requires p >= 1, got p={p}")
    _, dw = pair.invert(z)
    try:
        return abs(dw) ** (2.0 - p)
    except ArithmeticError:
        # Python raises past the largest float, and at 0 to a negative power, where
        # numpy's result stands: inf, or 0 from an overflowing |psi'|
        with np.errstate(over="ignore", divide="ignore"):
            return float(np.abs(dw) ** (2.0 - p))


def threshold_oracle(target: ConformalPair | MapDescriptor | str
                     ) -> tuple[float | None, float | None]:
    """Closed-form integrability thresholds from the declared singular data.

    Each boundary point with local exponent e constrains the Brennan
    exponent through ``(2 - s)*e > -2``: points with e > 0 cap s above by
    ``2 + 2/e``, points with e < 0 bound it below by the same formula.
    Returns ``(lower, upper)`` with ``None`` for an absent constraint.
    """
    pair = target if isinstance(target, ConformalPair) else make_pair(target)
    lower: float | None = None
    upper: float | None = None
    for sp in pair.singular_points:
        if sp.exponent > 0.0:
            cand = 2.0 + 2.0 / sp.exponent
            upper = cand if upper is None else min(upper, cand)
        elif sp.exponent < 0.0:
            cand = 2.0 + 2.0 / sp.exponent
            lower = cand if lower is None else max(lower, cand)
    return lower, upper


def _probe(pair: ConformalPair, s: float, spec: GradingSpec) -> tuple[float, str]:
    """Fitted tail slope at exponent s, retrying once with a finer grading.

    The bisection predicate is the slope sign: negative means the annulus
    increments shrink (convergent tail), positive means they grow.  The
    recorded verdict reflects that sign.
    """
    result = brennan_integral(pair, s, spec)
    est = result.integral
    if est.classification is Classification.INCONCLUSIVE or math.isnan(est.fitted_slope):
        refined = replace(spec, eps_min=spec.eps_min * 1e-2)
        est = brennan_integral(pair, s, refined).integral
        if est.classification is Classification.INCONCLUSIVE or math.isnan(est.fitted_slope):
            raise InconclusiveProbeError(
                f"probe at s={s} stayed inconclusive after refining eps_min to "
                f"{refined.eps_min}"
            )
    verdict = "converged" if est.fitted_slope < 0.0 else "diverging"
    return est.fitted_slope, verdict


def critical_exponent(pair: ConformalPair, side: str, tol: float = 0.05,
                      spec: GradingSpec = DEFAULT_SPEC) -> CriticalExponentReport:
    """Bracket the critical Brennan exponent of a map on one side.

    ``side`` is ``"upper"`` (largest convergent s) or ``"lower"``
    (smallest).  Bisection runs on the sign of the fitted tail slope,
    which crosses zero exactly at the threshold for power-type boundary
    singularities; ``s_star`` is the secant zero of the slope inside the
    final bracket, so the bracket always contains it.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if not tol >= 0.01:
        raise ValueError(f"tolerance must be >= 0.01, got {tol}")
    lo, hi = UPPER_BRACKET if side == "upper" else LOWER_BRACKET
    probes: list[tuple[float, str, float]] = []

    def probe(s: float) -> float:
        slope, verdict = _probe(pair, s, spec)
        probes.append((s, verdict, slope))
        return slope

    slope_lo = probe(lo)
    slope_hi = probe(hi)
    # converging side must sit at s = 2 (the area-identity anchor)
    anchor_is_lo = side == "upper"
    anchor_slope, far_slope = (slope_lo, slope_hi) if anchor_is_lo else (slope_hi, slope_lo)
    if anchor_slope >= 0.0:
        raise InconclusiveProbeError(
            f"anchor probe at s = 2 did not converge for {pair.descriptor.label()}"
        )
    if far_slope < 0.0:
        raise ThresholdNotFoundError(
            f"{pair.descriptor.label()} has no {side} threshold inside "
            f"[{lo}, {hi}]: the integral converges at every probed exponent"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        slope_mid = probe(mid)
        # keep the sign change inside [lo, hi]
        if (slope_mid < 0.0) == (slope_lo < 0.0):
            lo, slope_lo = mid, slope_mid
        else:
            hi, slope_hi = mid, slope_mid
    # one end's slope is < 0 and the other's >= 0, neither nan, so they differ
    s_star = lo + (hi - lo) * slope_lo / (slope_lo - slope_hi)
    s_star = min(max(s_star, lo), hi)
    return CriticalExponentReport(
        descriptor=pair.descriptor,
        side=side,
        s_star=s_star,
        bracket=(lo, hi),
        probes=tuple(probes),
    )
