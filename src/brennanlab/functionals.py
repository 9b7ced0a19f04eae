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
    InvalidGradingError,
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
    """One evaluated integral functional, with the exponents its callers read.

    ``exponent`` is the power of |psi'| actually integrated on the disc,
    ``2 - s`` for the Brennan exponent s it stands for.  ``p`` and
    ``q`` are the operator exponents of a K_{p,q} result, and ``kpq_value``
    is the ``(p-q)/(p*q)`` power of the integral's ``limit`` (``inf``
    unless it converged); all three are ``None`` for the Brennan and
    inverse Brennan integrals.
    """

    integral: IntegralEstimate
    exponent: float
    p: float | None = None
    q: float | None = None
    kpq_value: float | None = None


@dataclass(frozen=True)
class CriticalExponentReport:
    """Bracketed empirical integrability threshold of one map on one side.

    ``probes`` records every evaluated exponent as ``(s, classification,
    slope)``: the integral's own verdict, and the fitted tail slope whose
    sign the bisection reads.  ``s_star`` is the slope-zero crossing
    interpolated inside the final bracket.
    """

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
    return FunctionalResult(est, 2.0 - s)


def inverse_brennan_integral(pair: ConformalPair, r: float,
                             spec: GradingSpec = DEFAULT_SPEC) -> FunctionalResult:
    """Integral of ``|psi'|^r`` over the disc; agrees with brennan_integral(2 - r)."""
    est = _disc_integral(pair, r, spec)
    return FunctionalResult(est, r)


def kpq_functional(pair: ConformalPair, p: float, q: float,
                   spec: GradingSpec = DEFAULT_SPEC) -> FunctionalResult:
    """The operator-norm functional K_{p,q} of the map.

    For finite p the integrand exponent is ``s = (p-2)q/(p-q)`` and the
    functional is the ``(p-q)/(pq)`` power of the Brennan integral; for
    ``p = inf`` the exponent is ``q`` itself and the power is ``1/q``.  The
    power is taken of the integral's ``limit``, so an integral that did not
    converge (diverging or inconclusive) yields ``kpq_value = inf``, never
    a large float.
    Raises RegimeError unless ``1 <= q < p``, the upper bound through
    :func:`s_from_pq`.
    """
    if not q >= 1.0:
        raise RegimeError(f"q must be >= 1, got q={q}")
    s = s_from_pq(p, q)
    power = 1.0 / q if p == math.inf else (p - q) / (p * q)
    est = _disc_integral(pair, 2.0 - s, spec)
    return FunctionalResult(est, 2.0 - s, p, q, est.limit ** power)


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
    """Closed-form integrability thresholds ``(lower, upper)`` from the declared singular data.

    The pair's ``thresholds``, made once when it is built (see
    :class:`~brennanlab.catalog.ConformalPair`): a boundary point with local
    exponent e bounds s through ``(2 - s)*e > -2``, from above by
    ``2 + 2/e`` when e > 0 and from below when e < 0.  ``None`` stands for
    an absent constraint.
    """
    pair = target if isinstance(target, ConformalPair) else make_pair(target)
    return pair.thresholds


def critical_exponent(pair: ConformalPair, side: str, tol: float = 0.05,
                      spec: GradingSpec = DEFAULT_SPEC) -> CriticalExponentReport:
    """Bracket the critical Brennan exponent of a map on one side.

    ``side`` is ``"upper"`` (largest convergent s) or ``"lower"``
    (smallest).  Bisection runs on the sign of the fitted tail slope,
    which crosses zero exactly at the threshold for power-type boundary
    singularities: negative means the annulus increments shrink
    (convergent tail).  Each probe records the integral's own
    classification next to that slope, so a probe just below the
    threshold, with a slope between -``SLOPE_TOL`` and 0, reads "diverging"
    as :func:`brennan_integral` does there.  ``s_star`` is the secant zero
    of the slope inside the final bracket, so the bracket always contains
    it.

    Each probe is one Brennan integral, with one refinement: an
    inconclusive verdict or a nan slope is retried once at 1e-2 of the
    eps_min it ran at, a spec built only then, since the gap ladder may
    refuse the smaller eps_min at its floor.  A retry that stays
    inconclusive, or a refinement the ladder refuses, raises
    InconclusiveProbeError naming s (and, when refused, the eps_min given).
    Probes run at ``spec`` until the anchor at s = 2 needs its retry; every
    later probe then starts from the anchor's refined spec, so a spec too
    coarse to decide anything is not integrated twice per probe.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if not tol >= 0.01:
        raise ValueError(f"tolerance must be >= 0.01, got {tol}")
    lo, hi = UPPER_BRACKET if side == "upper" else LOWER_BRACKET
    anchor = lo if side == "upper" else hi
    probes: list[tuple[float, str, float]] = []
    start = spec

    def probe(s: float) -> float:
        nonlocal start
        est = brennan_integral(pair, s, start).integral
        if est.classification is Classification.INCONCLUSIVE or math.isnan(est.fitted_slope):
            try:
                refined = replace(start, eps_min=start.eps_min * 1e-2)
            except InvalidGradingError:
                raise InconclusiveProbeError(
                    f"probe at s={s} stayed inconclusive at eps_min={start.eps_min}, and the "
                    f"gap ladder cannot be refined to 1e-2 of it") from None
            est = brennan_integral(pair, s, refined).integral
            if est.classification is Classification.INCONCLUSIVE or math.isnan(est.fitted_slope):
                raise InconclusiveProbeError(f"probe at s={s} stayed inconclusive after refining "
                                             f"eps_min to {refined.eps_min}")
            if s == anchor:
                start = refined
        probes.append((s, est.classification.value, est.fitted_slope))
        return est.fitted_slope

    slope_lo, slope_hi = probe(lo), probe(hi)
    # the converging end must be s = 2, the area-identity anchor
    anchor_slope, far_slope = (slope_lo, slope_hi) if side == "upper" else (slope_hi, slope_lo)
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
    return CriticalExponentReport(side, s_star, (lo, hi), tuple(probes))
