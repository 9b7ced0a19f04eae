"""Graded polar quadrature on the unit disc with tail-based divergence detection.

The integrands of interest are nonnegative with power-type singularities at
finitely many boundary points (and possibly along the whole boundary in the
radial direction).  The disc is covered by an inner disc of radius 1/2 plus
geometrically shrinking annuli whose boundary gap decreases by
``annulus_ratio`` per step down to ``eps_min``.  Each annulus carries a
tensor rule: Gauss-Legendre in the radius and an angular rule graded
toward every declared singular angle by the sinh map at the annulus gap
(Johnston & Elliott, IJNME 62, 2005): each side of each angle is
``theta = a +- gap*sinh(u)`` with one Gauss-Legendre block in u, so a
spike of angular width comparable to the gap is smooth in u and always
resolved.  The rule of the inner disc and of each annulus is built when
the ring needs it, one array pass over the sides, and is yielded as its
nodes ``theta`` and their weights.  Every Gauss-Legendre block, here and
in the forward patch's charts, comes from one cached table,
:func:`_gauss`, and this is the only module that builds a ring.

Each ring hands its integrand the ring's radial nodes ``r`` and angles
``theta``, and the integrand returns its values on the polar grid
``r x theta``.  The package's ``|psi'|^e`` works on that grid directly (see
:meth:`ConformalPair.abs_dpsi_power`), while :func:`integrate_disc` keeps
its complex-``w`` contract by adapting ``g`` to
``g(r[:, None]*exp(1j*theta))``.  Only a ring whose weighted sum is not
finite is scanned for the node that made it so.

Convergence versus divergence is decided from the per-annulus
contributions by one tail rule, :func:`_tail`: a power-law fit of the last
few increments against ``log(1/eps)`` gives a slope, negative slopes mean
geometrically shrinking increments (convergent tail, which is then
extrapolated and added to the value), non-shrinking increments mean the
integral grows at least logarithmically.  The increments always come from
the one geometric gap ladder down to ``eps_min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Classification",
    "DEFAULT_SPEC",
    "GradingSpec",
    "IntegralEstimate",
    "InvalidGradingError",
    "NonFiniteIntegrandError",
    "QuadratureError",
    "integrate_disc",
]

TWO_PI = 2.0 * math.pi

#: |slope| band separating geometrically shrinking increments from the rest
SLOPE_TOL = 0.05
#: number of trailing annulus increments entering the tail fit
FIT_WINDOW = 5
#: rms log-residual above which the power-law fit is distrusted
FIT_RESIDUAL_TOL = 0.15
#: outermost boundary gap: the inner disc has radius 1 - EPS_START
EPS_START = 0.5

#: an integrand on a ring's polar grid: g(r, theta) of shape (len(r), len(theta))
_PolarIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand returned a non-finite value at a quadrature node."""


class InvalidGradingError(QuadratureError, ValueError):
    """A GradingSpec field is out of range."""


class Classification(str, Enum):
    CONVERGED = "converged"
    DIVERGING = "diverging"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GradingSpec:
    """Resolution knobs of the graded disc rule.

    eps_min
        Innermost boundary gap; the outermost integrated radius is
        ``1 - eps_min``.
    annulus_ratio
        Geometric factor by which the gap shrinks per annulus.
    radial_order
        Gauss-Legendre points per annulus in the radial direction.
    angular_base
        With singular angles, ``angular_base//4`` extra nodes on each side
        of each angle.  Without, about the number of angular nodes:
        ``max(8, angular_base//angular_boost)`` equal panels.
    angular_boost
        With singular angles, ``angular_boost/2`` nodes per unit of
        ``asinh(distance/gap)`` on each side of each angle.  Without, the
        Gauss-Legendre points of each equal panel.
    """

    eps_min: float = 1e-8
    annulus_ratio: float = 0.5
    radial_order: int = 16
    angular_base: int = 64
    angular_boost: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_min <= EPS_START:
            raise InvalidGradingError(f"eps_min must lie in (0, {EPS_START}], got {self.eps_min}")
        if not 0.0 < self.annulus_ratio < 1.0:
            raise InvalidGradingError(f"annulus_ratio must lie in (0, 1), got {self.annulus_ratio}")
        if self.radial_order < 2:
            raise InvalidGradingError("radial_order must be at least 2")
        if self.angular_base < 8:
            raise InvalidGradingError("angular_base must be at least 8")
        if self.angular_boost < 2:
            raise InvalidGradingError("angular_boost must be at least 2")


DEFAULT_SPEC = GradingSpec()


@dataclass(frozen=True)
class IntegralEstimate:
    """Disc integral with truncation bookkeeping.

    ``value`` includes the extrapolated boundary tail when the one tail
    rule, :func:`_tail`, classifies the integral as converged;
    ``tail_estimate`` is then the residual uncertainty of that extrapolation
    (not the extrapolated mass, which is already inside ``value``).  For a
    diverging integral ``value`` is the bare truncated sum, the error is
    unbounded and ``abs_error_estimate`` is ``inf``.  ``fitted_slope`` is
    the exponent of the increment power law: increments behave like
    ``eps**(-slope)``, so negative slopes shrink; it is ``nan`` when no fit
    was possible.
    """

    value: float
    abs_error_estimate: float
    truncation_eps: float
    tail_estimate: float
    classification: Classification
    fitted_slope: float


@lru_cache(maxsize=None)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the package's one table.

    Every radial rule, the ungraded and the sinh angular rules and the
    forward patch's charts read it.  The nodes are numpy's ``leggauss``
    nodes; its weights lose up to 1e-11 relative toward the ends of
    [-1, 1] (at n = 134), so here P_{n-1} and P_n come from the three-term
    recurrence at each node x, and the weight ``2/((1 - x^2) P_n'(x)^2)``
    is carried to first order from x to the true root ``x - P_n/P_n'``.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    one = (1.0 - x) * (1.0 + x)
    dp = n * (p0 - x * p1) / one
    w = 2.0 / (one * dp * dp) * (1.0 + 2.0 * x * (p1 / dp) / one)
    # shared by every caller through the cache, so keep them read-only
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _angular_rules(singular_angles: Sequence[float], scales: Sequence[float],
                   spec: GradingSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Angular rules on [0, 2pi), one per scale, graded toward the singular angles.

    Each singular angle a owns the half of the arc toward either neighbour.
    On such a side of length h the rule at scale ``gap`` is the sinh map
    ``theta = a +- gap*sinh(u)``, ``u`` in ``[0, asinh(h/gap)]``, carrying
    one Gauss-Legendre block of ``ceil(angular_boost/2 * asinh(h/gap)) +
    angular_base//4`` points; a peak of width ``gap`` at a is smooth in u
    (Johnston & Elliott, IJNME 62, 2005).  Without singular angles every
    scale gets the same rule: ``max(8, angular_base//angular_boost)`` equal
    panels of ``angular_boost`` Gauss-Legendre points.

    Each rule is built when it is needed, so memory is bounded by one rule
    however long the ladder.  Rules are yielded, in the order of
    ``scales``, as (theta, weights).
    """
    # angles that coincide modulo 2pi are one angle, owning one arc
    angles = sorted({a % TWO_PI for a in singular_angles})
    if not angles:
        x, w = _gauss(spec.angular_boost)
        ends = np.linspace(0.0, TWO_PI, max(8, spec.angular_base // spec.angular_boost) + 1)
        half = 0.5 * (ends[1:] - ends[:-1])[:, None]
        rule = (ends[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()
        for _ in scales:
            yield rule
        return
    # outward from each angle to the midpoint of its arc, then inward from
    # the next angle to the same midpoint
    sides = []
    for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI]):
        mid = 0.5 * (a + b)
        sides += [(a, mid - a, 1.0), (b, b - mid, -1.0)]
    base, length, sign = np.array([s for s in sides if s[1] > 0.0]).T
    for gap in scales:
        stop = np.arcsinh(length / gap)
        count = np.ceil(0.5 * spec.angular_boost * stop).astype(int) + spec.angular_base // 4
        side = np.repeat(np.arange(len(count)), count)
        x, w = (np.concatenate(t) for t in zip(*map(_gauss, count.tolist())))
        half = 0.5 * stop[side]
        u = half * (x + 1.0)
        yield base[side] + sign[side] * (gap * np.sinh(u)), gap * np.cosh(u) * (half * w)


def _polar_grid(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The complex grid ``r[:, None]*exp(1j*theta)``: radial nodes down, angles across."""
    return r[:, None] * np.exp(1j * theta)


def _complex_integrand(g: Callable[[np.ndarray], np.ndarray]) -> _PolarIntegrand:
    """Adapt an integrand of complex ``w`` to the ring's polar grid ``r x theta``.

    The complex grid is the only array of the grid's size it builds.
    """
    return lambda r, theta: g(_polar_grid(r, theta))


def _ring_sum(g: _PolarIntegrand, r_lo: float, r_hi: float, theta: np.ndarray,
              wtheta: np.ndarray, radial_order: int) -> float:
    """Tensor Gauss-Legendre integral of g over the annulus r_lo <= |w| <= r_hi.

    ``g`` gets the ring's radial nodes ``r`` and its angles ``theta`` and
    returns its values on the grid ``r x theta`` (radial nodes down).  Only
    when the weighted sum is not finite are the values scanned: a
    non-finite value raises NonFiniteIntegrandError naming its node
    ``w = r*exp(1j*theta)``, while finite values whose sum overflows give
    that sum.
    """
    t, wt = _gauss(radial_order)
    half = 0.5 * (r_hi - r_lo)
    r, wr = r_lo + half * (t + 1.0), half * wt
    vals = np.asarray(g(r, theta), dtype=float)
    # polar Jacobian r folded into the radial weights; fixed reduction order
    total = float((wr * r) @ vals @ wtheta)
    if not math.isfinite(total):
        bad = np.argwhere(~np.isfinite(vals))
        if len(bad):
            i, j = bad[0]
            w = complex(_polar_grid(r[i:i + 1], theta)[0, j])
            raise NonFiniteIntegrandError(f"integrand non-finite at node w={w!r}")
    return total


def _gap_ladder(spec: GradingSpec) -> list[float]:
    """Boundary gaps from EPS_START down to exactly ``spec.eps_min``.

    The requested annulus_ratio is adjusted to the nearest value that
    lands on eps_min after an integer number of steps, keeping the gaps
    an exact geometric lattice (the tail fit relies on that).
    """
    if spec.eps_min >= EPS_START:
        return [EPS_START]
    span = math.log(spec.eps_min / EPS_START)
    n = max(1, round(span / math.log(spec.annulus_ratio)))
    ratio = math.exp(span / n)
    gaps = [EPS_START * ratio ** k for k in range(n)]
    gaps.append(spec.eps_min)
    return gaps


def _graded_sums(g: _PolarIntegrand, singular_angles, spec: GradingSpec):
    """Inner-disc value plus per-annulus contributions of the ring integrand g down to eps_min.

    The inner disc is graded at EPS_START and each annulus at its inner
    gap, so the scales of the angular rules are the gap ladder itself.
    """
    gaps = _gap_ladder(spec)
    rules = _angular_rules(singular_angles, gaps, spec)
    core = _ring_sum(g, 0.0, 1.0 - EPS_START, *next(rules), spec.radial_order)
    increments = [_ring_sum(g, 1.0 - outer_gap, 1.0 - inner_gap, *rule, spec.radial_order)
                  for outer_gap, inner_gap, rule in zip(gaps[:-1], gaps[1:], rules)]
    return core, increments, gaps[1:]


def _tail(increments: Sequence[float], eps: Sequence[float],
          floor: float) -> tuple[Classification, float, float, float]:
    """The package's one tail rule: (verdict, slope, tail, tail error) of the increments.

    Increments at or below ``floor`` count as numerically dead; if the last
    three (or fewer) are dead the tail is CONVERGED with nothing left.
    Otherwise the least-squares slope of log(increment) against
    ``log(1/eps)`` over the last ``FIT_WINDOW`` decides.  No increments,
    fewer than four, a non-positive one or an rms log-residual above
    ``FIT_RESIDUAL_TOL`` give INCONCLUSIVE, a slope above ``-SLOPE_TOL``
    DIVERGING; neither extrapolates, so its tail is 0 with error inf.

    A CONVERGED fit shrinks successive annuli by ``q = ratio**(-slope)``,
    ``ratio`` the last step of ``eps``, so the mass beyond the last
    increment is ``last * q/(1 - q)``.  Its error combines the fit
    residual with the difference against a two-point extrapolation.
    """
    inc = np.asarray(increments, dtype=float)
    if not len(inc):
        return Classification.INCONCLUSIVE, math.nan, 0.0, math.inf
    if np.all(inc[-3:] <= floor):
        return Classification.CONVERGED, 0.0, 0.0, 0.0
    # a slope through three points is too weak a test of the power law
    if len(inc) < 4 or np.any(inc <= 0.0):
        return Classification.INCONCLUSIVE, math.nan, 0.0, math.inf
    x = np.log(1.0 / np.asarray(eps, dtype=float)[-FIT_WINDOW:])
    y = np.log(inc[-FIT_WINDOW:])
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    slope, sigma = float(coeffs[0]), float(math.sqrt(np.mean(resid ** 2)))
    if sigma > FIT_RESIDUAL_TOL:
        return Classification.INCONCLUSIVE, slope, 0.0, math.inf
    # "not <=", so that a nan slope is DIVERGING
    if not slope <= -SLOPE_TOL:
        return Classification.DIVERGING, slope, 0.0, math.inf
    # the ring sums themselves, plain floats, so the tail and the value stay
    # float rather than np.float64
    last = increments[-1]
    if last <= floor:
        return Classification.CONVERGED, slope, 0.0, 0.0
    q = (eps[-1] / eps[-2]) ** (-slope)
    if not 0.0 < q < 1.0:
        return Classification.CONVERGED, slope, 0.0, 0.0
    tail = last * q / (1.0 - q)
    tail_alt = tail
    if increments[-2] > floor:
        q2 = increments[-1] / increments[-2]
        if 0.0 < q2 < 1.0:
            tail_alt = last * q2 / (1.0 - q2)
    err = abs(tail - tail_alt) + tail * math.expm1(2.0 * sigma)
    return Classification.CONVERGED, slope, tail, err


def integrate_disc(g: Callable[[np.ndarray], np.ndarray],
                   singular_angles: Sequence[float] = (),
                   spec: GradingSpec = DEFAULT_SPEC) -> IntegralEstimate:
    """Integrate a nonnegative integrand over the unit disc.

    ``g`` must accept a complex ndarray of interior points (all with
    ``|w| < 1``) and return finite nonnegative values of the same shape.
    ``singular_angles`` lists the polar angles of boundary points where
    ``g`` blows up or vanishes fast; the angular rule is graded toward
    them.  Purely radial boundary behaviour needs no declaration.

    Each ring evaluates ``g`` once, on its complex polar grid
    ``r*exp(1j*theta)``.  A ring whose weighted sum is not finite because
    ``g`` returned nan or inf raises NonFiniteIntegrandError naming that
    node.  The per-annulus increments go through the one tail rule,
    :func:`_tail`.  With no annuli (``eps_min = EPS_START``) the
    verdict is INCONCLUSIVE and the value is the inner disc alone.
    """
    return _integrate_polar(_complex_integrand(g), singular_angles, spec)


def _integrate_polar(g: _PolarIntegrand, singular_angles: Sequence[float],
                     spec: GradingSpec) -> IntegralEstimate:
    """:func:`integrate_disc` for an integrand ``g(r, theta)`` of each ring's polar grid."""
    core, increments, gap_after = _graded_sums(g, singular_angles, spec)
    truncated = core + math.fsum(increments)
    floor = 1e-15 * (abs(truncated) + 1e-30)
    verdict, slope, tail, tail_err = _tail(increments, gap_after, floor)

    value = truncated
    if verdict is Classification.CONVERGED:
        value = truncated + tail
        tail_estimate = tail_err + 1e-15 * abs(value)
        abs_err = tail_estimate + 1e-13 * abs(value)
    else:
        tail_estimate = increments[-1] if increments else 0.0
        abs_err = tail_err
    return IntegralEstimate(
        value=value,
        abs_error_estimate=abs_err,
        truncation_eps=spec.eps_min,
        tail_estimate=tail_estimate,
        classification=verdict,
        fitted_slope=slope,
    )

