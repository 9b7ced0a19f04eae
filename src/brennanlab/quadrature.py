"""Graded polar quadrature on the unit disc with tail-based divergence detection.

The integrands of interest are nonnegative with power-type singularities at
finitely many boundary points (and possibly along the whole boundary in the
radial direction).  The disc is covered by an inner disc of radius 1/2 plus
geometrically shrinking annuli whose boundary gap decreases by
``annulus_ratio`` per step down to ``eps_min``.  Each annulus carries a
tensor rule: Gauss-Legendre in the radius and a composite Gauss-Legendre
angular rule whose panels shrink geometrically toward every declared
singular angle until they match the annulus gap, so a spike of angular
width comparable to the gap is always resolved.  The angular rules of the
inner disc and of every annulus are built together, one array pass over
the whole gap ladder per integral (a long ladder a fixed chunk of annuli
at a time, to bound memory); each rule is yielded as its nodes ``theta``
and their weights.

Each ring hands its integrand the ring's radial nodes ``r`` and angles
``theta``, and the integrand returns its values on the polar grid
``r x theta``.  The package's ``|psi'|^e`` works on that grid directly (see
:meth:`ConformalPair.abs_dpsi_power`), while :func:`integrate_disc` and
:func:`integrate_truncated` keep their complex-``w`` contract by adapting
``g`` to ``g(r[:, None]*exp(1j*theta))``.  Only a ring whose weighted sum
is not finite is scanned for the node that made it so.

Convergence versus divergence is decided from the per-annulus
contributions by one tail rule, :func:`_tail`: a power-law fit of the last
few increments against ``log(1/eps)`` gives a slope, negative slopes mean
geometrically shrinking increments (convergent tail, which is then
extrapolated and added to the value), non-shrinking increments mean the
integral grows at least logarithmically.  :func:`classify_tail` puts a
sequence of truncated values through the same rule.
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
    "GradingSpec",
    "IntegralEstimate",
    "InvalidGradingError",
    "NonFiniteIntegrandError",
    "QuadratureError",
    "classify_tail",
    "integrate_disc",
    "integrate_truncated",
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
#: scales whose angular rules are built in one array pass (bounds memory on long ladders)
_RULE_CHUNK = 64

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
        Approximate number of angular nodes far from singular angles; also
        caps the width of the graded panels.
    angular_boost
        Gauss-Legendre points on each graded angular panel near a declared
        singular angle.
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
    """Gauss-Legendre nodes and weights on [-1, 1]; the package's only source of them."""
    x, w = np.polynomial.legendre.leggauss(n)
    # shared by every caller through the cache, so keep them read-only
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _split_spans(a: np.ndarray, b: np.ndarray,
                 width_cap: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels that split each span ``[a_k, b_k]`` evenly, none wider than its width cap.

    Span k becomes ``m_k = ceil((b_k - a_k) / width_cap_k)`` equal panels
    (at least one, so an infinite cap keeps the span whole).  Their ends
    are formed with ``np.linspace``'s arithmetic, ``a + j*step`` with the
    last end exactly ``b``, so they match a per-span ``np.linspace`` bit
    for bit.  Returns the panel ends and the span of each panel, in span
    order.
    """
    m = np.maximum(1, np.ceil((b - a) / width_cap)).astype(int)
    ends = np.cumsum(m)
    span = np.repeat(np.arange(len(m)), m)
    j = np.arange(ends[-1]) - np.repeat(ends - m, m)
    step = ((b - a) / m)[span]
    lo = j * step + a[span]
    hi = (j + 1) * step + a[span]
    hi[ends - 1] = b
    return lo, hi, span


def _ladder_panels(sides: np.ndarray, scale: np.ndarray,
                   width_cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel ends of the angular rules at every scale of the column ``scale``.

    ``sides`` holds the (start, stop, base, sign) rows of the sides in rule
    order: a side's panel ends are ``base + sign*d`` at distances d from
    its angle, nearest first.  The panels come from one set of array
    operations over (scale, side, gap) and are laid out rule by rule;
    the third array holds where each rule's panels begin, and their total.
    """
    start, stop, base, sign = sides
    length = stop - start
    graded = length > scale
    # doublings scale*2^k < length, counted from log2 and then made exact
    count = np.where(graded, np.ceil(np.log2(length) - np.log2(scale)), 0).astype(int)
    count += np.ldexp(scale, count) < length
    count -= graded & (np.ldexp(scale, count - 1) >= length)
    # one span per gap: a graded side has count + 1 gaps, a side no longer
    # than its scale has one
    gaps = np.where(graded, count + 1, 1).ravel()
    ends = np.cumsum(gaps)
    cell = np.repeat(np.arange(gaps.size), gaps)
    k = np.arange(ends[-1]) - np.repeat(ends - gaps, gaps)
    ring, side = np.divmod(cell, len(length))
    cut, last, at = graded.ravel()[cell], count.ravel()[cell], scale.ravel()[ring]
    # gap k runs from scale*2^(k-1) (0 for k = 0) to scale*2^k (the side's
    # length for the last); an ungraded side is the absolute span
    # [start, stop], which an infinite cap keeps one panel
    a = np.where(cut, np.where(k > 0, np.ldexp(at, k - 1), 0.0), start[side])
    b = np.where(cut, np.where(k < last, np.ldexp(at, k), length[side]), stop[side])
    pa, pb, span = _split_spans(a, b, np.where(cut, width_cap, np.inf))
    origin = np.where(cut, base[side], 0.0)[span]
    toward = np.where(cut, sign[side], 1.0)[span]
    ea, eb = origin + toward * pa, origin + toward * pb
    return (np.minimum(ea, eb), np.maximum(ea, eb),
            np.searchsorted(ring[span], np.arange(len(scale) + 1)))


def _angular_rules(singular_angles: Sequence[float], scales: Sequence[float],
                   spec: GradingSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Composite angular rules on [0, 2pi), one per scale, graded toward the singular angles.

    Each singular angle owns the half of the arc toward either neighbour.
    Such a side is cut at distances ``scale, 2*scale, 4*scale, ...`` from
    its angle, and every gap is split evenly at ``width_cap``; a side no
    longer than ``scale`` is one panel.  Every panel carries the same
    ``angular_boost``-point Gauss-Legendre rule.  Without singular angles
    every scale gets the same uniform rule.

    The rules of a whole gap ladder come from one pass of
    :func:`_ladder_panels`, ``_RULE_CHUNK`` scales at a time so that a
    long ladder needs bounded memory.  Each rule is yielded, in the order
    of ``scales``, as (theta, weights), contiguous views of its chunk.
    """
    width_cap = TWO_PI / max(8, spec.angular_base // spec.angular_boost)
    x, w = _gauss(spec.angular_boost)

    def nodes(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return (lo[:, None] + half * (x + 1.0)).ravel(), (half * w).ravel()

    # angles that coincide modulo 2pi are one angle, owning one arc
    angles = sorted({a % TWO_PI for a in singular_angles})
    if not angles:
        lo, hi, _ = _split_spans(np.array([0.0]), np.array([TWO_PI]), width_cap)
        rule = nodes(lo, hi)
        for _ in scales:
            yield rule
        return
    # outward from each angle to the midpoint of its arc, then inward from
    # the next angle to the same midpoint
    sides = []
    for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI]):
        mid = 0.5 * (a + b)
        sides += [(a, mid, a, 1.0), (mid, b, b, -1.0)]
    sides = np.array([s for s in sides if s[1] - s[0] > 0.0]).T
    scales = np.asarray(scales, dtype=float)
    for first in range(0, len(scales), _RULE_CHUNK):
        # the layout's temporaries die with _ladder_panels, before any ring is evaluated
        lo, hi, bounds = _ladder_panels(sides, scales[first:first + _RULE_CHUNK, None], width_cap)
        rule = nodes(lo, hi)
        bounds *= spec.angular_boost
        for i, j in zip(bounds[:-1], bounds[1:]):
            yield tuple(a[i:j] for a in rule)


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


def _gap_ladder(spec: GradingSpec, eps_stop: float) -> list[float]:
    """Boundary gaps from EPS_START down to exactly eps_stop.

    The requested annulus_ratio is adjusted to the nearest value that
    lands on eps_stop after an integer number of steps, keeping the gaps
    an exact geometric lattice (the tail fit relies on that).
    """
    if eps_stop >= EPS_START:
        return [EPS_START]
    span = math.log(eps_stop / EPS_START)
    n = max(1, round(span / math.log(spec.annulus_ratio)))
    ratio = math.exp(span / n)
    gaps = [EPS_START * ratio ** k for k in range(n)]
    gaps.append(eps_stop)
    return gaps


def _graded_sums(g: _PolarIntegrand, singular_angles, spec: GradingSpec, eps_stop: float):
    """Inner-disc value plus per-annulus contributions of the ring integrand g down to eps_stop.

    The inner disc is graded at EPS_START and each annulus at its inner
    gap, so the scales of the angular rules are the gap ladder itself.
    """
    gaps = _gap_ladder(spec, eps_stop)
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
    # the caller's own scalars, so the tail keeps their type
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
    node.  The per-annulus increments go through the tail rule shared with
    :func:`classify_tail`.  With no annuli (``eps_min = EPS_START``) the
    verdict is INCONCLUSIVE and the value is the inner disc alone.
    """
    return _integrate_polar(_complex_integrand(g), singular_angles, spec)


def _integrate_polar(g: _PolarIntegrand, singular_angles: Sequence[float],
                     spec: GradingSpec) -> IntegralEstimate:
    """:func:`integrate_disc` for an integrand ``g(r, theta)`` of each ring's polar grid."""
    core, increments, gap_after = _graded_sums(g, singular_angles, spec, spec.eps_min)
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


def integrate_truncated(g: Callable[[np.ndarray], np.ndarray], eps: float,
                        singular_angles: Sequence[float] = (),
                        spec: GradingSpec = DEFAULT_SPEC) -> float:
    """Integral of g over the truncated disc ``|w| <= 1 - eps`` (no extrapolation)."""
    if not 0.0 < eps <= EPS_START:
        raise InvalidGradingError(f"truncation eps must lie in (0, {EPS_START}], got {eps}")
    core, increments, _ = _graded_sums(_complex_integrand(g), singular_angles, spec, eps)
    return core + math.fsum(increments)


def classify_tail(samples: Sequence[tuple[float, float]]) -> tuple[Classification, float]:
    """Classify a sequence of truncated values ``(eps, value)`` with eps decreasing.

    The increments between successive values go through the rule that
    classifies the per-annulus contributions of :func:`integrate_disc`, so
    both give the same verdict: geometrically shrinking increments mean
    the limit exists, non-shrinking increments mean at least logarithmic
    growth, and fewer than four increments without a dead tail are
    INCONCLUSIVE.  Returns the verdict and the fitted slope of the
    increments against ``log(1/eps)`` (0 for a dead tail, nan without a fit).
    """
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    eps = np.asarray([s[0] for s in samples], dtype=float)
    values = np.asarray([s[1] for s in samples], dtype=float)
    if not np.all(np.diff(eps) < 0.0):
        raise ValueError("eps values must be strictly decreasing")
    increments = np.diff(values)
    scale = max(float(np.max(np.abs(values))), 1e-30)
    floor = 1e-15 * scale
    if np.any(increments < -floor):
        return Classification.INCONCLUSIVE, math.nan
    increments = np.clip(increments, 0.0, None)
    verdict, slope, _, _ = _tail(increments, eps[1:], floor)
    return verdict, slope
