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
resolved.  Every scale's side counts are worked out up front; the rules
of consecutive rings are then built together, one array pass per block of
at most ``_BLOCK_NODES`` nodes (a ring with more is a block of its own;
without singular angles, as many rings of the one rule as fit), so memory
stays bounded however long the ladder.  Every Gauss-Legendre block, here
and in the forward patch's charts, comes from one table of sizes,
``_TABLES``, which only :func:`_gauss` reads.

What the GradingSpec alone fixes is made once per spec, and cached.
:func:`_gap_ladder` is the one gap ladder and its one check: a spec whose
ladder is too long or whose radii do not rise is refused when made.
:func:`_spec_rule` fills the table with every size the spec's rules can ask
for, in one batched Newton pass (``_gauss`` builds any other size on its
own, to the same bits), and forms the radial rule of every ring of the
ladder and the angular rule without singular angles.  This is the only
module that builds a ring.

An integrand works in two stages.  Its block stage runs once per block
of rules: it takes the radial nodes of the block's rings, one row a ring,
and the block's angles ``theta``, and returns the ring stage, which each
ring ``i`` of the block calls with its slice of ``theta``, and which
returns the values on the polar grid ``r[i] x theta[slice]``.  The
package's ``|psi'|^e`` forms its angular rows and every ring's radial
terms in the first stage and the rest in the second (see
:meth:`ConformalPair.abs_dpsi_power`), so a ring's arrays are no larger
than the ring's own grid, while :func:`integrate_disc` keeps its
complex-``w`` contract by adapting ``g``: ``exp(1j*theta)`` per block, and
``g(r[i][:, None]*exp(1j*theta))`` per ring.  A ring's values and its sum
do not depend on the block it shares.  Only a ring whose weighted sum is
not finite is scanned for the node that made it so.

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
from typing import Callable, Iterable, Iterator, Sequence

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

#: Newton steps from Tricomi's guess to each Gauss-Legendre node
_NEWTON_STEPS = 4

#: most angular nodes in one block of rules; a rule with more is a block alone
_BLOCK_NODES = 4096

#: most annuli of one gap ladder, counted before any gap is made: an integral
#: runs one ring per annulus, and a ratio near 1 would ask for millions.  As
#: many as `scan`'s rows, and room for ratio 0.99 down to 1e-12 (2,680 annuli)
_MAX_ANNULI = 10_000

#: an integrand's ring stage: ring(i, part), its values on the grid r[i] x theta[part]
_RingStage = Callable[[int, slice], np.ndarray]
#: an integrand's block stage: called once with a block's radial nodes r (one
#: row per ring) and its angles theta, it returns the ring stage that every
#: ring of the block calls
_PolarIntegrand = Callable[[np.ndarray, np.ndarray], _RingStage]


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
        ``1 - eps_min``.  Every radius ``1 - gap`` of the gap ladder must
        be a float below 1.0 and above the one before it, which puts the
        floor near 1e-16 (higher for a ratio near 1): ``5e-17`` rounds to
        the circle and, at the default ratio, ``6e-17`` to the radius of
        the gap before it, while ``1e-16`` is accepted.
    annulus_ratio
        Geometric factor by which the gap shrinks per annulus.  A ladder of
        more than 10,000 annuli is refused.
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
        _gap_ladder(self)


@lru_cache(maxsize=64)
def _gap_ladder(spec: GradingSpec) -> tuple[float, ...]:
    """Boundary gaps from EPS_START down to exactly ``spec.eps_min``, checked.

    The requested annulus_ratio is adjusted to the nearest value that
    lands on eps_min after an integer number of steps, keeping the gaps
    an exact geometric lattice (the tail fit relies on that).  It raises
    InvalidGradingError for more than ``_MAX_ANNULI`` annuli, before any
    gap is made, and unless the radii ``1 - gap`` rise strictly and stay
    below 1.0: the check reads the ladder itself, so it is the arithmetic
    the rule runs.  Cached, because every GradingSpec builds its ladder
    when made, and the benchmark makes a spec in every timed call.
    """
    if spec.eps_min >= EPS_START:
        return (EPS_START,)
    span = math.log(spec.eps_min / EPS_START)
    n = max(1, round(span / math.log(spec.annulus_ratio)))
    if n > _MAX_ANNULI:
        raise InvalidGradingError(
            f"annulus_ratio={spec.annulus_ratio} down to eps_min={spec.eps_min} needs {n} annuli, "
            f"more than {_MAX_ANNULI}; use a smaller annulus_ratio or a larger eps_min")
    ratio = math.exp(span / n)
    gaps = (*(EPS_START * ratio ** k for k in range(n)), spec.eps_min)
    radii = [1.0 - gap for gap in gaps]
    # strictly increasing exactly when sorting the distinct radii changes nothing
    if not (radii[-1] < 1.0 and radii == sorted(set(radii))):
        raise InvalidGradingError(
            f"eps_min={spec.eps_min} with annulus_ratio={spec.annulus_ratio} rounds a radius "
            f"1 - gap of the gap ladder to 1.0 or onto the radius before it; the floor is "
            f"about 1e-16 at annulus_ratio=0.5")
    return gaps


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


def _legendre(n: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P_n(x)``, ``P_n'(x)`` and ``1 - x^2`` at points x inside (-1, 1), each with its own n.

    ``n`` holds one degree per point and does not increase along the array,
    so the points the recurrence still carries at step k are a prefix, and
    each point's P_{n-1} and P_n are kept at its own step n.  They come
    from the three-term recurrence, and P_n' from
    ``(1 - x^2) P_n' = n (P_{n-1} - x P_n)``: every point gets the
    arithmetic of a call with its n alone.
    """
    p0, p1, work = np.ones_like(x), x.copy(), np.empty_like(x)
    prev, last = p0.copy(), p1.copy()
    # live[k]: how many points have n >= k
    live = np.searchsorted(-n, -np.arange(n[0] + 2), side="right")
    for k in range(2, n[0] + 1):
        m = live[k]
        # ((2k - 1) x P_{k-1} - (k - 1) P_{k-2}) / k, into the buffer of P_{k-2}
        np.multiply(2 * k - 1, x[:m], out=work[:m])
        work[:m] *= p1[:m]
        p0[:m] *= k - 1
        np.subtract(work[:m], p0[:m], out=p0[:m])
        p0[:m] /= k
        p0, p1 = p1, p0
        if live[k + 1] < m:
            done = slice(live[k + 1], m)
            prev[done], last[done] = p0[done], p1[done]
    one = (1.0 - x) * (1.0 + x)
    return last, n * (prev - x * last) / one, one


#: the package's one Gauss-Legendre table, by number of nodes; :func:`_gauss`
#: reads it and :func:`_build_tables` fills it
_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], from the package's one table.

    Every radial rule, the ungraded and the sinh angular rules and the
    forward patch's charts read it.  A size that no batched pass of
    :func:`_build_tables` has made is built here on its own.
    """
    if n not in _TABLES:
        _build_tables((n,))
    return _TABLES[n]


def _build_tables(sizes: Iterable[int]) -> None:
    """Add the Gauss-Legendre tables of ``sizes`` missing from ``_TABLES``, in one batched pass.

    The nodes in [0, 1) start from Tricomi's asymptotic guess and take
    ``_NEWTON_STEPS`` Newton steps on the three-term recurrence (Hale &
    Townsend, SIAM J. Sci. Comput. 35, 2013), which leaves each within
    2^-53 of its root for n <= 300; for odd n the middle node is 0
    exactly, a fixed point of the step.  The other half is their mirror
    image.  The weight ``2/((1 - x^2) P_n'(x)^2)`` is then carried to
    first order from each node x to the true root ``x - P_n/P_n'``, and is
    the same at x and -x.  No eigenvalue solver runs.

    The half-nodes of every size run together, sorted by n, largest first
    (see :func:`_legendre`), so each step of the recurrence runs only on
    the nodes whose n it has not passed, and each node gets the arithmetic
    of its size built alone: a table is the same to the bit however many
    sizes share its pass.
    """
    sizes = sorted({n for n in sizes if n not in _TABLES}, reverse=True)
    if not sizes:
        return
    # node i belongs to size n[i] and is its k[i]-th node, largest first,
    # then the middle node of an odd size
    halves = [(m + 1) // 2 for m in sizes]
    n = np.repeat(sizes, halves)
    k = np.arange(len(n)) - np.repeat(np.cumsum(halves) - halves, halves) + 1
    t = (4 * k - 1) * math.pi / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n ** 4)) * np.cos(t)
    x[2 * k > n] = 0.0
    for _ in range(_NEWTON_STEPS):
        p, dp, _ = _legendre(n, x)
        x = x - p / dp
    p, dp, one = _legendre(n, x)
    w = 2.0 / (one * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one)
    start = 0
    for m, half in zip(sizes, halves):
        xm, wm = x[start:start + half], w[start:start + half]
        start += half
        # ascending: the mirror images, then the nodes in [0, 1) without a second 0
        table = (np.concatenate((0.0 - xm, xm[::-1][m % 2:])),
                 np.concatenate((wm, wm[::-1][m % 2:])))
        # shared by every caller through the table, so keep them read-only
        for a in table:
            a.flags.writeable = False
        _TABLES[m] = table


@lru_cache(maxsize=64)
def _spec_rule(spec: GradingSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the spec alone fixes of the disc rule, made once per spec: ``(r, rw, theta, wtheta)``.

    First every table the spec's rules can ask for is built, in one
    batched pass: a side of a singular angle is at most pi long and its gap
    at least ``eps_min``, so the sinh rule's sizes run from
    ``angular_base//4 + 1`` to ``ceil(angular_boost/2 * asinh(pi/eps_min))
    + angular_base//4``; the radial rule takes ``radial_order`` and the
    ungraded rule ``angular_boost``.  A size outside that range, should
    rounding make one, is still built by :func:`_gauss` on its own.

    Then the radial rule of every ring of the gap ladder, the inner disc
    first, one row a ring: the Gauss-Legendre nodes ``r`` and the weights
    times ``r``, the polar Jacobian folded in, each of shape ``(rings,
    radial_order)``.  That is 2 x rings x radial_order floats, 7 KB at the
    default spec and 2.6 MB for a ladder of ``_MAX_ANNULI`` annuli.  Last,
    the angular rule without singular angles: ``max(8,
    angular_base//angular_boost)`` equal panels of ``angular_boost``
    points.  All four arrays are shared by every integral under the spec,
    so they are read-only.
    """
    extra = spec.angular_base // 4
    top = math.ceil(0.5 * spec.angular_boost * math.asinh(math.pi / spec.eps_min)) + extra
    _build_tables([*range(extra + 1, top + 1), spec.radial_order, spec.angular_boost])
    edges = np.concatenate(([0.0], 1.0 - np.array(_gap_ladder(spec))))
    t, wt = _gauss(spec.radial_order)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    r = edges[:-1, None] + half * (t + 1.0)
    x, w = _gauss(spec.angular_boost)
    ends = np.linspace(0.0, TWO_PI, max(8, spec.angular_base // spec.angular_boost) + 1)
    side = 0.5 * (ends[1:] - ends[:-1])[:, None]
    rule = (r, half * wt * r, (ends[:-1, None] + side * (x + 1.0)).ravel(), (side * w).ravel())
    for a in rule:
        a.flags.writeable = False
    return rule


def _angular_rules(singular_angles: Sequence[float], scales: Sequence[float],
                   spec: GradingSpec) -> Iterator[tuple[np.ndarray, np.ndarray, list[slice]]]:
    """Angular rules on [0, 2pi), one per scale, graded toward the singular angles.

    Each singular angle a owns the half of the arc toward either neighbour.
    On such a side of length h the rule at scale ``gap`` is the sinh map
    ``theta = a +- gap*sinh(u)``, ``u`` in ``[0, asinh(h/gap)]``, carrying
    one Gauss-Legendre block of ``ceil(angular_boost/2 * asinh(h/gap)) +
    angular_base//4`` points; a peak of width ``gap`` at a is smooth in u
    (Johnston & Elliott, IJNME 62, 2005).  Without singular angles every
    scale gets the same rule: ``max(8, angular_base//angular_boost)`` equal
    panels of ``angular_boost`` Gauss-Legendre points.

    Every scale's side counts are worked out first.  Consecutive rules are
    then built together, in one array pass per block of at most
    ``_BLOCK_NODES`` nodes; a rule with more nodes is a block of its own,
    so memory stays bounded however long the ladder.  Each block is
    yielded as ``(theta, weights, parts)``, where ``parts`` holds one slice
    per rule, in the order of ``scales``: the rule of that scale is
    ``theta[part], weights[part]``.  Without singular angles every block
    holds the one rule, shared, and as many scales as fit in
    ``_BLOCK_NODES`` nodes (at least one), and every part is all of it.
    """
    # angles that coincide modulo 2pi are one angle, owning one arc
    angles = sorted({a % TWO_PI for a in singular_angles})
    if not angles:
        theta, weights = _spec_rule(spec)[2:]
        per_block = max(1, _BLOCK_NODES // len(theta))
        for lo in range(0, len(scales), per_block):
            yield theta, weights, [slice(None)] * len(scales[lo:lo + per_block])
        return
    # outward from each angle to the midpoint of its arc, then inward from
    # the next angle to the same midpoint
    sides = []
    for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI]):
        mid = 0.5 * (a + b)
        sides += [(a, mid - a, 1.0), (b, b - mid, -1.0)]
    base, length, sign = np.array([s for s in sides if s[1] > 0.0]).T
    gaps = np.asarray(scales, dtype=float)
    stop = np.arcsinh(length / gaps[:, None])
    count = np.ceil(0.5 * spec.angular_boost * stop).astype(int) + spec.angular_base // 4
    # rule k holds the nodes ends[k]:ends[k + 1] of the whole ladder
    ends = np.concatenate(([0], np.cumsum(count.sum(axis=1))))
    lo = 0
    while lo < len(gaps):
        # rules lo to hi - 1: as many as fit in _BLOCK_NODES, and at least one
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _BLOCK_NODES, side="right")) - 1)
        counts = count[lo:hi].ravel()
        # the (rule, side) cell of each node, rule counted from lo
        cell = np.repeat(np.arange(len(counts)), counts)
        rule, side = np.divmod(cell, len(base))
        x, w = (np.concatenate(t) for t in zip(*map(_gauss, counts.tolist())))
        gap, half = gaps[lo:hi][rule], 0.5 * stop[lo:hi].ravel()[cell]
        u = half * (x + 1.0)
        starts = (ends[lo:hi + 1] - ends[lo]).tolist()
        yield (base[side] + sign[side] * (gap * np.sinh(u)), gap * np.cosh(u) * (half * w),
               [slice(a, b) for a, b in zip(starts, starts[1:])])
        lo = hi


def _complex_integrand(g: Callable[[np.ndarray], np.ndarray]) -> _PolarIntegrand:
    """Adapt an integrand of complex ``w`` to the two stages of the disc rule.

    The block stage takes ``exp(1j*theta)`` of the block's angles; the
    ring stage builds the ring's complex grid from its radial nodes and
    its part of them, the only array of the grid's size it builds, and
    hands it to ``g``: one call of ``g`` per ring, in the order of the rings.
    """
    def block_stage(r, theta):
        turn = np.exp(1j * theta)
        return lambda i, part: g(r[i][:, None] * turn[part])

    return block_stage


def _ring_sum(ring: _RingStage, i: int, r: np.ndarray, rw: np.ndarray, theta: np.ndarray,
              wtheta: np.ndarray, part: slice) -> float:
    """Tensor Gauss-Legendre integral over one annulus, ring ``i`` of its block.

    The block's radial rule is ``r, rw`` (rows of :func:`_spec_rule`'s) and its
    angles ``theta``, with weights ``wtheta``; its block stage returned
    ``ring``.  The ring's radial nodes are ``r[i]`` and its angles
    ``theta[part]``, and ``ring(i, part)`` returns its values on the grid
    ``r[i] x theta[part]`` (radial nodes down).  Only when the weighted
    sum is not finite are the values scanned: a non-finite value raises
    NonFiniteIntegrandError naming its node ``w = r*exp(1j*theta)``, while
    finite values whose sum overflows give that sum.
    """
    vals = np.asarray(ring(i, part), dtype=float)
    # fixed reduction order
    total = float(rw[i] @ vals @ wtheta[part])
    if not math.isfinite(total):
        bad = np.argwhere(~np.isfinite(vals))
        if len(bad):
            k, j = bad[0]
            w = complex(r[i, k] * np.exp(1j * theta[part][j]))
            raise NonFiniteIntegrandError(f"integrand non-finite at node w={w!r}")
    return total


def _graded_sums(g: _PolarIntegrand, singular_angles, spec: GradingSpec):
    """Inner-disc value plus per-annulus contributions of the integrand g down to eps_min.

    The inner disc is graded at EPS_START and each annulus at its inner
    gap, so the scales of the angular rules are the gap ladder itself.
    Each block of rules takes its rings' rows of the spec's radial rule
    (:func:`_spec_rule`) and gives them, with its angles, to g's block
    stage once; each ring of the block then calls the ring stage that
    returns.
    """
    gaps = _gap_ladder(spec)
    r, rw = _spec_rule(spec)[:2]
    sums = []
    for theta, wtheta, parts in _angular_rules(singular_angles, gaps, spec):
        # the block's rings follow the rings summed so far
        rows = slice(len(sums), len(sums) + len(parts))
        block_r, block_rw = r[rows], rw[rows]
        ring = g(block_r, theta)
        sums += [_ring_sum(ring, i, block_r, block_rw, theta, wtheta, part)
                 for i, part in enumerate(parts)]
    return sums[0], sums[1:], gaps[1:]


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
    ``r*exp(1j*theta)``; ``exp(1j*theta)`` is taken once per block of
    rings.  A ring whose weighted sum is not finite because
    ``g`` returned nan or inf raises NonFiniteIntegrandError naming that
    node.  The per-annulus increments go through the one tail rule,
    :func:`_tail`.  With no annuli (``eps_min = EPS_START``) the
    verdict is INCONCLUSIVE and the value is the inner disc alone.
    """
    return _integrate_polar(_complex_integrand(g), singular_angles, spec)


def _integrate_polar(g: _PolarIntegrand, singular_angles: Sequence[float],
                     spec: GradingSpec) -> IntegralEstimate:
    """:func:`integrate_disc` for a two-stage integrand ``g`` (see the module docstring)."""
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

