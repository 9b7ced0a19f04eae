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
and in the forward patch's charts, comes from the package's one table,
``_STORE``: every size built so far, end to end, in three read-only arrays
(nodes, weights, and where each size starts), so each size is stored
once.  :func:`_build_tables` is its only writer: holding a lock, it adds
the sizes asked for that it lacks, in one batched Newton pass, and
replaces the whole tuple.  :func:`_gauss` returns views of it, and each block of the sinh
rule is one gather from it, with the map run in place on what it
gathered.

What the GradingSpec alone fixes is made once per spec, and cached.
:func:`_gap_ladder` is the one gap ladder and its one check: a spec whose
ladder is too long or whose radii do not rise is refused when made.
:func:`_sinh_sizes` is the sinh rule's range of table sizes, and it
refuses a spec whose tables would hold too many nodes, also when made.
:func:`_spec_rule` adds to the table every size the spec's rules can ask
for, in one batched pass, and forms the radial rule of every ring of the
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
integral grows at least logarithmically.  The fit is a least-squares line in
closed form on Python floats, so no integral calls numpy's linear algebra.
The increments always come from the one geometric gap ladder down to
``eps_min``; a ring sum, or a total of ring sums, that overflows leaves
the integral INCONCLUSIVE.
"""

from __future__ import annotations

import bisect
import math
import operator
import threading
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

#: most Gauss-Legendre nodes the tables of one spec may ask for, counted before
#: any table is built: the store keeps each node in 16 bytes (16 MiB here), and
#: its batched Newton pass holds a few arrays of the new half-nodes besides.
#: angular_boost=10**8 would ask for 5.1e17, and the largest spec of the
#: tests, angular_base=16384 down to eps_min=1e-16, asks for 6.5e5
_MAX_SPEC_NODES = 1 << 20

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

    The three counts must be integers (numpy's too); a float such as 16.0
    is refused when the spec is made, as is a spec whose tables would hold
    more than 2^20 Gauss-Legendre nodes.
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
        for name, least in (("radial_order", 2), ("angular_base", 8), ("angular_boost", 2)):
            value = getattr(self, name)
            # operator.index, not isinstance(value, numbers.Integral): a spec is made in
            # timed calls, and the abstract class's check costs about 0.5 us a field
            try:
                small = operator.index(value) < least
            except TypeError:
                raise InvalidGradingError(f"{name} must be an integer, got {value!r}") from None
            if small:
                raise InvalidGradingError(f"{name} must be at least {least}")
        _gap_ladder(self)
        _sinh_sizes(self)


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


@lru_cache(maxsize=64)
def _sinh_sizes(spec: GradingSpec) -> range:
    """The sizes of the sinh rule's Gauss-Legendre blocks under the spec, checked.

    A side of a singular angle is at most pi long and its gap at least
    ``eps_min``, so the sizes run from ``angular_base//4 + 1`` to
    ``ceil(angular_boost/2 * asinh(pi/eps_min)) + angular_base//4``.  With
    the radial rule's ``radial_order`` and the ungraded rule's
    ``angular_boost`` these are the tables :func:`_spec_rule` builds, and
    their nodes are counted in closed form: more than ``_MAX_SPEC_NODES``
    raise InvalidGradingError, before any table is built.  Cached, as
    :func:`_gap_ladder` is, because every GradingSpec checks itself here
    when made.
    """
    extra = operator.index(spec.angular_base) // 4
    boost = operator.index(spec.angular_boost)
    top = math.ceil(0.5 * boost * math.asinh(math.pi / spec.eps_min)) + extra
    sizes = range(extra + 1, top + 1)
    nodes = len(sizes) * (extra + 1 + top) // 2 + operator.index(spec.radial_order) + boost
    if nodes > _MAX_SPEC_NODES:
        raise InvalidGradingError(
            f"angular_base={spec.angular_base}, angular_boost={spec.angular_boost} and "
            f"radial_order={spec.radial_order} down to eps_min={spec.eps_min} ask for {nodes:,} "
            f"Gauss-Legendre nodes, more than {_MAX_SPEC_NODES:,}; use smaller counts")
    return sizes


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

    ``limit`` is what the integral is worth, the package's one rule for a
    verdict that is not CONVERGED: ``value`` when CONVERGED, and ``inf``
    for a diverging or inconclusive integral.  Every reader that turns an
    integral into a number (a K_{p,q} value, a pullback seminorm, both
    sides of the duality identity) reads it.
    """

    value: float
    abs_error_estimate: float
    truncation_eps: float
    tail_estimate: float
    classification: Classification
    fitted_slope: float

    @property
    def limit(self) -> float:
        return self.value if self.classification is Classification.CONVERGED else math.inf


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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: shared by every caller, no caller may write them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


#: the package's one Gauss-Legendre table, ``(x, w, start)``: every size built so
#: far, end to end, size n's nodes ``x[start[n]:start[n] + n]`` and its weights the
#: same slice of ``w``, and ``start[n]`` -1 for a size not built.  All three are
#: read-only, and only :func:`_build_tables` replaces the tuple, holding the lock
_STORE = _frozen(np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
_STORE_LOCK = threading.Lock()


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: read-only views of the package's one table.

    Every radial rule, the ungraded angular rule and the forward patch's
    charts read it, and the sinh rule gathers from the same table.  A size
    that no batched pass of :func:`_build_tables` has made is built here
    on its own.  The lock and the check for the size make a call cost
    about 2 us; a forward-patch check makes one, and a new spec one or two.
    """
    x, w, start = _build_tables((n,))
    at = start.item(n)
    return x[at:at + n], w[at:at + n]


def _build_tables(sizes: Iterable[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the Gauss-Legendre tables of ``sizes`` missing from ``_STORE``, in one batched pass.

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

    This is the only writer of the store: under ``_STORE_LOCK``, the new
    sizes, nodes ascending, go after the ones it holds, and a new tuple of
    three read-only arrays replaces it, so each size is stored once and no
    build in another thread loses one.  The table returned holds every
    size asked for, whatever replaces the store after it.
    """
    global _STORE
    with _STORE_LOCK:
        old_x, old_w, old_start = _STORE
        sizes = sorted({n for n in sizes if n >= len(old_start) or old_start[n] < 0}, reverse=True)
        if not sizes:
            return _STORE
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
        xs, ws = [old_x], [old_w]
        for first, m, half in zip(np.cumsum(halves) - halves, sizes, halves):
            xm, wm = x[first:first + half], w[first:first + half]
            # ascending: the mirror images, then the nodes in [0, 1) without a second 0
            xs += [0.0 - xm, xm[::-1][m % 2:]]
            ws += [wm, wm[::-1][m % 2:]]
        # -1, not built, for every size up to the largest that is new
        start = np.pad(old_start, (0, max(0, sizes[0] + 1 - len(old_start))), constant_values=-1)
        start[sizes] = len(old_x) + np.cumsum(sizes) - sizes
        _STORE = _frozen(np.concatenate(xs), np.concatenate(ws), start)
        return _STORE


@lru_cache(maxsize=64)
def _spec_rule(spec: GradingSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the spec alone fixes of the disc rule, once per spec: ``(r, rw, theta, wtheta)``.

    First every table the spec's rules can ask for is added to the
    package's one table, in one batched pass: the sinh rule's sizes
    (:func:`_sinh_sizes`, checked when the spec was made), the radial
    rule's ``radial_order`` and the ungraded rule's ``angular_boost``.  A
    size past that range, should rounding make one, is built for the call
    that asks.
    The table holds each size once, whatever specs share it: 16 bytes a
    node, 140 KiB for the three specs of the ``scan-cold`` benchmark (sizes
    8, 16 and 17 to 134).

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
    _build_tables([*_sinh_sizes(spec), spec.radial_order, spec.angular_boost])
    edges = np.concatenate(([0.0], 1.0 - np.array(_gap_ladder(spec))))
    t, wt = _gauss(spec.radial_order)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    r = edges[:-1, None] + half * (t + 1.0)
    x, w = _gauss(spec.angular_boost)
    ends = np.linspace(0.0, TWO_PI, max(8, spec.angular_base // spec.angular_boost) + 1)
    side = 0.5 * (ends[1:] - ends[:-1])[:, None]
    return _frozen(r, half * wt * r, (ends[:-1, None] + side * (x + 1.0)).ravel(),
                   (side * w).ravel())


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
    so memory stays bounded however long the ladder.  A block's nodes and
    weights are one gather from the package's one table (:func:`_spec_rule`
    puts every size of the spec's ladder there), and each (rule, side)
    segment's half-length in u, gap, origin and direction one
    ``np.repeat``; the map, from ``x + 1``, runs in place.  A size the table
    lacks (a scale below ``eps_min``, or a side rounded past pi) is added
    to it first, and only that size is built.  Each block is
    yielded as ``(theta, weights, parts)``, where ``parts`` holds one slice
    per rule, in the order of ``scales``: the rule of that scale is
    ``theta[part], weights[part]``.  Without singular angles every block
    holds the one rule, shared, and as many scales as fit in
    ``_BLOCK_NODES`` nodes (at least one), and every part is all of it.
    """
    # angles that coincide modulo 2pi are one angle, owning one arc
    angles = sorted({a % TWO_PI for a in singular_angles})
    if not angles:
        theta, weights = _spec_rule(spec)[2:4]
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
    # sizes the table lacks are built first, in one pass: after _spec_rule only a
    # scale below eps_min, or a side rounded past pi, can ask for one
    x, wx, start = _STORE
    if count.max() >= len(start) or start[count].min() < 0:
        x, wx, start = _build_tables(count.ravel().tolist())
    # each (rule, side) segment's half-length in u, gap, origin and direction
    segment = np.empty((4, *count.shape))
    np.multiply(0.5, stop, out=segment[0])
    segment[1], segment[2], segment[3] = gaps[:, None], base, sign
    # node j of the ladder, in segment c, is entry j + shift[c] of the table,
    # and rule k holds the nodes ends[k]:ends[k + 1]
    cell_ends = np.cumsum(count).reshape(count.shape)
    shift = start[count] - (cell_ends - count)
    ends = [0, *cell_ends[:, -1].tolist()]
    lo = 0
    while lo < len(gaps):
        # rules lo to hi - 1: as many as fit in _BLOCK_NODES, and at least one
        hi = max(lo + 1, bisect.bisect_right(ends, ends[lo] + _BLOCK_NODES) - 1)
        counts = count[lo:hi].ravel()
        at = np.repeat(shift[lo:hi], counts)
        at += np.arange(ends[lo], ends[hi])
        half, gap, origin, direction = np.repeat(segment[:, lo:hi].reshape(4, -1), counts, axis=1)
        # u = half*(x + 1), theta = origin + direction*(gap*sinh(u)) and the
        # weights gap*cosh(u)*(half*w), every product in place
        u = x[at]
        u += 1.0
        u *= half
        w = wx[at]
        w *= half
        theta = np.sinh(u)
        theta *= gap
        theta *= direction
        theta += origin
        weights = np.cosh(u, out=u)
        weights *= gap
        weights *= w
        yield theta, weights, [slice(a - ends[lo], b - ends[lo])
                               for a, b in zip(ends[lo:hi], ends[lo + 1:hi + 1])]
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

    Both stages and every ring sum run in one ``np.errstate`` that ignores
    overflow and invalid values, entered once per integral: at a huge
    finite exponent ``|psi'|^e`` overflows to inf, and ``e log|psi'|`` to
    inf or nan, without a numpy warning, so that :func:`_ring_sum` can name
    the node, and a ring sum of finite values that overflows warns of
    nothing either.  The caller's error state is restored on the way out,
    however the loop ends.
    """
    gaps = _gap_ladder(spec)
    r, rw = _spec_rule(spec)[:2]
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for theta, wtheta, parts in _angular_rules(singular_angles, gaps, spec):
            # the block's rings follow the rings summed so far
            rows = slice(len(sums), len(sums) + len(parts))
            block_r, block_rw = r[rows], rw[rows]
            ring = g(block_r, theta)
            sums += [_ring_sum(ring, i, block_r, block_rw, theta, wtheta, part)
                     for i, part in enumerate(parts)]
    return sums[0], sums[1:], gaps[1:]


def _log_line(increments: Sequence[float], eps: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log(increment) against ``log(1/eps)``, and its rms residual.

    The line runs through the last ``FIT_WINDOW`` points (all, if fewer),
    in closed form on Python floats from centred sums: slope
    ``sum(dx*dy)/sum(dx*dx)``, and the residual's root mean square (over n,
    not n - 1).  The increments must be positive; one of inf or nan makes
    both nan.
    """
    x = [math.log(1.0 / e) for e in eps[-FIT_WINDOW:]]
    y = [math.log(v) for v in increments[-FIT_WINDOW:]]
    x_bar, y_bar = sum(x) / len(x), sum(y) / len(y)
    dx = [a - x_bar for a in x]
    dy = [b - y_bar for b in y]
    slope = sum(a * b for a, b in zip(dx, dy)) / sum(a * a for a in dx)
    resid = [b - slope * a for a, b in zip(dx, dy)]
    return slope, math.sqrt(sum(r * r for r in resid) / len(resid))


def _tail(increments: Sequence[float], eps: Sequence[float],
          floor: float) -> tuple[Classification, float, float, float]:
    """The package's one tail rule: (verdict, slope, tail, tail error) of the increments.

    Increments at or below ``floor`` count as numerically dead; if the last
    three (or fewer) are dead the tail is CONVERGED with nothing left.
    Otherwise the least-squares slope of log(increment) against
    ``log(1/eps)`` over the last ``FIT_WINDOW`` decides (:func:`_log_line`).
    No increments, fewer than four, a non-positive one or an rms
    log-residual above ``FIT_RESIDUAL_TOL`` give INCONCLUSIVE, a slope above
    ``-SLOPE_TOL`` DIVERGING; neither extrapolates, so its tail is 0 with
    error inf.  An increment of inf or nan in the window gives a nan slope,
    so DIVERGING.

    The line is fit in closed form on Python floats, and the dead-tail and
    positivity checks read the sequences as given (any sequence, an ndarray
    too), so no integral calls numpy's linear algebra: five points are too
    few to pay for it.

    A CONVERGED fit shrinks successive annuli by ``q = ratio**(-slope)``,
    ``ratio`` the last step of ``eps``, so the mass beyond the last
    increment is ``last * q/(1 - q)``.  Its error combines the fit
    residual with the difference against a two-point extrapolation.
    """
    n = len(increments)
    if not n:
        return Classification.INCONCLUSIVE, math.nan, 0.0, math.inf
    if all(v <= floor for v in increments[-3:]):
        return Classification.CONVERGED, 0.0, 0.0, 0.0
    # a slope through three points is too weak a test of the power law
    if n < 4 or any(v <= 0.0 for v in increments):
        return Classification.INCONCLUSIVE, math.nan, 0.0, math.inf
    slope, sigma = _log_line(increments, eps)
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
    verdict is INCONCLUSIVE and the value is the inner disc alone.  Finite
    values whose ring sum passes the largest float give INCONCLUSIVE too,
    with value and bar inf and a nan slope, and so do finite ring sums
    whose total does.  Neither raises a numpy warning: ``g`` and the ring
    sums run with overflow and invalid-value warnings off (see
    :func:`_graded_sums`), so a huge exponent in ``g`` warns of nothing
    either.
    """
    return _integrate_polar(_complex_integrand(g), singular_angles, spec)


def _integrate_polar(g: _PolarIntegrand, singular_angles: Sequence[float],
                     spec: GradingSpec) -> IntegralEstimate:
    """:func:`integrate_disc` for a two-stage integrand ``g`` (see the module docstring)."""
    core, increments, gap_after = _graded_sums(g, singular_angles, spec)
    try:
        truncated = core + math.fsum(increments)
    except OverflowError:
        # finite ring sums whose total passes the largest float
        truncated = math.inf
    if math.isfinite(truncated):
        floor = 1e-15 * (abs(truncated) + 1e-30)
        verdict, slope, tail, tail_err = _tail(increments, gap_after, floor)
    else:
        # ring sums of finite values that overflow, one or all together: an
        # infinite floor would call every tail dead
        verdict, slope, tail, tail_err = Classification.INCONCLUSIVE, math.nan, 0.0, math.inf

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

