"""Numerical verification of composition-operator bounds on Sobolev seminorms.

Closed-form test functions on the disc provide seminorm ratios that must
respect the K_{p,q} bound, an exact p = 2 isometry, the dual-exponent
integral identity, and the one-integral equivalence across (p, q(p,s))
pairs.  The isometry check deliberately avoids the pullback shortcut: the
domain-side energy is integrated over the forward image of a disc patch,
with every quadrature node mapped back through the map's closed-form
inverse (accepted by its residual in z or its Newton step in w) and the
measure supplied by transfinite charts built from the mapped patch edges,
so nothing cancels by construction.  The disc-side energy is
each test function's closed form, so the ratio measures the forward patch
alone.  The patch is cut into polar cells no larger than their distance
from the map's singular points and poles, because Gauss-Legendre on a cell
converges at a rate set by that ratio alone, whatever the singular
exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import ConformalPair, MapDescriptor, NewtonConvergenceError
from .exponents import ExponentDomainError, RegimeError, _dual_exponents, q_from_ps
from .functionals import _disc_integral, inverse_brennan_integral, kpq_functional
from .quadrature import (
    Classification,
    DEFAULT_SPEC,
    GradingSpec,
    QuadratureError,
    _gauss,
    integrate_disc,
)

__all__ = [
    "DegenerateChartError",
    "DualityResult",
    "EquivalenceRow",
    "EquivalenceTable",
    "InadmissibleFunctionError",
    "NormRatioReport",
    "RatioSample",
    "SeminormBoundError",
    "TestFunction",
    "boundary_power",
    "duality_check",
    "equivalence_table",
    "harmonic_poly",
    "isometry_check",
    "isometry_family",
    "norm_ratio_report",
    "parse_test_function",
    "pullback_seminorm",
    "seminorm",
    "shifted_log",
    "standard_family",
]

#: multiplicative slack on ratio assertions (two stacked quadratures)
RATIO_SLACK = 1e-4


class InadmissibleFunctionError(ValueError):
    """The test function does not lie in the requested Sobolev space."""


class SeminormBoundError(AssertionError):
    """A sampled seminorm ratio exceeded the theoretical bound."""


class DegenerateChartError(QuadratureError, RuntimeError):
    """A forward-patch chart still folds after ``_MAX_SPLIT_DEPTH`` splits."""


@dataclass(frozen=True)
class TestFunction:
    """A closed-form disc function with hand-derived gradient modulus.

    ``disc_energy(r0, r1)`` is the Dirichlet energy, the integral of
    ``grad_abs**2``, over the annulus r0 < |w| < r1 (the disc for r0 = 0)
    in closed form: within a few ulp on patches such as (0, 0.8) or
    (0.2, 0.99), and within about 1e-12 relative on thin or small ones such
    as (0.5, 0.5001) or (0, 0.01), where its terms cancel.  ``p_cap`` is the
    supremum of exponents p for which the gradient lies in L^p of the disc
    (inf when there is no restriction).
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad_abs: Callable[[np.ndarray], np.ndarray]
    disc_energy: Callable[[float, float], float]
    p_cap: float = math.inf

    def admissible_for(self, p: float) -> bool:
        # the cap itself is marginal (logarithmically divergent), so exclude it
        return p < self.p_cap * (1.0 - 1e-12)


def harmonic_poly(k: int) -> TestFunction:
    """f = Re w^k; the gradient modulus is k |w|^(k-1)."""
    if k < 1:
        raise ValueError("harmonic_poly needs k >= 1")

    def value(w):
        return np.real(np.asarray(w, dtype=complex) ** k)

    def grad_abs(w):
        return float(k) * np.abs(w) ** (k - 1)

    def disc_energy(r0, r1):
        return math.pi * k * (r1 ** (2 * k) - r0 ** (2 * k))

    return TestFunction(f"harmonic_poly:{k}", value, grad_abs, disc_energy)


def boundary_power(gamma: float) -> TestFunction:
    """f = (1 - |w|^2)^gamma; in L^1_p exactly for gamma > 1 - 1/p."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"boundary_power needs a finite gamma > 0, got {gamma}")

    def value(w):
        return (1.0 - np.abs(w) ** 2) ** gamma

    def grad_abs(w):
        r = np.abs(w)
        return 2.0 * gamma * r * (1.0 - r ** 2) ** (gamma - 1.0)

    def disc_energy(r0, r1):
        # with u = 1 - r^2 and d = 2 gamma - 1: 4 pi gamma^2/(d + 1) times
        # (u0^d - u1^d)/d + u0^d r0^2 - u1^d r1^2, the first term taken as
        # u0^d (1 - (u1/u0)^d)/d by expm1, so it keeps its digits at d near 0
        # (where it tends to u0^d log(u0/u1)) and cannot overflow at large d
        u0, u1, d = (1.0 - r0) * (1.0 + r0), (1.0 - r1) * (1.0 + r1), 2.0 * gamma - 1.0
        log_ratio = math.log1p((r1 - r0) * (r1 + r0) / u1)
        diff = -math.expm1(-d * log_ratio) / d if d else log_ratio
        return (4.0 * math.pi * gamma ** 2 / (d + 1.0)
                * (u0 ** d * (diff + r0 ** 2) - u1 ** d * r1 ** 2))

    cap = math.inf if gamma >= 1.0 else 1.0 / (1.0 - gamma)
    return TestFunction(f"boundary_power:{gamma:g}", value, grad_abs, disc_energy, p_cap=cap)


def shifted_log() -> TestFunction:
    """f = log|w - 2|; smooth on the closed disc, gradient modulus 1/|w - 2|."""

    def value(w):
        return np.log(np.abs(np.asarray(w, dtype=complex) - 2.0))

    def grad_abs(w):
        return 1.0 / np.abs(np.asarray(w, dtype=complex) - 2.0)

    def disc_energy(r0, r1):
        # the mean of |w - 2|^-2 over |w| = r is 1/(4 - r^2)
        return math.pi * math.log1p((r1 - r0) * (r1 + r0) / (4.0 - r1 ** 2))

    return TestFunction("shifted_log", value, grad_abs, disc_energy)


def standard_family() -> tuple[TestFunction, ...]:
    """The fixed eight-function family used in every ratio report."""
    return (
        harmonic_poly(1), harmonic_poly(2), harmonic_poly(3), harmonic_poly(4),
        boundary_power(0.9), boundary_power(1.5), boundary_power(3.0),
        shifted_log(),
    )


def isometry_family() -> tuple[TestFunction, ...]:
    """Three representatives (one non-harmonic) for the isometry check."""
    return (harmonic_poly(1), boundary_power(1.5), shifted_log())


def parse_test_function(text: str) -> TestFunction:
    name, _, arg = text.strip().partition(":")
    if name == "harmonic_poly":
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"harmonic_poly needs an integer k >= 1, got {arg!r}") from None
        return harmonic_poly(k)
    if name == "boundary_power":
        try:
            gamma = float(arg)
        except ValueError:
            raise ValueError(f"boundary_power needs a number gamma > 0, got {arg!r}") from None
        return boundary_power(gamma)
    if name == "shifted_log":
        return shifted_log()
    raise ValueError(
        f"unknown test function {text!r}; use harmonic_poly:k, "
        "boundary_power:gamma or shifted_log"
    )


def seminorm(f: TestFunction, p: float, spec: GradingSpec = DEFAULT_SPEC) -> float:
    """Homogeneous Sobolev seminorm (integral of |grad f|^p over the disc)^(1/p)."""
    if not 1.0 <= p < math.inf:
        raise ExponentDomainError(f"seminorm needs 1 <= p < inf, got p={p}")
    if not f.admissible_for(p):
        raise InadmissibleFunctionError(
            f"{f.name} is not in the p={p} Sobolev space (admissible for p < {f.p_cap:g})"
        )
    est = integrate_disc(lambda w: f.grad_abs(w) ** p, (), spec)
    if est.classification is not Classification.CONVERGED:
        raise InadmissibleFunctionError(
            f"gradient integral of {f.name} at p={p} classified "
            f"{est.classification.value}"
        )
    return est.value ** (1.0 / p)


def pullback_seminorm(pair: ConformalPair, f: TestFunction, q: float,
                      spec: GradingSpec = DEFAULT_SPEC) -> float:
    """Seminorm of the pulled-back function f(phi(.)) on Omega.

    By the conformal chain rule the domain-side integral equals
    ``integral over D of |grad f|^q |psi'|^(2-q)``; a diverging integral is
    reported as ``inf``.
    """
    if not 1.0 <= q < math.inf:
        raise ExponentDomainError(f"pullback seminorm needs 1 <= q < inf, got q={q}")

    est = _disc_integral(pair, 2.0 - q, spec, lambda w: f.grad_abs(w) ** q)
    if est.classification is not Classification.CONVERGED:
        return math.inf
    return est.value ** (1.0 / q)


@dataclass(frozen=True)
class RatioSample:
    function: str
    seminorm_p: float
    pullback_seminorm_q: float
    ratio: float


@dataclass(frozen=True)
class NormRatioReport:
    descriptor: MapDescriptor
    p: float
    q: float
    bound_kpq: float
    samples: tuple[RatioSample, ...]
    max_ratio: float
    bound_satisfied: bool


def norm_ratio_report(pair: ConformalPair, p: float, q: float,
                      family: Sequence[TestFunction] | None = None,
                      spec: GradingSpec = DEFAULT_SPEC,
                      check: bool = True) -> NormRatioReport:
    """Sampled seminorm ratios against the K_{p,q} bound.

    Functions not admissible for p are skipped.  When the bound is finite
    every ratio must stay below ``bound*(1 + RATIO_SLACK)``; with ``check``
    a violation raises, otherwise it is recorded in ``bound_satisfied``.
    An infinite bound makes the report purely informational.
    """
    if p == math.inf:
        raise RegimeError("ratio reports need finite p; use kpq_functional for p = inf")
    # kpq_functional raises RegimeError unless 1 <= q < p, before its integral
    bound = kpq_functional(pair, p, q, spec).kpq_value
    members = [f for f in (family if family is not None else standard_family())
               if f.admissible_for(p)]
    if not members:
        raise InadmissibleFunctionError(f"no admissible test functions for p={p}")
    samples = []
    for f in members:
        sp = seminorm(f, p, spec)
        sq = pullback_seminorm(pair, f, q, spec)
        samples.append(RatioSample(f.name, sp, sq, sq / sp))
    max_ratio = max(s.ratio for s in samples)
    ok = (max_ratio <= bound * (1.0 + RATIO_SLACK)) if math.isfinite(bound) else True
    report = NormRatioReport(pair.descriptor, p, q, bound, tuple(samples), max_ratio, ok)
    if check and not ok:
        raise SeminormBoundError(
            f"max ratio {max_ratio} exceeds K_(p,q) = {bound} for "
            f"{pair.descriptor.label()}, p={p}, q={q}"
        )
    return report


# ---------------------------------------------------------------------------
# forward-patch isometry check
# ---------------------------------------------------------------------------

#: largest ratio of a patch cell's size to its distance from psi's nearest
#: singular location; a cell past it is split
PROXIMITY_CAP = 1.0
#: next to the circle a leaf needs about 2*log2(1/(1 - r1)) + 2 splits to meet
#: the distance rule, so 32 covers patches out to about r1 = 1 - 3e-5
_MAX_SPLIT_DEPTH = 32
#: Gauss-Legendre nodes per side of a cell chart
_CHART_ORDER = 16
#: cells charted and inverted together.  A block's chart and inversion
#: temporaries are live at once (16 cells at order 16 are 4,096 nodes, 64 KB
#: per complex array).  The 189 isometry checks of patch-newton seed 3 (about
#: 8,600 cells) took a median 1.02, 1.08 and 1.09 s of CPU at 16, 32 and 64
#: cells, timed check by check in alternating order, six runs each, with 16
#: fastest in every run; whole-run timings overlapped.  Traced memory peaks
#: were 0.8, 1.2 and 2.0 MB (in process, shared 2-CPU Xeon)
_BLOCK_CELLS = 16


def _split_cells(cells: np.ndarray) -> np.ndarray:
    """Both halves of every cell row (ra, rb, ta, tb, depth), one split deeper.

    Each cell is halved across whichever side is metrically longer; every
    first half comes before every second half.
    """
    ra, rb, ta, tb = cells.T[:4]
    radial = (rb - ra) >= 0.5 * (ra + rb) * (tb - ta)
    first, second = cells.copy(), cells.copy()
    first[radial, 1] = second[radial, 0] = 0.5 * (ra + rb)[radial]
    first[~radial, 3] = second[~radial, 2] = 0.5 * (ta + tb)[~radial]
    halves = np.concatenate([first, second])
    halves[:, 4] += 1.0
    return halves


def _refined_cells(cells: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """The leaves of cell rows refined toward psi's singular locations, level by level.

    A cell shallower than ``_MAX_SPLIT_DEPTH`` whose size exceeds
    ``PROXIMITY_CAP`` times its distance from the nearest singular location
    (as bounded by :func:`_cell_proximity`) gives way to its halves; every
    other cell is a leaf.  Each level's leaves come out in its order, before
    the next level's, and no psi is evaluated.
    """
    leaves = []
    while len(cells):
        near = (cells[:, 4] < _MAX_SPLIT_DEPTH) & (_cell_proximity(cells, singular) > PROXIMITY_CAP)
        leaves.append(cells[~near])
        cells = _split_cells(cells[near])
    return np.concatenate(leaves)


def _cell_proximity(cells: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """Size over distance to the nearest singular location, per cell (inf where the bound is <= 0).

    The size is ``h = max(rb - ra, rb (tb - ta))``.  Every point of a cell
    lies within ``h/2`` of its 3 x 3 polar grid, so the grid's nearest
    distance less ``h/2`` bounds the cell's distance from below.
    """
    ra, rb, ta, tb = cells.T[:4]
    size = np.maximum(rb - ra, rb * (tb - ta))
    # np.linspace(a, b, 3) per cell: a, a + (b - a)/2, b
    r = np.stack([ra, ra + (rb - ra) / 2, rb], axis=1)
    t = np.stack([ta, ta + (tb - ta) / 2, tb], axis=1)
    w = r[:, :, None] * np.exp(1j * t)[:, None, :]
    dist = np.min(np.abs(w[..., None] - singular), axis=(1, 2, 3), initial=math.inf)
    dist -= 0.5 * size
    return np.divide(size, dist, out=np.full_like(size, math.inf), where=dist > 0.0)


def _coons_grid(pair: ConformalPair, cells: np.ndarray, n: int):
    """Tensor GL nodes and weights for the images of cells (C, 4).

    Each cell image is charted by transfinite interpolation of its four
    mapped edges (a Coons patch); the chart Jacobian supplies the area
    measure, so the interior measure never uses |psi'| pointwise.  One
    ``psi_dpsi`` call maps the edge nodes and the corners, which sit at
    both ends of every edge.  The corner term is folded into the bottom
    and top edges, so the chart is a rank-4 product per cell,
    ``z = [B^, T^, 1 - u, u] . [1 - v; v; L; R]``, and its derivatives
    ``z_u``, ``z_v`` are built the same way from (C, n) edge terms.  Nodes
    and weights have shape (C, n, n); the smallest Jacobian of each chart
    has shape (C,).
    """
    ra, rb, ta, tb = (cells[:, k, None] for k in range(4))
    x, gw = _gauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * gw
    dr = rb - ra
    dt = tb - ta

    # edge radii and angles: the corner value, the n nodes, the other corner value
    r = np.concatenate([ra, ra + dr * u, rb], axis=1)
    e = np.exp(1j * np.concatenate([ta, ta + dt * u, tb], axis=1))
    e_a, e_b = e[:, :1], e[:, -1:]
    # bottom (angle ta), top (angle tb), left (radius ra), right (radius rb)
    edges = np.stack([r * e_a, r * e_b, ra * e, rb * e])
    (B, T, L, R), (dB, dT, dL, dR) = pair.psi_dpsi(edges)
    p00, p10, p01, p11 = B[:, :1], B[:, -1:], T[:, :1], T[:, -1:]
    inner = slice(1, -1)
    # the bottom and top edges less the corners' bilinear blend, and their u-derivatives
    B = B[:, inner] - ((1.0 - u) * p00 + u * p10)
    T = T[:, inner] - ((1.0 - u) * p01 + u * p11)
    dB = dB[:, inner] * (dr * e_a) - (p10 - p00)
    dT = dT[:, inner] * (dr * e_b) - (p11 - p01)
    L, R = L[:, inner], R[:, inner]
    dL = dL[:, inner] * (1j * dt * edges[2, :, inner])
    dR = dR[:, inner] * (1j * dt * edges[3, :, inner])

    # rows carry u (axis 1), columns v (axis 2)
    U, V = u[:, None], u
    z = B[:, :, None] * (1.0 - V)
    z += T[:, :, None] * V
    z += (1.0 - U) * L[:, None, :]
    z += U * R[:, None, :]
    z_u = dB[:, :, None] * (1.0 - V)
    z_u += dT[:, :, None] * V
    z_u += (R - L)[:, None, :]
    z_v = (1.0 - U) * dL[:, None, :]
    z_v += U * dR[:, None, :]
    z_v += (T - B)[:, :, None]
    # Im(conj(z_u) z_v)
    jac = z_u.real * z_v.imag
    jac -= z_u.imag * z_v.real
    weights = (wu[:, None] * wu) * jac
    return z, weights, jac.min(axis=(1, 2))


def _block_sums(pair: ConformalPair, block: np.ndarray,
                integrand_w) -> tuple[np.ndarray, list[float]]:
    """Chart and invert one block of cell rows: the folded-chart mask, and the other cells' sums.

    One ``psi_dpsi`` call charts the block's edges and corners, and one
    ``invert_many`` call inverts its nodes.  A cell whose chart folds gets
    no sum, for its halves to be charted instead; a fold on a cell already
    ``_MAX_SPLIT_DEPTH`` splits deep raises DegenerateChartError.  The
    block's arrays set the peak memory, so they live only in this call.
    """
    block, depth = block[:, :4], block[:, 4]
    z, weights, jac_min = _coons_grid(pair, block, _CHART_ORDER)
    folded = jac_min <= 0.0
    # masked copies only when needed
    if folded.any():
        last = folded & (depth == _MAX_SPLIT_DEPTH)
        if last.any():
            raise DegenerateChartError(
                f"degenerate forward chart on cell {tuple(block[last][0].tolist())}")
        block, z, weights = (a[~folded] for a in (block, z, weights))
    w, ok, dw = pair.invert_many(z)
    done = ok.all(axis=(1, 2))
    if not done.all():
        k = int(np.argmin(done))
        raise NewtonConvergenceError(
            f"forward-patch inversion failed at z={complex(z[k][~ok[k]][0])!r} "
            f"(map {pair.descriptor.label()}, cell {tuple(block[k].tolist())})"
        )
    return folded, np.sum((weights * integrand_w(w, dw)).reshape(-1, _CHART_ORDER ** 2),
                          axis=1).tolist()


def _forward_patch_integral(pair: ConformalPair, integrand_w, r0: float, r1: float) -> float:
    """Integral over psi(patch) of ``integrand_w(w, psi'(w))`` at w = phi(z).

    Two steps.  First the patch's seed cells, four quadrants of each seed
    ring, are refined toward psi's singular locations (its singular points
    on the circle and its poles off it) by :func:`_refined_cells`, which
    evaluates no psi.  Then one loop charts the leaves ``_BLOCK_CELLS`` at a
    time through :func:`_block_sums`: every chart node z is inverted by
    ``invert_many`` (the closed-form inverse, accepted by its residual in z
    or its Newton step in w), which also returns psi' at the inverted node,
    and the chart Jacobian carries the measure.  A folded chart's halves go
    back through the refinement and join the end of the list, so only the
    last block can be partial.  The cell sums are added one by one.
    """
    quadrants = [(k * math.pi / 2.0, (k + 1) * math.pi / 2.0) for k in range(4)]
    rings = [(0.0, 0.5 * r1), (0.5 * r1, r1)] if r0 == 0.0 else [(r0, r1)]
    cells = np.array([(ra, rb, ta, tb, 0.0) for ra, rb in rings for ta, tb in quadrants])
    # psi's singular locations: each singular point and each pole 1/c
    singular = np.array([sp.location for sp in pair.singular_points]
                        + [1.0 / c for c, _ in pair.poles], dtype=complex)
    leaves = _refined_cells(cells, singular)
    total = 0.0
    while len(leaves):
        # slices are views: the list is copied only when a block folds
        block, leaves = leaves[:_BLOCK_CELLS], leaves[_BLOCK_CELLS:]
        folded, sums = _block_sums(pair, block, integrand_w)
        if folded.any():
            leaves = np.concatenate([leaves, _refined_cells(_split_cells(block[folded]), singular)])
        # a plain loop, not sum(): Python 3.12's sum() compensates float rounding
        for cell_sum in sums:
            total += cell_sum
    return total


def isometry_check(pair: ConformalPair, f: TestFunction,
                   patch: tuple[float, float] = (0.0, 0.8)) -> float:
    """Ratio of the forward-patch Dirichlet energy to the disc-side energy.

    The domain side integrates ``|grad f|^2(phi(z)) * |phi'(z)|^2`` over
    the image of the patch with its own measure (chart Jacobians plus the
    inversion of every node, with ``|phi'(z)| = 1/|psi'(w)|`` from the
    psi' the inversion computed at w); the disc side is f's closed-form
    energy over the patch, ``f.disc_energy(r0, r1)``.  The two agree
    exactly when ``|phi'|^2`` is the Jacobian, and the disc side is exact
    to a few ulp, so the returned ratio tests the forward patch alone and
    should be 1, to rounding.  The patch's cells are refined toward psi's
    singular points and poles before any is charted (see
    :func:`_forward_patch_integral`), though not toward f's own
    singularities, such as ``shifted_log``'s at w = 2 or
    ``boundary_power``'s on the unit circle, which lie off the patch.  A
    node whose inverse misses both the residual and the step target
    raises NewtonConvergenceError, and a chart still folded after
    ``_MAX_SPLIT_DEPTH`` splits raises DegenerateChartError, a
    QuadratureError.
    """
    r0, r1 = patch
    if not 0.0 <= r0 < r1 < 1.0:
        raise ValueError(f"patch must satisfy 0 <= r0 < r1 < 1, got {patch}")

    def integrand(w, dw):
        return f.grad_abs(w) ** 2 / np.abs(dw) ** 2

    return _forward_patch_integral(pair, integrand, r0, r1) / f.disc_energy(r0, r1)


# ---------------------------------------------------------------------------
# duality and equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityResult:
    """Both routes to the shared dual integral, with agreement diagnostics.

    ``rhs`` integrates |psi'| to the exponent built from (p, q), ``lhs``
    to the exponent built from the conjugate pair (q', p'); the exponents
    agree algebraically, the integrals must agree numerically, and the
    divergence verdicts must match.
    """

    p: float
    q: float
    q_conj: float
    p_conj: float
    exponent_direct: float
    exponent_dual: float
    lhs: float
    rhs: float
    lhs_classification: Classification
    rhs_classification: Classification
    rel_diff: float
    agree: bool


def duality_check(pair: ConformalPair, p: float, q: float,
                  spec: GradingSpec = DEFAULT_SPEC) -> DualityResult:
    """Verify the change-of-variables identity behind the inverse operator.

    Both exponents come from ``_dual_exponents``, which raises RegimeError
    unless ``1 < q < p < inf``.
    ``rel_diff`` is NaN unless both sides converge; ``agree`` is True when
    both converge to equal values (within 1e-3 relative) or both diverge.
    """
    q_conj, p_conj, expo_direct, expo_dual = _dual_exponents(p, q)
    rhs_est = inverse_brennan_integral(pair, expo_direct, spec).integral
    lhs_est = inverse_brennan_integral(pair, expo_dual, spec).integral
    lhs_conv = lhs_est.classification is Classification.CONVERGED
    rhs_conv = rhs_est.classification is Classification.CONVERGED
    if lhs_conv and rhs_conv:
        rel = abs(lhs_est.value - rhs_est.value) / max(abs(rhs_est.value), 1e-300)
        agree = rel <= 1e-3
    else:
        rel = math.nan
        agree = lhs_est.classification == rhs_est.classification
    return DualityResult(
        p=p, q=q, q_conj=q_conj, p_conj=p_conj,
        exponent_direct=expo_direct, exponent_dual=expo_dual,
        lhs=lhs_est.value if lhs_conv else math.inf,
        rhs=rhs_est.value if rhs_conv else math.inf,
        lhs_classification=lhs_est.classification,
        rhs_classification=rhs_est.classification,
        rel_diff=rel, agree=agree,
    )


@dataclass(frozen=True)
class EquivalenceRow:
    p: float
    q: float
    s_roundtrip: float
    integral_value: float
    classification: Classification
    kpq_value: float


@dataclass(frozen=True)
class EquivalenceTable:
    """One map and Brennan exponent swept across a grid of p values.

    When the Brennan integral converges, every row must be backed by the
    same underlying integral value: the (p-dependent) pair (p, q(p,s))
    always integrates |psi'| to the same power 2 - s.
    """

    descriptor: MapDescriptor
    s: float
    rows: tuple[EquivalenceRow, ...]
    integral_spread: float
    all_converged: bool
    all_diverged: bool

    @property
    def consistent(self) -> bool:
        if self.all_converged:
            return self.integral_spread <= 1e-10
        return self.all_diverged


def equivalence_table(pair: ConformalPair, s: float, p_grid: Sequence[float],
                      spec: GradingSpec = DEFAULT_SPEC) -> EquivalenceTable:
    """Evaluate K_{p, q(p,s)} for every p in the grid at fixed s.

    Each row recomputes the integrand exponent through its own (p, q)
    round trip; ``q(p, s) < p`` holds on every row by construction.
    """
    if not p_grid:
        raise ExponentDomainError("p grid must be nonempty")
    rows = []
    for p in p_grid:
        q = q_from_ps(p, s)
        res = kpq_functional(pair, p, q, spec)
        rows.append(EquivalenceRow(
            p=p, q=q, s_roundtrip=res.s,
            integral_value=res.integral.value,
            classification=res.integral.classification,
            kpq_value=res.kpq_value,
        ))
    converged = [r for r in rows if r.classification is Classification.CONVERGED]
    all_conv = len(converged) == len(rows)
    all_div = all(r.classification is Classification.DIVERGING for r in rows)
    if all_conv:
        values = np.asarray([r.integral_value for r in rows])
        spread = float((values.max() - values.min()) / max(abs(values.mean()), 1e-300))
    else:
        spread = math.nan
    return EquivalenceTable(pair.descriptor, s, tuple(rows), spread, all_conv, all_div)
