"""Numerical verification of composition-operator bounds on Sobolev seminorms.

Closed-form test functions on the disc provide seminorm ratios that must
respect the K_{p,q} bound and an exact p = 2 isometry.  The dual-exponent
identity and the equivalence across (p, q(p,s)) pairs each rest on one
integral, checked by the algebra of their exponents.  The isometry check
deliberately avoids the pullback shortcut: the domain-side energy is
integrated over the forward image of a disc patch, with every quadrature
node mapped back through the map's closed-form inverse (accepted by its
residual in z or its Newton step in w) and the measure supplied by
transfinite charts built from the mapped patch edges,
so nothing cancels by construction.  The disc-side energy is
each test function's closed form, so the ratio measures the forward patch
alone.  The patch is cut into polar cells no larger than ``PROXIMITY_CAP``
times their exact distance from the map's singular points and poles,
because Gauss-Legendre on a cell converges at a rate set by that ratio
alone, whatever the singular exponent.  Each check has a prologue and
then blocks: the prologue refines the cells on Python floats, forms the
chart's constant rows and maps every leaf's edges in one call, and each
block of cells does only the work that grows with its nodes (its charts
from its slice of the edge terms, the inversion and the energy).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import ConformalPair, NewtonConvergenceError
from .exponents import IDENTITY_TOL, ExponentDomainError, RegimeError, _dual_exponents, q_from_ps
from .functionals import (
    _disc_integral,
    _kpq_exponents,
    brennan_integral,
    inverse_brennan_integral,
    kpq_functional,
)
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
    """f = Re w^k; the gradient modulus is k |w|^(k-1).

    k must be an integer (numpy's too): for a fractional k, Re w^k jumps
    across the negative axis.
    """
    try:
        operator.index(k)
    except TypeError:
        raise ValueError(f"harmonic_poly needs an integer k, got {k!r}") from None
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


#: every test function family's row: the type of its one number (None for
#: none), the number's name, what the number must be and the factory
_FUNCTIONS = {
    "harmonic_poly": (int, "k", "an integer k >= 1", harmonic_poly),
    "boundary_power": (float, "gamma", "a number gamma > 0", boundary_power),
    "shifted_log": (None, "", "no number", shifted_log),
}


def parse_test_function(text: str) -> TestFunction:
    """``family`` or ``family:x``, read by the family's ``_FUNCTIONS`` row.

    The factory checks the number's range; a number of the wrong type, or a
    number given to a family that takes none, is refused here.
    """
    name, _, arg = text.strip().partition(":")
    if name not in _FUNCTIONS:
        forms = [f"{family}:{symbol}" if symbol else family
                 for family, (_, symbol, _, _) in _FUNCTIONS.items()]
        raise ValueError(f"unknown test function {text!r}; use "
                         f"{', '.join(forms[:-1])} or {forms[-1]}")
    kind, _, needs, factory = _FUNCTIONS[name]
    try:
        if kind is None and arg:
            raise ValueError
        numbers = (kind(arg),) if kind else ()
    except ValueError:
        raise ValueError(f"{name} needs {needs}, got {arg!r}") from None
    return factory(*numbers)


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
    ``integral over D of |grad f|^q |psi'|^(2-q)``.  The seminorm is the
    ``1/q`` power of that integral's ``limit``, so an integral that did not
    converge (diverging or inconclusive) reports ``inf``.
    """
    if not 1.0 <= q < math.inf:
        raise ExponentDomainError(f"pullback seminorm needs 1 <= q < inf, got q={q}")

    est = _disc_integral(pair, 2.0 - q, spec, lambda w: f.grad_abs(w) ** q)
    return est.limit ** (1.0 / q)


@dataclass(frozen=True)
class RatioSample:
    function: str
    seminorm_p: float
    pullback_seminorm_q: float
    ratio: float


@dataclass(frozen=True)
class NormRatioReport:
    """Sampled seminorm ratios of one (p, q) pair against its K_{p,q} bound.

    ``samples`` holds one ratio per admissible test function, and
    ``bound_satisfied`` whether the largest, ``max_ratio``, stays within
    ``bound_kpq * (1 + RATIO_SLACK)`` (always, for an infinite bound).
    """

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
    report = NormRatioReport(p, q, bound, tuple(samples), max_ratio, ok)
    if check and not ok:
        raise SeminormBoundError(
            f"max ratio {max_ratio} exceeds K_(p,q) = {bound} for "
            f"{pair.descriptor.label()}, p={p}, q={q}"
        )
    return report


# ---------------------------------------------------------------------------
# forward-patch isometry check
# ---------------------------------------------------------------------------

#: largest ratio of a patch cell's size to its exact distance from psi's
#: nearest singular location; a cell past it is split.  Set by a scan in steps
#: of 0.05 against the 567 isometry checks of patch-newton seeds 3, 7 and 11
#: and a seeded sweep of 900 (300 random maps, three in four twisted with
#: |a| <= 0.95, times isometry_family()), whose worst |ratio - 1| read 9.10e-15
#: and 9.55e-15 when cells were refined by a lower bound on their distance.
#: At 1.0 and 0.95 they read 4.6e-14 and 1.4e-13, at 0.9 9.10e-15 and
#: 1.33e-14, and at 0.85 8.88e-15 and 9.55e-15, the largest cap within both
PROXIMITY_CAP = 0.85
#: next to the circle a leaf needs about 2*log2(1/(1 - r1)) + 2 splits to meet
#: the distance rule, so 32 covers patches out to about r1 = 1 - 3e-5
_MAX_SPLIT_DEPTH = 32
#: Gauss-Legendre nodes per side of a cell chart
_CHART_ORDER = 16
#: cells charted and inverted together.  A block's chart and inversion
#: temporaries are live at once (16 cells at order 16 are 4,096 nodes, 64 KB
#: per complex array).  With the edges mapped once per check, the 189 isometry
#: checks of patch-newton seed 3 (6,745 cells) took a median 0.409, 0.377,
#: 0.416, 0.442 and 0.555 s of CPU at 8, 12, 16, 24 and 32 cells over six
#: rounds in rotating order (0.414, 0.418, 0.420, 0.444 and 0.462 as the best
#: of three passes); no size was fastest in more than three rounds of either
#: series, so 16 stays.  Traced memory peaks were 0.40, 0.54, 0.68, 0.96 and
#: 1.24 MB (in process, shared 2-CPU host, whose noise of up to 2x between
#: rounds swamps the sizes' differences)
_BLOCK_CELLS = 16


def _split_cells(cells: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """Both halves of every cell (ra, rb, ta, tb, depth), one split deeper.

    Each cell is halved across whichever side is metrically longer; every
    first half comes before every second half.
    """
    firsts, seconds = [], []
    for ra, rb, ta, tb, depth in cells:
        depth += 1.0
        if (rb - ra) >= 0.5 * (ra + rb) * (tb - ta):
            rm = 0.5 * (ra + rb)
            firsts.append((ra, rm, ta, tb, depth))
            seconds.append((rm, rb, ta, tb, depth))
        else:
            tm = 0.5 * (ta + tb)
            firsts.append((ra, rb, ta, tm, depth))
            seconds.append((ra, rb, tm, tb, depth))
    return firsts + seconds


def _refined_cells(cells: Sequence[Sequence[float]],
                   polar: Sequence[tuple[float, float]]) -> list[Sequence[float]]:
    """The leaves of cells (ra, rb, ta, tb, depth) refined toward the locations of ``polar``.

    ``polar`` holds psi's singular locations as ``(modulus, angle)`` floats,
    as ``ConformalPair.singular_polar`` makes them once per pair.  A cell
    shallower than ``_MAX_SPLIT_DEPTH`` whose size exceeds
    ``PROXIMITY_CAP`` times its exact distance from the nearest location
    (see :func:`_cell_proximity`) gives way to its halves; every other cell
    is a leaf.  Each level's leaves come out in its order, before the next
    level's, in one list, and no psi is evaluated.  The refinement runs on
    Python floats with ``math``, cell by cell, at a fraction of numpy's
    per-call cost on lists of a few dozen cells, and converts nothing.  A
    forward patch refines its seed cells, and any batch of folded halves,
    through this one function.
    """
    leaves = []
    while cells:
        near = []
        for cell in cells:
            if cell[4] < _MAX_SPLIT_DEPTH and _cell_proximity(cell, polar) > PROXIMITY_CAP:
                near.append(cell)
            else:
                leaves.append(cell)
        cells = _split_cells(near)
    return leaves


def _cell_proximity(cell: Sequence[float], polar: Sequence[tuple[float, float]]) -> float:
    """Size over exact distance to the nearest location (rho, phi) of ``polar``, 0 with none.

    The size is ``max(rb - ra, rb (tb - ta))``.  Every location
    s = rho e^{i phi} lies on or outside the circle, so rho > rb, and the
    point of the polar cell nearest to it has the cell's angle nearest to
    phi, at angular gap gamma (0 when phi lies within the cell's angles),
    and the radius ``r = clip(rho cos(gamma), ra, rb)`` nearest along that
    ray.  The distance is ``hypot(rho - r, 2 sqrt(rho r) sin(gamma/2))``,
    the factor form's split of ``|s - r e^{i(phi - gamma)}|^2``, so nothing
    cancels next to the circle.
    """
    ra, rb, ta, tb = cell[:4]
    half = 0.5 * (tb - ta)
    middle = ta + half
    dist = math.inf
    for rho, phi in polar:
        # the angle from the cell's middle angle to phi, less a whole turn, less half the cell
        gap = abs((phi - middle + math.pi) % (2.0 * math.pi) - math.pi) - half
        if gap < 0.0:
            gap = 0.0
        r = rho * math.cos(gap)
        r = ra if r < ra else rb if r > rb else r
        d = math.hypot(rho - r, 2.0 * math.sqrt(rho * r) * math.sin(0.5 * gap))
        if d < dist:
            dist = d
    return max(rb - ra, rb * (tb - ta)) / dist


def _chart_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant rows of an order-n chart: GL nodes u on [0, 1], 1 - u, and tensor weights."""
    x, gw = _gauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * gw
    return u, 1.0 - u, wu[:, None] * wu


def _chart_edges(pair: ConformalPair, cells: np.ndarray,
                 rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """The edge terms, shape (10, C, n), of the Coons charts of cell rows (ra, rb, ta, tb, ...).

    Each cell image is charted by transfinite interpolation of its four
    mapped edges (a Coons patch); the chart Jacobian supplies the area
    measure, so the interior measure never uses |psi'| pointwise.  One
    ``psi_dpsi`` call maps the edge nodes and the corners of every cell,
    which sit at both ends of every edge.  The corner term is folded into
    the bottom and top edges, so the chart is a rank-4 product per cell,
    ``z = [B^, T^, 1 - u, u] . [1 - v; v; L; R]``.  The terms are, in order,
    ``B^, T^, L, R``, the derivatives ``dB^, dT^`` along u and ``R - L``,
    which :func:`_chart_nodes` blends into ``z_u``, and ``dL, dR`` along v
    and ``T^ - B^``, which it blends into ``z_v``.  Each term is formed
    element by element, so a cell's terms do not depend on the other cells.
    """
    u, one_minus_u, _ = rows
    ra, rb, ta, tb = (cells[:, k, None] for k in range(4))
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
    B = B[:, inner] - (one_minus_u * p00 + u * p10)
    T = T[:, inner] - (one_minus_u * p01 + u * p11)
    dB = dB[:, inner] * (dr * e_a) - (p10 - p00)
    dT = dT[:, inner] * (dr * e_b) - (p11 - p01)
    L, R = L[:, inner], R[:, inner]
    dL = dL[:, inner] * (1j * dt * edges[2, :, inner])
    dR = dR[:, inner] * (1j * dt * edges[3, :, inner])
    return np.stack([B, T, L, R, dB, dT, R - L, dL, dR, T - B])


def _chart_nodes(terms: np.ndarray, rows: tuple[np.ndarray, ...]):
    """Tensor GL nodes and weights of the charts whose edge terms (10, C, n) are given.

    Nodes and weights have shape (C, n, n); the smallest Jacobian of each
    chart has shape (C,).  A cell's nodes and weights depend on its own
    terms alone, and no complex product is formed in place (numpy rounds
    one differently on one-element arrays; see the catalog's docstring), so
    a block sliced from a whole patch's terms charts each cell to the same
    bits as the cell charted alone.
    """
    u, one_minus_u, ww = rows
    B, T, L, R, dB, dT, R_L, dL, dR, T_B = terms
    # rows carry u (axis 1), columns v (axis 2)
    U, one_minus_U = u[:, None], one_minus_u[:, None]
    z = B[:, :, None] * one_minus_u
    z += T[:, :, None] * u
    z += one_minus_U * L[:, None, :]
    z += U * R[:, None, :]
    z_u = dB[:, :, None] * one_minus_u
    z_u += dT[:, :, None] * u
    z_u += R_L[:, None, :]
    z_v = one_minus_U * dL[:, None, :]
    z_v += U * dR[:, None, :]
    z_v += T_B[:, :, None]
    # Im(conj(z_u) z_v)
    jac = z_u.real * z_v.imag
    jac -= z_u.imag * z_v.real
    weights = ww * jac
    return z, weights, jac.min(axis=(1, 2))


def _block_sums(pair: ConformalPair, block: np.ndarray, terms: np.ndarray,
                rows: tuple[np.ndarray, ...], f: TestFunction) -> tuple[np.ndarray, list[float]]:
    """Chart and invert one block of cell rows: the folded-chart mask, and the other cells' sums.

    ``terms`` are the block's edge terms, sliced from its patch's (see
    :func:`_chart_edges`).  A cell's sum is ``|grad f|^2(w) / |psi'(w)|^2``
    at w = phi(z) over its chart nodes z, weighted by the chart's measure.
    One ``invert_many`` call inverts the block's nodes.  A cell whose chart
    folds gets no sum, for its halves to be charted instead; a fold on a
    cell already ``_MAX_SPLIT_DEPTH`` splits deep raises
    DegenerateChartError.  The block's (C, n, n) arrays set the peak
    memory, so they live only in this call.
    """
    block, depth = block[:, :4], block[:, 4]
    z, weights, jac_min = _chart_nodes(terms, rows)
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
    energy = weights * (f.grad_abs(w) ** 2 / np.abs(dw) ** 2)
    return folded, np.sum(energy.reshape(-1, _CHART_ORDER ** 2), axis=1).tolist()


def _forward_patch_integral(pair: ConformalPair, f: TestFunction, r0: float, r1: float) -> float:
    """Dirichlet energy of f o phi over psi(patch), ``|grad f|^2(w) |phi'(z)|^2`` at w = phi(z).

    A prologue runs once per check.  The patch's seed cells, four quadrants
    of each seed ring, are refined toward ``pair.singular_polar`` (its
    singular points on the circle and its finite poles off it, in polar
    form, at the angles the disc rule is graded toward) by
    :func:`_refined_cells`, which evaluates no psi; the chart's constant
    rows are formed (:func:`_chart_rows`), and :func:`_chart_edges` maps
    every leaf's edges in one ``psi_dpsi`` call.  Then one loop charts the
    leaves ``_BLOCK_CELLS`` at a time through :func:`_block_sums`, which does
    only the work that grows with the block's nodes: the charts from the
    block's slice of the edge terms, then every chart node z inverted by
    ``invert_many`` (the closed-form inverse, accepted by its residual in z
    or its Newton step in w), which also returns psi' at the inverted node,
    and the chart Jacobian carries the measure.  A folded chart's halves go
    back through the refinement, have their edges mapped together, and join
    the end of the list, so only the last block can be partial.  The edge
    terms, 2.5 KB a leaf at order 16, live for the whole check, and the
    edge pass peaks at about 6 KB a leaf, so a patch of many leaves peaks
    there, not in a block: Koebe on (0, 0.999) refines to 228 leaves and
    peaks at 1.6 MB traced, where per-block edges kept 0.46 MB.  The cell
    sums are added one by one.
    """
    quadrants = [(k * math.pi / 2.0, (k + 1) * math.pi / 2.0) for k in range(4)]
    rings = [(0.0, 0.5 * r1), (0.5 * r1, r1)] if r0 == 0.0 else [(r0, r1)]
    polar = pair.singular_polar
    leaves = np.array(_refined_cells(
        [(ra, rb, ta, tb, 0.0) for ra, rb in rings for ta, tb in quadrants], polar))
    rows = _chart_rows(_CHART_ORDER)
    terms = _chart_edges(pair, leaves, rows)
    total = 0.0
    while len(leaves):
        # slices are views: the lists are copied only when a block folds
        block, leaves = leaves[:_BLOCK_CELLS], leaves[_BLOCK_CELLS:]
        folded, sums = _block_sums(pair, block, terms[:, :_BLOCK_CELLS], rows, f)
        terms = terms[:, _BLOCK_CELLS:]
        if folded.any():
            halves = np.array(_refined_cells(_split_cells(block[folded].tolist()), polar))
            leaves = np.concatenate([leaves, halves])
            terms = np.concatenate([terms, _chart_edges(pair, halves, rows)], axis=1)
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
    return _forward_patch_integral(pair, f, r0, r1) / f.disc_energy(r0, r1)


# ---------------------------------------------------------------------------
# duality and equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityResult:
    """The one integral behind both routes of the inverse operator's duality.

    The direct route integrates |psi'| to ``p*(2 - q)/(p - q)``, the dual
    route to ``(q' - 2)*p'/(q' - p')`` in the conjugate pair (q', p').  The
    two are one exponent, an identity ``_dual_exponents`` checks to
    ``IDENTITY_TOL`` before anything is integrated, so one integral at
    ``exponent_direct`` stands for both routes: ``value`` is its ``limit``
    (``inf`` unless converged), ``lhs_classification`` (the dual route's)
    and ``rhs_classification`` (the direct route's) are both its verdict,
    and ``agree`` holds when that verdict is decided.
    """

    q_conj: float
    p_conj: float
    exponent_direct: float
    exponent_dual: float
    value: float
    lhs_classification: Classification
    rhs_classification: Classification
    agree: bool


def duality_check(pair: ConformalPair, p: float, q: float,
                  spec: GradingSpec = DEFAULT_SPEC) -> DualityResult:
    """Verify the change-of-variables identity behind the inverse operator.

    Both exponents come from ``_dual_exponents``, which raises RegimeError
    unless ``1 < q < p < inf`` and ArithmeticError when its two closed
    forms differ by more than ``IDENTITY_TOL``.  Then one
    ``inverse_brennan_integral`` at the direct exponent gives the verdict
    of both routes.
    """
    q_conj, p_conj, expo_direct, expo_dual = _dual_exponents(p, q)
    est = inverse_brennan_integral(pair, expo_direct, spec).integral
    verdict = est.classification
    return DualityResult(q_conj, p_conj, expo_direct, expo_dual, est.limit, verdict, verdict,
                         verdict is not Classification.INCONCLUSIVE)


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
    """One map and Brennan exponent s swept across a grid of p values.

    Every pair (p, q(p, s)) integrates |psi'| to the one power 2 - s, so one
    Brennan integral backs every row: each row's ``integral_value`` and
    ``classification`` are that integral's, and its ``kpq_value`` is the
    integral's ``limit`` to the row's own power.  ``integral_spread`` is
    the spread of the exponents behind that integral, the largest
    ``|s_roundtrip - s| / max(1, |s|)`` over the rows; the table is
    ``consistent`` when its verdict is decided and that spread is within
    ``IDENTITY_TOL``.
    """

    rows: tuple[EquivalenceRow, ...]
    integral_spread: float

    @property
    def consistent(self) -> bool:
        return (self.rows[0].classification is not Classification.INCONCLUSIVE
                and self.integral_spread <= IDENTITY_TOL)


def equivalence_table(pair: ConformalPair, s: float, p_grid: Sequence[float],
                      spec: GradingSpec = DEFAULT_SPEC) -> EquivalenceTable:
    """Evaluate K_{p, q(p,s)} for every p in the grid at fixed s, from one Brennan integral.

    Each row's s and power come from its own (p, q) round trip through
    ``_kpq_exponents``, which refuses a q below 1 before anything is
    integrated; ``q(p, s) < p`` holds on every row by construction.
    """
    if not p_grid:
        raise ExponentDomainError("p grid must be nonempty")
    pqs = [(p, q_from_ps(p, s)) for p in p_grid]
    exponents = [(p, q, *_kpq_exponents(p, q)) for p, q in pqs]
    est = brennan_integral(pair, s, spec).integral
    rows = tuple(EquivalenceRow(p, q, s_rt, est.value, est.classification, est.limit ** power)
                 for p, q, s_rt, power in exponents)
    spread = max(abs(row.s_roundtrip - s) for row in rows) / max(1.0, abs(s))
    return EquivalenceTable(rows, spread)
