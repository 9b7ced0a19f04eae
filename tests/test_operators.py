import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brennanlab import catalog, functionals, operators
from brennanlab.catalog import (
    ConformalPair,
    NewtonConvergenceError,
    identity_map,
    koebe_map,
    make_pair,
)
from brennanlab.exponents import IDENTITY_TOL, ExponentDomainError, q_from_ps, s_from_pq
from brennanlab.functionals import RegimeError, brennan_integral, inverse_brennan_integral
from brennanlab.operators import (
    InadmissibleFunctionError,
    SeminormBoundError,
    boundary_power,
    duality_check,
    equivalence_table,
    harmonic_poly,
    isometry_check,
    isometry_family,
    norm_ratio_report,
    parse_test_function,
    pullback_seminorm,
    seminorm,
    shifted_log,
    standard_family,
)
from brennanlab.quadrature import Classification, GradingSpec, _gauss
from test_catalog import catalog_maps

CATALOG = ["identity", "moebius:0.3,0.2,1.1", "koebe", "sector:1.5",
           "cardioid", "cardioid*moebius:0.3,0,0.5"]


class TestTestFunctions:
    def test_family_size_and_names(self):
        family = standard_family()
        assert len(family) == 8
        names = [f.name for f in family]
        assert names == ["harmonic_poly:1", "harmonic_poly:2", "harmonic_poly:3",
                         "harmonic_poly:4", "boundary_power:0.9",
                         "boundary_power:1.5", "boundary_power:3", "shifted_log"]

    @pytest.mark.parametrize("f", standard_family(), ids=lambda f: f.name)
    def test_gradient_matches_finite_differences(self, f):
        h = 1e-6
        rng = np.random.default_rng(17)
        for _ in range(25):
            r = 0.05 + 0.85 * rng.random()
            th = 2.0 * math.pi * rng.random()
            w = r * np.exp(1j * th)
            fx = (f.value(w + h) - f.value(w - h)) / (2.0 * h)
            fy = (f.value(w + 1j * h) - f.value(w - 1j * h)) / (2.0 * h)
            fd = math.hypot(float(fx), float(fy))
            assert fd == pytest.approx(float(f.grad_abs(w)), rel=1e-5, abs=1e-8)

    def test_admissibility_caps(self):
        assert boundary_power(0.9).admissible_for(4.0)
        assert not boundary_power(0.9).admissible_for(10.0)
        assert boundary_power(1.5).admissible_for(50.0)
        assert harmonic_poly(2).admissible_for(1e6)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_harmonic_poly_needs_an_integer(self, k):
        """Re w^k of a fractional k jumps across the negative axis."""
        with pytest.raises(ValueError) as info:
            harmonic_poly(k)
        assert str(info.value) == f"harmonic_poly needs an integer k, got {k!r}"

    def test_harmonic_poly_takes_numpy_integers(self):
        w = np.array([0.3 + 0.4j, -0.5 + 0.1j])
        f, g = harmonic_poly(np.int64(3)), harmonic_poly(3)
        assert f.name == g.name
        assert np.array_equal(f.value(w), g.value(w))
        assert np.array_equal(f.grad_abs(w), g.grad_abs(w))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_boundary_power_needs_a_finite_positive_gamma(self, gamma):
        with pytest.raises(ValueError, match="boundary_power needs a finite gamma > 0"):
            boundary_power(gamma)

    @pytest.mark.parametrize("text, message", [
        ("harmonic_poly:1.5", "harmonic_poly needs an integer k >= 1, got '1.5'"),
        ("harmonic_poly", "harmonic_poly needs an integer k >= 1, got ''"),
        ("harmonic_poly:0", "harmonic_poly needs k >= 1"),
        ("boundary_power:x", "boundary_power needs a number gamma > 0, got 'x'"),
        ("boundary_power:nan", "boundary_power needs a finite gamma > 0, got nan"),
        ("cosine", "unknown test function 'cosine'; use harmonic_poly:k, "
                   "boundary_power:gamma or shifted_log"),
        ("shifted_log:junk", "shifted_log needs no number, got 'junk'"),
        ("shifted_log:3", "shifted_log needs no number, got '3'"),
    ], ids=["k-float", "k-missing", "k-zero", "gamma-word", "gamma-nan", "unknown",
            "log-word", "log-number"])
    def test_parse_errors_name_the_function(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_test_function(text)
        assert str(info.value).startswith(message)

    def test_parse_round_trips_the_name(self):
        for f in standard_family():
            assert parse_test_function(f.name).name == f.name


class TestSeminorm:
    def test_constant_gradient(self):
        assert seminorm(harmonic_poly(1), 2.0) == pytest.approx(math.sqrt(math.pi),
                                                                rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_harmonic_closed_form(self, k):
        # k^2 * 2 pi * int r^(2k-2) r dr = k pi
        assert seminorm(harmonic_poly(k), 2.0) == pytest.approx(
            math.sqrt(k * math.pi), rel=1e-10)

    def test_boundary_power_closed_forms(self):
        # integral of (2 gamma r (1-r^2)^(gamma-1))^2 over D = 2 pi gamma/(2 gamma - 1)
        assert seminorm(boundary_power(1.0), 2.0) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-10)
        assert seminorm(boundary_power(1.5), 2.0) == pytest.approx(
            math.sqrt(1.5 * math.pi), rel=1e-10)

    def test_shifted_log_closed_form(self):
        # integral of |w - 2|^-2 over D = pi log(4/3)
        assert seminorm(shifted_log(), 2.0) ** 2 == pytest.approx(
            math.pi * math.log(4.0 / 3.0), rel=1e-10)

    def test_hp1_general_p(self):
        for p in (1.0, 3.0, 4.0, 7.5):
            assert seminorm(harmonic_poly(1), p) == pytest.approx(
                math.pi ** (1.0 / p), rel=1e-10)

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleFunctionError):
            seminorm(boundary_power(0.9), 10.0)

    @pytest.mark.parametrize("value", [0.5, math.inf, math.nan])
    @pytest.mark.parametrize("call, message", [
        (lambda p: seminorm(harmonic_poly(1), p), "seminorm needs 1 <= p < inf, got p="),
        (lambda q: pullback_seminorm(koebe_map(), harmonic_poly(1), q),
         "pullback seminorm needs 1 <= q < inf, got q="),
    ], ids=["seminorm", "pullback"])
    def test_exponent_outside_one_to_inf_is_refused(self, call, message, value):
        with pytest.raises(ExponentDomainError, match=f"^{re.escape(message)}{value}$"):
            call(value)


class TestPullbackSeminorm:
    def test_identity_map_reduces_to_seminorm(self):
        for f in (harmonic_poly(2), boundary_power(1.5)):
            for q in (1.5, 2.0, 3.0):
                assert pullback_seminorm(identity_map(), f, q) == pytest.approx(
                    seminorm(f, q), rel=1e-12)

    @pytest.mark.parametrize("name", CATALOG)
    def test_q_two_degeneracy(self, name):
        # exponent 2 - q vanishes, so the pullback equals the plain seminorm
        pair = make_pair(name)
        f = harmonic_poly(3)
        assert pullback_seminorm(pair, f, 2.0) == pytest.approx(
            seminorm(f, 2.0), rel=1e-12)

    def test_koebe_divergent_pullback_is_inf(self):
        # q = 1 integrand |psi'| has exponent -3 at w = 1, beyond -2
        assert pullback_seminorm(koebe_map(), harmonic_poly(1), 1.0) == math.inf

    def test_inconclusive_pullback_is_inf(self):
        # no annuli at eps_min = 0.5, so the verdict is inconclusive
        spec = GradingSpec(eps_min=0.5)
        assert pullback_seminorm(koebe_map(), harmonic_poly(1), 1.5, spec) == math.inf


class TestNormRatioReport:
    def test_identity_holder_equality_cell(self):
        rep = norm_ratio_report(identity_map(), 4.0, 2.0)
        assert rep.bound_kpq == pytest.approx(math.pi ** 0.25, rel=1e-10)
        hp1 = next(s for s in rep.samples if s.function == "harmonic_poly:1")
        # constant gradient attains the Holder bound exactly
        assert hp1.ratio == pytest.approx(rep.bound_kpq, rel=1e-4)
        assert rep.max_ratio <= rep.bound_kpq * (1.0 + 1e-4)

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("pq", [(4.0, 2.0), (3.0, 2.0), (4.0, 3.0)])
    def test_bound_holds_across_catalog(self, name, pq):
        p, q = pq
        rep = norm_ratio_report(make_pair(name), p, q, check=True)
        assert rep.bound_satisfied
        if math.isfinite(rep.bound_kpq):
            assert rep.max_ratio <= rep.bound_kpq * (1.0 + 1e-4)

    def test_koebe_finite_cell(self):
        q = q_from_ps(4.0, 2.5)
        rep = norm_ratio_report(koebe_map(), 4.0, q)
        assert math.isfinite(rep.bound_kpq)
        assert rep.max_ratio <= rep.bound_kpq * (1.0 + 1e-4)

    def test_ratios_positive(self):
        rep = norm_ratio_report(koebe_map(), 4.0, 2.0)
        assert all(s.ratio > 0.0 for s in rep.samples)

    def test_violated_bound_raises_only_when_checked(self, monkeypatch):
        """harmonic_poly:1 attains the identity's bound, so a slack of -0.5 puts it past it."""
        monkeypatch.setattr(operators, "RATIO_SLACK", -0.5)
        assert not norm_ratio_report(identity_map(), 4.0, 2.0, check=False).bound_satisfied
        with pytest.raises(SeminormBoundError, match=r"^max ratio .* exceeds K_\(p,q\) = .* "
                                                     r"for identity, p=4\.0, q=2\.0$"):
            norm_ratio_report(identity_map(), 4.0, 2.0, check=True)

    def test_no_admissible_function_raises(self):
        """boundary_power:0.9 lies in L^1_p only for p < 10, so at p = 12 no function is left."""
        with pytest.raises(InadmissibleFunctionError,
                           match=r"^no admissible test functions for p=12\.0$"):
            norm_ratio_report(identity_map(), 12.0, 2.0, family=[boundary_power(0.9)])

    def test_regime_validation(self):
        with pytest.raises(RegimeError):
            norm_ratio_report(koebe_map(), 2.0, 3.0)
        with pytest.raises(RegimeError):
            norm_ratio_report(koebe_map(), math.inf, 2.0)


class TestIsometry:
    def test_identity_is_machine_exact(self):
        ratio = isometry_check(identity_map(), harmonic_poly(2))
        assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_koebe_patch(self):
        ratio = isometry_check(koebe_map(), harmonic_poly(1), patch=(0.0, 0.8))
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_cardioid_non_harmonic_function(self):
        ratio = isometry_check(make_pair("cardioid"), boundary_power(1.5),
                               patch=(0.0, 0.8))
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_annular_patch(self):
        ratio = isometry_check(koebe_map(), shifted_log(), patch=(0.3, 0.7))
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_patch_validation(self):
        with pytest.raises(ValueError):
            isometry_check(identity_map(), harmonic_poly(1), patch=(0.8, 0.3))

    def test_family_is_three_functions(self):
        assert len(isometry_family()) == 3

    @pytest.mark.parametrize("name", [
        "sector:0.599947457115229*moebius:-0.04932998174206425,-0.12091559093965801,"
        "2.4825619075327716",
        "cardioid*moebius:0.019994321434352483,-0.1845200936268209,2.0745870282636427",
    ], ids=["twisted-sector", "twisted-cardioid"])
    def test_small_exponent_maps_are_resolved(self, name):
        """Checks that |psi'| refinement left 7.6e-7 and 4.3e-9 off: a small exponent's
        |psi'| barely varies near its singular point, though the integrand does."""
        ratio = isometry_check(make_pair(name), boundary_power(1.5))
        assert abs(ratio - 1.0) <= 1e-13

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(name=catalog_maps())
    # a pole past the largest float (1/c is inf), and one at 1e300
    @example(name="moebius:0,2.225073858507e-311,0")
    @example(name="cardioid*moebius:0,1e-300,1")
    def test_ratio_is_one_to_rounding_property(self, name):
        """Every family, twisted or not, and every isometry function: the ratio is 1 to 1e-13."""
        pair = make_pair(name)
        for f in isometry_family():
            assert abs(isometry_check(pair, f, patch=(0.0, 0.8)) - 1.0) <= 1e-13

    @pytest.mark.xfail(strict=True, reason="float64 charts round to 1.6e-13 on a strongly "
                                           "twisted map (ROADMAP item 10, 'Also open: rounding "
                                           "on strongly twisted maps')")
    def test_ratio_is_one_to_rounding_on_a_strong_twist(self):
        """|a| = 0.93: |ratio - 1| reads 1.637578961322106e-13, past the property's 1e-13."""
        pair = make_pair("koebe*moebius:-0.8497907781255837,-0.3720104649307652,"
                         "2.7263445997254836")
        assert abs(isometry_check(pair, shifted_log(), patch=(0.0, 0.8)) - 1.0) <= 1e-13

    @pytest.mark.parametrize("name, patch", [
        ("koebe", (0.2, 0.999)),
        ("koebe", (0.0, 0.999)),
        ("sector:1.5", (0.2, 0.999)),
        ("sector:1.5", (0.0, 0.999)),
        ("cardioid*moebius:-0.6,0.2,2", (0.2, 0.9999)),
        ("koebe", (0.2, 0.9999)),
    ])
    def test_patch_next_to_the_circle(self, name, patch):
        """Leaves next to a singular point on the circle need about 2*log2(1/(1 - r1)) + 2 splits.

        With 18 as the depth cap Koebe and the sector raised
        DegenerateChartError here, and the twisted cardioid's cells
        stopped short of the distance rule (|ratio - 1| = 1.8e-13).
        Koebe at r1 = 0.9999 raised NewtonConvergenceError at nodes next to
        its e = -3 point, where phi is right to rounding, while the
        inversion took residuals in z alone.
        """
        pair = make_pair(name)
        for f in isometry_family():
            assert abs(isometry_check(pair, f, patch=patch) - 1.0) <= 1e-13


#: gamma = 1/2 +- 1e-9 fail a form that divides by 2*gamma - 1 without expm1,
#: such as the plain difference of the antiderivative; gamma = 7 checks large d
ENERGY_CASES = ([("harmonic_poly", k) for k in (1, 2, 3, 4)] + [("shifted_log", None)]
                + [("boundary_power", gamma) for gamma in (0.3, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.6,
                                                           0.9, 1.0, 1.25, 1.5, 3.0, 7.0)])


def reference_ring_energy(kind, arg, mp):
    """r -> 2 pi r times the mean of |grad f|^2 over |w| = r, in mpmath numbers."""
    if kind == "harmonic_poly":
        return lambda r: 2 * mp.pi * r * (arg * r ** (arg - 1)) ** 2
    if kind == "shifted_log":
        # the trapezoid rule on 64 angles: its error is about 2 (r/2)^64 < 1e-19 relative
        angles = [2 * mp.pi * j / 64 for j in range(64)]
        return lambda r: 2 * mp.pi * r * mp.fsum(1 / abs(r * mp.expj(t) - 2) ** 2
                                                 for t in angles) / 64
    gamma = mp.mpf(arg)
    return lambda r: 2 * mp.pi * r * (2 * gamma * r * (1 - r * r) ** (gamma - 1)) ** 2


class TestDiscEnergy:
    """Each test function's closed-form energy against a 40-digit mpmath quadrature."""

    @pytest.mark.parametrize("kind, arg", ENERGY_CASES,
                             ids=[f"{kind}:{arg!r}" for kind, arg in ENERGY_CASES])
    def test_against_mpmath(self, kind, arg):
        mpmath = pytest.importorskip("mpmath")
        f = parse_test_function(kind if arg is None else f"{kind}:{arg!r}")
        with mpmath.workdps(40):
            g = reference_ring_energy(kind, arg, mpmath)
            for r0, r1 in [(0.0, 0.8), (0.3, 0.7), (0.2, 0.99), (0.5, 0.999)]:
                a, b = mpmath.mpf(r0), mpmath.mpf(r1)
                exact = mpmath.quad(g, [a, (a + b) / 2, b])
                assert abs(f.disc_energy(r0, r1) / float(exact) - 1.0) <= 1e-14, (r0, r1)


def reference_cell_distance(cell, s):
    """Distance from the polar cell (ra, rb, ta, tb) to a point s outside it, in scalar math.

    The nearest point lies on the cell's boundary: on one of its two arcs at
    s's own angle, when that angle is the cell's, or else on one of its two
    radial edges, at the radius nearest along that edge.  Each candidate is
    a point of the plane, measured by ``abs``.
    """
    ra, rb, ta, tb = cell
    rho, phi = abs(s), cmath.phase(s)
    candidates = []
    # phi moved by whole turns to the first angle at or above ta
    phi = ta + (phi - ta) % (2.0 * math.pi)
    if phi <= tb:
        candidates += [cmath.rect(ra, phi), cmath.rect(rb, phi)]
    for t in (ta, tb):
        r = min(max(rho * math.cos(phi - t), ra), rb)
        candidates.append(cmath.rect(r, t))
    return min(abs(s - w) for w in candidates)


def reference_patch_cells(pair, r0, r1):
    """Patch cells refined one cell at a time from a stack, depth first.

    Each cell is split until its size max(rb - ra, rb (tb - ta)) is at most
    ``PROXIMITY_CAP`` times its distance from psi's nearest singular location
    (:func:`reference_cell_distance`), or it lies ``_MAX_SPLIT_DEPTH`` splits
    below its seed cell; the leaves are the cells the forward integral should
    chart.  A pole past the largest float is at no finite distance.
    """
    singular = [s for s in ([sp.location for sp in pair.singular_points]
                            + [1.0 / c for c, _ in pair.poles])
                if cmath.isfinite(s)]

    def split(cell):
        ra, rb, ta, tb = cell
        rm = 0.5 * (ra + rb)
        tm = 0.5 * (ta + tb)
        if (rb - ra) >= 0.5 * (ra + rb) * (tb - ta):
            return [(ra, rm, ta, tb), (rm, rb, ta, tb)]
        return [(ra, rb, ta, tm), (ra, rb, tm, tb)]

    def too_near(cell):
        ra, rb, ta, tb = cell
        size = max(rb - ra, rb * (tb - ta))
        dist = min((reference_cell_distance(cell, s) for s in singular), default=math.inf)
        return size / dist > operators.PROXIMITY_CAP

    seeds = []
    quadrants = [(k * math.pi / 2.0, (k + 1) * math.pi / 2.0) for k in range(4)]
    if r0 == 0.0:
        rc = 0.5 * r1
        seeds += [(0.0, rc, ta, tb) for ta, tb in quadrants]
        seeds += [(rc, r1, ta, tb) for ta, tb in quadrants]
    else:
        seeds += [(r0, r1, ta, tb) for ta, tb in quadrants]
    out = []
    stack = [(c, 0) for c in seeds]
    while stack:
        cell, depth = stack.pop()
        if depth < operators._MAX_SPLIT_DEPTH and too_near(cell):
            stack.extend((c, depth + 1) for c in split(cell))
        else:
            out.append(cell)
    return out[::-1]


def reference_coons_grid(pair, cells, n):
    """The forward chart as first written: blended edges less the blended
    corners, formed on (C, n, n) arrays, with the corners from a second psi call."""
    ra, rb, ta, tb = (cells[:, k, None] for k in range(4))
    x, gw = _gauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * gw
    dr = rb - ra
    dt = tb - ta

    r_u = ra + dr * u
    e_u = np.exp(1j * (ta + dt * u))
    e_a, e_b = np.exp(1j * ta), np.exp(1j * tb)
    # bottom (angle ta), top (angle tb), left (radius ra), right (radius rb)
    edges = np.stack([r_u * e_a, r_u * e_b, ra * e_u, rb * e_u])
    (B, Tt, L, R), (dB, dTt, dL, dR) = pair.psi_dpsi(edges)
    dB = dB * dr * e_a
    dTt = dTt * dr * e_b
    dL = dL * 1j * dt * edges[2]
    dR = dR * 1j * dt * edges[3]
    p00, p10, p01, p11 = pair.psi(np.stack([ra * e_a, rb * e_a, ra * e_b, rb * e_b]))[..., None]

    U = u[:, None]
    V = u[None, :]
    B, Tt, dB, dTt = (a[:, :, None] for a in (B, Tt, dB, dTt))
    L, R, dL, dR = (a[:, None, :] for a in (L, R, dL, dR))
    z = ((1.0 - V) * B + V * Tt
         + (1.0 - U) * L + U * R
         - ((1.0 - U) * (1.0 - V) * p00 + U * (1.0 - V) * p10
            + (1.0 - U) * V * p01 + U * V * p11))
    z_u = ((1.0 - V) * dB + V * dTt
           + (R - L)
           - (-(1.0 - V) * p00 + (1.0 - V) * p10 - V * p01 + V * p11))
    z_v = ((Tt - B)
           + (1.0 - U) * dL + U * dR
           - (-(1.0 - U) * p00 - U * p10 + (1.0 - U) * p01 + U * p11))
    jac = np.imag(np.conj(z_u) * z_v)
    weights = wu[:, None] * wu[None, :] * jac
    return z, weights, jac.min(axis=(1, 2))


def seed_cells(r0, r1):
    """The unrefined cells of a patch: four quadrants of each seed ring."""
    rings = [(0.0, 0.5 * r1), (0.5 * r1, r1)] if r0 == 0.0 else [(r0, r1)]
    return [(ra, rb, k * math.pi / 2.0, (k + 1) * math.pi / 2.0)
            for ra, rb in rings for k in range(4)]


def chart(pair, cells, n=16):
    """The forward chart of cells (C, 4) charted together: both stages, on all cells at once."""
    rows = operators._chart_rows(n)
    return operators._chart_nodes(operators._chart_edges(pair, cells, rows), rows)


def assert_sliced_as_alone(pair, cells):
    """Blocks sliced from the edge terms of all cells chart each cell as it is charted alone.

    The blocks are every ``_BLOCK_CELLS`` cells, the last one partial, and a
    one-cell block; nodes, weights and smallest Jacobian agree byte for byte.
    """
    rows = operators._chart_rows(16)
    terms = operators._chart_edges(pair, cells, rows)
    size = operators._BLOCK_CELLS
    blocks = [slice(k, k + size) for k in range(0, len(cells), size)]
    blocks.append(slice(len(cells) - 1, None))
    for block in blocks:
        sliced = operators._chart_nodes(terms[:, block], rows)
        for k, cell in enumerate(cells[block]):
            for a, b in zip(chart(pair, cell[None]), sliced):
                assert a[0].tobytes() == b[k].tobytes()


PATCH_MAPS = ["koebe", "sector:1.5", "cardioid", "koebe*moebius:0.9,0.2,1",
              "sector:0.4*moebius:-0.5,0.6,2", "cardioid*moebius:-0.6,0.2,2"]
#: a map with two cells far from its singular points whose charts fold anyway
FOLD_MAP = "cardioid*moebius:0.5117708699237223,0.08382085208048248,3.2004601267299093"


class TestForwardPatch:
    @pytest.mark.parametrize("patch", [(0.0, 0.8), (0.3, 0.7)], ids=["disc", "annulus"])
    @pytest.mark.parametrize("name", PATCH_MAPS)
    def test_charted_cells(self, monkeypatch, name, patch):
        pair = make_pair(name)
        charted = []
        chart_edges = operators._chart_edges

        def recording(pair, cells, rows):
            charted.extend(map(tuple, cells[:, :4].tolist()))
            return chart_edges(pair, cells, rows)

        monkeypatch.setattr(operators, "_chart_edges", recording)
        isometry_check(pair, harmonic_poly(1), patch=patch)
        assert sorted(charted) == sorted(reference_patch_cells(pair, *patch))

    @pytest.mark.parametrize("patch", [(0.0, 0.8), (0.3, 0.7)], ids=["disc", "annulus"])
    @pytest.mark.parametrize("name", PATCH_MAPS)
    def test_only_the_last_block_is_partial(self, monkeypatch, name, patch):
        """The refined cells are charted in full blocks; only the last block is partial."""
        blocks = []
        invert_many = ConformalPair.invert_many

        def recording(pair, z):
            blocks.append(len(z))
            return invert_many(pair, z)

        monkeypatch.setattr(ConformalPair, "invert_many", recording)
        isometry_check(make_pair(name), harmonic_poly(1), patch=patch)
        assert blocks[:-1] == [operators._BLOCK_CELLS] * (len(blocks) - 1)
        assert 0 < blocks[-1] <= operators._BLOCK_CELLS

    @pytest.mark.parametrize("name, f, ratio", [
        ("koebe", harmonic_poly(1), 1.0000000399867948),
        ("sector:1.5", shifted_log(), 0.9999999998962448),
        ("koebe*moebius:0.5,0.2,1", boundary_power(1.5), 0.9999999973874437),
    ])
    def test_folded_charts_are_split(self, monkeypatch, name, f, ratio):
        """Without proximity refinement some charts fold and take the split branch."""
        monkeypatch.setattr(operators, "PROXIMITY_CAP", math.inf)
        pair = make_pair(name)
        cells = np.array(reference_patch_cells(pair, 0.0, 0.8))
        assert len(cells) == 8
        assert np.any(chart(pair, cells)[2] <= 0.0)
        assert isometry_check(pair, f) == pytest.approx(ratio, rel=0.0, abs=1e-12)

    def test_fold_under_refinement(self, monkeypatch):
        """Two cells far from the singular points whose charts fold anyway.

        Each one's halves are refined and charted after it; every other
        charted cell is a leaf of the reference refinement.  The ratios are
        pinned to their last bits.  While cells were refined by a lower bound
        on their distance (a 3 x 3 grid's less half the size) the blocks read
        [16, 16, 5] and only the wedge at angles (3 pi/2, 2 pi) folded; the
        exact distance keeps larger leaves, and the quadrant at (0, pi/2) is
        now a leaf that folds too.
        """
        pair = make_pair(FOLD_MAP)
        wedges = [(0.0, 0.4, 0.0, 1.5707963267948966),
                  (0.0, 0.4, 4.71238898038469, 6.283185307179586)]
        charted, blocks = [], []
        chart_edges, chart_nodes = operators._chart_edges, operators._chart_nodes

        def recording_edges(pair, cells, rows):
            charted.extend(map(tuple, cells[:, :4].tolist()))
            return chart_edges(pair, cells, rows)

        def recording_nodes(terms, rows):
            blocks.append(terms.shape[1])
            return chart_nodes(terms, rows)

        monkeypatch.setattr(operators, "_chart_edges", recording_edges)
        monkeypatch.setattr(operators, "_chart_nodes", recording_nodes)
        # re-pinned when the disc side became each function's closed-form energy,
        # and when cells were refined by their exact distance (boundary_power:1.5
        # from 1.0000000000000004, shifted_log from 1.0000000000000002)
        ratios = {"harmonic_poly:1": 1.0000000000000002,
                  "boundary_power:1.5": 1.0000000000000002,
                  "shifted_log": 1.0000000000000004}
        reference = reference_patch_cells(pair, 0.0, 0.8)
        for f in isometry_family():
            charted.clear()
            blocks.clear()
            assert isometry_check(pair, f) == ratios[f.name]
            assert blocks == [16, 16]
            rest = [c for c in charted if c not in wedges]
            for wedge in wedges:
                assert charted.count(wedge) == 1
                k = charted.index(wedge)
                inside = [c for c in rest if c[0] >= wedge[0] and c[1] <= wedge[1]
                          and c[2] >= wedge[2] and c[3] <= wedge[3]]
                assert inside and all(charted.index(c) > k for c in inside)
                # the halves' leaves tile the wedge
                area = sum((rb * rb - ra * ra) * (tb - ta) for ra, rb, ta, tb in inside)
                assert area == pytest.approx((wedge[1] ** 2 - wedge[0] ** 2)
                                             * (wedge[3] - wedge[2]), rel=1e-14)
                rest = [c for c in rest if c not in inside]
            assert sorted(rest) == sorted(c for c in reference if c not in wedges)

    def test_fold_at_the_last_level_raises(self, monkeypatch):
        monkeypatch.setattr(operators, "PROXIMITY_CAP", math.inf)
        monkeypatch.setattr(operators, "_MAX_SPLIT_DEPTH", 1)
        with pytest.raises(RuntimeError, match=r"degenerate forward chart on cell "
                                               r"\(0\.4, 0\.8, 0\.0, 0\.785"):
            isometry_check(koebe_map(), harmonic_poly(1))

    def test_failed_inversion_names_point_map_and_cell(self, monkeypatch):
        """With residual and step targets of 0 chart nodes fail to invert; the first cell is named."""
        monkeypatch.setattr(catalog, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(catalog, "STEP_TOL", 0.0)
        message = ("forward-patch inversion failed at z=(-6.8233094521657e-05"
                   "+0.0021546690265843438j) (map cardioid, cell (0.0, 0.4, "
                   "1.5707963267948966, 3.141592653589793))")
        with pytest.raises(NewtonConvergenceError, match=f"^{re.escape(message)}$"):
            isometry_check(make_pair("cardioid"), harmonic_poly(1))

    def test_inversion_does_not_depend_on_batch(self):
        pair = koebe_map()
        cells = np.array(reference_patch_cells(pair, 0.0, 0.8))[[0, -1]]
        z = chart(pair, cells)[0]
        # a point on the slit, outside the image domain, never converges, and
        # the origin is inverted without a Newton step
        z = np.concatenate([z.ravel(), [-1.0 + 0j, 0j]])
        w, ok, dw = pair.invert_many(z)
        assert ok[:-2].all() and not ok[-2] and ok[-1] and w[-1] == 0.0
        parts = [pair.invert_many(z[s])
                 for s in (slice(0, 256), slice(256, 512), slice(512, None))]
        assert np.array_equal(w, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(ok, np.concatenate([p[1] for p in parts]))
        assert np.array_equal(dw, np.concatenate([p[2] for p in parts]))

    @pytest.mark.parametrize("name", PATCH_MAPS)
    def test_chart_matches_the_reference(self, name):
        """The rank-4 chart against the chart as first written, on refined and folded cells.

        Nodes and weights agree to 1e-14 relative in the 2-norm over each
        cell.  Node by node the weights of a sheared cell can differ by more:
        on Koebe's cell (0.75, 0.8, 2.945, 3.043) the two charts' weights are
        up to 3.3e-14 and 3.4e-14 of the largest weight away from the same
        chart in long double.
        """
        pair = make_pair(name)
        cells = np.array(reference_patch_cells(pair, 0.0, 0.8) + reference_patch_cells(pair, 0.3, 0.7)
                         + seed_cells(0.0, 0.8) + seed_cells(0.3, 0.7))
        z, weights, jac_min = chart(pair, cells)
        z_ref, weights_ref, jac_min_ref = reference_coons_grid(pair, cells, 16)
        for new, ref in ((z, z_ref), (weights, weights_ref)):
            norm = np.linalg.norm(ref.reshape(len(cells), -1), axis=1)
            assert np.all(np.linalg.norm((new - ref).reshape(len(cells), -1), axis=1) <= 1e-14 * norm)
        assert np.array_equal(np.sign(jac_min), np.sign(jac_min_ref))

    def test_reference_cells_include_folded_charts(self):
        folded = [name for name in PATCH_MAPS
                  if np.any(reference_coons_grid(make_pair(name), np.array(seed_cells(0.0, 0.8)),
                                                 16)[2] <= 0.0)]
        assert folded

    @pytest.mark.parametrize("name", PATCH_MAPS + [FOLD_MAP])
    def test_chart_does_not_depend_on_block(self, name):
        """A cell's chart is the same bits alone, in a block, and sliced from a whole patch's edges.

        The folded map's folded leaves are split and refined, and their
        leaves charted as one batch, as the forward patch charts them.
        """
        pair = make_pair(name)
        leaves = np.array(reference_patch_cells(pair, 0.0, 0.8))
        cells = leaves[:operators._BLOCK_CELLS]
        block = chart(pair, cells)
        for k in range(len(cells)):
            alone = chart(pair, cells[k:k + 1])
            for a, b in zip(alone, block):
                assert a[0].tobytes() == b[k].tobytes()
        assert_sliced_as_alone(pair, leaves)
        folded = [(*cell, 0.0) for cell, jac_min in zip(leaves.tolist(), chart(pair, leaves)[2])
                  if jac_min <= 0.0]
        assert bool(folded) == (name == FOLD_MAP)
        if folded:
            halves = operators._refined_cells(operators._split_cells(folded), pair.singular_polar)
            assert_sliced_as_alone(pair, np.array(halves))

    @pytest.mark.parametrize("name, blocks, edge_calls", [("koebe", 3, 1), (FOLD_MAP, 2, 2)])
    def test_edges_are_mapped_once_per_check(self, monkeypatch, name, blocks, edge_calls):
        """One check maps chart edges once, plus once per batch of folded halves.

        Koebe's 44 leaves are charted in three blocks with one edge call; the
        folded map's two folded leaves, both in its first block, add one batch
        of halves.  The Gauss-Legendre rule is read once per check.
        """
        calls = []
        pair = make_pair(name)
        psi_dpsi = pair.psi_dpsi

        def spy(w):
            # the pair's own set-up passes a scalar
            if np.ndim(w) == 3:
                calls.append(w.shape)
            return psi_dpsi(w)

        gauss = []

        def counting_gauss(n):
            gauss.append(n)
            return _gauss(n)

        monkeypatch.setattr(operators, "_gauss", counting_gauss)
        isometry_check(dataclasses.replace(pair, psi_dpsi=spy), harmonic_poly(1))
        n = operators._CHART_ORDER
        # chart edges are (4, C, n + 2) nodes, and each block's inversion maps its (C, n, n) nodes
        assert sum(shape[-1] == n + 2 for shape in calls) == edge_calls
        assert sum(shape[-1] == n for shape in calls) == blocks
        assert gauss == [n]


def sampled_cell_distance(cell, s, n=1001, rounds=3):
    """Distance from a polar cell to s by sampling its four boundary curves.

    Each curve (both radial edges, both arcs) is sampled at n points, then
    again between the neighbours of its nearest sample, ``rounds`` times.
    s is given in polar form ``(rho, phi)``, as the refinement reads it.
    The samples and s are formed in long double: next to the circle a
    float64 difference of two nearby points keeps only about 1e-13 of
    their distance.
    """
    ra, rb, ta, tb = (np.longdouble(v) for v in cell)
    rho, phi = s
    s = rho * np.exp(1j * np.longdouble(phi))
    curves = [lambda x, t=t: (ra + (rb - ra) * x) * np.exp(1j * t) for t in (ta, tb)]
    curves += [lambda x, r=r: r * np.exp(1j * (ta + (tb - ta) * x)) for r in (ra, rb)]
    best = math.inf
    for curve in curves:
        lo, hi = np.longdouble(0.0), np.longdouble(1.0)
        for _ in range(rounds):
            x = np.linspace(lo, hi, n)
            dist = np.abs(s - curve(x))
            k = int(np.argmin(dist))
            best = min(best, float(dist[k]))
            lo, hi = x[max(k - 1, 0)], x[min(k + 1, n - 1)]
    return best


#: a polar cell inside the disc: radii ra < rb < 1, and angles ta < tb at most a quadrant apart
CELLS = st.builds(lambda ra, dr, ta, dt: (ra, ra + dr * (0.999 - ra), ta, ta + dt),
                  st.floats(0.0, 0.99), st.floats(1e-3, 1.0),
                  st.floats(0.0, 2.0 * math.pi), st.floats(1e-3, math.pi / 2.0))
#: singular points on the circle and poles off it, in polar form (rho, phi) at any angle
LOCATIONS = st.tuples(st.one_of(st.just(1.0), st.floats(1.0, 8.0)),
                      st.floats(0.0, 2.0 * math.pi))


class TestRefinement:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cell=CELLS, singular=st.lists(LOCATIONS, min_size=1, max_size=3))
    # the location at the cell's edge angle, 0.001 outside it: float64 sampling read 3.9e-14 low
    @example(cell=(0.0, 0.9989900100000001, 0.0, 1.0), singular=[(1.0, 1.0)])
    def test_proximity_is_exact(self, cell, singular):
        """Size over the cell's distance to its nearest location, as boundary sampling finds it.

        Sampling can only miss the nearest point, so the proximity may not
        read below the sampled one beyond rounding: no cell is under-refined.
        """
        ra, rb, ta, tb = cell
        size = max(rb - ra, rb * (tb - ta))
        sampled = size / min(sampled_cell_distance(cell, s) for s in singular)
        proximity = operators._cell_proximity(cell, singular)
        assert isinstance(proximity, float)
        assert sampled * (1.0 - 1e-14) <= proximity <= sampled * (1.0 + 1e-9)

    @pytest.mark.parametrize("name, leaves", [
        ("koebe", 44), ("sector:1.5", 44), ("cardioid*moebius:-0.6,0.2,2", 29)])
    def test_leaf_counts(self, name, leaves):
        """The refinement of patch (0, 0.8), pinned: a rule that adds cells fails here.

        Refined by a lower bound on each cell's distance (a 3 x 3 grid's less
        half the size, at a cap of 1.0) the counts read 56, 56 and 34.  Every
        leaf meets the cap at its exact distance, or is ``_MAX_SPLIT_DEPTH``
        splits deep.
        """
        pair = make_pair(name)
        singular = [sp.location for sp in pair.singular_points] + [1.0 / c for c, _ in pair.poles]
        seeds = [seed + (0.0,) for seed in seed_cells(0.0, 0.8)]
        cells = operators._refined_cells(seeds, pair.singular_polar)
        assert len(cells) == leaves
        for cell in cells:
            ra, rb, ta, tb, depth = cell
            dist = min(reference_cell_distance((ra, rb, ta, tb), s) for s in singular)
            assert max(rb - ra, rb * (tb - ta)) <= operators.PROXIMITY_CAP * dist * (1.0 + 1e-14) \
                or depth == operators._MAX_SPLIT_DEPTH


#: the benchmark's grid of p, and one that holds p = inf
P_GRIDS = [(2.5, 3.0, 4.0, 6.0, 10.0), (2.5, 3.0, math.inf)]


def same_bits(a: float, b: float) -> bool:
    return repr(a) == repr(b)


class TestOneIntegralPerReport:
    """Both duality routes, and every row of an equivalence table, rest on one disc integral."""

    @pytest.fixture
    def integrals(self, monkeypatch):
        calls = []
        integrate = functionals._integrate_polar

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(functionals, "_integrate_polar", counted)
        return calls

    @pytest.mark.parametrize("pq", [(4.0, 3.0), (4.0, 2.5), (7.3, 1.1)])
    def test_duality(self, integrals, pq):
        duality_check(koebe_map(), *pq)
        assert len(integrals) == 1

    @pytest.mark.parametrize("grid", P_GRIDS, ids=["p-grid", "p-inf"])
    def test_equivalence(self, integrals, grid):
        table = equivalence_table(koebe_map(), 2.5, grid)
        assert len(integrals) == 1
        assert len(table.rows) == len(grid)

    def test_a_refused_row_integrates_nothing(self, integrals):
        """A row whose q falls below 1 is refused before the integral, as kpq_functional does."""
        with pytest.raises(RegimeError, match="q must be >= 1"):
            equivalence_table(koebe_map(), 0.5, [3.0, 10.0])
        assert integrals == []


class TestDuality:
    @staticmethod
    def assert_one_integral(pair, res):
        """``value`` is the inverse integral at the direct exponent, bit for bit, and its verdict."""
        est = inverse_brennan_integral(pair, res.exponent_direct).integral
        assert same_bits(res.value, est.limit)
        assert res.lhs_classification is res.rhs_classification is est.classification
        assert abs(res.exponent_dual - res.exponent_direct) \
            <= IDENTITY_TOL * max(1.0, abs(res.exponent_direct))

    def test_identity_unit_derivative(self):
        res = duality_check(identity_map(), 4.0, 3.0)
        assert res.value == pytest.approx(math.pi, rel=1e-10)
        self.assert_one_integral(identity_map(), res)
        assert res.agree

    def test_koebe_shared_divergence(self):
        # shared exponent -4: |psi'|^-4 has exponent -4 at w = -1, beyond -2
        res = duality_check(koebe_map(), 4.0, 3.0)
        assert res.exponent_direct == pytest.approx(-4.0)
        assert res.lhs_classification is Classification.DIVERGING
        assert res.rhs_classification is Classification.DIVERGING
        assert res.agree
        assert res.value == math.inf

    def test_inconclusive_sides_are_inf_and_do_not_agree(self):
        """An undecided verdict is not agreement: agree needs a decided one."""
        res = duality_check(koebe_map(), 4.0, 3.0, GradingSpec(eps_min=0.5))
        assert res.lhs_classification is Classification.INCONCLUSIVE
        assert res.rhs_classification is Classification.INCONCLUSIVE
        assert res.value == math.inf
        assert not res.agree

    def test_cardioid_q_two_degeneracy(self):
        res = duality_check(make_pair("cardioid"), 3.0, 2.0)
        assert res.exponent_direct == pytest.approx(0.0)
        assert res.value == pytest.approx(math.pi, rel=1e-10)
        assert res.agree

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("pq", [(4.0, 3.0), (3.0, 2.0), (2.5, 1.5)])
    def test_verdicts_agree_across_catalog(self, name, pq):
        pair = make_pair(name)
        res = duality_check(pair, *pq)
        assert res.agree
        self.assert_one_integral(pair, res)

    @pytest.mark.parametrize("pq", [(4.0, 3.0), (3.0, 2.5), (7.3, 1.1)])
    def test_exponents_evaluated_once(self, pq, monkeypatch):
        """The check's two exponents are the two closed forms, each evaluated once."""
        from brennanlab import exponents

        p, q = pq
        calls = []
        direct = exponents.dual_exponent

        def counted(p, q):
            calls.append((p, q))
            return direct(p, q)

        monkeypatch.setattr(exponents, "dual_exponent", counted)
        res = duality_check(identity_map(), p, q)
        assert calls == [(p, q)]
        q_conj, p_conj = q / (q - 1.0), p / (p - 1.0)
        assert (res.q_conj, res.p_conj) == (q_conj, p_conj) == exponents.dual_pair(p, q)
        assert res.exponent_direct == p * (2.0 - q) / (p - q)
        assert res.exponent_dual == (q_conj - 2.0) * p_conj / (q_conj - p_conj)

    def test_regime_validation(self):
        with pytest.raises(RegimeError):
            duality_check(koebe_map(), 3.0, 1.0)
        with pytest.raises(RegimeError):
            duality_check(koebe_map(), math.inf, 2.0)


class TestEquivalenceTable:
    @staticmethod
    def assert_one_integral(pair, s, table):
        """Every row reads the one Brennan integral at s, bit for bit, and its own round trip."""
        est = brennan_integral(pair, s).integral
        for row in table.rows:
            assert same_bits(row.integral_value, est.value)
            assert row.classification is est.classification
            power = 1.0 / row.q if row.p == math.inf else (row.p - row.q) / (row.p * row.q)
            assert same_bits(row.kpq_value, est.limit ** power)
            assert row.s_roundtrip == s_from_pq(row.p, row.q)
        spread = max(abs(row.s_roundtrip - s) for row in table.rows) / max(1.0, abs(s))
        assert same_bits(table.integral_spread, spread)

    def test_koebe_one_integral_many_rows(self):
        self.assert_koebe_rows(P_GRIDS[0])

    def test_koebe_one_integral_with_p_inf(self):
        self.assert_koebe_rows(P_GRIDS[1])

    def assert_koebe_rows(self, grid):
        table = equivalence_table(koebe_map(), 2.5, grid)
        assert all(row.classification is Classification.CONVERGED for row in table.rows)
        assert table.integral_spread <= IDENTITY_TOL
        assert table.consistent
        self.assert_one_integral(koebe_map(), 2.5, table)
        for row in table.rows:
            assert row.q < row.p
            assert row.s_roundtrip == pytest.approx(2.5, abs=1e-12)
            assert math.isfinite(row.kpq_value)

    def test_koebe_outside_range_all_diverge(self):
        table = equivalence_table(koebe_map(), 4.1, [2.5, 3.0, 4.0])
        assert all(row.classification is Classification.DIVERGING for row in table.rows)
        assert table.consistent
        assert all(row.kpq_value == math.inf for row in table.rows)
        self.assert_one_integral(koebe_map(), 4.1, table)

    def test_inconclusive_table_is_not_consistent(self):
        table = equivalence_table(koebe_map(), 2.5, [2.5, 3.0], GradingSpec(eps_min=0.5))
        assert all(row.classification is Classification.INCONCLUSIVE for row in table.rows)
        assert all(row.kpq_value == math.inf for row in table.rows)
        assert not table.consistent

    def test_exponent_spread_past_the_identity_tolerance_is_not_consistent(self):
        table = equivalence_table(koebe_map(), 2.5, [2.5, 3.0])
        assert not dataclasses.replace(table, integral_spread=2.0 * IDENTITY_TOL).consistent

    def test_identity_integral_is_area(self):
        table = equivalence_table(identity_map(), 3.0, [3.0, 4.0])
        assert all(row.classification is Classification.CONVERGED for row in table.rows)
        for row in table.rows:
            assert row.integral_value == pytest.approx(math.pi, abs=1e-8)
