import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brennanlab import catalog, quadrature
from brennanlab.catalog import TWO_PI_LO, make_pair
from brennanlab.functionals import brennan_integral
from brennanlab.quadrature import (
    DEFAULT_SPEC,
    EPS_START,
    TWO_PI,
    _BLOCK_NODES,
    Classification,
    GradingSpec,
    InvalidGradingError,
    NonFiniteIntegrandError,
    _angular_rules,
    _build_tables,
    _complex_integrand,
    _gap_ladder,
    _gauss,
    _graded_sums,
    _ring_sum,
    _spec_rule,
    _tail,
    integrate_disc,
)


def boundary_power_integrand(t):
    """|1 - w|^t, singular at the boundary point w = 1."""
    return lambda w: np.abs(1.0 - w) ** t


def exact_boundary_power(t):
    """Closed form of the disc integral of |1 - w|^t for t > -2.

    Shifting to u = 1 - w turns the disc into {rho < 2 cos(phi)}, where the
    polar integral evaluates to 2^(t+2)/(t+2) * B(1/2, (t+3)/2).
    """
    return (2.0 ** (t + 2.0) / (t + 2.0) * math.sqrt(math.pi)
            * math.gamma((t + 3.0) / 2.0) / math.gamma((t + 4.0) / 2.0))


class TestExactness:
    def test_unit_integrand_gives_disc_area(self):
        est = integrate_disc(lambda w: np.ones(w.shape))
        assert est.classification is Classification.CONVERGED
        assert est.value == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("k", range(6))
    def test_radial_monomials(self, k):
        est = integrate_disc(lambda w: np.abs(w) ** (2 * k))
        assert est.value == pytest.approx(math.pi / (k + 1), abs=1e-12)

    @pytest.mark.parametrize("t", [-1.9, -1.5, -1.0, -0.5])
    def test_boundary_power_closed_form(self, t):
        est = integrate_disc(boundary_power_integrand(t), singular_angles=[0.0])
        assert est.classification is Classification.CONVERGED
        assert est.value == pytest.approx(exact_boundary_power(t), rel=1e-5)

    def test_exact_value_four(self):
        # the t = -1 integral is exactly 4
        est = integrate_disc(boundary_power_integrand(-1.0), singular_angles=[0.0])
        assert est.value == pytest.approx(4.0, rel=1e-7)


class TestThresholdSharpness:
    @pytest.mark.parametrize("t", [-1.9, -1.5, -1.0])
    def test_convergent_side(self, t):
        est = integrate_disc(boundary_power_integrand(t), singular_angles=[0.0])
        assert est.classification is Classification.CONVERGED

    @pytest.mark.parametrize("t", [-2.0, -2.5])
    def test_divergent_side(self, t):
        est = integrate_disc(boundary_power_integrand(t), singular_angles=[0.0])
        assert est.classification is Classification.DIVERGING

    def test_slope_tracks_exponent(self):
        # increments scale like eps^(t+2), so the fitted slope is -(t+2)
        est = integrate_disc(boundary_power_integrand(-1.5), singular_angles=[0.0])
        assert est.fitted_slope == pytest.approx(-0.5, abs=0.02)


class TestMonteCarloAgreement:
    def test_boundary_singularity(self):
        g = boundary_power_integrand(-1.0)
        est = integrate_disc(g, singular_angles=[0.0])
        rng = np.random.default_rng(20250810)
        total = 0.0
        n = 10_000_000
        for _ in range(10):
            r = np.sqrt(rng.random(n // 10))
            theta = 2.0 * math.pi * rng.random(n // 10)
            total += float(np.sum(g(r * np.exp(1j * theta))))
        mc = math.pi * total / n
        assert est.value == pytest.approx(mc, rel=0.01)


class TestEstimateInvariants:
    @pytest.mark.parametrize("g,angles", [
        (lambda w: np.ones(w.shape), ()),
        (boundary_power_integrand(-1.5), (0.0,)),
        (boundary_power_integrand(-1.9), (0.0,)),
    ])
    def test_converged_tail_is_small(self, g, angles):
        est = integrate_disc(g, singular_angles=angles)
        assert est.classification is Classification.CONVERGED
        assert est.abs_error_estimate >= 0.0
        assert est.tail_estimate <= 0.01 * abs(est.value) or est.tail_estimate < 1e-12

    def test_truncation_eps_recorded(self):
        spec = GradingSpec(eps_min=1e-6)
        est = integrate_disc(lambda w: np.ones(w.shape), spec=spec)
        assert est.truncation_eps == 1e-6
        assert 0.0 < est.truncation_eps <= 0.5

    def test_determinism(self):
        g = boundary_power_integrand(-1.5)
        a = integrate_disc(g, singular_angles=[0.0]).value
        b = integrate_disc(g, singular_angles=[0.0]).value
        assert a == b


def ladder_increments(t):
    """Per-annulus increments of |1 - w|^t on the default gap ladder, with their outer gaps."""
    _, increments, gaps = _graded_sums(_complex_integrand(boundary_power_integrand(t)), [0.0],
                                       DEFAULT_SPEC)
    return np.array(increments), np.array((EPS_START, *gaps[:-1]))


def tail_of(samples):
    """_tail's verdict and slope on the increments of truncated values ``(eps, value)``."""
    eps, values = np.array(samples).T
    return _tail(np.diff(values), eps[1:], 1e-15 * np.max(np.abs(values)))[:2]


class TestTruncated:
    """The truncated sums of one gap ladder."""

    def test_half_disc_area(self):
        core, increments, _ = _graded_sums(_complex_integrand(lambda w: np.ones(w.shape)), (),
                                           GradingSpec(eps_min=EPS_START))
        assert increments == []
        assert core == pytest.approx(math.pi * 0.25, abs=1e-9)

    def test_small_eps_approaches_area(self):
        core, increments, _ = _graded_sums(_complex_integrand(lambda w: np.ones(w.shape)), (),
                                           DEFAULT_SPEC)
        assert core + math.fsum(increments) == pytest.approx(math.pi, abs=1e-7)

    def test_monotone_in_eps(self):
        increments, _ = ladder_increments(-1.5)
        assert np.all(increments > 0.0)

    def test_log_divergence_growth(self):
        """At the threshold exponent the truncated values grow like log(1/eps)."""
        increments, outer_gaps = ladder_increments(-2.0)
        assert np.all(increments > 0.0)
        # per-halving increments approach a constant within 0.1 of the circle
        inner = increments[outer_gaps <= 0.1]
        ratios = inner[1:] / inner[:-1]
        assert np.all(np.abs(ratios - 1.0) < 0.15)


class TestClassifyTail:
    """The one tail rule on the increments of truncated values."""

    def test_constant_samples(self):
        samples = [(0.1, 2.0), (0.05, 2.0), (0.025, 2.0), (0.0125, 2.0)]
        verdict, slope = tail_of(samples)
        assert verdict is Classification.CONVERGED
        assert slope == 0.0

    def test_logarithmic_growth(self):
        eps = [0.1 * 2.0 ** (-k) for k in range(6)]
        samples = [(e, math.log(1.0 / e)) for e in eps]
        verdict, slope = tail_of(samples)
        assert verdict is Classification.DIVERGING
        assert abs(slope) < 0.05

    def test_power_law_convergence(self):
        eps = [0.1 * 2.0 ** (-k) for k in range(6)]
        samples = [(e, 5.0 - 2.0 * math.sqrt(e)) for e in eps]
        verdict, slope = tail_of(samples)
        assert verdict is Classification.CONVERGED
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_falling_values_are_inconclusive(self):
        """The integrands are nonnegative, so a value that falls has no tail to classify."""
        samples = [(0.1, 2.0), (0.05, 2.5), (0.025, 2.25), (0.0125, 2.3), (0.00625, 2.35)]
        verdict, slope = tail_of(samples)
        assert verdict is Classification.INCONCLUSIVE
        assert math.isnan(slope)


class TestValidation:
    def test_non_finite_integrand(self):
        def g(w):
            # overflows to inf at interior nodes
            return np.where(np.abs(w) < 0.9, np.inf, 1.0)

        with pytest.raises(NonFiniteIntegrandError):
            integrate_disc(g)

    def test_invalid_spec(self):
        with pytest.raises(InvalidGradingError):
            integrate_disc(lambda w: np.ones(w.shape), spec=GradingSpec(eps_min=0.0))
        with pytest.raises(InvalidGradingError):
            integrate_disc(lambda w: np.ones(w.shape), spec=GradingSpec(annulus_ratio=1.5))

    @pytest.mark.parametrize("field, value, message", [
        ("radial_order", 1, "radial_order must be at least 2"),
        ("angular_base", 4, "angular_base must be at least 8"),
        ("angular_boost", 1, "angular_boost must be at least 2"),
        # 1 - 5e-17 rounds to 1.0: the last ring would reach the circle
        ("eps_min", 5e-17, "rounds a radius 1 - gap of the gap ladder to 1.0"),
        # counted from the ratio, so the 17.7 million gaps are never made
        ("annulus_ratio", 0.999999, "needs 17727525 annuli, more than 10000"),
    ])
    def test_spec_is_checked_when_made(self, field, value, message):
        with pytest.raises(InvalidGradingError, match=message):
            GradingSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [("eps_min", 5e-17), ("eps_min", 6e-17),
                                              ("annulus_ratio", 0.999999)])
    def test_ladder_faults_are_raised_by_the_ladder(self, field, value):
        """Both ladder faults come from _gap_ladder itself, which GradingSpec calls when made."""
        with pytest.raises(InvalidGradingError) as info:
            GradingSpec(**{field: value})
        assert info.traceback[-1].name == "_gap_ladder"


@functools.lru_cache(maxsize=None)
def reference_gauss(n):
    """The Newton solve of _gauss, node by node in Python floats.

    Each node in [0, 1) starts from Tricomi's guess and takes four Newton
    steps on the three-term recurrence, the middle node of an odd n is 0,
    and each weight is carried to first order to the root; the other half
    is the mirror image.
    """
    def legendre(x):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        one = (1.0 - x) * (1.0 + x)
        return p1, n * (p0 - x * p1) / one, one

    nodes, weights = [], []
    for k in range(1, n // 2 + 1 + n % 2):
        t = (4 * k - 1) * math.pi / (4 * n + 2)
        x = 0.0 if 2 * k > n else (
            (1.0 - (n - 1) / (8.0 * n ** 3) - (39.0 - 28.0 / math.sin(t) ** 2) / (384.0 * n ** 4))
            * math.cos(t))
        for _ in range(4):
            p, dp, _ = legendre(x)
            x = x - p / dp
        p, dp, one = legendre(x)
        nodes.append(x)
        weights.append(2.0 / (one * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one))
    mirror = slice(None, None, -1) if n % 2 == 0 else slice(-2, None, -1)
    return (np.array([0.0 - x for x in nodes] + nodes[mirror]),
            np.array(weights + weights[mirror]))


def reference_angular_rule(singular_angles, scale, spec, gauss=reference_gauss):
    """The angular rule built side by side, as a reference for the array builder.

    Without singular angles: equal panels with ``np.linspace`` ends.  With
    them: the sinh map on each side of each angle.  Both branches take
    their Gauss-Legendre tables from ``gauss``, :func:`reference_gauss` by
    default.
    """
    if not singular_angles:
        x, w = gauss(spec.angular_boost)
        edges = np.linspace(0.0, TWO_PI, max(8, spec.angular_base // spec.angular_boost) + 1)
        halves = [0.5 * (b - a) for a, b in zip(edges[:-1], edges[1:])]
        return (np.concatenate([a + h * (x + 1.0) for a, h in zip(edges[:-1], halves)]),
                np.concatenate([h * w for h in halves]))
    theta, weights = [], []
    angles = sorted(a % TWO_PI for a in singular_angles)
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)] if len(angles) > 1 else a + TWO_PI
        if b <= a:
            b += TWO_PI
        mid = 0.5 * (a + b)
        for origin, length, sign in ((a, mid - a, 1.0), (b, b - mid, -1.0)):
            if length <= 0.0:
                continue
            stop = np.arcsinh(length / scale)
            n = math.ceil(0.5 * spec.angular_boost * stop) + spec.angular_base // 4
            x, w = gauss(n)
            half = 0.5 * stop
            u = half * (x + 1.0)
            theta.append(origin + sign * (scale * np.sinh(u)))
            weights.append(scale * np.cosh(u) * (half * w))
    return np.concatenate(theta), np.concatenate(weights)


#: the three grading specs of the scan-cold benchmark workload
SCAN_SPECS = (GradingSpec(), GradingSpec(eps_min=1e-12), GradingSpec(angular_base=128))


class TestGauss:
    """The one table: every node within 2^-53 of its root, every weight within 2e-13.

    numpy's leggauss nodes reach 8e-17 of their roots; its weights miss the
    weight bound at n = 48.
    """

    SIZES = [2, 3, 5, 8, 16, 17, 48, 64, 101, 134, 199, 260, 300]

    @pytest.mark.parametrize("n", SIZES)
    def test_table_against_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        x, w = _gauss(n)
        assert np.all(x[1:] > x[:-1]) and np.array_equal(x, -x[::-1])
        with mpmath.workdps(40):
            for xi, wi in zip(x.tolist(), w.tolist()):
                # Newton from the float node to the root, then the weight there
                t = mpmath.mpf(xi)
                for _ in range(3):
                    p, q = mpmath.legendre(n, t), mpmath.legendre(n - 1, t)
                    t -= p * (t * t - 1) / (n * (t * p - q))
                assert abs(t - xi) <= 2.0 ** -53
                exact = 2 * (1 - t * t) / (n * mpmath.legendre(n - 1, t)) ** 2
                assert abs(wi / float(exact) - 1.0) <= 2e-13

    @pytest.mark.parametrize("n", range(2, 301))
    def test_matches_the_scalar_solve(self, n, monkeypatch):
        """A table built on its own, with an empty table to start from."""
        monkeypatch.setattr(quadrature, "_TABLES", {})
        x, w = _gauss(n)
        ref_x, ref_w = reference_gauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable
        assert list(quadrature._TABLES) == [n]

    def test_batched_pass_matches_the_scalar_solve(self, monkeypatch):
        """Every table of one pass over n = 2...300 is the scalar solve's, bit for bit."""
        monkeypatch.setattr(quadrature, "_TABLES", {})
        _build_tables(range(300, 1, -1))
        assert sorted(quadrature._TABLES) == list(range(2, 301))
        for n in range(2, 301):
            x, w = _gauss(n)
            ref_x, ref_w = reference_gauss(n)
            assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w), n
            assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=["default", "eps1e-12", "base128"])
    def test_one_pass_per_spec(self, spec, monkeypatch):
        """A spec's first integral builds its tables in one pass; a second integral builds none.

        A pass is ``_NEWTON_STEPS + 1`` calls of the recurrence over all of
        its nodes at once.  Koebe's sizes all lie in the spec's range.
        """
        calls = []

        def counted(n, x):
            calls.append(len(set(n.tolist())))
            return legendre(n, x)

        legendre = quadrature._legendre
        monkeypatch.setattr(quadrature, "_legendre", counted)
        monkeypatch.setattr(quadrature, "_TABLES", {})
        quadrature._spec_rule.cache_clear()
        pair = make_pair("koebe")
        try:
            first = brennan_integral(pair, 2.5, spec)
            sizes = len(quadrature._TABLES)
            assert calls == [sizes] * (quadrature._NEWTON_STEPS + 1)
            assert sizes > 80
            calls.clear()
            assert brennan_integral(pair, 2.5, spec) == first
            assert calls == [] and len(quadrature._TABLES) == sizes
            # another map under the spec: no table, and no new ladder or rule
            misses = (_gap_ladder.cache_info().misses, _spec_rule.cache_info().misses)
            brennan_integral(make_pair("cardioid*moebius:0.5,-0.3,1"), 3.0, spec)
            assert calls == [] and len(quadrature._TABLES) == sizes
            assert (_gap_ladder.cache_info().misses, _spec_rule.cache_info().misses) == misses
        finally:
            quadrature._spec_rule.cache_clear()

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=["default", "eps1e-12", "base128"])
    def test_spec_rule_is_read_only(self, spec):
        """The spec's radial and ungraded rules are shared by its integrals: none is writable."""
        rule = _spec_rule(spec)
        assert len(rule) == 4
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0

    def test_no_eigenvalue_solver(self, monkeypatch):
        """Every table from 2 to 300 nodes is built with LAPACK's eigvalsh and leggauss refused."""
        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue solver was called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(quadrature, "_TABLES", {})
        for n in range(2, 301):
            x, w = _gauss(n)
            assert len(x) == len(w) == n
            assert math.fsum(w.tolist()) == pytest.approx(2.0, rel=0.0, abs=1e-14)


def rules_of(blocks):
    """The rules in _angular_rules' blocks, one (theta, weights) per scale."""
    for theta, wtheta, parts in blocks:
        for part in parts:
            yield theta[part], wtheta[part]


def assert_rule_nodes(theta, ref_theta):
    """The rule's angles are the reference's, bit for bit, and contiguous.

    The ring sees its nodes only through them, so this pins the nodes.
    """
    assert np.array_equal(theta, ref_theta)
    assert theta.flags.c_contiguous


def complex_grid(r, theta):
    """The ring's nodes r*exp(1j*theta), radial nodes down, by plain broadcasting."""
    return r[:, None] * np.exp(1j * theta)[None, :]


def reference_ring_sum(g, r_lo, r_hi, theta, wtheta, radial_order, polar=False):
    """The ring, node by node from the reference grid; g takes w, or is two-stage if polar.

    A two-stage g gets the ring alone as its block.
    """
    x, wx = _gauss(radial_order)
    half = 0.5 * (r_hi - r_lo)
    r, wr = r_lo + half * (x + 1.0), half * wx
    w = complex_grid(r, theta)
    vals = np.asarray(g(r[None], theta)(0, slice(None)) if polar else g(w), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise NonFiniteIntegrandError(
            f"integrand non-finite at node w={complex(w[tuple(bad)])!r}"
        )
    # polar Jacobian r folded into the radial weights; fixed reduction order
    return float((wr * r) @ vals @ wtheta)


def reduced_angles(theta, alpha):
    """theta + alpha less the nearest whole turn, each rounded once (math.fsum)."""
    turns = np.round((theta + alpha) / TWO_PI)
    return np.array([math.fsum((t, alpha, -k * TWO_PI, -k * TWO_PI_LO))
                     for t, k in zip(theta.tolist(), turns.tolist())])


def reference_abs_dpsi_power(pair, r, theta, e):
    """|psi'|^e on the grid r x theta from the factor list, factor by factor, by broadcasting.

    No matrix product: each |1 - c w|^2 is a sum of two broadcast terms, and
    the weighted logs are added in factor order.  Also returns the sum of
    the terms' magnitudes, which bounds the rounding of their sum.
    """
    rho, alpha, half_f = pair._factors
    out = np.full((len(r), len(theta)), e * pair.log_scale)
    size = np.abs(out)
    for rho_k, alpha_k, half_f_k in zip(rho[:, 0], alpha[:, 0], half_f):
        rr = rho_k * r[:, None]
        angular = np.sin(0.5 * reduced_angles(theta, alpha_k)) ** 2
        term = e * half_f_k * np.log((1.0 - rr) ** 2 + 4.0 * rr * angular)
        out += term
        size += np.abs(term)
    return np.exp(out), size


RULE_ANGLE_SETS = {
    "none": (),
    "cardioid": make_pair("cardioid").singular_angles,
    "koebe": make_pair("koebe").singular_angles,
    # two singular angles 0.063 rad apart
    "clustered": make_pair("koebe*moebius:0.95,0.2,1").singular_angles,
    "three": (0.3, 2.0, 4.5),
}
RULE_SCALES = _gap_ladder(GradingSpec(eps_min=1e-12))


class TestAngularRule:
    @pytest.mark.parametrize("spec", [GradingSpec(), GradingSpec(angular_base=128),
                                      GradingSpec(angular_boost=4)],
                             ids=["default", "base128", "boost4"])
    @pytest.mark.parametrize("name", RULE_ANGLE_SETS)
    def test_rule_over_scales(self, name, spec):
        angles = RULE_ANGLE_SETS[name]
        assert RULE_SCALES[0] == EPS_START and RULE_SCALES[-1] == 1e-12
        rules = rules_of(_angular_rules(angles, RULE_SCALES, spec))
        for scale, (rule_theta, wtheta) in zip(RULE_SCALES, rules):
            theta, ref_wtheta = reference_angular_rule(angles, scale, spec)
            assert_rule_nodes(rule_theta, theta)
            assert np.array_equal(wtheta, ref_wtheta)
            assert np.all(wtheta > 0.0)
            assert math.fsum(wtheta) == pytest.approx(TWO_PI, abs=1e-13)
            assert theta.max() - theta.min() < TWO_PI
            # grading promise: a node within `scale` of every singular angle
            for a in angles:
                dist = np.abs((theta - a + math.pi) % TWO_PI - math.pi)
                assert dist.min() <= scale


class TestCoincidingAngles:
    """Angles equal modulo 2pi are one singular angle, not one full turn each."""

    @pytest.mark.parametrize("angles, single", [
        ((1.0, 1.0), (1.0,)),
        ((1.0, 1.0 + TWO_PI), (1.0,)),
        ((0.0, TWO_PI), (0.0,)),
    ], ids=["equal", "turn-apart", "zero-and-turn"])
    def test_rule_and_area(self, angles, single):
        assert integrate_disc(lambda w: np.ones(w.shape), angles).value == pytest.approx(
            math.pi, rel=0.0, abs=1e-13)
        spec = GradingSpec()
        for rule, ref in zip(rules_of(_angular_rules(angles, RULE_SCALES, spec)),
                             rules_of(_angular_rules(single, RULE_SCALES, spec))):
            assert all(np.array_equal(a, b) for a, b in zip(rule, ref))


#: offsets of an extra angle from a drawn one: coinciding modulo 2pi, or close
ANGLE_OFFSETS = (0.0, TWO_PI, -TWO_PI, 1e-9, 1e-3)


@st.composite
def singular_angle_sets(draw):
    """0-6 angles in [-2pi, 6pi), some of them copies of others shifted by an offset."""
    angles = draw(st.lists(st.floats(-TWO_PI, 3.0 * TWO_PI), max_size=6))
    if angles:
        copies = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(ANGLE_OFFSETS)),
                               max_size=6 - len(angles)))
        angles += [angles[i % len(angles)] + offset for i, offset in copies]
    return angles


def one_per_class(angles):
    """One representative of each class of angles equal modulo 2pi, as the rule merges them."""
    return list({a % TWO_PI: a for a in angles}.values())


def assert_blocks(blocks, graded):
    """The blocks' parts tile each block in order, and each block is as full as the budget allows.

    A block holds at most _BLOCK_NODES nodes unless it is one rule, and the
    next block's first rule would not have fitted.  Without graded angles
    every block holds the one rule, and every part is all of it.
    """
    if not graded:
        theta = blocks[0][0]
        per_block = max(1, _BLOCK_NODES // len(theta))
        rings = [len(parts) for _, _, parts in blocks]
        for block, _, parts in blocks:
            assert block is theta and all(part == slice(None) for part in parts)
        assert rings[:-1] == [per_block] * (len(blocks) - 1) and 0 < rings[-1] <= per_block
        return
    sizes = []
    for theta, wtheta, parts in blocks:
        assert len(theta) == len(wtheta) == parts[-1].stop
        assert [part.start for part in parts] == [0] + [part.stop for part in parts[:-1]]
        assert len(parts) == 1 or len(theta) <= _BLOCK_NODES
        sizes.append((len(theta), parts[0].stop))
    for (size, _), (_, first) in zip(sizes, sizes[1:]):
        assert size + first > _BLOCK_NODES


class TestRuleLadder:
    """The rule builder matches the side-by-side reference, scale by scale."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(angles=singular_angle_sets(),
           base=st.sampled_from((8, 64, 128, 256)),
           boost=st.sampled_from((2, 5, 8)),
           ratio=st.sampled_from((0.3, 0.5, 0.7)),
           eps_min=st.one_of(st.just(EPS_START), st.floats(1e-12, EPS_START)))
    @example(angles=[1.0, 1.0 + TWO_PI, -TWO_PI + 1.0], base=64, boost=8, ratio=0.5, eps_min=1e-8)
    @example(angles=[2.0, 2.0 + 1e-9, 2.0 + 1e-3, -3.0, 15.0], base=256, boost=2, ratio=0.3,
             eps_min=1e-12)
    @example(angles=[0.5, 4.0], base=8, boost=5, ratio=0.7, eps_min=EPS_START)
    @example(angles=[], base=128, boost=8, ratio=0.5, eps_min=1e-8)
    # sides exactly 8*eps_min long, and just over 2^30*eps_min
    @example(angles=[0.0, 0.05581817218170551], base=64, boost=8, ratio=0.5,
             eps_min=0.0034886357613565944)
    @example(angles=[0.0, 2.0000000000000004], base=64, boost=8, ratio=0.5, eps_min=2.0 ** -30)
    # ladders of many blocks: 6 and 12 sides of about 180 nodes at the last gap
    @example(angles=[0.3, 2.0, 4.5], base=256, boost=8, ratio=0.3, eps_min=1e-12)
    @example(angles=[0.1 * k for k in range(6)], base=256, boost=5, ratio=0.7, eps_min=1e-10)
    def test_matches_reference(self, angles, base, boost, ratio, eps_min):
        spec = GradingSpec(eps_min=eps_min, annulus_ratio=ratio, angular_base=base,
                           angular_boost=boost)
        ladder = _gap_ladder(spec)
        blocks = list(_angular_rules(angles, ladder, spec))
        assert_blocks(blocks, bool(angles))
        rules = list(rules_of(blocks))
        assert len(rules) == len(ladder)
        for scale, (theta, wtheta) in zip(ladder, rules):
            ref_theta, ref_wtheta = reference_angular_rule(one_per_class(angles), scale, spec)
            assert_rule_nodes(theta, ref_theta)
            assert np.array_equal(wtheta, ref_wtheta)

    def test_rule_over_the_block_budget(self):
        """A rule of more than _BLOCK_NODES nodes is a block of its own.

        With angular_base = 16384 each side alone carries 4,096 + a few
        nodes.  The reference takes the package's table here: the scalar
        Newton solve of :func:`reference_gauss` would take seconds per
        table at this size, and :class:`TestGauss` checks the table.
        """
        spec = GradingSpec(eps_min=0.1, angular_base=16384)
        ladder = _gap_ladder(spec)
        blocks = list(_angular_rules((1.0,), ladder, spec))
        assert len(blocks) == len(ladder) == 3
        assert_blocks(blocks, True)
        for scale, (theta, wtheta, parts) in zip(ladder, blocks):
            assert parts == [slice(0, len(theta))] and len(theta) > 2 * 4096
            ref_theta, ref_wtheta = reference_angular_rule((1.0,), scale, spec, _gauss)
            assert_rule_nodes(theta, ref_theta)
            assert np.array_equal(wtheta, ref_wtheta)


class TestAngleStage:
    """g's block stage runs once per block of rules, and its ring stage once per ring."""

    @pytest.mark.parametrize("name, spec", [
        ("koebe", GradingSpec(eps_min=1e-12)),
        ("koebe*moebius:0.95,0.2,1", GradingSpec(angular_base=128)),
        ("identity", GradingSpec()),
    ], ids=["koebe-eps1e-12", "clustered-base128", "ungraded"])
    def test_once_per_block(self, name, spec, monkeypatch):
        """The radial terms too are formed once per block, for all of its rings."""
        pair = make_pair(name)
        calls = {"angle": 0, "ring": 0, "radial": 0}
        radial_terms = catalog._radial_terms

        def counted_terms(rho, r):
            calls["radial"] += 1
            return radial_terms(rho, r)

        monkeypatch.setattr(catalog, "_radial_terms", counted_terms)

        def g(r, theta):
            calls["angle"] += 1
            ring = pair.abs_dpsi_power(r, theta, -1.0)

            def counted(i, part):
                calls["ring"] += 1
                return ring(i, part)

            return counted

        _graded_sums(g, pair.grading_angles, spec)
        ladder = _gap_ladder(spec)
        blocks = len(list(_angular_rules(pair.grading_angles, ladder, spec)))
        assert calls == {"angle": blocks, "ring": len(ladder), "radial": blocks}
        assert blocks < len(ladder) / 4

    @pytest.mark.parametrize("state", [
        {"over": "warn", "invalid": "warn"}, {"over": "raise", "invalid": "ignore"},
        {"over": "ignore", "invalid": "raise"}])
    def test_non_finite_ring_mid_block_leaves_the_error_state(self, state):
        """|psi'|^152 overflows in a ring in the middle of Koebe's first block.

        NonFiniteIntegrandError leaves the ring stage there, and numpy's
        error state is what it was before the integral.
        """
        pair = make_pair("koebe")
        ladder = _gap_ladder(DEFAULT_SPEC)
        _, _, parts = next(_angular_rules(pair.grading_angles, ladder, DEFAULT_SPEC))
        rings = []

        def g(r, theta):
            ring = pair.abs_dpsi_power(r, theta, 152.0)

            def counted(i, part):
                rings.append(i)
                return ring(i, part)

            return counted

        with np.errstate(**state):
            before = np.geterr()
            with pytest.raises(NonFiniteIntegrandError, match="non-finite at node w="):
                _graded_sums(g, pair.grading_angles, DEFAULT_SPEC)
            assert np.geterr() == before
        assert 0 < rings[-1] < len(parts) - 1


class TestLongLadder:
    """annulus_ratio = 0.99 down to 1e-12 gives 2,680 annuli, built one rule at a time."""

    SPEC = GradingSpec(eps_min=1e-12, annulus_ratio=0.99)
    ANGLES = (0.0, 2.0)
    #: bytes; building the rules one at a time peaks near 1.8 MB
    PEAK_BOUND = 8_000_000

    def test_memory_and_increments(self):
        g = boundary_power_integrand(-1.0)
        tracemalloc.start()
        try:
            core, increments, _ = _graded_sums(_complex_integrand(g), self.ANGLES, self.SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ladder = _gap_ladder(self.SPEC)
        assert len(increments) == len(ladder) - 1 > 2000
        assert peak < self.PEAK_BOUND
        # the first rings, rings through the ladder, and the last one
        for k in (0, 1, 2, 500, 1000, 2000, len(increments) - 1):
            ref = reference_ring_sum(g, 1.0 - ladder[k], 1.0 - ladder[k + 1],
                                     *reference_angular_rule(self.ANGLES, ladder[k + 1], self.SPEC),
                                     self.SPEC.radial_order)
            assert increments[k] == ref


class TestPeakResolution:
    """The rule integrates a peak of width ``gap`` at its angle to 2e-13, at every gap.

    With one angle at 0, the outward side's nodes are the offsets theta
    themselves, and the integral of gap/(theta^2 + gap^2) over [0, pi] is
    atan(pi/gap).
    """

    @pytest.mark.parametrize("spec", [GradingSpec(), GradingSpec(angular_base=128),
                                      GradingSpec(angular_boost=4)],
                             ids=["default", "base128", "boost4"])
    def test_lorentzian_peak(self, spec):
        for gap, (theta, wtheta) in zip(RULE_SCALES,
                                        rules_of(_angular_rules((0.0,), RULE_SCALES, spec))):
            side = theta < math.pi
            got = math.fsum(wtheta[side] * gap / (theta[side] ** 2 + gap ** 2))
            assert got == pytest.approx(math.atan(math.pi / gap), rel=2e-13, abs=0.0)


class TestWholeIntegrals:
    """_graded_sums equals a per-ring loop over the reference rule and the reference grid.

    Bit for bit: the rule's angles, the ring's radial nodes and its
    reduction must reproduce the reference ring sums exactly, for
    ``|psi'|^e`` and for a complex-w integrand alike.  The ``|psi'|^e``
    values come from one batched matrix product, whose kernel may fuse
    the multiply-add that broadcasting rounds twice, so
    :meth:`test_ring_values` holds them to a few ulp of the factor-by-factor
    broadcasting reference instead.
    """

    EXPONENTS = (-1.0, 0.0, 0.3, 1.7)
    NAMES = ["koebe", "sector:1.5", "cardioid", "koebe*moebius:0.95,0.2,1",
             "cardioid*moebius:0.5,-0.3,1", "moebius:0.9,0,0",
             # a singular angle just below 2pi, at 2pi - 1e-9
             "koebe*moebius:0,0,1e-9"]

    @staticmethod
    def reference_sums(g, angles, spec, polar=False):
        ladder = _gap_ladder(spec)
        core = reference_ring_sum(g, 0.0, 1.0 - EPS_START,
                                  *reference_angular_rule(angles, EPS_START, spec),
                                  spec.radial_order, polar)
        increments = [
            reference_ring_sum(g, 1.0 - outer, 1.0 - inner,
                               *reference_angular_rule(angles, inner, spec), spec.radial_order,
                               polar)
            for outer, inner in zip(ladder[:-1], ladder[1:])]
        return core, increments, ladder[1:]

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=["default", "eps1e-12", "base128"])
    @pytest.mark.parametrize("name", NAMES)
    def test_core_and_increments(self, name, spec):
        pair = make_pair(name)
        angles = pair.grading_angles
        for e in self.EXPONENTS:
            def g(r, theta):
                return pair.abs_dpsi_power(r, theta, e)

            new = _graded_sums(g, angles, spec)
            assert new == self.reference_sums(g, angles, spec, polar=True)

    @pytest.mark.parametrize("name", NAMES)
    def test_ring_values(self, name):
        """Every ring's |psi'|^e is within rounding of the broadcasting reference, per node.

        The logs' weighted sum is rounded to a few ulp of its terms' sizes,
        and exp turns that absolute error into a relative one.
        """
        pair = make_pair(name)
        spec = SCAN_SPECS[1]
        t = _gauss(spec.radial_order)[0]
        for scale in _gap_ladder(spec):
            theta, _ = reference_angular_rule(pair.grading_angles, scale, spec)
            r = 1.0 - scale * (1.0 + 0.5 * (t + 1.0))
            for e in self.EXPONENTS:
                want, size = reference_abs_dpsi_power(pair, r, theta, e)
                got = pair.abs_dpsi_power(r[None], theta, e)(0, slice(None))
                bound = 8 * np.finfo(float).eps * (1.0 + size) * want
                assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=["default", "eps1e-12", "base128"])
    def test_complex_integrand(self, spec):
        """A complex-w integrand goes through the adapter onto the same grid."""
        g = boundary_power_integrand(-1.5)
        angles = (0.0, 2.5)
        new = _graded_sums(_complex_integrand(g), angles, spec)
        assert new == self.reference_sums(g, angles, spec)


class TestNonFiniteRing:
    """The ring checks its weighted sum, and scans the values only when that is not finite."""

    RULE = next(rules_of(_angular_rules((), [EPS_START], GradingSpec())))
    THETA, _ = reference_angular_rule((), EPS_START, GradingSpec())

    def rings(self, g):
        """The new and the reference ring of g(w) over 0 <= |w| <= 1, as (value or error)."""
        theta, wtheta = self.RULE
        out = []
        # the radial rule of the one ring 0 <= |w| <= 1, with r times its weights
        t, wt = _gauss(16)
        r = 0.5 * (t[None] + 1.0)
        rw = 0.5 * wt * r
        for ring in (lambda: _ring_sum(_complex_integrand(g)(r, theta), 0, r, rw, theta, wtheta,
                                       slice(None)),
                     lambda: reference_ring_sum(g, 0.0, 1.0, self.THETA, wtheta, 16)):
            try:
                out.append(ring())
            except NonFiniteIntegrandError as exc:
                out.append(str(exc))
        return out

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_node_is_named(self, bad):
        def g(w):
            vals = np.ones(w.shape)
            vals[3, 5] = bad
            return vals

        new, ref = self.rings(g)
        r = 0.0 + 0.5 * (_gauss(16)[0] + 1.0)
        w = complex_grid(r, self.THETA)
        assert new == ref == f"integrand non-finite at node w={complex(w[3, 5])!r}"

    def test_first_bad_node_in_row_order(self):
        # the first node with |w| > 0.6 in row-major order; its angle moved in the
        # last digits when the table's nodes came from Newton on the recurrence
        new, ref = self.rings(lambda w: np.where(np.abs(w) > 0.6, np.nan, 1.0))
        assert new == ref
        assert "0.6407238628081336+0.009992345606769294j" in new

    def test_overflowing_sum_of_finite_values(self):
        """Finite values whose weighted sum overflows give that sum, inf, as before."""
        with np.errstate(over="ignore"):
            new, ref = self.rings(lambda w: np.full(w.shape, 1e308))
            assert new == ref == math.inf
            # mixed signs cancel before anything overflows
            new, ref = self.rings(lambda w: np.where(w.real > 0.0, 1e308, -1e308))
            assert new == ref == 0.0

    def test_overflowing_total(self):
        # every ring is finite; their fsum overflows and raises, as it did on the complex grid
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            integrate_disc(lambda w: np.full(w.shape, 1.7e308))

    def test_koebe_far_below_the_lower_threshold(self):
        """|psi'|^152 overflows at interior nodes, without a numpy warning; the
        log-space verdict is still open."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIntegrandError, match="non-finite at node w="):
                brennan_integral(make_pair("koebe"), -150.0)


class TestShortLadder:
    def test_three_annuli_stay_inconclusive(self):
        """Three increments are too few for the tail fit, so the verdict is inconclusive.

        The classifier holds that rule itself; a slope through those three
        points alone would say converged.
        """
        pair = make_pair("koebe")
        spec = GradingSpec(eps_min=0.05)

        def g(w):
            return np.abs(pair.dpsi(w)) ** -1.0

        core, increments, gaps = _graded_sums(_complex_integrand(g), pair.singular_angles, spec)
        assert len(increments) == 3
        floor = 1e-15 * (core + math.fsum(increments))
        assert _tail(increments, gaps, floor)[0] is Classification.INCONCLUSIVE
        est = integrate_disc(g, pair.singular_angles, spec)
        assert est.classification is Classification.INCONCLUSIVE
        assert math.isnan(est.fitted_slope)

    def test_no_annuli_is_inconclusive(self):
        """eps_min = EPS_START leaves only the inner disc of radius 1/2."""
        est = integrate_disc(lambda w: np.ones(w.shape), (), GradingSpec(eps_min=EPS_START))
        assert est.classification is Classification.INCONCLUSIVE
        assert est.value == pytest.approx(math.pi / 4.0, abs=1e-13)
