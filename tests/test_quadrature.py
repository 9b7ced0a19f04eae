import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brennanlab.catalog import TWO_PI_LO, make_pair
from brennanlab.functionals import brennan_integral
from brennanlab.quadrature import (
    EPS_START,
    TWO_PI,
    Classification,
    GradingSpec,
    InvalidGradingError,
    NonFiniteIntegrandError,
    _angular_rules,
    _complex_integrand,
    _gap_ladder,
    _gauss,
    _graded_sums,
    _ring_sum,
    _tail,
    classify_tail,
    integrate_disc,
    integrate_truncated,
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


class TestTruncated:
    def test_half_disc_area(self):
        assert integrate_truncated(lambda w: np.ones(w.shape), 0.5) == pytest.approx(
            math.pi * 0.25, abs=1e-9)

    def test_small_eps_approaches_area(self):
        val = integrate_truncated(lambda w: np.ones(w.shape), 1e-8)
        assert val == pytest.approx(math.pi, abs=1e-7)

    def test_monotone_in_eps(self):
        g = boundary_power_integrand(-1.5)
        eps = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125]
        vals = [integrate_truncated(g, e, singular_angles=[0.0]) for e in eps]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_log_divergence_growth(self):
        """At the threshold exponent the truncated values grow like log(1/eps)."""
        g = boundary_power_integrand(-2.0)
        eps = [0.1 * 2.0 ** (-k) for k in range(6)]
        vals = [integrate_truncated(g, e, singular_angles=[0.0]) for e in eps]
        increments = np.diff(vals)
        assert np.all(increments > 0.0)
        # per-halving increments approach a constant
        ratios = increments[1:] / increments[:-1]
        assert np.all(np.abs(ratios - 1.0) < 0.15)

    def test_eps_validation(self):
        with pytest.raises(InvalidGradingError):
            integrate_truncated(lambda w: np.ones(w.shape), 0.0)
        with pytest.raises(InvalidGradingError):
            integrate_truncated(lambda w: np.ones(w.shape), 0.7)


class TestClassifyTail:
    def test_constant_samples(self):
        samples = [(0.1, 2.0), (0.05, 2.0), (0.025, 2.0), (0.0125, 2.0)]
        verdict, slope = classify_tail(samples)
        assert verdict is Classification.CONVERGED
        assert slope == 0.0

    def test_logarithmic_growth(self):
        eps = [0.1 * 2.0 ** (-k) for k in range(6)]
        samples = [(e, math.log(1.0 / e)) for e in eps]
        verdict, slope = classify_tail(samples)
        assert verdict is Classification.DIVERGING
        assert abs(slope) < 0.05

    def test_power_law_convergence(self):
        eps = [0.1 * 2.0 ** (-k) for k in range(6)]
        samples = [(e, 5.0 - 2.0 * math.sqrt(e)) for e in eps]
        verdict, slope = classify_tail(samples)
        assert verdict is Classification.CONVERGED
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_falling_values_are_inconclusive(self):
        """The integrands are nonnegative, so a value that falls has no tail to classify."""
        samples = [(0.1, 2.0), (0.05, 2.5), (0.025, 2.25), (0.0125, 2.3)]
        verdict, slope = classify_tail(samples)
        assert verdict is Classification.INCONCLUSIVE
        assert math.isnan(slope)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            classify_tail([(0.1, 1.0), (0.05, 1.0), (0.025, 1.0)])

    def test_eps_ordering_validation(self):
        with pytest.raises(ValueError):
            classify_tail([(0.1, 1.0), (0.2, 1.0), (0.05, 1.0), (0.025, 1.0)])


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
    ])
    def test_spec_is_checked_when_made(self, field, value, message):
        with pytest.raises(InvalidGradingError, match=message):
            GradingSpec(**{field: value})


@functools.lru_cache(maxsize=None)
def reference_gauss(n):
    """numpy's Gauss-Legendre nodes, with each weight recomputed node by node in floats."""
    nodes = np.polynomial.legendre.leggauss(n)[0]
    weights = []
    for x in nodes.tolist():
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        one = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one
        weights.append(2.0 / (one * dp * dp) * (1.0 + 2.0 * x * (p1 / dp) / one))
    return nodes, np.array(weights)


def reference_angular_rule(singular_angles, scale, spec):
    """The angular rule built side by side, as a reference for the array builder.

    Without singular angles: equal panels with ``np.linspace`` ends.  With
    them: the sinh map on each side of each angle.  Both branches take
    their Gauss-Legendre tables from :func:`reference_gauss`.
    """
    if not singular_angles:
        x, w = reference_gauss(spec.angular_boost)
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
            x, w = reference_gauss(n)
            half = 0.5 * stop
            u = half * (x + 1.0)
            theta.append(origin + sign * (scale * np.sinh(u)))
            weights.append(scale * np.cosh(u) * (half * w))
    return np.concatenate(theta), np.concatenate(weights)


class TestGauss:
    """The one table: numpy's nodes, and every weight the true Gauss-Legendre weight to a few ulp.

    numpy's own weights miss this bound at n = 48.
    """

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 48, 64, 134, 260])
    def test_table_against_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        x, w = _gauss(n)
        assert np.array_equal(x, np.polynomial.legendre.leggauss(n)[0])
        with mpmath.workdps(40):
            for xi, wi in zip(x.tolist(), w.tolist()):
                # Newton from the float node to the root, then the weight there
                t = mpmath.mpf(xi)
                for _ in range(3):
                    p, q = mpmath.legendre(n, t), mpmath.legendre(n - 1, t)
                    t -= p * (t * t - 1) / (n * (t * p - q))
                exact = 2 * (1 - t * t) / (n * mpmath.legendre(n - 1, t)) ** 2
                assert abs(wi / float(exact) - 1.0) <= 2e-13


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
    """The ring, node by node from the reference grid; g takes w, or (r, theta) if polar."""
    x, wx = _gauss(radial_order)
    half = 0.5 * (r_hi - r_lo)
    r, wr = r_lo + half * (x + 1.0), half * wx
    w = complex_grid(r, theta)
    vals = np.asarray(g(r, theta) if polar else g(w), dtype=float)
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
RULE_SCALES = _gap_ladder(GradingSpec(eps_min=1e-12), 1e-12)


class TestAngularRule:
    @pytest.mark.parametrize("spec", [GradingSpec(), GradingSpec(angular_base=128),
                                      GradingSpec(angular_boost=4)],
                             ids=["default", "base128", "boost4"])
    @pytest.mark.parametrize("name", RULE_ANGLE_SETS)
    def test_rule_over_scales(self, name, spec):
        angles = RULE_ANGLE_SETS[name]
        assert RULE_SCALES[0] == EPS_START and RULE_SCALES[-1] == 1e-12
        for scale, (rule_theta, wtheta) in zip(RULE_SCALES,
                                               _angular_rules(angles, RULE_SCALES, spec)):
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
        for rule, ref in zip(_angular_rules(angles, RULE_SCALES, spec),
                             _angular_rules(single, RULE_SCALES, spec)):
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
    def test_matches_reference(self, angles, base, boost, ratio, eps_min):
        spec = GradingSpec(eps_min=eps_min, annulus_ratio=ratio, angular_base=base,
                           angular_boost=boost)
        ladder = _gap_ladder(spec, eps_min)
        rules = list(_angular_rules(angles, ladder, spec))
        assert len(rules) == len(ladder)
        for scale, (theta, wtheta) in zip(ladder, rules):
            ref_theta, ref_wtheta = reference_angular_rule(one_per_class(angles), scale, spec)
            assert_rule_nodes(theta, ref_theta)
            assert np.array_equal(wtheta, ref_wtheta)


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
            core, increments, _ = _graded_sums(_complex_integrand(g), self.ANGLES, self.SPEC,
                                               self.SPEC.eps_min)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ladder = _gap_ladder(self.SPEC, self.SPEC.eps_min)
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
        for gap, (theta, wtheta) in zip(RULE_SCALES, _angular_rules((0.0,), RULE_SCALES, spec)):
            side = theta < math.pi
            got = math.fsum(wtheta[side] * gap / (theta[side] ** 2 + gap ** 2))
            assert got == pytest.approx(math.atan(math.pi / gap), rel=2e-13, abs=0.0)


#: the three grading specs of the scan-cold benchmark workload
SCAN_SPECS = (GradingSpec(), GradingSpec(eps_min=1e-12), GradingSpec(angular_base=128))


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

    EXPONENTS = (-1.0, 0.3, 1.7)
    NAMES = ["koebe", "sector:1.5", "cardioid", "koebe*moebius:0.95,0.2,1",
             "cardioid*moebius:0.5,-0.3,1", "moebius:0.9,0,0",
             # a singular angle just below 2pi, at 2pi - 1e-9
             "koebe*moebius:0,0,1e-9"]

    @staticmethod
    def reference_sums(g, angles, spec, polar=False):
        ladder = _gap_ladder(spec, spec.eps_min)
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

            new = _graded_sums(g, angles, spec, spec.eps_min)
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
        for scale in _gap_ladder(spec, spec.eps_min):
            theta, _ = reference_angular_rule(pair.grading_angles, scale, spec)
            r = 1.0 - scale * (1.0 + 0.5 * (t + 1.0))
            for e in self.EXPONENTS:
                want, size = reference_abs_dpsi_power(pair, r, theta, e)
                got = pair.abs_dpsi_power(r, theta, e)
                bound = 8 * np.finfo(float).eps * (1.0 + size) * want
                assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=["default", "eps1e-12", "base128"])
    def test_complex_integrand(self, spec):
        """A complex-w integrand goes through the adapter onto the same grid."""
        g = boundary_power_integrand(-1.5)
        angles = (0.0, 2.5)
        new = _graded_sums(_complex_integrand(g), angles, spec, spec.eps_min)
        assert new == self.reference_sums(g, angles, spec)


class TestNonFiniteRing:
    """The ring checks its weighted sum, and scans the values only when that is not finite."""

    RULE = next(_angular_rules((), [EPS_START], GradingSpec()))
    THETA, _ = reference_angular_rule((), EPS_START, GradingSpec())

    def rings(self, g):
        """The new and the reference ring of g(w) over 0 <= |w| <= 1, as (value or error)."""
        theta, wtheta = self.RULE
        out = []
        for ring in (lambda: _ring_sum(_complex_integrand(g), 0.0, 1.0, theta, wtheta, 16),
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
        # the complex-grid ring named this node, the first with |w| > 0.6 in row-major order
        new, ref = self.rings(lambda w: np.where(np.abs(w) > 0.6, np.nan, 1.0))
        assert new == ref
        assert "0.6407238628081336+0.009992345606769322j" in new

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

        core, increments, gaps = _graded_sums(_complex_integrand(g), pair.singular_angles, spec,
                                              spec.eps_min)
        assert len(increments) == 3
        floor = 1e-15 * (core + math.fsum(increments))
        assert _tail(increments, gaps, floor)[0] is Classification.INCONCLUSIVE
        est = integrate_disc(g, pair.singular_angles, spec)
        assert est.classification is Classification.INCONCLUSIVE
        assert math.isnan(est.fitted_slope)

    def test_classify_tail_agrees_with_integrate_disc(self):
        """The cumulative sums of the three increments get integrate_disc's verdict."""
        pair = make_pair("koebe")
        spec = GradingSpec(eps_min=0.05)

        def g(w):
            return np.abs(pair.dpsi(w)) ** -1.0

        core, increments, gaps = _graded_sums(_complex_integrand(g), pair.singular_angles, spec,
                                              spec.eps_min)
        samples = [(EPS_START, core)] + list(zip(gaps, core + np.cumsum(increments)))
        verdict, slope = classify_tail(samples)
        assert verdict is integrate_disc(g, pair.singular_angles, spec).classification
        assert verdict is Classification.INCONCLUSIVE
        assert math.isnan(slope)

    def test_no_annuli_is_inconclusive(self):
        """eps_min = EPS_START leaves only the inner disc of radius 1/2."""
        est = integrate_disc(lambda w: np.ones(w.shape), (), GradingSpec(eps_min=EPS_START))
        assert est.classification is Classification.INCONCLUSIVE
        assert est.value == pytest.approx(math.pi / 4.0, abs=1e-13)
