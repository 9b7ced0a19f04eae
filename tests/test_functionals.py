import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from brennanlab import functionals
from brennanlab.catalog import identity_map, koebe_map, make_pair
from brennanlab.exponents import ExponentDomainError
from brennanlab.functionals import (
    InconclusiveProbeError,
    RegimeError,
    ThresholdNotFoundError,
    brennan_integral,
    critical_exponent,
    inverse_brennan_integral,
    kpq_functional,
    p_distortion,
    threshold_oracle,
)
from brennanlab.quadrature import Classification, GradingSpec

CATALOG = ["identity", "moebius:0.3,0.2,1.1", "koebe", "sector:1.5",
           "cardioid", "cardioid*moebius:0.3,0,0.5"]


def cardioid_exact_brennan(s):
    """Closed form for the cardioid: the integrand is |1 - w|^(2-s).

    Valid for s < 4; see the boundary-power closed form in the quadrature
    tests (shift u = 1 - w, polar integration over rho < 2 cos phi).
    """
    t = 2.0 - s
    return (2.0 ** (t + 2.0) / (t + 2.0) * math.sqrt(math.pi)
            * math.gamma((t + 3.0) / 2.0) / math.gamma((t + 4.0) / 2.0))


class TestBrennanIntegral:
    @pytest.mark.parametrize("name", CATALOG)
    def test_area_identity_at_s_two(self, name):
        res = brennan_integral(make_pair(name), 2.0)
        assert res.integral.classification is Classification.CONVERGED
        assert res.integral.value == pytest.approx(math.pi, abs=1e-8)

    def test_koebe_near_upper_threshold(self):
        assert brennan_integral(koebe_map(), 3.9).integral.classification \
            is Classification.CONVERGED
        assert brennan_integral(koebe_map(), 4.1).integral.classification \
            is Classification.DIVERGING

    def test_koebe_near_lower_threshold(self):
        assert brennan_integral(koebe_map(), 1.4).integral.classification \
            is Classification.CONVERGED
        assert brennan_integral(koebe_map(), 1.3).integral.classification \
            is Classification.DIVERGING

    @pytest.mark.parametrize("s", [1.0, 2.5, 3.0, 3.5])
    def test_cardioid_closed_form(self, s):
        res = brennan_integral(make_pair("cardioid"), s)
        assert res.integral.classification is Classification.CONVERGED
        assert res.integral.value == pytest.approx(cardioid_exact_brennan(s), rel=1e-6)

    def test_identity_value_is_area_for_every_s(self):
        for s in (0.5, 2.0, 5.0, 9.0):
            res = brennan_integral(identity_map(), s)
            assert res.integral.value == pytest.approx(math.pi, abs=1e-8)

    def test_monotone_divergence_above_threshold(self):
        # once divergent above s0 > 2, every larger probe stays divergent
        pair = koebe_map()
        assert brennan_integral(pair, 4.05).integral.classification \
            is Classification.DIVERGING
        for s in (4.2, 5.0, 8.0, 12.0):
            assert brennan_integral(pair, s).integral.classification \
                is Classification.DIVERGING


    @pytest.mark.parametrize("s, shown", [(math.nan, "r=nan (s = 2 - r = nan)"),
                                          (math.inf, "r=-inf (s = 2 - r = inf)"),
                                          (-math.inf, "r=inf (s = 2 - r = -inf)")])
    def test_non_finite_exponent_is_a_regime_error(self, s, shown):
        """The exponent is rejected before any ring, naming it, not the first bad node."""
        with pytest.raises(RegimeError, match="needs a finite exponent") as caught:
            brennan_integral(koebe_map(), s)
        assert shown in str(caught.value)
        with pytest.raises(RegimeError, match=f"got r={-s!r}"):
            inverse_brennan_integral(koebe_map(), -s)


class TestInverseBrennan:
    def test_identity_any_r(self):
        res = inverse_brennan_integral(identity_map(), 5.0)
        assert res.integral.value == pytest.approx(math.pi, abs=1e-8)

    def test_koebe_upper_r_threshold(self):
        # w = 1 carries exponent -3, so -3r > -2 pins r* = 2/3
        assert inverse_brennan_integral(koebe_map(), 0.6).integral.classification \
            is Classification.CONVERGED
        assert inverse_brennan_integral(koebe_map(), 0.7).integral.classification \
            is Classification.DIVERGING

    def test_koebe_lower_r_threshold(self):
        # w = -1 carries exponent +1, so r > -2 is the constraint
        assert inverse_brennan_integral(koebe_map(), -1.9).integral.classification \
            is Classification.CONVERGED
        assert inverse_brennan_integral(koebe_map(), -2.1).integral.classification \
            is Classification.DIVERGING

    @pytest.mark.parametrize("name", ["koebe", "cardioid"])
    @pytest.mark.parametrize("s", [1.5, 2.5, 3.0])
    def test_change_of_variables_symmetry(self, name, s):
        pair = make_pair(name)
        direct = brennan_integral(pair, s).integral
        inverse = inverse_brennan_integral(pair, 2.0 - s).integral
        assert direct.classification == inverse.classification
        combined = direct.abs_error_estimate + inverse.abs_error_estimate + 1e-12
        assert abs(direct.value - inverse.value) <= combined


class TestKpq:
    def test_identity_fourth_root_of_pi(self):
        res = kpq_functional(identity_map(), 4.0, 2.0)
        assert res.kpq_value == pytest.approx(math.pi ** 0.25, rel=1e-10)
        assert res.kpq_value == pytest.approx(res.integral.value ** ((4.0 - 2.0) / 8.0))

    def test_koebe_inside_easy_range(self):
        from brennanlab.exponents import q_from_ps
        q = q_from_ps(4.0, 2.5)
        res = kpq_functional(koebe_map(), 4.0, q)
        assert res.integral.classification is Classification.CONVERGED
        assert math.isfinite(res.kpq_value)

    def test_sup_norm_branch(self):
        res = kpq_functional(koebe_map(), math.inf, 4.1)
        assert res.integral.classification is Classification.DIVERGING
        assert res.kpq_value == math.inf

        res = kpq_functional(koebe_map(), math.inf, 3.0)
        assert res.integral.classification is Classification.CONVERGED
        assert res.kpq_value == pytest.approx(res.integral.value ** (1.0 / 3.0))

    def test_divergent_reported_as_inf(self):
        res = kpq_functional(koebe_map(), 4.0, 3.0)  # s = 6 beyond threshold
        assert res.kpq_value == math.inf
        assert res.integral.classification is Classification.DIVERGING

    def test_inconclusive_reported_as_inf(self):
        """With no annuli (eps_min = 0.5) every verdict is inconclusive, and worth inf."""
        res = kpq_functional(koebe_map(), 4.0, 2.5, GradingSpec(eps_min=0.5))
        assert res.integral.classification is Classification.INCONCLUSIVE
        assert math.isfinite(res.integral.value)
        assert res.kpq_value == math.inf

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            kpq_functional(koebe_map(), 2.0, 3.0)
        with pytest.raises(RegimeError):
            kpq_functional(koebe_map(), 3.0, 3.0)
        with pytest.raises(RegimeError):
            kpq_functional(koebe_map(), 3.0, 0.5)


class TestPDistortion:
    def test_exponent_zero_is_one(self):
        assert p_distortion(koebe_map(), 0.1 + 0.2j, 2.0) == pytest.approx(1.0)

    def test_identity_is_one(self):
        assert p_distortion(identity_map(), 0.4 - 0.1j, 4.0) == pytest.approx(1.0)

    def test_koebe_origin(self):
        assert p_distortion(koebe_map(), 0j, 3.0) == pytest.approx(1.0, abs=1e-10)

    def test_matches_direct_formula(self):
        pair = koebe_map()
        w = 0.3 + 0.25j
        z = complex(pair.psi(w))
        expected = abs(complex(pair.dpsi(w))) ** (2.0 - 3.5)
        assert p_distortion(pair, z, 3.5) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("w", [-0.9, -0.95, -0.97, -0.98, -0.95 + 0.05j, -0.96 - 0.1j])
    def test_near_the_zero_of_the_derivative(self, w):
        # Koebe's psi' vanishes at -1, so a small residual |psi(w) - z| still
        # leaves w off by that over |psi'(w)|; the inverse must do better than
        # the residual target alone asks
        pair = koebe_map()
        z = complex(pair.psi(complex(w)))
        expected = abs(complex(pair.dpsi(complex(w)))) ** (2.0 - 4.0)
        assert abs(p_distortion(pair, z, 4.0) - expected) <= 1e-11 * expected

    @pytest.mark.parametrize("p", [0.5, -2.0, math.nan])
    def test_p_below_one_is_refused(self, p):
        with pytest.raises(ExponentDomainError,
                           match=f"^p-distortion requires p >= 1, got p={p}$"):
            p_distortion(koebe_map(), 0.1 + 0.2j, p)


class TestThresholdOracle:
    def test_koebe(self):
        assert threshold_oracle("koebe") == (pytest.approx(4.0 / 3.0), pytest.approx(4.0))

    def test_sector_two_matches_koebe(self):
        assert threshold_oracle("sector:2") == threshold_oracle("koebe")

    def test_sector_families(self):
        lo, hi = threshold_oracle("sector:1.5")
        assert (lo, hi) == (pytest.approx(1.2), pytest.approx(6.0))
        lo, hi = threshold_oracle("sector:0.5")
        assert lo == pytest.approx(2.0 / 3.0)
        assert hi is None

    def test_cardioid(self):
        lo, hi = threshold_oracle("cardioid")
        assert lo is None
        assert hi == pytest.approx(4.0)

    def test_smooth_maps_unconstrained(self):
        assert threshold_oracle("identity") == (None, None)
        assert threshold_oracle("moebius:0.3,0.2,1.1") == (None, None)


class TestCriticalExponent:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_anchor_that_does_not_converge_raises(self, monkeypatch, side):
        """An anchor at s = 2 whose tail does not shrink is refused before any bisection."""
        calls = []

        def flat(pair, s, spec):
            calls.append(s)
            return SimpleNamespace(integral=SimpleNamespace(
                classification=Classification.DIVERGING, fitted_slope=0.25))

        monkeypatch.setattr(functionals, "brennan_integral", flat)
        message = "anchor probe at s = 2 did not converge for koebe"
        with pytest.raises(InconclusiveProbeError, match=f"^{re.escape(message)}$"):
            critical_exponent(koebe_map(), side)
        assert len(calls) == 2 and 2.0 in calls

    def test_koebe_upper_endpoint(self):
        rep = critical_exponent(koebe_map(), "upper")
        assert rep.s_star == pytest.approx(4.0, abs=0.05)
        assert rep.bracket[0] <= rep.s_star <= rep.bracket[1]
        assert rep.bracket[1] - rep.bracket[0] <= 0.05

    def test_koebe_lower_endpoint(self):
        rep = critical_exponent(koebe_map(), "lower")
        assert rep.s_star == pytest.approx(4.0 / 3.0, abs=0.05)

    def test_sector_upper(self):
        rep = critical_exponent(make_pair("sector:1.5"), "upper")
        assert rep.s_star == pytest.approx(6.0, abs=0.05)

    def test_probes_consistent(self):
        """The bisection's slope sign puts each probe on its side of s_star.

        A converged verdict needs a negative slope, so it lies below s_star;
        a diverging one may too, in the band where the slope is between
        -SLOPE_TOL and 0.
        """
        rep = critical_exponent(koebe_map(), "upper")
        for s, verdict, slope in rep.probes:
            if slope < 0.0:
                assert s <= rep.s_star + 1e-9
            else:
                assert s >= rep.s_star - 1e-9
            if verdict == "converged":
                assert slope < 0.0

    @pytest.mark.parametrize("name, side", [("koebe", "upper"), ("koebe", "lower"),
                                            ("sector:1.25", "upper")])
    def test_probes_record_the_integral_verdict(self, name, side, monkeypatch):
        """Each probe's recorded verdict is brennan_integral's at its s, under the spec it ran with.

        A probe that was retried ran last under the refined spec, so the spy
        keeps the last spec each s was integrated under.
        """
        from brennanlab import functionals

        pair, ran = make_pair(name), {}

        def spy(pair, s, spec):
            ran[s] = spec
            return brennan_integral(pair, s, spec)

        monkeypatch.setattr(functionals, "brennan_integral", spy)
        rep = critical_exponent(pair, side)
        assert len(ran) == len(rep.probes)
        for s, verdict, slope in rep.probes:
            est = brennan_integral(pair, s, ran[s]).integral
            assert (verdict, slope) == (est.classification.value, est.fitted_slope)

    def test_every_probe_refined_once(self):
        """With no annuli every probe is inconclusive and is retried once at eps_min * 1e-2.

        So eps_min = 0.5 gives the probes and s_star of eps_min = 0.005.  The
        s_star was re-pinned by an ulp (from 3.845344366879766) when the tail's
        line fit became closed form.
        """
        coarse = critical_exponent(koebe_map(), "upper", spec=GradingSpec(eps_min=0.5))
        fine = critical_exponent(koebe_map(), "upper", spec=GradingSpec(eps_min=0.005))
        assert coarse.probes == fine.probes
        assert coarse.s_star == fine.s_star == 3.8453443668797664

    @pytest.fixture
    def ran(self, monkeypatch):
        """The (s, eps_min) of every brennan_integral call critical_exponent makes."""
        from brennanlab import functionals

        calls = []

        def spy(pair, s, spec):
            calls.append((s, spec.eps_min))
            return brennan_integral(pair, s, spec)

        monkeypatch.setattr(functionals, "brennan_integral", spy)
        return calls

    @pytest.mark.parametrize("side, calls", [("upper", 11), ("lower", 12)])
    def test_later_probes_start_from_the_refined_anchor(self, side, calls, ran):
        """Once the anchor at s = 2 needs eps_min * 1e-2, no later probe runs at eps_min first.

        Otherwise each of the 10 probes would run at eps_min = 0.5 and again
        at 0.005, 20 integrals a side.  The probes before the anchor (the
        lower side's s = -6) and the anchor run twice, every later one once,
        with the report that eps_min = 0.005 gives.
        """
        coarse = critical_exponent(koebe_map(), side, spec=GradingSpec(eps_min=0.5))
        assert len(ran) == calls and len(coarse.probes) == 10
        anchor = ran.index((2.0, 0.005))
        assert ran[anchor - 1] == (2.0, 0.5)
        assert all(eps_min == 0.005 for _, eps_min in ran[anchor:])
        fine = critical_exponent(koebe_map(), side, spec=GradingSpec(eps_min=0.005))
        assert (coarse.probes, coarse.s_star, coarse.bracket) == (fine.probes, fine.s_star,
                                                                  fine.bracket)

    @pytest.mark.parametrize("name, retried, s_star", [
        ("koebe*moebius:0.95,0.2,1", (4.5, 4.34375), 4.326571982794713),
        ("cardioid*moebius:0.95,0,0.7", (4.5, 4.421875), 4.40485966787513),
    ])
    def test_a_retried_middle_probe_leaves_the_spec(self, name, retried, s_star, ran):
        """At the default spec the anchor decides, so a middle probe's retry is its own.

        Every other probe runs once at eps_min = 1e-8, and the retried ones at
        1e-8 and then 1e-10; s_star is pinned to its last bit.
        """
        rep = critical_exponent(make_pair(name), "upper")
        expected = []
        for s, _, _ in rep.probes:
            expected += [(s, 1e-8), (s, 1e-10)] if s in retried else [(s, 1e-8)]
        assert ran == expected
        assert repr(rep.s_star) == repr(s_star)

    def test_no_threshold_raises(self):
        with pytest.raises(ThresholdNotFoundError):
            critical_exponent(identity_map(), "upper")
        with pytest.raises(ThresholdNotFoundError):
            critical_exponent(make_pair("cardioid"), "lower")
        with pytest.raises(ThresholdNotFoundError):
            critical_exponent(make_pair("sector:0.5"), "upper")

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            critical_exponent(koebe_map(), "upper", tol=0.001)
        with pytest.raises(ValueError):
            critical_exponent(koebe_map(), "sideways")


class TestMoebiusInvariance:
    def test_rotation_preserves_kpq(self):
        from brennanlab.exponents import q_from_ps
        q = q_from_ps(4.0, 2.5)
        base = kpq_functional(koebe_map(), 4.0, q)
        rotated = kpq_functional(koebe_map().compose_with_moebius(0j, 1.3), 4.0, q)
        assert rotated.kpq_value == pytest.approx(base.kpq_value, rel=1e-4)

    def test_twisted_area_identity(self):
        res = brennan_integral(make_pair("cardioid*moebius:0.3,0,0.5"), 2.0)
        assert res.integral.value == pytest.approx(math.pi, abs=1e-8)

    @pytest.mark.parametrize("name", ["moebius:0.3,0,1*moebius:0.2,0.1,0.5",
                                      "moebius:0.9,0.3,2*moebius:-0.8,0.5,4"])
    def test_twisted_moebius_area_is_pi(self, name):
        # at s = 0 the integral is the area of psi(D) = D
        est = brennan_integral(make_pair(name), 0.0).integral
        assert est.value == pytest.approx(math.pi, abs=max(1e-8, est.abs_error_estimate))


def moebius_sweep():
    for a in (0.5, 0.8, 0.9, 0.95, 0.99):
        for s in np.arange(-2.0, 5.25, 0.5).tolist():
            yield pytest.param(a, s, id=f"a={a}-s={s}")


class TestMoebiusErrorBars:
    """A Moebius map's integral against pi (1-|a|^2)^r 2F1(r, r; 2; |a|^2), r = 2 - s.

    |m'|^r peaks or dips toward the pole 1/conj(a), so this needs the rule graded
    toward arg(a); the claimed error bar must cover the actual error.
    """

    @staticmethod
    def reference(a, s):
        mpmath = pytest.importorskip("mpmath")
        r = 2.0 - s
        x = mpmath.mpf(abs(a)) ** 2
        return float(mpmath.pi * (1 - x) ** r * mpmath.hyp2f1(r, r, 2, x))

    @pytest.mark.parametrize("a, s", moebius_sweep())
    def test_error_within_bar(self, a, s):
        exact = self.reference(a, s)
        est = brennan_integral(make_pair(f"moebius:{a},0,0"), s).integral
        assert est.classification is Classification.CONVERGED
        assert est.abs_error_estimate >= abs(est.value - exact)

    def test_twisted_pole_at_eps_1e_12(self):
        """A strong twist whose pole sits 0.07 outside the circle, at eps_min = 1e-12.

        The bar is unscaled: the angular rule must resolve the pole's peak to
        about 1e-13 relative.
        """
        s = -0.25
        exact = self.reference(complex(-0.9245, -0.1116), s)
        est = brennan_integral(make_pair("identity*moebius:-0.9245,-0.1116,4.343"), s,
                               GradingSpec(eps_min=1e-12)).integral
        assert est.classification is Classification.CONVERGED
        assert est.abs_error_estimate >= abs(est.value - exact)
