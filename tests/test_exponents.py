import dataclasses
import math
import re

import numpy as np
import pytest

import brennanlab
from brennanlab import functionals
from brennanlab.catalog import koebe_map
from brennanlab.exponents import (
    ExponentDomainError,
    ExponentRecord,
    KnownBounds,
    Regime,
    RegimeError,
    alpha_range,
    classify_regime,
    dual_exponent,
    dual_pair,
    holder_conjugate,
    q_from_ps,
    s_from_pq,
)
from brennanlab.functionals import kpq_functional
from brennanlab.operators import duality_check, norm_ratio_report


class TestQFromPS:
    def test_direct_substitution(self):
        assert q_from_ps(4.0, 2.0) == pytest.approx(2.0, abs=1e-15)
        assert q_from_ps(3.0, 3.0) == pytest.approx(2.25, abs=1e-15)

    def test_sup_norm_limit(self):
        """At p = inf the target exponent equals s itself."""
        assert q_from_ps(math.inf, 3.0) == 3.0

    def test_result_below_p_and_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = 2.0 + 18.0 * rng.random() + 1e-9
            s = 10.0 * rng.random() + 1e-9
            q = q_from_ps(p, s)
            assert 0.0 < q < p

    def test_monotone_in_s(self):
        for p in (2.5, 3.0, 4.0, 6.0, 10.0, 20.0):
            s = np.linspace(0.1, 10.0, 200)
            q = np.array([q_from_ps(p, si) for si in s])
            assert np.all(np.diff(q) > 0.0)

    def test_domain_errors(self):
        with pytest.raises(ExponentDomainError):
            q_from_ps(2.0, 3.0)
        with pytest.raises(ExponentDomainError):
            q_from_ps(1.5, 3.0)
        with pytest.raises(ExponentDomainError):
            q_from_ps(4.0, 0.0)
        with pytest.raises(ExponentDomainError):
            q_from_ps(4.0, -1.0)


class TestSFromPQ:
    def test_direct_substitution(self):
        assert s_from_pq(4.0, 2.0) == pytest.approx(2.0, abs=1e-15)
        assert s_from_pq(2.0, 1.0) == 0.0

    def test_round_trip_of_q(self):
        # q_from_ps(3, 3) = 9/4, and s_from_pq recovers 3
        assert s_from_pq(3.0, 2.25) == pytest.approx(3.0, abs=1e-12)

    def test_round_trip_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = 2.0 + 18.0 * rng.random() + 1e-6
            s = 10.0 * rng.random() + 1e-6
            assert s_from_pq(p, q_from_ps(p, s)) == pytest.approx(s, abs=1e-12, rel=1e-12)

    def test_sup_norm_limit(self):
        assert s_from_pq(math.inf, 4.5) == 4.5

    def test_domain_error(self):
        with pytest.raises(ExponentDomainError):
            s_from_pq(3.0, 3.0)
        with pytest.raises(ExponentDomainError):
            s_from_pq(3.0, 4.0)
        with pytest.raises(ExponentDomainError):
            s_from_pq(3.0, -0.5)


class TestHolderConjugate:
    def test_values(self):
        assert holder_conjugate(2.0) == 2.0
        assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert holder_conjugate(math.inf) == 1.0

    def test_involution(self):
        rng = np.random.default_rng(3)
        p = 1.0 + 20.0 * rng.random(200) + 1e-9
        for pi in p:
            assert holder_conjugate(holder_conjugate(pi)) == pytest.approx(pi, rel=1e-12)

    def test_domain_error(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(ExponentDomainError):
                holder_conjugate(bad)


class TestDualPair:
    def test_example_4_3(self):
        q_conj, p_conj = dual_pair(4.0, 3.0)
        assert q_conj == pytest.approx(1.5, abs=1e-15)
        assert p_conj == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert dual_exponent(4.0, 3.0) == pytest.approx(-4.0, abs=1e-12)

    def test_example_4_2(self):
        q_conj, p_conj = dual_pair(4.0, 2.0)
        assert (q_conj, p_conj) == (pytest.approx(2.0), pytest.approx(4.0 / 3.0))
        # q' - 2 = 0 forces the shared exponent to vanish
        assert dual_exponent(4.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_example_3_2(self):
        q_conj, p_conj = dual_pair(3.0, 2.0)
        assert (q_conj, p_conj) == (pytest.approx(2.0), pytest.approx(1.5))
        assert dual_exponent(3.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_shared_exponent_minus_three(self):
        # hand evaluation: p=3, q=5/2 gives 3*(2-5/2)/(1/2) = -3 on both routes
        q_conj, p_conj = dual_pair(3.0, 2.5)
        lhs = (q_conj - 2.0) * p_conj / (q_conj - p_conj)
        assert lhs == pytest.approx(-3.0, abs=1e-12)
        assert dual_exponent(3.0, 2.5) == pytest.approx(-3.0, abs=1e-12)

    def test_p_conj_below_q_conj(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = 1.1 + 10.0 * rng.random()
            q = 1.0 + (p - 1.0 - 1e-6) * rng.random() + 1e-6
            q_conj, p_conj = dual_pair(p, q)
            assert p_conj < q_conj

    def test_identity_on_grid(self):
        """Both closed forms of the shared exponent agree to 1e-12."""
        for p in (2.5, 3.0, 4.0, 6.0, 10.0):
            for q in np.arange(1.1, p - 0.1 + 1e-9, (p - 1.2) / 10.0):
                q_conj, p_conj = dual_pair(p, float(q))
                lhs = (q_conj - 2.0) * p_conj / (q_conj - p_conj)
                rhs = p * (2.0 - q) / (p - q)
                assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_domain_errors(self):
        for p, q in ((3.0, 1.0), (3.0, 3.0), (math.inf, 2.0), (2.0, 2.5)):
            with pytest.raises(ExponentDomainError):
                dual_pair(p, q)


class TestOneRegimeRule:
    """Each pair rule is tested once, in exponents, so every caller raises its one RegimeError."""

    def test_one_error_class(self):
        assert brennanlab.RegimeError is functionals.RegimeError is RegimeError
        assert issubclass(RegimeError, ExponentDomainError)

    @pytest.mark.parametrize("call", [
        dual_exponent,
        dual_pair,
        lambda p, q: duality_check(koebe_map(), p, q),
    ], ids=["dual_exponent", "dual_pair", "duality_check"])
    def test_dual_pair_outside_its_regime(self, call):
        with pytest.raises(RegimeError) as caught:
            call(2.0, 3.0)
        assert str(caught.value) == "duality check requires 1 < q < p < inf, got p=2.0, q=3.0"

    @pytest.mark.parametrize("call", [
        s_from_pq,
        lambda p, q: kpq_functional(koebe_map(), p, q),
        lambda p, q: norm_ratio_report(koebe_map(), p, q),
    ], ids=["s_from_pq", "kpq_functional", "norm_ratio_report"])
    @pytest.mark.parametrize("q", [3.0, 4.0])
    def test_q_at_or_above_p(self, call, q):
        with pytest.raises(RegimeError) as caught:
            call(3.0, q)
        assert str(caught.value) == (
            f"K_(p,q) requires q < p (got p=3.0, q={q}): at q = p the criterion is vacuous "
            "and for q > p no bounded composition operator exists")


class TestAlphaRange:
    def test_examples(self):
        assert alpha_range(4.0) == (pytest.approx(2.0 / 3.0), pytest.approx(2.0))
        assert alpha_range(3.0) == (pytest.approx(4.0 / 3.0), pytest.approx(4.0))
        assert alpha_range(1.0) == (pytest.approx(-4.0), pytest.approx(-4.0 / 3.0))

    def test_endpoints_times_p_minus_2(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = 2.0 + 15.0 * rng.random() + 1e-6
            lo, hi = alpha_range(p)
            assert lo * (p - 2.0) == pytest.approx(4.0 / 3.0, abs=1e-12, rel=1e-12)
            assert hi * (p - 2.0) == pytest.approx(4.0, abs=1e-12, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ExponentDomainError):
            alpha_range(2.0)
        with pytest.raises(ExponentDomainError):
            alpha_range(0.5)
        with pytest.raises(ExponentDomainError):
            alpha_range(math.inf)


class TestRangesAndBounds:
    def test_inverse_range(self):
        assert KnownBounds().inverse_conjectured == (pytest.approx(-2.0), pytest.approx(2.0 / 3.0))

    def test_known_constants(self):
        kb = KnownBounds()
        assert kb.easy_upper == 3.0
        assert kb.hedenmalm_shimorin == 3.752
        assert kb.pommerenke == 3.399
        assert kb.bertilsson == 3.421
        assert kb.inverse_proved_lower == -1.78
        assert kb.brennan_conjectured == (pytest.approx(4.0 / 3.0), 4.0)

    def test_ordering(self):
        kb = KnownBounds()
        assert kb.easy_upper < kb.pommerenke < kb.bertilsson < kb.hedenmalm_shimorin < 4.0
        assert -2.0 < kb.inverse_proved_lower < 2.0 / 3.0

    @pytest.mark.parametrize("field, value, message", [
        ("pommerenke", 3.5, "proved bounds must be strictly increasing and below 4"),
        ("hedenmalm_shimorin", 4.0, "proved bounds must be strictly increasing and below 4"),
        ("inverse_proved_lower", -2.0, "inverse proved bound must lie inside (-2, 2/3)"),
        ("inverse_proved_lower", 0.7, "inverse proved bound must lie inside (-2, 2/3)"),
    ])
    def test_bounds_out_of_order_or_range_raise(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KnownBounds(**{field: value})

    def test_endpoint_correspondence(self):
        # r = 2 - s maps the lower Brennan endpoint to the upper inverse endpoint
        assert 2.0 - 4.0 / 3.0 == pytest.approx(KnownBounds().inverse_conjectured[1], abs=1e-15)


class TestRegime:
    @pytest.mark.parametrize("p,q,tag", [
        (2.0, 2.0, Regime.ISOMETRY),
        (4.0, 2.0, Regime.BOUNDED_CANDIDATE),
        (2.0, 3.0, Regime.UNBOUNDED),
        (3.0, 3.0, Regime.DEGENERATE_EQUAL),
        (math.inf, 2.0, Regime.SUP_NORM),
        (math.inf, 1.0, Regime.SUP_NORM),
    ])
    def test_tags(self, p, q, tag):
        assert classify_regime(p, q) is tag

    def test_domain_error(self):
        with pytest.raises(ExponentDomainError):
            classify_regime(0.5, 2.0)


class TestExponentRecord:
    def test_round_trip_consistency(self):
        rec = ExponentRecord.from_p_s(4.0, 2.5)
        rec.validate()
        assert rec.q == pytest.approx(q_from_ps(4.0, 2.5))
        assert rec.r == pytest.approx(-0.5)
        assert rec.alpha * (rec.p - 2.0) == pytest.approx(rec.s, abs=1e-12)
        assert 1.0 / rec.p + 1.0 / rec.p_conj == pytest.approx(1.0, abs=1e-15)

    def test_sup_norm_record(self):
        rec = ExponentRecord.from_p_s(math.inf, 3.0)
        rec.validate()
        assert rec.q == 3.0
        assert rec.alpha is None
        assert rec.p_conj == 1.0

    @pytest.mark.parametrize("field, value, message", [
        ("p_conj", 2.0, "p conjugate identity violated"),
        ("q_conj", 2.0, "q conjugate identity violated"),
        ("r", 0.5, "r = 2 - s identity violated"),
        ("alpha", 1.0, "alpha*(p-2) = s identity violated"),
    ])
    def test_validate_names_the_broken_identity(self, field, value, message):
        """A hand-built record with one identity broken, the other three intact."""
        record = dataclasses.replace(ExponentRecord.from_p_s(4.0, 2.5), **{field: value})
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            record.validate()

    def test_regime_of_record(self):
        assert ExponentRecord.from_p_s(4.0, 2.5).regime() is Regime.BOUNDED_CANDIDATE
