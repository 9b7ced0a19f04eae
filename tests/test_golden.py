"""Golden values: exact reprs of disc integrals and patch checks, to guard bit-identity.

Each value was generated once and must be reproduced digit for digit, so
a change meant to be a pure speed-up shows any moved bit here.  The cases
cover the three grading specs of the scan-cold benchmark, converged and
diverging tails, twisted maps with clustered singular points and maps
that carry a pole off the circle.  A change that moves a value on
purpose regenerates the value and says so.
"""

import math

import numpy as np
import pytest

from brennanlab.catalog import make_pair
from brennanlab.functionals import inverse_brennan_integral
from brennanlab.operators import (
    boundary_power,
    harmonic_poly,
    isometry_check,
    pullback_seminorm,
    shifted_log,
)
from brennanlab.quadrature import Classification, GradingSpec, IntegralEstimate, integrate_disc

SPECS = {"default": GradingSpec(), "eps1e-12": GradingSpec(eps_min=1e-12),
         "base128": GradingSpec(angular_base=128)}

#: (map, exponent of |psi'|, spec, estimate)
INTEGRALS = [
    ('koebe', -1.0, 'default', IntegralEstimate(
        value=14.743690380100105,
        abs_error_estimate=2.3477447080880664e-08,
        truncation_eps=1e-08,
        tail_estimate=2.3475972711842653e-08,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9429675060392618,
    )),
    ('koebe', 1.7, 'eps1e-12', IntegralEstimate(
        value=2.1842395372444217e+37,
        abs_error_estimate=math.inf,
        truncation_eps=1e-12,
        tail_estimate=1.9275873868070354e+37,
        classification=Classification.DIVERGING,
        fitted_slope=3.099977192939088,
    )),
    ('koebe', 0.3, 'base128', IntegralEstimate(
        value=4.095464794554314,
        abs_error_estimate=1.163864665302236e-09,
        truncation_eps=1e-08,
        tail_estimate=1.1634551188227805e-09,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9812283123877447,
    )),
    ('koebe', -2.5, 'default', IntegralEstimate(
        value=8672123.044690767,
        abs_error_estimate=math.inf,
        truncation_eps=1e-08,
        tail_estimate=2506167.414620716,
        classification=Classification.DIVERGING,
        fitted_slope=0.5000002988815633,
    )),
    ('sector:1.5', -1.0, 'default', IntegralEstimate(
        value=2.4334332121208746,
        abs_error_estimate=5.966111759516497e-12,
        truncation_eps=1e-08,
        tail_estimate=5.7227684383044095e-12,
        classification=Classification.CONVERGED,
        fitted_slope=-0.999934664105012,
    )),
    ('sector:1.5', 1.7, 'eps1e-12', IntegralEstimate(
        value=7.778643760822615e+27,
        abs_error_estimate=math.inf,
        truncation_eps=1e-12,
        tail_estimate=6.134607539792616e+27,
        classification=Classification.DIVERGING,
        fitted_slope=2.2500223985603203,
    )),
    ('sector:0.3', 0.3, 'base128', IntegralEstimate(
        value=2.7381086615665047,
        abs_error_estimate=6.541024768385305e-13,
        truncation_eps=1e-08,
        tail_estimate=3.8029161068188005e-13,
        classification=Classification.CONVERGED,
        fitted_slope=-0.999994449056269,
    )),
    ('cardioid', 0.3, 'default', IntegralEstimate(
        value=3.1835848507202504,
        abs_error_estimate=3.315138195725729e-13,
        truncation_eps=1e-08,
        tail_estimate=1.315533450054781e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999149903911,
    )),
    ('cardioid', -1.0, 'base128', IntegralEstimate(
        value=4.000000003785913,
        abs_error_estimate=2.7194486610252246e-09,
        truncation_eps=1e-08,
        tail_estimate=2.719048661024846e-09,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9466067575393352,
    )),
    ('koebe*moebius:0.95,0.2,1', 1.7, 'default', IntegralEstimate(
        value=1.9631264814508204e+19,
        abs_error_estimate=math.inf,
        truncation_eps=1e-08,
        tail_estimate=1.725992299087525e+19,
        classification=Classification.DIVERGING,
        fitted_slope=3.100000083795661,
    )),
    ('koebe*moebius:0.95,0.2,1', -1.0, 'eps1e-12', IntegralEstimate(
        value=313.08964704535214,
        abs_error_estimate=3.17760931269026e-11,
        truncation_eps=1e-12,
        tail_estimate=4.67128422367381e-13,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999431100555041,
    )),
    ('cardioid*moebius:0.5,-0.3,1', 0.3, 'base128', IntegralEstimate(
        value=3.1837071399627352,
        abs_error_estimate=3.3195306419233597e-13,
        truncation_eps=1e-08,
        tail_estimate=1.3582350196062423e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999106543658,
    )),
    ('cardioid*moebius:0.5,-0.3,1', -1.0, 'default', IntegralEstimate(
        value=3.3308420789534616,
        abs_error_estimate=5.879126512987408e-11,
        truncation_eps=1e-08,
        tail_estimate=5.845818092197872e-11,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9833641015871041,
    )),
    ('moebius:0.9,0,0', 2.0, 'eps1e-12', IntegralEstimate(
        value=3.1415926535894707,
        abs_error_estimate=3.283276028296002e-13,
        truncation_eps=1e-12,
        tail_estimate=1.4168337470653129e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999834420163987,
    )),
    ('moebius:0.9,0,0', -1.0, 'base128', IntegralEstimate(
        value=23.23125093838778,
        abs_error_estimate=2.496089397857084e-12,
        truncation_eps=1e-08,
        tail_estimate=1.7296430401830565e-13,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999998590171344,
    )),
    ('sector:1.7*moebius:-0.6,0.7,2', 0.3, 'default', IntegralEstimate(
        value=1.8986596628075358,
        abs_error_estimate=1.1851249173363606e-10,
        truncation_eps=1e-08,
        tail_estimate=1.183226257673553e-10,
        classification=Classification.CONVERGED,
        fitted_slope=-0.995208304504324,
    )),
    ('moebius:0.3,0,1*moebius:0.2,0.1,0.5', 1.7, 'eps1e-12', IntegralEstimate(
        value=2.965951622082004,
        abs_error_estimate=3.01048152996227e-13,
        truncation_eps=1e-12,
        tail_estimate=4.452990788026594e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.999983442210255,
    )),
]


@pytest.mark.parametrize("name, exponent, spec, expected", INTEGRALS,
                         ids=[f"{n}-{e}-{s}" for n, e, s, _ in INTEGRALS])
def test_disc_integral(name, exponent, spec, expected):
    est = inverse_brennan_integral(make_pair(name), exponent, SPECS[spec]).integral
    assert repr(est) == repr(expected)


def test_complex_integrand():
    """A complex-w integrand of the public integrate_disc, |1 - w|^-1.5."""
    est = integrate_disc(lambda w: np.abs(1.0 - w) ** -1.5, (0.0,))
    assert repr(est) == repr(IntegralEstimate(
        value=6.777704756153885,
        abs_error_estimate=6.081579504530302e-08,
        truncation_eps=1e-08,
        tail_estimate=6.08151172748274e-08,
        classification=Classification.CONVERGED,
        fitted_slope=-0.4999589373253862,
    ))


@pytest.mark.parametrize("name, function, patch, expected", [
    ("koebe*moebius:0.5,0.2,1", harmonic_poly(1), (0.0, 0.8), 1.0000000000000382),
    ("cardioid", shifted_log(), (0.3, 0.7), 1.000000000000012),
])
def test_isometry_check(name, function, patch, expected):
    assert repr(isometry_check(make_pair(name), function, patch)) == repr(expected)


@pytest.mark.parametrize("name, function, q, expected", [
    ("koebe*moebius:0.5,0.2,1", harmonic_poly(2), 3.0, 4.131095375224547),
    ("sector:1.5", boundary_power(1.5), 2.5, 1.743361705470923),
])
def test_pullback_seminorm(name, function, q, expected):
    assert repr(pullback_seminorm(make_pair(name), function, q)) == repr(expected)
