"""Golden values: exact reprs of integrals, patch checks and inversions, to guard bit-identity.

Each value was generated once and must be reproduced digit for digit, so
a change meant to be a pure speed-up shows any moved bit here.  The cases
cover the three grading specs of the scan-cold benchmark and one that
varies every field the rule fixes per spec, converged and
diverging tails, twisted maps with clustered singular points, maps
that carry a pole off the circle and the identity, which has no factor.  The inversions cover the scalar and
the vectorized inverse (closed form, accepted by its residual in z or
its Newton step in w; every golden inversion meets the target in z), and
the p-distortion built on the scalar one.  The numbers each twisted map's
factor form is built from are pinned too.
A change that moves a value on purpose regenerates the value and says so.
"""

import math

import numpy as np
import pytest

from brennanlab.catalog import make_pair
from brennanlab.functionals import inverse_brennan_integral, p_distortion
from brennanlab.operators import (
    boundary_power,
    harmonic_poly,
    isometry_check,
    pullback_seminorm,
    seminorm,
    shifted_log,
)
from brennanlab.quadrature import Classification, GradingSpec, IntegralEstimate, integrate_disc

SPECS = {"default": GradingSpec(), "eps1e-12": GradingSpec(eps_min=1e-12),
         "base128": GradingSpec(angular_base=128),
         # 35 annuli of 12 radial nodes, and panels of 6 points: every field
         # that the rule fixes per spec differs from the default
         "order12": GradingSpec(radial_order=12, annulus_ratio=0.6, angular_boost=6)}

#: (map, exponent of |psi'|, spec, estimate); re-pinned when the Gauss-Legendre
#: table took its weights from the three-term recurrence instead of numpy's
#: leggauss (each value moved by at most 8.7e-16 relative, 0.006 of its bar),
#: and when its nodes came from Newton on that recurrence instead of leggauss
#: (at most 2.9e-16 relative, 8e-6 of its bar; no verdict moved)
INTEGRALS = [
    ('koebe', -1.0, 'default', IntegralEstimate(
        value=14.743690380102075,
        abs_error_estimate=2.347744604672114e-08,
        truncation_eps=1e-08,
        tail_estimate=2.3475971677683127e-08,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9429675060230718,
    )),
    ('koebe', 1.7, 'eps1e-12', IntegralEstimate(
        value=2.1842419873662474e+37,
        abs_error_estimate=math.inf,
        truncation_eps=1e-12,
        tail_estimate=1.9275807272145172e+37,
        classification=Classification.DIVERGING,
        fitted_slope=3.0999818986940264,
    )),
    ('koebe', 0.3, 'base128', IntegralEstimate(
        value=4.095464794554473,
        abs_error_estimate=1.1638646399685346e-09,
        truncation_eps=1e-08,
        tail_estimate=1.1634550934890791e-09,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9812283123833602,
    )),
    ('koebe', -2.5, 'default', IntegralEstimate(
        value=8672123.04065934,
        abs_error_estimate=math.inf,
        truncation_eps=1e-08,
        tail_estimate=2506167.413943644,
        classification=Classification.DIVERGING,
        fitted_slope=0.5000002987517933,
    )),
    ('sector:1.5', -1.0, 'default', IntegralEstimate(
        value=2.433433212120911,
        abs_error_estimate=5.966111790233157e-12,
        truncation_eps=1e-08,
        tail_estimate=5.722768469021066e-12,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999346641050542,
    )),
    ('sector:1.5', 1.7, 'eps1e-12', IntegralEstimate(
        value=7.778423744204491e+27,
        abs_error_estimate=math.inf,
        truncation_eps=1e-12,
        tail_estimate=6.13440668765517e+27,
        classification=Classification.DIVERGING,
        fitted_slope=2.250011126265086,
    )),
    ('sector:0.3', 0.3, 'base128', IntegralEstimate(
        value=2.738108661566514,
        abs_error_estimate=6.541024760071748e-13,
        truncation_eps=1e-08,
        tail_estimate=3.8029160985052334e-13,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999944490562716,
    )),
    ('cardioid', 0.3, 'default', IntegralEstimate(
        value=3.1835848507202504,
        abs_error_estimate=3.315138201972163e-13,
        truncation_eps=1e-08,
        tail_estimate=1.3155335125191243e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999149903931,
    )),
    ('cardioid', -1.0, 'base128', IntegralEstimate(
        value=4.000000003786127,
        abs_error_estimate=2.7194485365413555e-09,
        truncation_eps=1e-08,
        tail_estimate=2.719048536540977e-09,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9466067575276023,
    )),
    ('koebe*moebius:0.95,0.2,1', 1.7, 'default', IntegralEstimate(
        value=1.963126441329248e+19,
        abs_error_estimate=math.inf,
        truncation_eps=1e-08,
        tail_estimate=1.7259922609359825e+19,
        classification=Classification.DIVERGING,
        fitted_slope=3.100000076768445,
    )),
    ('koebe*moebius:0.95,0.2,1', -1.0, 'eps1e-12', IntegralEstimate(
        value=313.0896470453522,
        abs_error_estimate=3.177609389627288e-11,
        truncation_eps=1e-12,
        tail_estimate=4.67129191737661e-13,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999431099165675,
    )),
    ('cardioid*moebius:0.5,-0.3,1', 0.3, 'base128', IntegralEstimate(
        value=3.1837071399627352,
        abs_error_estimate=3.3195306430308164e-13,
        truncation_eps=1e-08,
        tail_estimate=1.3582350306808107e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999106543659,
    )),
    ('cardioid*moebius:0.5,-0.3,1', -1.0, 'default', IntegralEstimate(
        value=3.3308420789534785,
        abs_error_estimate=5.879126029105564e-11,
        truncation_eps=1e-08,
        tail_estimate=5.845817608316028e-11,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9833641015634444,
    )),
    ('moebius:0.9,0,0', 2.0, 'eps1e-12', IntegralEstimate(
        value=3.141592653589799,
        abs_error_estimate=3.2832760282962155e-13,
        truncation_eps=1e-12,
        tail_estimate=1.4168337470641643e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999834420163867,
    )),
    ('moebius:0.9,0,0', -1.0, 'base128', IntegralEstimate(
        value=23.231250938387788,
        abs_error_estimate=2.4960894044592687e-12,
        truncation_eps=1e-08,
        tail_estimate=1.7296431062048991e-13,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999998590171318,
    )),
    ('sector:1.7*moebius:-0.6,0.7,2', 0.3, 'default', IntegralEstimate(
        value=1.898659662807563,
        abs_error_estimate=1.1851249678435125e-10,
        truncation_eps=1e-08,
        tail_estimate=1.183226308180705e-10,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9952083045112262,
    )),
    ('moebius:0.3,0,1*moebius:0.2,0.1,0.5', 1.7, 'eps1e-12', IntegralEstimate(
        value=2.965951622082007,
        abs_error_estimate=3.0104815299623837e-13,
        truncation_eps=1e-12,
        tail_estimate=4.452990788037694e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999834422102598,
    )),
    ('koebe*moebius:0.95,0.2,1', 0.0, 'eps1e-12', IntegralEstimate(
        value=3.141592653589794,
        abs_error_estimate=3.1845836340540255e-13,
        truncation_eps=1e-12,
        tail_estimate=4.2990980464231314e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999834422209396,
    )),
    ('sector:1.5', 0.0, 'default', IntegralEstimate(
        value=3.1415926535897993,
        abs_error_estimate=3.2577406134311224e-13,
        truncation_eps=1e-08,
        tail_estimate=1.1614795984132312e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241727,
    )),
    ('cardioid*moebius:0.5,-0.3,1', 0.0, 'base128', IntegralEstimate(
        value=3.1415926535897998,
        abs_error_estimate=3.257740614234666e-13,
        truncation_eps=1e-08,
        tail_estimate=1.1614796064486615e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241708,
    )),
    ('moebius:0.9,0,0', 0.0, 'default', IntegralEstimate(
        value=3.1415926535897993,
        abs_error_estimate=3.257740617287859e-13,
        truncation_eps=1e-08,
        tail_estimate=1.1614796369805962e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241723,
    )),
    # a map with no factor: |psi'|^e is 1 at every node and the integral is pi;
    # generated before the ring stage took a whole block's radial nodes
    ('identity', -1.0, 'default', IntegralEstimate(
        value=3.1415926535897998,
        abs_error_estimate=3.2577406118996816e-13,
        truncation_eps=1e-08,
        tail_estimate=1.161479583098818e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241723,
    )),
    ('identity', -1.0, 'eps1e-12', IntegralEstimate(
        value=3.1415926535897953,
        abs_error_estimate=3.1845836340536064e-13,
        truncation_eps=1e-12,
        tail_estimate=4.2990980463811065e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.999983442220938,
    )),
    ('identity', -1.0, 'base128', IntegralEstimate(
        value=3.1415926535897998,
        abs_error_estimate=3.2577406118996816e-13,
        truncation_eps=1e-08,
        tail_estimate=1.161479583098818e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241723,
    )),
    ('identity', 1.5, 'default', IntegralEstimate(
        value=3.1415926535897998,
        abs_error_estimate=3.2577406118996816e-13,
        truncation_eps=1e-08,
        tail_estimate=1.161479583098818e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241723,
    )),
    ('identity', 1.5, 'eps1e-12', IntegralEstimate(
        value=3.1415926535897953,
        abs_error_estimate=3.1845836340536064e-13,
        truncation_eps=1e-12,
        tail_estimate=4.2990980463811065e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.999983442220938,
    )),
    ('identity', 1.5, 'base128', IntegralEstimate(
        value=3.1415926535897998,
        abs_error_estimate=3.2577406118996816e-13,
        truncation_eps=1e-08,
        tail_estimate=1.161479583098818e-14,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999261241723,
    )),
    # under a spec that varies the radial order, the ratio and the panels;
    # generated before the spec's ladder and rules were made once per spec
    ('identity', -1.0, 'order12', IntegralEstimate(
        value=3.1415926535897976,
        abs_error_estimate=3.2029661516765593e-13,
        truncation_eps=1e-08,
        tail_estimate=6.137349808676165e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999596909687,
    )),
    ('cardioid', 0.7, 'order12', IntegralEstimate(
        value=3.3528913036198573,
        abs_error_estimate=3.432985076715906e-13,
        truncation_eps=1e-08,
        tail_estimate=8.009377309604871e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999999449177278,
    )),
    ('koebe*moebius:0.5,0.2,1', -1.0, 'order12', IntegralEstimate(
        value=17.09186845327281,
        abs_error_estimate=4.794544301582325e-09,
        truncation_eps=1e-08,
        tail_estimate=4.7928351147369975e-09,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9552347121872459,
    )),
]


@pytest.mark.parametrize("name, exponent, spec, expected", INTEGRALS,
                         ids=[f"{n}-{e}-{s}" for n, e, s, _ in INTEGRALS])
def test_disc_integral(name, exponent, spec, expected):
    est = inverse_brennan_integral(make_pair(name), exponent, SPECS[spec]).integral
    assert repr(est) == repr(expected)


def test_complex_integrand():
    """A complex-w integrand of the public integrate_disc, |1 - w|^-1.5.

    Re-pinned with the integrals above, when the table's weights changed and
    when its nodes did.
    """
    est = integrate_disc(lambda w: np.abs(1.0 - w) ** -1.5, (0.0,))
    assert repr(est) == repr(IntegralEstimate(
        value=6.777704756159108,
        abs_error_estimate=6.081618046810971e-08,
        truncation_eps=1e-08,
        tail_estimate=6.08155026976341e-08,
        classification=Classification.CONVERGED,
        fitted_slope=-0.4999589370342624,
    ))


# |w - 2|^-3 is smooth and not constant on the disc, so its value pins the
# nodes and weights of the rule without singular angles
@pytest.mark.parametrize("spec, expected", [
    ("default", IntegralEstimate(
        value=0.5417318486114644,
        abs_error_estimate=5.950088041312035e-14,
        truncation_eps=1e-08,
        tail_estimate=5.327695551973905e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999998170366194,
    )),
    ("order12", IntegralEstimate(
        value=0.5417318483136543,
        abs_error_estimate=5.648184043127632e-14,
        truncation_eps=1e-08,
        tail_estimate=2.308655599910892e-15,
        classification=Classification.CONVERGED,
        fitted_slope=-0.9999998982781629,
    )),
])
def test_ungraded_integrand(spec, expected):
    est = integrate_disc(lambda w: np.abs(w - 2.0) ** -3.0, (), SPECS[spec])
    assert repr(est) == repr(expected)


def test_seminorm():
    """The Sobolev seminorm of shifted_log at p = 3, an integral with no singular angle."""
    assert repr(seminorm(shifted_log(), 3.0)) == repr(0.8151949041987602)


# re-pinned when the disc side became each function's closed-form energy
@pytest.mark.parametrize("name, function, patch, expected", [
    ("koebe*moebius:0.5,0.2,1", harmonic_poly(1), (0.0, 0.8), 1.0000000000000007),
    ("cardioid", shifted_log(), (0.3, 0.7), 1.0000000000000007),
], ids=["twisted-koebe-disc", "cardioid-annulus"])
def test_isometry_check(name, function, patch, expected):
    assert repr(isometry_check(make_pair(name), function, patch)) == repr(expected)


# the sector's value re-pinned with the integrals, when the table's weights changed
# and when its nodes did
@pytest.mark.parametrize("name, function, q, expected", [
    ("koebe*moebius:0.5,0.2,1", harmonic_poly(2), 3.0, 4.1310953752246435),
    ("sector:1.5", boundary_power(1.5), 2.5, 1.743361705470924),
], ids=["twisted-koebe", "sector"])
def test_pullback_seminorm(name, function, q, expected):
    assert repr(pullback_seminorm(make_pair(name), function, q)) == repr(expected)


CARDIOID_RING = "cardioid*moebius:0.05027829237277964,-0.8519746811694262,5.231008658459677"

#: (map, z, w).  The ids name how damped Newton first reached each point: from
#: an explicit seed ("-seed"), from a seed ring at radius 0.9 ("ring") or from a
#: polar chart of seeds ("chart", a point just above a twisted slit).  Both
#: sector rows were re-pinned when the sector's power left the complex log, and
#: the twisted-koebe, ring and chart rows when a scalar point left numpy's scalar
#: arithmetic for Python's (each w moved by an ulp in one part)
INVERSIONS = [
    ("koebe*moebius:0.5,0.2,1", (-0.19751142214497933-0.03735471221563994j),
     (0.3000000000000001+0.39999999999999997j)),
    ("sector:1.5", (-0.18359697561789173+0.2543131910579923j), (0.6-0.7j)),
    ("koebe", (-0.32+0.24j), 0.5j),
    ("sector:1.7*moebius:-0.6,0.7,2", (-0.37899070902247767-0.4322566852182905j),
     (-0.19999999999999996+0.5000000000000004j)),
    (CARDIOID_RING, (0.4861418197530831-0.025292296277159718j),
     (0.37214225843646453-0.8039647891521693j)),
    ("koebe*moebius:0.9,0.2,1", (-0.25585099748369394+0.005157626244264086j),
     (0.9454502314484716+0.2936389957993173j)),
]


@pytest.mark.parametrize("name, z, expected", INVERSIONS,
                         ids=["twisted-koebe", "sector", "koebe-seed", "twisted-sector-seed",
                              "ring", "chart"])
def test_invert(name, z, expected):
    assert repr(make_pair(name).invert(z)[0]) == repr(expected)


#: (map, z, then the hex of w, ok and psi'(w) from invert_many(z)); the sector's
#: last psi'(w) re-pinned when its power left the complex log
INVERT_MANY = [
    ("koebe*moebius:0.5,0.2,1",
     [
         (-0.2652014362041746-0.22051432905455903j),
         (-0.408075390167392-0.12580263911973769j),
         (-0.2576557847816437-0.05931617829946428j),
         (-0.67704650683244-0.425915145231381j),
         (-0.36797441605595693-0.02791211726512229j),
         (-0.30487378754542316+0.09750457014024501j),
     ],
     (
         "353333333333c33ffc76a927e307a4bc530851726160cbbf026a18a37f11c9bf"
         "1d8ed8b56057a33fb0acec7ce169db3f00f06c5a632dd63f74f35c26fbf6dcbf"
         "e11e108e8a5ee6bf9b4a2fc3ebcfbf3f5cf4e16539f7e63f6e1629662326dd3f"),
     "010101010101",
     (
         "c04847555ac5de3fb33e561887c4d8bfc746ac722e0a983f4735e65f0890d2bf"
         "89c4dc6a16c2c83f6a544dafe4b5883f5ba955af6e14ecbf6a341c94a8bcf0bf"
         "c9563e60570aa03f5ef8ec7c21e2bbbfd38997b9750beabf83c6e7f05b9f8fbf")),
    ("sector:1.3*moebius:-0.3,0.8,2",
     [
         (-0.08020767844079237-0.33864199047444876j),
         (-0.07232167460189873-0.2768737901572229j),
         (0.008496860517052974-0.433624119379996j),
         (-0.12728101684309603-0.30745286429007557j),
         (-0.04337278392854639-0.18844787562369497j),
         (-0.18034228202475855-0.4017211090784197j),
     ],
     (
         "463333333333c33f5955555555c5b5bc520851726160cbbf196a18a37f11c9bf"
         "568ed8b56057a33fb2acec7ce169db3ff8ef6c5a632dd63f79f35c26fbf6dcbf"
         "de1e108e8a5ee6bf934a2fc3ebcfbf3f53f4e16539f7e63f6e1629662326dd3f"),
     "010101010101",
     (
         "4095aa21b600c2bf31254448ccfbb7bf2d711e83f791a1bf83c0a235089bc0bf"
         "4bdf45f1f814debfbed4a7b96756c9bfdc2727b5a6c8b0bf29fed59ecf39a5bf"
         "e98134923053c13fa3a25f1e820fc1bff032d6b13e86bbbf6b71a74c2d10bd3f")),
    ("cardioid*moebius:0.67,0.67,5",
     [
         (-1.0787083781123634+0.7972330280023487j),
         (-1.1082527532617688+0.8600122443872753j),
         (-0.9705417285608449+0.8630642974615946j),
         (-1.1667225025766257+0.8066950349097374j),
         (-1.0986922998842772+0.9191116566942734j),
         (-1.0753763621290235+0.25461686428734703j),
     ],
     (
         "333333333333c33f8e03070e1cd4d6bc8e0851726160cbbf2d6a18a37f11c9bf"
         "5a8fd8b56057a33fb4acec7ce169db3f05f06c5a632dd63f6af35c26fbf6dcbf"
         "dc1e108e8a5ee6bfa34a2fc3ebcfbf3f5af4e16539f7e63f6b1629662326dd3f"),
     "010101010101",
     (
         "99219848cb2ca4bf786696f3409bcdbfc09a3a4b53057e3fcf0d93446bb3bebf"
         "667a93da4065ce3ff18d1eb11f55d0bf5089507d1fb9babf235d8c84e5c7b6bf"
         "6ba9615735f2af3fb5fb53bb4ffdafbfcdf3481fcf8501c0c522fb1505ecedbf")),
]


@pytest.mark.parametrize("name, z, w_hex, ok_hex, dw_hex", INVERT_MANY,
                         ids=[n for n, *_ in INVERT_MANY])
def test_invert_many(name, z, w_hex, ok_hex, dw_hex):
    z = np.array(z)
    w, ok, dw = make_pair(name).invert_many(z)
    assert (w.tobytes().hex(), ok.tobytes().hex(), dw.tobytes().hex()) == (w_hex, ok_hex, dw_hex)


#: (map, z, p, value); the twisted Koebe and cardioid rows were re-pinned when a
#: scalar point left numpy's scalar arithmetic for Python's (by 5.0e-16 and
#: 2.0e-16 relative)
@pytest.mark.parametrize("name, z, p, expected", [
    ("koebe*moebius:0.5,0.2,1", (0.3+0.4j), 4.0, 0.041468643599807564),
    ("sector:1.7*moebius:-0.6,0.7,2", (0.2+0.1j), 1.5, 2.4855151703780876),
    ("cardioid*moebius:0.5,-0.3,1", (-0.1+0.3j), 3.0, 0.5509658419790721),
    ("moebius:0.3,0,1*moebius:0.2,0.1,0.5", (0.4-0.2j), 6.0, 0.5176947231264672),
])
def test_p_distortion(name, z, p, expected):
    assert repr(p_distortion(make_pair(name), z, p)) == repr(expected)


#: (map, hex of the numbers its factor form is built from: log|psi'(0)|, then each
#: transported singular point's real and imaginary part, then each pole's and its
#: exponent).  Every integral of a twisted map rests on these bits, and an ulp of a
#: singular point can move a deep-ladder value by up to 2.9 times its bar, so a
#: change of scalar arithmetic shows here first
BUILT = [
    ("koebe*moebius:0.5,0.2,1",
     ("fb098c9a6de5ecbfdd325ae8cbd2ef3f619d49d135dbbabfc9123fd86a50de3f"
      "65a51e07c42eec3f")),
    ("koebe*moebius:0.9,0.2,1",
     ("0672c5803a5409c0d5c038a1bc94ef3fa45669b04aa5c43f6a7e079ade38ee3f"
      "883baff90e09d53f")),
    ("koebe*moebius:0.95,0.2,1",
     ("af2d944bf9c710c0f0efe2a61071ef3f1062e8327acec73f0ff49d317a00ef3f"
      "e1dc969549b8cf3f")),
    ("sector:1.3*moebius:-0.3,0.8,2",
     ("59a6032c6405fbbf09457f9ed363e5bf1f446d49f6cce73fde7d1c1d2784d2bf"
      "c54bc879a8a1ee3f")),
    ("sector:1.7*moebius:-0.6,0.7,2",
     ("3fa0cf9b2c32ffbf5cde446342bbe7bf03bf40ef7577e53f2491f9134f89e3bf"
      "4fdacb242058e93f")),
    ("cardioid*moebius:0.5,-0.3,1",
     ("2d47d7b1f294933fc96a2e592636e93ff3a21a0714b5e3bf000000000000e03f"
      "333333333333d33f00000000000008c0")),
    ("cardioid*moebius:0.67,0.67,5",
     ("e6fd12c82254fabffa6a3da8bc50e63f968340f269efe63f713d0ad7a370e53f"
      "713d0ad7a370e5bf00000000000008c0")),
    ("cardioid*moebius:0.05027829237277964,-0.8519746811694262,5.231008658459677",
     ("bd06e55db887febf683a29dc9b83e13ff6ed04c319c8eabf682fe18a13bea93f"
      "1a9114686043eb3f00000000000008c0")),
    ("moebius:0.9,0,0",
     ("feedcbe25a92fabfcdccccccccccec3f000000000000008000000000000000c0")),
    ("moebius:0.3,0,1*moebius:0.2,0.1,0.5",
     ("9631a0a5ae9cccbfbee39cf8929edc3f66bbfcdd6ced923f00000000000000c0")),
]


@pytest.mark.parametrize("name, expected", BUILT, ids=[n for n, _ in BUILT])
def test_built_numbers(name, expected):
    pair = make_pair(name)
    numbers = [pair.log_scale]
    numbers += [part for sp in pair.singular_points for part in (sp.location.real, sp.location.imag)]
    numbers += [part for c, f in pair.poles for part in (c.real, c.imag, f)]
    assert np.array(numbers).tobytes().hex() == expected
