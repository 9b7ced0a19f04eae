"""Parseval references for Brennan integrals, and the disc rule against them.

For psi(w) = w/(1 - w)^2, psi' = (1 + w)(1 - w)^-3, so with a = r/2 and
b = 3r/2 the square root (psi')^(r/2) = (1 + w)^a (1 - w)^-b has Taylor
coefficients c_n with c_0 = 1, c_1 = a + b and

    c_(n+1) = ((a + b) c_n + (n - 1 + b - a) c_(n-1)) / (n + 1),

from (1 - w^2) f' = ((a + b) + (b - a) w) f.  Parseval on circles of
radius rho, integrated over rho, gives the integral over the disc:

    integral of |psi'|^r dA = pi * sum |c_n|^2 / (n + 1)

(Pommerenke, Boundary Behaviour of Conformal Maps).  The same recurrence
serves every map whose psi' is |psi'(0)| (1 + w)^(2a/r) (1 - w)^(-2b/r)
up to a unimodular constant, with the sum scaled by |psi'(0)|^r: the
sector ((1 - w)/(1 + w))^beta has a = -r(beta + 1)/2, b = -r(beta - 1)/2
and |psi'(0)| = 2 beta, and the cardioid w - w^2/2 has a = 0, b = -r/2.
The partial sums miss the limit by powers of 1/N from each singular
point: N^p, N^(p - 1), N^(p - 2), ... with p = 2b - 2 from w = 1 and
p = -(2a + 2) from w = -1 (a factor with exponent 0 is no singular
point).  Richardson extrapolation at N = 2^17 ... 2^20 removes the three
largest of these powers, from both points, so that when both ends are
singular the second point's leading power goes too.
"""

import functools
import math

import mpmath
import pytest

from brennanlab.catalog import koebe_map, make_pair
from brennanlab.functionals import brennan_integral
from brennanlab.quadrature import Classification

#: partial-sum lengths 2^k of the extrapolation, shortest first
LEVELS = (17, 18, 19, 20)


def factor_form(name, s):
    """``(a, b, |psi'(0)|)`` at r = 2 - s: (psi'/psi'(0))^(r/2) is (1 + w)^a (1 - w)^-b."""
    r = 2.0 - s
    if name == "koebe":
        return r / 2.0, 3.0 * r / 2.0, 1.0
    if name == "cardioid":
        return 0.0, -r / 2.0, 1.0
    beta = float(name.removeprefix("sector:"))
    return -r * (beta + 1.0) / 2.0, -r * (beta - 1.0) / 2.0, 2.0 * beta


def coefficients(a, b, count):
    """The first ``count`` Taylor coefficients of (1 + w)^a (1 - w)^-b, by the recurrence."""
    c = [1.0, a + b]
    for n in range(1, count - 1):
        c.append(((a + b) * c[n] + (n - 1 + b - a) * c[n - 1]) / (n + 1))
    return c[:count]


def tail_exponents(a, b):
    """The powers t of the partial sums' errors N^t, largest first: p, p - 1, p - 2 of each point."""
    leads = [lead for lead, power in ((2.0 * b - 2.0, b), (-(2.0 * a + 2.0), a)) if power]
    return sorted({lead - k for lead in leads for k in (0.0, 1.0, 2.0)}, reverse=True)


def richardson(sums, exponents):
    """Extrapolate partial sums at N, 2N, 4N, ... by removing the terms N^t, one t at a time."""
    for t in exponents:
        factor = 2.0 ** t
        sums = [(fine - factor * coarse) / (1.0 - factor) for coarse, fine in zip(sums, sums[1:])]
    return sums


@functools.lru_cache(maxsize=None)
def parseval(name, s):
    """Extrapolated |psi'(0)|^r pi sum |c_n|^2/(n + 1) from 4 and 3 partial sums: (value, check).

    At s = 2 no point is singular and every partial sum is the value.
    """
    a, b, scale = factor_form(name, s)
    terms = [cn * cn / (n + 1) for n, cn in enumerate(coefficients(a, b, 2 ** LEVELS[-1]))]
    sums = [scale ** (2.0 - s) * math.pi * math.fsum(terms[:2 ** k]) for k in LEVELS]
    exponents = tail_exponents(a, b)
    return richardson(sums, exponents[:3])[-1], richardson(sums[1:], exponents[:2])[-1]


def test_coefficients_match_binomial_convolution():
    """c_n = sum_k binom(a, k) binom(-b, n - k) (-1)^(n - k), in 40-digit arithmetic."""
    with mpmath.workdps(40):
        for s in (1.5, 3.0, 3.5, 3.9):
            r = mpmath.mpf(2) - mpmath.mpf(s)
            a, b = r / 2, 3 * r / 2
            for n, cn in enumerate(coefficients(*factor_form("koebe", s)[:2], 25)):
                exact = mpmath.fsum(mpmath.binomial(a, k) * mpmath.binomial(-b, n - k)
                                    * (-1) ** (n - k) for k in range(n + 1))
                assert abs(cn - exact) <= 1e-14 * max(1.0, abs(exact)), (s, n)


def test_area_identity():
    """At s = 2 every coefficient past c_0 = 1 vanishes, and the series is the disc's area."""
    assert coefficients(*factor_form("koebe", 2.0)[:2], 50) == [1.0] + [0.0] * 49
    # every partial sum is pi; the extrapolation only rounds
    for value in parseval("koebe", 2.0):
        assert abs(value - math.pi) <= 4 * math.ulp(math.pi)


#: (s, extrapolated reference); the same recurrence, sums and extrapolation run
#: in 80-bit long double agree with these to 2e-15 relative
REFERENCES = [(1.5, 8.60174625150544), (3.0, 14.743690347594969), (3.5, 88.53115193604582)]


@pytest.mark.parametrize("s, expected", REFERENCES)
def test_reference_is_stable(s, expected):
    """The extrapolations from 4 and from 3 partial sums agree, and the value is as pinned."""
    value, check = parseval("koebe", s)
    assert abs(value - check) <= 1e-14 * value
    assert abs(value - expected) <= 1e-14 * expected


@pytest.mark.parametrize("s", [s for s, _ in REFERENCES])
def test_disc_rule_value(s):
    res = brennan_integral(koebe_map(), s)
    ref, _ = parseval("koebe", s)
    assert res.integral.classification is Classification.CONVERGED
    assert abs(res.integral.value - ref) <= 1e-6 * ref


@pytest.mark.xfail(strict=True, reason="the tail bar is one-signed and misses by 1.28-1.38x "
                                       "(ROADMAP item 1: one tail model for verdict, value and bar)")
@pytest.mark.parametrize("s", [s for s, _ in REFERENCES])
def test_disc_rule_bar_covers_its_error(s):
    res = brennan_integral(koebe_map(), s)
    ref, _ = parseval("koebe", s)
    assert res.integral.abs_error_estimate >= abs(res.integral.value - ref)


#: (map, s, extrapolated reference) of the next maps, sectors and the cardioid.
#: sector:0.5 at s = 1.5 was re-pinned (from 3.4095622378126262, 3.1e-14 away)
#: when the extrapolation began to remove its second point's N^-1.75; the
#: new value agrees to 5e-16 with extrapolations from 2^18 ... 2^22
MAP_REFERENCES = [
    ("sector:0.5", 1.5, 3.4095622378125205), ("sector:0.5", 2.5, 3.296180804517265),
    ("sector:0.5", 3.5, 4.316119567490637),
    ("sector:1.5", 1.5, 9.258873560730116), ("sector:1.5", 2.5, 2.336557469460168),
    ("sector:1.5", 3.5, 3.1632695478447923),
    ("cardioid", 1.0, 3.555555555555555), ("cardioid", 3.0, 4.0),
    ("cardioid", 3.5, 6.777704678351834),
]


@pytest.mark.parametrize("name, s, expected", MAP_REFERENCES)
def test_map_reference_is_stable(name, s, expected):
    """The extrapolations from 4 and from 3 partial sums agree, and the value is as pinned.

    They agree to 3.9e-16 relative for sector:0.5 at s = 1.5, whose
    second singular point's N^-1.75 lies between the first's N^-1.25 and
    N^-2.25, and to 1.4e-16 or better elsewhere.
    """
    value, check = parseval(name, s)
    assert abs(value - check) <= 1e-14 * value
    assert abs(value - expected) <= 1e-14 * expected


@pytest.mark.parametrize("s, exact", [(1.0, 32.0 / 9.0), (3.0, 4.0)])
def test_cardioid_closed_forms(s, exact):
    """|psi'| = |1 - w|: the integral of |1 - w|^t is 32/9 at t = 1 and 4 at t = -1."""
    value, _ = parseval("cardioid", s)
    assert abs(value - exact) <= 1e-14 * exact


@pytest.mark.parametrize("name, s", [(name, s) for name, s, _ in MAP_REFERENCES])
def test_map_disc_rule_value(name, s):
    res = brennan_integral(make_pair(name), s)
    ref, _ = parseval(name, s)
    assert res.integral.classification is Classification.CONVERGED
    assert abs(res.integral.value - ref) <= 1e-6 * ref


ONE_SIGNED_BAR = pytest.mark.xfail(
    strict=True, reason="the tail bar is one-signed and misses by 1.17-1.39x "
                        "(ROADMAP item 1: one tail model for verdict, value and bar)")


@pytest.mark.parametrize("name, s", [
    pytest.param("sector:0.5", 1.5, marks=ONE_SIGNED_BAR),
    ("sector:0.5", 2.5),
    ("sector:0.5", 3.5),
    pytest.param("sector:1.5", 1.5, marks=ONE_SIGNED_BAR),
    ("sector:1.5", 2.5),
    pytest.param("sector:1.5", 3.5, marks=ONE_SIGNED_BAR),
    ("cardioid", 1.0),
    pytest.param("cardioid", 3.0, marks=ONE_SIGNED_BAR),
    pytest.param("cardioid", 3.5, marks=ONE_SIGNED_BAR),
])
def test_map_disc_rule_bar_covers_its_error(name, s):
    res = brennan_integral(make_pair(name), s)
    ref, _ = parseval(name, s)
    assert res.integral.abs_error_estimate >= abs(res.integral.value - ref)
