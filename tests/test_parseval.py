"""A Parseval reference for Koebe's Brennan integral, and the disc rule against it.

For psi(w) = w/(1 - w)^2, psi' = (1 + w)(1 - w)^-3, so with a = r/2 and
b = 3r/2 the square root (psi')^(r/2) = (1 + w)^a (1 - w)^-b has Taylor
coefficients c_n with c_0 = 1, c_1 = a + b and

    c_(n+1) = ((a + b) c_n + (n - 1 + b - a) c_(n-1)) / (n + 1),

from (1 - w^2) f' = ((a + b) + (b - a) w) f.  Parseval on circles of
radius rho, integrated over rho, gives the integral over the disc:

    integral of |psi'|^r dA = pi * sum |c_n|^2 / (n + 1)

(Pommerenke, Boundary Behaviour of Conformal Maps).  The partial sums
miss the limit by a power series in 1/N whose leading exponent e is set
by the two singular points: 2b - 2 from w = 1 and -(2a + 2) from w = -1.
Richardson extrapolation at N = 2^17 ... 2^20 removes the exponents e,
e - 1 and e - 2.
"""

import functools
import math

import mpmath
import pytest

from brennanlab.catalog import koebe_map
from brennanlab.functionals import brennan_integral

#: partial-sum lengths 2^k of the extrapolation, shortest first
LEVELS = (17, 18, 19, 20)


def koebe_coefficients(s, count):
    """The first ``count`` Taylor coefficients of (psi')^((2 - s)/2) for Koebe, by the recurrence."""
    r = 2.0 - s
    a, b = r / 2.0, 3.0 * r / 2.0
    c = [1.0, a + b]
    for n in range(1, count - 1):
        c.append(((a + b) * c[n] + (n - 1 + b - a) * c[n - 1]) / (n + 1))
    return c[:count]


def richardson(sums, exponents):
    """Extrapolate partial sums at N, 2N, 4N, ... by removing the terms N^t, one t at a time."""
    for t in exponents:
        factor = 2.0 ** t
        sums = [(fine - factor * coarse) / (1.0 - factor) for coarse, fine in zip(sums, sums[1:])]
    return sums


@functools.lru_cache(maxsize=None)
def parseval_koebe(s):
    """Extrapolated pi * sum |c_n|^2/(n + 1) from 4 and from 3 partial sums, as (value, check)."""
    r = 2.0 - s
    a, b = r / 2.0, 3.0 * r / 2.0
    terms = [cn * cn / (n + 1) for n, cn in enumerate(koebe_coefficients(s, 2 ** LEVELS[-1]))]
    sums = [math.pi * math.fsum(terms[:2 ** k]) for k in LEVELS]
    e = max(2.0 * b - 2.0, -(2.0 * a + 2.0))
    exponents = (e, e - 1.0, e - 2.0)
    four, = richardson(sums, exponents)
    three, = richardson(sums[1:], exponents[:2])
    return four, three


def test_coefficients_match_binomial_convolution():
    """c_n = sum_k binom(a, k) binom(-b, n - k) (-1)^(n - k), in 40-digit arithmetic."""
    with mpmath.workdps(40):
        for s in (1.5, 3.0, 3.5, 3.9):
            r = mpmath.mpf(2) - mpmath.mpf(s)
            a, b = r / 2, 3 * r / 2
            for n, cn in enumerate(koebe_coefficients(s, 25)):
                exact = mpmath.fsum(mpmath.binomial(a, k) * mpmath.binomial(-b, n - k)
                                    * (-1) ** (n - k) for k in range(n + 1))
                assert abs(cn - exact) <= 1e-14 * max(1.0, abs(exact)), (s, n)


def test_area_identity():
    """At s = 2 every coefficient past c_0 = 1 vanishes, and the series is the disc's area."""
    assert koebe_coefficients(2.0, 50) == [1.0] + [0.0] * 49
    # every partial sum is pi; the extrapolation only rounds
    for value in parseval_koebe(2.0):
        assert abs(value - math.pi) <= 4 * math.ulp(math.pi)


#: (s, extrapolated reference); the same recurrence, sums and extrapolation run
#: in 80-bit long double agree with these to 2e-15 relative
REFERENCES = [(1.5, 8.60174625150544), (3.0, 14.743690347594969), (3.5, 88.53115193604582)]


@pytest.mark.parametrize("s, expected", REFERENCES)
def test_reference_is_stable(s, expected):
    """The extrapolations from 4 and from 3 partial sums agree, and the value is as pinned."""
    value, check = parseval_koebe(s)
    assert abs(value - check) <= 1e-14 * value
    assert abs(value - expected) <= 1e-14 * expected


@pytest.mark.parametrize("s", [s for s, _ in REFERENCES])
def test_disc_rule_value(s):
    res = brennan_integral(koebe_map(), s)
    ref, _ = parseval_koebe(s)
    assert res.converged
    assert abs(res.integral.value - ref) <= 1e-6 * ref


@pytest.mark.xfail(strict=True, reason="the tail bar is one-signed and misses by 1.28-1.38x "
                                       "(ROADMAP item 1: one tail model for verdict, value and bar)")
@pytest.mark.parametrize("s", [s for s, _ in REFERENCES])
def test_disc_rule_bar_covers_its_error(s):
    res = brennan_integral(koebe_map(), s)
    ref, _ = parseval_koebe(s)
    assert res.integral.abs_error_estimate >= abs(res.integral.value - ref)
