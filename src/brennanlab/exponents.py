"""Scalar exponent arithmetic for disc-map integrability and composition operators.

Closed-form relations between the summability exponent ``s`` of the
Brennan integral, the Sobolev exponents ``(p, q)`` of the induced
composition operator, Holder conjugates, the distortion degree ``alpha``
and the inverse-map exponent ``r = 2 - s``.  All functions are pure and
work in double precision; ``p = inf`` is passed as ``math.inf`` and
handled by explicit branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ExponentDomainError",
    "ExponentRecord",
    "KnownBounds",
    "Regime",
    "RegimeError",
    "alpha_range",
    "classify_regime",
    "dual_exponent",
    "dual_pair",
    "holder_conjugate",
    "q_from_ps",
    "s_from_pq",
]

#: comparison tolerance for all exponent identities
IDENTITY_TOL = 1e-12


class ExponentDomainError(ValueError):
    """An exponent lies outside the regime where the relation is defined."""


class RegimeError(ExponentDomainError):
    """The exponent pair lies in a regime without a bounded operator."""


def q_from_ps(p: float, s: float) -> float:
    """Target exponent ``q(p, s) = p*s/(p + s - 2)``.

    Requires ``p > 2`` (``math.inf`` is allowed and gives ``q = s``) and
    ``s > 0``, so that ``p + s - 2 > s > 0`` and hence ``0 < q < p``.
    """
    if not s > 0.0:
        raise ExponentDomainError(f"s must be positive, got s={s}")
    if p == math.inf:
        return float(s)
    if not p > 2.0:
        raise ExponentDomainError(
            f"q(p, s) requires p > 2 (got p={p}); at p = 2 the operator is the "
            "isometry and below 2 no bounded composition operator exists"
        )
    return p * s / (p + s - 2.0)


def s_from_pq(p: float, q: float) -> float:
    """Integrand exponent ``s = (p - 2)*q/(p - q)`` of the composition criterion.

    Inverse of :func:`q_from_ps` in its second argument: for ``p > 2`` and
    ``s > 0``, ``s_from_pq(p, q_from_ps(p, s)) == s`` up to rounding.  For
    ``p = inf`` the limiting value is ``q``.  Raises ExponentDomainError
    for ``q <= 0`` and RegimeError for ``q >= p``.
    """
    if not q > 0.0:
        raise ExponentDomainError(f"q must be positive, got q={q}")
    if not q < p:
        raise RegimeError(
            f"K_(p,q) requires q < p (got p={p}, q={q}): at q = p the criterion is "
            "vacuous and for q > p no bounded composition operator exists"
        )
    if p == math.inf:
        return float(q)
    return (p - 2.0) * q / (p - q)


def holder_conjugate(p: float) -> float:
    """Conjugate exponent ``p'`` with ``1/p + 1/p' = 1``.

    ``holder_conjugate(inf) == 1``; finite ``p <= 1`` is rejected.
    """
    if p == math.inf:
        return 1.0
    if not p > 1.0:
        raise ExponentDomainError(f"conjugate requires p > 1 or p = inf, got p={p}")
    return p / (p - 1.0)


def dual_exponent(p: float, q: float) -> float:
    """Shared integrand exponent ``p*(2 - q)/(p - q)`` of the dual operator pair.

    Equal, as an algebraic identity, to ``(q' - 2)*p'/(q' - p')`` written in
    the conjugate exponents; :func:`_dual_exponents` asserts the two closed
    forms agree numerically.  Raises RegimeError unless ``1 < q < p < inf``.
    """
    if not (1.0 < q < p < math.inf):
        raise RegimeError(f"duality check requires 1 < q < p < inf, got p={p}, q={q}")
    return p * (2.0 - q) / (p - q)


def dual_pair(p: float, q: float) -> tuple[float, float]:
    """Exponents ``(q', p')`` of the inverse composition operator.

    For ``1 < q < p < inf`` the inverse map acts boundedly from the
    ``q'``-space to the ``p'``-space, where the primes are Holder
    conjugates; note ``p' < q'``.  Both closed forms of the shared dual
    integrand exponent are evaluated and must agree to ``IDENTITY_TOL``
    (:func:`_dual_exponents`).  Raises RegimeError, through
    :func:`dual_exponent`, unless ``1 < q < p < inf``.
    """
    return _dual_exponents(p, q)[:2]


def _dual_exponents(p: float, q: float) -> tuple[float, float, float, float]:
    """``(q', p', direct, dual)``: the conjugate pair and both closed forms of the dual exponent.

    ``direct`` is :func:`dual_exponent`'s ``p*(2 - q)/(p - q)`` and ``dual``
    is ``(q' - 2)*p'/(q' - p')``; ArithmeticError is raised when they differ
    by more than ``IDENTITY_TOL``.  Each is computed once, for
    :func:`dual_pair` and ``duality_check`` alike.
    """
    direct = dual_exponent(p, q)
    q_conj = holder_conjugate(q)
    p_conj = holder_conjugate(p)
    dual = (q_conj - 2.0) * p_conj / (q_conj - p_conj)
    if abs(dual - direct) > IDENTITY_TOL * max(1.0, abs(direct)):
        raise ArithmeticError(
            f"dual exponent identity violated: {dual!r} != {direct!r} for p={p}, q={q}"
        )
    return q_conj, p_conj, direct, dual


def alpha_range(p: float) -> tuple[float, float]:
    """Open interval of degrees ``alpha`` in which the p-distortion is integrable.

    ``(4/(3(p-2)), 4/(p-2))`` for ``p > 2`` and the mirrored negative
    interval ``(-4/(2-p), -4/(3(2-p)))`` for ``1 <= p < 2``.  The endpoints
    satisfy ``alpha*(p - 2) in {4/3, 4}`` up to the sign convention of the
    lower branch.  ``p = 2`` has no distortion degree and is rejected.
    """
    if p == 2.0:
        raise ExponentDomainError("alpha range is undefined at p = 2 (distortion is trivial)")
    if p == math.inf or not p >= 1.0:
        raise ExponentDomainError(f"alpha range requires finite p >= 1, got p={p}")
    if p > 2.0:
        return 4.0 / (3.0 * (p - 2.0)), 4.0 / (p - 2.0)
    return -4.0 / (2.0 - p), -4.0 / (3.0 * (2.0 - p))


@dataclass(frozen=True)
class KnownBounds:
    """Named constants bracketing what is proved about the Brennan range.

    ``easy_upper`` is the exponent up to which the direct integral estimate
    follows from the Koebe distortion theorem; the other three are the
    successively improved proved upper bounds.  ``hedenmalm_shimorin`` is
    stored as a bound on ``s``.  ``inverse_proved_lower`` is the proved
    lower endpoint for the inverse-map exponent ``r``.
    """

    easy_upper: float = 3.0
    brennan_conjectured: tuple[float, float] = (4.0 / 3.0, 4.0)
    pommerenke: float = 3.399
    bertilsson: float = 3.421
    hedenmalm_shimorin: float = 3.752
    inverse_proved_lower: float = -1.78
    inverse_conjectured: tuple[float, float] = (-2.0, 2.0 / 3.0)

    def __post_init__(self) -> None:
        if not (self.easy_upper < self.pommerenke < self.bertilsson
                < self.hedenmalm_shimorin < 4.0):
            raise ValueError("proved bounds must be strictly increasing and below 4")
        if not (-2.0 < self.inverse_proved_lower < 2.0 / 3.0):
            raise ValueError("inverse proved bound must lie inside (-2, 2/3)")


class Regime(str, Enum):
    """Qualitative behaviour of the composition operator for a pair (p, q)."""

    ISOMETRY = "isometry"
    BOUNDED_CANDIDATE = "bounded-candidate"
    DEGENERATE_EQUAL = "degenerate-equal"
    UNBOUNDED = "unbounded-regime"
    SUP_NORM = "sup-norm"


def classify_regime(p: float, q: float) -> Regime:
    """Classify the exponent pair of a would-be composition operator.

    ``(2, 2)`` is the exact isometry; ``q < p`` is the regime where a finite
    integral criterion characterises boundedness; ``q = p != 2`` carries no
    integrability content; ``q > p`` admits no bounded operator at all.
    """
    if not (p >= 1.0 and q >= 1.0):
        raise ExponentDomainError(f"exponents must be >= 1, got p={p}, q={q}")
    if p == 2.0 and q == 2.0:
        return Regime.ISOMETRY
    if p == math.inf:
        return Regime.SUP_NORM
    if q < p:
        return Regime.BOUNDED_CANDIDATE
    if q == p:
        return Regime.DEGENERATE_EQUAL
    return Regime.UNBOUNDED


@dataclass(frozen=True)
class ExponentRecord:
    """One consistent bundle of exponents derived from a pair ``(p, s)``.

    ``r`` is the inverse-map exponent ``2 - s`` and ``alpha`` the distortion
    degree with ``alpha*(p - 2) = s``.  Conjugates are ``None`` when the
    base exponent does not admit one (``q <= 1``).
    """

    p: float
    q: float
    s: float
    r: float
    alpha: float | None
    p_conj: float | None
    q_conj: float | None

    @classmethod
    def from_p_s(cls, p: float, s: float) -> "ExponentRecord":
        q = q_from_ps(p, s)
        alpha = None if p == math.inf else s / (p - 2.0)
        p_conj = holder_conjugate(p)
        q_conj = holder_conjugate(q) if q > 1.0 else None
        return cls(p=p, q=q, s=s, r=2.0 - s, alpha=alpha, p_conj=p_conj, q_conj=q_conj)

    def regime(self) -> Regime:
        return classify_regime(self.p, self.q)

    def validate(self) -> None:
        """Check the internal identities to ``IDENTITY_TOL``."""
        if self.p != math.inf and self.p_conj is not None:
            if abs(1.0 / self.p + 1.0 / self.p_conj - 1.0) > IDENTITY_TOL:
                raise ArithmeticError("p conjugate identity violated")
        if self.q_conj is not None:
            if abs(1.0 / self.q + 1.0 / self.q_conj - 1.0) > IDENTITY_TOL:
                raise ArithmeticError("q conjugate identity violated")
        if abs(self.r - (2.0 - self.s)) > IDENTITY_TOL:
            raise ArithmeticError("r = 2 - s identity violated")
        if self.alpha is not None and self.p != 2.0:
            if abs(self.alpha * (self.p - 2.0) - self.s) > IDENTITY_TOL * max(1.0, abs(self.s)):
                raise ArithmeticError("alpha*(p-2) = s identity violated")
