"""Closed-form Riemann maps psi: D -> Omega with derivatives and inverses.

The catalog stores the disc-to-domain direction in closed form together
with hand-derived boundary singularity data (points on the unit circle
where ``|psi'|`` vanishes or blows up like a power of the distance).  The
domain-to-disc direction ``phi`` is closed form too: each family writes
its principal-branch inverse, whose branch cut lies outside Omega
(Pommerenke, *Boundary Behaviour of Conformal Maps*).  Its w is accepted,
with no Newton step, where either the residual ``|psi(w) - z|`` or the
Newton step that residual implies in w is within its target.

Families
--------
identity
    psi(w) = w, Omega = D, phi(z) = z.
moebius:a_re,a_im,theta
    Disc automorphism ``e^{i theta} (w - a)/(1 - conj(a) w)``, Omega = D.
koebe
    psi(w) = w/(1-w)^2, Omega = plane minus the ray (-inf, -1/4],
    phi(z) = 2z/(1 + 2z + sqrt(1 + 4z)).
sector:beta
    psi(w) = ((1-w)/(1+w))^beta with beta in (0, 2], Omega = sector of
    opening beta*pi (beta = 2 gives the slit plane again),
    phi(z) = (1 - t)/(1 + t) with t = z**(1/beta), the principal power.
cardioid
    psi(w) = w - w^2/2, Omega = interior of a cardioid,
    phi(z) = 2z/(1 + sqrt(1 - 2z)).

Any family accepts the suffix ``*moebius:a_re,a_im,theta`` for
precomposition with a disc automorphism m; the twisted ``phi`` applies
``m^-1`` to the base map's.

One formula per map
-------------------
Every family, and every twist, writes its map once, as
``psi_dpsi(w) -> (psi(w), psi'(w))``, so that the subexpressions the two
share are computed once: ``psi`` itself and ``1 - w``, ``1 + w`` for a
sector (``psi' = -2 beta psi/((1 - w)(1 + w))``), ``1 - w`` for Koebe, and
the denominator ``1 - conj(a) w`` of ``m`` and ``m'`` for a twist, whose
constants ``conj(a)`` and ``e^{i theta} (1 - |a|^2)`` are made with it.
``psi`` and ``dpsi`` are its first and second output.  A formula takes
its input as given, with no converter, and so in one of three
arithmetics: a Python complex takes Python's complex arithmetic and
``cmath``, about a third of the cost of numpy's scalar arithmetic; a
numpy complex scalar takes numpy's scalar arithmetic, outside the two
kernels below, and only :class:`ConformalPair`'s ``log_scale`` and a
twist's transport of the singular points pass one; a complex array takes
numpy's array arithmetic.  :meth:`ConformalPair.invert` passes a Python
complex, and :meth:`ConformalPair.invert_many` and the charts complex
arrays.  The sector's psi and phi share one power kernel,
:func:`_power`, and Koebe's and the cardioid's phi one square-root
kernel, :func:`_sqrt`.  Both take ``cmath`` on any complex scalar, a
numpy one included, and return a Python complex; on an array the power
takes real arithmetic in place of numpy's costlier complex ``log`` and
``exp``, and the root numpy's ``sqrt``.  So a scalar and an array may round
one point differently: what :meth:`ConformalPair.invert` and
:meth:`ConformalPair.invert_many` share is the acceptance of each point,
not its bits.  A call's temporaries add to the inversion's peak
memory, so a family frees them early: Koebe and the sector divide
``psi'`` in place, and the sector and the twist rebind a factor to its
product.  No complex product is formed in place, because numpy (2.4)
rounds an in-place complex product differently on one-element arrays.

Factor form
-----------
Every map's derivative is ``psi'(w) = C * prod_k (1 - c_k w)**f_k``, one
list of factors with ``|c_k| <= 1``, each 1 at w = 0, so that
``|C| = |psi'(0)|`` and no family declares it.  A singular point
``zeta_k`` on the unit circle gives the factor ``1 - w/zeta_k``, so
``c_k = conj(zeta_k)`` and ``f_k = e_k``: Koebe has ``e = 1`` at -1 and
``e = -3`` at 1, a sector ``beta - 1`` at 1 and ``-(beta + 1)`` at -1, the
cardioid ``1`` at 1, and the identity no factor.  The ``(zeta_k, e_k)``
are the ``singular_points``.  A pole ``1/c_j`` lies off the closed disc
(``|c_j| < 1``), and only twists make them; the ``(c_j, f_j)`` are the
``poles``.  A twist by ``m`` with parameter ``a`` carries every factor
through ``m``: each ``zeta_k`` moves to ``m^-1(zeta_k)``, each ``c_j`` to
the coefficient of the transported factor, and one new pole factor
``(1 - conj(a) w)**(-2 - sum of all exponents)`` appears, which is absent
(exponent 0) for Koebe, sectors and a Moebius map twisted again.  A pair
writes this list once, as ``(rho_k, alpha_k, f_k)`` with
``c_k = rho_k e^{i alpha_k}``, the singular points first, and reads every
angle, polar location and threshold it derives off that one list: a
factor's angle is ``(-alpha_k) mod 2 pi``, in ``[0, 2 pi)``, and its
location ``(1/rho_k, angle)`` (see :class:`ConformalPair`).

With ``c = rho e^{i alpha}`` and ``w = r e^{i theta}``,
``|1 - c w|^2 = (1 - rho r)^2 + 4 rho r sin^2((theta + alpha)/2)``: a
sum of two nonnegative terms, so nothing cancels, and near a singular
point (``rho = 1``, ``alpha = -arg zeta``) the two terms are the radial
and the angular distance, each formed from the ring's own ``r`` and
``theta`` (``theta + alpha`` less a whole turn, taken so that a node a
turn away from the singular angle keeps its low bits).  The expanded
``(Re zeta - x)^2 + (Im zeta - y)^2`` instead subtracts
``x = r cos(theta)``, rounded to its ulp near 1, from ``Re zeta``.
:meth:`ConformalPair.abs_dpsi_power` evaluates ``|psi'|^e`` on the
quadrature rings ``r x theta`` from this form, in the disc rule's two
stages (the angular terms and every ring's radial terms once per block
of rings, the product, ``log`` and ``exp`` per ring); the disc integrals
call it.  At ``e = 0`` it returns ones and forms no factor: every weight
``e f_k/2`` and the scale ``e log|C|`` are then +-0 and every
``|1 - c w|^2`` is finite and positive inside the disc, so the form gives
``exp(+-0) = 1.0`` exactly, and ones are the same bits.  The
closed form ``dpsi`` never uses this form, so each checks the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "ConformalPair",
    "DescriptorError",
    "MapDescriptor",
    "MapDomainError",
    "NewtonConvergenceError",
    "SingularPoint",
    "cardioid_map",
    "identity_map",
    "koebe_map",
    "make_pair",
    "moebius_map",
    "parse_descriptor",
    "sector_map",
]

TWO_PI = 2.0 * math.pi
#: 2pi - TWO_PI, so that TWO_PI + TWO_PI_LO is a whole turn to about 1e-32
TWO_PI_LO = 2.4492935982947064e-16

#: an inverted point w is accepted when |psi(w) - z| <= NEWTON_TOL * (1 + |z|)
NEWTON_TOL = 1e-12
#: ... or when its Newton step |psi(w) - z| / |psi'(w)| <= STEP_TOL * (1 + |w|).  Next
#: to singular points phi's w sat up to 38 of these units from its step: a twist m
#: with |a| <= 0.95 turns an ulp of m(w) into up to 39 ulps of w
STEP_TOL = 64.0 * 2.0 ** -52
#: a twist's new pole exponent -2 - sum(exponents) at most this large counts
#: as no pole; for sectors (beta - 1) - (beta + 1) rounds to -2 within an ulp
POLE_TOL = 1e-12


class MapDomainError(ValueError):
    """A point lies outside the domain of the requested evaluation."""


class NewtonConvergenceError(RuntimeError):
    """An inverted point misses both targets: the residual in z and its Newton step in w."""


class DescriptorError(ValueError):
    """A map descriptor string or parameter is malformed."""


@dataclass(frozen=True)
class SingularPoint:
    """Boundary point w0 with |psi'(w)| ~ |w - w0|**exponent near w0."""

    location: complex
    exponent: float

    @property
    def angle(self) -> float:
        """The location's phase, in ``[0, 2 pi)``: reduced twice, so that 2 pi itself is 0."""
        return cmath.phase(self.location) % TWO_PI % TWO_PI


@dataclass(frozen=True)
class MapDescriptor:
    """Addressable identity of a catalog map, including an optional twist.

    ``params`` holds the family's numbers in descriptor order, under the
    names its ``_FAMILIES`` row gives: ``(beta,)`` for a sector,
    ``(a_re, a_im, theta)`` for a Moebius map and none for the rest.
    ``twist_a``/``twist_theta`` record precomposition with the disc
    automorphism ``m(w) = e^{i twist_theta} (w - twist_a)/(1 - conj(twist_a) w)``.
    A descriptor checks itself when made, against its family's row: an
    unknown family, a count of numbers other than the row's, a sector
    opening outside (0, 2], and a Moebius map's or a twist's ``|a| >= 1``
    or non-finite theta raise DescriptorError.
    """

    family: str
    params: tuple[float, ...] = ()
    twist_a: complex | None = None
    twist_theta: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DescriptorError(
                f"unknown map family {self.family!r}; known: {', '.join(_FAMILIES)}")
        names, check, _ = _FAMILIES[self.family]
        if len(self.params) != len(names):
            raise DescriptorError(f"{_form(self.family, names)} takes {len(names)} number(s), "
                                  f"got {len(self.params)}")
        if check:
            check(*self.params)
        if self.twist_a is not None:
            _check_moebius(self.twist_a.real, self.twist_a.imag, self.twist_theta)

    def label(self) -> str:
        head = _form(self.family, [f"{x:g}" for x in self.params])
        if self.twist_a is None:
            return head
        twist = (self.twist_a.real, self.twist_a.imag, self.twist_theta)
        return f"{head}*{_form('moebius', [f'{x:g}' for x in twist])}"


def _form(family: str, fields) -> str:
    """A descriptor's text, ``family:f1,f2,...``, or the bare family with no fields."""
    return f"{family}:{','.join(fields)}" if fields else family


@dataclass(frozen=True)
class ConformalPair:
    """A Riemann map psi: D -> Omega with derivative and inverse.

    ``psi_dpsi`` is the map's one closed form, returning ``(psi(w), psi'(w))``,
    and ``phi`` its principal-branch inverse (see the module docstring), both
    vectorized over complex ndarrays with no domain checks; ``psi`` and
    ``dpsi`` return the two outputs of ``psi_dpsi``.  On an array,
    ``psi_dpsi`` and ``phi`` must return new, writable arrays that the
    caller owns, never their input or a view of it: :meth:`invert_many`
    subtracts z from the first in place and returns the others.
    ``domain_contains`` decides membership in Omega, elementwise on an
    array.  ``psi`` and ``dpsi`` are fields, not methods over ``psi_dpsi``,
    because the benchmark's tracer rebuilds a pair with ``psi=`` and
    ``dpsi=`` keywords to time them.  Immutable; safe to share between
    threads.

    On a Python complex, ``psi``, ``dpsi``, ``psi_dpsi`` and ``phi`` take
    Python's complex arithmetic, which raises ``ZeroDivisionError`` or
    ``OverflowError`` (both ``ArithmeticError``) at a pole or past the
    largest float, where an array gets inf or nan and a numpy warning:
    ``koebe_map().psi(1 + 0j)`` raises.  Only :meth:`invert` turns these
    into its own two errors.  ``domain_contains`` raises neither: past the
    largest float it is False, as on an array.

    The derivative also has the factor form of the module docstring:
    ``singular_points`` holds the ``(zeta_k, e_k)`` on the circle, ``poles``
    the ``(c_j, f_j)`` of the factors ``(1 - c_j w)**f_j`` off the closed
    disc (only :meth:`compose_with_moebius` makes them), and ``log_scale``
    is ``log|C| = log|psi'(0)|``.  The two lists are the pair's declared
    singular data, and only this class and :meth:`compose_with_moebius`
    read them: when the pair is built they become, once, the factor list
    ``(rho, alpha, f)`` of each ``c = rho e^{i alpha}`` (``c = conj(zeta_k)``
    for a singular point, so ``rho = 1``), and the four tuples below are
    read off that one list, so a copy made with ``dataclasses.replace``
    builds its own.  Every angle among them lies in ``[0, 2 pi)``: a
    factor's angle is ``(-alpha) mod 2 pi``, reduced twice, so that a phase
    just below 0, which reduces to 2 pi itself, is 0.

    - ``singular_angles``: each ``arg zeta_k``, the first grading angles.
    - ``grading_angles``: the angles the disc rule is graded toward, the
      singular angles and then each pole's ``arg(1/c_j)``.  ``|psi'|``
      peaks or dips toward a pole, most sharply for ``|c_j|`` near 1; a
      twist's pole lies at angle arg(a).
    - ``singular_polar``: psi's singular locations in polar form, the
      ``(modulus, angle)`` of each ``zeta_k`` and each finite ``1/c_j``, as
      Python floats: modulus 1.0 and ``1/|c_j|``, at the grading angles.
      The forward patch refines its cells toward them, reading them as
      given.
    - ``thresholds``: ``(lower, upper)``, the closed-form integrability
      thresholds of the Brennan exponent s, from the exponents of the
      singular rows.  A point of exponent e admits
      ``|psi'|^(2 - s)`` when ``(2 - s) e > -2``, so ``upper`` is the least
      ``2 + 2/e`` over the ``e > 0`` and ``lower`` the greatest over the
      ``e < 0``, each ``None`` with no such point.
    """

    descriptor: MapDescriptor
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    psi_dpsi: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    phi: Callable[[np.ndarray], np.ndarray]
    domain_contains: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple[SingularPoint, ...]
    poles: tuple[tuple[complex, float], ...] = ()

    def __post_init__(self):
        # abs_dpsi_power's factor list, fixed here so that a call only does array
        # work: (rho, alpha, f/2) of c = rho e^{i alpha}, where a singular point
        # has c = conj(zeta), on the circle at the angle the rule is graded to;
        # every factor is 1 at w = 0, so log|C| = log|psi'(0)|, here in numpy's scalar
        # arithmetic, with which every factor form, and so every integral, was pinned:
        # Python's moves it by an ulp for about one twisted map in six
        object.__setattr__(self, "log_scale",
                           math.log(abs(complex(self.psi_dpsi(np.complex128(0.0))[1]))))
        factors = [(1.0, -sp.angle, sp.exponent) for sp in self.singular_points]
        factors += [(abs(c), cmath.phase(c), f) for c, f in self.poles]
        rho, alpha, f = np.array(factors, dtype=float).reshape(-1, 3).T
        object.__setattr__(self, "_factors", (rho[:, None], alpha[:, None], 0.5 * f))
        # every derived tuple is read off the one factor list, whose first n rows
        # are the singular points: a factor's grading angle is (-alpha) mod 2pi,
        # reduced twice, as in SingularPoint.angle, so that 2pi itself lands on 0
        grading = tuple(-a % TWO_PI % TWO_PI for _, a, _ in factors)
        n = len(self.singular_points)
        object.__setattr__(self, "singular_angles", grading[:n])
        object.__setattr__(self, "grading_angles", grading)
        # a pole 1/c past the largest float is infinitely far from every cell, and dropped
        object.__setattr__(self, "singular_polar", tuple(
            (1.0 / p, angle) for (p, _, _), angle in zip(factors, grading) if 1.0 / p < math.inf))
        object.__setattr__(self, "thresholds", (
            max((2.0 + 2.0 / e for _, _, e in factors[:n] if e < 0.0), default=None),
            min((2.0 + 2.0 / e for _, _, e in factors[:n] if e > 0.0), default=None)))

    def abs_dpsi_power(self, r: np.ndarray, theta: np.ndarray, e: float
                       ) -> Callable[[int, slice], np.ndarray]:
        """``|psi'|^e`` on polar grids, in the disc rule's two stages (no domain checks).

        This call is the block stage, run once for a block of rings: ``r``
        holds each ring's radial nodes (2-D floats, one row a ring) and
        ``theta`` the block's angles (1-D floats).  It forms every factor's
        angular rows ``[1; sin^2((theta + alpha)/2)]``, with theta + alpha
        reduced by whole turns, and, by :func:`_radial_terms`, its radial
        terms ``[(1 - rho r)^2, 4 rho r]`` at every ring's nodes.  It
        returns the ring stage ``ring(i, part)``, which gives
        ``|psi'(r[i, j] e^{i theta_k})|^e`` for the nodes ``r[i]`` (down)
        and the angles ``theta[part]`` (across), a new array of shape
        ``(r.shape[1], len(theta[part]))``.  From the factor form: one
        batched matrix product of the ring's radial terms and rows gives
        every factor's ``|1 - c w|^2`` on the grid, one ``log`` and one
        weighted sum over the factors give ``e log|psi'|``, and one ``exp``
        the power; it agrees with ``|dpsi(w)|**e`` to rounding.  Where the
        power overflows it is inf, and where ``e log|psi'|`` does it is inf
        or nan, so that the caller can name the node; the disc rule runs
        both stages with numpy's overflow and invalid-value warnings off.

        At ``e == 0`` (``-0.0`` too), the exponent of the area identity
        (s = 2) and of a q = 2 pullback, the ring stage returns new ones
        and no term is formed.  That is exact: the weights and the scale are
        then +-0 and every ``|1 - c w|^2`` is finite and positive at an
        interior node, so the factor form's ``exp`` is 1.0 to the bit.
        """
        n_r = r.shape[1]
        if e == 0:
            return lambda i, part: np.ones((n_r, len(theta[part])))
        rho, alpha, half_f = self._factors
        k = len(rho)
        angular = np.empty((k, 2, len(theta)))
        angular[:, 0] = 1.0
        side = angular[:, 1]
        # theta + alpha less a whole turn where it exceeds pi in size: a ring's
        # angles span [theta_0, theta_0 + 2pi), so next to a singular point the
        # sum can sit near +-2pi, where it is rounded to ulp(2pi); there
        # theta - TWO_PI, or alpha + TWO_PI, is exact, and TWO_PI_LO ends the
        # turn.  Each is summed in place where its mask holds, in the order written
        np.add(theta, alpha, out=side)
        turn = side > math.pi
        np.add(theta - TWO_PI, alpha, out=side, where=turn)
        np.subtract(side, TWO_PI_LO, out=side, where=turn)
        np.less(side, -math.pi, out=turn)
        np.add(theta, alpha + TWO_PI, out=side, where=turn)
        np.add(side, TWO_PI_LO, out=side, where=turn)
        side *= 0.5
        np.square(np.sin(side, out=side), out=side)
        radial = _radial_terms(rho, r)
        # at a huge finite e, e log|psi'| overflows to inf or inf - inf, and the
        # caller names the node
        weights, scale = e * half_f, e * self.log_scale

        def ring(i: int, part: slice) -> np.ndarray:
            rows = angular[..., part]
            n_t = rows.shape[-1]
            logs = np.matmul(radial[i], rows).reshape(k, n_r * n_t)
            out = weights @ np.log(logs, out=logs)
            out += scale
            np.exp(out, out=out)
            return out.reshape(n_r, n_t)

        return ring

    # Not a call of invert_many, which takes 20-40 us on one point against 2-3.5 us here
    def invert(self, z: complex) -> tuple[complex, complex]:
        """Solve psi(w) = z for w in the open disc; returns (w, psi'(w)) as Python complexes.

        ``w = phi(z)``, accepted by :func:`_accepted`: in the disc, and
        either its residual ``|psi(w) - z|`` or the Newton step that
        residual implies meets its target.  ``psi'(w)`` comes from the
        ``psi_dpsi`` call that checked w, so it equals ``dpsi(w)`` bit for
        bit.  Raises MapDomainError for z outside Omega and
        NewtonConvergenceError when w is not accepted, and nothing else.
        """
        z = complex(z)
        inside = False
        try:
            inside = self.domain_contains(z)
            if inside:
                w = self.phi(z)
                value, deriv = self.psi_dpsi(w)
                if _accepted(w, z, value - z, deriv):
                    return w, deriv
        except (ZeroDivisionError, OverflowError):
            # Python's complex arithmetic raises these two where numpy's returns inf
            # or nan (a zero divisor, an overflowing power or abs): a z that far out
            # is outside Omega, or its w is not accepted.  The maps' formulas raise
            # nothing else on any complex, inf and nan included (_power keeps 0 from
            # cmath.log), so any other error is a fault and propagates
            pass
        if not inside:
            raise MapDomainError(f"point {z!r} is outside the image domain")
        raise NewtonConvergenceError(
            f"inversion of {self.descriptor.label()} at z={z!r} missed the residual target "
            f"and the step target; the point may be too close to the boundary")

    def invert_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`invert`; returns (w, accepted mask, psi'(w)).

        Each point is decided by :func:`_accepted` alone, as in
        :meth:`invert`, so a point's results do not depend on the rest of
        the call.  The mask is False where z is not in Omega or where w is
        not accepted.  One point, a 0-d z, takes the array path too.
        """
        z = np.asarray(z, dtype=complex)
        if not z.ndim:
            return tuple(out.reshape(()) for out in self.invert_many(z.reshape(1)))
        # phi and psi may divide by zero, overflow or take log(0) at a z outside
        # Omega, such as a sector's vertex; the mask reports every such z
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = self.phi(z)
            diff, dw = self.psi_dpsi(w)
            diff -= z
            ok = _accepted(w, z, diff, dw) & self.domain_contains(z)
        return w, ok, dw

    def compose_with_moebius(self, a: complex, theta: float) -> "ConformalPair":
        """Precompose with the disc automorphism m, returning the pair for psi o m.

        Singular boundary points are transported through the inverse
        automorphism; their local exponents are unchanged because m is
        smooth with nonvanishing derivative on the closed disc.  Every
        factor of the factor form goes through ``m``:
        ``1 - c m(w) = (1 + c e^{i theta} a) (1 - c' w)/(1 - conj(a) w)``
        with ``c' = (conj(a) + c e^{i theta})/(1 + c e^{i theta} a)``
        (``c = 1/zeta_k`` for a singular point, where ``c'`` is
        ``1/m^-1(zeta_k)``).  So each pole moves to its ``c'``, and the
        factors' denominators and ``m'`` make the new pole
        ``(1 - conj(a) w)**(-2 - sum e)``; the constant stays ``|psi'(0)|``.
        A pole whose ``c'`` is 0 (a twist that undoes the one that made it)
        is the factor 1 and is dropped, so the rule is not graded toward
        it.  A pair can carry one twist, so twisting a twisted pair raises
        DescriptorError; ``|a| >= 1`` or a non-finite theta raises
        MapDomainError.
        """
        if self.descriptor.twist_a is not None:
            raise DescriptorError(f"{self.descriptor.label()} already carries a Moebius twist")
        a = complex(a)
        if not _in_disc(a):
            raise MapDomainError(f"automorphism parameter must satisfy |a| < 1, got {a!r}")
        if not math.isfinite(theta):
            raise MapDomainError(f"automorphism angle must be finite, got theta={theta!r}")
        rot = cmath.exp(1j * theta)
        base_psi_dpsi, base_phi = self.psi_dpsi, self.phi
        # m's constants, made once, as Python complexes: a Python complex w then
        # takes Python's arithmetic throughout, and numpy takes them as its own
        conj_a, scale = a.conjugate(), rot * (1.0 - abs(a) ** 2)

        def m_inv(v, conj_a=conj_a):
            u = v / rot
            return (u + a) / (1.0 + conj_a * u)

        def psi_dpsi(w):
            # psi(m(w)) and psi'(m(w)) m'(w), where m and m' share the denominator
            den = 1.0 - conj_a * w
            value, deriv = base_psi_dpsi(rot * (w - a) / den)
            den = den ** 2
            return value, deriv * (scale / den)

        # the singular points move in numpy's scalar arithmetic, with which every
        # factor form, and so every integral, was pinned: Python's moves some by an ulp
        moved = tuple(
            SingularPoint(_to_circle(m_inv(sp.location, np.conj(a))), sp.exponent)
            for sp in self.singular_points
        )
        moved_poles = (((a.conjugate() + c * rot) / (1.0 + c * (rot * a)), f)
                       for c, f in self.poles)
        poles = tuple((c, f) for c, f in moved_poles if c)
        new_pole = -2.0 - math.fsum([sp.exponent for sp in self.singular_points]
                                    + [f for _, f in self.poles])
        if a and abs(new_pole) > POLE_TOL:
            poles += ((a.conjugate(), new_pole),)
        descriptor = replace(self.descriptor, twist_a=a, twist_theta=theta)
        return _pair(descriptor, psi_dpsi, lambda z: m_inv(base_phi(z)), self.domain_contains,
                     moved, poles)


def _radial_terms(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Every factor's radial terms ``[(1 - rho r)^2, 4 rho r]`` at the nodes of a block of rings.

    ``rho`` has shape ``(k, 1)`` and ``r`` ``(rings, n)``; the result has
    shape ``(rings, k, n, 2)``, so ring i's terms ``[i]`` are one contiguous
    ``(k, n, 2)`` array, the left operand of that ring's matrix product.
    """
    rr = rho * r[:, None, :]
    radial = np.empty(rr.shape + (2,))
    np.square(np.subtract(1.0, rr, out=radial[..., 0]), out=radial[..., 0])
    np.multiply(4.0, rr, out=radial[..., 1])
    return radial


def _accepted(w, z, diff, deriv):
    """Whether w = phi(z), with ``diff = psi(w) - z`` and ``deriv = psi'(w)``, solves psi(w) = z.

    w must lie in the open disc, and either the residual meets
    ``NEWTON_TOL * (1 + |z|)`` or the Newton step it implies,
    ``|diff| / |psi'(w)|``, meets ``STEP_TOL * (1 + |w|)`` (multiplied
    out, so nothing divides).  Next to a singular point where |psi'|
    blows up faster than |psi|, such as Koebe's e = -3 point, half an ulp
    of w carried through psi' is already many times the residual target,
    while the step stays within tens of ulps.  Elementwise on arrays, and a plain
    bool on Python complexes, with no ``np.errstate`` on the scalar path.
    """
    size, resid = abs(w), abs(diff)
    return (size < 1.0) & ((resid <= NEWTON_TOL * (1.0 + abs(z)))
                           | (resid <= STEP_TOL * (1.0 + size) * abs(deriv)))


def _power(q, b: float):
    """The principal power ``q**b = exp(b log q)`` for a real ``b > 0``; 0 at q = 0.

    A complex scalar, a numpy one included, takes ``cmath`` and returns a
    Python complex.  Anything else is an array, and takes real arithmetic:
    ``|q|**b = exp(b log|q|)`` and the angle ``b arg q`` from ``arctan2``,
    written into a new complex array.  numpy's complex ``log`` costs about
    93 ns a point, its real ``abs``, ``log`` and ``arctan2`` about 2-4 ns
    each.  The two paths round differently, so a point's bits may differ
    between them, but not whether its inversion is accepted.
    """
    if isinstance(q, complex):
        # cmath raises where numpy returns 0 or inf: at q = 0 and past overflow
        if not q:
            return 0j
        try:
            return cmath.exp(b * cmath.log(q))
        except OverflowError:
            return cmath.rect(math.inf, b * cmath.phase(q))
    q = np.asarray(q)
    # the angle and its cosine are formed in the result's own halves, so the
    # one temporary is |q|**b
    out = np.empty(q.shape, dtype=complex)
    size = np.abs(q, out=np.empty(q.shape))
    np.log(size, out=size)
    size *= b
    np.exp(size, out=size)
    angle = np.arctan2(q.imag, q.real, out=out.imag)
    angle *= b
    cos = np.cos(angle, out=out.real)
    np.sin(angle, out=angle)
    cos *= size
    angle *= size
    return out


def _sqrt(q):
    """The principal square root; the one kernel of Koebe's and the cardioid's phi.

    A complex scalar, a numpy one included, takes ``cmath`` and returns a
    Python complex; anything else is an array, and takes numpy's ``sqrt``.
    """
    if isinstance(q, complex):
        return cmath.sqrt(q)
    return np.sqrt(q)


def _to_circle(v: complex) -> complex:
    return complex(v) / abs(complex(v))


def _pair(descriptor: MapDescriptor, psi_dpsi: Callable, phi: Callable, domain_contains: Callable,
          singular_points: tuple[SingularPoint, ...], poles: tuple = ()) -> ConformalPair:
    """The pair of a map written once, as ``psi_dpsi``; ``psi`` and ``dpsi`` are its outputs."""
    return ConformalPair(descriptor, lambda w: psi_dpsi(w)[0], lambda w: psi_dpsi(w)[1],
                         psi_dpsi, phi, domain_contains, singular_points, poles)


def _in_disc(z):
    """|z| < 1, where z past the largest float lies outside.

    A Python complex's abs raises OverflowError there, where numpy's is inf.
    """
    try:
        return abs(z) < 1.0
    except OverflowError:
        return False


def identity_map() -> ConformalPair:
    def psi_dpsi(w):
        return w + 0j, (1.0 + 0j if type(w) is complex else np.ones_like(w))

    return _pair(MapDescriptor("identity"), psi_dpsi, lambda z: psi_dpsi(z)[0], _in_disc, ())


def moebius_map(a: complex, theta: float = 0.0) -> ConformalPair:
    """The disc automorphism e^{i theta} (w - a)/(1 - conj(a) w), Omega = D."""
    # the descriptor checks |a| < 1 before the twist does
    a = complex(a)
    descriptor = MapDescriptor("moebius", (a.real, a.imag, theta))
    return replace(identity_map().compose_with_moebius(a, theta), descriptor=descriptor)


def koebe_map() -> ConformalPair:
    """The slit-plane extremal: psi(w) = w/(1-w)^2.

    |psi'| blows up like |w-1|^-3 at w = 1 (the far end of the slit) and
    vanishes like |w+1| at w = -1 (the slit tip psi(-1) = -1/4); these two
    exponents pin the integrability thresholds 4/3 and 4.
    """

    def psi_dpsi(w):
        one_minus = 1.0 - w
        deriv = 1.0 + w
        deriv /= one_minus ** 3
        return w / one_minus ** 2, deriv

    def phi(z):
        return 2.0 * z / (1.0 + 2.0 * z + _sqrt(1.0 + 4.0 * z))

    def contains(z):
        # "not (on the real axis and at or left of the tip)", in operators that
        # also take arrays; a Python complex stays on the fast scalar path
        return (z.imag != 0.0) | (z.real > -0.25)

    return _pair(MapDescriptor("koebe"), psi_dpsi, phi, contains,
                 (SingularPoint(1.0 + 0j, -3.0), SingularPoint(-1.0 + 0j, 1.0)))


def sector_map(beta: float) -> ConformalPair:
    """psi(w) = ((1-w)/(1+w))^beta onto the sector of opening beta*pi.

    (1-w)/(1+w) sends the disc onto the right half-plane, where the
    principal power is holomorphic, so no branch cut is crossed.  Both
    directions take the principal power from :func:`_power`: psi raises
    (1-w)/(1+w) to beta, and psi' = -2 beta psi/((1-w)(1+w)) reuses it,
    while phi raises z to 1/beta.  For |w| < 1 the power equals the two-log
    form exp(beta (log(1-w) - log(1+w))), because 1 - w and 1 + w both lie
    in the right half-plane.
    """
    descriptor = MapDescriptor("sector", (beta,))
    inverse = 1.0 / beta

    def psi_dpsi(w):
        one_minus, one_plus = 1.0 - w, 1.0 + w
        value = _power(one_minus / one_plus, beta)
        one_minus = one_minus * one_plus
        deriv = -2.0 * beta * value
        deriv /= one_minus
        return value, deriv

    def phi(z):
        t = _power(z, inverse)
        return (1.0 - t) / (1.0 + t)

    def contains(z):
        arg = cmath.phase(z) if isinstance(z, complex) else np.angle(z)
        return (z != 0.0) & (abs(arg) < 0.5 * beta * math.pi)

    return _pair(descriptor, psi_dpsi, phi, contains,
                 (SingularPoint(1.0 + 0j, beta - 1.0), SingularPoint(-1.0 + 0j, -(beta + 1.0))))


def cardioid_map() -> ConformalPair:
    """psi(w) = w - w^2/2; the derivative vanishes to first order at w = 1."""

    def psi_dpsi(w):
        # w * w: an array's w ** 2 is this product, and a Python complex's power
        # costs more and raises OverflowError where the product is inf
        return w - 0.5 * (w * w), 1.0 - w

    def phi(z):
        # 1 - sqrt(1 - 2z), without its cancellation near z = 0
        return 2.0 * z / (1.0 + _sqrt(1.0 - 2.0 * z))

    def contains(z):
        # |phi(z)| < 1 in real arithmetic: with v = 1 - 2z = (1 - w)^2 and
        # Re sqrt(v) = sqrt((|v| + Re v)/2), |1 - sqrt(v)| < 1 exactly when
        # |v|^2 < 2(|v| + Re v); a complex sqrt costs a third of invert_many
        v = 1.0 - 2.0 * z
        size = v.real * v.real + v.imag * v.imag
        root = math.sqrt(size) if isinstance(size, float) else np.sqrt(size)
        return size < 2.0 * (root + v.real)

    return _pair(MapDescriptor("cardioid"), psi_dpsi, phi, contains,
                 (SingularPoint(1.0 + 0j, 1.0),))


def _check_sector(beta: float) -> None:
    if not 0.0 < beta <= 2.0:
        raise DescriptorError(f"sector opening parameter must lie in (0, 2], got {beta}")


def _check_moebius(a_re: float, a_im: float, theta: float) -> None:
    """The check of a Moebius map's numbers and of a twist's: |a| < 1 and a finite theta."""
    a = complex(a_re, a_im)
    if not _in_disc(a):
        raise DescriptorError(f"moebius parameter must satisfy |a| < 1, got {a!r}")
    if not math.isfinite(theta):
        raise DescriptorError(f"moebius angle theta must be finite, got {theta}")


#: every family's row: the names of its numbers in descriptor order, the check
#: a descriptor runs on them (None for no check) and the builder that takes them
_FAMILIES = {
    "identity": ((), None, identity_map),
    "moebius": (("a_re", "a_im", "theta"), _check_moebius,
                lambda a_re, a_im, theta: moebius_map(complex(a_re, a_im), theta)),
    "koebe": ((), None, koebe_map),
    "sector": (("beta",), _check_sector, sector_map),
    "cardioid": ((), None, cardioid_map),
}


def parse_descriptor(text: str) -> MapDescriptor:
    """Parse the CLI mini-language, e.g. ``sector:1.5`` or ``koebe*moebius:0.3,0,1.2``."""
    head, _, twist = text.strip().partition("*")
    descriptor = _parse_single(head)
    if twist:
        t = _parse_single(twist)
        if t.family != "moebius":
            raise DescriptorError(f"only a moebius suffix may be composed, got {twist!r}")
        a_re, a_im, theta = t.params
        descriptor = replace(descriptor, twist_a=complex(a_re, a_im), twist_theta=theta)
    return descriptor


def _parse_single(text: str) -> MapDescriptor:
    """``family`` or ``family:x1,x2,...``; every field, an empty one too, must be a finite number."""
    name, _, args = text.partition(":")
    return MapDescriptor(name.strip(), tuple(map(_parse_float, args.split(","))) if args else ())


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise DescriptorError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise DescriptorError(f"expected a finite number, got {text!r}")
    return value


def make_pair(descriptor: MapDescriptor | str) -> ConformalPair:
    """Build the ConformalPair for a descriptor or descriptor string."""
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    _, _, build = _FAMILIES[descriptor.family]
    pair = build(*descriptor.params)
    if descriptor.twist_a is not None:
        pair = pair.compose_with_moebius(descriptor.twist_a, descriptor.twist_theta)
    return pair
