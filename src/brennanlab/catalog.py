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
``psi`` and ``dpsi`` are its first and second output.  The one formula
has two arithmetics: a Python complex ``w`` stays one and takes Python's
complex arithmetic and ``cmath``, about a third of the cost of numpy's
scalar arithmetic, and an array takes numpy's (:func:`_point`; a numpy
scalar, or a real or 0-d input, keeps numpy's scalar arithmetic outside
the two kernels).  The sector's psi and phi share one power kernel,
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
(exponent 0) for Koebe, sectors and a Moebius map twisted again.

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
    "catalog_families",
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
        return cmath.phase(self.location) % TWO_PI


@dataclass(frozen=True)
class MapDescriptor:
    """Addressable identity of a catalog map, including an optional twist.

    ``twist_a``/``twist_theta`` record precomposition with the disc
    automorphism ``m(w) = e^{i twist_theta} (w - twist_a)/(1 - conj(twist_a) w)``.
    A descriptor checks itself when made: a sector needs an opening
    ``beta`` in (0, 2] and a Moebius map needs ``|a| < 1``, or DescriptorError
    is raised.
    """

    family: str
    beta: float | None = None
    a: complex = 0j
    theta: float = 0.0
    twist_a: complex | None = None
    twist_theta: float = 0.0

    def __post_init__(self):
        if self.family == "sector":
            if self.beta is None:
                raise DescriptorError("sector descriptor is missing its opening parameter")
            if not 0.0 < self.beta <= 2.0:
                raise DescriptorError(
                    f"sector opening parameter must lie in (0, 2], got {self.beta}")
        if self.family == "moebius" and abs(self.a) >= 1.0:
            raise DescriptorError(f"moebius parameter must satisfy |a| < 1, got {self.a!r}")

    def label(self) -> str:
        if self.family == "sector":
            head = f"sector:{_fmt_num(self.beta)}"
        elif self.family == "moebius":
            head = (f"moebius:{_fmt_num(self.a.real)},{_fmt_num(self.a.imag)},"
                    f"{_fmt_num(self.theta)}")
        else:
            head = self.family
        if self.twist_a is None:
            return head
        return (f"{head}*moebius:{_fmt_num(self.twist_a.real)},"
                f"{_fmt_num(self.twist_a.imag)},{_fmt_num(self.twist_theta)}")


def _fmt_num(x: float) -> str:
    return f"{x:g}"


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

    On a Python complex, ``psi``, ``dpsi``, ``psi_dpsi``, ``phi`` and
    ``domain_contains`` take Python's complex arithmetic, which raises
    ``ZeroDivisionError`` or ``OverflowError`` (both ``ArithmeticError``)
    at a pole or past the largest float, where an array gets inf or nan
    and a numpy warning: ``koebe_map().psi(1 + 0j)`` raises.  Only
    :meth:`invert` turns these into its own two errors.

    The derivative also has the factor form of the module docstring:
    ``singular_points`` holds the ``(zeta_k, e_k)`` on the circle, ``poles``
    the ``(c_j, f_j)`` of the factors ``(1 - c_j w)**f_j`` off the closed
    disc (only :meth:`compose_with_moebius` makes them), and ``log_scale``
    is ``log|C| = log|psi'(0)|``.  Both become one factor list when the
    pair is built, so a copy made with ``dataclasses.replace`` builds its own.
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

    @property
    def singular_angles(self) -> tuple[float, ...]:
        return tuple(sp.angle for sp in self.singular_points)

    @property
    def grading_angles(self) -> tuple[float, ...]:
        """Angles the disc rule is graded toward: the singular angles, then each pole's.

        ``|psi'|`` peaks or dips toward a pole ``1/c`` off the circle, most
        sharply for ``|c|`` near 1; a twist's pole lies at angle arg(a).
        """
        return self.singular_angles + tuple(
            -cmath.phase(c) % TWO_PI for c, _ in self.poles)

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
        or nan, without a numpy warning in either stage, so that the caller
        can name the node.

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
        angular = np.ones((k, 2, len(theta)))
        side = angular[:, 1]
        # theta + alpha less a whole turn where it exceeds pi in size: a ring's
        # angles span [theta_0, theta_0 + 2pi), so next to a singular point the
        # sum can sit near +-2pi, where it is rounded to ulp(2pi); there
        # theta - TWO_PI, or alpha + TWO_PI, is exact, and TWO_PI_LO ends the turn
        np.add(theta, alpha, out=side)
        np.copyto(side, (theta - TWO_PI) + alpha - TWO_PI_LO, where=side > math.pi)
        np.copyto(side, theta + (alpha + TWO_PI) + TWO_PI_LO, where=side < -math.pi)
        side *= 0.5
        np.square(np.sin(side, out=side), out=side)
        radial = _radial_terms(rho, r)
        # at a huge finite e, e log|psi'| overflows to inf or inf - inf; both
        # stages run silently, and the caller names the node
        with np.errstate(over="ignore", invalid="ignore"):
            weights, scale = e * half_f, e * self.log_scale

        def ring(i: int, part: slice) -> np.ndarray:
            rows = angular[..., part]
            n_t = rows.shape[-1]
            logs = np.matmul(radial[i], rows).reshape(k, n_r * n_t)
            with np.errstate(over="ignore", invalid="ignore"):
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
        DescriptorError.
        """
        if self.descriptor.twist_a is not None:
            raise DescriptorError(f"{self.descriptor.label()} already carries a Moebius twist")
        a = complex(a)
        if abs(a) >= 1.0:
            raise MapDomainError(f"automorphism parameter must satisfy |a| < 1, got {a!r}")
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
            w = _point(w)
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


def _point(w):
    """A Python complex as itself, and anything else as numpy's complex: an array, or a scalar.

    A Python complex takes Python's complex arithmetic and ``cmath``, which
    cost about a third of numpy's scalar arithmetic; an array takes numpy's.
    A numpy scalar, and a real or 0-d input made one, keeps numpy's scalar
    arithmetic, with which :class:`ConformalPair` forms ``log|psi'(0)|``,
    except inside :func:`_power` and :func:`_sqrt`, which take ``cmath`` on
    any complex scalar and return a Python complex.
    """
    return w if type(w) is complex else np.asarray(w, dtype=complex)[()]


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


def identity_map() -> ConformalPair:
    def psi_dpsi(w):
        w = _point(w)
        return w + 0j, (1.0 + 0j if type(w) is complex else np.ones_like(w))

    return _pair(MapDescriptor("identity"), psi_dpsi, lambda z: psi_dpsi(z)[0],
                 lambda z: abs(z) < 1.0, ())


def moebius_map(a: complex, theta: float = 0.0) -> ConformalPair:
    """The disc automorphism e^{i theta} (w - a)/(1 - conj(a) w), Omega = D."""
    # the descriptor checks |a| < 1 before the twist does
    descriptor = MapDescriptor("moebius", a=complex(a), theta=theta)
    return replace(identity_map().compose_with_moebius(descriptor.a, theta), descriptor=descriptor)


def koebe_map() -> ConformalPair:
    """The slit-plane extremal: psi(w) = w/(1-w)^2.

    |psi'| blows up like |w-1|^-3 at w = 1 (the far end of the slit) and
    vanishes like |w+1| at w = -1 (the slit tip psi(-1) = -1/4); these two
    exponents pin the integrability thresholds 4/3 and 4.
    """

    def psi_dpsi(w):
        w = _point(w)
        one_minus = 1.0 - w
        deriv = 1.0 + w
        deriv /= one_minus ** 3
        return w / one_minus ** 2, deriv

    def phi(z):
        z = _point(z)
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
    descriptor = MapDescriptor("sector", beta=beta)
    inverse = 1.0 / beta

    def psi_dpsi(w):
        w = _point(w)
        one_minus, one_plus = 1.0 - w, 1.0 + w
        value = _power(one_minus / one_plus, beta)
        one_minus = one_minus * one_plus
        deriv = -2.0 * beta * value
        deriv /= one_minus
        return value, deriv

    def phi(z):
        t = _power(_point(z), inverse)
        return (1.0 - t) / (1.0 + t)

    def contains(z):
        arg = cmath.phase(z) if isinstance(z, complex) else np.angle(z)
        return (z != 0.0) & (abs(arg) < 0.5 * beta * math.pi)

    return _pair(descriptor, psi_dpsi, phi, contains,
                 (SingularPoint(1.0 + 0j, beta - 1.0), SingularPoint(-1.0 + 0j, -(beta + 1.0))))


def cardioid_map() -> ConformalPair:
    """psi(w) = w - w^2/2; the derivative vanishes to first order at w = 1."""

    def psi_dpsi(w):
        w = _point(w)
        # w * w: an array's w ** 2 is this product, and a Python complex's power
        # costs more and raises OverflowError where the product is inf
        return w - 0.5 * (w * w), 1.0 - w

    def phi(z):
        # 1 - sqrt(1 - 2z), without its cancellation near z = 0
        z = _point(z)
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


_BUILDERS = {
    "identity": lambda d: identity_map(),
    "moebius": lambda d: moebius_map(d.a, d.theta),
    "koebe": lambda d: koebe_map(),
    "sector": lambda d: sector_map(d.beta),
    "cardioid": lambda d: cardioid_map(),
}


def catalog_families() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def parse_descriptor(text: str) -> MapDescriptor:
    """Parse the CLI mini-language, e.g. ``sector:1.5`` or ``koebe*moebius:0.3,0,1.2``."""
    head, _, twist = text.strip().partition("*")
    descriptor = _parse_single(head)
    if twist:
        t = _parse_single(twist)
        if t.family != "moebius":
            raise DescriptorError(f"only a moebius suffix may be composed, got {twist!r}")
        descriptor = replace(descriptor, twist_a=t.a, twist_theta=t.theta)
    return descriptor


def _parse_single(text: str) -> MapDescriptor:
    name, _, args = text.partition(":")
    name = name.strip()
    if name not in _BUILDERS:
        raise DescriptorError(
            f"unknown map family {name!r}; known: {', '.join(catalog_families())}"
        )
    if name == "sector":
        if not args:
            raise DescriptorError("sector needs an opening parameter, e.g. sector:1.5")
        return MapDescriptor("sector", beta=_parse_float(args))
    if name == "moebius":
        parts = [p for p in args.split(",") if p.strip()]
        if len(parts) != 3:
            raise DescriptorError("moebius needs three numbers: a_re,a_im,theta")
        a_re, a_im, theta = (_parse_float(p) for p in parts)
        return MapDescriptor("moebius", a=complex(a_re, a_im), theta=theta)
    if args:
        raise DescriptorError(f"family {name!r} takes no parameters, got {args!r}")
    return MapDescriptor(name)


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
    pair = _BUILDERS[descriptor.family](descriptor)
    if descriptor.twist_a is not None:
        pair = pair.compose_with_moebius(descriptor.twist_a, descriptor.twist_theta)
    return pair
