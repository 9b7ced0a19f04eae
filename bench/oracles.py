"""Analytic oracles for every benchmark task, written without brennanlab.

The closed forms here come from the definitions of the catalog families,
not from the package: singular exponents give the convergence thresholds,
Parseval's identity gives reference integrals, and the forward map of a
known disc point gives the p-distortion.  The ``judge_*`` functions turn
one task's result into the list of checks it failed; they read result
attributes but import nothing from the package, so a defect in the
package cannot hide itself by also breaking its oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace as _Obj

#: every check a task can fail; "raised" is a call that raised
CHECKS = (
    "raised",
    "verdict",
    "closed_form",
    "kpq_value",
    "critical_gap",
    "isometry",
    "p_distortion",
    "equivalence",
    "duality",
    "seminorm",
)

ISOMETRY_TOL = 1e-4
P_DISTORTION_RTOL = 1e-9
#: kpq_value is one power of the integral value, so only rounding may separate them
KPQ_VALUE_RTOL = 1e-12
#: seminorm returns no error estimate; the ratio report trusts each ratio of two
#: stacked quadratures to RATIO_SLACK = 1e-4, so each seminorm gets half of that
SEMINORM_RTOL = 5e-5


@dataclass(frozen=True)
class MapSpec:
    """A catalog map as the benchmark knows it: family, opening and twist.

    ``twist_a``/``twist_theta`` precompose the family map with the disc
    automorphism ``m(w) = e^{i theta}(w - a)/(1 - conj(a) w)``.
    """

    family: str
    beta: float | None = None
    twist_a: complex | None = None
    twist_theta: float = 0.0

    def descriptor(self) -> str:
        head = self.family if self.beta is None else f"{self.family}:{self.beta!r}"
        if self.twist_a is None:
            return head
        a = self.twist_a
        return f"{head}*moebius:{a.real!r},{a.imag!r},{self.twist_theta!r}"

    def singular_exponents(self) -> tuple[float, ...]:
        """Local exponents e with |psi'| ~ |w - w0|^e at each boundary singularity."""
        if self.family == "koebe":
            return (-3.0, 1.0)
        if self.family == "sector":
            return (self.beta - 1.0, -(self.beta + 1.0))
        if self.family == "cardioid":
            return (1.0,)
        if self.family == "identity":
            return ()
        raise ValueError(f"unknown family {self.family!r}")

    def thresholds(self) -> tuple[float | None, float | None]:
        """Brennan exponents bounding convergence: (2 - s) e > -2 at every point."""
        lower = upper = None
        for e in self.singular_exponents():
            if e > 0.0:
                upper = 2.0 + 2.0 / e if upper is None else min(upper, 2.0 + 2.0 / e)
            elif e < 0.0:
                lower = 2.0 + 2.0 / e if lower is None else max(lower, 2.0 + 2.0 / e)
        return lower, upper

    def psi_dpsi(self, w: complex) -> tuple[complex, complex]:
        """Forward map and derivative at one disc point, twist included."""
        dm = 1.0 + 0j
        if self.twist_a is not None:
            a, rot = self.twist_a, cmath.exp(1j * self.twist_theta)
            den = 1.0 - a.conjugate() * w
            dm = rot * (1.0 - abs(a) ** 2) / den ** 2
            w = rot * (w - a) / den
        if self.family == "identity":
            f, df = w, 1.0 + 0j
        elif self.family == "koebe":
            f, df = w / (1.0 - w) ** 2, (1.0 + w) / (1.0 - w) ** 3
        elif self.family == "cardioid":
            f, df = w - 0.5 * w * w, 1.0 - w
        elif self.family == "sector":
            b = self.beta
            f = cmath.exp(b * (cmath.log(1.0 - w) - cmath.log(1.0 + w)))
            df = -2.0 * b * cmath.exp((b - 1.0) * cmath.log(1.0 - w)
                                      - (b + 1.0) * cmath.log(1.0 + w))
        else:
            raise ValueError(f"unknown family {self.family!r}")
        return f, df * dm


def converges(s: float, lower: float | None, upper: float | None) -> bool:
    return (lower is None or s > lower) and (upper is None or s < upper)


def hyp2f1_series(a: float, b: float, c: float, x: float) -> float:
    """Gauss series 2F1(a, b; c; x) for 0 <= x < 1, summed until terms vanish."""
    term, total = 1.0, 1.0
    for n in range(200000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        total += term
        if abs(term) <= 1e-17 * abs(total) and n > 10:
            return total
    raise ArithmeticError(f"2F1 series did not converge at x={x}")


def disc_integral_reference(m: MapSpec, r: float) -> float | None:
    """Closed form of the integral of |psi'|^r over the disc, where one is known.

    Writing (psi')^(r/2) = sum c_n w^n, Parseval gives
    pi * sum |c_n|^2/(n+1):
    - r = 0 (Brennan s = 2) is the disc area pi for every map;
    - the identity gives pi, and a twisted identity (a Moebius map)
      gives pi (1-|a|^2)^r 2F1(r, r; 2; |a|^2);
    - the untwisted cardioid, psi' = 1 - w, gives
      pi Gamma(2+r)/Gamma(2+r/2)^2 (Gauss's sum at x = 1), for r > -2.
    """
    if r == 0.0:
        return math.pi
    if m.family == "identity":
        if m.twist_a is None:
            return math.pi
        x = abs(m.twist_a) ** 2
        return math.pi * (1.0 - x) ** r * hyp2f1_series(r, r, 2.0, x)
    if m.family == "cardioid" and m.twist_a is None and r > -2.0:
        return math.pi * math.exp(math.lgamma(2.0 + r) - 2.0 * math.lgamma(2.0 + 0.5 * r))
    return None


def seminorm_reference(name: str, p: float) -> float | None:
    """Closed-form (integral over D of |grad f|^p)^(1/p) for the standard test functions."""
    head, _, arg = name.partition(":")
    if head == "harmonic_poly":
        k = int(arg)
        return k * (2.0 * math.pi / ((k - 1) * p + 2.0)) ** (1.0 / p)
    if head == "boundary_power":
        g = float(arg)
        a, b = 0.5 * p + 1.0, (g - 1.0) * p + 1.0
        beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        return (math.pi * (2.0 * g) ** p * beta) ** (1.0 / p)
    if head == "shifted_log":
        # |w - 2|^-p = 2^-p |1 - w/2|^-p; Parseval on (1 - w/2)^(-p/2)
        return (math.pi * 2.0 ** -p * hyp2f1_series(0.5 * p, 0.5 * p, 2.0, 0.25)) ** (1.0 / p)
    return None


# ---------------------------------------------------------------------------
# judging task results
# ---------------------------------------------------------------------------


def _verdict_ok(classification: str, s: float, m: MapSpec) -> bool:
    if classification == "inconclusive":
        return True
    return (classification == "converged") == converges(s, *m.thresholds())


def judge_integral(m: MapSpec, kind: str, result) -> list[str]:
    """Checks for brennan / inverse-brennan / kpq FunctionalResult objects."""
    failed = []
    est = result.integral
    verdict = est.classification.value
    s = 2.0 - result.exponent
    if not _verdict_ok(verdict, s, m):
        failed.append("verdict")
    ref = disc_integral_reference(m, result.exponent)
    if verdict == "converged" and ref is not None:
        if not abs(est.value - ref) <= est.abs_error_estimate:
            failed.append("closed_form")
    if kind == "kpq":
        if verdict == "converged":
            power = (result.p - result.q) / (result.p * result.q)
            want = est.value ** power
            ok = abs(result.kpq_value - want) <= KPQ_VALUE_RTOL * abs(want)
        else:
            ok = result.kpq_value == math.inf
        if not ok:
            failed.append("kpq_value")
    return failed


def critical_gap(m: MapSpec, report) -> float:
    lower, upper = m.thresholds()
    oracle = upper if report.side == "upper" else lower
    return abs(report.s_star - oracle)


def judge_critical(m: MapSpec, report, tol: float) -> list[str]:
    return [] if critical_gap(m, report) <= tol else ["critical_gap"]


def judge_equivalence(m: MapSpec, table) -> list[str]:
    failed = []
    if not table.consistent:
        failed.append("equivalence")
    if not all(_verdict_ok(r.classification.value, r.s_roundtrip, m) for r in table.rows):
        failed.append("verdict")
    return failed


def judge_duality(m: MapSpec, result) -> list[str]:
    failed = [] if result.agree else ["duality"]
    sides = ((result.rhs_classification, result.exponent_direct),
             (result.lhs_classification, result.exponent_dual))
    if not all(_verdict_ok(c.value, 2.0 - e, m) for c, e in sides):
        failed.append("verdict")
    return failed


def judge_ratio(m: MapSpec, report) -> list[str]:
    """The K_{p,q} bound is finite iff its integral converges; seminorms match closed forms."""
    failed = []
    s = (report.p - 2.0) * report.q / (report.p - report.q)
    if math.isfinite(report.bound_kpq) != converges(s, *m.thresholds()):
        failed.append("verdict")
    for sample in report.samples:
        ref = seminorm_reference(sample.function, report.p)
        if ref is not None and not abs(sample.seminorm_p - ref) <= SEMINORM_RTOL * ref:
            failed.append("seminorm")
            break
    return failed


def judge_isometry(ratio: float) -> list[str]:
    return [] if abs(ratio - 1.0) <= ISOMETRY_TOL else ["isometry"]


def judge_p_distortion(maps, points, p: float, values) -> list[str]:
    """``points`` are the disc points w whose images z = psi(w) under ``maps`` were queried."""
    for m, w, v in zip(maps, points, values):
        want = abs(m.psi_dpsi(w)[1]) ** (2.0 - p)
        if not abs(v - want) <= P_DISTORTION_RTOL * want:
            return ["p_distortion"]
    return []


def planted_cases():
    """Known-wrong results, one per check, each of which its oracle must flag.

    Yields ``(check, failed_checks)``; the run refuses to report when a
    planted case is not flagged, since its oracle would then be blind.
    """
    conv, div = _Obj(value="converged"), _Obj(value="diverging")
    koebe, card = MapSpec("koebe"), MapSpec("cardioid")

    def integral(m, s, verdict, value, err, kind="brennan", **extra):
        est = _Obj(classification=verdict, value=value, abs_error_estimate=err)
        return judge_integral(m, kind, _Obj(integral=est, exponent=2.0 - s, **extra))

    ref = disc_integral_reference(card, -1.0)
    yield "verdict", integral(koebe, 3.0, div, 10.0, math.inf)
    yield "closed_form", integral(card, 3.0, conv, ref * (1.0 + 1e-6), 1e-9)
    yield "kpq_value", integral(koebe, 3.0, conv, 10.0, 1e-9, "kpq", p=4.0, q=2.4,
                                kpq_value=10.0 ** (1.6 / 9.6) * 1.01)
    yield "critical_gap", judge_critical(koebe, _Obj(side="upper", s_star=4.1), 0.05)
    yield "isometry", judge_isometry(1.0 + 1e-3)
    w = 0.3 + 0.2j
    good = abs(koebe.psi_dpsi(w)[1]) ** (2.0 - 3.0)
    yield "p_distortion", judge_p_distortion([koebe], [w], 3.0, [good * (1.0 + 1e-6)])
    row = _Obj(classification=conv, s_roundtrip=2.5)
    yield "equivalence", judge_equivalence(koebe, _Obj(consistent=False, rows=(row,)))
    yield "duality", judge_duality(koebe, _Obj(agree=False, rhs_classification=conv,
                                               lhs_classification=conv,
                                               exponent_direct=0.0, exponent_dual=0.0))
    off = seminorm_reference("harmonic_poly:2", 4.0) * 1.001
    sample = _Obj(function="harmonic_poly:2", seminorm_p=off)
    yield "seminorm", judge_ratio(koebe, _Obj(p=4.0, q=2.0, bound_kpq=2.0, samples=(sample,)))
