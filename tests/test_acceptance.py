"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from brennanlab.catalog import make_pair
from brennanlab.cli import main
from brennanlab.exponents import dual_pair, q_from_ps
from brennanlab.functionals import (
    brennan_integral,
    critical_exponent,
    inverse_brennan_integral,
    threshold_oracle,
)
from brennanlab.operators import (
    duality_check,
    equivalence_table,
    isometry_check,
    isometry_family,
    norm_ratio_report,
)
from brennanlab.quadrature import Classification, integrate_disc

CATALOG = ["identity", "moebius:0.3,0.2,1.1", "koebe", "sector:1.5",
           "cardioid", "cardioid*moebius:0.3,0,0.5"]


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[acceptance {number}] {'PASS' if passed else 'FAIL'}: {detail}")


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAcceptance:
    def test_criterion_1_koebe_extremal_endpoints(self, capsys):
        start = time.perf_counter()
        code_u, up = run_cli_json(capsys, "critical", "--map", "koebe",
                                  "--side", "upper")
        code_l, lo = run_cli_json(capsys, "critical", "--map", "koebe",
                                  "--side", "lower")
        elapsed = time.perf_counter() - start
        s_up = up["result"]["s_star"]
        s_lo = lo["result"]["s_star"]
        ok = (code_u == 0 and code_l == 0
              and abs(s_up - 4.0) <= 0.05
              and abs(s_lo - 4.0 / 3.0) <= 0.05
              and elapsed <= 60.0)
        report(1, ok, f"koebe s* upper={s_up:.4f} lower={s_lo:.4f} "
                      f"({elapsed:.1f}s)")
        assert ok

    def test_criterion_2_universal_area_identity(self, capsys):
        worst = 0.0
        for name in CATALOG:
            code, payload = run_cli_json(capsys, "integrate", "--map", name,
                                         "--s", "2")
            assert code == 0, name
            worst = max(worst, abs(payload["result"]["value"] - math.pi))
        ok = worst <= 1e-8
        report(2, ok, f"integrate --s 2 equals pi on {len(CATALOG)} maps, "
                      f"worst |error| = {worst:.2e}")
        assert ok

    def test_criterion_3_oracle_agreement(self):
        worst = 0.0
        checked = []
        for name in ["sector:0.5", "sector:1.25", "sector:1.5", "sector:2",
                     "cardioid"]:
            pair = make_pair(name)
            oracle_lo, oracle_up = threshold_oracle(pair)
            for side, expected in (("lower", oracle_lo), ("upper", oracle_up)):
                if expected is None:
                    continue
                got = critical_exponent(pair, side).s_star
                worst = max(worst, abs(got - expected))
                checked.append((name, side))
        same = threshold_oracle("sector:2") == threshold_oracle("koebe")
        ok = worst <= 0.05 and same
        report(3, ok, f"{len(checked)} thresholds match closed forms, "
                      f"worst |error| = {worst:.2e}; sector:2 == koebe: {same}")
        assert ok

    def test_criterion_4_isometry(self):
        worst = 0.0
        cells = 0
        for name in CATALOG:
            pair = make_pair(name)
            for f in isometry_family():
                ratio = isometry_check(pair, f, patch=(0.0, 0.8))
                worst = max(worst, abs(ratio - 1.0))
                cells += 1
        ok = worst <= 1e-4
        report(4, ok, f"forward-patch vs disc-side energy on {cells} cells, "
                      f"worst |ratio - 1| = {worst:.2e}")
        assert ok

    def test_criterion_5_holder_bound(self):
        worst_excess = -math.inf
        finite_cells = 0
        for name in CATALOG:
            pair = make_pair(name)
            for p, q in ((4.0, 2.0), (3.0, 2.0), (4.0, 3.0)):
                rep = norm_ratio_report(pair, p, q, check=True)
                assert len(rep.samples) == 8
                if math.isfinite(rep.bound_kpq):
                    finite_cells += 1
                    worst_excess = max(worst_excess,
                                       rep.max_ratio / rep.bound_kpq - 1.0)
        ident = norm_ratio_report(make_pair("identity"), 4.0, 2.0)
        hp1 = next(s for s in ident.samples if s.function == "harmonic_poly:1")
        attained = abs(hp1.ratio / ident.bound_kpq - 1.0) <= 1e-4
        ok = worst_excess <= 1e-4 and attained
        report(5, ok, f"{finite_cells} finite-K cells respect the bound "
                      f"(worst excess {worst_excess:.2e}); identity cell "
                      f"attains it: {attained}")
        assert ok

    def test_criterion_6_duality(self):
        # analytic identity on a 25-point grid
        worst_identity = 0.0
        for p in (2.5, 3.0, 4.0, 6.0, 10.0):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                q = 1.0 + frac * (p - 1.0)
                q_conj, p_conj = dual_pair(p, q)
                lhs = (q_conj - 2.0) * p_conj / (q_conj - p_conj)
                rhs = p * (2.0 - q) / (p - q)
                worst_identity = max(worst_identity,
                                     abs(lhs - rhs) / max(1.0, abs(rhs)))
        # each check's one integral, at the direct exponent, and its exponent identity
        one_integral = True
        worst_dual = 0.0
        verdicts_ok = True
        for name in CATALOG:
            pair = make_pair(name)
            for p, q in ((4.0, 3.0), (3.0, 2.0), (2.5, 1.5)):
                res = duality_check(pair, p, q)
                est = inverse_brennan_integral(pair, res.exponent_direct).integral
                one_integral = one_integral and repr(res.value) == repr(est.limit)
                worst_dual = max(worst_dual, abs(res.exponent_dual - res.exponent_direct)
                                 / max(1.0, abs(res.exponent_direct)))
                verdicts_ok = (verdicts_ok and res.agree
                               and res.lhs_classification is res.rhs_classification)
        ok = worst_identity <= 1e-12 and worst_dual <= 1e-12 and one_integral and verdicts_ok
        report(6, ok, f"exponent identity worst {worst_identity:.2e} on the grid, "
                      f"{worst_dual:.2e} in the checks; one integral: {one_integral}; "
                      f"verdicts agree: {verdicts_ok}")
        assert ok

    def test_criterion_7_equivalence(self):
        pair = make_pair("koebe")
        table = equivalence_table(pair, 2.5, [2.5, 3.0, 4.0, 6.0, 10.0])
        all_finite = all(math.isfinite(r.kpq_value) for r in table.rows)
        q_below_p = all(r.q < r.p for r in table.rows)
        value = brennan_integral(pair, 2.5).integral.value
        one_integral = all(repr(r.integral_value) == repr(value) for r in table.rows)
        all_converged = all(r.classification is Classification.CONVERGED for r in table.rows)
        ok = (all_converged and all_finite and q_below_p and one_integral
              and table.integral_spread <= 1e-12 and table.consistent)
        report(7, ok, f"koebe s=2.5 rows finite: {all_finite}, q<p: {q_below_p}, "
                      f"one integral: {one_integral}, "
                      f"exponent spread {table.integral_spread:.2e}")
        assert ok

    def test_criterion_8_quadrature_sharpness(self):
        conv = integrate_disc(lambda w: np.abs(1.0 - w) ** -1.9,
                              singular_angles=[0.0])
        div = integrate_disc(lambda w: np.abs(1.0 - w) ** -2.0,
                             singular_angles=[0.0])
        sharp = (conv.classification is Classification.CONVERGED
                 and div.classification is Classification.DIVERGING)
        worst_poly = 0.0
        for k in range(6):
            est = integrate_disc(lambda w, k=k: np.abs(w) ** (2 * k))
            worst_poly = max(worst_poly, abs(est.value - math.pi / (k + 1)))
        ok = sharp and worst_poly <= 1e-12
        report(8, ok, f"threshold verdicts at t=-1.9/-2.0 sharp: {sharp}; "
                      f"monomial exactness worst {worst_poly:.2e}")
        assert ok
