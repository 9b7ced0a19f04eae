"""Self-tests of the benchmark: seeding, oracles, tracing and printed metric names.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brennanlab as lib  # noqa: E402
from brennanlab.quadrature import Classification  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from oracles import MapSpec  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402

KOEBE = MapSpec("koebe")
CARDIOID = MapSpec("cardioid")


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_tasks_other_seed_other_tasks(workload):
    first = workloads.task_list(workload, 7, 40)
    assert workloads.task_list(workload, 7, 40) == first
    assert workloads.task_list(workload, 8, 40) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_task_count_is_whole_periods_and_grows_with_seconds(workload):
    period = workloads.PERIOD[workload]
    counts = [workloads.task_count(workload, s) for s in (1, 40, 80)]
    assert all(c % period == 0 and c >= period for c in counts)
    assert counts[0] <= counts[1] < counts[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_repeats_its_kinds_and_families_every_period(workload):
    period = workloads.PERIOD[workload]
    tasks = workloads.task_list(workload, 5, 3 * period)
    shape = [(t.kind, t.map.family, t.params.get("function"), tuple(sorted(t.spec.items())))
             for t in tasks]
    assert shape[:period] == shape[period:2 * period] == shape[2 * period:]


def test_warmup_stream_differs_from_measured_stream():
    measured = workloads.task_list("scan-cold", 3, 5)
    warm = [t for t, _ in zip(workloads.stream("scan-cold", 3, salt="warmup"), range(5))]
    assert warm != measured


def test_descriptors_round_trip_through_the_parser():
    for task in workloads.task_list("scan-cold", 1, 48):
        pair = lib.make_pair(task.map.descriptor())
        assert pair.descriptor.family == task.map.family
        if task.map.twist_a is not None:
            assert pair.descriptor.twist_a == task.map.twist_a


# ---------------------------------------------------------------------------
# oracles agree with the package where the package is right ...
# ---------------------------------------------------------------------------


def test_thresholds_match_the_package_on_every_family():
    for m in (KOEBE, CARDIOID, MapSpec("identity"), MapSpec("sector", 0.5),
              MapSpec("sector", 1.5), MapSpec("koebe", None, 0.3 - 0.4j, 1.0)):
        assert m.thresholds() == pytest.approx(lib.threshold_oracle(m.descriptor()))


def test_forward_map_matches_the_package():
    for m in (KOEBE, CARDIOID, MapSpec("sector", 1.3, 0.5j, 2.0),
              MapSpec("identity", None, -0.7 + 0.1j, 0.3)):
        pair = lib.make_pair(m.descriptor())
        for w in (0.1 + 0.2j, -0.6 + 0.3j, 0.8j):
            f, df = m.psi_dpsi(w)
            assert f == pytest.approx(complex(pair.psi(np.array(w))), rel=1e-13)
            assert df == pytest.approx(complex(pair.dpsi(np.array(w))), rel=1e-13)


def test_closed_forms_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    a, r = 0.6 + 0.3j, 1.7
    x = abs(a) ** 2
    want = mpmath.pi * (1 - x) ** r * mpmath.hyp2f1(r, r, 2, x)
    assert oracles.disc_integral_reference(MapSpec("identity", None, a, 0.0), r) \
        == pytest.approx(float(want), rel=1e-13)
    r = -0.8
    want = mpmath.pi * mpmath.gamma(2 + r) / mpmath.gamma(2 + r / 2) ** 2
    assert oracles.disc_integral_reference(CARDIOID, r) == pytest.approx(float(want), rel=1e-13)
    for p in (2.5, 6.0):
        want = (mpmath.pi * 2 ** -p * mpmath.hyp2f1(p / 2, p / 2, 2, 0.25)) ** (1 / p)
        assert oracles.seminorm_reference("shifted_log", p) == pytest.approx(float(want), rel=1e-13)


def test_seminorm_closed_forms_match_the_package():
    for f in lib.standard_family():
        assert lib.seminorm(f, 4.0) == pytest.approx(oracles.seminorm_reference(f.name, 4.0),
                                                     rel=1e-9)


# ---------------------------------------------------------------------------
# ... and flag every planted wrong answer
# ---------------------------------------------------------------------------


def test_every_check_has_a_planted_case_and_each_is_flagged():
    planted = dict(oracles.planted_cases())
    assert set(planted) == set(oracles.CHECKS) - {"raised"}
    for check, failed in planted.items():
        assert check in failed


def test_flipped_verdict_is_flagged():
    res = lib.brennan_integral(lib.make_pair("koebe"), 3.0)
    assert oracles.judge_integral(KOEBE, "integral", res) == []
    flipped = replace(res, integral=replace(res.integral, classification=Classification.DIVERGING))
    assert oracles.judge_integral(KOEBE, "integral", flipped) == ["verdict"]


def test_perturbed_value_is_flagged():
    res = lib.inverse_brennan_integral(lib.make_pair("cardioid"), 0.5)
    assert oracles.judge_integral(CARDIOID, "integral", res) == []
    est = res.integral
    moved = replace(est, value=est.value + 10.0 * est.abs_error_estimate + 1e-9)
    assert oracles.judge_integral(CARDIOID, "integral", replace(res, integral=moved)) \
        == ["closed_form"]


def test_wrong_kpq_value_is_flagged():
    res = lib.kpq_functional(lib.make_pair("koebe"), 4.0, 2.0)
    assert oracles.judge_integral(KOEBE, "kpq", res) == []
    assert oracles.judge_integral(KOEBE, "kpq", replace(res, kpq_value=res.kpq_value * 1.001)) \
        == ["kpq_value"]


def test_s_star_off_by_a_tenth_is_flagged():
    report = lib.critical_exponent(lib.make_pair("cardioid"), "upper")
    assert oracles.judge_critical(CARDIOID, report, 0.05) == []
    assert oracles.judge_critical(CARDIOID, replace(report, s_star=report.s_star + 0.1), 0.05) \
        == ["critical_gap"]


def test_isometry_deviation_is_flagged():
    ratio = lib.isometry_check(lib.make_pair("cardioid"), lib.harmonic_poly(1))
    assert oracles.judge_isometry(ratio) == []
    assert oracles.judge_isometry(ratio * (1.0 + 2e-4)) == ["isometry"]


def test_p_distortion_from_a_known_point_is_checked():
    m = MapSpec("sector", 1.4, 0.2 + 0.5j, 0.7)
    pair = lib.make_pair(m.descriptor())
    points = [0.3 - 0.2j, -0.5 + 0.6j]
    values = [lib.p_distortion(pair, m.psi_dpsi(w)[0], 3.5) for w in points]
    assert oracles.judge_p_distortion([m, m], points, 3.5, values) == []
    assert oracles.judge_p_distortion([m, m], points, 3.5, [values[0], values[1] * (1 + 1e-8)]) \
        == ["p_distortion"]


def test_inconsistent_equivalence_and_disagreeing_duality_are_flagged():
    pair = lib.make_pair("koebe")
    table = lib.equivalence_table(pair, 2.5, workloads.P_GRID)
    assert oracles.judge_equivalence(KOEBE, table) == []
    assert "equivalence" in oracles.judge_equivalence(KOEBE, replace(table, integral_spread=1e-6))
    dual = lib.duality_check(pair, 4.0, 3.0)
    assert oracles.judge_duality(KOEBE, dual) == []
    assert oracles.judge_duality(KOEBE, replace(dual, agree=False)) == ["duality"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_counts_integrals_points_and_children():
    tracer = Tracer()
    pair = tracer.pair(lib.make_pair("koebe"))
    with tracer.task(0, "brennan", quadrature=True):
        lib.brennan_integral(pair, 2.5)
    calls, points, ns, task = tracer.leaves[(1, "dpsi")]
    assert tracer.task_counts[0] == {"map": 1, "free": 0, "points": points}
    assert task == 0 and calls == 27 and ns > 0

    f = tracer.test_function(lib.harmonic_poly(2))
    with tracer.task(1, "ratio", quadrature=True):
        lib.seminorm(f, 3.0)
        lib.pullback_seminorm(pair, f, 3.0)
    assert tracer.task_counts[1]["map"] == 1 and tracer.task_counts[1]["free"] == 1

    with tracer.task(2, "p_distortion", quadrature=False):
        lib.p_distortion(pair, 0.1 + 0.1j, 3.0)
    spans = [s for s in tracer.spans if s[2] == 2]
    assert [s[3] for s in spans] == ["p_distortion", "invert"]
    assert spans[1][1] == spans[0][0]


# ---------------------------------------------------------------------------
# printed metric names
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


def test_slowdowns_follow_the_probe_in_units_of_the_reference():
    ref = speed.REFERENCE_PROBE_MS
    probes = [ref] * 10 + [2.0 * ref] * 10 + [0.9 * ref] * 10
    slow = speed.slowdowns(probes)
    assert len(slow) == len(probes) - 1
    assert slow[2] == pytest.approx(1.0)
    assert slow[14] == pytest.approx(2.0)
    assert slow[25] == pytest.approx(0.9)


def test_slowdowns_shed_a_lone_slow_probe():
    probes = [speed.REFERENCE_PROBE_MS] * 20
    probes[10] = 5.0 * speed.REFERENCE_PROBE_MS
    assert speed.slowdowns(probes) == pytest.approx([1.0] * 19)


def test_probe_times_a_real_kernel():
    assert 0.01 < speed.probe_ms() < 1000.0


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    b = _benchmark_json()
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == PER_LAYER
    assert {w["name"] for w in b["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-cold",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in out["metrics"].values())
