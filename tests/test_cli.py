import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import brennanlab
from brennanlab import catalog, cli, operators
from brennanlab.cli import main
from brennanlab.functionals import brennan_integral
from brennanlab.quadrature import Classification, GradingSpec, IntegralEstimate


EXPONENTS_P4_S2 = """\
{
  "command": "exponents",
  "inputs": {
    "p": 4.0,
    "s": 2.0
  },
  "result": {
    "p": 4.0,
    "p_conjugate": 1.333333333333,
    "s": 2.0,
    "q": 2.0,
    "r": 0.0,
    "q_conjugate": 2.0,
    "regime": "bounded-candidate",
    "alpha_range": [
      0.6666666666667,
      2.0
    ],
    "inverse_range": [
      -2.0,
      0.6666666666667
    ],
    "known_bounds": {
      "easy_upper": 3.0,
      "brennan_conjectured": [
        1.333333333333,
        4.0
      ],
      "pommerenke": 3.399,
      "bertilsson": 3.421,
      "hedenmalm_shimorin": 3.752,
      "inverse_proved_lower": -1.78,
      "inverse_conjectured": [
        -2.0,
        0.6666666666667
      ]
    }
  },
  "diagnostics": {}
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: the subcommands that integrate, and so take the grading flags
GRADED_COMMANDS = ("integrate", "scan", "critical", "verify-composition", "duality", "equivalence")


def help_text(capsys, command):
    """``command --help`` with its line wrapping undone."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestExponentsCommand:
    def test_basic_report(self, capsys):
        code, payload, _ = run_json(capsys, "exponents", "--p", "4", "--s", "2")
        assert code == 0
        assert payload["command"] == "exponents"
        assert payload["result"]["q"] == pytest.approx(2.0)
        assert payload["result"]["alpha_range"] == [pytest.approx(2.0 / 3.0),
                                                    pytest.approx(2.0)]
        assert payload["result"]["known_bounds"]["hedenmalm_shimorin"] == 3.752

    def test_p_three_alpha_range(self, capsys):
        code, payload, _ = run_json(capsys, "exponents", "--p", "3")
        assert code == 0
        assert payload["result"]["alpha_range"] == [pytest.approx(4.0 / 3.0),
                                                    pytest.approx(4.0)]

    def test_exact_stdout(self, capsys):
        """No quadrature runs here, so these bytes pin the JSON layout and the number format."""
        code, out, err = run(capsys, "exponents", "--p", "4", "--s", "2")
        assert (code, err) == (0, "")
        assert out == EXPONENTS_P4_S2

    def test_p_two_is_domain_error(self, capsys):
        code, out, err = run(capsys, "exponents", "--p", "2")
        assert code == 2
        assert "p = 2" in err


class TestIntegrateCommand:
    def test_area_identity(self, capsys):
        code, payload, _ = run_json(capsys, "integrate", "--map", "koebe", "--s", "2")
        assert code == 0
        assert payload["result"]["value"] == pytest.approx(math.pi, abs=1e-8)
        assert payload["result"]["classification"] == "converged"

    def test_divergent_exit_code(self, capsys):
        code, payload, _ = run_json(capsys, "integrate", "--map", "koebe", "--s", "4.1")
        assert code == 1
        assert payload["result"]["classification"] == "diverging"

    def test_three_annuli_are_inconclusive(self, capsys):
        code, payload, _ = run_json(capsys, "integrate", "--map", "koebe", "--s", "3",
                                    "--eps-min", "0.05")
        assert code == 2
        assert payload["result"]["classification"] == "inconclusive"

    @pytest.mark.parametrize("flag", ["--s=nan", "--s=inf", "--r=-inf"])
    def test_non_finite_exponent_is_a_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "integrate", "--map", "koebe", flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the integral of |psi'|^r needs a finite exponent")
        assert "node" not in err

    def test_no_annuli_are_inconclusive(self, capsys):
        code, payload, err = run_json(capsys, "integrate", "--map", "koebe", "--s", "2",
                                      "--eps-min", "0.5")
        assert code == 2
        assert payload["result"]["classification"] == "inconclusive"
        assert "Traceback" not in err

    def test_gap_ladder_on_the_circle_is_a_usage_error(self, capsys):
        """1 - 5e-17 rounds to 1.0, so the spec is refused before any node reaches the circle."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "integrate", "--map", "koebe", "--s", "3",
                                 "--eps-min", "5e-17")
        assert code == 2
        assert not caught
        assert out == ""
        assert err.startswith("error: eps_min=5e-17 with annulus_ratio=0.5 rounds a radius")
        assert "node" not in err and "Warning" not in err
        code, payload, err = run_json(capsys, "integrate", "--map", "koebe", "--s", "3",
                                      "--eps-min", "1e-16")
        assert (code, err) == (0, "")
        assert payload["diagnostics"]["truncation_eps"] == 1e-16

    def test_gap_ladder_of_millions_is_a_usage_error(self, capsys):
        """The 17.7 million annuli of ratio 0.999999 are refused from their count, with no gap made."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracemalloc.start()
            try:
                code, out, err = run(capsys, "integrate", "--map", "koebe", "--s", "2",
                                     "--annulus-ratio", "0.999999")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (code, out) == (2, "")
        assert not caught
        assert err == ("error: annulus_ratio=0.999999 down to eps_min=1e-08 needs 17727525 "
                       "annuli, more than 10000; use a smaller annulus_ratio or a larger eps_min\n")
        # a ladder of that length alone would take hundreds of megabytes
        assert peak < 1_000_000

    def test_spec_of_too_many_table_nodes_is_a_usage_error(self, capsys):
        """An angular_boost of 10^8 would ask for 5e17 Gauss-Legendre nodes: refused when made."""
        code, out, err = run(capsys, "integrate", "--map", "koebe", "--s", "2",
                             "--angular-boost", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: angular_base=64, angular_boost=100000000 and radial_order=16")
        assert err.count("\n") == 1 and err.count("error:") == 1

    def test_non_finite_twist_is_a_usage_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "integrate", "--map", "koebe*moebius:0,0,nan",
                                 "--s", "2")
        assert code == 2
        assert not caught
        assert out == ""
        assert err.startswith("error: expected a finite number")

    def test_non_finite_integrand_names_its_node(self, capsys):
        """The node is a plain complex, and the overflow raises no numpy warning first."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "integrate", "--map", "koebe", "--s", "-150")
        assert code == 2
        assert not caught
        assert out == ""
        assert err == (
            "error: integrand non-finite at node w=(0.7478163657144561+0.000508512697463222j)\n")

    @pytest.mark.parametrize("argv, node", [
        (("scan", "--map", "koebe", "--s-from=-1.7e308", "--s-to=-1.6e308", "--step", "1e306"),
         "(0.0026497596001274514+5.937359204746188e-06j)"),
        (("integrate", "--map", "koebe*moebius:0.5,0.2,1", "--r", "1e308"),
         "(0.2685279674738545-0.05323068173683484j)"),
        (("integrate", "--map", "cardioid*moebius:0.95,0,0.7", "--r=1.7e308"),
         "(0.002649758488032141+6.414499476956022e-06j)"),
    ], ids=["scan-koebe", "twisted-koebe", "twisted-cardioid"])
    def test_huge_finite_exponent_names_its_node(self, capsys, argv, node):
        """Where e log|psi'| itself overflows, to inf or to inf - inf, no numpy warning comes first."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert not caught
        assert out == ""
        assert err == f"error: integrand non-finite at node w={node}\n"

    def test_inverse_exponent_flag(self, capsys):
        code, payload, _ = run_json(capsys, "integrate", "--map", "identity", "--r", "5")
        assert code == 0
        assert payload["result"]["value"] == pytest.approx(math.pi, abs=1e-8)

    def test_sector_below_one_has_no_upper_threshold(self, capsys):
        code, payload, _ = run_json(capsys, "integrate", "--map", "sector:0.5",
                                    "--s", "10")
        assert code == 0
        assert payload["result"]["classification"] == "converged"

    def test_unknown_map(self, capsys):
        code, _, err = run(capsys, "integrate", "--map", "torus", "--s", "2")
        assert code == 2
        assert "unknown map family" in err

    def test_requires_exactly_one_exponent(self, capsys):
        code, _, _ = run(capsys, "integrate", "--map", "koebe")
        assert code == 2
        code, _, _ = run(capsys, "integrate", "--map", "koebe", "--s", "2", "--r", "1")
        assert code == 2


class TestScanCommand:
    def test_koebe_sweep(self, capsys):
        code, out, _ = run(capsys, "scan", "--map", "koebe", "--s-from", "1.0",
                           "--s-to", "4.5", "--step", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,value,tail,classification"
        assert len(lines) == 9  # header + 8 rows
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[-1] == "diverging"
        assert last[-1] == "diverging"

    def test_identity_constant_value(self, capsys):
        code, out, _ = run(capsys, "scan", "--map", "identity", "--s-from", "1",
                           "--s-to", "3", "--step", "1")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(r[-1] == "converged" for r in rows)
        for r in rows:
            assert float(r[1]) == pytest.approx(math.pi, abs=1e-8)

    def test_cardioid_upper_threshold(self, capsys):
        # s = 4.0 sits exactly on the threshold: logarithmically divergent
        code, out, _ = run(capsys, "scan", "--map", "cardioid", "--s-from", "3.5",
                           "--s-to", "4.5", "--step", "0.5")
        rows = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
        assert rows == ["converged", "diverging", "diverging"]

    def test_invalid_range(self, capsys):
        code, _, _ = run(capsys, "scan", "--map", "koebe", "--s-from", "3",
                         "--s-to", "1", "--step", "0.5")
        assert code == 2


class TestCriticalCommand:
    def test_koebe_upper(self, capsys):
        code, payload, _ = run_json(capsys, "critical", "--map", "koebe",
                                    "--side", "upper")
        assert code == 0
        assert payload["result"]["s_star"] == pytest.approx(4.0, abs=0.05)
        assert payload["diagnostics"]["oracle"]["upper"] == pytest.approx(4.0)

    def test_koebe_lower(self, capsys):
        code, payload, _ = run_json(capsys, "critical", "--map", "koebe",
                                    "--side", "lower")
        assert code == 0
        assert payload["result"]["s_star"] == pytest.approx(4.0 / 3.0, abs=0.05)

    def test_sector_upper(self, capsys):
        code, payload, _ = run_json(capsys, "critical", "--map", "sector:1.25",
                                    "--side", "upper", "--tol", "0.1")
        assert code == 0
        assert payload["result"]["s_star"] == pytest.approx(10.0, abs=0.1)

    def test_inconclusive_probe_is_a_numerical_error(self, capsys):
        """With gaps 1 and 0.01 before eps_min there are too few annuli, also after refining."""
        code, out, err = run(capsys, "critical", "--map", "koebe", "--side", "upper",
                             "--eps-min", "0.5", "--annulus-ratio", "0.01")
        assert code == 2
        assert out == ""
        assert err == "error: probe at s=2.0 stayed inconclusive after refining eps_min to 0.005\n"

    def test_probe_not_refined_past_the_ladder_floor(self, capsys):
        """At eps_min = 1e-16 the s = 12 probe is inconclusive, and 1e-18 is past the floor."""
        code, out, err = run(capsys, "critical", "--map", "koebe", "--side", "upper",
                             "--eps-min", "1e-16")
        assert code == 2
        assert out == ""
        assert err == ("error: probe at s=12.0 stayed inconclusive at eps_min=1e-16, and the "
                       "gap ladder cannot be refined to 1e-2 of it\n")

    def test_no_threshold_is_an_error(self, capsys):
        code, _, err = run(capsys, "critical", "--map", "identity", "--side", "upper")
        assert code == 2
        assert "no upper threshold" in err


class TestVerifyCommand:
    def test_identity_attains_bound(self, capsys):
        code, payload, _ = run_json(capsys, "verify-composition", "--map", "identity",
                                    "--p", "4", "--q", "2")
        assert code == 0
        res = payload["result"]
        assert res["bound_satisfied"] is True
        assert res["max_ratio"] == pytest.approx(math.pi ** 0.25, rel=1e-6)
        assert res["max_ratio"] == pytest.approx(res["bound_kpq"], rel=1e-4)

    def test_regime_violation_exits_two(self, capsys):
        code, _, err = run(capsys, "verify-composition", "--map", "koebe",
                           "--p", "2", "--q", "3")
        assert code == 2
        assert "no bounded composition operator" in err

    def test_infinite_bound_is_informational(self, capsys):
        code, payload, _ = run_json(capsys, "verify-composition", "--map", "koebe",
                                    "--p", "4", "--q", "3")
        assert code == 0
        assert payload["result"]["bound_kpq"] == "inf"


class TestIsometryCommand:
    def test_identity(self, capsys):
        code, payload, _ = run_json(capsys, "isometry", "--map", "identity",
                                    "--function", "harmonic_poly:2")
        assert code == 0
        assert payload["result"]["max_deviation"] < 1e-4

    def test_koebe_default_family(self, capsys):
        code, payload, _ = run_json(capsys, "isometry", "--map", "koebe")
        assert code == 0
        assert len(payload["result"]["ratios"]) == 3
        assert payload["result"]["within_tolerance"] is True

    @pytest.mark.parametrize("argv, message", [
        (("--function", "boundary_power:nan"), "boundary_power needs a finite gamma > 0, got nan"),
        (("--function", "boundary_power:inf"), "boundary_power needs a finite gamma > 0, got inf"),
        (("--function", "harmonic_poly:1.5"), "harmonic_poly needs an integer k >= 1, got '1.5'"),
        (("--function", "shifted_log:junk"), "shifted_log needs no number, got 'junk'"),
        (("--patch", "0.5"), "--patch needs two numbers r0,r1, got '0.5'"),
        (("--patch", "0.1,0.5,0.7"), "--patch needs two numbers r0,r1, got '0.1,0.5,0.7'"),
        (("--patch", "0.1,x"), "--patch needs two numbers r0,r1, got '0.1,x'"),
    ], ids=["gamma-nan", "gamma-inf", "k-float", "log-word", "patch-one", "patch-three",
            "patch-word"])
    def test_bad_function_or_patch_is_a_usage_error(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "isometry", "--map", "koebe", *argv)
        assert code == 2
        assert not caught
        assert out == ""
        assert err == f"error: {message}\n"

    def test_patch_next_to_the_circle(self, capsys):
        """Koebe's leaves at r1 = 0.999 need more than 18 splits."""
        code, payload, _ = run_json(capsys, "isometry", "--map", "koebe", "--patch", "0.2,0.999")
        assert code == 0
        assert payload["result"]["within_tolerance"] is True

    def test_failed_inversion_is_a_numerical_error(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(catalog, "STEP_TOL", 0.0)
        code, out, err = run(capsys, "isometry", "--map", "cardioid")
        assert code == 2
        assert out == ""
        assert err == ("error: forward-patch inversion failed at z=(-6.8233094521657e-05"
                       "+0.0021546690265843438j) (map cardioid, cell (0.0, 0.4, "
                       "1.5707963267948966, 3.141592653589793))\n")

    def test_degenerate_chart_is_a_numerical_error(self, capsys, monkeypatch):
        """Without refinement a folded Koebe chart cannot be split past depth 1."""
        monkeypatch.setattr(operators, "PROXIMITY_CAP", math.inf)
        monkeypatch.setattr(operators, "_MAX_SPLIT_DEPTH", 1)
        code, out, err = run(capsys, "isometry", "--map", "koebe")
        assert code == 2
        assert out == ""
        assert err == ("error: degenerate forward chart on cell "
                       "(0.4, 0.8, 0.0, 0.7853981633974483)\n")


class TestDualityCommand:
    def test_identity(self, capsys):
        code, payload, _ = run_json(capsys, "duality", "--map", "identity",
                                    "--p", "4", "--q", "3")
        assert code == 0
        assert payload["result"]["lhs"] == pytest.approx(math.pi, rel=1e-8)
        assert payload["result"]["rhs"] == pytest.approx(math.pi, rel=1e-8)

    def test_koebe_joint_divergence(self, capsys):
        code, payload, _ = run_json(capsys, "duality", "--map", "koebe",
                                    "--p", "4", "--q", "3")
        assert code == 0
        assert payload["result"]["lhs_classification"] == "diverging"
        assert payload["result"]["agree"] is True

    def test_nan_relative_difference_is_a_string(self, capsys):
        """Both sides diverge, so rel_diff is nan, which JSON has no literal for."""
        code, out, _ = run(capsys, "duality", "--map", "koebe", "--p", "4", "--q", "3")
        assert code == 0
        assert '\n    "rel_diff": "nan",\n' in out

    def test_inconclusive_sides_exit_two(self, capsys):
        """With no annuli both sides are inconclusive: no agreement, and exit 2 as integrate."""
        code, payload, _ = run_json(capsys, "duality", "--map", "koebe", "--p", "4", "--q", "3",
                                    "--eps-min", "0.5")
        assert code == 2
        assert payload["result"]["lhs_classification"] == "inconclusive"
        assert payload["result"]["rhs_classification"] == "inconclusive"
        assert payload["result"]["agree"] is False

    def test_regime_error(self, capsys):
        code, _, _ = run(capsys, "duality", "--map", "koebe", "--p", "3", "--q", "1")
        assert code == 2

    def test_dual_identity_failure_is_a_numerical_error(self, capsys):
        """Near q = p the two closed forms of the dual exponent differ by about 5e-11."""
        code, out, err = run(capsys, "duality", "--map", "koebe",
                             "--p", "3", "--q", "2.9999999999")
        assert code == 2
        assert out == ""
        assert err.startswith("error: dual exponent identity violated") and err.count("\n") == 1


class TestEquivalenceCommand:
    def test_koebe_json(self, capsys):
        code, payload, _ = run_json(capsys, "equivalence", "--map", "koebe",
                                    "--s", "2.5")
        assert code == 0
        rows = payload["result"]["rows"]
        assert [r["p"] for r in rows] == [2.5, 3.0, 4.0, 6.0, 10.0]
        values = {r["integral_value"] for r in rows}
        assert len(values) == 1  # identical after 12-digit normalization
        assert payload["result"]["consistent"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "equivalence", "--map", "identity", "--s", "3",
                           "--p-grid", "3,4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,s_roundtrip,integral_value,classification,kpq"
        assert len(lines) == 3


    def test_csv_writes_an_infinite_bound_as_inf(self, capsys):
        code, out, _ = run(capsys, "equivalence", "--map", "koebe", "--s", "5", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 5
        assert all(r.endswith(",5.000000000000e+00,1.023999104825e+11,diverging,inf")
                   for r in rows)

    def test_empty_p_grid_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "equivalence", "--map", "koebe", "--s", "2.5",
                             "--p-grid", "")
        assert code == 2
        assert out == ""
        assert err == "error: p grid must be nonempty\n"

    @pytest.mark.parametrize("grid", ["2.5,,3", "2.5,x", "3,", ",3"])
    def test_malformed_p_grid_is_a_usage_error(self, capsys, grid):
        """An empty field is refused, not dropped, and a word is named with the flag."""
        assert run(capsys, "equivalence", "--map", "koebe", "--s", "2.5", "--p-grid", grid) == (
            2, "", f"error: --p-grid needs numbers p1,p2,..., got {grid!r}\n")


class TestDeterminismAndOutput:
    def test_byte_identical_json(self, capsys):
        _, first, _ = run(capsys, "integrate", "--map", "koebe", "--s", "2.5")
        _, second, _ = run(capsys, "integrate", "--map", "koebe", "--s", "2.5")
        assert first == second

    def test_byte_identical_csv(self, capsys):
        _, first, _ = run(capsys, "scan", "--map", "cardioid", "--s-from", "1",
                          "--s-to", "3", "--step", "0.5")
        _, second, _ = run(capsys, "scan", "--map", "cardioid", "--s-from", "1",
                           "--s-to", "3", "--step", "0.5")
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "integrate", "--map", "identity", "--s", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["command"] == "integrate"

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BRENNANLAB_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "integrate", "--map", "identity", "--s", "2",
                         "--out", "r.json")
        assert code == 0
        assert (tmp_path / "r.json").exists()

    def test_help_lists_grading_defaults(self, capsys):
        """Every GradingSpec field's flag shows its default on each integrating subcommand."""
        for command in GRADED_COMMANDS:
            text = help_text(capsys, command)
            assert "grading:" in text
            for f in dataclasses.fields(GradingSpec):
                flag = "--" + f.name.replace("_", "-")
                # the flag's entry runs from its name to the next flag or the end
                entry = text[text.index(f"{flag} {f.name.upper()} "):].split(" --")[0]
                assert entry.endswith(f"(default {f.default})"), (command, entry)

    @pytest.mark.parametrize("command", ["exponents", "isometry"])
    def test_help_of_ungraded_commands_has_no_grading_group(self, capsys, command):
        text = help_text(capsys, command)
        assert "grading" not in text
        assert not any("--" + f.name.replace("_", "-") in text
                       for f in dataclasses.fields(GradingSpec))


#: the exact stdout of one run of each integrating subcommand, in ``tests/cli_stdout``
STDOUT_GOLDENS = [
    ("integrate-koebe-s3.json", ("integrate", "--map", "koebe", "--s", "3")),
    ("scan-koebe.csv", ("scan", "--map", "koebe", "--s-from", "1", "--s-to", "4.5",
                        "--step", "0.5")),
    ("critical-koebe-upper.json", ("critical", "--map", "koebe", "--side", "upper")),
    ("verify-composition-koebe-p4-q2.json", ("verify-composition", "--map", "koebe",
                                             "--p", "4", "--q", "2")),
    ("isometry-cardioid.json", ("isometry", "--map", "cardioid")),
    ("duality-koebe-p4-q3.json", ("duality", "--map", "koebe", "--p", "4", "--q", "3")),
    ("equivalence-koebe-s2.5.json", ("equivalence", "--map", "koebe", "--s", "2.5")),
    ("equivalence-koebe-s2.5-pinf.csv", ("equivalence", "--map", "koebe", "--s", "2.5",
                                         "--p-grid", "2.5,3,inf", "--format", "csv")),
]


class TestExactOutput:
    """Byte-exact stdout, stderr and exit codes, so a refactor shows any moved digit."""

    @pytest.mark.parametrize("name, argv", STDOUT_GOLDENS, ids=[n for n, _ in STDOUT_GOLDENS])
    def test_stdout(self, capsys, name, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (Path(__file__).parent / "cli_stdout" / name).read_text()

    @pytest.mark.parametrize("argv, message", [
        (("duality", "--map", "koebe", "--p", "2", "--q", "3"),
         "duality check requires 1 < q < p < inf, got p=2.0, q=3.0"),
        (("verify-composition", "--map", "koebe", "--p", "3", "--q", "4"),
         "K_(p,q) requires q < p (got p=3.0, q=4.0): at q = p the criterion is vacuous "
         "and for q > p no bounded composition operator exists"),
    ])
    def test_regime_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec, message", [
        ("sector", "sector:beta takes 1 number(s), got 0"),
        ("moebius:0.3,0.2", "moebius:a_re,a_im,theta takes 3 number(s), got 2"),
        ("koebe:1", "koebe takes 0 number(s), got 1"),
        ("moebius:0.3,,0.2,1", "expected a number, got ''"),
        ("koebe*sector:1.5", "only a moebius suffix may be composed, got 'sector:1.5'"),
        ("torus", "unknown map family 'torus'; known: identity, moebius, koebe, sector, cardioid"),
        ("sector:2.5", "sector opening parameter must lie in (0, 2], got 2.5"),
        ("koebe*moebius:1.5,0,0", "moebius parameter must satisfy |a| < 1, got (1.5+0j)"),
        ("moebius:1.7e308,1.7e308,0",
         "moebius parameter must satisfy |a| < 1, got (1.7e+308+1.7e+308j)"),
        ("koebe*moebius:1.7e308,1.7e308,0",
         "moebius parameter must satisfy |a| < 1, got (1.7e+308+1.7e+308j)"),
    ], ids=["sector-bare", "moebius-two", "koebe-one", "empty-field", "sector-suffix",
            "unknown", "sector-range", "twist-outside", "moebius-overflow",
            "twist-overflow"])
    def test_descriptor_errors(self, capsys, spec, message):
        assert run(capsys, "integrate", "--map", spec, "--s", "2") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("integrate", "--map", "torus"), "unknown map family 'torus'"),
        (("integrate", "--map", "koebe", "--eps-min", "2"), "eps_min must lie in (0, 0.5]"),
        (("scan", "--map", "torus", "--s-from", "1", "--s-to", "0", "--step", "1"),
         "unknown map family 'torus'"),
        (("scan", "--map", "koebe", "--s-from", "1", "--s-to", "0", "--step", "1",
          "--eps-min", "2"), "eps_min must lie in (0, 0.5]"),
    ], ids=["integrate-map", "integrate-spec", "scan-map", "scan-spec"])
    def test_map_and_spec_are_checked_first(self, capsys, argv, message):
        """A bad map, then a bad spec, is reported before any check of the subcommand's own."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


#: one run of each subcommand that takes --map, failing on its own flags after the set-up
MAP_COMMANDS = [
    ("integrate", "--map", "koebe"),
    ("scan", "--map", "koebe", "--s-from", "1", "--s-to", "0", "--step", "1"),
    ("critical", "--map", "koebe", "--side", "upper", "--tol", "-1"),
    ("verify-composition", "--map", "koebe", "--p", "3", "--q", "4"),
    ("isometry", "--map", "koebe", "--patch", "x"),
    ("duality", "--map", "koebe", "--p", "2", "--q", "3"),
    ("equivalence", "--map", "koebe", "--s", "2.5", "--p-grid", ""),
]


@pytest.mark.parametrize("argv", MAP_COMMANDS, ids=[argv[0] for argv in MAP_COMMANDS])
def test_each_subcommand_builds_its_map_once(capsys, monkeypatch, argv):
    built = []
    monkeypatch.setattr(brennanlab, "make_pair",
                        lambda text: built.append(text) or catalog.make_pair(text))
    code, out, _ = run(capsys, *argv)
    assert (code, out, built) == (2, "", ["koebe"])


class TestScanBounds:
    @pytest.mark.parametrize("argv", [
        ("--s-from", "1", "--s-to", "inf", "--step", "1"),
        ("--s-from=-inf", "--s-to", "1", "--step", "1"),
        ("--s-from", "0", "--s-to", "1", "--step", "inf"),
        ("--s-from", "nan", "--s-to", "1", "--step", "0.5"),
    ])
    def test_non_finite_bounds_are_usage_errors(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "scan", "--map", "koebe", *argv)
        assert code == 2
        assert not caught
        assert out == ""
        assert "finite" in err


    @pytest.mark.parametrize("step, rows", [("1e-9", 1_000_000_001), ("1e-4", 10_001)])
    def test_row_count_is_bounded(self, capsys, step, rows):
        """More than 10,000 rows are refused before the first integral, naming the count."""
        code, out, err = run(capsys, "scan", "--map", "koebe", "--s-from", "1", "--s-to", "2",
                             "--step", step)
        assert code == 2
        assert out == ""
        assert err == (f"error: scan would compute {rows} rows, more than 10000; "
                       "use a larger --step or a shorter range\n")

    def test_row_bound_admits_ten_thousand(self, capsys, monkeypatch):
        """A scan of exactly 10,000 rows runs (each integral a stub here)."""
        estimate = IntegralEstimate(1.0, 0.0, 1e-8, 0.0, Classification.CONVERGED, -1.0)
        monkeypatch.setattr(brennanlab, "brennan_integral",
                            lambda pair, s, spec: SimpleNamespace(integral=estimate))
        code, out, _ = run(capsys, "scan", "--map", "koebe", "--s-from", "1", "--s-to", "2",
                           "--step", repr(1.0 / 9999))
        assert code == 0
        assert len(out.splitlines()) == 1 + 10_000


class TestCriticalOracleGap:
    def test_koebe_gap_is_small(self, capsys):
        code, payload, _ = run_json(capsys, "critical", "--map", "koebe", "--side", "upper")
        assert code == 0
        diag = payload["diagnostics"]
        assert diag["oracle_gap"] == pytest.approx(abs(payload["result"]["s_star"] - 4.0))
        assert diag["oracle_gap"] < 1e-3

    def test_clustered_twisted_koebe_reports_its_gap(self, capsys):
        # a known defect: one power-law fit over whole annuli mixes the two
        # nearby singular points, and s_star lands near 4.33 instead of 4
        code, payload, _ = run_json(capsys, "critical", "--map", "koebe*moebius:0.95,0.2,1",
                                    "--side", "upper")
        assert code == 0
        assert payload["diagnostics"]["oracle"]["upper"] == pytest.approx(4.0)
        assert payload["diagnostics"]["oracle_gap"] == pytest.approx(
            payload["result"]["s_star"] - 4.0)
        assert payload["diagnostics"]["oracle_gap"] == pytest.approx(0.327, abs=0.01)


class TestExitRule:
    @pytest.mark.parametrize("holds, verdicts, code", [
        (True, (), 0),
        (False, (), 1),
        (True, (Classification.CONVERGED, Classification.DIVERGING), 0),
        (False, (Classification.DIVERGING,), 1),
        (True, (Classification.CONVERGED, Classification.INCONCLUSIVE), 2),
        (False, (Classification.INCONCLUSIVE, Classification.DIVERGING), 2),
    ])
    def test_exit_code(self, holds, verdicts, code):
        assert cli._exit_code(holds, *verdicts) == code

    def test_help_states_the_rule(self, capsys):
        """``--help`` prints the module docstring's exit-code sentence."""
        rule = cli.build_parser().epilog
        assert rule.startswith("Exit codes: ") and rule in " ".join(cli.__doc__.split())
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert rule in " ".join(capsys.readouterr().out.split())


#: the files of ``tests/cli_help``: the top level's ``--help``, then each subcommand's
HELP_PAGES = ("brennan-lab", "exponents", "integrate", "scan", "critical", "verify-composition",
              "isometry", "duality", "equivalence")


@pytest.mark.parametrize("page", HELP_PAGES)
def test_help_bytes(capsys, monkeypatch, page):
    """Each ``--help`` at 80 columns is byte for byte its file in ``tests/cli_help``.

    The grading group is declared when its subcommand parses, not with the
    parser; this pins that it keeps its place after the subcommand's own
    flags and its defaults.
    """
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if page == "brennan-lab" else [page, "--help"])
    assert exc.value.code == 0
    pinned = (Path(__file__).parent / "cli_help" / f"{page}.txt").read_text()
    assert capsys.readouterr().out == pinned


#: the flags besides --map and grading of one run of each integrating subcommand
UNDECIDED_RUNS = {
    "integrate": ("--s", "2"),
    "scan": ("--s-from", "1", "--s-to", "2", "--step", "1"),
    "critical": ("--side", "upper"),
    "verify-composition": ("--p", "4", "--q", "2"),
    "duality": ("--p", "4", "--q", "3"),
    "equivalence": ("--s", "2.5"),
}


@pytest.mark.parametrize("command", GRADED_COMMANDS)
def test_an_undecided_verdict_exits_two(capsys, command):
    """At ``--eps-min 0.5`` there are no annuli, so every first verdict is inconclusive.

    A report that rests on one prints it and exits 2.  ``verify-composition``
    still refuses an undecided seminorm with an error, and ``critical``
    retries each probe at ``eps_min`` 0.005, where every probe is decided.
    """
    code, out, err = run(capsys, command, "--map", "koebe", *UNDECIDED_RUNS[command],
                         "--eps-min", "0.5")
    if command == "critical":
        assert (code, err) == (0, "")
        refined = GradingSpec(eps_min=0.005)
        probes = json.loads(out)["diagnostics"]["probes"]
        assert probes
        for probe in probes:
            verdict = brennan_integral(catalog.make_pair("koebe"), probe["s"],
                                       refined).integral.classification
            assert verdict is not Classification.INCONCLUSIVE
            assert probe["classification"] == verdict.value
        return
    if command == "verify-composition":
        assert (code, out, err) == (
            2, "", "error: gradient integral of harmonic_poly:1 at p=4.0 classified inconclusive\n")
        return
    assert (code, err) == (2, "")
    if command == "scan":
        verdicts = [line.split(",")[-1] for line in out.splitlines()[1:]]
    else:
        # integrate's classification, duality's two sides, or each equivalence row's
        verdicts = re.findall(r'"\w*classification": "(\w+)"', out)
    assert verdicts and set(verdicts) == {"inconclusive"}
