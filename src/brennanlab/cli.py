"""Batch command-line front end with machine-readable JSON/CSV output.

Exit codes: 0 when every verdict is decided and the check holds, 1 when
a decided verdict says no, and 2 when a verdict is inconclusive or on a
usage or numerical error; an oracle miss, such as critical's oracle_gap,
exits 0.  ``--help`` prints that sentence as its epilog.  A decided no
is a divergence, a violated bound, disagreeing duality sides, an
inconsistent equivalence table or an isometry ratio out of tolerance; an
inconclusive verdict still has its JSON or CSV printed, but for an
undecided seminorm, which ``verify-composition`` refuses as an error.
Every ``cmd_*`` function returns through ``_exit_code``, the one place a
verdict becomes an exit code.

Output is deterministic: fixed field order and floats rendered with 12
significant digits, so identical flags give byte-identical output.

Each subcommand has one shape.  ``build_parser``'s helper ``add``
declares ``--out``, ``--map`` and the subcommand's own flags, and the
subcommand's parser, a ``_Subcommand``, adds the grading group (one flag
per ``GradingSpec`` field) after them when it parses; ``exponents`` takes
neither ``--map`` nor grading and ``isometry`` no grading.  ``main``
builds the map, ``args.pair``, and the ``GradingSpec``, ``args.spec``,
once from those flags, before the subcommand runs, so a bad map or spec
is reported before any check of the subcommand's own.  A ``cmd_*``
function reads its flags and those two attributes, calls the public API
and hands numbers to ``_emit_json`` or ``_emit_csv``, which take the
command name and ``--out`` from the parsed arguments.  ``_num`` is the
one number format for both.  Exponent rules are the library's: ``exponents`` raises
RegimeError for a (p, q) outside its regime, and the error reaches stderr
like any other.

The module imports only the package and its numpy-free ``exponents``, and
reads every other name through the package, as ``lab.brennan_integral``;
the package imports its four numpy modules at the first such read (see
:mod:`brennanlab`).  So ``exponents``, the top-level ``--help`` and the
usage errors argparse reports before a subcommand with grading flags
parses import no numpy.  An integrating subcommand imports it as it
declares those flags, ``isometry`` as it builds its map, and an error
raised by a subcommand as ``main`` reads the error classes to catch it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import brennanlab as lab

from . import exponents as xa

OUT_DIR_ENV = "BRENNANLAB_OUT_DIR"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

#: largest |ratio - 1| that `isometry` accepts
_ISOMETRY_TOL = 1e-4
#: most rows, one integral each, that `scan` computes before it writes any
_SCAN_MAX_ROWS = 10_000


def _exit_code(holds: bool, *verdicts: lab.Classification) -> int:
    """The one exit rule: 2 if a verdict is inconclusive, else 0 if the check holds, else 1."""
    # no verdicts, no Classification: exponents loads no numerical module
    if verdicts and lab.Classification.INCONCLUSIVE in verdicts:
        return EXIT_ERROR
    return EXIT_OK if holds else EXIT_NEGATIVE


def _num(x: float) -> str:
    """The one number format: 12 significant digits, or ``nan``, ``inf`` and ``-inf``."""
    return f"{x:.12e}"


def _fmt(x):
    """Render every float of a JSON payload through :func:`_num`, keeping finite ones numbers."""
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, float):
        return float(_num(x)) if math.isfinite(x) else _num(x)
    return x


def _emit(args, text: str) -> None:
    """Write to ``--out``, else stdout; a relative ``--out`` resolves under the out-dir variable."""
    if args.out is None:
        sys.stdout.write(text)
        return
    # join returns an absolute --out unchanged, and a relative one when the variable is unset
    with open(os.path.join(os.environ.get(OUT_DIR_ENV, ""), args.out), "w") as fh:
        fh.write(text)


def _emit_json(args, inputs: dict, result: dict, diagnostics: dict) -> None:
    payload = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
    }
    _emit(args, json.dumps(_fmt(payload), indent=2) + "\n")


def _emit_csv(args, header: str, rows) -> None:
    """One line per row: numbers through :func:`_num`, strings (a verdict too) as they are."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _num(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")


#: the --help text of each GradingSpec field's flag
_GRADING_HELP = {
    "eps_min": "innermost boundary gap; every radius 1 - gap of the ladder must round below"
               " 1.0 and above the one before, so about 1e-16 at the least",
    "annulus_ratio": "geometric gap shrink factor",
    "radial_order": "radial Gauss-Legendre points per annulus",
    "angular_base": "each side of a singular angle gets angular_base//4 extra nodes;"
                    " with no singular angle, about the number of angular nodes",
    "angular_boost": "each side of a singular angle gets angular_boost/2 nodes per unit"
                     " of asinh(distance/gap); with none, the nodes of each equal panel",
}


def cmd_exponents(args) -> int:
    p = args.p
    result: dict = {"p": p, "p_conjugate": xa.holder_conjugate(p)}
    if args.s is not None:
        rec = xa.ExponentRecord.from_p_s(p, args.s)
        result.update(s=rec.s, q=rec.q, r=rec.r)
        if rec.q_conj is not None:
            result["q_conjugate"] = rec.q_conj
        result["regime"] = rec.regime().value
    result["alpha_range"] = list(xa.alpha_range(p))
    bounds = xa.KnownBounds()
    result["inverse_range"] = list(bounds.inverse_conjectured)
    result["known_bounds"] = dataclasses.asdict(bounds)
    _emit_json(args, {"p": p, "s": args.s}, result, {})
    return _exit_code(True)


def cmd_integrate(args) -> int:
    if (args.s is None) == (args.r is None):
        raise xa.RegimeError("exactly one of --s or --r must be given")
    if args.s is not None:
        res = lab.brennan_integral(args.pair, args.s, args.spec)
        inputs = {"map": args.map, "s": args.s}
    else:
        res = lab.inverse_brennan_integral(args.pair, args.r, args.spec)
        inputs = {"map": args.map, "r": args.r}
    est = res.integral
    _emit_json(args, inputs,
               {"value": est.value, "tail": est.tail_estimate,
                "classification": est.classification.value},
               {"integrand_exponent": res.exponent,
                "abs_error_estimate": est.abs_error_estimate,
                "fitted_slope": est.fitted_slope,
                "truncation_eps": est.truncation_eps})
    return _exit_code(est.classification is lab.Classification.CONVERGED, est.classification)


def cmd_scan(args) -> int:
    if not all(math.isfinite(v) for v in (args.s_from, args.s_to, args.step)):
        raise xa.RegimeError("scan needs finite --s-from, --s-to and --step")
    if not (args.s_from < args.s_to and args.step > 0.0):
        raise xa.RegimeError("scan needs s_from < s_to and step > 0")
    # the loop below computes floor(span) + 1 rows; span is inf where it overflows
    span = (args.s_to + 1e-12 - args.s_from) / args.step
    if not span < _SCAN_MAX_ROWS:
        rows = math.floor(span) + 1 if math.isfinite(span) else math.inf
        raise xa.RegimeError(f"scan would compute {rows} rows, more than {_SCAN_MAX_ROWS}; "
                             "use a larger --step or a shorter range")
    rows = []
    k = 0
    while (s := args.s_from + k * args.step) <= args.s_to + 1e-12:
        est = lab.brennan_integral(args.pair, s, args.spec).integral
        rows.append((s, est.value, est.tail_estimate, est.classification))
        k += 1
    _emit_csv(args, "s,value,tail,classification", rows)
    return _exit_code(True, *(row[-1] for row in rows))


def cmd_critical(args) -> int:
    report = lab.critical_exponent(args.pair, args.side, args.tol, args.spec)
    lo, hi = lab.threshold_oracle(args.pair)
    oracle = hi if args.side == "upper" else lo
    _emit_json(args, {"map": args.map, "side": args.side, "tol": args.tol},
               {"s_star": report.s_star, "bracket": list(report.bracket)},
               {"probes": [{"s": s, "classification": v, "slope": m}
                           for s, v, m in report.probes],
                "oracle": {"lower": lo, "upper": hi},
                "oracle_gap": None if oracle is None else abs(report.s_star - oracle)})
    return _exit_code(True)


def cmd_verify_composition(args) -> int:
    # norm_ratio_report raises RegimeError for a (p, q) with no bounded operator
    report = lab.norm_ratio_report(args.pair, args.p, args.q, spec=args.spec, check=False)
    _emit_json(args, {"map": args.map, "p": args.p, "q": args.q},
               {"bound_kpq": report.bound_kpq,
                "max_ratio": report.max_ratio,
                "bound_satisfied": report.bound_satisfied},
               {"samples": [dataclasses.asdict(s) for s in report.samples]})
    return _exit_code(report.bound_satisfied)


def cmd_isometry(args) -> int:
    family = ([lab.parse_test_function(args.function)] if args.function
              else list(lab.isometry_family()))
    try:
        r0, r1 = (float(t) for t in args.patch.split(","))
    except ValueError:
        raise ValueError(f"--patch needs two numbers r0,r1, got {args.patch!r}") from None
    ratios = []
    for f in family:
        ratio = lab.isometry_check(args.pair, f, patch=(r0, r1))
        ratios.append({"function": f.name, "ratio": ratio,
                       "deviation": abs(ratio - 1.0)})
    worst = max(r["deviation"] for r in ratios)
    within = worst <= _ISOMETRY_TOL
    _emit_json(args, {"map": args.map, "patch": [r0, r1]},
               {"ratios": ratios, "max_deviation": worst, "within_tolerance": within}, {})
    return _exit_code(within)


def cmd_duality(args) -> int:
    res = lab.duality_check(args.pair, args.p, args.q, args.spec)
    _emit_json(args, {"map": args.map, "p": args.p, "q": args.q},
               {"lhs": res.lhs, "rhs": res.rhs, "rel_diff": res.rel_diff,
                "lhs_classification": res.lhs_classification.value,
                "rhs_classification": res.rhs_classification.value,
                "agree": res.agree},
               {"dual_pair": {"q_conjugate": res.q_conj, "p_conjugate": res.p_conj},
                "exponent_direct": res.exponent_direct,
                "exponent_dual": res.exponent_dual})
    return _exit_code(res.agree, res.lhs_classification, res.rhs_classification)


def cmd_equivalence(args) -> int:
    try:
        # a blank grid is left empty, for equivalence_table to refuse
        p_grid = [float(t) for t in args.p_grid.split(",")] if args.p_grid.strip() else []
    except ValueError:
        raise ValueError(f"--p-grid needs numbers p1,p2,..., got {args.p_grid!r}") from None
    table = lab.equivalence_table(args.pair, args.s, p_grid, args.spec)
    if args.format == "csv":
        _emit_csv(args, "p,q,s_roundtrip,integral_value,classification,kpq",
                  [(r.p, r.q, r.s_roundtrip, r.integral_value, r.classification, r.kpq_value)
                   for r in table.rows])
    else:
        _emit_json(args, {"map": args.map, "s": args.s, "p_grid": p_grid},
                   # json writes the str-enum classification as its value
                   {"rows": [dataclasses.asdict(r) for r in table.rows],
                    "integral_spread": table.integral_spread,
                    "consistent": table.consistent},
                   {"all_converged": table.all_converged,
                    "all_diverged": table.all_diverged})
    return _exit_code(table.consistent, *(r.classification for r in table.rows))


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser; one with ``grading`` set declares the grading group as it parses.

    The group has one flag per ``GradingSpec`` field, and reading
    ``GradingSpec`` imports the numerical modules, which the top-level
    ``--help`` and ``exponents`` do without.  The group still comes last,
    after the subcommand's own flags.
    """

    grading = False

    def parse_known_args(self, args=None, namespace=None):
        if self.grading:
            self.grading = False
            g = self.add_argument_group("grading")
            for f in dataclasses.fields(lab.GradingSpec):
                g.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                               default=f.default,
                               help=_GRADING_HELP[f.name] + " (default %(default)s)")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brennan-lab",
        description="Integrability exponents of conformal disc maps and "
                    "Sobolev composition-operator bounds.",
        # the exit-code sentence of the module docstring
        epilog="Exit codes: 0 when every verdict is decided and the check holds, 1 when a "
               "decided verdict says no, and 2 when a verdict is inconclusive or on a usage or "
               "numerical error; an oracle miss, such as critical's oracle_gap, exits 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def add(name, func, help_text, flags, *, map_flag=True, grading=True):
        """One subcommand: ``--out``, ``--map``, its own ``flags``; its parser adds grading."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.grading = grading
        p.add_argument("--out", default=None,
                       help=f"output file (relative paths resolve under ${OUT_DIR_ENV})")
        if map_flag:
            p.add_argument("--map", required=True)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)

    number = {"type": float, "required": True}
    add("exponents", cmd_exponents, "exponent algebra for one p (and optional s)",
        {"--p": number, "--s": {"type": float, "default": None}},
        map_flag=False, grading=False)
    add("integrate", cmd_integrate, "Brennan or inverse integral of one map",
        {"--s": {"type": float, "default": None, "help": "Brennan exponent"},
         "--r": {"type": float, "default": None, "help": "inverse-map exponent"}})
    add("scan", cmd_scan, "CSV sweep of the Brennan integral over s",
        {"--s-from": number, "--s-to": number, "--step": number})
    add("critical", cmd_critical, "bracket the critical integrability exponent",
        {"--side": {"choices": ("upper", "lower"), "required": True},
         "--tol": {"type": float, "default": 0.05}})
    add("verify-composition", cmd_verify_composition,
        "sampled seminorm ratios against the K_(p,q) bound", {"--p": number, "--q": number})
    add("isometry", cmd_isometry, "forward-patch check of the p=2 isometry",
        {"--function": {"default": None,
                        "help": "harmonic_poly:k | boundary_power:gamma | shifted_log "
                                "(default: the three-function family)"},
         "--patch": {"default": "0,0.8", "help": "annular patch r0,r1"}},
        grading=False)
    add("duality", cmd_duality, "integral identity of the inverse operator",
        {"--p": number, "--q": number})
    add("equivalence", cmd_equivalence, "K_(p,q(p,s)) across a grid of p",
        {"--s": number, "--p-grid": {"default": "2.5,3,4,6,10"},
         "--format": {"choices": ("json", "csv"), "default": "json"}})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each subcommand's map, then its grading spec, built once from its flags; exponents,
        # the one subcommand without --map, takes no grading either
        if hasattr(args, "map"):
            args.pair = lab.make_pair(args.map)
            grading = {f.name: getattr(args, f.name) for f in dataclasses.fields(lab.GradingSpec)
                       if hasattr(args, f.name)}
            if grading:
                args.spec = lab.GradingSpec(**grading)
        return args.func(args)
    # Python evaluates this tuple only when an exception is raised, so exponents reads no
    # numerical module's name.  ValueError covers the descriptor, domain, regime and
    # admissibility errors; ArithmeticError covers a numerical identity that fails to hold
    # in floating point
    except (ArithmeticError, lab.InconclusiveProbeError, lab.NewtonConvergenceError,
            lab.QuadratureError, lab.ThresholdNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
