"""Every name a package module imports or defines is used, and every public one is exported once.

No linter runs on the package, so these scans are the check.  A public
name may be read by the benchmark or the demos alone.  The last one keeps
the disc rule's internals inside quadrature.  A name
counts as used when it appears as an identifier, which covers the root of
an attribute chain such as ``np.asarray``.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brennanlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
#: scripts outside the package that may be the only readers of a public name
SCRIPTS = sorted(p for d in ("bench", "demos") for p in (PACKAGE.parent.parent / d).glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def defined_names(stmt):
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id


def referenced_names(stmt):
    """Identifiers read, attribute names and ``__all__`` strings in a statement."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    if "__all__" in set(defined_names(stmt)):
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def test_modules_found():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path.name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_definitions(path):
    """A module-level ``_name`` is read somewhere in the package outside its own definition."""
    refs = [(stmt, set(referenced_names(stmt))) for tree in TREES.values() for stmt in tree.body]
    dead = []
    for own in TREES[path.name].body:
        for name in defined_names(own):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for stmt, names in refs if stmt is not own):
                dead.append(name)
    assert not dead, f"{path.name} defines private names the package never uses: {sorted(dead)}"


def read_names(tree):
    """Names a tree reads: ``Name`` loads, attribute names and import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def named_parts(tree):
    """Each part of every dotted name a tree reads or imports from, however it is reached."""
    names = set(read_names(tree)) | {node.module for node in ast.walk(tree)
                                     if isinstance(node, ast.ImportFrom) and node.module}
    return {part for dotted in names for part in dotted.split(".")}


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_eigenvalue_solver_for_tables(name):
    """No module names ``leggauss`` or ``numpy.linalg``, however it is imported or reached.

    The Gauss-Legendre tables come from Newton's method on the three-term
    recurrence, so no table runs LAPACK's dense eigenvalue solver.
    """
    named = named_parts(TREES[name]) & {"leggauss", "linalg"}
    assert not named, f"{name} names {sorted(named)}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_least_squares_solver_for_the_tail(name):
    """No module names ``polyfit``, ``polyval`` or ``lstsq``, however it is imported or reached.

    The tail rule fits its line through five points in closed form on Python
    floats, so no integral runs LAPACK's least-squares solver.
    """
    named = named_parts(TREES[name]) & {"polyfit", "polyval", "lstsq"}
    assert not named, f"{name} names {sorted(named)}"


def scopes_reading(node, names, scope="<module>"):
    """The innermost function around each read of ``names`` under node, by function name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from scopes_reading(child, names, scope)


def test_one_table_cache():
    """Only quadrature names the Gauss-Legendre table ``_STORE``, and only ``_build_tables`` assigns it.

    The table is one tuple of read-only arrays, every size built so far end
    to end.  A function that rebound it, or declared it ``global``, could
    drop or copy sizes; the module binds it once, empty, when loaded.
    """
    users = {name for name, tree in TREES.items() if any(scopes_reading(tree, {"_STORE"}))}
    assert users == {"quadrature.py"}, f"the table is named in {sorted(users)}"
    writers = []
    for node in TREES["quadrature.py"].body:
        scope = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for inner in ast.walk(node):
            if ((isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Store)
                 and inner.id == "_STORE")
                    or (isinstance(inner, ast.Global) and "_STORE" in inner.names)):
                writers.append((scope, type(inner).__name__))
    assert sorted(writers) == [("<module>", "Name"), ("_build_tables", "Global"),
                               ("_build_tables", "Name")], f"the table is assigned in {writers}"


def test_one_ladder_and_one_spec_rule():
    """Only quadrature names ``_gap_ladder`` and ``_spec_rule``, what a spec fixes of the rule.

    The checked gap ladder and the spec's radial rules, ungraded rule and
    tables are made there once per spec; another module would make its own.
    """
    users = {name for name, tree in TREES.items()
             if any(scopes_reading(tree, {"_gap_ladder", "_spec_rule"}))}
    assert users == {"quadrature.py"}, f"named in {sorted(users)}"


def test_one_inversion_rule():
    """``invert`` and ``invert_many`` each call ``_accepted``, the one reader of the tolerances.

    A second acceptance rule, or a Newton step with its own target, would
    have to read ``NEWTON_TOL`` or ``STEP_TOL`` outside ``_accepted``.
    """
    readers = {(name, scope) for name, tree in TREES.items()
               for scope in scopes_reading(tree, {"NEWTON_TOL", "STEP_TOL"})}
    assert readers == {("catalog.py", "_accepted")}, f"tolerances read by {sorted(readers)}"
    pair = next(node for node in TREES["catalog.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "ConformalPair")
    callers = {method.name for method in pair.body if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_accepted"}
    assert callers == {"invert", "invert_many"}, f"_accepted is called by {sorted(callers)}"


def test_one_power_kernel():
    """Both directions of the sector map take ``catalog._power``, and nothing else does.

    ``psi_dpsi`` raises (1 - w)/(1 + w) to beta and ``phi`` raises z to
    1/beta through it, so ``sector_map`` names no ``np.log`` or ``np.exp``
    of its own, and no module outside catalog names the kernel.
    """
    sector = next(node for node in TREES["catalog.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "sector_map")
    callers = {fn.name for fn in sector.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_power"}
    assert callers == {"psi_dpsi", "phi"}, f"_power is called by {sorted(callers)}"
    named = {node.attr for node in ast.walk(sector) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "np"
             and node.attr in {"log", "exp"}}
    assert not named, f"sector_map names np.{sorted(named)}"
    users = {name for name, tree in TREES.items() if "_power" in set(read_names(tree))}
    assert users == {"catalog.py"}, f"_power is named in {sorted(users)}"


def test_one_sqrt_kernel():
    """Koebe's and the cardioid's phi take ``catalog._sqrt``, and nothing outside catalog names it.

    Neither phi names ``np.sqrt`` of its own: the kernel is ``cmath`` on a
    scalar and numpy's ``sqrt`` on an array.
    """
    for family in ("koebe_map", "cardioid_map"):
        builder = next(node for node in TREES["catalog.py"].body
                       if isinstance(node, ast.FunctionDef) and node.name == family)
        phi = next(fn for fn in builder.body if isinstance(fn, ast.FunctionDef) and fn.name == "phi")
        calls = {node.func.id for node in ast.walk(phi) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)}
        assert "_sqrt" in calls, f"{family}'s phi calls {sorted(calls)}"
        named = {node.attr for node in ast.walk(phi) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "np"}
        assert "sqrt" not in named, f"{family}'s phi names np.sqrt"
    users = {name for name, tree in TREES.items() if "_sqrt" in set(read_names(tree))}
    assert users == {"catalog.py"}, f"_sqrt is named in {sorted(users)}"


def test_one_reader_of_singular_data():
    """Only catalog names a pair's declared ``singular_points`` or ``poles``.

    ``ConformalPair.__post_init__`` makes once what the rest of the package
    reads of them: the factor list, the grading angles, the singular
    locations in polar form (``singular_polar``, at the grading angles) and
    the thresholds.  A module that read the two lists itself, as an
    attribute or a keyword, would make its own copy of one of these.
    """
    declared = {"singular_points", "poles"}
    readers = sorted((name, node.lineno) for name, tree in TREES.items() if name != "catalog.py"
                     for node in ast.walk(tree)
                     if (isinstance(node, ast.Attribute) and node.attr in declared)
                     or (isinstance(node, ast.keyword) and node.arg in declared))
    assert not readers, f"the declared singular data is read at {readers}"


#: every function of numpy, cmath and math that takes the phase of a complex number
PHASES = {"np": {"angle", "arctan2"}, "numpy": {"angle", "arctan2"}, "cmath": {"phase"},
          "math": {"atan2"}}


def qualified_scopes(tree):
    """Each function of a module, by its qualified name (``Class.method``), with its nodes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", list(ast.walk(method))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, list(ast.walk(node))


def test_one_angle_convention():
    """Only catalog takes a phase, once per pole, and the forward patch's refinement names no numpy.

    The pair makes its grading angles, in ``[0, 2 pi)`` by ``cmath.phase``,
    and the polar form of its singular locations at those angles once, so
    the disc rule and the forward patch agree on where psi is singular.  A
    module that took a phase of its own could read another convention
    (``np.angle`` is in ``(-pi, pi]``).  In catalog, only
    ``SingularPoint.angle`` and ``ConformalPair.__post_init__`` reduce an
    angle modulo ``TWO_PI``, and ``__post_init__`` takes a pole's phase
    once, for the factor list that every derived tuple is read off.
    ``_refined_cells`` and ``_cell_proximity`` read the polar form as
    given, on Python floats.
    """
    takers = sorted((name, node.lineno) for name, tree in TREES.items() if name != "catalog.py"
                    for node in ast.walk(tree)
                    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.attr in PHASES.get(node.value.id, ()))
                    or (isinstance(node, ast.ImportFrom)
                        and any(alias.name in PHASES.get(node.module, ()) for alias in node.names)))
    assert not takers, f"a phase is taken at {takers}"
    scopes = dict(qualified_scopes(TREES["catalog.py"]))
    reducers = {scope for scope, nodes in scopes.items() for node in nodes
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Name) and node.right.id == "TWO_PI"}
    assert reducers == {"SingularPoint.angle", "ConformalPair.__post_init__"}, (
        f"angles are reduced modulo TWO_PI in {sorted(reducers)}")
    phases = [node.lineno for node in scopes["ConformalPair.__post_init__"]
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "cmath"
              and node.func.attr == "phase"]
    assert len(phases) == 1, f"ConformalPair.__post_init__ takes a phase at lines {phases}"
    refinement = [node for node in ast.walk(TREES["operators.py"])
                  if isinstance(node, ast.FunctionDef)
                  and node.name in {"_refined_cells", "_cell_proximity"}]
    assert len(refinement) == 2
    numpy = sorted((fn.name, node.lineno) for fn in refinement for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and node.id in {"np", "numpy"})
    assert not numpy, f"the refinement names numpy at {numpy}"


def string_literal(node):
    """A string constant, or a tuple, list or set literal holding one."""
    return ((isinstance(node, ast.Constant) and isinstance(node.value, str))
            or (isinstance(node, (ast.Tuple, ast.List, ast.Set))
                and any(string_literal(e) for e in node.elts)))


def string_comparisons(fn):
    """Every comparison or ``case`` value with a string literal under fn, as source text."""
    return {ast.unparse(node) for node in ast.walk(fn)
            if (isinstance(node, ast.Compare)
                and any(string_literal(side) for side in [node.left, *node.comparators]))
            or (isinstance(node, ast.MatchValue) and string_literal(node.value))}


def test_one_family_table():
    """``catalog._FAMILIES`` is the one place that knows a family, and no formula converts its input.

    A family's numbers, check and builder are its row of the table, which
    ``MapDescriptor``, the parser and ``make_pair`` read, so no function in
    catalog compares a value with a string literal but ``parse_descriptor``,
    whose suffix must be a moebius map.  Every family's ``psi_dpsi`` and
    ``phi`` take their input as given: none calls a converter such as
    ``np.asarray``, so a Python complex keeps Python's arithmetic and an
    array numpy's.
    """
    tree = TREES["catalog.py"]
    compared = {(fn.name, comparison) for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for comparison in string_comparisons(fn)}
    assert compared == {("parse_descriptor", "t.family != 'moebius'")}, (
        f"string comparisons in {sorted(compared)}")

    builders = {"identity_map", "koebe_map", "sector_map", "cardioid_map",
                "compose_with_moebius"}
    formulas = [(builder.name, fn) for builder in ast.walk(tree)
                if isinstance(builder, ast.FunctionDef) and builder.name in builders
                for fn in builder.body
                if isinstance(fn, ast.FunctionDef) and fn.name in {"psi_dpsi", "phi"}]
    assert {name for name, fn in formulas if fn.name == "psi_dpsi"} == builders
    converters = {"_point", "complex", "asarray", "asanyarray", "array"}
    converting = sorted((name, fn.name) for name, fn in formulas for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        in converters)
    assert not converting, f"formulas that convert their input: {converting}"
    assert "_point" not in set(read_names(tree)), "catalog names _point"


def test_one_test_function_table():
    """``operators._FUNCTIONS`` is the one place that knows a test function family.

    ``parse_test_function`` reads a family's number type, the number's
    requirement and the factory from its row, so it compares no value with
    a string literal.  Outside the table a family's name is spelled, other
    than in docstrings and ``__all__``, only by its own factory, which names
    the functions it makes.
    """
    tree = TREES["operators.py"]
    table = next(stmt for stmt in tree.body if "_FUNCTIONS" in set(defined_names(stmt)))
    families = {key.value for key in table.value.keys}
    assert families == {"harmonic_poly", "boundary_power", "shifted_log"}
    parse = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "parse_test_function")
    assert not string_comparisons(parse), f"comparisons {sorted(string_comparisons(parse))}"
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and ast.get_docstring(node) is not None}
    spelled = sorted((getattr(stmt, "name", "<module>"), family)
                     for stmt in tree.body
                     if stmt is not table and "__all__" not in set(defined_names(stmt))
                     for node in ast.walk(stmt)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and id(node) not in docstrings
                     for family in families
                     if re.search(rf"\b{family}\b", node.value)
                     and getattr(stmt, "name", None) != family)
    assert not spelled, f"family names outside the table and their factories: {spelled}"


def test_one_map_and_spec_per_run():
    """``cli.main`` builds the map and the ``GradingSpec`` of a run; no handler builds either.

    A subcommand parser's ``parse_known_args`` declares the grading flags
    from ``GradingSpec``'s fields, and ``main`` reads ``--map`` and those
    flags once, into ``args.pair`` and ``args.spec``, before the ``cmd_*``
    handler runs.  A handler, or a helper one calls, that built its own
    would name ``make_pair`` or ``GradingSpec``, whether as a bare name or
    as an attribute of the package.
    """
    tree = TREES["cli.py"]
    assert set(scopes_reading(tree, {"make_pair"})) == {"main"}
    assert set(scopes_reading(tree, {"GradingSpec"})) == {"parse_known_args", "main"}


def test_one_exit_rule():
    """``cli._exit_code`` is the one place a verdict becomes an exit code.

    Every ``cmd_*`` handler returns a call of it and names no ``EXIT_*``
    constant, and no function but ``_exit_code`` and ``main``, whose
    ``EXIT_ERROR`` is for usage and numerical errors, names one.
    """
    tree = TREES["cli.py"]
    codes = {name for stmt in tree.body for name in defined_names(stmt)
             if name.startswith("EXIT_")}
    assert codes == {"EXIT_OK", "EXIT_NEGATIVE", "EXIT_ERROR"}
    assert set(scopes_reading(tree, codes)) == {"_exit_code", "main"}
    handlers = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(handlers) == 8
    for fn in handlers:
        returns = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert returns and all(isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                               and value.func.id == "_exit_code" for value in returns), (
            f"{fn.name} returns {[ast.unparse(v) if v else None for v in returns]}")


def test_public_names_have_a_reader():
    """Each ``__all__`` name is read in the package outside its own definition, or by a script."""
    read = {name for p in SCRIPTS for name in read_names(ast.parse(p.read_text()))}
    for p in MODULES:
        for stmt in TREES[p.name].body:
            read |= set(read_names(stmt)) - set(defined_names(stmt))
    unread = [name for p in MODULES
              for name in getattr(importlib.import_module(f"brennanlab.{p.stem}"), "__all__", ())
              if name not in read]
    assert SCRIPTS and not unread, f"public names nothing reads: {sorted(unread)}"


#: every member of the result types: a field or property, each with a reader
RESULT_FIELDS = {
    "FunctionalResult": ("integral", "exponent", "p", "q", "kpq_value"),
    "CriticalExponentReport": ("side", "s_star", "bracket", "probes"),
    "NormRatioReport": ("p", "q", "bound_kpq", "samples", "max_ratio", "bound_satisfied"),
    "DualityResult": ("q_conj", "p_conj", "exponent_direct", "exponent_dual", "lhs", "rhs",
                      "lhs_classification", "rhs_classification", "rel_diff", "agree"),
    "EquivalenceTable": ("rows", "integral_spread", "all_converged", "all_diverged",
                         "consistent"),
    "IntegralEstimate": ("value", "abs_error_estimate", "truncation_eps", "tail_estimate",
                         "classification", "fitted_slope", "limit"),
}


def test_result_fields():
    """The result types hold only the members pinned here, and each is read outside its class.

    A new field is added here together with its reader in ``cli``, the
    benchmark or the demos (or a package function), so no result carries a
    number nobody reads.
    """
    import brennanlab

    read = {name for p in SCRIPTS for name in read_names(ast.parse(p.read_text()))}
    for p in MODULES:
        for stmt in TREES[p.name].body:
            if not (isinstance(stmt, ast.ClassDef) and stmt.name in RESULT_FIELDS):
                read |= set(read_names(stmt))
    for name, pinned in RESULT_FIELDS.items():
        cls = getattr(brennanlab, name)
        members = [f.name for f in dataclasses.fields(cls)]
        members += [k for k, v in vars(cls).items() if isinstance(v, property)]
        assert tuple(members) == pinned, f"{name} members changed: {members}"
        unread = [m for m in members if m not in read]
        assert not unread, f"{name} members nothing reads: {unread}"


def test_public_names_listed_once_and_exported():
    """``brennanlab`` star-imports each module, so its ``__all__`` is the one list of public names.

    A name in two lists would let the later import shadow the earlier one.
    """
    import brennanlab
    from brennanlab import catalog, exponents, functionals, operators, quadrature

    modules = (catalog, exponents, functionals, operators, quadrature)
    listed = [name for module in modules for name in module.__all__]
    shared = sorted({name for name in listed if listed.count(name) > 1})
    assert not shared, f"names in more than one __all__: {shared}"
    for module in modules:
        for name in module.__all__:
            assert getattr(brennanlab, name) is getattr(module, name), name


#: the private names of quadrature other modules may import: the one
#: Gauss-Legendre table for the forward patch's charts, and the one disc
#: integral of functionals
QUADRATURE_SHARED = {"_complex_integrand", "_gauss", "_integrate_polar"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quadrature.py"],
                         ids=lambda p: p.name)
def test_only_quadrature_builds_rings(path):
    """A module other than quadrature imports from it only ``__all__`` and three private names."""
    from brennanlab import quadrature

    allowed = set(quadrature.__all__) | QUADRATURE_SHARED
    imported = {alias.name for node in ast.walk(TREES[path.name])
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "quadrature" for alias in node.names}
    assert not imported - allowed, (
        f"{path.name} imports quadrature internals: {sorted(imported - allowed)}")


def test_cli_uses_only_the_public_api():
    """The front end imports whole modules, or names in the ``__all__`` of their module.

    Through the package itself, imported whole, it reads only names in the
    ``__all__`` of one of the modules.
    """
    modules = {p.stem for p in MODULES}
    exported = {name for module in modules
                for name in getattr(importlib.import_module(f"brennanlab.{module}"), "__all__", ())}
    tree = TREES["cli.py"]
    private = []
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("brennanlab")):
            # "" for the package itself, from which only whole modules come
            source = (node.module or "").removeprefix("brennanlab").lstrip(".")
            public = (set(importlib.import_module(f"brennanlab.{source}").__all__)
                      if source else modules)
            private += [alias.name for alias in node.names if alias.name not in public]
        elif isinstance(node, ast.Import):
            packages |= {alias.asname or alias.name for alias in node.names
                         if alias.name == "brennanlab"}
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in packages and node.attr not in exported]
    assert packages, "cli.py reads the library through no import of the package"
    assert not private, f"cli.py reads names outside the public API: {sorted(private)}"


#: the modules that import numpy, which the package loads together on first use
NUMPY_MODULES = ("catalog", "quadrature", "functionals", "operators")


def fresh_run(*args, code=0):
    """Run ``python -X importtime *args`` on the source tree; the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args, code", [
    (("-m", "brennanlab.cli", "exponents", "--p", "4", "--s", "2"), 0),
    (("-m", "brennanlab.cli", "--help"), 0),
    (("-c", "import brennanlab; brennanlab.s_from_pq(4, 2)"), 0),
    (("-m", "brennanlab.cli", "exponents", "--s", "2"), 2),
    (("-m", "brennanlab.cli", "no-such-command"), 2),
], ids=["exponents", "help", "import", "exponents-usage", "command-usage"])
def test_exponent_paths_import_no_numpy(args, code):
    """``import brennanlab``, ``exponents``, ``--help`` and argparse's errors leave numpy out.

    Only the first read of a name of the four numpy modules imports them.
    """
    imported = fresh_run(*args, code=code)
    assert "brennanlab.exponents" in imported
    numeric = sorted(name for name in imported if name.split(".")[0] == "numpy"
                     or name in {f"brennanlab.{module}" for module in NUMPY_MODULES})
    assert not numeric, f"{args} imports {numeric}"


@pytest.mark.parametrize("module", NUMPY_MODULES)
def test_first_read_loads_the_numpy_modules(module):
    """A name of one numpy module, read off the package, loads all four and is that module's."""
    name = importlib.import_module(f"brennanlab.{module}").__all__[0]
    loaded = [f"brennanlab.{m}" for m in NUMPY_MODULES]
    fresh_run("-c", "import sys, brennanlab\n"
                    f"assert not set(sys.modules) & {{'numpy', *{loaded}}}\n"
                    f"assert brennanlab.{name} is sys.modules['brennanlab.{module}'].{name}\n"
                    f"assert set(sys.modules) >= {{'numpy', *{loaded}}}")


def test_unknown_name_is_an_attribute_error():
    import brennanlab

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        brennanlab.no_such_name
    assert not hasattr(brennanlab, "no_such_name")


def compares_a_classification(fn):
    """Whether fn compares a ``.classification`` or a ``Classification`` member with anything."""
    def classification(node):
        return isinstance(node, ast.Attribute) and (
            node.attr == "classification"
            or (isinstance(node.value, ast.Name) and node.value.id == "Classification"))

    return any(isinstance(node, ast.Compare)
               and any(classification(side) for side in [node.left, *node.comparators])
               for node in ast.walk(fn))


@pytest.mark.parametrize("name", ["functionals.py", "operators.py"])
def test_one_rule_for_what_an_integral_is_worth(name):
    """``IntegralEstimate.limit`` alone turns a verdict other than CONVERGED into ``inf``.

    So in functionals and operators a function that compares a
    classification makes no infinity of its own: ``math.inf`` (or
    ``np.inf``) may stand there only as an operand of a comparison, such as
    ``p == math.inf``.  ``kpq_functional``, ``pullback_seminorm`` and
    ``duality_check`` take their ``inf`` from ``limit``.
    """
    made = []
    for fn in ast.walk(TREES[name]):
        if not (isinstance(fn, ast.FunctionDef) and compares_a_classification(fn)):
            continue
        operands = {id(side) for node in ast.walk(fn) if isinstance(node, ast.Compare)
                    for side in [node.left, *node.comparators]}
        made += [(fn.name, node.lineno) for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr == "inf"
                 and isinstance(node.value, ast.Name) and node.value.id in ("math", "np")
                 and id(node) not in operands]
    assert not made, f"functions that make inf from a verdict: {made}"
