"""Every name a package module imports or defines is used, and every public one is exported once.

No linter runs on the package, so these scans are the check.  A public
name may be read by the benchmark or the demos alone.  The last one keeps
the disc rule's internals inside quadrature.  A name
counts as used when it appears as an identifier, which covers the root of
an attribute chain such as ``np.asarray``.
"""

import ast
import importlib
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


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_eigenvalue_solver_for_tables(name):
    """No module names ``leggauss`` or ``numpy.linalg``, however it is imported or reached.

    The Gauss-Legendre tables come from Newton's method on the three-term
    recurrence, so no table runs LAPACK's dense eigenvalue solver.
    """
    tree = TREES[name]
    names = set(read_names(tree)) | {node.module for node in ast.walk(tree)
                                     if isinstance(node, ast.ImportFrom) and node.module}
    named = {part for dotted in names for part in dotted.split(".")} & {"leggauss", "linalg"}
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
    """Only quadrature names the Gauss-Legendre table ``_TABLES``, and only ``_gauss`` reads it.

    ``_build_tables`` stores the tables it builds and asks which sizes are
    missing; any other use of the dict, such as taking a table out, is a read.
    """
    users = {(name, scope) for name, tree in TREES.items()
             for scope in scopes_reading(tree, {"_TABLES"})}
    assert users == {("quadrature.py", "_gauss"), ("quadrature.py", "_build_tables")}, (
        f"the table is named in {sorted(users)}")
    readers = set()
    for fn in ast.walk(TREES["quadrature.py"]):
        if not isinstance(fn, ast.FunctionDef):
            continue
        parent = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Name) and node.id == "_TABLES"):
                continue
            up = parent[node]
            stored = isinstance(up, ast.Subscript) and isinstance(up.ctx, ast.Store)
            asked = (isinstance(up, ast.Compare) and node in up.comparators
                     and all(isinstance(op, (ast.In, ast.NotIn)) for op in up.ops))
            if not (stored or asked):
                readers.add(fn.name)
    assert readers == {"_gauss"}, f"the table is read by {sorted(readers)}"


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
    """The front end imports whole modules, or names in the ``__all__`` of their module."""
    modules = {p.stem for p in MODULES}
    private = []
    for node in ast.walk(TREES["cli.py"]):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("brennanlab")):
            # "" for the package itself, from which only whole modules come
            source = (node.module or "").removeprefix("brennanlab").lstrip(".")
            public = (set(importlib.import_module(f"brennanlab.{source}").__all__)
                      if source else modules)
            private += [alias.name for alias in node.names if alias.name not in public]
    assert not private, f"cli.py imports names outside the public API: {sorted(private)}"
