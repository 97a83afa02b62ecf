"""Every public module-level name in src/cohdist is reached at run time,
and the package stays within its line budget.

A name is reached when the console-script entry point or the README's
"Python API" section names it, or when a reached definition refers to
it (directly or as a module attribute).  A public function, class or
constant that only tests call fails this check: delete it, give it a
runtime caller, or document it.

References are matched by bare name, which over-approximates: a name
shared with an unrelated attribute counts as reached.  That can only
let a dead name through, never flag a live one.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import cohdist

PACKAGE = Path(cohdist.__file__).parent
ROOT = PACKAGE.parents[1]


def _definitions() -> dict[str, list[ast.AST]]:
    """Top-level def, class and assignment nodes of every module, by name."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                # `a, b = ...` defines a and b too
                elts = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                names = [e.id for e in elts if isinstance(e, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs


def _referenced(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _documented_names() -> set[str]:
    """The names README's Python API section imports: `from cohdist.m import a, b`.
    Each must exist, so the README cannot document a deleted name."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for module, imported in re.findall(r"^from cohdist\.(\w+) import ([\w, ]+)$", section, flags=re.M):
        mod = importlib.import_module(f"cohdist.{module}")
        for name in (n.strip() for n in imported.split(",")):
            assert hasattr(mod, name), f"README documents the missing cohdist.{module}.{name}"
            names.add(name)
    return names


def _entry_points() -> set[str]:
    """Console-script targets, e.g. main for cohdist = "cohdist.cli:main"."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return set(re.findall(r'^\w+ = "cohdist\.[\w.]+:(\w+)"$', pyproject, flags=re.M))


def test_every_public_name_is_reached_from_the_cli_or_the_documented_api():
    defs = _definitions()
    roots = _entry_points() | _documented_names()
    assert "main" in roots
    reached = set()
    frontier = roots & defs.keys()
    while frontier:
        reached |= frontier
        refs = set()
        for name in frontier:
            for node in defs[name]:
                refs |= _referenced(node)
        frontier = (refs & defs.keys()) - reached
    dead = sorted(name for name in defs.keys() - reached if not name.startswith("_"))
    assert not dead, f"public names no runtime path or documented API reaches: {dead}"


def _imports(source: str) -> set[str]:
    """Every module a module's source imports, anywhere in it; a relative
    import from .m or `from . import m` counts as cohdist.m."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            out.update(f"cohdist.{m}" for m in modules)
        elif isinstance(node, ast.ImportFrom):
            out.add(node.module)
            if node.module == "cohdist":
                out.update(f"cohdist.{alias.name}" for alias in node.names)
    return out


def test_closed_forms_stay_out_of_the_matrix_routes_and_numpy():
    """Only verify, which checks the matrix-level routes against the Werner
    closed forms, and the CLI's scan import closed_forms, so no route can
    reach the forms it is checked against.  scalars (standard library only)
    and closed_forms (standard library and scalars) never load numpy or a
    matrix layer, so `cohdist scan` starts without them."""
    importers = {path.stem for path in PACKAGE.glob("*.py") if "cohdist.closed_forms" in _imports(path.read_text(encoding="utf-8"))}
    assert importers == {"verify", "cli"}
    for module, allowed in (("scalars", set()), ("closed_forms", {"cohdist.scalars"})):
        imports = _imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        outside = {m for m in imports if m.split(".")[0] not in sys.stdlib_module_names} - allowed
        assert not outside, f"{module} imports {sorted(outside)}"


def _outside_imports(sources: dict[str, str]) -> dict[str, list[str]]:
    """The imports of each {module: source} from outside the standard
    library, numpy and cohdist."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "cohdist"}
    return {name: sorted(m for m in _imports(source) if m.split(".")[0] not in allowed) for name, source in sources.items()}


def test_runtime_dependencies_are_numpy_alone():
    """No module imports anything but the standard library, numpy and
    cohdist, anywhere in its source, and pyproject.toml's runtime
    dependencies are numpy alone.  Control: an `import click` inside a
    function added to cli.py's source fails the rule."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _outside_imports(sources) == {name: [] for name in sources}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, flags=re.M | re.S).group(1)
    assert [re.split(r"[<>=!~;\[ ]", spec)[0] for spec in re.findall(r'"([^"]+)"', block)] == ["numpy"]
    sources["cli"] += "\n\ndef _late_echo(text):\n    import click\n\n    click.echo(text)\n"
    assert _outside_imports(sources)["cli"] == ["click"]


def test_each_state_rule_has_one_home():
    """The state rules that need no spectrum, which DensityMatrix,
    density_matrix_from_dict and the CLI's numpy-free check share, the
    tolerance they use, the positive-size rule and the probability-vector
    rule are each defined once, in scalars.  No other module reaches past
    the size rule to the bare integer check _index."""
    import cohdist.scalars as scalars

    defs = _definitions()
    for name in (
        "DEFAULT_TOL", "_payload_rows", "_check_rows", "_rows_hermitian", "_bipartite_dims",
        "_indices", "_check_distribution",
    ):
        assert len(defs[name]) == 1 and name in vars(scalars), name
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert path.stem == "scalars" or "_index" not in imported | _referenced(tree), path.stem


def _lapack_reachers(sources: dict[str, str]) -> set[str]:
    """The modules, among {name: source}, that import numpy.linalg's private
    _umath_linalg or reach numpy.linalg's eigvalsh or eigh, as an attribute
    or as an imported name."""
    reaching = {"_umath_linalg", "eigvalsh", "eigh"}
    out = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                dotted = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
                names = {part for d in dotted for part in d.split(".")}
            else:
                names = {node.attr} if isinstance(node, ast.Attribute) else set()
            if names & reaching:
                out.add(name)
    return out


def test_lapack_spectra_have_one_home():
    """Every Hermitian spectrum the package takes from LAPACK goes through
    linalg, the one module that imports _umath_linalg, the private home of
    the gufuncs numpy.linalg.eigvalsh and eigh wrap.  Control: optimize
    calling np.linalg.eigvalsh fails the rule."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _lapack_reachers(sources) <= {"linalg"}
    assert "linalg" in _lapack_reachers(sources)
    sources["optimize"] += "\nspectrum = np.linalg.eigvalsh(np.eye(3), UPLO='U')\n"
    assert _lapack_reachers(sources) == {"linalg", "optimize"}


def _tol_parameters(sources: dict[str, str]) -> set[str]:
    """module.function for every function or lambda, at any depth of each
    {module: source}, that has a parameter named tol."""
    out = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
                if "tol" in names:
                    out.add(f"{module}.{getattr(node, 'name', '<lambda>')}")
    return out


def test_no_caller_sets_a_tolerance():
    """The tolerances are constants: no function takes a tol.  The one
    exception, basis_dependent_discord, reads nothing from it; perfbench's
    sign-flip control passes it positionally.  Control: a `def _f(rho,
    tol=1e-10)` appended to one module's source fails the rule."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _tol_parameters(sources) == {"coherence.basis_dependent_discord"}
    sources["states"] += "\n\ndef _f(rho, tol=1e-10):\n    return rho\n"
    assert _tol_parameters(sources) == {"coherence.basis_dependent_discord", "states._f"}


# Lines of src/cohdist/*.py, as `wc -l` counts them.  Lower it when code
# is deleted; the budget the roadmap aims for is 1400.
MAX_SOURCE_LINES = 1323


def test_source_line_count_does_not_grow():
    lines = sum(len(path.read_bytes().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"src/cohdist has {lines} lines, the ratchet allows {MAX_SOURCE_LINES}"
