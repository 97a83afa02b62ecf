"""Every public module-level name in src/cohdist is reached at run time,
and the package stays within its line budget.

A name is reached when the console-script entry point or the README's
"Python API" section names it, or when a reached definition refers to
it (directly, as a decorator such as a click command's, or as a module
attribute).  A public function, class or constant that only tests call
fails this check: delete it, give it a runtime caller, or document it.

References are matched by bare name, which over-approximates: a name
shared with an unrelated attribute counts as reached.  That can only
let a dead name through, never flag a live one.
"""

import ast
import importlib
import re
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
                names = [t.id for t in targets if isinstance(t, ast.Name)]
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
        # a definition whose decorator names a reached package object (a
        # click command on the reached group) is registered, hence reached
        live = (reached | refs) & defs.keys()
        for name, nodes in defs.items():
            for node in nodes:
                if any(_referenced(deco) & live for deco in getattr(node, "decorator_list", ())):
                    refs.add(name)
        frontier = (refs & defs.keys()) - reached
    dead = sorted(name for name in defs.keys() - reached if not name.startswith("_"))
    assert not dead, f"public names no runtime path or documented API reaches: {dead}"


# Lines of src/cohdist/*.py, as `wc -l` counts them.  Lower it when code
# is deleted; the budget the roadmap aims for is 1400.
MAX_SOURCE_LINES = 1265


def test_source_line_count_does_not_grow():
    lines = sum(len(path.read_bytes().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"src/cohdist has {lines} lines, the ratchet allows {MAX_SOURCE_LINES}"
