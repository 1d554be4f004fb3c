"""The engine stays stdlib-only, with no declared dependency and no public
name that nothing in it uses."""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ifol").glob("*.py"))


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_engine_imports_only_the_standard_library():
    assert len(MODULES) > 10
    outside = {path.name: sorted(pkg for pkg in _imported_packages(path)
                                 if pkg != "ifol" and pkg not in sys.stdlib_module_names)
               for path in MODULES}
    assert {name: pkgs for name, pkgs in outside.items() if pkgs} == {}


def _engine_imports(path: Path) -> set[str]:
    """The engine modules a module imports, relatively or as `ifol.<name>`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ifol."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ifol")):
            module = (node.module or "").removeprefix("ifol").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import <module>
                found.update(alias.name for alias in node.names)
    return found


def test_the_tarski_route_and_the_plans_import_nothing_of_each_other():
    """Bealer-Montague compares a concept's extension, taken on the Tarski
    route, with the intension a relational plan gives: two evaluators, kept
    apart so that their agreement is a check."""
    tarski, plan = (_engine_imports(ROOT / "src" / "ifol" / name)
                    for name in ("tarski.py", "plan.py"))
    assert "semantics" in tarski and "syntax" in plan
    assert "plan" not in tarski
    assert "tarski" not in plan


def _names_imported_from(path: Path, module: str) -> list[str]:
    """The names a module imports from the engine module `module`, relatively
    or as `ifol.<module>`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ifol")) \
                and (node.module or "").removeprefix("ifol").lstrip(".") == module:
            found.extend(alias.name for alias in node.names)
    return found


def test_enumeration_plans_and_the_front_end_import_nothing_private_of_semantics():
    """Enumeration, plans, the workspace and the CLI reach worlds through
    the public carrier, `semantics.Worlds`, and the deciding functions: none
    of them imports a name starting with `_` from `ifol.semantics`."""
    imported = {name: _names_imported_from(ROOT / "src" / "ifol" / f"{name}.py", "semantics")
                for name in ("worlds", "plan", "workspace", "cli")}
    assert all(imported.values())
    assert {name: [n for n in names if n.startswith("_")]
            for name, names in imported.items()} == dict.fromkeys(imported, [])


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", text, re.MULTILINE)


# Public names with no caller in the engine, each kept because a test pins the
# claim it states.
KEPT = {
    "accessible": "accessibility for the existential modality is an equivalence",
    "dynamic_soundness": "many-sorted soundness: a term's value has a dynamic "
                         "sort at or below the term's static sort",
    "derived_sort_extent": "sorts are concepts: a relational concept read as a sort",
}


def _public_definitions(path: Path) -> set[str]:
    """Public top-level functions and classes of a module, and their methods."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            found.update(item.name for item in node.body
                         if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return {name for name in found if not name.startswith("_")}


def _references(path: Path) -> Counter:
    """How often each name is read in a module's code, as a bare name or an
    attribute; mentions in strings, docstrings and comments do not count."""
    uses: Counter = Counter()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def test_every_public_name_has_a_caller():
    import ifol

    uses = sum(map(_references, MODULES), Counter())
    defined = set().union(*map(_public_definitions, MODULES))
    uncalled = sorted(name for name in defined
                      if uses[name] == 0 and name not in ifol.__all__)
    assert uncalled == sorted(KEPT)


def test_the_readme_names_every_module():
    """Each engine module, other than the package's `__init__` and
    `__main__`, has an entry in the README's list of moving parts: a line
    `- **name** -- ...`, where one entry may name several (`workspace /
    cli`)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {name.strip() for entry in re.findall(r"^- \*\*(.+?)\*\*", readme, re.MULTILINE)
             for name in entry.split("/")}
    modules = {path.stem for path in MODULES} - {"__init__", "__main__"}
    assert sorted(modules - named) == []
