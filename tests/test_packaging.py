"""The engine stays stdlib-only: no third-party import, no declared dependency."""

from __future__ import annotations

import ast
import re
import sys
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


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", text, re.MULTILINE)
