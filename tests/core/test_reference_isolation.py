"""The pure oracles in :mod:`repro.core.reference` are test oracles only:
no production module may import them."""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ORACLE = "repro.core.reference"
SOURCE_ROOT = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path: Path):
    """Every module ``path`` imports, relative imports resolved, with
    ``from package import name`` also yielding ``package.name``."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_resolver_sees_relative_imports():
    core = SOURCE_ROOT / "core"
    assert "repro.core.values.SRLSet" in set(_imported_modules(core / "reference.py"))
    assert "repro.core.errors" in set(_imported_modules(core / "values.py"))


def test_production_code_never_imports_the_oracles():
    offenders = [
        str(path.relative_to(SOURCE_ROOT.parent))
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        if _module_name(path) != ORACLE
        and any(module == ORACLE or module.startswith(ORACLE + ".")
                for module in _imported_modules(path))
    ]
    assert offenders == []
