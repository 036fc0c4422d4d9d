"""Reference code stays off the production paths: the pure oracles in
:mod:`repro.core.reference` are test oracles only, and the tree-walking
interpreter runs only where the engine is asked for it by backend name."""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ORACLE = "repro.core.reference"
INTERPRETER = "repro.core.evaluator.Evaluator"
#: The one module that runs the interpreter, and the package re-export.
INTERPRETER_USERS = {"repro.core.engine", "repro.core"}
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


def test_only_the_engine_imports_the_interpreter():
    offenders = [
        str(path.relative_to(SOURCE_ROOT.parent))
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        if _module_name(path) not in INTERPRETER_USERS
        and {INTERPRETER, "repro.core.Evaluator"} & set(_imported_modules(path))
    ]
    assert offenders == []


def _backend_defaults(path: Path):
    """``(function name, default)`` for every ``backend`` parameter with a
    literal default in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        pairs = list(zip(positional[len(positional) - len(arguments.defaults):],
                         arguments.defaults))
        pairs += zip(arguments.kwonlyargs, arguments.kw_defaults)
        for arg, default in pairs:
            if arg.arg == "backend" and isinstance(default, ast.Constant):
                yield node.name, default.value


def test_no_entry_point_defaults_to_the_interpreter():
    offenders = [
        f"{path.relative_to(SOURCE_ROOT.parent)}:{name}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for name, default in _backend_defaults(path)
        if default == "interp"
    ]
    assert offenders == []
