"""One logic driver, one configuration, one set-at-a-time fixed-point
strategy.

:func:`~repro.logic.eval.define_relation` is a one-shot
:class:`~repro.logic.eval.ModelChecker`, so every entry point runs the same
optimize-then-execute path; the plan and columnar backends run semi-naive fixed
points only, leaving the naive strategy to the tuple oracle.  Every logic
entry point defaults to ``"columnar"``, and the oracles (the tuple checker,
the raw compiled plan, a recompute per row) are built by the tests that
need them, not selected by a production switch.  The AST guards at the
bottom keep it that way.
"""

from __future__ import annotations

import ast
import inspect
from itertools import product
from pathlib import Path

import pytest

import repro
from repro.__main__ import _build_logic_argument_parser
from repro.core.engine import Session
from repro.core.governor import Budget
from repro.logic.eval import ModelChecker, define_relation, evaluate
from repro.logic.formula import rel
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import Changeset, random_alternating_graph

REPRO_ROOT = Path(repro.__file__).resolve().parent
LOGIC_ROOT = REPRO_ROOT / "logic"
PLAN_BACKENDS = ("plan", "columnar")


# ------------------------------------------------------- the naive strategy


@pytest.mark.parametrize("backend", PLAN_BACKENDS)
def test_plan_backends_refuse_the_naive_strategy(backend):
    structure = random_alternating_graph(4, seed=0)
    with pytest.raises(ValueError, match='backend="tuple"'):
        ModelChecker(structure, seminaive=False, backend=backend)
    with pytest.raises(ValueError, match='backend="tuple"'):
        define_relation(rel("E", "x", "y"), structure, ("x", "y"),
                        seminaive=False, backend=backend)


# ------------------------------------------------------------ column layout


@pytest.mark.parametrize("budget", [None, Budget(max_rows_materialized=10**6)])
def test_define_relation_pads_and_reorders_the_layout(budget):
    """``z`` is unconstrained (it ranges over the whole domain) and the
    formula's ``y, x`` come back in the requested ``x, y`` order."""
    structure = random_alternating_graph(5, seed=2)
    expected = frozenset((z, x, y) for z in structure.universe
                         for (y, x) in structure.relation("E"))
    for backend in PLAN_BACKENDS + ("tuple",):
        got = define_relation(rel("E", "y", "x"), structure, ("z", "x", "y"),
                              backend=backend, budget=budget)
        assert got == expected, backend


@pytest.mark.parametrize("backend", PLAN_BACKENDS + ("tuple",))
def test_checker_layout_joins_the_memo_key(backend):
    structure = random_alternating_graph(5, seed=3)
    checker = ModelChecker(structure, backend=backend)
    formula = rel("E", "y", "x")
    assert checker.defined_relation(formula)[0] == ("x", "y")
    assert not checker.memoized(formula, ("z", "x", "y"))
    columns, rows = checker.defined_relation(formula, ("z", "x", "y"))
    assert columns == ("z", "x", "y")
    assert rows == define_relation(formula, structure, ("z", "x", "y"))
    # Only the plan backends memoize whole defined relations.
    assert checker.memoized(formula, ("z", "x", "y")) == (backend != "tuple")
    assert checker.memoized(formula) == (backend != "tuple")


@pytest.mark.parametrize("backend", PLAN_BACKENDS)
def test_padded_entry_survives_updates(backend):
    """Memo entries with a padded and with a reordered layout are each
    maintained (or dropped and recomputed) under their own layout: after
    every insert and delete they match a from-scratch recompute."""
    structure = random_alternating_graph(6, seed=4)
    formula = CANONICAL_QUERIES["tc"].formula()
    layouts = (("z", "v", "u"), ("v", "u"))
    checker = ModelChecker(structure, backend=backend)
    for layout in layouts:
        checker.defined_relation(formula, layout)
    edges = structure.relation("E")
    missing = sorted(set(product(structure.universe, repeat=2)) - edges)
    updates = (Changeset.inserting("E", missing[0]),
               Changeset.deleting("E", min(edges)),
               Changeset.inserting("E", missing[-1]))
    for update in updates:
        assert checker.apply_update(update)
        for layout in layouts:
            columns, rows = checker.defined_relation(formula, layout)
            assert columns == layout
            assert rows == define_relation(formula, structure, layout,
                                           backend="tuple")
    assert sum(checker.ivm_stats.values()) == len(updates) * len(layouts)
    assert checker.ivm_stats.get("closure", 0) >= len(updates)


@pytest.mark.parametrize("backend", PLAN_BACKENDS)
def test_define_relation_reports_degradations_in_order(backend,
                                                       inject_faults):
    """The caller's list receives the events as they happen: the
    optimizer fails, and the raw plan answers exactly on the same
    executor (at dense width the columnar walker also reports each raw-plan
    node it holds as tuples)."""
    from repro.testing.chaos import Fault

    structure = random_alternating_graph(5, seed=5)
    query = CANONICAL_QUERIES["apath"]
    expected = define_relation(query.formula(), structure, query.variables,
                               backend="tuple")
    inject_faults(Fault("optimize.pass.reorder", max_fires=None))
    events: list = []
    got = define_relation(query.formula(), structure, query.variables,
                          backend=backend, degradations=events)
    assert got == expected
    assert [(e.stage, e.fallback) for e in events
            if e.stage != "representation"] == [("optimize", "raw-plan")]
    assert events[0].stage == "optimize"


# --------------------------------------------------------------- AST guards


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg


@pytest.mark.parametrize("module", ["plan.py", "codegen.py", "chunked.py",
                                    "ivm.py"])
def test_set_at_a_time_executors_have_one_strategy(module):
    path = LOGIC_ROOT / module
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "seminaive" not in set(_identifiers(tree))


def _driver_calls(tree: ast.AST):
    """Calls of ``execute_columnar`` or ``ExecutionContext`` under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in ("execute_columnar", "ExecutionContext"):
                yield name


def test_only_the_checker_drives_the_plan_executors():
    path = LOGIC_ROOT / "eval.py"
    module = ast.parse(path.read_text(), filename=str(path))
    inside, outside = [], []
    for node in module.body:
        checker = isinstance(node, ast.ClassDef) and node.name == "ModelChecker"
        (inside if checker else outside).extend(_driver_calls(node))
    assert outside == []
    assert set(inside) == {"execute_columnar", "ExecutionContext"}


# ---------------------------------------------------- one configuration


#: Settable values that existed only for tests and benchmarks; their
#: baselines are now built from the oracles directly.
RETIRED_PARAMETERS = {"memoize", "optimize", "logic_backend"}


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _defaults(function: ast.AST):
    """``(parameter name, default node)`` for every defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    yield from zip((a.arg for a in positional[len(positional)
                                               - len(args.defaults):]),
                   args.defaults)
    yield from ((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def test_no_source_function_defaults_a_backend_to_the_oracle():
    offenders = []
    for path in sorted(REPRO_ROOT.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            for name, default in _defaults(node):
                if name == "backend" and isinstance(default, ast.Constant) \
                        and default.value == "tuple":
                    offenders.append(f"{path.relative_to(REPRO_ROOT)}:"
                                     f"{node.lineno}")
    assert offenders == []


def test_production_modules_read_no_oracle_switch():
    """Outside ``repro/testing`` no module passes ``memoize=`` or
    ``optimize=`` or reads a ``.memoize`` / ``.optimize`` attribute."""
    offenders = []
    for path in sorted(REPRO_ROOT.rglob("*.py")):
        relative = path.relative_to(REPRO_ROOT)
        if relative.parts[0] == "testing":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.keyword) and \
                    node.arg in ("memoize", "optimize"):
                offenders.append(f"{relative}:{node.lineno} {node.arg}=")
            elif isinstance(node, ast.Attribute) and \
                    node.attr in ("memoize", "optimize"):
                offenders.append(f"{relative}:{node.lineno} .{node.attr}")
    assert offenders == []


def _constructs_degradation(node: ast.AST, stage: str) -> bool:
    """Whether ``node`` is a ``DegradationEvent(stage, ...)`` call (the
    stage given positionally or by keyword)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    if name != "DegradationEvent":
        return False
    given = node.args[0] if node.args else next(
        (k.value for k in node.keywords if k.arg == "stage"), None)
    return isinstance(given, ast.Constant) and given.value == stage


def test_no_executor_falls_back_to_another():
    """Nothing below a plan backend's executor: no ``_TupleFallback``
    signal and no ``DegradationEvent("plan", ...)`` or
    ``DegradationEvent("columnar", ...)`` anywhere in the library — an
    executor fault is one typed error."""
    offenders = []
    for path in sorted(REPRO_ROOT.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            named = getattr(node, "name", None) or getattr(node, "id", None)
            if named == "_TupleFallback" or any(
                    _constructs_degradation(node, stage)
                    for stage in ("plan", "columnar")):
                offenders.append(f"{path.relative_to(REPRO_ROOT)}:"
                                 f"{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("entry", [ModelChecker, evaluate, define_relation,
                                   Session, Session.define_relation],
                         ids=lambda entry: entry.__qualname__)
def test_entry_points_accept_no_retired_parameter(entry):
    parameters = set(inspect.signature(entry).parameters)
    assert parameters & RETIRED_PARAMETERS == set()
    if "backend" in parameters and entry is not Session:
        default = inspect.signature(entry).parameters["backend"].default
        assert default == "columnar"


def test_every_logic_default_is_columnar():
    """The CLI and a bare checker default to columnar (``Session``'s
    derivation is pinned in ``test_plan.py``)."""
    parser = _build_logic_argument_parser()
    assert parser.parse_args(["tc"]).backend == "columnar"
    assert "--no-optimize" not in parser.format_help()
    structure = random_alternating_graph(4, seed=6)
    assert ModelChecker(structure).backend == "columnar"
    with pytest.raises(TypeError):
        Session(logic_backend="columnar")
