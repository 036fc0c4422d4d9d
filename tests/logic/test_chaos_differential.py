"""The chaos differential suite (PR 6 acceptance).

Under every injected fault — a raise, a delay, or corrupt-on-purpose
data at any registered injection point — the engine must either return
the **correct** answer or raise a clean typed error.  Never a wrong
answer; never a corrupted index or session.  Both plan backends have one
rung: a fault *optimizing* sends the raw plan to the same executor and
the answer stays exact; a fault *executing* (only the plan interpreter
has injection points inside it) ends the query as one
:class:`~repro.core.errors.SRLRuntimeError` chained to its cause.

The tier-1 tests sweep every point x action over canonical queries; the
``slow``-marked sweep (the nightly chaos job) crosses the full registry
with the seeded random-formula corpus.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ResourceLimitExceeded, SRLRuntimeError
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import random_alternating_graph
from repro.testing.chaos import INJECTION_POINTS, ChaosError, Fault
from test_plan_differential import FREE_VARIABLES, FormulaGenerator

#: Queries that between them exercise joins, LFP fixpoints, TC closures,
#: the full optimizer pipeline and the checker's memo stores.
CHAOS_QUERIES = ("tc", "apath")


#: The injection points inside the plan interpreter.  Nothing retries
#: below the executor, so a fault there may end a ``plan``-backend query,
#: but only as the one typed error.
EXECUTION_POINTS = ("relalg.join.probe", "plan.fixpoint.round")


def _oracle(name, structure):
    query = CANONICAL_QUERIES[name]
    return define_relation(query.formula(), structure, query.variables,
                           backend="tuple")


def _assert_execution_fault(error, action):
    """``error`` is the typed execution failure, chained to the injected
    fault or to the validation error its corrupt payload tripped."""
    assert type(error) is SRLRuntimeError, repr(error)
    cause = (ChaosError,) if action == "raise" else (ValueError, IndexError)
    assert isinstance(error.__cause__, cause), repr(error.__cause__)


def _answer_under_fault(policy, point, action, backend, formula, structure,
                        variables):
    """``define_relation``'s answer under the armed fault, or ``None`` when
    an execution fault on the ``plan`` backend ended the query as the typed
    error.  Any other exception propagates and fails the test, and so does
    an execution fault that fired without ending the query."""
    executing = backend == "plan" and point in EXECUTION_POINTS
    try:
        got = define_relation(formula, structure, variables, backend=backend)
    except SRLRuntimeError as error:
        if not executing:
            raise
        _assert_execution_fault(error, action)
        return None
    assert not (executing and action != "delay" and policy.fired), \
        f"{point}/{action} fired but the query answered"
    return got


# ------------------------------------------------------------- the sweep


@pytest.mark.parametrize("backend", ["plan", "columnar"])
@pytest.mark.parametrize("action", ["raise", "corrupt"])
@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_single_fault_never_changes_the_answer(point, action, backend,
                                               inject_faults):
    """One fault per run (the realistic case: one component hiccups once):
    the correct answer, or the typed error for an execution fault."""
    structure = random_alternating_graph(5, seed=3)
    for name in CHAOS_QUERIES:
        query = CANONICAL_QUERIES[name]
        expected = _oracle(name, structure)
        policy = inject_faults(Fault(point, action=action))
        got = _answer_under_fault(policy, point, action, backend,
                                  query.formula(), structure, query.variables)
        assert got in (None, expected), \
            f"fault at {point}/{action} changed {name}"


@pytest.mark.parametrize("backend", ["plan", "columnar"])
@pytest.mark.parametrize("action", ["raise", "corrupt"])
@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_persistent_fault_never_changes_the_answer(point, action, backend,
                                                   inject_faults):
    """A fault that fires on *every* pass through its site (a hard-down
    component).  A hard-down optimizer pass still leaves the raw plan on
    the same executor, which must agree with the tuple oracle; a hard-down
    interpreter seam ends the query as the typed error."""
    structure = random_alternating_graph(5, seed=4)
    for name in CHAOS_QUERIES:
        query = CANONICAL_QUERIES[name]
        expected = _oracle(name, structure)
        policy = inject_faults(Fault(point, action=action, max_fires=None))
        got = _answer_under_fault(policy, point, action, backend,
                                  query.formula(), structure, query.variables)
        assert got in (None, expected), \
            f"fault at {point}/{action} changed {name}"


def test_the_sweep_actually_fires_every_point(inject_faults):
    """Coverage honesty: each registered point must trigger for at least
    one of the sweep queries, else the suite above proves nothing about
    that seam.  (``engine.memo.store`` only exists on the memoizing
    checker path, so the probe runs through :class:`ModelChecker`.)"""
    structure = random_alternating_graph(5, seed=3)
    for point in INJECTION_POINTS:
        fired_anywhere = False
        if point.startswith("service."):
            # The service points live in the query-service layer, not the
            # evaluation path: probe each at its own seam (P10).
            policy = inject_faults(Fault(point, max_fires=None))
            if point == "service.worker.crash":
                from repro.service.worker import Worker

                with pytest.raises(ChaosError):
                    Worker().handle({"op": "query", "structure": "g",
                                     "query": "tc"})
            elif point == "service.net.drop":
                from repro.core.errors import ProtocolError
                from repro.service.protocol import encode_frame

                with pytest.raises(ProtocolError):
                    encode_frame({"op": "ping"})
            else:  # service.queue.overflow
                from repro.core.errors import Overloaded
                from repro.service.admission import AdmissionController

                with pytest.raises(Overloaded):
                    with AdmissionController().slot():
                        pass
            fired_anywhere = bool(policy.fired)
        elif point.startswith("ivm."):
            # The maintenance points only exist on the update path: memoize
            # TC over a path, then delete a middle edge (a real over-delete,
            # so the DRed points both run).
            from repro.structures import Changeset, path_graph

            policy = inject_faults(Fault(point, max_fires=None))
            checker = ModelChecker(path_graph(5), backend="plan")
            checker.defined_relation(CANONICAL_QUERIES["tc"].formula())
            checker.apply_update(Changeset.deleting("E", (1, 2)))
            fired_anywhere = bool(policy.fired)
        else:
            for name in CHAOS_QUERIES:
                query = CANONICAL_QUERIES[name]
                policy = inject_faults(Fault(point, max_fires=None))
                checker = ModelChecker(structure, backend="plan")
                try:
                    checker.evaluate(query.formula(),
                                     dict.fromkeys(query.variables, 0))
                except SRLRuntimeError as error:
                    assert point in EXECUTION_POINTS, repr(error)
                fired_anywhere = fired_anywhere or bool(policy.fired)
        assert fired_anywhere, f"no sweep query reaches {point}"


# ------------------------------------------------------ fault by fault


def test_optimizer_crash_falls_back_to_the_raw_plan(inject_faults):
    structure = random_alternating_graph(6, seed=0)
    expected = _oracle("tc", structure)
    inject_faults(Fault("optimize.pass.reorder"))
    checker = ModelChecker(structure, backend="plan")
    query = CANONICAL_QUERIES["tc"]
    assert {row for row in expected
            if checker.evaluate(query.formula(),
                                dict(zip(query.variables, row)))} == expected
    # The raw plan answered on the same executor, once (then memoized).
    assert [(e.stage, e.fallback) for e in checker.degradations] == \
        [("optimize", "raw-plan")]


def test_corrupt_optimizer_output_is_caught_by_the_invariant(inject_faults):
    """A pass that silently rewrites the plan to the wrong shape must be
    caught by the optimizer's output-columns invariant, not returned."""
    structure = random_alternating_graph(5, seed=1)
    expected = _oracle("tc", structure)
    inject_faults(Fault("optimize.pass.prune", action="corrupt"))
    got = define_relation(CANONICAL_QUERIES["tc"].formula(), structure,
                          ("u", "v"), backend="plan")
    assert got == expected


def test_plan_executor_fault_is_a_typed_error(inject_faults):
    """The interpreter has no rung below it: a fault executing is one
    :class:`SRLRuntimeError` chained to the fault, nothing is cached, and
    the checker answers correctly once the fault is gone."""
    from repro.testing.chaos import uninstall_policy

    structure = random_alternating_graph(5, seed=2)
    query = CANONICAL_QUERIES["apath"]
    expected = _oracle("apath", structure)
    inject_faults(Fault("plan.fixpoint.round", max_fires=None))
    checker = ModelChecker(structure, backend="plan")
    with pytest.raises(SRLRuntimeError, match="plan execution failed") as info:
        checker.defined_relation(query.formula(), query.variables)
    _assert_execution_fault(info.value, "raise")
    assert checker.degradations == []
    assert not checker.memoized(query.formula(), query.variables)
    uninstall_policy()
    assert checker.defined_relation(query.formula(), query.variables) == \
        (query.variables, expected)


def test_corrupt_probe_relation_is_caught_by_the_index_build(inject_faults):
    """The corrupt payload at ``relalg.join.probe`` (an empty row smuggled
    into the probe side) must break the index build loudly, never join
    silently."""
    structure = random_alternating_graph(6, seed=5)
    inject_faults(Fault("relalg.join.probe", action="corrupt"))
    with pytest.raises(SRLRuntimeError) as info:
        define_relation(CANONICAL_QUERIES["apath"].formula(), structure,
                        ("u", "v"), backend="plan")
    assert type(info.value.__cause__) is IndexError


def test_corrupt_memo_store_is_skipped_not_cached(inject_faults):
    structure = random_alternating_graph(5, seed=6)
    query = CANONICAL_QUERIES["tc"]
    expected = _oracle("tc", structure)
    inject_faults(Fault("engine.memo.store", action="corrupt"))
    checker = ModelChecker(structure, backend="plan")
    assignment = dict(zip(query.variables, (0, structure.size - 1)))
    first = checker.evaluate(query.formula(), assignment)
    assert ("memo", "no-memo") in \
        {(e.stage, e.fallback) for e in checker.degradations}
    # The poisoned entry was dropped, so the re-evaluation recomputes —
    # and agrees with both the first answer and the oracle.
    second = checker.evaluate(query.formula(), assignment)
    assert first == second == (tuple(assignment.values()) in expected)


def test_chaos_errors_surface_when_there_is_no_ladder(inject_faults):
    """Outside the checker (a raw ``Plan.execute`` call), an injected
    fault surfaces as itself — not silence, not a wrong answer."""
    from repro.logic.compile import compile_formula
    from repro.logic.plan import ExecutionContext

    structure = random_alternating_graph(5, seed=7)
    plan = compile_formula(CANONICAL_QUERIES["apath"].formula(), ("u", "v"))
    inject_faults(Fault("plan.fixpoint.round"))
    with pytest.raises(ChaosError):
        plan.execute(ExecutionContext(structure))


def test_session_survives_a_chaotic_query_intact(inject_faults):
    """Never a corrupted session: after a chaos-ridden run, the same
    checker with chaos disarmed still answers from-scratch correctly."""
    from repro.testing.chaos import uninstall_policy

    structure = random_alternating_graph(6, seed=8)
    query = CANONICAL_QUERIES["tc"]
    expected = _oracle("tc", structure)
    checker = ModelChecker(structure, backend="plan")
    inject_faults(Fault("*", max_fires=None))
    assignment = dict(zip(query.variables, (0, structure.size - 1)))
    chaotic = checker.evaluate(query.formula(), assignment)
    uninstall_policy()
    clean = checker.evaluate(query.formula(), assignment)
    assert chaotic == clean == (tuple(assignment.values()) in expected)


# ---------------------------------------------------- nightly full sweep


@pytest.mark.slow
@pytest.mark.parametrize("action", ["raise", "corrupt", "delay"])
@pytest.mark.parametrize("point", INJECTION_POINTS)
@pytest.mark.parametrize("seed", range(10))
def test_generated_formulas_survive_every_fault(point, action, seed,
                                                inject_faults):
    """The nightly corpus: seeded random formulas (every constructor the
    differential generator covers) x every injection point x every
    action, single-shot and persistent.  Zero wrong answers allowed;
    an execution fault may end the query only as the typed error."""
    generator = FormulaGenerator(seed)
    formula = generator.formula(depth=3, scope=FREE_VARIABLES)
    structure = random_alternating_graph(4, seed=seed)
    expected = define_relation(formula, structure, FREE_VARIABLES,
                               backend="tuple")
    for max_fires in (1, None):
        policy = inject_faults(Fault(point, action=action, delay_seconds=0.001,
                                     max_fires=max_fires), seed=seed)
        try:
            got = _answer_under_fault(policy, point, action, "plan", formula,
                                      structure, FREE_VARIABLES)
        except ResourceLimitExceeded:
            pytest.fail("no budget was set: nothing may raise a limit")
        assert got in (None, expected), \
            f"seed={seed} {point}/{action} max_fires={max_fires}:\n{formula}"
