"""The chaos differential suite (PR 6 acceptance).

Under every injected fault — a raise, a delay, or corrupt-on-purpose
data at any registered injection point — the engine must either return
the **correct** answer (via the degradation ladder) or raise a clean
typed error.  Never a wrong answer; never a corrupted index or session.
The ``plan`` backend's ladder is optimized plan -> raw plan -> tuple
oracle.  The ``columnar`` backend has one rung: a fault optimizing sends
the raw plan to the same columnar walker, which covers every plan and
never hands the query to the plan interpreter.

The tier-1 tests sweep every point x action over canonical queries; the
``slow``-marked sweep (the nightly chaos job) crosses the full registry
with the seeded random-formula corpus.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ResourceLimitExceeded
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import random_alternating_graph
from repro.testing.chaos import INJECTION_POINTS, ChaosError, Fault
from test_plan_differential import FREE_VARIABLES, FormulaGenerator

#: Queries that between them exercise joins, LFP fixpoints, TC closures,
#: the full optimizer pipeline and the checker's memo stores.
CHAOS_QUERIES = ("tc", "apath")


def _oracle(name, structure):
    query = CANONICAL_QUERIES[name]
    return define_relation(query.formula(), structure, query.variables,
                           backend="tuple")


# ------------------------------------------------------------- the sweep


@pytest.mark.parametrize("backend", ["plan", "columnar"])
@pytest.mark.parametrize("action", ["raise", "corrupt"])
@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_single_fault_never_changes_the_answer(point, action, backend,
                                               inject_faults):
    """One fault per run (the realistic case: one component hiccups once);
    the ladder's retry must land on the correct answer."""
    structure = random_alternating_graph(5, seed=3)
    for name in CHAOS_QUERIES:
        query = CANONICAL_QUERIES[name]
        expected = _oracle(name, structure)
        inject_faults(Fault(point, action=action))
        got = define_relation(query.formula(), structure, query.variables,
                              backend=backend)
        assert got == expected, f"fault at {point}/{action} changed {name}"


@pytest.mark.parametrize("backend", ["plan", "columnar"])
@pytest.mark.parametrize("action", ["raise", "corrupt"])
@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_persistent_fault_never_changes_the_answer(point, action, backend,
                                                   inject_faults):
    """A fault that fires on *every* pass through its site (a hard-down
    component).  The plan backend's ladder must still bottom out on the
    tuple oracle — which shares none of the plan backend's injection
    points — and the columnar walker on the raw plan, and agree."""
    structure = random_alternating_graph(5, seed=4)
    for name in CHAOS_QUERIES:
        query = CANONICAL_QUERIES[name]
        expected = _oracle(name, structure)
        inject_faults(Fault(point, action=action, max_fires=None))
        got = define_relation(query.formula(), structure, query.variables,
                              backend=backend)
        assert got == expected, f"fault at {point}/{action} changed {name}"


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
            # evaluation ladder: probe each at its own seam (P10).
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
                checker.evaluate(query.formula(),
                                 dict.fromkeys(query.variables, 0))
                fired_anywhere = fired_anywhere or bool(policy.fired)
        assert fired_anywhere, f"no sweep query reaches {point}"


# ------------------------------------------------- ladder rung by rung


def test_optimizer_crash_falls_back_to_the_raw_plan(inject_faults):
    structure = random_alternating_graph(6, seed=0)
    expected = _oracle("tc", structure)
    inject_faults(Fault("optimize.pass.reorder"))
    checker = ModelChecker(structure, backend="plan")
    query = CANONICAL_QUERIES["tc"]
    assert {row for row in expected
            if checker.evaluate(query.formula(),
                                dict(zip(query.variables, row)))} == expected
    stages = [(e.stage, e.fallback) for e in checker.degradations]
    assert ("optimize", "raw-plan") in stages
    # The raw plan answered: no further rung was dropped.
    assert ("plan", "tuple") not in stages


def test_corrupt_optimizer_output_is_caught_by_the_invariant(inject_faults):
    """A pass that silently rewrites the plan to the wrong shape must be
    caught by the optimizer's output-columns invariant, not returned."""
    structure = random_alternating_graph(5, seed=1)
    expected = _oracle("tc", structure)
    inject_faults(Fault("optimize.pass.prune", action="corrupt"))
    got = define_relation(CANONICAL_QUERIES["tc"].formula(), structure,
                          ("u", "v"), backend="plan")
    assert got == expected


def test_plan_crash_falls_back_to_the_tuple_oracle(inject_faults):
    structure = random_alternating_graph(5, seed=2)
    query = CANONICAL_QUERIES["apath"]
    expected = _oracle("apath", structure)
    # Both plan rungs die (the fault persists); only the oracle is left.
    inject_faults(Fault("plan.fixpoint.round", max_fires=None))
    checker = ModelChecker(structure, backend="plan")
    got = {row for row in
           ((u, v) for u in structure.universe for v in structure.universe)
           if checker.evaluate(query.formula(), dict(zip(query.variables, row)))}
    assert got == expected
    assert ("plan", "tuple") in \
        {(e.stage, e.fallback) for e in checker.degradations}


def test_corrupt_probe_relation_is_caught_by_the_index_build(inject_faults):
    """The corrupt payload at ``relalg.join.probe`` (an empty row smuggled
    into the probe side) must break the index build loudly, never join
    silently."""
    structure = random_alternating_graph(6, seed=5)
    expected = _oracle("apath", structure)
    inject_faults(Fault("relalg.join.probe", action="corrupt"))
    got = define_relation(CANONICAL_QUERIES["apath"].formula(), structure,
                          ("u", "v"), backend="plan")
    assert got == expected


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
    """Outside the ladder (a raw kernel call, no fallback), an injected
    fault is a clean typed error — not silence, not a wrong answer."""
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
    action, single-shot and persistent.  Zero wrong answers allowed."""
    generator = FormulaGenerator(seed)
    formula = generator.formula(depth=3, scope=FREE_VARIABLES)
    structure = random_alternating_graph(4, seed=seed)
    expected = define_relation(formula, structure, FREE_VARIABLES,
                               backend="tuple")
    for max_fires in (1, None):
        inject_faults(Fault(point, action=action, delay_seconds=0.001,
                            max_fires=max_fires), seed=seed)
        try:
            got = define_relation(formula, structure, FREE_VARIABLES,
                                  backend="plan")
        except ResourceLimitExceeded:
            pytest.fail("no budget was set: nothing may raise a limit")
        assert got == expected, \
            f"seed={seed} {point}/{action} max_fires={max_fires}:\n{formula}"
