"""Budget-bounded differential suite (PR 6).

The governance contract, stated as a differential property: a
budget-bounded run either produces **exactly** the unbounded answer, or
raises a clean :class:`ResourceLimitExceeded` carrying partial stats —
and in the latter case the session/checker is restored to its pre-query
state, proven by re-running the same query unbounded *in the same
session* and getting the right answer.
"""

from __future__ import annotations

import pytest

from repro.core import Session
from repro.core.errors import (
    DeadlineExceeded,
    EvaluationCancelled,
    FixpointRoundLimitExceeded,
    MemoLimitExceeded,
    ResourceLimitExceeded,
    RowLimitExceeded,
)
from repro.core.governor import Budget, CancelToken
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.plan import PlanStats
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import random_alternating_graph

from test_plan_differential import FREE_VARIABLES, FormulaGenerator, GENERATOR_SEEDS

#: Generous enough that nothing trips: governed must equal ungoverned.
GENEROUS = Budget(deadline_seconds=300.0, max_rows_materialized=10**9,
                  max_fixpoint_rounds=10**6, max_memo_entries=10**6)

#: Tight enough that realistic queries trip at least one cap.
TIGHT = Budget(max_rows_materialized=8, max_fixpoint_rounds=1)


# ----------------------------------------------------- bounded == unbounded


@pytest.mark.parametrize("name", sorted(CANONICAL_QUERIES))
@pytest.mark.parametrize("backend", ["plan", "tuple"])
def test_canonical_queries_unchanged_under_a_generous_budget(name, backend):
    query = CANONICAL_QUERIES[name]
    structure = random_alternating_graph(6, seed=2)
    formula = query.formula()
    unbounded = define_relation(formula, structure, query.variables,
                                backend=backend)
    bounded = define_relation(formula, structure, query.variables,
                              backend=backend, budget=GENEROUS)
    assert bounded == unbounded


@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_generated_formulas_bounded_or_clean_error(seed):
    """The acceptance property over the 120-instance generator corpus
    (40 seeds x 3 sizes, same corpus as the plan differential suite):
    under a tight budget the plan backend either agrees exactly with the
    unbounded run or raises ResourceLimitExceeded — and afterwards the
    unbounded answer is still reachable (nothing was corrupted)."""
    generator = FormulaGenerator(seed)
    formula = generator.formula(depth=3, scope=FREE_VARIABLES)
    for size in (3, 4, 5):
        structure = random_alternating_graph(size, seed=seed)
        oracle = define_relation(formula, structure, FREE_VARIABLES,
                                 backend="plan")
        stats = PlanStats()
        try:
            bounded = define_relation(formula, structure, FREE_VARIABLES,
                                      backend="plan", budget=TIGHT,
                                      stats=stats)
        except ResourceLimitExceeded as error:
            # Partial progress must ride on the error.
            assert error.stats is stats
        else:
            assert bounded == oracle, f"budget changed the answer, seed={seed}"
        # Never a corrupted engine: the unbounded re-run still agrees.
        assert define_relation(formula, structure, FREE_VARIABLES,
                               backend="plan") == oracle


# ------------------------------------------------------------ which limits


def _tc_structure(size: int = 24):
    return random_alternating_graph(size, edge_probability=0.2, seed=5)


def test_row_limit_trips_on_a_real_query():
    formula = CANONICAL_QUERIES["tc"].formula()
    with pytest.raises(RowLimitExceeded) as info:
        define_relation(formula, _tc_structure(), ("u", "v"), backend="plan",
                        budget=Budget(max_rows_materialized=3))
    assert info.value.resource == "rows_materialized"


def test_round_limit_trips_on_a_deep_fixpoint():
    # A path graph needs one closure round per hop.
    from repro.structures import path_graph
    formula = CANONICAL_QUERIES["tc"].formula()
    with pytest.raises(FixpointRoundLimitExceeded):
        define_relation(formula, path_graph(32), ("u", "v"), backend="plan",
                        budget=Budget(max_fixpoint_rounds=1))


def test_deadline_trips_mid_query():
    formula = CANONICAL_QUERIES["apath"].formula()
    with pytest.raises(DeadlineExceeded):
        define_relation(formula, _tc_structure(40), ("u", "v"),
                        backend="plan",
                        budget=Budget(deadline_seconds=0.0,
                                      check_interval=1))


def test_pre_cancelled_token_stops_both_backends():
    token = CancelToken()
    token.cancel()
    budget = Budget(cancel_token=token, check_interval=1)
    formula = CANONICAL_QUERIES["tc"].formula()
    structure = _tc_structure(8)
    for backend in ("plan", "tuple"):
        with pytest.raises(EvaluationCancelled):
            define_relation(formula, structure, ("u", "v"),
                            backend=backend, budget=budget)


def test_memo_limit_trips_through_the_checker():
    checker = ModelChecker(_tc_structure(8), backend="tuple",
                           budget=Budget(max_memo_entries=0))
    with pytest.raises(MemoLimitExceeded):
        checker.evaluate(CANONICAL_QUERIES["tc"].formula(),
                         {"u": 0, "v": 1})


def test_domain_product_is_refused_before_materializing():
    """check_rows_ahead: the n^k enumeration is refused up front, not
    after allocating it."""
    from repro.logic.formula import TrueFormula
    structure = random_alternating_graph(64, seed=1)
    with pytest.raises(RowLimitExceeded):
        define_relation(TrueFormula(), structure, ("u", "v"), backend="plan",
                        budget=Budget(max_rows_materialized=100))


# -------------------------------------------------- restore on exception


def test_checker_state_is_restored_after_a_budget_abort():
    structure = _tc_structure(16)
    checker = ModelChecker(structure, backend="plan",
                           budget=Budget(max_rows_materialized=3))
    aux_before = dict(checker.auxiliary)
    cache_before = set(checker._fixpoint_cache)
    with pytest.raises(ResourceLimitExceeded):
        checker.evaluate(CANONICAL_QUERIES["tc"].formula(), {"u": 0, "v": 1})
    assert checker.auxiliary == aux_before
    assert set(checker._fixpoint_cache) == cache_before


def test_same_checker_answers_correctly_after_an_abort():
    structure = _tc_structure(12)
    formula = CANONICAL_QUERIES["tc"].formula()
    oracle = ModelChecker(structure, backend="tuple").evaluate(
        formula, {"u": 0, "v": 1})
    token = CancelToken()
    checker = ModelChecker(structure, backend="plan",
                           budget=Budget(cancel_token=token,
                                         check_interval=1))
    token.cancel()
    with pytest.raises(EvaluationCancelled):
        checker.evaluate(formula, {"u": 0, "v": 1})
    # Un-cancel by replacing the budget: the same checker, warm or not,
    # must now produce the oracle answer.
    checker.budget = None
    assert checker.evaluate(formula, {"u": 0, "v": 1}) == oracle


# ----------------------------------------------------------- session level


def test_session_budget_threads_into_the_logic_facade():
    session = Session(budget=Budget(max_rows_materialized=3))
    structure = _tc_structure(16)
    with pytest.raises(RowLimitExceeded):
        session.define_relation(CANONICAL_QUERIES["tc"].formula(),
                                structure, ("u", "v"))


def test_session_budget_threads_into_evaluate_formula():
    token = CancelToken()
    token.cancel()
    session = Session(budget=Budget(cancel_token=token, check_interval=1))
    with pytest.raises(EvaluationCancelled):
        session.evaluate_formula(CANONICAL_QUERIES["tc"].formula(),
                                 _tc_structure(8), {"u": 0, "v": 1})


def test_session_run_respects_the_deadline():
    """The budget governs the SRL execution backends too, not just the
    logic layer."""
    from repro.core import parse_program
    from repro.core.engine import database_from_json

    program = parse_program(
        "(set-reduce S (lambda (x e) x) (lambda (a r) (insert a r))"
        " emptyset emptyset)"
    )
    database = database_from_json({"S": list(range(50))})
    for backend in ("compiled", "interp"):
        session = Session(program, backend=backend,
                          budget=Budget(deadline_seconds=0.0,
                                        check_interval=1))
        with pytest.raises(DeadlineExceeded):
            session.run(database)


def test_session_stays_usable_after_resource_abort():
    structure = _tc_structure(12)
    formula = CANONICAL_QUERIES["tc"].formula()
    oracle = define_relation(formula, structure, ("u", "v"), backend="tuple")
    session = Session(budget=Budget(max_rows_materialized=3))
    with pytest.raises(RowLimitExceeded):
        session.define_relation(formula, structure, ("u", "v"))
    session.budget = None
    assert session.define_relation(formula, structure, ("u", "v")) == oracle
