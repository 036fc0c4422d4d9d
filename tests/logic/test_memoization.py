"""Tests for the tuple checker's fixed-point/closure memoization and the
mutate-and-restore quantifier evaluation (perf overhaul, see DESIGN.md).

The memoized checker must be *observationally identical* to the seed's
recompute-every-time behaviour — a fresh ``evaluate(..., backend="tuple")``
per row, so no closure is shared between rows — including when the
auxiliary interpretations in scope change between evaluations of the same
formula object.
"""

from __future__ import annotations

import pytest

from repro.logic.eval import ModelChecker, define_relation, evaluate
from repro.logic.formula import (
    LFPAtom,
    TCAtom,
    and_,
    aux,
    count_at_least,
    eq,
    exists,
    forall,
    or_,
    rel,
    var,
)
from repro.logic.queries import gap_formula, reachability_dtc, reachability_tc
from repro.queries.transitive_closure import transitive_closure_baseline
from repro.structures import path_graph, random_graph


def _tc_with_free_endpoints() -> TCAtom:
    return TCAtom(("x",), ("y",), rel("E", "x", "y"), (var("u"),), (var("v"),))


def _lfp_reach_with_free_endpoints() -> LFPAtom:
    body = or_(
        eq("x", "y"),
        exists("z", and_(rel("E", "x", "z"), aux("R", "z", "y"))),
    )
    return LFPAtom("R", ("x", "y"), body, (var("u"), var("v")))


def _recomputed(formula, g) -> frozenset:
    """The defined relation over ``(u, v)``, one fresh tuple checker per
    row (the recompute-every-time oracle)."""
    return frozenset(
        (u, v) for u in g.universe for v in g.universe
        if evaluate(formula, g, {"u": u, "v": v}, backend="tuple"))


class TestMemoizedFixedPointsAgree:
    @pytest.mark.parametrize("seed", range(4))
    def test_tc_define_relation_matches_unmemoized_and_baseline(self, seed):
        g = random_graph(6, seed=seed)
        formula = _tc_with_free_endpoints()
        memoized = define_relation(formula, g, ("u", "v"), backend="tuple")
        assert memoized == _recomputed(formula, g)
        assert memoized == transitive_closure_baseline(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_lfp_define_relation_matches_unmemoized(self, seed):
        g = random_graph(5, seed=seed)
        formula = _lfp_reach_with_free_endpoints()
        memoized = define_relation(formula, g, ("u", "v"), backend="tuple")
        assert memoized == _recomputed(formula, g)
        # The GAP fixed point *is* reflexive transitive reachability.
        assert memoized == transitive_closure_baseline(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_sentences_agree_between_modes(self, seed):
        g = random_graph(6, seed=seed)
        for sentence in (gap_formula(), reachability_tc(), reachability_dtc()):
            checker = ModelChecker(g, backend="tuple")
            assert (
                checker.evaluate(sentence)
                == checker.evaluate(sentence)  # answered from the memo
                == evaluate(sentence, g, backend="tuple")
                == evaluate(sentence, g)
            )

    def test_repeated_evaluations_hit_the_cache(self):
        g = random_graph(6, seed=1)
        checker = ModelChecker(g, backend="tuple")
        formula = _tc_with_free_endpoints()
        first = {(u, v)
                 for u in g.universe for v in g.universe
                 if checker.evaluate(formula, {"u": u, "v": v})}
        # One cache entry for the TC closure, reused across all n^2 queries.
        assert len(checker._fixpoint_cache) == 1
        assert first == set(transitive_closure_baseline(g))


class TestMemoKeyedOnAuxiliarySnapshot:
    def test_same_formula_different_auxiliary_is_not_conflated(self):
        g = path_graph(4)
        # LFP over a body that reads the ambient auxiliary relation EXTRA:
        # the fixed point is the reflexive closure of EXTRA's reachability.
        body = or_(
            eq("x", "y"),
            exists("z", and_(aux("EXTRA", "x", "z"), aux("R", "z", "y"))),
        )
        formula = LFPAtom("R", ("x", "y"), body, (var("u"), var("v")))

        checker = ModelChecker(g, {"EXTRA": frozenset({(0, 1)})},
                               backend="tuple")
        assert checker.evaluate(formula, {"u": 0, "v": 1})
        assert not checker.evaluate(formula, {"u": 1, "v": 2})

        # Mutating the auxiliary in place must produce fresh results, not
        # stale cache hits for the same formula object.
        checker.auxiliary["EXTRA"] = frozenset({(1, 2)})
        assert checker.evaluate(formula, {"u": 1, "v": 2})
        assert not checker.evaluate(formula, {"u": 0, "v": 1})

    def test_stage_relation_is_restored_after_lfp(self):
        g = path_graph(3)
        outer = frozenset({(2, 0)})
        checker = ModelChecker(g, {"R": outer}, backend="tuple")
        formula = _lfp_reach_with_free_endpoints()  # binds R internally
        assert checker.evaluate(formula, {"u": 0, "v": 2})
        # The LFP iteration shadowed R via mutate-and-restore; the caller's
        # interpretation must survive.
        assert checker.auxiliary["R"] == outer


class TestQuantifierMutateAndRestore:
    def test_caller_assignment_is_not_mutated(self):
        g = path_graph(4)
        checker = ModelChecker(g, backend="tuple")
        assignment = {"x": 0}
        sentence = exists("y", rel("E", "x", "y"))
        assert checker.evaluate(sentence, assignment)
        assert assignment == {"x": 0}

    def test_shadowed_variable_is_restored(self):
        g = path_graph(4)
        checker = ModelChecker(g, backend="tuple")
        # The inner exists shadows x; after it finishes, the outer binding
        # of x must be back in force for the conjunct that follows.
        sentence = forall(
            "x",
            or_(
                and_(exists("x", rel("E", "x", "x")), eq("x", "x")),
                eq("x", "x"),
            ),
        )
        assert checker.evaluate(sentence)

    def test_counting_quantifier_agrees_with_explicit_count(self):
        g = path_graph(5)
        # Vertices with at least one successor: 0..3 (4 of the 5).
        has_successor = exists("y", rel("E", "x", "y"))
        at_least = count_at_least(4, "x", has_successor)
        beyond = count_at_least(5, "x", has_successor)
        assert evaluate(at_least, g, backend="tuple")
        assert not evaluate(beyond, g, backend="tuple")
