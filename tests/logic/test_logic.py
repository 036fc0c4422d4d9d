"""Tests for the FO / LFP / TC / DTC / counting evaluator and EF games."""

from __future__ import annotations

from itertools import product

import pytest

from repro.logic.eval import ModelChecker, define_relation, evaluate
from repro.logic.formula import (
    MAX,
    ZERO,
    TCAtom,
    and_,
    aux,
    count_at_least,
    eq,
    exists,
    forall,
    free_variables_of,
    implies,
    leq,
    neg,
    or_,
    rel,
    var,
)
from repro.logic.games import counting_ef_equivalent, ef_equivalent, is_partial_isomorphism
from repro.logic.interpretation import Interpretation, identity_interpretation
from repro.logic.queries import agap_formula, gap_formula, reachability_dtc, reachability_tc
from repro.queries.agap import agap_baseline
from repro.queries.transitive_closure import (
    deterministic_reachable_baseline,
    reachable_baseline,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    functional_graph,
    graph_structure,
    path_graph,
    random_alternating_graph,
    random_graph,
)


class TestFirstOrderEvaluation:
    def test_relation_atoms_and_constants(self):
        g = path_graph(3)
        assert evaluate(rel("E", ZERO, "x"), g, {"x": 1})
        assert not evaluate(rel("E", ZERO, MAX), g)

    def test_quantifiers(self):
        g = path_graph(4)
        has_edge_out = exists("y", rel("E", "x", "y"))
        assert evaluate(has_edge_out, g, {"x": 0})
        assert not evaluate(has_edge_out, g, {"x": 3})
        assert not evaluate(forall("x", exists("y", rel("E", "x", "y"))), g)

    def test_boolean_connectives(self):
        g = path_graph(3)
        assert evaluate(and_(rel("E", "x", "y"), neg(eq("x", "y"))), g, {"x": 0, "y": 1})
        assert evaluate(or_(eq("x", "y"), leq("x", "y")), g, {"x": 1, "y": 2})
        assert evaluate(implies(rel("E", "y", "x"), eq("x", "y")), g, {"x": 0, "y": 1})

    def test_unassigned_variable_raises(self):
        with pytest.raises(KeyError):
            evaluate(rel("E", "x", "y"), path_graph(3), {"x": 0})

    def test_free_variables(self):
        formula = exists("y", and_(rel("E", "x", "y"), eq("y", "z")))
        assert free_variables_of(formula) == {"x", "z"}

    def test_define_relation(self):
        g = path_graph(3)
        successors = define_relation(rel("E", "x", "y"), g, ("x", "y"))
        assert successors == g.relation("E")

    def test_counting_quantifier(self):
        s = Structure(Vocabulary.of(U=1), 6, {"U": frozenset({(0,), (2,), (4,)})})
        assert evaluate(count_at_least(3, "x", rel("U", "x")), s)
        assert not evaluate(count_at_least(4, "x", rel("U", "x")), s)
        # "half" is ceil(n/2) = 3 here.
        assert evaluate(count_at_least("half", "x", rel("U", "x")), s)


class TestFixedPointsAndClosures:
    @pytest.mark.parametrize("seed", range(4))
    def test_tc_matches_baseline(self, seed):
        g = random_graph(6, seed=seed)
        assert evaluate(reachability_tc(), g) == reachable_baseline(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_dtc_matches_baseline(self, seed):
        g = functional_graph(6, seed=seed)
        assert evaluate(reachability_dtc(), g) == deterministic_reachable_baseline(g)

    def test_dtc_ignores_branching_vertices(self):
        g = graph_structure(3, [(0, 1), (0, 2), (1, 2)])
        # 0 has two successors so its edges do not count for DTC ...
        assert not evaluate(reachability_dtc(), g)
        # ... but plain TC still reaches the target.
        assert evaluate(reachability_tc(), g)

    def test_gap_via_lfp_agrees_with_tc(self):
        for seed in range(3):
            g = random_graph(5, seed=seed)
            assert evaluate(gap_formula(), g) == evaluate(reachability_tc(), g)

    @pytest.mark.parametrize("seed", range(4))
    def test_apath_lfp_matches_baseline(self, seed):
        g = random_alternating_graph(5, seed=seed)
        assert evaluate(agap_formula(), g) == agap_baseline(g)

    def test_lfp_with_explicit_auxiliary(self):
        g = path_graph(3)
        checker = ModelChecker(g, {"R": frozenset({(0, 1)})})
        assert checker.evaluate(aux("R", "x", "y"), {"x": 0, "y": 1})
        assert not checker.evaluate(aux("R", "x", "y"), {"x": 1, "y": 0})


class TestInterpretations:
    def test_identity_interpretation(self):
        g = path_graph(4)
        assert identity_interpretation(GRAPH_VOCABULARY).apply(g) == g

    def test_reversal_interpretation(self):
        reverse = Interpretation(
            k=1,
            target_vocabulary=GRAPH_VOCABULARY,
            relation_formulas={"E": (("x", "y"), rel("E", "y", "x"))},
        )
        g = path_graph(3)
        image = reverse.apply(g)
        assert image.relation("E") == frozenset({(1, 0), (2, 1)})

    def test_binary_interpretation_squares_the_universe(self):
        # Target universe = pairs; edge between (a,b) and (c,d) iff E(a,c).
        pairs = Interpretation(
            k=2,
            target_vocabulary=GRAPH_VOCABULARY,
            relation_formulas={"E": (("x1", "x2", "y1", "y2"), rel("E", "x1", "y1"))},
        )
        g = path_graph(2)
        image = pairs.apply(g)
        assert image.size == 4
        assert (0 * 2 + 0, 1 * 2 + 0) in image.relation("E")

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            Interpretation(
                k=2,
                target_vocabulary=GRAPH_VOCABULARY,
                relation_formulas={"E": (("x",), rel("E", "x", "x"))},
            )

    def test_repeated_variable_is_rejected(self):
        # Definition 3.1 needs b*k distinct free variables; a repeated
        # name would bind two coordinates to one value.
        with pytest.raises(ValueError, match="relation E"):
            Interpretation(
                k=2,
                target_vocabulary=GRAPH_VOCABULARY,
                relation_formulas={"E": (("x1", "x2", "x1", "y2"),
                                         rel("E", "x1", "y2"))},
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_binary_interpretation_with_tc_matches_per_row_oracle(self, seed):
        # (x1, x2) -> (y1, y2) iff x1 reaches y1 and E(x2, y2); A holds of
        # (x1, x2) iff some z reachable from x1 has an edge to x2.
        reach = TCAtom(("s",), ("t",), rel("E", "s", "t"),
                       (var("x1"),), (var("y1"),))
        reach_z = TCAtom(("s",), ("t",), rel("E", "s", "t"),
                         (var("x1"),), (var("z"),))
        formulas = {
            "E": (("x1", "x2", "y1", "y2"),
                  and_(reach, rel("E", "x2", "y2"))),
            "A": (("x1", "x2"), exists("z", and_(reach_z, rel("E", "z", "x2")))),
        }
        vocabulary = Vocabulary.of(E=2, A=1)
        interpretation = Interpretation(2, vocabulary, formulas)
        g = random_graph(4, edge_probability=0.4, seed=seed)
        image = interpretation.apply(g)
        assert image.size == 16
        for name, (variables, formula) in formulas.items():
            expected = set()
            for flat in product(g.universe, repeat=len(variables)):
                if evaluate(formula, g, dict(zip(variables, flat)),
                            backend="tuple"):
                    expected.add(tuple(
                        interpretation.tuple_index(flat[i:i + 2], g.size)
                        for i in range(0, len(flat), 2)))
            assert image.relation(name) == frozenset(expected), name


class TestEFGames:
    def _pure_set(self, size: int) -> Structure:
        return Structure(Vocabulary.of(), size, {})

    def test_partial_isomorphism(self):
        g = path_graph(3)
        h = path_graph(3)
        assert is_partial_isomorphism(g, h, [0, 1], [0, 1])
        assert not is_partial_isomorphism(g, h, [0, 1], [1, 0])

    def test_large_pure_sets_agree_at_low_rank(self):
        # Fact 7.5's classical core: pure sets of size >= r are
        # EF_r-equivalent, so no fixed FO sentence defines EVEN.
        assert ef_equivalent(self._pure_set(4), self._pure_set(5), rounds=2)
        assert ef_equivalent(self._pure_set(3), self._pure_set(6), rounds=3)

    def test_small_pure_sets_are_separated(self):
        assert not ef_equivalent(self._pure_set(1), self._pure_set(2), rounds=2)

    def test_counting_game_separates_different_cardinalities(self):
        assert not counting_ef_equivalent(self._pure_set(3), self._pure_set(4), rounds=1)

    def test_counting_game_on_equal_pure_sets(self):
        assert counting_ef_equivalent(self._pure_set(3), self._pure_set(3), rounds=2)

    def test_ef_respects_relations(self):
        assert not ef_equivalent(path_graph(3), graph_structure(3, []), rounds=2)
