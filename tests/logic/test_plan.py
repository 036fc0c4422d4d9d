"""Unit tests for the logic layer's relational-plan pipeline: the plan IR
(:mod:`repro.logic.plan`), the formula → plan compiler
(:mod:`repro.logic.compile`), the formula pretty-printer, the Session
facade's logic backend selection, the migrated plan-backed consumers, and
the ``python -m repro logic`` CLI."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from repro.__main__ import main as cli_main
from repro.core.engine import Session
from repro.logic.compile import PlanCompilationError, compile_formula, explain
from repro.logic.eval import ModelChecker, define_relation, evaluate
from repro.logic.formula import (
    DTCAtom,
    LFPAtom,
    MAX,
    TCAtom,
    ZERO,
    and_,
    aux,
    count_at_least,
    eq,
    exists,
    forall,
    implies,
    leq,
    neg,
    or_,
    pretty,
    rel,
    var,
)
from repro.logic.plan import (
    Closure,
    Difference,
    DomainProduct,
    ExecutionContext,
    Fixpoint,
    Join,
    Project,
    RelationScan,
    Shared,
    Union,
)
from repro.logic.queries import CANONICAL_QUERIES, apath_lfp, reachability_tc
from repro.queries.agap import apath_baseline
from repro.queries.transitive_closure import transitive_closure_baseline
from repro.structures import (
    Structure,
    Vocabulary,
    graph_structure,
    path_graph,
    random_alternating_graph,
    random_graph,
)


class TestPlanStructure:
    def test_columns_are_sorted_free_variables(self):
        plan = compile_formula(and_(rel("E", "b", "a"), rel("E", "a", "c")))
        assert plan.columns == ("a", "b", "c")

    def test_explicit_layout_pads_and_reorders(self):
        plan = compile_formula(rel("E", "y", "x"), variables=("z", "x", "y"))
        assert plan.columns == ("z", "x", "y")
        g = path_graph(3)
        rows = set(plan.execute(ExecutionContext(g)).rows)
        # z ranges over the whole domain; (y, x) is a reversed edge.
        assert rows == {(z, x, y) for z in range(3) for y, x in g.relation("E")}

    def test_conjunction_compiles_to_a_join(self):
        plan = compile_formula(
            exists("z", and_(rel("E", "x", "z"), rel("E", "z", "y")))
        )
        assert isinstance(plan, Project)
        assert any(isinstance(node, Join) for node in _walk(plan))

    def test_negation_compiles_to_domain_difference(self):
        plan = compile_formula(neg(rel("E", "x", "y")))
        assert isinstance(plan, Difference)
        assert isinstance(plan.left, DomainProduct)
        assert plan.columns == ("x", "y")

    def test_negation_pushes_through_connectives(self):
        # ~(E(x,y) /\ E(y,x)) becomes a union of complements, not one big
        # complement of a join.
        plan = compile_formula(neg(and_(rel("E", "x", "y"), rel("E", "y", "x"))))
        assert isinstance(plan, Union)

    def test_double_negation_cancels(self):
        formula = rel("E", "x", "y")
        assert compile_formula(neg(neg(formula))) is compile_formula(formula)

    def test_fixpoint_and_closure_nodes(self):
        lfp_plan = compile_formula(apath_lfp(var("u"), var("v")))
        assert any(isinstance(node, Fixpoint) for node in _walk(lfp_plan))
        tc_plan = compile_formula(reachability_tc())
        closures = [node for node in _walk(tc_plan) if isinstance(node, Closure)]
        assert len(closures) == 1 and not closures[0].deterministic

    def test_compilation_is_memoized_per_formula(self):
        formula = exists("z", and_(rel("E", "x", "z"), rel("E", "z", "y")))
        assert compile_formula(formula) is compile_formula(formula)

    def test_explain_includes_formula_and_plan(self):
        text = explain(reachability_tc())
        assert "TC[(x) -> (y)]" in text       # the pretty-printed formula
        assert "Closure[TC, k=1]" in text     # the plan tree
        assert "Scan E" in text


def _closure_join():
    """A small plan tree, built afresh on every call."""
    closure = Closure(RelationScan("E", ("x", "z")), 1, False)
    return Join(Shared(closure), RelationScan("E", ("z", "y")))


class TestPlanHash:
    """Plan nodes cache their structural hash; equality stays structural."""

    def test_equal_nodes_built_separately_hash_equal(self):
        first, second = _closure_join(), _closure_join()
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert hash(first) == hash(second)  # cached on both now
        assert {first: "memo"}[second] == "memo"

    def test_the_cached_hash_is_the_structural_hash(self):
        node = _closure_join()
        fields = tuple(getattr(node, field.name)
                       for field in dataclasses.fields(node))
        assert hash(node) == hash(fields)
        assert node._hash == hash(fields)  # kept for the next lookup

    def test_replace_gives_the_new_node_its_own_hash(self):
        node = _closure_join()
        hash(node)
        other = dataclasses.replace(node, right=RelationScan("E", ("z", "w")))
        rebuilt = Join(node.left, RelationScan("E", ("z", "w")))
        assert other != node and other == rebuilt
        assert hash(other) == hash(rebuilt)
        assert hash(other) == hash((other.left, other.right))

    def test_copies_hash_afresh(self):
        """String hashes differ between processes, so a pickled node must
        not carry its cached hash along."""
        node = _closure_join()
        hash(node)
        for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert "_hash" not in vars(clone)
            assert clone == node and hash(clone) == hash(node)


class TestPlanSemantics:
    def test_constants_and_repeated_variables(self):
        g = graph_structure(3, [(0, 0), (0, 2), (1, 1)])
        loops = define_relation(rel("E", "x", "x"), g, ("x",), backend="plan")
        assert loops == {(0,), (1,)}
        from_zero = define_relation(rel("E", ZERO, "y"), g, ("y",), backend="plan")
        assert from_zero == {(0,), (2,)}
        # A fully constant atom defines a sentence over zero columns.
        assert evaluate(rel("E", ZERO, MAX), g, backend="plan")
        assert not evaluate(rel("E", MAX, ZERO), g, backend="plan")

    def test_order_atoms(self):
        g = path_graph(4)
        le = define_relation(leq("x", "y"), g, ("x", "y"), backend="plan")
        assert le == {(x, y) for x in range(4) for y in range(4) if x <= y}

    def test_vacuous_quantifier(self):
        g = path_graph(3)
        formula = exists("z", rel("E", "x", "y"))  # z unused in the body
        assert define_relation(formula, g, ("x", "y"), backend="plan") == \
            define_relation(formula, g, ("x", "y"), backend="tuple")

    def test_counting_zero_threshold_is_vacuously_true(self):
        g = graph_structure(3, [])
        formula = count_at_least(0, "y", rel("E", "x", "y"))
        assert define_relation(formula, g, ("x",), backend="plan") == \
            {(x,) for x in range(3)}

    def test_counting_half_threshold(self):
        s = Structure(Vocabulary.of(U=1), 6, {"U": frozenset({(0,), (2,), (4,)})})
        formula = count_at_least("half", "x", rel("U", "x"))
        assert evaluate(formula, s, backend="plan")
        assert not evaluate(count_at_least(4, "x", rel("U", "x")), s,
                            backend="plan")

    def test_explicit_auxiliary_relations(self):
        g = path_graph(3)
        checker = ModelChecker(g, {"R": frozenset({(0, 1)})}, backend="plan")
        assert checker.evaluate(aux("R", "x", "y"), {"x": 0, "y": 1})
        assert not checker.evaluate(aux("R", "x", "y"), {"x": 1, "y": 0})
        # Unknown auxiliary names read as empty, like the tuple oracle.
        assert not checker.evaluate(aux("S", "x"), {"x": 0})

    def test_out_of_universe_auxiliary_rows_are_unobservable(self):
        # The tuple oracle only ever tests in-universe tuples, so rows
        # outside the universe must not leak into counts, joins or
        # closures set-at-a-time either.
        g = path_graph(3)
        auxiliary = {"S": frozenset({(0, 99)})}
        formula = count_at_least(1, "y", aux("S", "u", "y"))
        for backend in ("plan", "tuple"):
            checker = ModelChecker(g, auxiliary, backend=backend)
            assert not checker.evaluate(formula, {"u": 0}), backend
        # ... and inside a TC body the stray row must not crash the
        # closure's successor map (it used to raise KeyError).
        closure = TCAtom(("s",), ("t",), aux("S", "s", "t"), (ZERO,), (MAX,))
        for backend in ("plan", "tuple"):
            checker = ModelChecker(g, auxiliary, backend=backend)
            assert not checker.evaluate(closure), backend

    def test_unassigned_variable_raises_like_the_oracle(self):
        with pytest.raises(KeyError):
            evaluate(rel("E", "x", "y"), path_graph(3), {"x": 0}, backend="plan")

    def test_memo_hit_agrees_with_per_row_recompute(self):
        """A memoized plan checker answers every row from one execution;
        a fresh tuple checker per row (the recompute-every-time oracle)
        must agree on each."""
        g = random_graph(5, seed=2)
        formula = reachability_tc(var("u"), var("v"))
        checker = ModelChecker(g, backend="plan")
        for u in g.universe:
            assignment = {"u": u, "v": 4}
            assert checker.evaluate(formula, assignment) == \
                evaluate(formula, g, assignment, backend="tuple")
        assert len(checker._fixpoint_cache) == 1

    def test_unknown_backend_rejected(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            ModelChecker(g, backend="setatatime")
        with pytest.raises(ValueError):
            define_relation(rel("E", "x", "y"), g, ("x", "y"), backend="nope")


class TestCompilationErrors:
    def test_open_lfp_body_is_rejected_with_pretty_context(self):
        bad = LFPAtom("R", ("x",), rel("E", "x", "y"), (ZERO,))
        with pytest.raises(PlanCompilationError) as excinfo:
            compile_formula(bad)
        message = str(excinfo.value)
        assert "'y'" in message
        assert "E(x, y)" in message           # the pretty-printed body

    def test_open_tc_body_is_rejected(self):
        bad = TCAtom(("s",), ("t",), rel("E", "s", "w"), (ZERO,), (MAX,))
        with pytest.raises(PlanCompilationError):
            compile_formula(bad)

    def test_arity_mismatches_are_rejected(self):
        with pytest.raises(PlanCompilationError):
            compile_formula(LFPAtom("R", ("x", "y"), aux("R", "x", "y"), (ZERO,)))
        with pytest.raises(PlanCompilationError):
            compile_formula(DTCAtom(("s",), ("t", "t2"), rel("E", "s", "t"),
                                    (ZERO,), (MAX,)))

    def test_layout_must_cover_the_free_variables(self):
        with pytest.raises(PlanCompilationError):
            compile_formula(rel("E", "x", "y"), variables=("x",))

    def test_pretty_renders_all_node_kinds(self):
        formula = forall("x", implies(
            rel("A", "x"),
            or_(count_at_least("half", "y", rel("E", "x", "y")),
                neg(eq("x", ZERO)))))
        text = pretty(formula)
        assert "forall x." in text
        assert "exists>=half y." in text
        assert "A(x)" in text
        # Indentation grows with nesting depth.
        assert "\n    " in text


class TestSessionFacade:
    def test_production_backends_pick_columnar(self):
        assert Session().logic_backend == "columnar"
        assert Session(backend="interp").logic_backend == "columnar"
        assert Session(backend="reference").logic_backend == "tuple"

    def test_session_define_relation_agrees_across_backends(self):
        g = random_alternating_graph(5, seed=3)
        formula = apath_lfp(var("u"), var("v"))
        production = Session().define_relation(formula, g, ("u", "v"))
        oracle = Session(backend="reference").define_relation(formula, g,
                                                              ("u", "v"))
        assert production == oracle == apath_baseline(g)

    def test_session_evaluate_formula(self):
        g = random_graph(5, seed=1)
        sentence = reachability_tc()
        assert Session().evaluate_formula(sentence, g) == \
            Session(backend="reference").evaluate_formula(sentence, g)


class TestMigratedConsumers:
    """The Section 3 LFP and Section 4 TC/DTC formulas, set-at-a-time on
    both plan backends, against the queries' hand-written baselines."""

    @pytest.mark.parametrize("backend", ("plan", "columnar"))
    @pytest.mark.parametrize("seed", range(3))
    def test_apath_matches_baseline(self, seed, backend):
        g = random_alternating_graph(6, seed=seed)
        assert define_relation(apath_lfp(var("u"), var("v")), g, ("u", "v"),
                               backend=backend) == apath_baseline(g)

    @pytest.mark.parametrize("backend", ("plan", "columnar"))
    @pytest.mark.parametrize("deterministic", (False, True))
    def test_transitive_closure_matches_baseline(self, deterministic,
                                                 backend):
        g = random_graph(6, seed=4)
        query = CANONICAL_QUERIES["dtc" if deterministic else "tc"]
        assert define_relation(query.formula(), g, query.variables,
                               backend=backend) == \
            transitive_closure_baseline(g, deterministic=deterministic)

    def test_registry_queries_are_well_formed(self):
        for name, query in CANONICAL_QUERIES.items():
            plan = compile_formula(query.formula(), query.variables)
            assert plan.columns == query.variables, name


class TestLogicCLI:
    def _write_structure(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"D": [0, 1, 2, 3],
                                    "E": [[0, 1], [1, 2], [2, 3]]}))
        return path

    def test_relation_query(self, tmp_path, capsys):
        path = self._write_structure(tmp_path)
        assert cli_main(["logic", "tc", "--structure", str(path)]) == 0
        output = capsys.readouterr().out
        assert "columns:     (u, v)" in output
        assert "rows:        10" in output

    def test_sentence_query_on_both_backends(self, tmp_path, capsys):
        path = self._write_structure(tmp_path)
        for backend in ("plan", "tuple"):
            assert cli_main(["logic", "reach", "--structure", str(path),
                             "--backend", backend]) == 0
            assert "result:      True" in capsys.readouterr().out

    def test_explain_flag(self, tmp_path, capsys):
        path = self._write_structure(tmp_path)
        assert cli_main(["logic", "dreach", "--structure", str(path),
                         "--explain"]) == 0
        output = capsys.readouterr().out
        assert "Closure[DTC, k=1]" in output

    def test_list_and_errors(self, tmp_path, capsys):
        assert cli_main(["logic", "--list"]) == 0
        assert "tc" in capsys.readouterr().out
        assert cli_main(["logic", "unknown-query",
                         "--structure", "nope.json"]) == 2
        assert cli_main(["logic", "tc"]) == 2
        missing = tmp_path / "missing.json"
        assert cli_main(["logic", "tc", "--structure", str(missing)]) == 2


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)
