"""Unit tests for the plan optimizer (:mod:`repro.logic.optimize`): one
test class per rewrite pass — simplification, selection pushdown /
constrained-domain fusing, dead-column pruning, cost-based join reordering
with semi/antijoin conversion, join/projection fusion, semi-naive delta
rewriting (including every fallback condition), and common-subplan sharing
— plus the execution counters, the ``Cumulative`` accumulator, the
``--stats``/``--explain`` CLI surface, and the Session facade.  The raw
compiled plan, the optimizer's differential oracle, is run directly:
``compile_formula(formula, layout).execute(ExecutionContext(...))``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as cli_main
from repro.core.engine import Session
from repro.logic.codegen import execute_columnar
from repro.logic.compile import compile_formula
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.formula import (
    LFPAtom,
    MAX,
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
    rel,
    var,
)
from repro.logic.optimize import (
    CostModel,
    differentiate,
    estimate,
    explain_optimized,
    optimize_formula,
    optimize_plan,
)
from repro.logic.plan import (
    AntiJoin,
    ConstrainedDomain,
    Cumulative,
    DeltaScan,
    DomainProduct,
    Empty,
    ExecutionContext,
    Fixpoint,
    Join,
    JoinProject,
    Plan,
    PlanStats,
    Project,
    RelationScan,
    Select,
    SemiJoin,
    Shared,
    Union,
)
from repro.logic.queries import CANONICAL_QUERIES, apath_lfp, gap_formula
from repro.structures import (
    graph_structure,
    path_graph,
    random_alternating_graph,
    random_graph,
)


def _walk(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


def _nodes(plan: Plan, kind) -> list[Plan]:
    return [node for node in _walk(plan) if isinstance(node, kind)]


def _optimized(formula, structure, variables=None) -> Plan:
    return optimize_formula(formula, structure, variables)


COST = CostModel(8, {"E": 12, "A": 3})


class TestSimplifyAndPushdown:
    def test_equality_atom_fuses_into_constrained_domain(self):
        plan = _optimized(eq("x", "y"), path_graph(4))
        assert isinstance(plan, ConstrainedDomain)
        rows = plan.execute(ExecutionContext(path_graph(4))).rows
        assert rows == {(v, v) for v in range(4)}

    def test_constrained_domain_never_materializes_the_product(self):
        structure = path_graph(32)
        stats = PlanStats()
        plan = _optimized(eq("x", "y"), structure)
        context = ExecutionContext(structure, stats=stats)
        assert len(plan.execute(context)) == 32
        assert stats.rows_materialized == 32      # not 32*32

    def test_constrained_domain_orders_and_constants(self):
        structure = path_graph(5)
        cases = {
            leq("x", "y"): {(x, y) for x in range(5) for y in range(5) if x <= y},
            neg(leq("x", "y")): {(x, y) for x in range(5) for y in range(5) if x > y},
            eq("x", MAX): {(4,)},
            neg(eq("x", ZERO)): {(1,), (2,), (3,), (4,)},
        }
        for formula, expected in cases.items():
            plan = _optimized(formula, structure)
            assert plan.execute(ExecutionContext(structure)).rows == expected, formula

    def test_selection_pushes_below_the_join(self):
        # x = 0 constrains only E(x, z): it must land on that side, fused
        # into the scan's select, not sit above the join.
        formula = and_(rel("E", "x", "z"), rel("E", "z", "y"), eq("x", ZERO))
        plan = _optimized(formula, random_graph(6, seed=1))
        assert not isinstance(plan, Select)

    def test_identity_projects_are_dropped(self):
        plan = _optimized(CANONICAL_QUERIES["tc"].formula(),
                          random_graph(5, seed=0), ("u", "v"))
        # The raw plan wraps the closure in an identity Project; the
        # optimized one reads the closure (modulo renaming) directly.
        assert not _nodes(plan, Project)

    def test_union_absorbs_empty_and_duplicates(self):
        g = path_graph(3)
        plan = _optimized(or_(rel("E", "x", "y"), rel("E", "x", "y")), g)
        assert not _nodes(plan, Union)
        false_side = _optimized(or_(and_(rel("E", "x", "y"), neg(rel("E", "x", "y"))),
                                    rel("E", "x", "y")), g)
        assert false_side.execute(ExecutionContext(g)).rows == \
            {tuple(e) for e in g.relation("E")}


class TestPruning:
    def test_dead_columns_drop_below_the_join(self):
        # w is quantified away and never read above: the E(x, w) operand
        # must be projected to (x,) before joining, not after.
        formula = exists("w", and_(rel("E", "x", "w"), rel("E", "x", "z")))
        plan = _optimized(formula, random_graph(6, seed=2))
        joins = _nodes(plan, (Join, JoinProject, SemiJoin))
        assert joins
        for join in joins:
            for side in (join.left, join.right):
                assert "w" not in side.columns

    def test_pruned_plans_agree_with_the_oracle(self):
        formula = exists("w", and_(rel("E", "x", "w"), rel("E", "x", "z")))
        g = random_graph(6, seed=2)
        assert define_relation(formula, g, ("x", "z"), backend="plan") == \
            define_relation(formula, g, ("x", "z"), backend="tuple")


class TestJoinReordering:
    def test_chain_starts_from_the_cheapest_relation(self):
        # A is much smaller than E: the greedy order must touch A first.
        formula = and_(rel("E", "x", "y"), rel("A", "x"))
        plan = optimize_plan(compile_formula(formula), COST)
        joins = _nodes(plan, (Join, JoinProject, SemiJoin))
        assert joins
        first = joins[-1]  # innermost join of the rebuilt chain
        leftmost = first.left
        while leftmost.children():
            leftmost = leftmost.children()[0]
        assert isinstance(leftmost, RelationScan) and leftmost.name == "A"

    def test_covered_operand_becomes_a_semijoin(self):
        formula = and_(rel("E", "x", "y"), rel("E", "y", "x"))
        plan = optimize_plan(compile_formula(formula), COST)
        assert _nodes(plan, SemiJoin)

    def test_covered_negation_becomes_an_antijoin(self):
        formula = and_(rel("E", "x", "y"), neg(rel("E", "y", "x")))
        plan = optimize_plan(compile_formula(formula), COST)
        assert _nodes(plan, AntiJoin)
        # ... and no Domain^2 complement survives anywhere in the plan.
        assert all(len(node.columns) < 2
                   for node in _nodes(plan, DomainProduct))

    def test_antijoin_agrees_with_the_oracle(self):
        formula = and_(rel("E", "x", "y"), neg(rel("E", "y", "x")))
        g = random_graph(7, seed=3)
        assert define_relation(formula, g, ("x", "y"), backend="plan") == \
            define_relation(formula, g, ("x", "y"), backend="tuple")

    def test_quantifier_widening_domain_is_absorbed(self):
        # The Or aligns its operands by widening with Domain^1 products;
        # joining against E already covers those columns, so no full
        # domain product should survive the reorder.
        formula = and_(rel("E", "x", "y"),
                       or_(rel("A", "x"), rel("A", "y")))
        plan = optimize_plan(compile_formula(formula), COST)
        # Single-column widening pads the Or's operands into alignment;
        # what must not survive is a full two-column product feeding the
        # conjunction.
        assert all(len(node.columns) < 2
                   for node in _nodes(plan, DomainProduct))


class TestFusion:
    def test_exists_composition_fuses_join_and_project(self):
        formula = exists("z", and_(rel("E", "x", "z"), rel("E", "z", "y")))
        plan = _optimized(formula, random_graph(6, seed=4))
        fused = _nodes(plan, JoinProject)
        assert fused and all("z" not in node.columns for node in fused)

    def test_fused_join_collapses_duplicates_during_emission(self):
        g = graph_structure(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        formula = exists("z", and_(rel("E", "x", "z"), rel("E", "z", "y")))
        stats = PlanStats()
        rows = define_relation(formula, g, ("x", "y"), backend="plan",
                               stats=stats)
        assert rows == {(0, 3)}
        assert stats.rows_materialized < 10


class TestDeltaRewriting:
    def test_linear_body_differentiates_to_a_delta_scan(self):
        plan = compile_formula(gap_formula())
        fixpoint = _nodes(plan, Fixpoint)[0]
        delta = differentiate(fixpoint.body, "R")
        assert delta is not None
        assert _nodes(delta, DeltaScan)
        # The eq(x, y) base case does not mention R: it is absent from the
        # derivative entirely (run-once work).
        assert not _nodes(delta, ConstrainedDomain)

    def test_optimizer_attaches_the_delta_body(self):
        plan = _optimized(gap_formula(), random_graph(6, seed=5))
        fixpoint = _nodes(plan, Fixpoint)[0]
        assert fixpoint.delta_body is not None
        assert _nodes(fixpoint.delta_body, DeltaScan)

    def test_constant_body_gets_an_empty_delta(self):
        formula = LFPAtom("R", ("x",), rel("A", "x"), (ZERO,))
        plan = _optimized(formula, random_graph(4, seed=6))
        fixpoint = _nodes(plan, Fixpoint)[0]
        assert isinstance(fixpoint.delta_body, Empty)

    def test_aux_under_difference_right_falls_back(self):
        # forall z (E(x,z) -> R(z,y)): R lands under the right side of the
        # active-domain complement, which cannot be differentiated — the
        # whole dependent part re-derives in full.
        body = or_(eq("x", "y"),
                   forall("z", implies(rel("E", "x", "z"), aux("R", "z", "y"))))
        delta = differentiate(compile_formula(body), "R")
        assert delta is not None
        assert not _nodes(delta, DeltaScan)

    def test_aux_under_count_select_falls_back(self):
        body = count_at_least(2, "z", aux("R", "z", "x"))
        plan = compile_formula(body)
        assert differentiate(plan, "R") is plan

    def test_aux_under_nested_fixpoint_falls_back(self):
        inner = LFPAtom("S", ("w",), or_(rel("A", "w"), aux("R", "w", "w")),
                        (var("x"),))
        plan = compile_formula(inner)
        assert differentiate(plan, "R") is plan

    def test_shadowed_aux_is_no_dependence(self):
        # The inner fixpoint rebinds R: its R-atoms are not occurrences of
        # the outer R.
        inner = LFPAtom("R", ("w",), or_(rel("A", "w"), aux("R", "w")),
                        (var("x"),))
        assert differentiate(compile_formula(inner), "R") is None

    def test_monotone_side_is_accumulated(self):
        plan = _optimized(apath_lfp(var("u"), var("v")),
                          random_alternating_graph(8, seed=7))
        fixpoint = _nodes(plan, Fixpoint)[0]
        assert _nodes(fixpoint.delta_body, Cumulative)

    def test_delta_rounds_do_frontier_bounded_work(self):
        # The TC chain: gap as a linear LFP over a path graph.  Each round
        # must materialize O(frontier) rows, not the accumulated relation.
        n = 24
        g = path_graph(n)
        formula = gap_formula()
        stats = PlanStats()
        checker = ModelChecker(g, backend="plan")
        checker.plan_stats = stats
        assert checker.evaluate(formula)
        rounds = stats.fixpoint_round_rows
        assert len(rounds) >= n - 1
        accumulated = n * (n + 1) // 2
        assert max(rounds) <= 4 * n            # frontier-bounded ...
        assert max(rounds) < accumulated       # ... not relation-bounded

    def test_delta_body_agrees_with_the_naive_oracle(self):
        """The delta-rewritten fixed point (the optimized plan) and the raw
        plan's full-body rounds, each on both executors, match the tuple
        oracle under either fixed-point strategy."""
        g = random_alternating_graph(5, seed=8)
        formula = apath_lfp(var("u"), var("v"))
        raw = compile_formula(formula, ("u", "v"))
        results = {
            define_relation(formula, g, ("u", "v"), backend=backend)
            for backend in ("plan", "columnar")
        } | {
            frozenset(raw.execute(ExecutionContext(g)).rows),
            execute_columnar(raw, g),
        } | {
            define_relation(formula, g, ("u", "v"), seminaive=seminaive,
                            backend="tuple")
            for seminaive in (True, False)
        }
        assert len(results) == 1


class TestSharing:
    def test_repeated_subplans_share_one_execution(self):
        formula = or_(exists("z", and_(rel("E", "x", "z"), rel("E", "z", "y"))),
                      and_(exists("z", and_(rel("E", "x", "z"), rel("E", "z", "y"))),
                           rel("A", "x")))
        g = random_alternating_graph(6, seed=9)
        plan = _optimized(formula, g)
        assert _nodes(plan, Shared)
        stats = PlanStats()
        context = ExecutionContext(g, stats=stats, memo={})
        fast = plan.execute(context).rows
        assert stats.shared_hits >= 1
        assert fast == define_relation(formula, g, ("x", "y"), backend="tuple")

    def test_fixpoint_bodies_share_round_invariant_work(self):
        g = random_alternating_graph(8, seed=10)
        stats = PlanStats()
        define_relation(apath_lfp(var("u"), var("v")), g, ("u", "v"),
                        backend="plan", stats=stats)
        # E-scans, domain products and the ~A(x) branch are re-read from
        # the memo on every round after the first.
        assert stats.shared_hits > stats.fixpoint_rounds

    def test_sharing_is_transparent_without_a_memo(self):
        plan = Shared(RelationScan("E", ("$0", "$1")))
        g = path_graph(3)
        assert plan.execute(ExecutionContext(g)).rows == \
            {tuple(e) for e in g.relation("E")}


class TestCounters:
    def test_stats_accumulate_rows_probes_and_rounds(self):
        g = random_graph(6, seed=11)
        stats = PlanStats()
        define_relation(gap_formula(), g, (), backend="plan", stats=stats)
        payload = stats.as_dict()
        assert payload["rows_materialized"] > 0
        assert payload["index_probes"] > 0
        assert payload["fixpoint_rounds"] >= 2
        assert payload["max_fixpoint_round_rows"] > 0

    def test_optimized_materializes_no_more_than_raw(self):
        g = random_alternating_graph(7, seed=12)
        for name in ("tc", "dtc", "apath", "agap", "gap", "half-out"):
            query = CANONICAL_QUERIES[name]
            formula = query.formula()
            on, off = PlanStats(), PlanStats()
            fast = define_relation(formula, g, query.variables,
                                   backend="plan", stats=on)
            raw = compile_formula(formula, query.variables)
            slow = frozenset(
                raw.execute(ExecutionContext(g, stats=off)).rows)
            assert fast == slow, name
            assert on.rows_materialized <= off.rows_materialized, name


class TestCostModel:
    def test_estimates_use_live_relation_sizes(self):
        scan = RelationScan("E", ("$0", "$1"))
        assert estimate(scan, COST) == 12.0
        assert estimate(DomainProduct(("x", "y")), COST) == 64.0
        join = Join(RelationScan("E", ("x", "z")), RelationScan("E", ("z", "y")))
        assert estimate(join, COST) == pytest.approx(12 * 12 / 8)

    def test_estimates_cap_at_the_domain_product(self):
        big = Join(DomainProduct(("x", "y")), DomainProduct(("y", "z")))
        assert estimate(big, COST) <= 8 ** 3

    def test_cost_model_key_is_structure_statistics(self):
        g = random_graph(5, seed=13)
        assert CostModel.from_structure(g).key() == \
            (5, tuple(sorted({name: len(rows)
                              for name, rows in g.relations.items()}.items())))

    def test_optimization_is_memoized_per_statistics(self):
        g = random_graph(5, seed=14)
        formula = CANONICAL_QUERIES["tc"].formula()
        assert optimize_formula(formula, g) is optimize_formula(formula, g)


class TestSessionAndCLI:
    def test_session_define_relation_agrees_with_oracle(self):
        g = random_alternating_graph(6, seed=15)
        formula = apath_lfp(var("u"), var("v"))
        assert Session().define_relation(formula, g, ("u", "v")) == \
            Session(backend="reference").define_relation(formula, g, ("u", "v"))

    def _write_structure(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"D": [0, 1, 2, 3],
                                    "E": [[0, 1], [1, 2], [2, 3]]}))
        return path

    def test_cli_stats_flag(self, tmp_path, capsys):
        path = self._write_structure(tmp_path)
        assert cli_main(["logic", "gap", "--structure", str(path),
                         "--stats"]) == 0
        output = capsys.readouterr().out
        assert "rows_materialized=" in output
        assert "fixpoint_rounds=" in output

    def test_cli_explain_shows_both_plans_with_estimates(self, tmp_path, capsys):
        path = self._write_structure(tmp_path)
        assert cli_main(["logic", "gap", "--structure", str(path),
                         "--explain"]) == 0
        output = capsys.readouterr().out
        assert "logical plan:" in output
        assert "optimized plan:" in output
        assert "rows" in output                  # the ~N rows annotations
        assert "[delta]" in output               # the rewritten fixpoint

    def test_cli_explain_on_the_tuple_backend_shows_the_logical_plan(
            self, tmp_path, capsys):
        path = self._write_structure(tmp_path)
        assert cli_main(["logic", "tc", "--structure", str(path),
                         "--explain", "--backend", "tuple"]) == 0
        output = capsys.readouterr().out
        assert "plan:" in output
        assert "optimized plan:" not in output
        assert "(tuple backend)" in output
        assert "rows:        10" in output


class TestExplainOptimized:
    def test_explain_optimized_renders_all_sections(self):
        g = random_graph(4, seed=16)
        text = explain_optimized(CANONICAL_QUERIES["tc"].formula(), g,
                                 ("u", "v"))
        assert "formula:" in text
        assert "logical plan:" in text
        assert "optimized plan:" in text
        assert "Closure[TC, k=1]" in text


class TestDegreeStatistics:
    """Snapshot-persisted degree stats feed the cost model (P9)."""

    def test_from_structure_reads_snapshot_degree_stats(self, tmp_path):
        from repro.structures import load_structure, save_snapshot

        g = random_graph(8, edge_probability=0.4, seed=9)
        save_snapshot(g, tmp_path / "g.snap")
        loaded = load_structure(tmp_path / "g.snap")
        cost = CostModel.from_structure(loaded)
        stats = loaded.degree_stats["E"]
        assert cost.fanout("E", from_source=True) == \
            stats["rows"] / stats["distinct_sources"]
        assert cost.fanout("E", from_source=False) == \
            stats["rows"] / stats["distinct_targets"]
        # Plain structures record no degrees: fanout stays unknown.
        assert CostModel.from_structure(g).fanout("E", True) is None

    def test_degrees_change_the_memo_key(self):
        plain = CostModel(8, {"E": 12})
        informed = CostModel(8, {"E": 12}, degrees={
            "E": {"rows": 12, "distinct_sources": 2,
                  "distinct_targets": 12, "max_out_degree": 6}})
        assert plain.key() != informed.key()

    def test_fanout_tightens_the_join_estimate(self):
        from repro.logic.plan import Join, RelationScan

        join = Join(RelationScan("E", ("x", "y")),
                    RelationScan("E", ("y", "z")))
        # Uniform: |E|^2 / n = 50 * 50 / 10 = 250.  With every target
        # distinct the per-target fanout is 1, so probing the build side
        # row by row bounds the join at |E| * 1 = 50.
        skewed = CostModel(10, {"E": 50}, degrees={
            "E": {"rows": 50, "distinct_sources": 25,
                  "distinct_targets": 50, "max_out_degree": 2}})
        uniform = CostModel(10, {"E": 50})
        assert estimate(join, skewed) < estimate(join, uniform)
