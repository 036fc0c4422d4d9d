"""The semi-naive / naive differential suite (PR 3 acceptance).

The semi-naive fixed-point strategy must be *observationally identical* to
the naive re-derive-everything strategy it replaces.  This suite pins that
down on seeded random instances of every fixed-point shape the logic layer
evaluates — TC, DTC and LFP — plus the AGAP baseline's alternating fixed
point: well over 50 instances in total, each checked end-to-end through
``define_relation`` (TC/DTC/LFP formulas over random graphs) or the query
baselines.

``seminaive=False`` routes the identical computation through the naive
kernels (the strategy the ``reference`` backend keeps), so any divergence
is a bug in the delta propagation itself, not in workload construction.
Both legs run on the tuple oracle (``backend="tuple"``), the one logic
backend with a naive strategy.
"""

from __future__ import annotations

import pytest

from repro.logic.eval import ModelChecker, define_relation, evaluate
from repro.logic.formula import (
    DTCAtom,
    LFPAtom,
    TCAtom,
    and_,
    aux,
    eq,
    exists,
    forall,
    neg,
    or_,
    rel,
    var,
)
from repro.queries.agap import apath_baseline
from repro.queries.transitive_closure import transitive_closure_baseline
from repro.structures import (
    functional_graph,
    layered_graph,
    random_alternating_graph,
    random_graph,
)

# 3 sizes x 6 seeds = 18 instances per operator family (54 for TC+DTC+LFP),
# plus the DTC/functional, layered-LFP and AGAP families below.
SIZES = (4, 5, 6)
SEEDS = range(6)
GRIDS = [(size, seed) for size in SIZES for seed in SEEDS]


def _tc_formula() -> TCAtom:
    return TCAtom(("x",), ("y",), rel("E", "x", "y"), (var("u"),), (var("v"),))


def _dtc_formula() -> DTCAtom:
    return DTCAtom(("x",), ("y",), rel("E", "x", "y"), (var("u"),), (var("v"),))


def _lfp_reachability() -> LFPAtom:
    body = or_(
        eq("x", "y"),
        exists("z", and_(rel("E", "x", "z"), aux("R", "z", "y"))),
    )
    return LFPAtom("R", ("x", "y"), body, (var("u"), var("v")))


def _lfp_alternating() -> LFPAtom:
    """An LFP whose body mixes both quantifiers — the all-successors-reach
    shape of AGAP (every vertex universal), exercising deltas that arrive
    from universal premises."""
    body = or_(
        eq("x", "y"),
        and_(
            exists("z", rel("E", "x", "z")),
            forall("z", or_(neg(rel("E", "x", "z")), aux("R", "z", "y"))),
        ),
    )
    return LFPAtom("R", ("x", "y"), body, (var("u"), var("v")))


@pytest.mark.parametrize("size,seed", GRIDS)
def test_tc_instances_agree(size, seed):
    graph = random_graph(size, edge_probability=0.3, seed=seed)
    formula = _tc_formula()
    fast = define_relation(formula, graph, ("u", "v"), seminaive=True,
                           backend="tuple")
    slow = define_relation(formula, graph, ("u", "v"), seminaive=False,
                           backend="tuple")
    assert fast == slow
    assert fast == transitive_closure_baseline(graph)


@pytest.mark.parametrize("size,seed", GRIDS)
def test_dtc_instances_agree(size, seed):
    graph = random_graph(size, edge_probability=0.3, seed=seed)
    formula = _dtc_formula()
    fast = define_relation(formula, graph, ("u", "v"), seminaive=True,
                           backend="tuple")
    slow = define_relation(formula, graph, ("u", "v"), seminaive=False,
                           backend="tuple")
    assert fast == slow
    assert fast == transitive_closure_baseline(graph, deterministic=True)


@pytest.mark.parametrize("size,seed", GRIDS)
def test_lfp_instances_agree(size, seed):
    graph = random_graph(size, edge_probability=0.3, seed=seed)
    formula = _lfp_reachability()
    fast = define_relation(formula, graph, ("u", "v"), seminaive=True,
                           backend="tuple")
    slow = define_relation(formula, graph, ("u", "v"), seminaive=False,
                           backend="tuple")
    assert fast == slow
    # The reachability LFP *is* the reflexive transitive closure.
    assert fast == transitive_closure_baseline(graph)


@pytest.mark.parametrize("seed", SEEDS)
def test_dtc_on_functional_graphs_agrees(seed):
    graph = functional_graph(7, seed=seed)
    formula = _dtc_formula()
    fast = define_relation(formula, graph, ("u", "v"), seminaive=True,
                           backend="tuple")
    slow = define_relation(formula, graph, ("u", "v"), seminaive=False,
                           backend="tuple")
    assert fast == slow == transitive_closure_baseline(graph, deterministic=True)


@pytest.mark.parametrize("seed", range(4))
def test_lfp_alternating_body_agrees(seed):
    graph = layered_graph(3, 2, seed=seed)
    formula = _lfp_alternating()
    fast = define_relation(formula, graph, ("u", "v"), seminaive=True,
                           backend="tuple")
    slow = define_relation(formula, graph, ("u", "v"), seminaive=False,
                           backend="tuple")
    assert fast == slow


@pytest.mark.parametrize("seed", SEEDS)
def test_apath_baseline_agrees_with_direct_iteration(seed):
    graph = random_alternating_graph(8, seed=seed)
    fast = apath_baseline(graph, seminaive=True)
    slow = apath_baseline(graph, seminaive=False)
    assert fast == slow
    assert fast == _apath_direct(graph)


def _apath_direct(structure):
    """The pre-kernel APATH loop (the seed's ad-hoc changed-flag iteration),
    kept here as the independent oracle for the migrated baseline."""
    edges = structure.relation("E")
    universal = {row[0] for row in structure.relation("A")}
    successors = {v: set() for v in structure.universe}
    for u, v in edges:
        successors[u].add(v)
    apath = {(v, v) for v in structure.universe}
    changed = True
    while changed:
        changed = False
        for x in structure.universe:
            for y in structure.universe:
                if (x, y) in apath or not successors[x]:
                    continue
                if x in universal:
                    holds = all((z, y) in apath for z in successors[x])
                else:
                    holds = any((z, y) in apath for z in successors[x])
                if holds:
                    apath.add((x, y))
                    changed = True
    return frozenset(apath)


class TestCheckerStrategyFlag:
    def test_evaluate_agrees_on_closed_formulas(self):
        graph = random_graph(6, edge_probability=0.25, seed=9)
        formula = _lfp_reachability()
        for assignment in ({"u": 0, "v": 5}, {"u": 2, "v": 2}, {"u": 5, "v": 0}):
            fast = ModelChecker(graph, seminaive=True,
                                backend="tuple").evaluate(formula, assignment)
            slow = ModelChecker(graph, seminaive=False,
                                backend="tuple").evaluate(formula, assignment)
            assert fast == slow

    def test_per_row_recompute_and_seminaive_compose(self):
        """Both strategies agree with the recompute-every-time oracle: a
        fresh tuple checker per row, so no closure is shared between rows."""
        graph = random_graph(5, edge_probability=0.3, seed=1)
        formula = _tc_formula()
        results = {
            define_relation(formula, graph, ("u", "v"), seminaive=seminaive,
                            backend="tuple")
            for seminaive in (True, False)
        }
        recomputed = frozenset(
            (u, v) for u in graph.universe for v in graph.universe
            if evaluate(formula, graph, {"u": u, "v": v}, backend="tuple"))
        assert results == {recomputed}
