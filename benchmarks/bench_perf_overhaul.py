"""Experiment P0 — the cross-layer performance overhaul (perf trajectory).

Unlike the theorem experiments (E1–E10), this module benchmarks the
*interpreter itself*: each test times an identical workload on the seed
implementation (via ``seed_values.seed_values``, which installs the seed's
uncached value algorithms for one block, or ``memoize=False``) and on
the optimized one, asserts the optimized run is at least ``TARGET_SPEEDUP``
times faster, and cross-checks that both produce *exactly* the same value.

The measured paths are the three hot-path pathologies the overhaul
eliminated (see DESIGN.md, "Caching architecture"):

* the powerset program of Example 3.12 — set-of-sets construction, where
  the seed recomputed recursive canonical keys on every insert/sort;
* ``define_relation`` over a TC formula — where the seed recomputed the
  whole closure once per row of the defined relation;
* ``define_relation`` over an LFP formula — same, for fixed points;
* the canonical-sort kernel on nested sets — the values-layer micro.

PR 2 extends the trajectory with the *compiled engine* datapoints: the E1
(AGAP, SRL = P) and E3 (TC / DTC) workloads run on the compiled backend
against the PR 1 interpreter, with a >= 2x acceptance bar.

PR 3 adds the *P2 semi-naive* datapoints: the engine's delta-propagating
fixed-point kernels against the naive re-derive-everything strategy the
``reference`` backend preserves, on E3-scale TC / DTC / LFP workloads at
n = 64, with a >= 3x acceptance bar.

PR 4 adds the *P3 relational-planner* datapoints: the logic layer's
set-at-a-time plan backend (formula -> relational-algebra plan, see
``repro.logic.compile``) against the tuple-at-a-time enumeration oracle,
on the Figure-1 query suite (TC / DTC / APATH from the
``CANONICAL_QUERIES`` registry) at n = 64, with a >= 3x acceptance bar.

PR 5 adds the *P4 plan-optimizer* datapoints: the rewrite pipeline of
``repro.logic.optimize`` (selection pushdown, dead-column pruning,
cost-based join reordering with semi/antijoins, join/projection fusion,
semi-naive delta rewriting with cross-round accumulators, common-subplan
sharing) against the raw PR 4 plan backend (``optimize=False``), on the
join-heavy canonical queries at n = 128 over layered / functional /
sparse- and dense-alternating graphs.  The acceptance bar is a >= 3x
*geometric mean* across tc / dtc / apath / agap, plus a structural O(|Δ|)
check: on the TC chain (the GAP fixed point over a path graph) the rows
materialized per fixpoint round must be bounded by the frontier, never by
the accumulated relation.

PR 7 adds the *P7 columnar-backend* datapoints: the bitset/CSR codegen
backend of ``repro.logic.codegen`` (``backend="columnar"``) against the
PR 5 optimized set backend, on the same P4 canonical suite at n = 128
with a >= 10x geometric-mean bar, plus the n = 512 scale points the set
backend cannot finish inside the smoke budget.

Results are merged into ``BENCH_perf.json`` at the repo root — the perf
trajectory, one entry per measured workload, for later PRs to extend.
Run with ``--smoke`` (CI) for smaller sizes and no speedup-ratio
assertions; a smoke run writes its (shrunken-size) ratios to
``BENCH_smoke.json`` instead, which ``benchmarks/check_trajectory.py``
gates against the committed ``benchmarks/BENCH_baseline.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Session, run_program
from repro.core.reference import value_sort_reference
from repro.core.values import make_set, make_tuple, Atom, value_sort
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.formula import LFPAtom, TCAtom, and_, aux, eq, exists, or_, rel, var
from repro.logic.queries import CANONICAL_QUERIES
from repro.queries import (
    agap_baseline,
    agap_database,
    agap_program,
    apath_baseline,
    deterministic_reachability_program,
    graph_database,
    powerset_database,
    powerset_program,
    reachability_program,
)
from repro.structures import (
    Changeset,
    Structure,
    cycle_graph,
    functional_graph,
    layered_graph,
    random_alternating_graph,
    random_graph,
)
from seed_values import production_bodies, seed_values

#: The acceptance bar of the PR 1 perf-overhaul issue (seed vs optimized).
TARGET_SPEEDUP = 10.0

#: The acceptance bar of the PR 2 engine issue (compiled vs interpreter).
COMPILED_TARGET_SPEEDUP = 2.0

#: The acceptance bar of the PR 3 semi-naive issue (semi-naive vs naive).
SEMINAIVE_TARGET_SPEEDUP = 3.0

#: The acceptance bar of the PR 4 relational-planner issue (plan vs tuple).
PLAN_TARGET_SPEEDUP = 3.0

#: The acceptance bar of the PR 5 plan-optimizer issue: geometric mean of
#: the optimized-vs-raw speedups across tc / dtc / apath / agap at n = 128.
OPTIMIZER_TARGET_GEOMEAN = 3.0

#: The acceptance bar of the PR 7 columnar-backend issue: geometric mean
#: of the columnar-vs-optimized-set speedups across the same suite.
COLUMNAR_TARGET_GEOMEAN = 10.0

#: The acceptance bars of the PR 8 incremental-maintenance issue: a
#: single-edge insert on the memoized TC relation at n = 128 against a
#: full recompute, and the geometric mean across the insert datapoints
#: (tc's O(change) closure patch and apath's honest recompute fallback).
IVM_TC_INSERT_TARGET = 10.0
IVM_INSERT_TARGET_GEOMEAN = 5.0

#: The acceptance bars of the PR 9 out-of-core issue: the chunked CSR
#: interpreter vs the plan backend on an equal-n clustered closure, and
#: the wall-clock budget for a *cold* snapshot load plus the million-edge
#: ``reach`` sentence (the 10 s bar of the issue).
SNAPSHOT_CHUNKED_TC_TARGET = 2.0
SNAPSHOT_COLD_REACH_SECONDS = 10.0

RESULTS: dict[str, dict] = {}


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _record(name: str, seed_seconds: float, optimized_seconds: float,
            params: dict, table, series: str = "P0", baseline: str = "seed",
            target: float = TARGET_SPEEDUP) -> float:
    speedup = seed_seconds / optimized_seconds
    RESULTS[name] = {
        "seed_seconds": round(seed_seconds, 6),
        "optimized_seconds": round(optimized_seconds, 6),
        "speedup": round(speedup, 2),
        "params": params,
    }
    table(f"{series}: {name} ({baseline} vs optimized)",
          [f"{baseline} s", "optimized s", "speedup", "target"],
          [[f"{seed_seconds:.4f}", f"{optimized_seconds:.4f}",
            f"{speedup:.1f}x", f">= {target:.0f}x"]])
    return speedup


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(request, trajectory):
    """After the module's tests, merge the new trajectory points into
    ``BENCH_perf.json`` (``BENCH_smoke.json`` under ``--smoke``); existing
    entries for other workloads survive a partial run."""
    yield
    if not RESULTS:
        return
    trajectory(
        RESULTS,
        "P0 perf overhaul + P1 compiled engine + P2 semi-naive"
        " + P3 relational planner + P4 plan optimizer"
        " + P7 columnar backend + P8 incremental maintenance"
        " + P9 out-of-core snapshots",
        smoke=bool(request.config.getoption("--smoke")),
        header={
            "target_speedup": TARGET_SPEEDUP,
            "compiled_target_speedup": COMPILED_TARGET_SPEEDUP,
            "seminaive_target_speedup": SEMINAIVE_TARGET_SPEEDUP,
            "plan_target_speedup": PLAN_TARGET_SPEEDUP,
            "optimizer_target_geomean": OPTIMIZER_TARGET_GEOMEAN,
            "columnar_target_geomean": COLUMNAR_TARGET_GEOMEAN,
            "ivm_tc_insert_target": IVM_TC_INSERT_TARGET,
            "ivm_insert_target_geomean": IVM_INSERT_TARGET_GEOMEAN,
            "snapshot_chunked_tc_target": SNAPSHOT_CHUNKED_TC_TARGET,
            "snapshot_cold_reach_seconds": SNAPSHOT_COLD_REACH_SECONDS,
        })


# ----------------------------------------------------------- workloads


def test_powerset_example_3_12_speedup(table, smoke):
    """Example 3.12 at |S| = 10: 1024 subsets, all living inside one
    set-of-sets accumulator — the seed's worst case for key recomputation."""
    size = 8 if smoke else 10
    program = powerset_program()
    database = powerset_database(size)

    # Both sides run on the interpreter, so the ratio measures the value
    # layer alone.
    def optimized():
        return run_program(program, database, backend="interp")

    def seed():
        with seed_values():
            return run_program(program, database, backend="interp")

    production = production_bodies()
    fast_result = optimized()
    slow_result = seed()
    assert production_bodies() == production
    assert len(fast_result) == 2 ** size
    assert fast_result == slow_result

    seed_seconds = _best_of(seed, repeats=1)
    assert production_bodies() == production
    optimized_seconds = _best_of(optimized, repeats=3)
    speedup = _record("powerset_example_3_12", seed_seconds, optimized_seconds,
                      {"set_size": size}, table)
    if not smoke:
        assert speedup >= TARGET_SPEEDUP


def _tc_closure_formula() -> TCAtom:
    return TCAtom(("x",), ("y",), rel("E", "x", "y"), (var("u"),), (var("v"),))


def test_tc_define_relation_speedup(table, smoke):
    """``define_relation`` over TC: the seed recomputed the closure for every
    one of the n^2 rows; the memoized checker computes it once."""
    size = 8 if smoke else 12
    graph = random_graph(size, edge_probability=0.2, seed=3)
    formula = _tc_closure_formula()

    def optimized():
        return define_relation(formula, graph, ("u", "v"), memoize=True)

    def seed():
        return define_relation(formula, graph, ("u", "v"), memoize=False)

    assert optimized() == seed()
    seed_seconds = _best_of(seed, repeats=1)
    optimized_seconds = _best_of(optimized, repeats=3)
    speedup = _record("tc_define_relation", seed_seconds, optimized_seconds,
                      {"graph_size": size, "rows": size * size}, table)
    if not smoke:
        assert speedup >= TARGET_SPEEDUP


def _lfp_reachability_formula() -> LFPAtom:
    body = or_(
        eq("x", "y"),
        exists("z", and_(rel("E", "x", "z"), aux("R", "z", "y"))),
    )
    return LFPAtom("R", ("x", "y"), body, (var("u"), var("v")))


def test_lfp_define_relation_speedup(table, smoke):
    """``define_relation`` over LFP (the GAP fixed point with free
    endpoints): one fixed-point iteration instead of n^2."""
    size = 7 if smoke else 9
    graph = random_graph(size, edge_probability=0.25, seed=5)
    formula = _lfp_reachability_formula()

    def optimized():
        return define_relation(formula, graph, ("u", "v"), memoize=True)

    def seed():
        return define_relation(formula, graph, ("u", "v"), memoize=False)

    assert optimized() == seed()
    seed_seconds = _best_of(seed, repeats=1)
    optimized_seconds = _best_of(optimized, repeats=3)
    speedup = _record("lfp_define_relation", seed_seconds, optimized_seconds,
                      {"graph_size": size, "rows": size * size}, table)
    if not smoke:
        assert speedup >= TARGET_SPEEDUP


def test_value_sort_kernel(table, smoke):
    """The values-layer micro: canonically sorting nested sets-of-tuples.
    No >= 10x assertion here (the kernel is measured inside fresh values each
    round for the cached side too); recorded for the trajectory."""
    count = 60 if smoke else 250

    def build():
        return [
            make_set(*(make_tuple(Atom(i % 7), make_set(Atom(i % 5), Atom(j % 11)))
                       for j in range(12)))
            for i in range(count)
        ]

    values = build()
    reference_seconds = _best_of(lambda: value_sort_reference(values * 4), repeats=3)
    cached_seconds = _best_of(lambda: value_sort(values * 4), repeats=3)
    speedup = _record("value_sort_kernel", reference_seconds, cached_seconds,
                      {"values": len(values) * 4}, table)
    if not smoke:
        assert speedup >= 1.0


# ------------------------------------------- P1: the compiled engine (PR 2)


def _compiled_vs_interp(name: str, program, database, params: dict,
                        table, smoke: bool, check=None) -> None:
    """Time one workload on the compiled backend against the PR 1
    interpreter, cross-check the values, and record the trajectory point."""
    compiled = Session(program)               # backend="compiled"
    interp = Session(program, backend="interp")
    fast, slow = compiled.run(database), interp.run(database)
    assert fast == slow
    if check is not None:
        assert fast == check
    interp_seconds = _best_of(lambda: interp.run(database), repeats=2)
    compiled_seconds = _best_of(lambda: compiled.run(database), repeats=3)
    params = dict(params, baseline="interp", target=COMPILED_TARGET_SPEEDUP)
    speedup = _record(name, interp_seconds, compiled_seconds, params, table,
                      series="P1", baseline="interp",
                      target=COMPILED_TARGET_SPEEDUP)
    if not smoke:
        assert speedup >= COMPILED_TARGET_SPEEDUP


def test_compiled_engine_agap_e1(table, smoke):
    """E1 (Theorem 3.10, SRL = P): the AGAP program on the compiled engine
    vs the tree-walking interpreter."""
    size = 8 if smoke else 10
    graph = random_alternating_graph(size, seed=0)
    _compiled_vs_interp("compiled_vs_interp_agap_e1", agap_program(),
                        agap_database(graph), {"universe": size}, table, smoke,
                        check=agap_baseline(graph))


def test_compiled_engine_tc_e3(table, smoke):
    """E3 (Corollary 4.2, TC side): SRL reachability on the compiled engine
    vs the interpreter."""
    size = 9 if smoke else 12
    graph = random_graph(size, seed=1)
    _compiled_vs_interp("compiled_vs_interp_tc_e3", reachability_program(),
                        graph_database(graph), {"universe": size}, table, smoke)


def test_compiled_engine_dtc_e3(table, smoke):
    """E3 (Corollary 4.4, DTC side): deterministic reachability on the
    compiled engine vs the interpreter."""
    size = 9 if smoke else 12
    graph = functional_graph(size, seed=1)
    _compiled_vs_interp("compiled_vs_interp_dtc_e3",
                        deterministic_reachability_program(),
                        graph_database(graph), {"universe": size}, table, smoke)


# --------------------------------- P2: semi-naive fixed points (PR 3)


def _successor_map(structure) -> dict[int, list[int]]:
    successors: dict[int, list[int]] = {v: [] for v in structure.universe}
    for u, v in structure.relation("E"):
        successors[u].append(v)
    return successors


def _seminaive_vs_naive(name: str, naive, seminaive, params: dict,
                        table, smoke: bool) -> None:
    """Time one fixed-point workload on the semi-naive kernels against the
    naive (reference-backend) strategy, cross-check the relations agree,
    and record the trajectory point."""
    fast, slow = seminaive(), naive()
    assert set(fast) == set(slow)
    naive_seconds = _best_of(naive, repeats=2)
    seminaive_seconds = _best_of(seminaive, repeats=3)
    params = dict(params, baseline="naive", target=SEMINAIVE_TARGET_SPEEDUP)
    speedup = _record(name, naive_seconds, seminaive_seconds, params, table,
                      series="P2", baseline="naive",
                      target=SEMINAIVE_TARGET_SPEEDUP)
    if not smoke:
        assert speedup >= SEMINAIVE_TARGET_SPEEDUP


def test_seminaive_tc_e3(table, smoke):
    """E3 (Corollary 4.2) at kernel scale: the reflexive transitive closure
    of an n = 64 layered DAG (diameter 15 — every extra round multiplies
    the naive strategy's re-derivation bill), semi-naive delta propagation
    vs the naive re-derive-the-full-composition iteration — threaded
    through the Session facade (compiled backend vs the reference oracle)."""
    layers = 5 if smoke else 16
    graph = layered_graph(layers, 4, seed=7)
    successors = _successor_map(graph)
    production, oracle = Session(), Session(backend="reference")
    _seminaive_vs_naive(
        "seminaive_vs_naive_tc_e3",
        lambda: oracle.transitive_closure(successors),
        lambda: production.transitive_closure(successors),
        {"universe": graph.size}, table, smoke,
    )


def test_seminaive_dtc_e3(table, smoke):
    """E3 (Corollary 4.4) at kernel scale: the deterministic closure of an
    n = 64 functional graph (long out-degree-one chains are the naive
    strategy's worst case: one full re-derivation per chain link)."""
    size = 20 if smoke else 64
    successors = _successor_map(functional_graph(size, seed=11))
    production, oracle = Session(), Session(backend="reference")
    _seminaive_vs_naive(
        "seminaive_vs_naive_dtc_e3",
        lambda: oracle.transitive_closure(successors, deterministic=True),
        lambda: production.transitive_closure(successors, deterministic=True),
        {"universe": size}, table, smoke,
    )


def test_seminaive_lfp_agap(table, smoke):
    """The Lemma 3.6 LFP (APATH over an n = 64 alternating graph): the
    delta-step derivation through the engine's least-fixpoint kernel,
    semi-naive vs naive."""
    size = 20 if smoke else 64
    graph = random_alternating_graph(size, edge_probability=0.045, seed=13)
    _seminaive_vs_naive(
        "seminaive_vs_naive_lfp_agap",
        lambda: apath_baseline(graph, seminaive=False),
        lambda: apath_baseline(graph),
        {"universe": size}, table, smoke,
    )


# ----------------------------- P3: the logic relational planner (PR 4)


def _plan_vs_tuple(name: str, query_name: str, structure, table,
                   smoke: bool) -> None:
    """Time one Figure-1 query through ``define_relation`` on the plan
    backend against the tuple-at-a-time oracle, cross-check the defined
    relations, and record the trajectory point."""
    query = CANONICAL_QUERIES[query_name]
    formula = query.formula()

    def tuple_backend():
        return define_relation(formula, structure, query.variables,
                               backend="tuple")

    def plan_backend():
        return define_relation(formula, structure, query.variables,
                               backend="plan")

    assert plan_backend() == tuple_backend()
    tuple_seconds = _best_of(tuple_backend, repeats=1 if smoke else 2)
    plan_seconds = _best_of(plan_backend, repeats=3)
    params = {"universe": structure.size, "query": query_name,
              "baseline": "tuple", "target": PLAN_TARGET_SPEEDUP}
    speedup = _record(name, tuple_seconds, plan_seconds, params, table,
                      series="P3", baseline="tuple",
                      target=PLAN_TARGET_SPEEDUP)
    if not smoke:
        assert speedup >= PLAN_TARGET_SPEEDUP


def test_plan_tc_e9(table, smoke):
    """Figure 1 / Fact 4.1: all-pairs TC reachability over the n = 64
    layered DAG of the P2 benchmark.  The oracle pays n^2 body evaluations
    to build the edge relation and n^2 more to sweep the defined rows; the
    plan scans E once and feeds the same closure kernel directly."""
    graph = layered_graph(5 if smoke else 16, 4, seed=7)
    _plan_vs_tuple("plan_vs_tuple_tc_e9", "tc", graph, table, smoke)


def test_plan_dtc_e9(table, smoke):
    """Figure 1 / Fact 4.3: all-pairs DTC over an n = 64 functional graph
    (every vertex out-degree one — the pure closure workload)."""
    size = 20 if smoke else 64
    graph = functional_graph(size, seed=11)
    _plan_vs_tuple("plan_vs_tuple_dtc_e9", "dtc", graph, table, smoke)


def test_plan_apath_lfp_e9(table, smoke):
    """Figure 1 / Definition 3.4: the full APATH relation as an LFP over an
    n = 64 alternating graph.  Tuple-at-a-time, every fixed-point stage
    re-evaluates the quantifier-heavy body per candidate row (O(n) per
    quantifier); the plan executes each stage as joins, complements and
    projections over whole relations."""
    size = 20 if smoke else 64
    graph = random_alternating_graph(size, edge_probability=0.045, seed=13)
    _plan_vs_tuple("plan_vs_tuple_apath_e9", "apath", graph, table, smoke)


# --------------------------------- P4: the plan optimizer (PR 5)


def _optimized_vs_plan(name: str, query_name: str, structure, table,
                       smoke: bool) -> float:
    """Time one canonical query through ``define_relation`` on the
    optimized plan backend against the raw PR 4 plan backend, cross-check
    the defined relations and the row-materialization invariant, and
    record the trajectory point.  Returns the speedup (the geomean gate
    asserts across queries, not per query)."""
    from repro.logic.plan import PlanStats

    query = CANONICAL_QUERIES[query_name]
    formula = query.formula()

    def raw_backend():
        return define_relation(formula, structure, query.variables,
                               backend="plan", optimize=False)

    def optimized_backend():
        return define_relation(formula, structure, query.variables,
                               backend="plan", optimize=True)

    optimized_stats, raw_stats = PlanStats(), PlanStats()
    fast = define_relation(formula, structure, query.variables,
                           backend="plan", optimize=True,
                           stats=optimized_stats)
    slow = define_relation(formula, structure, query.variables,
                           backend="plan", optimize=False, stats=raw_stats)
    assert fast == slow
    assert optimized_stats.rows_materialized <= raw_stats.rows_materialized
    # Same repeat count on both sides: min-of-more-samples would bias the
    # ratio toward whichever side got the extra draws.
    repeats = 1 if smoke else 2
    raw_seconds = _best_of(raw_backend, repeats=repeats)
    optimized_seconds = _best_of(optimized_backend, repeats=repeats)
    params = {"universe": structure.size, "query": query_name,
              "baseline": "plan", "target": OPTIMIZER_TARGET_GEOMEAN}
    return _record(name, raw_seconds, optimized_seconds, params, table,
                   series="P4", baseline="plan",
                   target=OPTIMIZER_TARGET_GEOMEAN)


def test_optimizer_canonical_geomean_p4(table, smoke):
    """The P4 acceptance gate: the optimized plan backend against the raw
    PR 4 planner on the four join-heavy canonical queries at n = 128 —
    TC over the layered DAG, DTC over a functional graph, APATH/AGAP over
    a sparse alternating graph — asserting a >= 3x geometric mean.  The
    per-query wins differ in kind: tc/dtc gain from identity-projection
    removal and scan sharing around the closure kernel, apath/agap from
    delta-rewritten fixpoint rounds, cross-round accumulators, shared
    domain products and fused join-projections."""
    if smoke:
        workloads = [
            ("optimized_vs_plan_tc", "tc", layered_graph(5, 4, seed=7)),
            ("optimized_vs_plan_dtc", "dtc", functional_graph(20, seed=11)),
            ("optimized_vs_plan_apath", "apath",
             random_alternating_graph(20, edge_probability=0.1, seed=13)),
            ("optimized_vs_plan_agap", "agap",
             random_alternating_graph(20, edge_probability=0.1, seed=13)),
        ]
    else:
        workloads = [
            ("optimized_vs_plan_tc", "tc", layered_graph(32, 4, seed=7)),
            ("optimized_vs_plan_dtc", "dtc", functional_graph(128, seed=11)),
            ("optimized_vs_plan_apath", "apath",
             random_alternating_graph(128, edge_probability=0.03, seed=13)),
            ("optimized_vs_plan_agap", "agap",
             random_alternating_graph(128, edge_probability=0.03, seed=13)),
        ]
    speedups = [
        _optimized_vs_plan(name, query_name, graph, table, smoke)
        for name, query_name, graph in workloads
    ]
    geomean = 1.0
    for speedup in speedups:
        geomean *= speedup
    geomean **= 1.0 / len(speedups)
    table("P4: optimizer geometric mean (plan vs optimized)",
          ["queries", "geomean", "target"],
          [["tc, dtc, apath, agap", f"{geomean:.2f}x",
            f">= {OPTIMIZER_TARGET_GEOMEAN:.0f}x"]])
    if not smoke:
        assert geomean >= OPTIMIZER_TARGET_GEOMEAN


def test_optimizer_dense_apath_p4(table, smoke):
    """The dense datapoint of the P4 sweep: APATH over a denser
    alternating graph (recorded for the trajectory; the geomean gate runs
    on the canonical sparse instance)."""
    size = 16 if smoke else 96
    probability = 0.15 if smoke else 0.08
    graph = random_alternating_graph(size, edge_probability=probability,
                                     seed=17)
    _optimized_vs_plan("optimized_vs_plan_apath_dense", "apath", graph,
                       table, smoke)


def test_optimizer_delta_rounds_are_frontier_bounded(table, smoke):
    """The structural half of the P4 acceptance: on the TC chain (the GAP
    fixed point over a path graph) the delta-rewritten rounds materialize
    O(frontier) rows each — bounded by a small multiple of n — while the
    raw planner's rounds re-derive the accumulated relation (Omega(n^2)
    total rows over the run)."""
    from repro.logic.plan import PlanStats
    from repro.logic.queries import gap_formula
    from repro.structures import path_graph

    size = 24 if smoke else 64
    graph = path_graph(size)
    formula = gap_formula()
    optimized_stats, raw_stats = PlanStats(), PlanStats()
    fast = define_relation(formula, graph, (), backend="plan",
                           optimize=True, stats=optimized_stats)
    slow = define_relation(formula, graph, (), backend="plan",
                           optimize=False, stats=raw_stats)
    assert fast == slow
    rounds = optimized_stats.fixpoint_round_rows
    assert len(rounds) >= size - 1          # one round per chain link
    assert max(rounds) <= 4 * size          # O(frontier) per round ...
    accumulated = size * (size + 1) // 2
    assert max(rounds) < accumulated        # ... never the accumulated relation
    assert optimized_stats.rows_materialized < raw_stats.rows_materialized / 10
    table("P4: O(delta) fixpoint rounds on the TC chain (gap, path graph)",
          ["n", "rounds", "max round rows", "total rows (optimized)",
           "total rows (raw plan)"],
          [[str(size), str(len(rounds)), str(max(rounds)),
            str(optimized_stats.rows_materialized),
            str(raw_stats.rows_materialized)]])


# --------------------------------- P6: governor overhead (PR 6)

#: The PR 6 acceptance bar: a generous (never-tripping) budget may cost at
#: most 5% geomean over the ungoverned run on the P4 canonical workloads.
GOVERNOR_OVERHEAD_MAX = 1.05


def test_governed_overhead_p6(table, smoke):
    """Resource governance must be near-free when nothing trips: the same
    four P4 canonical queries through the optimized plan backend, once
    ungoverned and once under a generous all-caps budget (deadline, rows,
    rounds, memo — every checkpoint armed, none firing).  The governed run
    must agree exactly and cost <= 5% geomean wall-clock overhead."""
    from repro.core.governor import Budget

    budget = Budget(deadline_seconds=600.0, max_rows_materialized=10**9,
                    max_fixpoint_rounds=10**6, max_memo_entries=10**6)
    if smoke:
        workloads = [
            ("governed_overhead_tc", "tc", layered_graph(5, 4, seed=7)),
            ("governed_overhead_dtc", "dtc", functional_graph(20, seed=11)),
            ("governed_overhead_apath", "apath",
             random_alternating_graph(20, edge_probability=0.1, seed=13)),
            ("governed_overhead_agap", "agap",
             random_alternating_graph(20, edge_probability=0.1, seed=13)),
        ]
    else:
        workloads = [
            ("governed_overhead_tc", "tc", layered_graph(32, 4, seed=7)),
            ("governed_overhead_dtc", "dtc", functional_graph(128, seed=11)),
            ("governed_overhead_apath", "apath",
             random_alternating_graph(128, edge_probability=0.03, seed=13)),
            ("governed_overhead_agap", "agap",
             random_alternating_graph(128, edge_probability=0.03, seed=13)),
        ]
    ratios = []
    for name, query_name, structure in workloads:
        query = CANONICAL_QUERIES[query_name]
        formula = query.formula()

        def ungoverned():
            return define_relation(formula, structure, query.variables,
                                   backend="plan", optimize=True)

        def governed():
            return define_relation(formula, structure, query.variables,
                                   backend="plan", optimize=True,
                                   budget=budget)

        assert governed() == ungoverned()
        repeats = 2 if smoke else 3
        ungoverned_seconds = _best_of(ungoverned, repeats=repeats)
        governed_seconds = _best_of(governed, repeats=repeats)
        ratios.append(ungoverned_seconds / governed_seconds)
        params = {"universe": structure.size, "query": query_name,
                  "baseline": "ungoverned",
                  "target": GOVERNOR_OVERHEAD_MAX}
        _record(name, ungoverned_seconds, governed_seconds, params, table,
                series="P6", baseline="ungoverned", target=1.0)
    geomean = 1.0
    for ratio in ratios:
        geomean *= ratio
    geomean **= 1.0 / len(ratios)
    overhead = 1.0 / geomean
    table("P6: governor overhead geomean (ungoverned vs governed)",
          ["queries", "governed/ungoverned", "max"],
          [["tc, dtc, apath, agap", f"{overhead:.3f}x",
            f"<= {GOVERNOR_OVERHEAD_MAX:.2f}x"]])
    if not smoke:
        assert overhead <= GOVERNOR_OVERHEAD_MAX


# --------------------------------- P7: the columnar backend (PR 7)


def _columnar_vs_optimized(name: str, query_name: str, structure, table,
                           smoke: bool) -> float:
    """Time one canonical query through ``define_relation`` on the
    columnar codegen backend against the PR 5 optimized set backend,
    cross-check the defined relations (and that the columnar rung really
    answered — no silent degradation), and record the trajectory point.
    Returns the speedup; the geomean gate asserts across queries."""
    query = CANONICAL_QUERIES[query_name]
    formula = query.formula()

    def set_backend():
        return define_relation(formula, structure, query.variables,
                               backend="plan", optimize=True)

    def columnar_backend():
        return define_relation(formula, structure, query.variables,
                               backend="columnar", optimize=True)

    events: list = []
    fast = define_relation(formula, structure, query.variables,
                           backend="columnar", optimize=True,
                           degradations=events)
    assert not [e for e in events if e.stage == "columnar"], \
        f"{query_name}: columnar rung degraded: {events}"
    assert fast == set_backend()
    repeats = 1 if smoke else 2
    set_seconds = _best_of(set_backend, repeats=repeats)
    columnar_seconds = _best_of(columnar_backend, repeats=repeats)
    params = {"universe": structure.size, "query": query_name,
              "baseline": "optimized-set", "target": COLUMNAR_TARGET_GEOMEAN}
    return _record(name, set_seconds, columnar_seconds, params, table,
                   series="P7", baseline="optimized-set",
                   target=COLUMNAR_TARGET_GEOMEAN)


def _p7_workloads(smoke: bool, scale: int = 1):
    """The P4 query suite at n = 128 * scale (smoke: n = 20), over graphs
    whose closures are *nontrivial*: a dense random digraph for TC (the
    set backend's join work grows with density, the bitset BFS does not)
    and the n-cycle for DTC (the deterministic worst case — the longest
    chains and the full n^2 closure).  APATH / AGAP keep the P4
    alternating graphs, thinned at scale to hold the edge count."""
    if smoke:
        return [
            ("tc", random_graph(20, 0.25, seed=7)),
            ("dtc", cycle_graph(20)),
            ("apath", random_alternating_graph(20, edge_probability=0.1,
                                               seed=13)),
            ("agap", random_alternating_graph(20, edge_probability=0.1,
                                              seed=13)),
        ]
    size = 128 * scale
    return [
        ("tc", random_graph(size, 0.25, seed=7)),
        ("dtc", cycle_graph(size)),
        ("apath", random_alternating_graph(
            size, edge_probability=0.03 / scale, seed=13)),
        ("agap", random_alternating_graph(
            size, edge_probability=0.03 / scale, seed=13)),
    ]


def test_columnar_canonical_geomean_p7(table, smoke):
    """The P7 acceptance gate: the columnar codegen backend against the
    optimized set backend on the P4 canonical suite at n = 128, asserting
    a >= 10x geometric mean.  The wins compound three effects: dense-int
    bitset/CSR kernels in place of per-tuple hashing, one big-int machine
    word of work per universe row in place of boxed comparisons, and zero
    interpretive dispatch inside steady-state fixpoint rounds (the plan
    is one specialized Python closure)."""
    speedups = [
        _columnar_vs_optimized(f"columnar_vs_optimized_{query_name}",
                               query_name, graph, table, smoke)
        for query_name, graph in _p7_workloads(smoke)
    ]
    geomean = 1.0
    for speedup in speedups:
        geomean *= speedup
    geomean **= 1.0 / len(speedups)
    table("P7: columnar geometric mean (optimized-set vs columnar)",
          ["queries", "geomean", "target"],
          [["tc, dtc, apath, agap", f"{geomean:.2f}x",
            f">= {COLUMNAR_TARGET_GEOMEAN:.0f}x"]])
    if not smoke:
        assert geomean >= COLUMNAR_TARGET_GEOMEAN


def test_columnar_scale_n512_p7(table, smoke):
    """The scale half of the P7 acceptance: the columnar backend runs the
    whole n = 512 suite inside the 20-second smoke budget — a budget the
    set backend blows on APATH *alone* (its n = 128 run takes ~1.4 s and
    the fixpoint work grows superlinearly), which is why no set-side
    timing is attempted here at all.  Full runs record the suite total as
    a trajectory entry against that budget; smoke runs only assert it
    (wall-clock entries at this size would be runner noise in the
    baseline)."""
    budget_seconds = 20.0
    workloads = _p7_workloads(smoke=False, scale=4)     # n = 512 either way
    start = time.perf_counter()
    for query_name, structure in workloads:
        query = CANONICAL_QUERIES[query_name]
        rows = define_relation(query.formula(), structure, query.variables,
                               backend="columnar", optimize=True)
        assert isinstance(rows, frozenset)
    columnar_total = time.perf_counter() - start
    table("P7: columnar n = 512 suite",
          ["queries", "total s", "smoke budget"],
          [["tc, dtc, apath, agap", f"{columnar_total:.2f}",
            f"<= {budget_seconds:.0f} s"]])
    assert columnar_total <= budget_seconds
    if not smoke:
        # ``seed_seconds`` here is the smoke *budget*, not a measured set
        # run: the recorded ratio reads "how far under the budget the set
        # backend cannot meet the columnar suite lands".
        _record("columnar_n512_suite", budget_seconds, columnar_total,
                {"universe": 512, "queries": "tc,dtc,apath,agap",
                 "baseline": "smoke-budget"},
                table, series="P7", baseline="smoke-budget", target=1.0)


# --------------------------------- P8: incremental maintenance (PR 8)


def _copy_structure(structure):
    return Structure(structure.vocabulary, structure.size,
                     dict(structure.relations), intern=structure.intern)


def _ivm_vs_recompute(name: str, query_name: str, structure, op: str,
                      table, smoke: bool) -> float:
    """Time one single-edge update against a memoized canonical relation:
    the maintained path (``ModelChecker.apply_update`` + the now-patched
    ``defined_relation`` read) vs a full from-scratch recompute on the
    post-update structure.  Each repeat applies the inverse update outside
    the timer, so the checker round-trips to the same state; the
    maintained rows are cross-checked against the recompute oracle."""
    query = CANONICAL_QUERIES[query_name]
    formula = query.formula()
    edge_rows = structure.relations["E"]
    if op == "insert":
        edge = next((u, v) for u in range(structure.size)
                    for v in range(structure.size)
                    if u != v and (u, v) not in edge_rows)
        forward = Changeset.inserting("E", edge)
        backward = Changeset.deleting("E", edge)
    else:
        edge = next(iter(sorted(edge_rows)))
        forward = Changeset.deleting("E", edge)
        backward = Changeset.inserting("E", edge)

    checker = ModelChecker(structure, backend="plan")
    checker.defined_relation(formula)
    repeats = 3 if smoke else 5
    maintained_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        checker.apply_update(forward)
        columns, rows = checker.defined_relation(formula)
        maintained_seconds = min(maintained_seconds,
                                 time.perf_counter() - start)
        checker.apply_update(backward)

    patched = _copy_structure(structure)
    patched.apply(forward)
    expected = define_relation(formula, patched, query.variables,
                               backend="plan", optimize=True)
    positions = [columns.index(v) for v in query.variables]
    assert {tuple(row[p] for p in positions) for row in rows} == expected, \
        f"{name}: maintained relation diverged from the recompute oracle"

    def recompute():
        return define_relation(formula, patched, query.variables,
                               backend="plan", optimize=True)

    recompute_seconds = _best_of(recompute, repeats=1 if smoke else 2)
    params = {"universe": structure.size, "query": query_name, "op": op,
              "strategy": dict(checker.ivm_stats), "baseline": "recompute"}
    return _record(name, recompute_seconds, maintained_seconds, params,
                   table, series="P8", baseline="recompute",
                   target=IVM_TC_INSERT_TARGET)


def _p8_workloads(smoke: bool):
    """TC over the P7 dense digraph (the closure strategy's O(change)
    patch) and APATH over the P4 alternating graph (the recompute
    fallback, measured honestly: its "maintained" path pays the dropped
    memo's re-derivation on the next read)."""
    if smoke:
        return {
            "tc": random_graph(20, 0.25, seed=7),
            "apath": random_alternating_graph(20, edge_probability=0.1,
                                              seed=13),
        }
    return {
        "tc": random_graph(128, 0.25, seed=7),
        "apath": random_alternating_graph(128, edge_probability=0.03,
                                          seed=13),
    }


def test_ivm_vs_recompute_p8(table, smoke):
    """The P8 acceptance gate: a single-edge insert on the memoized TC
    relation at n = 128 beats a full recompute by >= 10x (the Dyn-FO
    closure patch touches O(change) bitset words), the insert geomean
    across tc / apath stays >= 5x even with apath's honest ~1x recompute
    fallback, and the single-edge delete datapoint pins the DRed
    over-delete / re-derive path."""
    graphs = _p8_workloads(smoke)
    tc_insert = _ivm_vs_recompute("ivm_vs_recompute_tc_insert", "tc",
                                  graphs["tc"], "insert", table, smoke)
    tc_delete = _ivm_vs_recompute("ivm_vs_recompute_tc_delete", "tc",
                                  graphs["tc"], "delete", table, smoke)
    apath_insert = _ivm_vs_recompute("ivm_vs_recompute_apath_insert",
                                     "apath", graphs["apath"], "insert",
                                     table, smoke)
    geomean = (tc_insert * apath_insert) ** 0.5
    table("P8: insert geometric mean (recompute vs maintained)",
          ["queries", "geomean", "target"],
          [["tc, apath", f"{geomean:.2f}x",
            f">= {IVM_INSERT_TARGET_GEOMEAN:.0f}x"]])
    if not smoke:
        assert tc_insert >= IVM_TC_INSERT_TARGET
        assert geomean >= IVM_INSERT_TARGET_GEOMEAN
        assert tc_delete >= 1.0


# --------------------------------- P9: out-of-core snapshots (PR 9)


def _forced_chunked(callable_):
    """Run ``callable_`` with the dense width threshold dropped to 2, so
    the wide (CSR) representation handles universes the dense one would
    otherwise take (the ratio legs compare backends at equal, modest n)."""
    import repro.logic.codegen as codegen

    original = codegen.DENSE_WIDTH_THRESHOLD
    codegen.DENSE_WIDTH_THRESHOLD = 2
    try:
        return callable_()
    finally:
        codegen.DENSE_WIDTH_THRESHOLD = original


def test_snapshot_closure_p9(table, smoke, tmp_path):
    """The P9 acceptance gates.

    * ``snapshot_chunked_tc`` — full transitive closure on a clustered
      graph, columnar on CSR payloads vs the set-at-a-time plan backend at
      equal n (the closure here is ~n^2/2 rows, so the ratio leg stays at
      modest cluster counts where the plan backend finishes at all).
    * ``snapshot_tc_1e6`` — the out-of-core leg: stream a clustered graph
      to a snapshot, then time a *cold* load plus the ``reach`` sentence
      through the chunked backend against a wall-clock budget.  The full
      run uses the million-edge graph (8000 clusters, n = 2*10^5) and
      asserts the 10 s bar plus bounded resident bytes; smoke shrinks to
      400 clusters (n = 10^4, still past the dense width threshold) with
      a proportionally tighter budget.
    """
    from repro.logic.plan import PlanStats
    from repro.structures import build_snapshot, load_structure
    from repro.structures.zoo import clustered_edges

    # ---- ratio leg: chunked vs plan at equal n ----
    clusters = 40 if smoke else 80
    ratio_snap = tmp_path / "ratio.snap"
    build_snapshot(clustered_edges(clusters), ratio_snap,
                   size=clusters * 25)
    structure = load_structure(ratio_snap)
    query = CANONICAL_QUERIES["tc"]

    def chunked_tc():
        return _forced_chunked(lambda: define_relation(
            query.formula(), structure, query.variables,
            backend="columnar"))

    def plan_tc():
        return define_relation(query.formula(), structure,
                               query.variables, backend="plan")

    chunked_rows = chunked_tc()
    assert chunked_rows == plan_tc(), \
        "chunked closure diverged from the plan backend"
    chunked_seconds = _best_of(chunked_tc, repeats=2 if smoke else 3)
    plan_seconds = _best_of(plan_tc, repeats=1 if smoke else 2)
    ratio = _record(
        "snapshot_chunked_tc", plan_seconds, chunked_seconds,
        {"universe": structure.size, "clusters": clusters,
         "closure_rows": len(chunked_rows), "baseline": "plan"},
        table, series="P9", baseline="plan",
        target=SNAPSHOT_CHUNKED_TC_TARGET)

    # ---- out-of-core leg: cold snapshot load + million-edge reach ----
    big_clusters = 400 if smoke else 8000
    budget_seconds = 5.0 if smoke else SNAPSHOT_COLD_REACH_SECONDS
    big_snap = tmp_path / "big.snap"
    header = build_snapshot(clustered_edges(big_clusters, intra=140),
                            big_snap, size=big_clusters * 25)
    reach = CANONICAL_QUERIES["reach"]
    stats = PlanStats()
    start = time.perf_counter()
    cold = load_structure(big_snap)
    result = define_relation(reach.formula(), cold, reach.variables,
                             backend="columnar", stats=stats)
    elapsed = time.perf_counter() - start
    cold_speedup = _record(
        "snapshot_tc_1e6", budget_seconds, elapsed,
        {"universe": cold.size, "clusters": big_clusters,
         "edges": header["relations"]["E"]["rows"],
         "reachable": () in result,
         "bytes_resident": stats.bytes_resident,
         "baseline": "wall-clock budget"},
        table, series="P9", baseline="cold-budget", target=1.0)
    if not smoke:
        assert header["relations"]["E"]["rows"] >= 1_000_000, \
            "the out-of-core leg must cover a million-edge relation"
        assert cold_speedup >= 1.0, \
            f"cold load + reach took {elapsed:.2f}s (bar: 10s)"
        # Bounded working set: packed payloads, never O(n^2) closures.
        assert stats.bytes_resident < 64 * 1024 * 1024
        assert ratio >= SNAPSHOT_CHUNKED_TC_TARGET
