"""The columnar executor past the dense width: the four-way differential,
counter parity across widths, budget enforcement, and totality — every
canonical query runs on the walker at both widths (P9 acceptance).

The dense arity-2 representation is only used up to
``DENSE_WIDTH_THRESHOLD``; these tests monkeypatch the threshold the
``codegen`` module captured down to 2, so ordinary small structures —
including snapshot-loaded ones with packed mmap relations — exercise the
wide representation while staying cheap enough to compare against the
plan backend and the tuple oracle on every query.
"""

from __future__ import annotations

import pytest

from repro.core.errors import MemoryLimitExceeded, ResourceLimitExceeded
from repro.core.governor import Budget
from repro.logic import chunked, codegen
from repro.logic.codegen import execute_columnar, last_report
from repro.logic.compile import compile_formula
from repro.logic.eval import define_relation
from repro.logic.formula import TCAtom, and_, rel, var
from repro.logic.plan import ExecutionContext, PlanStats
from repro.logic.queries import CANONICAL_QUERIES
from repro.queries.transitive_closure import transitive_closure_baseline
from repro.structures import (
    load_structure,
    path_graph,
    random_alternating_graph,
    save_snapshot,
)
from repro.structures.graphs import random_graph
from repro.structures.zoo import clustered_graph, grid_graph, layered_dag

#: The walker covers every canonical query at wide width, the Domain**2
#: complements of apath, agap and non-reach included.
COVERED = tuple(CANONICAL_QUERIES)


@pytest.fixture
def chunk_everything(monkeypatch):
    """Route every columnar execution through the wide representation
    (codegen imported the threshold by value, so patch its copy)."""
    monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)


def _graph(name, seed):
    """A random 7-vertex graph; apath and agap also read the universal
    vertices ``A`` of an alternating graph."""
    if name in ("apath", "agap"):
        return random_alternating_graph(7, edge_probability=0.3, seed=seed)
    return random_graph(7, edge_probability=0.3, seed=seed)


def _relation(query, structure, backend, **kwargs):
    return define_relation(query.formula(), structure, query.variables,
                           backend=backend, **kwargs)


# ------------------------------------------------------------ differential


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", COVERED)
def test_four_way_differential(chunk_everything, tmp_path, name, seed):
    """columnar(chunked) == optimized plan == raw plan == tuple oracle,
    evaluated over a snapshot round-tripped structure."""
    query = CANONICAL_QUERIES[name]
    original = _graph(name, seed)
    save_snapshot(original, tmp_path / "g.snap")
    structure = load_structure(tmp_path / "g.snap")
    degradations: list = []
    chunked = _relation(query, structure, "columnar",
                        degradations=degradations)
    assert degradations == [], f"{name} degraded off the chunked path"
    assert chunked == _relation(query, structure, "plan")
    raw = compile_formula(query.formula(), query.variables)
    assert chunked == frozenset(raw.execute(ExecutionContext(original)).rows)
    assert chunked == _relation(query, original, "tuple")


@pytest.mark.parametrize("make", [
    lambda: grid_graph(5, 5),
    lambda: layered_dag(4, 5, seed=3),
    lambda: clustered_graph(3, cluster_size=6, intra=12, seed=1),
])
def test_zoo_families_differential(chunk_everything, make):
    structure = make()
    for name in ("tc", "reach", "count-reach"):
        query = CANONICAL_QUERIES[name]
        assert _relation(query, structure, "columnar") \
            == _relation(query, structure, "tuple")


def test_chunked_backend_reported(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = random_graph(6, seed=2)
    plan = compile_formula(query.formula(), query.variables)
    execute_columnar(plan, structure)
    report = last_report()
    assert report is not None
    assert report["backend"] == "chunked"
    assert report["tuple_fallbacks"] == []


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("name", COVERED)
def test_both_widths_agree(monkeypatch, name, wide):
    """Every canonical query is exact at both widths and never leaves the
    columnar walker."""
    if wide:
        monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)
    query = CANONICAL_QUERIES[name]
    structure = _graph(name, 2)
    degradations: list = []
    result = _relation(query, structure, "columnar",
                       degradations=degradations)
    assert result == _relation(query, structure, "tuple")
    assert degradations == [], name


# ------------------------------------------------------- budgets and stats


@pytest.mark.parametrize("name", ("tc", "reach", "apath"))
def test_counters_mean_the_same_at_both_widths(monkeypatch, name):
    """One executor, one accounting: both widths run on the walker
    without degrading and report materialized rows, a resident working
    set and resident bytes, and the same number of fixpoint rounds."""
    query = CANONICAL_QUERIES[name]
    structure = random_alternating_graph(9, seed=4)
    stats = {}
    for width, threshold in (("dense", codegen.DENSE_WIDTH_THRESHOLD),
                             ("wide", 2)):
        monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", threshold)
        stats[width] = PlanStats()
        degradations: list = []
        _relation(query, structure, "columnar", stats=stats[width],
                  degradations=degradations)
        assert degradations == [], width
    for width, counters in stats.items():
        assert counters.rows_materialized > 0, width
        assert counters.peak_rows_resident > 0, width
        assert counters.bytes_resident > 0, width
    assert stats["dense"].fixpoint_rounds == stats["wide"].fixpoint_rounds
    if name == "apath":
        assert stats["dense"].fixpoint_rounds > 0


def test_bytes_resident_budget_bites(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = clustered_graph(4, cluster_size=8, intra=20, seed=0)
    stats = PlanStats()
    with pytest.raises(MemoryLimitExceeded) as info:
        _relation(query, structure, "columnar", stats=stats,
                  budget=Budget(max_bytes_resident=64))
    assert isinstance(info.value, ResourceLimitExceeded)
    assert stats.bytes_resident > 64


def test_rows_budget_still_enforced(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = clustered_graph(4, cluster_size=8, intra=20, seed=0)
    with pytest.raises(ResourceLimitExceeded):
        _relation(query, structure, "columnar",
                  budget=Budget(max_rows_materialized=3))


def test_chunked_notes_resident_bytes(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = random_graph(8, edge_probability=0.4, seed=5)
    stats = PlanStats()
    _relation(query, structure, "columnar", stats=stats)
    assert stats.bytes_resident > 0
    assert stats.as_dict()["bytes_resident"] == stats.bytes_resident


# ---------------------------------------------------------------- totality


def test_non_reach_runs_on_the_wide_walker(chunk_everything):
    """non-reach needs a universe**2 complement even after optimizing:
    the wide walker builds it from one shared row and matches tuple."""
    query = CANONICAL_QUERIES["non-reach"]
    structure = random_graph(6, edge_probability=0.3, seed=4)
    degradations: list = []
    result = _relation(query, structure, "columnar",
                       degradations=degradations)
    assert result == _relation(query, structure, "tuple")
    assert degradations == []


def test_wide_domain_squared_is_charged_once_per_row():
    """``full2()`` shares one row across every source: n keys plus one
    row of n words, not n rows."""
    cols = chunked._Wide(1000)
    assert cols.nbytes2(cols.full2()) == 16_000
    assert cols.count2(cols.full2()) == 1000 * 1000


def test_wide_non_reach_fits_the_byte_budget_of_its_closure(chunk_everything):
    """TC's own payload on a 200-vertex path is about 160 kB; the shared
    ``Domain²`` row adds O(n) words, so a 200 kB budget answers
    non-reach exactly."""
    query = CANONICAL_QUERIES["non-reach"]
    structure = path_graph(200)
    everything = {(u, v) for u in structure.universe
                  for v in structure.universe}
    assert _relation(query, structure, "columnar",
                     budget=Budget(max_bytes_resident=200_000)) == \
        everything - transitive_closure_baseline(structure)


def test_pair_closure_island_at_wide_width(chunk_everything):
    """A k=2 TC atom (reachability in the product graph) has no columnar
    kernel: at wide width it runs as an island through the plan
    interpreter, its scope decoded and re-encoded, and the answer is
    exact with no degradation."""
    formula = TCAtom(("a", "b"), ("c", "d"),
                     and_(rel("E", "a", "c"), rel("E", "b", "d")),
                     (var("x"), var("y")), (var("u"), var("v")))
    structure = random_graph(4, edge_probability=0.4, seed=2)
    variables = ("x", "y", "u", "v")
    degradations: list = []
    result = define_relation(formula, structure, variables,
                             degradations=degradations)
    assert degradations == []
    assert result == define_relation(formula, structure, variables,
                                     backend="tuple")
    assert len(result) == 64


def test_resource_errors_never_degrade(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = clustered_graph(4, cluster_size=8, intra=20, seed=0)
    degradations: list = []
    with pytest.raises(ResourceLimitExceeded):
        _relation(query, structure, "columnar",
                  budget=Budget(max_bytes_resident=64),
                  degradations=degradations)
    assert degradations == []


# ----------------------------------------------------- the BFS select path


def test_pinned_closure_matches_full_closure(chunk_everything):
    """Select(Closure) with a pinned endpoint takes the single-source BFS
    fast path; reach/dreach answers must equal the tuple oracle's on a
    graph with rich structure (already covered above) *and* on edge
    cases: empty graphs and self-loops."""
    from repro.structures import graph_structure

    for edges in ([], [(0, 0)], [(0, 1), (1, 0)], [(1, 2), (2, 3)]):
        structure = graph_structure(4, edges)
        for name in ("reach", "dreach", "gap"):
            query = CANONICAL_QUERIES[name]
            assert _relation(query, structure, "columnar") \
                == _relation(query, structure, "tuple"), (name, edges)
