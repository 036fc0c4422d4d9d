"""The columnar executor at dense width (P7) vs. the plan interpreter.

The differential corpus in ``test_plan_differential.py`` already proves
row-level agreement four ways; this module pins the executor's machinery:
the compile cache and its hit counter, the representation report, the
degradation record of arity-3 tuple fallbacks, governor parity, the
per-execution memos that hoist loop-invariant work out of fixed points,
and the Session / CLI wiring.
"""

import dataclasses
import hashlib
import itertools
import json
import random
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    and_rows,
    andnot_rows,
    compose,
    count_per_source,
    csr_of_adjacency,
    mask_rows_source,
    mask_rows_target,
    or_rows,
    proj_source,
    proj_target,
    transpose,
)
from repro.core.engine import Session
from repro.core.errors import MemoryLimitExceeded, ResourceLimitExceeded
from repro.core.governor import Budget
from repro.logic import chunked, codegen
from repro.logic.codegen import (
    clear_codegen_cache,
    compile_columnar,
    compiled_columnar,
    execute_columnar,
    last_report,
    representation_of,
)
from repro.logic.compile import compile_formula
from repro.logic.eval import LOGIC_BACKENDS, ModelChecker, define_relation
from repro.logic.formula import (
    MAX,
    ZERO,
    DTCAtom,
    LFPAtom,
    TCAtom,
    VarTerm,
    and_,
    aux,
    count_at_least,
    eq,
    leq,
    neg,
    or_,
    rel,
    var,
)
from repro.logic.optimize import optimize_formula
from repro.logic.plan import (
    Closure,
    Col,
    Comparison,
    Const,
    ExecutionContext,
    PlanStats,
    RelationScan,
    Select,
)
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import (
    graph_structure,
    path_graph,
    random_alternating_graph,
    random_graph,
    save_snapshot,
)
from repro.structures.structure import load_structure_file

TC = TCAtom(("a",), ("b",), rel("E", "a", "b"), (var("x"),), (var("y"),))


def test_columnar_is_a_registered_backend():
    assert "columnar" in LOGIC_BACKENDS


def test_compiled_source_is_inspectable():
    plan = compile_formula(TC)
    compiled = compile_columnar(plan, 8)
    assert compiled.out_tag == "r"  # two columns -> CSR rows
    rows = compiled.execute(path_graph(8))
    context = ExecutionContext(path_graph(8))
    assert rows == plan.execute(context).rows


def test_codegen_cache_key_includes_universe():
    clear_codegen_cache()
    plan = compile_formula(TC)
    stats = PlanStats()
    a = compiled_columnar(plan, 8, stats)
    assert stats.codegen_cache_hits == 0
    b = compiled_columnar(plan, 8, stats)
    assert b is a
    assert stats.codegen_cache_hits == 1
    # A different universe size is a different specialization: no sharing.
    assert compiled_columnar(plan, 9, stats) is not a
    assert stats.codegen_cache_hits == 1


def test_representation_report():
    structure = path_graph(6)
    plan = compile_formula(TC)
    execute_columnar(plan, structure)
    report = last_report()
    assert report["universe"] == 6
    assert report["representations"]["csr"] >= 1
    assert report["tuple_fallbacks"] == []


def test_representation_of_by_arity():
    assert representation_of(1) == "bitset"
    assert representation_of(2) == "csr"
    assert representation_of(3) == "tuples"


def test_arity_three_recorded_as_fallback():
    formula = LFPAtom(
        "R3", ("f1", "f2", "f3"),
        or_(and_(rel("E", "f1", "f2"), rel("E", "f2", "f3")),
            aux("R3", "f1", "f2", "f3")),
        (VarTerm("u"), VarTerm("v"), VarTerm("v")))
    structure = path_graph(5)
    plan = compile_formula(formula, ("u", "v"))
    events = []
    rows = execute_columnar(plan, structure, degradations=events)
    context = ExecutionContext(structure)
    assert rows == plan.execute(context).rows
    fallbacks = [e for e in events if e.stage == "representation"]
    assert fallbacks and all(e.fallback == "tuple" for e in fallbacks)
    assert last_report()["tuple_fallbacks"]


def test_governed_codegen_enforces_row_and_round_budgets():
    """The compiled closure checks the same budget dimensions at the same
    choke points as the interpreter: rows materialized and fixpoint
    rounds."""
    structure = random_graph(12, 0.4, seed=2)
    plan = optimize_formula(TC, structure)
    with pytest.raises(ResourceLimitExceeded):
        execute_columnar(plan, structure,
                         governor=Budget(max_rows_materialized=3).start())
    from repro.logic.formula import exists
    lfp = LFPAtom(
        "R", ("v",),
        or_(eq(var("v"), ZERO),
            exists("u", and_(aux("R", "u"), rel("E", "u", "v")))),
        (var("x"),))
    with pytest.raises(ResourceLimitExceeded):
        execute_columnar(optimize_formula(lfp, structure), structure,
                         governor=Budget(max_fixpoint_rounds=0).start())


def test_columnar_backend_degrades_to_interpreter_not_wrong_answers():
    """A checker on the columnar backend over an interpreter-only shape
    (arity-3 fixed point) records the representation fallback yet answers
    exactly like the oracle."""
    formula = LFPAtom(
        "R3", ("f1", "f2", "f3"),
        or_(and_(rel("E", "f1", "f2"), rel("E", "f2", "f3")),
            aux("R3", "f1", "f2", "f3")),
        (VarTerm("u"), VarTerm("v"), VarTerm("v")))
    structure = path_graph(5)
    want = define_relation(formula, structure, ("u", "v"), backend="tuple")
    got = define_relation(formula, structure, ("u", "v"), backend="columnar")
    assert got == want


def test_complement_queries_on_columnar_backend():
    """The P7 inductive-counting queries: non-reachability (a bitset
    complement) and the reach-half census (popcount per CSR row)."""
    from repro.logic.queries import CANONICAL_QUERIES
    structure = random_graph(10, 0.2, seed=9)
    for name in ("non-reach", "count-reach"):
        query = CANONICAL_QUERIES[name]
        formula = query.formula()
        assert define_relation(formula, structure, query.variables,
                               backend="columnar") == \
            define_relation(formula, structure, query.variables,
                            backend="tuple")


class TestSessionWiring:
    def test_production_sessions_run_columnar(self):
        session = Session()
        assert session.logic_backend == "columnar"
        structure = path_graph(6)
        rows = session.define_relation(TC, structure, ("x", "y"))
        oracle = Session(backend="reference")
        assert rows == oracle.define_relation(TC, structure, ("x", "y"))

    def test_evaluate_formula_parity(self):
        structure = random_graph(7, 0.3, seed=4)
        columnar = Session()
        reference = Session(backend="reference")
        count = count_at_least(2, "y", rel("E", "x", "y"))
        for x in structure.universe:
            assignment = {"x": x}
            assert columnar.evaluate_formula(count, structure, assignment) \
                == reference.evaluate_formula(count, structure, assignment)


def test_checker_memoizes_compiled_relation():
    structure = path_graph(7)
    checker = ModelChecker(structure, backend="columnar")
    checker.evaluate(TC, {"x": 0, "y": 3})
    rows_before = checker.plan_stats.rows_materialized
    checker.evaluate(TC, {"x": 1, "y": 6})
    # Second assignment answered from the cached defined relation: no new
    # plan execution at all.
    assert checker.plan_stats.rows_materialized == rows_before


# ------------------------------------------- per-execution memos (hoisting)


@pytest.fixture(scope="module")
def snapshot_graph(tmp_path_factory):
    """An n=128 alternating graph loaded from an RSNP snapshot, so every
    scan of ``E`` decodes the packed CSR section (``adjacency_of_csr``)."""
    return _snapshot_graph_at(tmp_path_factory.mktemp("codegen")
                              / "alternating.rsnp")


def _compiled(name, structure):
    query = CANONICAL_QUERIES[name]
    plan = optimize_formula(query.formula(), structure, query.variables)
    return compile_columnar(plan, structure.size)


def _spy(monkeypatch, name, calls):
    """Record every ``(argument, result)`` of ``codegen.<name>``; the
    records keep both alive, so their ids stay unique."""
    real = getattr(codegen, name)

    def spy(*args):
        result = real(*args)
        calls.append((args[0], result))
        return result

    monkeypatch.setattr(codegen, name, spy)


def test_dense_apath_does_loop_invariant_work_once(monkeypatch,
                                                    snapshot_graph):
    """One apath execution: ``E`` is decoded from the snapshot once, each
    left operand of a composition is turned into successor lists once,
    and no payload is transposed twice — a converse flipped back is its
    source, not a second transpose."""
    compiled = _compiled("apath", snapshot_graph)
    expected = compiled.execute(snapshot_graph)
    scans, successors, transposes = [], [], []
    _spy(monkeypatch, "adjacency_of_csr", scans)
    _spy(monkeypatch, "successor_lists", successors)
    _spy(monkeypatch, "transpose", transposes)
    stats = PlanStats()
    assert compiled.execute(snapshot_graph, stats=stats) == expected
    assert stats.fixpoint_rounds > 3  # enough rounds for reuse to matter
    assert len(scans) == 1
    assert successors
    lefts = [id(left) for left, _ in successors]
    assert len(set(lefts)) == len(lefts)
    sources = [id(raw) for raw, _ in transposes]
    assert len(set(sources)) == len(sources)
    converses = {id(converse) for _, converse in transposes}
    assert not converses & set(sources)


@pytest.mark.parametrize("name", ["apath", "agap"])
def test_dense_apath_transposes_nothing_inside_fixpoint_rounds(
        monkeypatch, snapshot_graph, name):
    """The permuted scans of ``R`` and ``ΔR`` are converses of the stage
    payloads, the ∀-branch's ``Domain² − Rᵀ`` is the converse of ``¬R``,
    and the joins flip each back to its source: a whole execution stays
    within a budget of a few transposes instead of three per round."""
    compiled = _compiled(name, snapshot_graph)
    expected = compiled.execute(snapshot_graph)
    transposes = []
    _spy(monkeypatch, "transpose", transposes)
    stats = PlanStats()
    assert compiled.execute(snapshot_graph, stats=stats) == expected
    assert stats.fixpoint_rounds > 3
    assert len(transposes) <= 5


def test_a_full_memo_starts_over_without_changing_answers(monkeypatch,
                                                         snapshot_graph):
    plans = {name: _compiled(name, snapshot_graph)
             for name in ("apath", "agap", "gap")}
    expected = {name: plan.execute(snapshot_graph)
                for name, plan in plans.items()}
    monkeypatch.setattr(codegen, "_DERIVED_BYTES", 0)  # capacity: 4 entries
    for name, plan in plans.items():
        assert plan.execute(snapshot_graph) == expected[name]


def test_threads_running_one_compiled_plan_agree(monkeypatch,
                                                 snapshot_graph):
    """Inline-mode service threads execute one cached compiled plan at
    once; every execution builds its own representation and memos, so
    answers never mix and no memo outlives its execution."""
    built = []

    class Recording(codegen._Dense):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr(codegen, "_Dense", Recording)
    plans = {name: _compiled(name, snapshot_graph) for name in ("apath", "tc")}
    expected = {name: plan.execute(snapshot_graph)
                for name, plan in plans.items()}
    mismatches = []

    def run():
        for _ in range(4):
            for name, plan in plans.items():
                if plan.execute(snapshot_graph) != expected[name]:
                    mismatches.append(name)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not mismatches
    assert len(built) == len(plans) * (1 + 2 * 4)


# ------------------------------------------------------- converse payloads


@pytest.mark.parametrize("seed", range(6))
def test_converse_payloads_agree_with_their_rows(seed):
    """Every dense kernel gives the same relation, count and byte size
    whether an operand is a row list, the converse of its transpose, or
    (for the two-sided kernels) the square ``Domain²``."""
    rng = random.Random(seed)
    n = 3 + seed * 3
    cols = codegen._Dense(n)
    rows2 = cols.rows2

    def relation():
        density = rng.random()
        return [sum(1 << y for y in range(n) if rng.random() < density)
                for _ in range(n)]

    def forms(rows):
        return [rows, codegen._Converse(transpose(rows, n))]

    a, b = relation(), relation()
    mask = rng.getrandbits(n)
    for x in forms(a):
        assert cols.count2(x) == cols.count2(a)
        assert cols.nbytes2(x) == cols.nbytes2(a)
        assert cols.nonempty2(x) == cols.nonempty2(a)
        assert rows2(cols.transpose(cols.transpose(x))) == rows2(a)
        assert rows2(cols.transpose(x)) == rows2(transpose(a, n))
        assert cols.proj_source(x) == proj_source(a)
        assert cols.proj_target(x) == proj_target(a)
        assert rows2(cols.mask_source(x, mask)) \
            == rows2(mask_rows_source(a, mask))
        assert rows2(cols.mask_target(x, mask)) \
            == rows2(mask_rows_target(a, mask))
        assert cols.count_per_source(x, 2) == count_per_source(a, 2)
        for y, plain in [(y, b) for y in forms(b)] + [(cols.full2(),
                                                       cols.full2())]:
            pair = (x, y)
            assert rows2(cols.minus2(*pair)) == rows2(andnot_rows(a, plain))
            assert rows2(cols.and2(*pair)) == rows2(and_rows(a, plain))
            assert rows2(cols.union2(pair)) == rows2(or_rows((a, plain)))
            assert rows2(cols.merge2(*pair)) == rows2(or_rows((a, plain)))
            assert rows2(cols.compose(*pair)) == rows2(compose(a, plain))
            result = cols.minus2(y, x)
            assert cols.nbytes2(result) \
                == cols.nbytes2(andnot_rows(plain, a))


# ------------------------------------------------ row building and bytes


@st.composite
def _adjacencies(draw):
    """Bitmask rows over a width that need not be a multiple of 8, with
    empty rows, rows holding only bit ``n - 1``, and arbitrary rows."""
    n = draw(st.integers(1, 40))
    full = (1 << n) - 1
    row = st.one_of(st.just(0), st.just(1 << (n - 1)), st.just(full),
                    st.integers(0, full))
    return n, draw(st.lists(row, min_size=n, max_size=n))


@given(_adjacencies())
@settings(max_examples=150, deadline=None)
def test_rows_of_payloads_match_brute_force(case):
    n, adjacency = case
    expected = {(x, y) for x in range(n) for y in range(n)
                if adjacency[x] >> y & 1}
    dense = codegen._Dense(n)
    assert dense.rows2(adjacency) == expected
    assert dense.rows2(dense.transpose(adjacency)) == \
        {(y, x) for x, y in expected}
    wide = chunked._Wide(n)
    assert wide.rows2(wide.of_pairs(expected)) == expected
    assert wide.rows2(csr_of_adjacency(adjacency)) == expected


@given(_adjacencies())
@settings(max_examples=150, deadline=None)
def test_dense_bytes_never_pass_the_ceiling(case):
    """The bound that lets :meth:`_Walker.note` stop sizing payloads once
    both byte peaks hold it, and ``Domain²`` meets it."""
    n, adjacency = case
    cols = codegen._Dense(n)
    ceiling = cols.bytes_ceiling
    assert cols.nbytes2(adjacency) <= ceiling
    assert cols.nbytes2(cols.transpose(adjacency)) <= ceiling
    assert cols.nbytes2(cols.full2()) == ceiling
    assert cols.nbytes2(codegen._Converse(cols.full2())) == ceiling


def test_byte_budget_trips_below_the_ceiling_only(snapshot_graph):
    """agap reaches the ceiling: a budget at it never trips, and one byte
    less trips on the same payload, with the same error, as it did while
    every payload was sized."""
    compiled = _compiled("agap", snapshot_graph)
    ceiling = codegen._Dense(snapshot_graph.size).bytes_ceiling
    assert ceiling == 3072
    stats = PlanStats()
    compiled.execute(snapshot_graph, stats=stats,
                     governor=Budget(max_bytes_resident=ceiling).start(stats))
    assert stats.bytes_resident == ceiling
    stats = PlanStats()
    with pytest.raises(MemoryLimitExceeded) as caught:
        compiled.execute(snapshot_graph, stats=stats, governor=Budget(
            max_bytes_resident=ceiling - 1).start(stats))
    error = caught.value
    assert (error.limit, error.used) == (ceiling - 1, ceiling)
    assert error.stats.rows_materialized == 26738
    # A governor whose peak already holds the ceiling, under a budget
    # below it, still sizes every payload and trips again.
    governor = Budget(max_bytes_resident=ceiling - 1).start()
    governor.note_bytes(ceiling - 1)
    with pytest.raises(MemoryLimitExceeded):
        governor.note_bytes(ceiling)
    with pytest.raises(MemoryLimitExceeded) as caught:
        compiled.execute(snapshot_graph, governor=governor)
    assert (caught.value.limit, caught.value.used) == (ceiling - 1, ceiling)


# ------------------------------------------------------------ pinned reach

#: A graph with deterministic chains both ways: TC reaches 0,1,2,3,4,5,9
#: from 0 and 0,1,2,3,6,7,9 backwards from 9; DTC only 0,1,2 and 3,6,7,9.
REACH_EDGES = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 9), (4, 5), (5, 5),
               (6, 9), (7, 6), (8, 8)]

_TERMS = {0: var("x"), 1: var("y")}


def _term(ref):
    if isinstance(ref, Col):
        return _TERMS[ref.index]
    return ZERO if ref.which == "zero" else MAX


def _comparison_formula(comparison):
    left, right = _term(comparison.left), _term(comparison.right)
    return {"eq": lambda: eq(left, right),
            "ne": lambda: neg(eq(left, right)),
            "leq": lambda: leq(left, right),
            "gt": lambda: neg(leq(left, right))}[comparison.op]()


def _pinned_reach_cases():
    """``(pin, extra)`` comparison tuples: a pinning equality on the source
    (0) or target (max), then one of eq/ne/leq/gt against zero/max, on the
    pinned or the free column, either way round, with or without a
    two-column comparison."""
    pairs = (Comparison("leq", Col(0), Col(1)),
             Comparison("ne", Col(1), Col(0)))
    cases = []
    for pinned, const in ((0, "zero"), (1, "max")):
        pin = Comparison("eq", Col(pinned), Const(const))
        for i, (op, which, column, flipped, with_pair) in enumerate(
                itertools.product(("eq", "ne", "leq", "gt"), ("zero", "max"),
                                  (pinned, 1 - pinned), (False, True),
                                  (False, True))):
            sides = (Col(column), Const(which))
            extra = (Comparison(op, *(sides[::-1] if flipped else sides)),)
            if with_pair:
                extra += (pairs[i % 2],)
            cases.append((pin,) + extra)
    return cases


@pytest.mark.parametrize("width", ["dense", "wide"])
@pytest.mark.parametrize("deterministic", [False, True])
def test_pinned_reach_matrix_matches_the_tuple_backend(monkeypatch, width,
                                                        deterministic):
    if width == "wide":
        monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)
    structure = graph_structure(10, REACH_EDGES)
    closure_atom = DTCAtom if deterministic else TCAtom
    closure = Closure(RelationScan("E", ("a", "b")), 1, deterministic)
    reaches = []
    real_reach = codegen._eval_reach
    monkeypatch.setattr(codegen, "_eval_reach",
                        lambda *args: reaches.append(1) or real_reach(*args))
    for comparisons in _pinned_reach_cases():
        formula = and_(closure_atom(("a",), ("b",), rel("E", "a", "b"),
                                    (var("x"),), (var("y"),)),
                       *map(_comparison_formula, comparisons))
        want = define_relation(formula, structure, ("x", "y"),
                               backend="tuple")
        got = execute_columnar(Select(closure, comparisons), structure)
        assert got == want, comparisons
    assert len(reaches) == len(_pinned_reach_cases())


@pytest.mark.parametrize("width", ["dense", "wide"])
def test_pinned_reach_filters_without_a_per_vertex_predicate(monkeypatch,
                                                              width):
    """Comparisons on one column become a check of the pinned value and a
    mask of the reached vertices; ``Comparison.evaluate`` runs per row only
    for two-column comparisons."""
    if width == "wide":
        monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)
    structure = path_graph(40)
    closure = Closure(RelationScan("E", ("a", "b")), 1, False)
    calls = []
    real_evaluate = Comparison.evaluate
    monkeypatch.setattr(Comparison, "evaluate",
                        lambda self, row, size: calls.append(row)
                        or real_evaluate(self, row, size))
    single = (Comparison("eq", Col(0), Const("zero")),
              Comparison("ne", Col(1), Const("max")),
              Comparison("gt", Col(1), Const("zero")))
    assert execute_columnar(Select(closure, single), structure) == \
        {(0, y) for y in range(1, 39)}
    assert calls == []
    pair = single[:1] + (Comparison("eq", Col(0), Col(1)),)
    assert execute_columnar(Select(closure, pair), structure) == {(0, 0)}
    assert len(calls) == 40  # one per reached vertex


# ------------------------------------------------ dense canonical golden

#: Answers (row count and the SHA-256 of the sorted rows as JSON) and every
#: ``PlanStats`` field of the ten canonical queries, executed once each at
#: dense width on the ``snapshot_graph`` structure.
DENSE_GOLDEN = Path(__file__).resolve().parent / "dense_canonical_golden.json"

DENSE_CANONICAL = ("tc", "dtc", "apath", "agap", "gap", "reach", "dreach",
                   "half-out", "non-reach", "count-reach")


def _snapshot_graph_at(path):
    save_snapshot(random_alternating_graph(128, edge_probability=0.03,
                                           seed=3), path)
    return load_structure_file(path)


def dense_canonical_table(structure) -> dict[str, dict]:
    table = {}
    for name in DENSE_CANONICAL:
        stats = PlanStats()
        rows = sorted(map(list, _compiled(name, structure).execute(
            structure, stats=stats)))
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        table[name] = {"rows": len(rows), "sha256": digest,
                       "stats": dataclasses.asdict(stats)}
    return table


def test_dense_canonical_answers_and_counters_match_the_golden_file(
        snapshot_graph):
    """Representation changes inside the dense executor leave every answer
    and every counter alone (regenerate only for an intended change)::

        PYTHONPATH=src python tests/logic/test_codegen.py > tests/logic/dense_canonical_golden.json
    """
    golden = json.loads(DENSE_GOLDEN.read_text())
    table = dense_canonical_table(snapshot_graph)
    assert sorted(table) == sorted(golden)
    for name, entry in golden.items():
        assert table[name] == entry, name


@pytest.mark.parametrize("name", DENSE_CANONICAL)
def test_governed_runs_keep_the_golden_counters_and_byte_peaks(
        snapshot_graph, name):
    """Under a governor the ``PlanStats`` are still the golden ones, and
    the governor's byte peak equals ``bytes_resident``: skipping the
    byte sums past the ceiling loses neither peak."""
    entry = json.loads(DENSE_GOLDEN.read_text())[name]
    stats = PlanStats()
    governor = Budget(max_rows_materialized=10 ** 12).start(stats)
    _compiled(name, snapshot_graph).execute(snapshot_graph, stats=stats,
                                            governor=governor)
    assert dataclasses.asdict(stats) == entry["stats"]
    assert governor.bytes_resident == entry["stats"]["bytes_resident"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        graph = _snapshot_graph_at(Path(scratch) / "alternating.rsnp")
        json.dump(dense_canonical_table(graph), sys.stdout, indent=1,
                  sort_keys=True)
    sys.stdout.write("\n")
