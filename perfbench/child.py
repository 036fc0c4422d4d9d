"""The measured process of the in-process workloads.

Run as ``python3 perfbench/child.py WORKDIR MODE`` by ``run.py``, which
writes ``WORKDIR/config.json`` and the input files first.  ``MODE`` is

* ``setup`` -- set the system up, report readiness, exit;
* ``run``   -- set up, then run the closed loop for ``seconds``;
* ``trace`` -- set up, then run the same loop with spans recorded on
  alternate blocks of ops (``spans.traced_op``): around the public calls
  an op makes, and around the public calls those reach inside the system
  (``Workload.TRACE_TARGETS``).

Readiness is the line ``READY <prep seconds>`` on stdout; the prep
seconds are the benchmark's own input handling inside the child, which
the parent subtracts from the set-up time it measures.  The last stdout
line of a ``run``/``trace`` child is one JSON object of raw records;
``run.py`` turns it into metrics and checks the answers.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import gen
from spans import Tracer, instrument, spans_of, traced_op


def relation_answer(query, columns, rows):
    """The canonical answer of a defined relation, projected to the
    query's variables: an order-free fingerprint for relations, a bool
    for sentences."""
    if not query.variables:
        return bool(rows)
    if tuple(columns) != tuple(query.variables):
        positions = [columns.index(v) for v in query.variables]
        rows = {tuple(row[p] for p in positions) for row in rows}
    return gen.relation_key(rows)


class Loop:
    """The closed loop: one op at a time, each timed alone; checking and
    input preparation happen between the timed calls.  Each record is
    ``[op index, ms or None, error or None, yardstick ms]``: the host's
    speed is taken right after every op (``gen.yardstick_ms``)."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.checks: list[list] = []

    def run(self, seconds: float, next_op) -> None:
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            op, check = next_op(index)
            started = time.perf_counter()
            try:
                answer = op()
            except Exception as error:  # a typed failure is a failed op
                record = [index, None, f"{type(error).__name__}: {error}"]
            else:
                elapsed = time.perf_counter() - started
                record = [index, elapsed * 1e3, None]
                if check is not None:
                    self.checks.append([index, *check(answer)])
            self.records.append([*record, gen.yardstick_ms()])
            index += 1


class Workload:
    """Shared counters: whatever the op callables tally."""

    #: Public calls of the system that a traced run wraps in spans
    #: (``spans.instrument``): the layers an op reaches only through the
    #: entry point it calls.
    TRACE_TARGETS: tuple = ()

    def __init__(self) -> None:
        self.counters = {"degradations": 0, "rows_materialized": 0,
                         "fixpoint_rounds": 0, "codegen_cache_hits": 0,
                         "codegen_calls": 0, "steps": 0}

    def encode(self) -> None:
        """Input preparation that needs the system's imports."""

    def snapshot(self) -> dict:
        return dict(self.counters)

    def finish(self) -> dict:
        return {}


# ------------------------------------------------------------ query-cold


class QueryCold(Workload):
    TRACE_TARGETS = (
        ("repro.logic.eval", "optimize_formula", "logic.optimize.optimize"),
        ("repro.logic.optimize", "compile_formula", "logic.compile.compile"),
        ("repro.logic.codegen", "compiled_columnar", "logic.codegen.compile"),
        ("repro.logic.codegen", "CompiledColumnarPlan.execute",
         "logic.codegen.execute"),
        ("repro.logic.chunked", "execute_chunked", "logic.chunked.execute"),
    )

    def __init__(self, workdir: Path, config: dict) -> None:
        super().__init__()
        self.workdir = workdir
        self.sizes = config["sizes"]
        self.plan = gen.query_cold_plan(config["seed"], self.sizes)

    def setup(self) -> None:
        from repro.core.columnar import DENSE_WIDTH_THRESHOLD
        from repro.logic.eval import ModelChecker
        from repro.logic.optimize import clear_plan_cache
        from repro.logic.queries import CANONICAL_QUERIES
        from repro.structures.structure import load_structure_file

        self.queries = CANONICAL_QUERIES
        self.checker_class = ModelChecker
        self.clear_plan_cache = clear_plan_cache
        self.load = load_structure_file
        self.dense_limit = DENSE_WIDTH_THRESHOLD

    def next_op(self, index: int, tracer: Tracer | None = None):
        ModelChecker, load_structure_file = self.checker_class, self.load
        dense_limit = self.dense_limit
        kind, file_index, name = self.plan[index % len(self.plan)]
        path = self.workdir / f"{kind}-{file_index}.rsnp"
        query = self.queries[name]
        formula = query.formula()
        key = f"{kind}-{file_index}:{name}"
        counters = self.counters
        span = spans_of(tracer)
        # Every op optimizes, as for a structure never seen before: the
        # optimizer's plan cache is keyed by structure statistics, which
        # the generated graphs share in part.
        self.clear_plan_cache()

        def op():
            with span("op"):
                with span("structures.snapshot.load"):
                    structure = load_structure_file(path)
                checker = ModelChecker(structure, backend="columnar")
                columns, rows = checker.defined_relation(formula)
            counters["degradations"] += len(checker.degradations)
            counters["rows_materialized"] += \
                checker.plan_stats.rows_materialized
            counters["fixpoint_rounds"] += checker.plan_stats.fixpoint_rounds
            counters["codegen_cache_hits"] += \
                checker.plan_stats.codegen_cache_hits
            counters["codegen_calls"] += structure.size <= dense_limit
            return columns, rows

        return op, lambda answer: [key, relation_answer(query, *answer)]


# ------------------------------------------------------------ update-mix


class UpdateMix(Workload):
    def __init__(self, workdir: Path, config: dict) -> None:
        super().__init__()
        self.workdir = workdir
        self.every = config["sizes"]["check_every"]
        data = json.loads((workdir / "graph.json").read_text())
        self.graph = gen.Graph(data["n"], map(tuple, data["edges"]),
                               data["universal"])
        self.stream = gen.update_stream(self.graph, config["seed"])

    def setup(self) -> None:
        from repro.logic.eval import ModelChecker
        from repro.logic.queries import CANONICAL_QUERIES
        from repro.structures.changeset import Changeset
        from repro.structures.structure import load_structure_file

        self.changeset = Changeset
        self.queries = {name: CANONICAL_QUERIES[name]
                        for name in gen.UPDATE_QUERIES}
        self.formulas = {name: query.formula()
                         for name, query in self.queries.items()}
        structure = load_structure_file(self.workdir / "graph.rsnp")
        self.checker = ModelChecker(structure, backend="columnar")
        for formula in self.formulas.values():
            self.checker.defined_relation(formula)

    def next_op(self, index: int, tracer: Tracer | None = None):
        kind, edge, name = next(self.stream)
        build = self.changeset.inserting if kind == "insert" \
            else self.changeset.deleting
        changeset = build("E", edge)
        checker, formula, query = self.checker, self.formulas[name], \
            self.queries[name]
        span = spans_of(tracer)

        def op():
            with span("op"):
                with span("logic.ivm.apply_update"):
                    checker.apply_update(changeset)
                with span("logic.eval.read"):
                    return checker.defined_relation(formula)

        check = None
        if index % self.every == 0:
            def check(answer):
                return [name, relation_answer(query, *answer)]
        return op, check

    def snapshot(self) -> dict:
        checker = self.checker
        return {"degradations": len(checker.degradations),
                "rows_materialized": checker.plan_stats.rows_materialized,
                "fixpoint_rounds": checker.plan_stats.fixpoint_rounds,
                **{f"ivm.{key}": value
                   for key, value in checker.ivm_stats.items()}}

    def finish(self) -> dict:
        """Every memoized query on the final state."""
        return {"final": {name: relation_answer(
            query, *self.checker.defined_relation(self.formulas[name]))
            for name, query in self.queries.items()}}


# ---------------------------------------------------------- srl-programs


class SrlPrograms(Workload):
    TRACE_TARGETS = (
        ("repro.core.compiler", "CompiledProgram.__init__",
         "core.compiler.compile"),
    )

    def __init__(self, workdir: Path, config: dict) -> None:
        super().__init__()
        del workdir
        sizes = config["sizes"]
        here = Path(__file__).resolve().parent / "programs"
        self.texts = {name: (here / f"{name}.srl").read_text()
                      for name in gen.SRL_PROGRAMS}
        self.raw = gen.srl_databases(config["seed"], sizes)
        self.schedule = gen.srl_schedule(config["seed"], sizes)

    def setup(self) -> None:
        import repro.core

        self.core = repro.core

    def encode(self) -> None:
        """Build the SRL databases (benchmark input preparation)."""
        from repro.core import Atom, Database, make_set, make_tuple

        def value(kind, data):
            if kind == "atom":
                return Atom(data)
            if kind == "atoms":
                return make_set(*(Atom(v) for v in data))
            if kind == "pairs" or kind == "triples":
                return make_set(*(make_tuple(*(Atom(v) for v in row))
                                  for row in data))
            if kind == "perms":
                return make_set(*(make_tuple(Atom(i), make_tuple(
                    Atom(s), Atom(t))) for i, s, t in data))
            raise ValueError(kind)

        self.databases = {
            name: [Database({key: value(*spec)
                             for key, spec in bindings.items()})
                   for bindings, _ in cases]
            for name, cases in self.raw.items()}
        del self.raw

    def next_op(self, index: int, tracer: Tracer | None = None):
        core = self.core
        name, db_index = next(self.schedule)
        text, database = self.texts[name], self.databases[name][db_index]
        counters = self.counters
        span = spans_of(tracer)

        def op():
            with span("op"):
                with span("core.parser.parse"):
                    program = core.parse_program(text)
                with span("core.typecheck.check"):
                    types = core.database_types(database)
                    core.check_program(program, input_types=types)
                with span("core.restrictions.classify"):
                    restriction = core.strictest_restriction(program, types)
                session = core.Session(program, backend="compiled")
                # Session.run compiles on first use: that part is the
                # core.compiler.compile span inside this one.
                with span("core.engine.run"):
                    value = session.run(database)
            counters["steps"] += session.stats.steps
            return restriction.name, value

        def check(answer):
            restriction, value = answer
            return [f"{name}:{db_index}",
                    gen.digest((restriction, core.value_to_python(value)))]

        return op, check


WORKLOADS = {"query-cold": QueryCold, "update-mix": UpdateMix,
             "srl-programs": SrlPrograms}


def main(argv: list[str]) -> int:
    workdir, mode = Path(argv[0]), argv[1]
    config = json.loads((workdir / "config.json").read_text())
    prep_started = time.perf_counter()
    workload = WORKLOADS[config["workload"]](workdir, config)
    prep = time.perf_counter() - prep_started
    workload.setup()
    encode_started = time.perf_counter()
    workload.encode()
    prep += time.perf_counter() - encode_started
    print(f"READY {prep:.6f}", flush=True)
    if mode == "setup":
        return 0
    # What set-up made -- the imported modules and the inputs -- lives for
    # the whole run, as in a long-lived process that has warmed up; freeze
    # it so that full collections scan only what the ops make, rather than
    # a pause of 15-20 ms over the input data landing on about one op in
    # two hundred and setting the p99.
    gc.collect()
    gc.freeze()

    seconds = config["seconds"]
    result: dict = {}
    loop = Loop()
    if mode == "trace":
        tracer = Tracer()
        instrument(tracer, workload.TRACE_TARGETS)
        before = workload.snapshot()
        loop.run(seconds, lambda index: workload.next_op(
            index, tracer if traced_op(index) else None))
        after = workload.snapshot()
        result["counters"] = {key: value - before.get(key, 0)
                              for key, value in after.items()}
        result["traced_ms"] = [r[1] for r in loop.records
                               if traced_op(r[0]) and r[1] is not None]
        result["untraced_ms"] = [r[1] for r in loop.records
                                 if not traced_op(r[0]) and r[1] is not None]
        result["layers"] = tracer.summary()
    else:
        loop.run(seconds, workload.next_op)
    result["records"] = loop.records
    result["checks"] = loop.checks
    result["finish"] = workload.finish()
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
