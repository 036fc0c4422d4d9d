"""``python -m repro`` — run an SRL source file, or a logic query, through
the full pipeline.

The default form drives the same :class:`~repro.core.engine.Session`
facade the rest of the repo uses: parse the program, type-check it,
classify it against the paper's syntactic restrictions, execute it on the
selected backend, and print the result together with the engine's
:class:`EvaluationStats`.

Usage::

    python -m repro program.srl [--db database.json] [--backend compiled]
                                [--no-stdlib] [--max-steps N] [--quiet]

The database file is a JSON object mapping input names to values: ``true``
/ ``false`` are booleans, bare integers are atom ranks, an untagged array
is a *set* whose untagged array elements are *tuples* (so a binary relation
is just ``"EDGES": [[0, 1], [1, 2]]``), and deeper nesting uses the tagged
forms ``{"atom": r}``, ``{"nat": n}``, ``{"set": [...]}``,
``{"tuple": [...]}`` and ``{"list": [...]}``.

The ``logic`` subcommand evaluates one of the canonical FO(+TC/DTC/LFP)
queries of :data:`repro.logic.queries.CANONICAL_QUERIES` over a
JSON-encoded finite structure and prints the defined relation::

    python -m repro logic tc --structure graph.json
                             [--backend plan|columnar|tuple]
                             [--explain] [--list]

The structure file uses the same JSON shape as the database file (the
relation names become the structure's relations; a set ``"D"`` of atoms,
when present, fixes the universe size — exactly what
:func:`repro.structures.structure.from_database` reads).  A binary
snapshot file (magic ``RSNP``, any extension — ``.snap`` by convention)
is detected by its leading bytes and loaded through
:func:`repro.structures.snapshot.load_structure` instead: relations stay
in their packed mmap views, so million-edge structures open in
milliseconds without materializing tuple sets.

The ``snapshot`` subcommand builds and inspects those files::

    python -m repro snapshot build out.snap --zoo clustered clusters=8000
    python -m repro snapshot build out.snap --edges edges.json [--size N]
    python -m repro snapshot build out.snap --structure graph.json
    python -m repro snapshot info out.snap

The ``serve`` subcommand starts the long-lived query service (resident
structures, supervised worker pool, HTTP/JSON endpoints — see
``repro.service``)::

    python -m repro serve --load g=graph.snap [--port 8377] [--workers 2]

Long-running subcommands exit cleanly on SIGINT/SIGTERM: the first
signal cancels the evaluation cooperatively (exit code 3, partial stats
on stderr), a second one falls back to the blunt default.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import (
    BACKENDS,
    Database,
    EvaluationLimits,
    Session,
    parse_program,
    with_standard_library,
)
from repro.core.engine import database_from_json
from repro.core.errors import (
    InvalidDatabaseError,
    ResourceLimitExceeded,
    RestrictionViolation,
    SRLError,
    SRLNameError,
    SRLSyntaxError,
    SRLTypeError,
)
from repro.core.governor import Budget, CancelToken, cancel_on_signals
from repro.core.restrictions import program_facts, strictest_for
from repro.core.typecheck import check_program, database_types
from repro.core.values import format_value

#: The CLI's exit-code taxonomy (documented in README):
#: 2 — the input is at fault (parse / type / restriction errors, malformed
#:     database or structure JSON, unreadable files, usage errors);
#: 3 — a resource budget stopped the run (deadline, --max-rows, cancel):
#:     the query may well succeed with a bigger budget;
#: 4 — the engine is at fault (runtime/internal errors).
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_INPUT_ERRORS = (SRLSyntaxError, SRLTypeError, SRLNameError,
                 RestrictionViolation, InvalidDatabaseError,
                 OSError, json.JSONDecodeError)


def _report(error: Exception) -> int:
    """Print ``error`` and pick the exit code for its failure class."""
    if isinstance(error, ResourceLimitExceeded):
        print(f"error: resource limit exceeded: {error}", file=sys.stderr)
        stats = getattr(error, "stats", None)
        if stats is not None:
            print("partial stats: " + ", ".join(
                f"{key}={count}" for key, count in stats.as_dict().items()
            ), file=sys.stderr)
        return EXIT_RESOURCE
    print(f"error: {error}", file=sys.stderr)
    if isinstance(error, _INPUT_ERRORS):
        return EXIT_INPUT
    return EXIT_INTERNAL


def _build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parse, type-check, restriction-check and run an SRL program.",
        epilog="Subcommands: 'python -m repro logic <query> --structure s' "
               "evaluates a canonical FO(+TC/DTC/LFP) query over a JSON or "
               "snapshot structure; 'python -m repro snapshot build/info' "
               "manages binary snapshots (see each subcommand's --help); a "
               "program file literally named 'logic' or 'snapshot' can be "
               "run as './logic'.",
    )
    parser.add_argument("program", type=Path,
                        help="SRL source file (s-expression syntax)")
    parser.add_argument("--db", type=Path, default=None,
                        help="JSON database file supplying the input sets/relations")
    parser.add_argument("--backend", choices=BACKENDS, default="compiled",
                        help="execution backend (default: compiled, which "
                             "runs any program); 'interp' is the tree-walking "
                             "interpreter, whose steps count AST-node visits, "
                             "'reference' the interpreter with the oracle logic "
                             "kernels (naive fixed points, tuple-at-a-time)")
    parser.add_argument("--no-stdlib", action="store_true",
                        help="do not add the Fact 2.4 standard library definitions")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="abort after this many evaluation steps")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="abort the run after this much wall-clock time "
                             "(exit code 3)")
    parser.add_argument("--skip-checks", action="store_true",
                        help="skip the type and restriction checks, just run")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the result value")
    return parser


def _build_logic_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro logic",
        description="Evaluate a canonical FO(+TC/DTC/LFP) query over a "
                    "JSON-encoded finite structure.",
    )
    parser.add_argument("query", nargs="?", default=None,
                        help="query name from repro.logic.queries."
                             "CANONICAL_QUERIES (see --list)")
    parser.add_argument("--structure", type=Path, default=None,
                        help="structure file: JSON (database shape: relation "
                             "name -> array of tuples, optional domain 'D') "
                             "or a binary snapshot ('snapshot build'), "
                             "detected by its RSNP magic")
    parser.add_argument("--backend", choices=("plan", "columnar", "tuple"),
                        default="columnar",
                        help="logic evaluation strategy (default: columnar — "
                             "optimized set-at-a-time plans run on bitset/CSR "
                             "kernels; plan runs the same plans on the plan "
                             "interpreter; tuple is the enumeration oracle)")
    parser.add_argument("--explain", action="store_true",
                        help="also print the formula and its compiled plan "
                             "(on the plan backends: the logical plan next "
                             "to the optimized plan, annotated with "
                             "estimated cardinalities)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="abort the query after this much wall-clock time "
                             "(exit code 3)")
    parser.add_argument("--max-rows", type=int, default=None, metavar="N",
                        help="abort once the plan backend has materialized "
                             "more than N rows (exit code 3)")
    parser.add_argument("--max-bytes", type=int, default=None, metavar="N",
                        help="abort once the packed working set of the "
                             "big-n columnar backend exceeds N resident "
                             "bytes (exit code 3)")
    parser.add_argument("--stats", action="store_true",
                        help="also print the plan execution counters (rows "
                             "materialized, index probes, fixpoint rounds, "
                             "peak resident rows/bytes) and any degradation "
                             "events (e.g. a columnar universe-cap fallback)")
    parser.add_argument("--updates", type=Path, default=None, metavar="FILE",
                        help="JSON update sequence (a list of {op, relation, "
                             "row} objects, op one of insert/delete/+/-): "
                             "evaluate the query, apply the updates with "
                             "incremental view maintenance, and report the "
                             "maintained relation")
    parser.add_argument("--list", action="store_true",
                        help="list the available queries and exit")
    return parser


def _load_structure_file(path: Path):
    """A structure from either encoding: binary snapshots are recognized
    by their leading ``RSNP`` magic, anything else parses as the JSON
    database shape (shared with the query-service workers)."""
    from repro.structures.structure import load_structure_file

    return load_structure_file(path)


def logic_main(argv: list[str]) -> int:
    from repro.logic.plan import PlanStats
    from repro.logic.queries import CANONICAL_QUERIES

    args = _build_logic_argument_parser().parse_args(argv)

    if args.list:
        width = max(len(name) for name in CANONICAL_QUERIES)
        for name, query in sorted(CANONICAL_QUERIES.items()):
            layout = ", ".join(query.variables) if query.variables else "sentence"
            print(f"{name:<{width}}  ({layout})  {query.description}")
        return 0

    if args.query is None:
        print("error: a query name is required (try --list)", file=sys.stderr)
        return EXIT_INPUT
    query = CANONICAL_QUERIES.get(args.query)
    if query is None:
        print(f"error: unknown query {args.query!r}; known: "
              f"{', '.join(sorted(CANONICAL_QUERIES))}", file=sys.stderr)
        return EXIT_INPUT
    if args.structure is None:
        print("error: --structure structure.json is required", file=sys.stderr)
        return EXIT_INPUT

    # The counters are plan-execution counters; the tuple oracle never
    # touches them, so --stats would print misleading zeros there.  They
    # are always *collected* on the plan backend, so a run stopped by the
    # budget can report its partial progress.
    stats = PlanStats() if args.backend in ("plan", "columnar") else None
    if args.stats and stats is None:
        print("warning: --stats counts plan executions; the tuple backend "
              "records nothing", file=sys.stderr)
    # Ctrl-C / SIGTERM land as cooperative cancellation: the governor
    # raises EvaluationCancelled at its next checkpoint, which _report
    # turns into exit 3 with the partial stats — not a KeyboardInterrupt
    # traceback.  A second signal falls back to the blunt default.
    token = CancelToken()
    budget = Budget(deadline_seconds=args.timeout,
                    max_rows_materialized=args.max_rows,
                    max_bytes_resident=args.max_bytes,
                    cancel_token=token)
    degradations: list = []
    with cancel_on_signals(token):
        return _logic_run(args, query, stats, budget, degradations)


def _logic_run(args, query, stats, budget, degradations: list) -> int:
    from repro.logic.compile import PlanCompilationError, explain
    from repro.logic.eval import define_relation
    from repro.logic.optimize import explain_optimized

    try:
        structure = _load_structure_file(args.structure)
        formula = query.formula()
        if args.explain:
            if args.backend in ("plan", "columnar"):
                print(explain_optimized(formula, structure, query.variables))
            else:
                print(explain(formula, query.variables))
        ivm_summary = None
        net = None
        if args.updates is not None:
            from repro.logic.eval import ModelChecker
            from repro.structures.changeset import Changeset

            updates = Changeset.from_json(
                json.loads(args.updates.read_text()))
            checker = ModelChecker(structure, backend=args.backend,
                                   budget=budget)
            checker.plan_stats = stats
            checker.degradations = degradations
            checker.defined_relation(formula, query.variables)
            net = checker.apply_update(updates)
            _, relation = checker.defined_relation(formula, query.variables)
            ivm_summary = dict(checker.ivm_stats)
        else:
            relation = define_relation(formula, structure, query.variables,
                                       backend=args.backend,
                                       stats=stats, budget=budget,
                                       degradations=degradations)
    except PlanCompilationError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except (SRLError, OSError, json.JSONDecodeError, ValueError) as error:
        return _report(error)

    if degradations:
        ladder = ", ".join(f"{event.stage}->{event.fallback}"
                           for event in degradations)
        print(f"note: degraded mid-run ({ladder}); the result is exact "
              "(--stats shows the causes)", file=sys.stderr)
    print(f"query:       {args.query} over n = {structure.size} "
          f"({args.backend} backend)")
    if ivm_summary is not None:
        inserts = sum(1 for change in net if change.op == "insert")
        maintained = ", ".join(f"{name}={count}" for name, count
                               in sorted(ivm_summary.items()))
        print(f"updates:     {len(net)} net changes "
              f"(+{inserts}/-{len(net) - inserts}); "
              f"maintenance: {maintained or 'no memo touched'}")
    if args.stats and stats is not None:
        print("stats:       " + ", ".join(
            f"{key}={count}" for key, count in stats.as_dict().items()
        ))
        meta = structure.stats()
        print(f"structure:   size={meta['size']}, "
              f"intern_entries={meta['intern_entries']}, "
              f"interned={meta['interned']}")
        if args.backend == "columnar":
            from repro.logic.codegen import last_report, representation_of
            reps = ", ".join(
                f"{name}={representation_of(structure.vocabulary.arity(name))}"
                for name in sorted(structure.relations))
            print(f"columnar:    {reps or 'no relations'}")
            report = last_report()
            if report is not None:
                kinds = ", ".join(f"{kind}={count}" for kind, count
                                  in report["representations"].items() if count)
                print(f"codegen:     universe={report['universe']}, "
                      f"{kinds or 'no scans'}")
                if report["tuple_fallbacks"]:
                    print("fallbacks:   "
                          + ", ".join(report["tuple_fallbacks"]))
    if args.stats:
        for event in degradations:
            print(f"degraded:    {event.stage} -> {event.fallback} "
                  f"({event.error})")
    if not query.variables:
        print(f"result:      {() in relation}")
        return 0
    print(f"columns:     ({', '.join(query.variables)})")
    print(f"rows:        {len(relation)}")
    for row in sorted(relation):
        print("  " + " ".join(str(value) for value in row))
    return 0


def _build_snapshot_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro snapshot",
        description="Build and inspect binary structure snapshots "
                    "(packed bitset/CSR relations, mmap-loadable).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    build = commands.add_parser(
        "build", help="stream a graph into a snapshot file")
    build.add_argument("output", type=Path, help="snapshot file to write")
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", type=Path, metavar="FILE",
                        help="JSON array of [u, v] pairs (ranks with "
                             "--size, otherwise labels interned in "
                             "first-occurrence order)")
    source.add_argument("--structure", type=Path, metavar="FILE",
                        help="JSON structure file (database shape) to "
                             "convert wholesale")
    source.add_argument("--zoo", nargs="+", metavar="FAMILY|KEY=VALUE",
                        help="generate from repro.structures.zoo: a family "
                             "name then key=value parameters, e.g. "
                             "'--zoo clustered clusters=8000 seed=1'")
    build.add_argument("--size", type=int, default=None, metavar="N",
                       help="universe size for --edges (components are "
                            "then ranks in 0..N-1)")
    build.add_argument("--relation", default="E", metavar="NAME",
                       help="relation name for --edges/--zoo (default: E)")
    info = commands.add_parser("info", help="print a snapshot's header")
    info.add_argument("snapshot", type=Path, help="snapshot file to inspect")
    return parser


def _zoo_stream(spec: list[str]):
    """``['clustered', 'clusters=8000']`` -> the family's ``(edge stream,
    universe size)``; raises ``ValueError`` on unknown families/keys."""
    from repro.structures.zoo import ZOO

    family = ZOO.get(spec[0])
    if family is None:
        raise ValueError(f"unknown zoo family {spec[0]!r}; known: "
                         f"{', '.join(sorted(ZOO))}")
    parameters = {}
    for item in spec[1:]:
        key, separator, raw = item.partition("=")
        if not separator:
            raise ValueError(f"zoo parameter {item!r} is not KEY=VALUE")
        parameters[key] = float(raw) if key == "probability" else int(raw)
    try:
        return family(**parameters)
    except TypeError as error:
        raise ValueError(f"bad parameters for zoo family {spec[0]!r}: "
                         f"{error}") from error


def _cancellable_stream(stream, token: CancelToken, every: int = 4096):
    """Yield ``stream``'s edges, checking the cancel token every ``every``
    edges — the choke point that lets Ctrl-C stop a million-edge
    ``snapshot build`` as a typed exit-3 instead of a traceback."""
    from repro.core.errors import EvaluationCancelled

    countdown = every
    for edge in stream:
        countdown -= 1
        if countdown <= 0:
            countdown = every
            if token.cancelled:
                raise EvaluationCancelled()
        yield edge
    if token.cancelled:
        raise EvaluationCancelled()


def snapshot_main(argv: list[str]) -> int:
    from repro.structures.snapshot import (
        build_snapshot,
        load_snapshot,
        save_snapshot,
    )

    args = _build_snapshot_argument_parser().parse_args(argv)
    token = CancelToken()
    try:
        if args.command == "info":
            with load_snapshot(args.snapshot) as snapshot:
                print(json.dumps(snapshot.info(), indent=2, default=str))
            return 0
        with cancel_on_signals(token):
            if args.zoo is not None:
                stream, size = _zoo_stream(args.zoo)
                header = build_snapshot(
                    _cancellable_stream(stream, token), args.output,
                    relation=args.relation, size=size)
            elif args.edges is not None:
                pairs = json.loads(args.edges.read_text())
                header = build_snapshot(
                    _cancellable_stream(pairs, token), args.output,
                    relation=args.relation, size=args.size)
            else:
                structure = _load_structure_file(args.structure)
                header = save_snapshot(structure, args.output)
        rows = sum(entry["rows"]
                   for entry in header.get("relations", {}).values())
        print(f"wrote {args.output}: n = {header['size']}, "
              f"{rows} rows across "
              f"{len(header.get('relations', {}))} relation(s)")
        return 0
    except (SRLError, OSError, json.JSONDecodeError) as error:
        return _report(error)
    except ValueError as error:
        # Bad zoo/edge parameters are the caller's fault, not the engine's.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "logic":
        return logic_main(argv[1:])
    if argv and argv[0] == "snapshot":
        return snapshot_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.server import serve_main

        return serve_main(argv[1:])
    args = _build_argument_parser().parse_args(argv)

    try:
        source = args.program.read_text()
    except OSError as error:
        print(f"error: cannot read {args.program}: {error}", file=sys.stderr)
        return EXIT_INPUT

    try:
        database = Database()
        if args.db is not None:
            database = database_from_json(json.loads(args.db.read_text()))
        program = parse_program(source)
        if not args.no_stdlib:
            with_standard_library(program)
        if program.main is None:
            print("error: the program has no main expression to run", file=sys.stderr)
            return EXIT_INPUT

        if not args.skip_checks:
            types = database_types(database)
            report = check_program(program, input_types=types)
            restriction = strictest_for(program_facts(program, types, report=report))
            if not args.quiet:
                print(f"type:        {report.result_type}")
                print(f"restriction: {restriction.name} "
                      f"({restriction.complexity_class}, {restriction.paper_reference})")

        limits = EvaluationLimits(max_steps=args.max_steps) \
            if args.max_steps is not None else None
        token = CancelToken()
        budget = Budget(deadline_seconds=args.timeout, cancel_token=token)
        session = Session(program, limits=limits, backend=args.backend,
                          budget=budget)
        with cancel_on_signals(token):
            value = session.run(database)
    except (SRLError, OSError, json.JSONDecodeError) as error:
        return _report(error)

    if args.quiet:
        print(format_value(value))
        return 0
    print(f"backend:     {args.backend}")
    print(f"result:      {format_value(value)}")
    print("stats:       " + ", ".join(
        f"{key}={count}" for key, count in session.stats.as_dict().items()
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
