"""The program corpus behind the classifier golden table.

Every program the repository ships — the query library, the compiled
Turing-machine program, the benchmark's ``.srl`` programs and the
quickstart example's program — is classified with its database types and
untyped.  :func:`classifier_table` records, for each, the violation list
of every restriction, the strictest restriction and every
:class:`~repro.core.analysis.ProgramAnalysis` field.
``tests/core/test_restrictions.py`` compares that table with the committed
``classifier_golden.json``, which was recorded before the restriction
rules and ``analyze`` shared one set of program facts; the test lists the
analysis fields that were meant to change then.

Regenerate the JSON (only when a classification change is intended and
explained) with::

    PYTHONPATH=src python tests/core/classifier_corpus.py > tests/core/classifier_golden.json
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.core import builders as b
from repro.core import (
    Atom,
    Database,
    analyze,
    database_types,
    make_set,
    make_tuple,
    parse_program,
    standard_library,
    with_standard_library,
)
from repro.core.errors import SRLError
from repro.core.restrictions import ALL_RESTRICTIONS, strictest_restriction
from repro.machines.compile_srl import compile_machine
from repro.machines.programs import parity_machine
from repro.queries import (
    agap_database,
    agap_program,
    apath_program,
    arithmetic_program,
    cardinality_parity_program,
    deterministic_reachability_program,
    even_database,
    even_program,
    graph_database,
    im_database,
    im_program,
    ip_program,
    powerset_database,
    powerset_program,
    reachability_program,
)
from repro.queries.arithmetic_basrl import arithmetic_database
from repro.queries.powerset import doubling_list_program
from repro.queries.relational import (
    build_company_data,
    colleague_pairs_program,
    company_database,
    departments_fully_senior_program,
    employees_in_department_program,
    first_employee_is_senior_program,
)
from repro.structures import path_graph, random_alternating_graph, random_permutations

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "classifier_golden.json"

#: The program of ``examples/quickstart.py``: does every node have a successor?
QUICKSTART = """
(define (has-successor x)
  (set-reduce EDGES (lambda (e xx) (= (sel 1 e) xx))
                    (lambda (a r) (or a r))
                    false x))

(set-reduce NODES (lambda (x e) (has-successor x))
                  (lambda (a r) (and a r))
                  true emptyset)
"""


def _with_main(program, main):
    """A definition library given a main expression that calls it."""
    program.main = main
    return program


def _arithmetic_main():
    """Every arithmetic definition, called on elements of ``D``."""
    zero = b.var("ZERO")
    one = b.call("increment", zero)
    two = b.call("increment", one)
    three = b.call("increment", two)
    return b.tup(b.call("add", one, two), b.call("mult", two, two),
                 b.call("expn", two, one), b.call("decrement", b.call("shift", three)),
                 b.call("parity", three), b.call("rem", two, three),
                 b.call("bit", zero, three))


def _atoms(*values):
    return make_set(*(Atom(v) for v in values))


def _rows(*rows):
    return make_set(*(make_tuple(*(Atom(v) for v in row)) for row in rows))


def _perfbench_databases() -> dict[str, Database]:
    graph = {"NODES": _atoms(0, 1, 2), "EDGES": _rows((0, 1), (1, 2)),
             "SOURCE": Atom(0), "TARGET": Atom(2)}
    perms = make_set(*(make_tuple(Atom(i), make_tuple(Atom(s), Atom(t)))
                       for i, perm in enumerate([[1, 0], [0, 1]])
                       for s, t in enumerate(perm)))
    return {
        "reach": Database(graph),
        "dreach": Database(graph),
        "agap": Database({**graph, "ANDS": _atoms(1)}),
        "powerset": Database({"S": _atoms(0, 1)}),
        "perm-product": Database({"D": _atoms(0, 1, 2), "ZERO": Atom(0), "PERMS": perms,
                                  "START": Atom(0), "TARGET": Atom(1)}),
        "company-join": Database({"EMP": _rows((100, 0, 1), (101, 0, 2))}),
    }


def corpus() -> dict[str, tuple]:
    """``name -> (program, database or None)``."""
    graph = random_alternating_graph(5, seed=0)
    perms = random_permutations(3, 4, seed=0)
    im_db = im_database(perms, 0)
    im_db.bind("TARGET", Atom(0))
    company = company_database(build_company_data())
    powerset_db = powerset_database(3)
    compiled = compile_machine(parity_machine())
    programs = {
        "stdlib": (standard_library(), None),
        "agap": (agap_program(), agap_database(graph)),
        "apath": (_with_main(apath_program(), b.call("apath-iterate")),
                  agap_database(graph)),
        "arithmetic": (_with_main(arithmetic_program(), _arithmetic_main()),
                       arithmetic_database(4)),
        "ip": (_with_main(ip_program(), b.call("ip", b.var("START"))), im_db),
        "im": (im_program(), im_db),
        "powerset": (powerset_program(), powerset_db),
        "doubling_list": (doubling_list_program(), powerset_db),
        "even": (even_program(), even_database(4)),
        "cardinality_parity": (cardinality_parity_program(), even_database(4)),
        "reachability_tc": (reachability_program(), graph_database(graph)),
        # The alternating graph above has no E edges, which would leave
        # EDGES untypable; the DTC program gets a path with edges instead.
        "reachability_dtc": (deterministic_reachability_program(),
                             graph_database(path_graph(4), 0, 3)),
        "relational_department": (employees_in_department_program(0), company),
        "relational_senior": (departments_fully_senior_program(), company),
        "relational_pairs": (colleague_pairs_program(), company),
        "relational_first_senior": (first_employee_is_senior_program(), company),
        "turing_machine": (compiled.program, compiled.database_for("0101")),
        "quickstart": (with_standard_library(parse_program(QUICKSTART)),
                       Database({"NODES": _atoms(0, 1, 2, 3),
                                 "EDGES": _rows((0, 1), (1, 2), (2, 0), (3, 1))})),
    }
    for name, database in _perfbench_databases().items():
        text = (ROOT / "perfbench" / "programs" / f"{name}.srl").read_text()
        programs[f"perfbench/{name}"] = (parse_program(text), database)
    return programs


def _type_text(t) -> str:
    # Type variables are numbered by a process-wide counter; drop the number.
    return re.sub(r"'\w+", "'_", str(t))


def classify_entry(program, types) -> dict:
    """Everything the classifiers say about ``program`` under ``types``."""
    entry = {
        "violations": {r.name: [_type_text(v) for v in r.check(program, types)]
                       for r in ALL_RESTRICTIONS},
        "strictest": strictest_restriction(program, types).name,
    }
    try:
        analysis = analyze(program, input_types=types)
    except SRLError as error:
        entry["analysis"] = {"error": str(error)}
        return entry
    fields = dict(vars(analysis))
    report = fields.pop("type_report")
    fields["type_report"] = None if report is None else {
        "result_type": _type_text(report.result_type),
        "accumulator_types": sorted({_type_text(t) for t in report.accumulator_types}),
    }
    entry["analysis"] = fields
    return entry


def classifier_table() -> dict[str, dict]:
    table = {}
    for name, (program, database) in corpus().items():
        table[f"{name} untyped"] = classify_entry(program, None)
        if database is not None:
            table[f"{name} typed"] = classify_entry(program, database_types(database))
    return table


if __name__ == "__main__":
    json.dump(classifier_table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
