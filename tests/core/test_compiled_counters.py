"""Pins what the compiled executor computes and counts on the shipped corpus.

For every entry of :func:`classifier_corpus.corpus` that has a database,
``compiled_counters_golden.json`` records the value of a compiled
:class:`~repro.core.Session` run and every field of its
:class:`~repro.core.EvaluationStats`, ``steps`` included (or the error the
run raised).  A change to code generation or to the shared ``Runtime`` that
is meant to leave behaviour alone must pass this test with the file
unchanged.

Regenerate the JSON (only when a change of values or counters is intended
and explained) with::

    PYTHONPATH=src:tests/core python tests/core/test_compiled_counters.py > tests/core/compiled_counters_golden.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import classifier_corpus

from repro.core import Session
from repro.core.errors import SRLError
from repro.core.values import format_value

GOLDEN = Path(__file__).resolve().parent / "compiled_counters_golden.json"


def compiled_counters_table() -> dict[str, dict]:
    table = {}
    for name, (program, database) in classifier_corpus.corpus().items():
        if database is None:
            continue
        session = Session(program, backend="compiled")
        try:
            entry = {"value": format_value(session.run(database))}
        except SRLError as error:
            entry = {"error": f"{type(error).__name__}: {error}"}
        entry["stats"] = session.stats.as_dict()
        table[name] = entry
    return table


def test_compiled_values_and_counters_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    table = compiled_counters_table()
    assert sorted(table) == sorted(golden)
    for name, entry in golden.items():
        assert table[name] == entry, name


if __name__ == "__main__":
    json.dump(compiled_counters_table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
