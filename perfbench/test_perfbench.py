"""Self-tests of the benchmark: its references agree with the engine's
oracles, a tiny run of every workload emits exactly the metrics
``BENCHMARK.json`` names, a planted wrong reference is caught, and a tree
without ``src/repro`` is refused.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def structure_of(graph):
    from repro.structures.structure import Structure, Vocabulary

    return Structure(Vocabulary.of(E=2, A=1), graph.n,
                     {"E": frozenset(graph.edges),
                      "A": frozenset((v,) for v in graph.universal)})


@pytest.mark.parametrize("seed", range(6))
def test_query_references_match_tuple_oracle(seed):
    from repro.logic.eval import define_relation
    from repro.logic.queries import CANONICAL_QUERIES

    rng = random.Random(seed)
    graph = gen.alternating_graph(7, rng, (0, 1, 1, 2, 3))
    answers = gen.query_answers(graph, gen.DENSE_QUERIES)
    structure = structure_of(graph)
    for name in gen.DENSE_QUERIES:
        query = CANONICAL_QUERIES[name]
        rows = define_relation(query.formula(), structure, query.variables,
                               backend="tuple")
        expected = bool(rows) if not query.variables else sorted(rows)
        got = answers[name] if not query.variables else sorted(answers[name])
        assert got == expected, name


def test_srl_references_match_reference_backend():
    from repro.core import Session, parse_program, value_to_python

    child = pytest.importorskip("child")
    workload = child.SrlPrograms(None, {"seed": 3,
                                        "sizes": gen.TINY["srl-programs"]})
    workload.setup()
    cases = workload.raw
    workload.encode()
    for name in gen.SRL_PROGRAMS:
        program = parse_program(workload.texts[name])
        for database, (_, answer) in zip(workload.databases[name],
                                         cases[name]):
            value = Session(program, backend="reference").run(database)
            assert gen.digest(value_to_python(value)) == gen.digest(answer)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    result = run.run(workload, seed=5, seconds=1, trace=trace,
                     sizes=gen.TINY)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_reference_latencies_divide_by_the_nearby_yardstick():
    """An op that takes twice the yardstick reads 2 reference ms whether
    the host runs at half or at twice the reference speed."""
    yardsticks = [0.5] * 30 + [2.0] * 30
    records = [[index, 2.0 * yard, None, yard]
               for index, yard in enumerate(yardsticks)]
    records[3][1:3] = [None, "Failed: planted"]
    wall, reference = run.reference_latencies(records)
    assert wall[3] is None and reference[3] is None
    assert wall[0] == 1.0 and wall[59] == 4.0
    steady = [i for i in range(60) if i != 3 and not 20 <= i < 40]
    assert all(reference[i] == pytest.approx(2.0) for i in steady)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_reference_is_a_failure(workload):
    result = run.run(workload, seed=5, seconds=1, trace=False,
                     sizes=gen.TINY,
                     plant_wrong=lambda key, index: True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_wrong_reference_after_a_delete_is_caught():
    """``update-mix`` alternates inserts (even ops) and deletes (odd ops);
    its checked subset must include reads that follow a delete."""
    result = run.run("update-mix", seed=5, seconds=1, trace=False,
                     sizes=gen.TINY,
                     plant_wrong=lambda key, index: index is not None
                     and index % 2 == 1)
    assert not result["correct"]
    assert result["failed"] > 0


def test_tree_without_source_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
