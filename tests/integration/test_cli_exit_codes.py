"""CLI exit-code taxonomy tests (PR 6).

``python -m repro`` distinguishes *whose fault it was*: 2 — the input
(parse / type errors, malformed JSON, unreadable files, usage); 3 — a
resource budget (``--timeout`` / ``--max-rows``; retry with a bigger
budget); 4 — the engine (internal errors).  0 stays success.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import EXIT_INPUT, EXIT_INTERNAL, EXIT_RESOURCE, main


@pytest.fixture
def graph_json(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "E": [[i, i + 1] for i in range(5)],
        "A": [0, 2, 4],
        "D": list(range(6)),
    }))
    return path


class TestInputErrors:
    def test_syntax_error(self, tmp_path, capsys):
        source = tmp_path / "bad.srl"
        source.write_text("(insert (atom 1)")
        assert main([str(source)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_type_error(self, tmp_path, capsys):
        source = tmp_path / "ill-typed.srl"
        source.write_text("(insert true (atom 1))")
        assert main([str(source)]) == EXIT_INPUT

    def test_malformed_database_json(self, tmp_path, capsys, graph_json):
        source = tmp_path / "p.srl"
        source.write_text("(insert (atom 2) emptyset)")
        db = tmp_path / "bad-db.json"
        db.write_text('{"S": {"unknown": 1}}')
        assert main([str(source), "--db", str(db)]) == EXIT_INPUT
        # The error message is path-qualified: it names the bad binding.
        assert "'S'" in capsys.readouterr().err

    def test_unparsable_database_json(self, tmp_path):
        source = tmp_path / "p.srl"
        source.write_text("(insert (atom 2) emptyset)")
        db = tmp_path / "not-json.json"
        db.write_text("{nope")
        assert main([str(source), "--db", str(db)]) == EXIT_INPUT

    def test_logic_malformed_structure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"E": "nope"}')
        assert main(["logic", "tc", "--structure", str(bad)]) == EXIT_INPUT
        assert "'E'" in capsys.readouterr().err


class TestResourceErrors:
    def test_logic_timeout(self, graph_json, capsys):
        assert main(["logic", "tc", "--structure", str(graph_json),
                     "--timeout", "0"]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "resource limit" in err
        assert "partial stats" in err

    def test_logic_max_rows(self, graph_json, capsys):
        assert main(["logic", "tc", "--structure", str(graph_json),
                     "--max-rows", "1"]) == EXIT_RESOURCE
        assert "rows_materialized" in capsys.readouterr().err

    def test_program_timeout(self, tmp_path, graph_json):
        source = tmp_path / "p.srl"
        source.write_text(
            "(set-reduce D (lambda (x e) x) (lambda (a r) (insert a r))"
            " emptyset emptyset)"
        )
        assert main([str(source), "--db", str(graph_json),
                     "--timeout", "0"]) == EXIT_RESOURCE

    def test_max_steps_is_a_resource_error_too(self, tmp_path, graph_json):
        source = tmp_path / "p.srl"
        source.write_text(
            "(set-reduce D (lambda (x e) x) (lambda (a r) (insert a r))"
            " emptyset emptyset)"
        )
        assert main([str(source), "--db", str(graph_json),
                     "--max-steps", "2"]) == EXIT_RESOURCE


class TestInternalErrors:
    def test_executor_fault_exits_internal(self, graph_json, capsys,
                                           inject_faults):
        """A fault inside the plan interpreter is the engine's fault: exit
        4 and one ``error:`` line, no traceback and no input-error label."""
        from repro.testing.chaos import Fault

        inject_faults(Fault("plan.fixpoint.round", max_fires=None))
        assert main(["logic", "apath", "--structure", str(graph_json),
                     "--backend", "plan"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("error: plan execution failed: ChaosError(")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestSuccessStillZero:
    def test_program(self, tmp_path, graph_json):
        source = tmp_path / "p.srl"
        source.write_text("(insert (atom 2) emptyset)")
        assert main([str(source)]) == 0
        # A generous budget changes nothing.
        assert main([str(source), "--timeout", "60"]) == 0

    def test_logic_with_generous_budget(self, graph_json, capsys):
        assert main(["logic", "tc", "--structure", str(graph_json),
                     "--timeout", "60", "--max-rows", "1000000"]) == 0
        assert "rows:" in capsys.readouterr().out


class TestSnapshotSubcommand:
    def test_build_info_query_round_trip(self, tmp_path, graph_json, capsys):
        snap = tmp_path / "g.snap"
        assert main(["snapshot", "build", str(snap),
                     "--structure", str(graph_json)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["snapshot", "info", str(snap)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["size"] == 6 and info["vocabulary"] == {"A": 1, "E": 2}
        # The same query over JSON and over the snapshot must agree.
        assert main(["logic", "tc", "--structure", str(graph_json)]) == 0
        from_json = capsys.readouterr().out
        assert main(["logic", "tc", "--structure", str(snap)]) == 0
        assert capsys.readouterr().out == from_json

    def test_build_from_zoo(self, tmp_path, capsys):
        snap = tmp_path / "zoo.snap"
        assert main(["snapshot", "build", str(snap), "--zoo", "grid",
                     "rows=4", "cols=4"]) == 0
        assert "n = 16" in capsys.readouterr().out
        assert main(["logic", "reach", "--structure", str(snap),
                     "--backend", "columnar"]) == 0

    def test_build_from_edges(self, tmp_path, capsys):
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps([[0, 1], [1, 2]]))
        snap = tmp_path / "edges.snap"
        assert main(["snapshot", "build", str(snap), "--edges", str(edges),
                     "--size", "3"]) == 0
        assert main(["logic", "tc", "--structure", str(snap)]) == 0
        assert "rows:" in capsys.readouterr().out

    def test_unknown_zoo_family_is_input_error(self, tmp_path, capsys):
        assert main(["snapshot", "build", str(tmp_path / "x.snap"),
                     "--zoo", "mystery"]) == EXIT_INPUT
        assert "unknown zoo family" in capsys.readouterr().err

    def test_bad_zoo_parameter_is_input_error(self, tmp_path, capsys):
        assert main(["snapshot", "build", str(tmp_path / "x.snap"),
                     "--zoo", "grid", "sides=3"]) == EXIT_INPUT

    def test_corrupt_snapshot_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"RSNP" + b"\xff" * 40)
        assert main(["snapshot", "info", str(bad)]) == EXIT_INPUT
        assert main(["logic", "tc", "--structure", str(bad)]) == EXIT_INPUT

    def test_degradation_prints_a_notice(self, tmp_path, graph_json, capsys,
                                         inject_faults):
        from repro.testing.chaos import Fault

        inject_faults(Fault("optimize.pass.reorder"))
        assert main(["logic", "reach", "--structure", str(graph_json),
                     "--backend", "columnar", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "degraded mid-run (optimize->raw-plan)" in captured.err
        assert "degraded:    optimize -> raw-plan" in captured.out
        assert "peak_rows_resident" in captured.out

    def test_max_bytes_is_a_resource_error(self, tmp_path, capsys):
        snap = tmp_path / "big.snap"
        assert main(["snapshot", "build", str(snap), "--zoo", "clustered",
                     "clusters=40"]) == 0
        import repro.logic.codegen as codegen
        original = codegen.DENSE_WIDTH_THRESHOLD
        codegen.DENSE_WIDTH_THRESHOLD = 2
        try:
            assert main(["logic", "tc", "--structure", str(snap),
                         "--backend", "columnar",
                         "--max-bytes", "64"]) == EXIT_RESOURCE
        finally:
            codegen.DENSE_WIDTH_THRESHOLD = original
        assert "bytes_resident" in capsys.readouterr().err


def test_taxonomy_constants_are_distinct():
    assert len({0, EXIT_INPUT, EXIT_RESOURCE, EXIT_INTERNAL}) == 4
    assert (EXIT_INPUT, EXIT_RESOURCE, EXIT_INTERNAL) == (2, 3, 4)
