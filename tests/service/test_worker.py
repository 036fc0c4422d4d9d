"""Worker-core tests: the in-process :class:`Worker` behind both the
pipe loop and the server's inline mode.

The contract: every request gets a reply carrying its ``id``; failures
are *typed* envelopes (``kind`` ∈ input/resource/internal) mirroring the
CLI exit-code taxonomy; plans are cached per stats signature and
invalidated when a structure is reloaded or its statistics change.
"""

from __future__ import annotations

import pytest

from repro.core.governor import CancelToken
from repro.logic.eval import define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.service.worker import Worker, error_envelope, stats_signature
from repro.structures import Changeset, graph_structure

pytestmark = pytest.mark.usefixtures("snapshot_path")


@pytest.fixture
def worker(snapshot_path):
    worker = Worker()
    reply = worker.handle({"op": "load", "id": 1, "name": "g",
                           "path": str(snapshot_path)})
    assert reply["ok"], reply
    return worker


# ------------------------------------------------------------------ ops


def test_ping(worker):
    reply = worker.handle({"op": "ping", "id": 41})
    assert reply["ok"] and reply["id"] == 41
    assert reply["structures"] == ["g"]


def test_unknown_op_is_a_typed_input_error(worker):
    reply = worker.handle({"op": "frobnicate", "id": 2})
    assert not reply["ok"] and reply["id"] == 2
    assert reply["error"]["kind"] == "input"
    assert "frobnicate" in reply["error"]["message"]


def test_shutdown_sets_the_stop_flag(worker):
    assert worker.handle({"op": "shutdown", "id": 3})["ok"]
    assert worker.stopped


def test_load_json_database(json_path):
    worker = Worker()
    reply = worker.handle({"op": "load", "name": "j", "path": str(json_path)})
    assert reply["ok"] and reply["size"] >= 6


# ---------------------------------------------------------------- queries


@pytest.mark.parametrize("backend", ["tuple", "plan", "columnar"])
def test_query_matches_the_oracle(worker, oracle, backend):
    for name in ("tc", "apath"):
        reply = worker.handle({"op": "query", "structure": "g",
                               "query": name, "backend": backend})
        assert reply["ok"], reply
        assert reply["rows"] == oracle(name)
        assert reply["backend"] == backend


def test_second_query_hits_the_plan_cache(worker):
    first = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    second = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert not first["cached"] and second["cached"]
    assert first["rows"] == second["rows"]
    assert second["stats"]["plan_cache_hits"] == 1


def test_unknown_query_is_input(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "nope"})
    assert reply["error"]["kind"] == "input"
    assert "nope" in reply["error"]["message"]


def test_unknown_structure_is_input(worker):
    reply = worker.handle({"op": "query", "structure": "missing",
                           "query": "tc"})
    assert reply["error"]["kind"] == "input"
    assert "missing" in reply["error"]["message"]


def test_unknown_backend_is_input(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "backend": "gpu"})
    assert reply["error"]["kind"] == "input"


def test_zero_deadline_is_a_typed_resource_error(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "deadline_seconds": 0.0})
    assert reply["error"]["kind"] == "resource"
    assert reply["error"]["type"] == "DeadlineExceeded"
    assert "partial_stats" in reply["error"]


def test_row_limit_is_a_typed_resource_error(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "max_rows": 1})
    assert reply["error"]["kind"] == "resource"
    assert reply["error"]["type"] == "RowLimitExceeded"
    assert reply["error"]["limit"] == 1


def test_external_cancel_token_reaches_the_budget(worker):
    token = CancelToken()
    token.cancel()
    worker.external_cancel = token
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "deadline_seconds": 30.0})
    worker.external_cancel = None
    assert reply["error"]["type"] == "EvaluationCancelled"


def test_executor_fault_is_an_internal_error_not_a_crash(worker, oracle,
                                                         inject_faults):
    """A fault inside the plan interpreter is the engine's own typed
    error: an ``internal`` envelope, never a re-raised ChaosError (which
    the pipe loop would turn into process death).  The checker is intact
    once the fault is gone."""
    from repro.testing.chaos import Fault, uninstall_policy

    request = {"op": "query", "id": 9, "structure": "g", "query": "apath",
               "backend": "plan"}
    policy = inject_faults(Fault("plan.fixpoint.round", max_fires=None))
    reply = worker.handle(request)
    assert policy.fired
    assert not reply["ok"] and reply["id"] == 9
    assert reply["error"]["kind"] == "internal"
    assert reply["error"]["type"] == "SRLRuntimeError"
    assert "plan execution failed" in reply["error"]["message"]
    uninstall_policy()
    reply = worker.handle(request)
    assert reply["ok"]
    assert reply["rows"] == oracle("apath")


# ----------------------------------------------------- cache invalidation


def test_reload_invalidates_the_plan_cache(worker, snapshot_path):
    worker.handle({"op": "query", "structure": "g", "query": "tc"})
    worker.handle({"op": "load", "name": "g", "path": str(snapshot_path)})
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert not reply["cached"], "reload must drop the old structure's plans"


def _tc_rows(structure) -> list[list]:
    query = CANONICAL_QUERIES["tc"]
    rows = define_relation(query.formula(), structure, query.variables,
                           backend="tuple")
    return sorted(list(row) for row in rows)


def test_reload_with_different_edges_changes_the_rows(worker, tmp_path):
    """Same universe and edge count (so the same stats signature), other
    edges: the memoized answer must not outlive the reload."""
    from repro.structures import save_snapshot

    first = graph_structure(4, [(0, 1), (1, 2)])
    second = graph_structure(4, [(2, 3), (3, 0)])
    assert stats_signature(first) == stats_signature(second)
    path = tmp_path / "line.snap"
    request = {"op": "query", "structure": "h", "query": "tc"}
    rows = []
    for structure in (first, second):
        save_snapshot(structure, path)
        worker.handle({"op": "load", "name": "h", "path": str(path)})
        worker.handle(request)
        rows.append(worker.handle(request)["rows"])
    assert rows == [_tc_rows(first), _tc_rows(second)]
    assert rows[0] != rows[1]


def test_mutating_a_reply_leaves_the_answer_memo_intact(worker, oracle):
    request = {"op": "query", "structure": "g", "query": "tc"}
    for _ in range(2):  # the second reply is served from the memo
        reply = worker.handle(request)
        reply["rows"].append([99, 99])
        reply["rows"].reverse()
        reply["columns"].clear()
    reply = worker.handle(request)
    assert reply["cached"]
    assert reply["rows"] == oracle("tc")
    assert reply["columns"] == ["u", "v"]


def test_answer_memo_follows_a_recomputed_relation(worker):
    """The memo is valid only while the checker returns the same relation
    object: an update that keeps every cardinality (so the same checker
    serves the next request) must still change the answer."""
    request = {"op": "query", "structure": "g", "query": "tc"}
    before = worker.handle(request)["rows"]
    (checker, _), = worker._checkers.values()
    structure = checker.structure
    edges = sorted(structure.relations["E"])
    absent = next((u, v) for u in range(structure.size)
                  for v in range(structure.size) if (u, v) not in edges)
    checker.apply_update(Changeset(
        tuple(Changeset.inserting("E", absent))
        + tuple(Changeset.deleting("E", edges[0]))))
    after = worker.handle(request)
    assert len(worker._checkers) == 1 and after["cached"]
    assert after["rows"] == _tc_rows(checker.structure) != before


def test_pipe_payload_decodes_to_the_handle_reply(worker):
    """The pipe loop's spliced payload is the same message as
    :meth:`Worker.handle`'s dict, for answers and for errors."""
    import json

    for query in ("tc", "non-reach", "reach", "nope"):
        request = {"op": "query", "id": 5, "structure": "g",
                   "query": query}
        worker.handle(request)  # warm: both calls below are memo hits
        reply = worker.handle(request)
        decoded = json.loads(worker.handle_payload(request))
        for message in (reply, decoded):
            message.pop("elapsed_ms", None)
            message.get("stats", {}).pop("plan_cache_hits", None)
        assert decoded == reply


def test_stats_signature_tracks_cardinalities():
    small = graph_structure(3, [(0, 1)])
    bigger = graph_structure(3, [(0, 1), (1, 2)])
    assert stats_signature(small) != stats_signature(bigger)
    assert stats_signature(small) == stats_signature(
        graph_structure(3, [(0, 1)]))


def test_stale_checkers_are_evicted_not_leaked(worker, tmp_path):
    """A structure whose statistics change gets a fresh checker and the
    stale one (plans optimized against dead statistics) is dropped."""
    from repro.structures import save_snapshot

    worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert len(worker._checkers) == 1
    grown = tmp_path / "grown.snap"
    save_snapshot(graph_structure(8, [(i, i + 1) for i in range(7)]), grown)
    worker.handle({"op": "load", "name": "g", "path": str(grown)})
    worker.handle({"op": "query", "structure": "g", "query": "tc"})
    keys = [key for key in worker._checkers if key[0] == "g"]
    assert len(keys) == 1, "stale-signature checker must be evicted"


# ----------------------------------------------------------- envelopes


def test_error_envelope_shapes():
    assert error_envelope(KeyError("x"))["kind"] == "input"
    assert error_envelope(ValueError("x"))["kind"] == "input"
    assert error_envelope(RuntimeError("x"))["kind"] == "internal"
    from repro.core.errors import ResourceLimitExceeded

    envelope = error_envelope(ResourceLimitExceeded("rows", 10, 11))
    assert envelope["kind"] == "resource"
    assert (envelope["resource"], envelope["limit"], envelope["used"]) == \
        ("rows", 10, 11)
