"""The binary snapshot round-trip property suite (P9 acceptance).

The load-bearing properties:

* ``save_snapshot`` ∘ ``load_structure`` is the identity on structures —
  relations (through the lazy packed views), universe size, vocabulary,
  and the ``InternTable``'s label order all survive the file;
* ``Structure.from_edge_stream`` / ``build_snapshot`` agree with the
  eager tuple-set constructors on every input, labeled or ranked;
* the persisted degree statistics match a brute-force recount;
* every malformed-input path — bad magic, unsupported version, header
  that is not JSON, truncated payloads, non-monotone CSR offsets,
  out-of-universe targets — raises the typed
  :class:`~repro.core.errors.SnapshotError`, never a stack blow-up or a
  silently wrong structure;
* a file with one byte changed anywhere either raises ``SnapshotError``
  or loads and answers ``tc`` on the columnar walker, and a changed byte
  inside the checksummed payload always raises.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidDatabaseError
from repro.logic.eval import ModelChecker
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import (
    Snapshot,
    SnapshotError,
    Structure,
    build_snapshot,
    graph_structure,
    load_snapshot,
    load_structure,
    save_snapshot,
)
from repro.structures.graphs import random_alternating_graph, random_graph
from repro.structures.snapshot import (
    MAGIC,
    _HEADER_PREFIX,
    PackedBitsetRelation,
    PackedCSRRelation,
    degree_stats_of_csr,
)
from repro.structures.vocabulary import Vocabulary

SIZES = st.integers(min_value=1, max_value=9)
SEEDS = st.integers(min_value=0, max_value=60)


def edge_lists(size: int):
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    return st.lists(pair, max_size=20)


# ------------------------------------------------------------- round trips


@given(SIZES, SEEDS)
@settings(max_examples=40, deadline=None)
def test_graph_snapshot_round_trips(tmp_path_factory, size, seed):
    path = tmp_path_factory.mktemp("snap") / "graph.snap"
    structure = random_graph(size, seed=seed)
    header = save_snapshot(structure, path)
    loaded = load_structure(path)
    assert loaded.size == structure.size
    assert loaded.vocabulary == structure.vocabulary
    # Both directions: the packed view's __eq__ and frozenset's.
    assert loaded.relations["E"] == structure.relations["E"]
    assert frozenset(structure.relations["E"]) == loaded.relations["E"]
    assert loaded == structure
    assert header["relations"]["E"]["rows"] == len(structure.relations["E"])


@given(SIZES, SEEDS)
@settings(max_examples=40, deadline=None)
def test_alternating_snapshot_round_trips(tmp_path_factory, size, seed):
    """Mixed arities: the binary E rides CSR, the unary A a bitset."""
    path = tmp_path_factory.mktemp("snap") / "alt.snap"
    structure = random_alternating_graph(size, seed=seed)
    save_snapshot(structure, path)
    loaded = load_structure(path)
    assert loaded == structure
    assert isinstance(loaded.relations["A"], PackedBitsetRelation)
    assert isinstance(loaded.relations["E"], PackedCSRRelation)


@given(SIZES, st.data())
@settings(max_examples=40, deadline=None)
def test_edge_stream_matches_eager_constructor(tmp_path_factory, size, data):
    edges = data.draw(edge_lists(size))
    path = tmp_path_factory.mktemp("snap") / "stream.snap"
    build_snapshot(edges, path, size=size)
    loaded = load_structure(path)
    assert loaded == graph_structure(size, edges)
    streamed = Structure.from_edge_stream(edges, size=size)
    assert streamed == loaded


def test_labeled_edge_stream_interns_in_first_occurrence_order(tmp_path):
    path = tmp_path / "labeled.snap"
    build_snapshot([("c", "a"), ("a", "b"), ("c", "b")], path)
    snapshot = load_snapshot(path)
    structure = snapshot.structure
    assert structure.intern is not None
    assert list(structure.intern.labels) == ["c", "a", "b"]
    assert structure.relations["E"] == {(0, 1), (1, 2), (0, 2)}
    assert snapshot.info()["interned"] is True


@given(SIZES, SEEDS)
@settings(max_examples=25, deadline=None)
def test_degree_stats_match_brute_force(tmp_path_factory, size, seed):
    path = tmp_path_factory.mktemp("snap") / "stats.snap"
    structure = random_graph(size, edge_probability=0.4, seed=seed)
    save_snapshot(structure, path)
    loaded = load_structure(path)
    edges = frozenset(structure.relations["E"])
    stats = loaded.degree_stats["E"]
    assert stats["rows"] == len(edges)
    assert stats["distinct_sources"] == len({u for u, _ in edges})
    assert stats["distinct_targets"] == len({v for _, v in edges})
    out_degrees = [sum(1 for u, _ in edges if u == x) for x in range(size)]
    assert stats["max_out_degree"] == (max(out_degrees) if size else 0)


def test_degree_stats_of_csr_on_empty_relation():
    assert degree_stats_of_csr([0, 0, 0], []) == {
        "rows": 0, "distinct_sources": 0, "distinct_targets": 0,
        "max_out_degree": 0,
    }


def test_derived_relations_round_trip(tmp_path):
    path = tmp_path / "derived.snap"
    structure = graph_structure(4, [(0, 1), (1, 2)])
    derived = {
        "tc": frozenset({(0, 1), (0, 2), (1, 2)}),
        "flag": frozenset({()}),
        "triple": frozenset({(0, 1, 2), (2, 1, 0)}),
    }
    save_snapshot(structure, path, derived=derived)
    with load_snapshot(path) as snapshot:
        assert {name: rel.rows() for name, rel in snapshot.derived.items()} \
            == derived
        info = snapshot.info()
        assert info["derived"]["flag"]["rows"] == 1
        assert info["derived"]["triple"]["arity"] == 3


def test_empty_and_full_unit_relations(tmp_path):
    path = tmp_path / "unit.snap"
    structure = graph_structure(3, [])
    save_snapshot(structure, path, derived={"yes": frozenset({()}),
                                            "no": frozenset()})
    snapshot = load_snapshot(path)
    assert snapshot.derived["yes"].rows() == {()}
    assert snapshot.derived["no"].rows() == frozenset()
    assert not snapshot.derived["no"]


def test_packed_views_behave_like_frozensets(tmp_path):
    path = tmp_path / "views.snap"
    save_snapshot(random_alternating_graph(5, seed=3), path)
    loaded = load_structure(path)
    edges, atoms = loaded.relations["E"], loaded.relations["A"]
    rows = frozenset(edges)
    assert len(edges) == len(rows)
    assert all(row in edges for row in rows)
    assert (5, 5) not in edges and "x" not in edges
    assert edges | {(9, 9)} == rows | {(9, 9)}
    assert edges - rows == frozenset()
    assert {row[0] for row in atoms} == {value for (value,) in atoms.rows()}
    assert hash(edges) == hash(rows)


# ------------------------------------------------------------- error paths


def _valid_snapshot_bytes(tmp_path) -> bytes:
    path = tmp_path / "valid.snap"
    save_snapshot(random_graph(6, edge_probability=0.5, seed=1), path)
    return path.read_bytes()


def _expect_error(tmp_path, raw: bytes, fragment: str) -> None:
    path = tmp_path / "corrupt.snap"
    path.write_bytes(raw)
    with pytest.raises(SnapshotError, match=fragment):
        load_structure(path)


def test_snapshot_error_is_an_input_error():
    assert issubclass(SnapshotError, InvalidDatabaseError)


def test_missing_file_raises_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError, match="cannot open"):
        load_snapshot(tmp_path / "nowhere.snap")


def test_bad_magic(tmp_path):
    raw = _valid_snapshot_bytes(tmp_path)
    _expect_error(tmp_path, b"XXXX" + raw[4:], "bad magic")


def test_unsupported_version(tmp_path):
    raw = _valid_snapshot_bytes(tmp_path)
    corrupted = raw[:4] + (99).to_bytes(2, "little") + raw[6:]
    _expect_error(tmp_path, corrupted, "unsupported snapshot version")


def test_truncated_prefix(tmp_path):
    _expect_error(tmp_path, MAGIC + b"\x01\x00", "too short")


def test_header_length_past_eof(tmp_path):
    raw = _valid_snapshot_bytes(tmp_path)
    corrupted = raw[:8] + (2 ** 32).to_bytes(8, "little") + raw[16:]
    _expect_error(tmp_path, corrupted, "runs past the end")


def test_header_not_json(tmp_path):
    body = b"not json!"
    raw = (MAGIC + (1).to_bytes(2, "little") + b"\0\0"
           + len(body).to_bytes(8, "little") + body)
    _expect_error(tmp_path, raw, "not valid JSON")


def test_header_not_an_object(tmp_path):
    body = json.dumps([1, 2, 3]).encode()
    raw = (MAGIC + (1).to_bytes(2, "little") + b"\0\0"
           + len(body).to_bytes(8, "little") + body)
    _expect_error(tmp_path, raw, "must be a JSON object")


def test_truncated_payload(tmp_path):
    raw = _valid_snapshot_bytes(tmp_path)
    header_length = int.from_bytes(raw[8:16], "little")
    base = _HEADER_PREFIX + header_length
    base += (-base) % 8
    _expect_error(tmp_path, raw[:base + 4], "runs past the end")


def _payload_base(raw: bytes) -> int:
    header_length = int.from_bytes(raw[8:16], "little")
    base = _HEADER_PREFIX + header_length
    return base + (-base) % 8


def _strip_checksum(raw: bytes) -> bytes:
    """Remove the header's checksum entry (padding to keep every payload
    offset identical) — the shape of a pre-P10 snapshot, so the decoder's
    own structural validation is what the corruption tests exercise."""
    header_length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length])
    header.pop("checksum", None)
    body = json.dumps(header, separators=(",", ":")).encode()
    assert len(body) <= header_length
    body += b" " * (header_length - len(body))
    out = bytearray(raw)
    out[_HEADER_PREFIX:_HEADER_PREFIX + header_length] = body
    return bytes(out)


def test_non_monotone_csr_offsets(tmp_path):
    raw = bytearray(_strip_checksum(_valid_snapshot_bytes(tmp_path)))
    base = _payload_base(bytes(raw))
    # The sole relation's CSR offsets start at the payload base; breaking
    # offsets[0] != 0 must be caught, not walked.
    raw[base:base + 8] = (7).to_bytes(8, "little")
    _expect_error(tmp_path, bytes(raw), "not monotone")


def test_out_of_universe_targets(tmp_path):
    raw = bytearray(_strip_checksum(_valid_snapshot_bytes(tmp_path)))
    base = _payload_base(bytes(raw))
    header = json.loads(
        raw[_HEADER_PREFIX:_HEADER_PREFIX
            + int.from_bytes(raw[8:16], "little")])
    entry = header["relations"]["E"]
    assert entry["rows"] > 0, "corruption target needs at least one edge"
    targets_at = base + entry["offset"] + 8 * (header["size"] + 1)
    raw[targets_at:targets_at + 4] = (2 ** 20).to_bytes(4, "little")
    _expect_error(tmp_path, bytes(raw), "outside the universe")


def test_row_count_disagreeing_with_bitset(tmp_path):
    path = tmp_path / "alt.snap"
    save_snapshot(random_alternating_graph(6, seed=2), path)
    raw = bytearray(path.read_bytes())
    header_length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length])
    header["relations"]["A"]["rows"] += 1
    body = json.dumps(header, separators=(",", ":")).encode()
    # Keep the header length identical so the payload offsets survive.
    body += b" " * (header_length - len(body))
    raw[8:16] = len(body).to_bytes(8, "little")
    raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length] = body
    _expect_error(tmp_path, bytes(raw), "header says")


def test_vocabulary_without_section(tmp_path):
    body = json.dumps({
        "size": 2, "vocabulary": {"E": 2}, "labels": None,
        "relations": {}, "derived": {},
    }, separators=(",", ":")).encode()
    raw = (MAGIC + (1).to_bytes(2, "little") + b"\0\0"
           + len(body).to_bytes(8, "little") + body)
    _expect_error(tmp_path, raw, "no section")


def test_label_count_mismatch(tmp_path):
    body = json.dumps({
        "size": 3, "vocabulary": {}, "labels": ["a"],
        "relations": {}, "derived": {},
    }, separators=(",", ":")).encode()
    raw = (MAGIC + (1).to_bytes(2, "little") + b"\0\0"
           + len(body).to_bytes(8, "little") + body)
    _expect_error(tmp_path, raw, "intern labels")


def test_unserializable_labels_fail_at_save_time(tmp_path):
    structure = Structure.from_edge_stream(
        [(frozenset({1}), frozenset({2}))])
    with pytest.raises(SnapshotError, match="JSON-serializable"):
        save_snapshot(structure, tmp_path / "bad.snap")


def test_arity_vocabulary_disagreement(tmp_path):
    path = tmp_path / "mismatch.snap"
    save_snapshot(graph_structure(3, [(0, 1)]), path)
    raw = bytearray(path.read_bytes())
    header_length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length])
    header["vocabulary"]["E"] = 1
    body = json.dumps(header, separators=(",", ":")).encode()
    body += b" " * max(0, header_length - len(body))
    raw[8:16] = len(body).to_bytes(8, "little")
    raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length] = body
    _expect_error(tmp_path, bytes(raw), "disagrees with the vocabulary")


def test_higher_arity_relations_use_tuple_encoding(tmp_path):
    path = tmp_path / "triples.snap"
    rows = frozenset({(0, 1, 2), (3, 2, 1), (0, 0, 0)})
    structure = Structure(Vocabulary.of(T=3), 4, {"T": rows})
    header = save_snapshot(structure, path)
    assert header["relations"]["T"]["encoding"] == "tuples"
    assert load_structure(path) == structure


def test_snapshot_info_reports_shape(tmp_path):
    path = tmp_path / "info.snap"
    save_snapshot(random_alternating_graph(7, seed=5), path)
    with Snapshot(path) as snapshot:
        info = snapshot.info()
        assert info["size"] == 7
        assert info["vocabulary"] == {"A": 1, "E": 2}
        assert info["relations"]["E"]["encoding"] == "csr"
        assert info["relations"]["A"]["encoding"] == "bitset"
        assert "max_out_degree" in info["relations"]["E"]["stats"]
        assert info["file_bytes"] == path.stat().st_size


# ---------------------------------------------------- byte-mutation fuzz

#: The structures the hand-written corrupt cases start from.
FUZZ_STRUCTURES = {
    "graph-6": lambda: random_graph(6, edge_probability=0.5, seed=1),
    "alternating-6": lambda: random_alternating_graph(6, seed=2),
    "one-edge-3": lambda: graph_structure(3, [(0, 1)]),
    "alternating-5": lambda: random_alternating_graph(5, seed=4),
}


def _mutants(raw: bytes, rng: random.Random, count: int):
    """``count`` copies of ``raw``, each with one byte XORed by a nonzero
    mask, as ``(position, mutant)``.  Half the positions are drawn from
    the payload, where the packed relations are."""
    base = _payload_base(raw)
    for _ in range(count):
        low = 0 if rng.random() < 0.5 else base
        position = rng.randrange(low, len(raw))
        mutant = bytearray(raw)
        mutant[position] ^= rng.randrange(1, 256)
        yield position, bytes(mutant)


def _load_bytes(raw: bytes, path):
    """Load ``raw`` through a file that is gone again afterwards."""
    path.write_bytes(raw)
    try:
        return load_structure(path)
    finally:
        path.unlink()


@pytest.mark.parametrize("budget", [500, pytest.param(20000,
                                                     marks=pytest.mark.slow)])
@pytest.mark.parametrize("name", sorted(FUZZ_STRUCTURES))
def test_byte_mutants_raise_snapshot_error_or_answer_tc(tmp_path, name,
                                                        budget):
    """Each mutant runs on the checksummed file and on a copy whose header
    has no checksum, so the structural checks meet corrupt payloads."""
    path = tmp_path / "seed.snap"
    header = save_snapshot(FUZZ_STRUCTURES[name](), path)
    checksummed = path.read_bytes()
    base = _payload_base(checksummed)
    covered = range(base, base + header["checksum"]["payload_bytes"])
    tc = CANONICAL_QUERIES["tc"].formula()
    rng = random.Random(f"{name}/{budget}")
    for raw in (checksummed, _strip_checksum(checksummed)):
        for number, (position, mutant) in enumerate(
                _mutants(raw, rng, budget)):
            if raw is checksummed and position in covered:
                with pytest.raises(SnapshotError):
                    _load_bytes(mutant, tmp_path / "mutant.snap")
                continue
            try:
                structure = _load_bytes(mutant, tmp_path / "mutant.snap")
            except SnapshotError:
                continue
            _, rows = ModelChecker(structure,
                                   backend="columnar").defined_relation(tc)
            assert all(0 <= value < structure.size
                       for row in rows for value in row), (number, position)


# --------------------------------------------------- atomic writes + CRC32


def test_checksum_round_trip(tmp_path):
    path = tmp_path / "crc.snap"
    structure = random_alternating_graph(6, seed=9)
    header = save_snapshot(structure, path)
    checksum = header["checksum"]
    assert checksum["algorithm"] == "crc32"
    assert checksum["payload_bytes"] > 0
    assert load_structure(path) == structure
    # The persisted header carries the same checksum entry.
    assert load_snapshot(path).header["checksum"] == checksum


def test_payload_corruption_fails_the_checksum(tmp_path):
    raw = bytearray(_valid_snapshot_bytes(tmp_path))
    raw[-1] ^= 0xFF  # flip one payload bit
    _expect_error(tmp_path, bytes(raw), "checksum mismatch")


def test_malformed_checksum_entry_is_rejected(tmp_path):
    raw = bytearray(_valid_snapshot_bytes(tmp_path))
    header_length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length])
    header["checksum"] = {"algorithm": "crc32"}  # value/span missing
    body = json.dumps(header, separators=(",", ":")).encode()
    assert len(body) <= header_length
    body += b" " * (header_length - len(body))
    raw[_HEADER_PREFIX:_HEADER_PREFIX + header_length] = body
    _expect_error(tmp_path, bytes(raw), "malformed checksum")


def test_checksum_free_legacy_files_still_load(tmp_path):
    path = tmp_path / "legacy.snap"
    structure = random_alternating_graph(5, seed=4)
    save_snapshot(structure, path)
    path.write_bytes(_strip_checksum(path.read_bytes()))
    assert load_structure(path) == structure


def test_save_is_atomic_over_an_existing_snapshot(tmp_path, monkeypatch):
    """A failing save must leave the previous snapshot intact and no temp
    litter — the write goes to a sibling temp file and only a completed,
    fsynced file is os.replace'd over the target."""
    import os as _os

    from repro.structures import snapshot as snapshot_module

    path = tmp_path / "atomic.snap"
    original = random_alternating_graph(5, seed=1)
    save_snapshot(original, path)
    before = path.read_bytes()

    def exploding_fsync(fd):
        raise OSError("disk full (injected)")

    monkeypatch.setattr(snapshot_module.os, "fsync", exploding_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_snapshot(random_alternating_graph(6, seed=2), path)
    monkeypatch.undo()
    assert path.read_bytes() == before, "failed save tore the old snapshot"
    assert [name for name in _os.listdir(tmp_path) if ".tmp" in name] == []
    assert load_structure(path) == original


def test_save_leaves_no_temp_files_on_success(tmp_path):
    path = tmp_path / "clean.snap"
    save_snapshot(random_alternating_graph(4, seed=0), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.snap"]
