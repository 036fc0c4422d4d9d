"""Binary structure snapshots: the out-of-core persistence format (P9).

A snapshot is one file holding a :class:`~repro.structures.structure.
Structure` — universe size, vocabulary, intern table, and every relation
as a *packed* payload — plus optional derived (memoized) relations and
per-relation degree statistics for the optimizer's cost model.  The
format is designed around two constraints:

* **Load without materializing.**  ``mmap`` the file, parse one JSON
  header, and hand each relation back as a lazy frozenset-like view
  (:class:`SnapshotRelation`) over the mapped bytes.  Row sets are only
  built if some consumer actually iterates; the columnar backends never
  do — they read the packed payloads directly through :meth:`bitset` /
  :meth:`csr_arrays`, so a million-edge closure starts from a cold file
  in milliseconds of deserialization, not minutes of tuple building.
* **Write in one bounded pass.**  :func:`build_snapshot` consumes an
  edge stream, interning labels and packing rows into machine-word
  arrays as it goes — peak memory O(edges) words, never O(edges) tuples.

Layout (all integers little-endian)::

    bytes 0..3    magic  b"RSNP"
    bytes 4..5    format version (u16, currently 1)
    bytes 6..7    reserved (zero)
    bytes 8..15   header length H (u64)
    bytes 16..    UTF-8 JSON header, H bytes
    (padding to a multiple of 8)
    payload       packed sections, each 8-byte aligned

The header records, per relation: arity, row count, encoding, the
section's offset *relative to the payload base* and length, and — for
binary relations — degree statistics (``distinct_sources``,
``distinct_targets``, ``max_out_degree``).  Encodings by arity:

=========  =============================================================
``bitset``  arity 1: the membership bitset as packed 64-bit words
``csr``     arity 2: ``n+1`` u64 row offsets, then the i32 target list
``tuples``  arity 0 and 3+: the rows flattened as i32 values
=========  =============================================================

Every malformed-input path — bad magic, unknown version, header that is
not JSON, sections pointing past the end of the file, payload lengths
that disagree with the declared row counts — raises
:class:`~repro.core.errors.SnapshotError`, which subclasses
``InvalidDatabaseError`` so the CLI reports it as a bad input (exit 2).
"""

from __future__ import annotations

import json
import mmap
import os
import sys
import tempfile
import zlib
from array import array
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.columnar import csr_of_pairs, iter_bits, iter_csr_rows

from .intern import InternTable
from .structure import Structure
from .vocabulary import Vocabulary

# The format error lives in core.errors (the CLI maps it to exit 2); the
# import is re-exported here as part of the snapshot API.
from repro.core.errors import SnapshotError

__all__ = [
    "Snapshot",
    "SnapshotError",
    "SnapshotRelation",
    "PackedBitsetRelation",
    "PackedCSRRelation",
    "PackedTupleRelation",
    "build_snapshot",
    "degree_stats_of_csr",
    "load_snapshot",
    "load_structure",
    "save_snapshot",
]

MAGIC = b"RSNP"
VERSION = 1
_HEADER_PREFIX = 16  # magic + version + reserved + header length


def _pad8(length: int) -> int:
    return (-length) % 8


def _le(values: array) -> bytes:
    """The array's bytes in little-endian order regardless of host."""
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _array_from(typecode: str, raw: bytes | memoryview) -> array:
    values = array(typecode)
    values.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values


# --------------------------------------------------------- packed relations


class SnapshotRelation:
    """Base of the lazy frozenset-like relation views.

    Concrete subclasses hold one packed payload (a bitset int, a CSR
    array pair, or a flat tuple buffer) and answer ``len``/``in``/
    iteration from it; :meth:`rows` materializes (and caches) the full
    frozenset only when some consumer genuinely needs row sets — the
    packed accessors :meth:`PackedBitsetRelation.bitset` and
    :meth:`PackedCSRRelation.csr_arrays` are what the columnar backends
    use instead.  Set operators are provided (materializing) so these
    views compose with ordinary frozenset code paths.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: frozenset | None = None

    def rows(self) -> frozenset:
        if self._rows is None:
            self._rows = frozenset(self._iter_rows())
        return self._rows

    def _iter_rows(self) -> Iterator[tuple]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple]:
        if self._rows is not None:
            return iter(self._rows)
        return self._iter_rows()

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, row: object) -> bool:
        return row in self.rows()

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SnapshotRelation):
            return self.rows() == other.rows()
        if isinstance(other, (set, frozenset)):
            return self.rows() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows())

    def __or__(self, other):
        return self.rows() | other

    __ror__ = __or__

    def __and__(self, other):
        return self.rows() & other

    __rand__ = __and__

    def __sub__(self, other):
        return self.rows() - other

    def __rsub__(self, other):
        return other - self.rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rows={len(self)})"


class PackedBitsetRelation(SnapshotRelation):
    """An arity-1 relation as one membership bitset."""

    __slots__ = ("_bits", "_count")

    def __init__(self, bits: int, count: int | None = None):
        super().__init__()
        self._bits = bits
        self._count = bits.bit_count() if count is None else count

    def bitset(self) -> int:
        return self._bits

    def _iter_rows(self) -> Iterator[tuple]:
        return ((index,) for index in iter_bits(self._bits))

    def __len__(self) -> int:
        return self._count

    def __contains__(self, row: object) -> bool:
        if isinstance(row, tuple) and len(row) == 1:
            value = row[0]
            return isinstance(value, int) and value >= 0 \
                and bool(self._bits >> value & 1)
        if isinstance(row, int):
            return row >= 0 and bool(self._bits >> row & 1)
        return False


class PackedCSRRelation(SnapshotRelation):
    """An arity-2 relation as CSR offsets + sorted target lists."""

    __slots__ = ("_offsets", "_targets")

    def __init__(self, offsets: array, targets: array):
        super().__init__()
        self._offsets = offsets
        self._targets = targets

    def csr_arrays(self) -> tuple[array, array]:
        return self._offsets, self._targets

    def _iter_rows(self) -> Iterator[tuple]:
        return iter_csr_rows(self._offsets, self._targets)

    def __len__(self) -> int:
        return len(self._targets)

    def __contains__(self, row: object) -> bool:
        if not (isinstance(row, tuple) and len(row) == 2):
            return False
        source, target = row
        offsets = self._offsets
        if not (isinstance(source, int) and 0 <= source < len(offsets) - 1):
            return False
        targets = self._targets
        lo, hi = offsets[source], offsets[source + 1]
        while lo < hi:  # rows are target-sorted: binary search
            mid = (lo + hi) // 2
            value = targets[mid]
            if value == target:
                return True
            if value < target:
                lo = mid + 1
            else:
                hi = mid
        return False


class PackedTupleRelation(SnapshotRelation):
    """Any other arity, flattened into one i32 buffer."""

    __slots__ = ("_arity", "_flat")

    def __init__(self, arity: int, flat: array):
        super().__init__()
        self._arity = arity
        self._flat = flat

    def _iter_rows(self) -> Iterator[tuple]:
        arity, flat = self._arity, self._flat
        if arity == 0:
            return iter([()] if len(flat) else [])
        return (tuple(flat[i:i + arity])
                for i in range(0, len(flat), arity))

    def __len__(self) -> int:
        if self._arity == 0:
            return 1 if len(self._flat) else 0
        return len(self._flat) // self._arity


# ------------------------------------------------------------- degree stats


def degree_stats_of_csr(offsets: Sequence[int], targets: Sequence[int]
                        ) -> dict[str, int]:
    """Per-relation shape statistics persisted in the snapshot header and
    fed to the optimizer's :class:`~repro.logic.optimize.CostModel`: how
    many sources have any edge, how many distinct targets exist, and the
    worst-case fanout."""
    distinct_sources = 0
    max_out = 0
    for source in range(len(offsets) - 1):
        degree = offsets[source + 1] - offsets[source]
        if degree:
            distinct_sources += 1
            if degree > max_out:
                max_out = degree
    return {
        "rows": len(targets),
        "distinct_sources": distinct_sources,
        "distinct_targets": len(set(targets)),
        "max_out_degree": max_out,
    }


# ------------------------------------------------------------------ writing


def _pack_relation(name: str, arity: int, relation, size: int
                   ) -> tuple[dict, bytes]:
    """One relation as ``(header entry sans offset, payload bytes)``."""
    if arity == 1:
        if isinstance(relation, PackedBitsetRelation):
            bits = relation.bitset()
        else:
            bits = 0
            for row in relation:
                bits |= 1 << row[0]
        words = (size + 63) // 64
        payload = bits.to_bytes(8 * words, "little")
        return {"arity": 1, "rows": bits.bit_count(),
                "encoding": "bitset"}, payload
    if arity == 2:
        if isinstance(relation, PackedCSRRelation):
            offsets, targets = relation.csr_arrays()
        else:
            sources, sinks = array("i"), array("i")
            for row in relation:
                sources.append(row[0])
                sinks.append(row[1])
            offsets, targets = csr_of_pairs(sources, sinks, size)
        body = _le(offsets) + _le(targets)
        entry = {"arity": 2, "rows": len(targets), "encoding": "csr",
                 "stats": degree_stats_of_csr(offsets, targets)}
        return entry, body
    flat = array("i")
    count = 0
    for row in sorted(relation):
        count += 1
        flat.extend(row)
    if arity == 0:
        # The unit relation: one marker value when the empty tuple holds.
        if count:
            flat.append(1)
        return {"arity": 0, "rows": count, "encoding": "tuples"}, _le(flat)
    return {"arity": arity, "rows": count, "encoding": "tuples"}, _le(flat)


def save_snapshot(structure: Structure, path: str | os.PathLike,
                  derived: Mapping[str, frozenset] | None = None) -> dict:
    """Write ``structure`` (and optional ``derived`` memoized relations)
    as a snapshot file, returning the header that was persisted.

    Intern-table labels are stored in the JSON header and must therefore
    be JSON-serializable; anything else raises :class:`SnapshotError`
    (persist such structures over their ranks instead)."""
    labels = None
    if structure.intern is not None:
        labels = list(structure.intern.labels)
        try:
            labels = json.loads(json.dumps(labels))
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"intern labels are not JSON-serializable: {error}"
            ) from error
    entries: dict[str, dict] = {}
    payloads: list[bytes] = []
    cursor = 0

    def add(name: str, arity: int, relation, bucket: dict) -> None:
        nonlocal cursor
        entry, payload = _pack_relation(name, arity, relation,
                                        structure.size)
        entry["offset"] = cursor
        entry["length"] = len(payload)
        bucket[name] = entry
        pad = _pad8(len(payload))
        payloads.append(payload + b"\0" * pad)
        cursor += len(payload) + pad

    for name in structure.vocabulary:
        add(name, structure.vocabulary.arity(name),
            structure.relations[name], entries)
    derived_entries: dict[str, dict] = {}
    for name, rows in (derived or {}).items():
        arity = len(next(iter(rows), ()))
        add(name, arity, rows, derived_entries)

    checksum = 0
    for payload in payloads:
        checksum = zlib.crc32(payload, checksum)
    header = {
        "format": "repro-structure-snapshot",
        "version": VERSION,
        "size": structure.size,
        "vocabulary": structure.vocabulary.as_dict(),
        "labels": labels,
        "relations": entries,
        "derived": derived_entries,
        # Verified on open: a torn or bit-flipped payload section fails
        # loudly as SnapshotError instead of decoding into wrong rows.
        "checksum": {"algorithm": "crc32", "value": checksum,
                     "payload_bytes": cursor},
    }
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    # Atomic publish: write a sibling temp file, fsync it, then
    # os.replace onto the target — a crash mid-write leaves either the
    # old snapshot or no snapshot, never a torn file under the real name.
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(MAGIC)
            handle.write((VERSION).to_bytes(2, "little"))
            handle.write(b"\0\0")
            handle.write(len(encoded).to_bytes(8, "little"))
            handle.write(encoded)
            handle.write(b"\0" * _pad8(_HEADER_PREFIX + len(encoded)))
            for payload in payloads:
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return header


# ------------------------------------------------------------------ reading


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotError(message)


def _within(values, size: int) -> bool:
    """Whether every value lies in ``[0, size)``: one C-level ``min`` and
    ``max`` pass each, not a Python loop per value."""
    return not values or (min(values) >= 0 and max(values) < size)


class Snapshot:
    """One opened snapshot: the parsed header, the lazy structure, and
    any derived relations stored alongside it.

    The underlying buffer is read fully into memory only on small files;
    larger ones stay as an ``mmap`` view for as long as a relation view
    might still read from it (the arrays a view decodes are copies, so
    the mapping is released once every relation has been touched —
    :meth:`close` forces it)."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as error:
            raise SnapshotError(f"cannot open snapshot: {error}") from error
        try:
            size = os.fstat(self._file.fileno()).st_size
            _require(size >= _HEADER_PREFIX,
                     f"{self.path}: too short for a snapshot header "
                     f"({size} bytes)")
            try:
                self._view = mmap.mmap(self._file.fileno(), 0,
                                       access=mmap.ACCESS_READ)
            except (ValueError, OSError) as error:
                raise SnapshotError(
                    f"{self.path}: cannot map snapshot: {error}") from error
            self.header = self._parse_header()
        except Exception:
            self._file.close()
            raise
        self._structure: Structure | None = None
        self._derived: dict[str, SnapshotRelation] | None = None

    # ------------------------------------------------------------- header

    def _parse_header(self) -> dict:
        view = self._view
        _require(bytes(view[0:4]) == MAGIC,
                 f"{self.path}: bad magic {bytes(view[0:4])!r} "
                 f"(expected {MAGIC!r})")
        version = int.from_bytes(view[4:6], "little")
        _require(version == VERSION,
                 f"{self.path}: unsupported snapshot version {version} "
                 f"(this build reads version {VERSION})")
        header_length = int.from_bytes(view[8:16], "little")
        _require(_HEADER_PREFIX + header_length <= len(view),
                 f"{self.path}: header length {header_length} runs past "
                 f"the end of the file ({len(view)} bytes)")
        raw = view[_HEADER_PREFIX:_HEADER_PREFIX + header_length]
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotError(
                f"{self.path}: header is not valid JSON: {error}"
            ) from error
        _require(isinstance(header, dict), f"{self.path}: header must be "
                 f"a JSON object, got {type(header).__name__}")
        size = header.get("size")
        _require(isinstance(size, int) and size >= 0,
                 f"{self.path}: header size must be a non-negative "
                 f"integer, got {size!r}")
        vocabulary = header.get("vocabulary")
        _require(isinstance(vocabulary, dict) and all(
            isinstance(arity, int) and arity >= 0
            for arity in vocabulary.values()),
            f"{self.path}: header vocabulary must map names to arities")
        for bucket in ("relations", "derived"):
            _require(isinstance(header.get(bucket, {}), dict),
                     f"{self.path}: header {bucket} must be an object")
        self._payload_base = _HEADER_PREFIX + header_length \
            + _pad8(_HEADER_PREFIX + header_length)
        checksum = header.get("checksum")
        if checksum is not None:
            # Files written before the checksum existed simply lack the
            # field; files that carry one must verify, in full, at open.
            _require(isinstance(checksum, dict)
                     and checksum.get("algorithm") == "crc32"
                     and isinstance(checksum.get("value"), int)
                     and isinstance(checksum.get("payload_bytes"), int),
                     f"{self.path}: malformed checksum entry {checksum!r}")
            span = checksum["payload_bytes"]
            _require(self._payload_base + span <= len(view),
                     f"{self.path}: checksummed payload ({span} bytes) "
                     f"runs past the end of the file ({len(view)} bytes)")
            actual = zlib.crc32(
                view[self._payload_base:self._payload_base + span])
            _require(actual == checksum["value"],
                     f"{self.path}: payload checksum mismatch (stored "
                     f"crc32 {checksum['value']:#010x}, computed "
                     f"{actual:#010x}) — the snapshot is corrupt or torn")
        return header

    # ------------------------------------------------------------ sections

    def _section(self, name: str, entry: dict) -> memoryview:
        _require(isinstance(entry, dict)
                 and isinstance(entry.get("offset"), int)
                 and isinstance(entry.get("length"), int)
                 and isinstance(entry.get("rows"), int)
                 and entry.get("rows") >= 0
                 and entry.get("offset") >= 0
                 and entry.get("length") >= 0,
                 f"{self.path}: relation {name!r} has a malformed header "
                 f"entry")
        start = self._payload_base + entry["offset"]
        stop = start + entry["length"]
        _require(stop <= len(self._view),
                 f"{self.path}: relation {name!r} section "
                 f"[{start}, {stop}) runs past the end of the file "
                 f"({len(self._view)} bytes)")
        return memoryview(self._view)[start:stop]

    def _decode(self, name: str, entry: dict) -> SnapshotRelation:
        section = self._section(name, entry)
        encoding = entry.get("encoding")
        arity = entry.get("arity")
        size = self.header["size"]
        if encoding == "bitset":
            _require(arity == 1, f"{self.path}: relation {name!r} bitset "
                     f"encoding requires arity 1, got {arity!r}")
            words = (size + 63) // 64
            _require(len(section) == 8 * words,
                     f"{self.path}: relation {name!r} bitset payload is "
                     f"{len(section)} bytes, expected {8 * words}")
            bits = int.from_bytes(section, "little")
            relation = PackedBitsetRelation(bits)
            _require(len(relation) == entry["rows"],
                     f"{self.path}: relation {name!r} bitset holds "
                     f"{len(relation)} rows, header says {entry['rows']}")
            return relation
        if encoding == "csr":
            _require(arity == 2, f"{self.path}: relation {name!r} csr "
                     f"encoding requires arity 2, got {arity!r}")
            rows = entry["rows"]
            expected = 8 * (size + 1) + 4 * rows
            _require(len(section) == expected,
                     f"{self.path}: relation {name!r} csr payload is "
                     f"{len(section)} bytes, expected {expected} "
                     f"({rows} rows over universe {size})")
            offsets = _array_from("q", section[:8 * (size + 1)])
            targets = _array_from("i", section[8 * (size + 1):])
            _require(len(offsets) == size + 1 and offsets[0] == 0
                     and offsets[-1] == rows
                     and offsets.tolist() == sorted(offsets),
                     f"{self.path}: relation {name!r} csr offsets are not "
                     f"monotone over [0, {rows}]")
            _require(_within(targets, size),
                     f"{self.path}: relation {name!r} has targets outside "
                     f"the universe of {size}")
            return PackedCSRRelation(offsets, targets)
        _require(encoding == "tuples",
                 f"{self.path}: relation {name!r} has unknown encoding "
                 f"{encoding!r}")
        _require(isinstance(arity, int) and arity >= 0,
                 f"{self.path}: relation {name!r} has invalid arity "
                 f"{arity!r}")
        rows = entry["rows"]
        expected = 4 * arity * rows if arity else (4 if rows else 0)
        _require(len(section) == expected,
                 f"{self.path}: relation {name!r} tuple payload is "
                 f"{len(section)} bytes, expected {expected}")
        flat = _array_from("i", section)
        if arity:
            _require(_within(flat, size),
                     f"{self.path}: relation {name!r} has components "
                     f"outside the universe of {size}")
        return PackedTupleRelation(arity, flat)

    # ------------------------------------------------------------- results

    @property
    def structure(self) -> Structure:
        """The lazily-decoded structure (decoded once, then cached)."""
        if self._structure is None:
            header = self.header
            vocabulary = Vocabulary.of(**header["vocabulary"])
            relations: dict = {}
            entries = header.get("relations", {})
            for name in vocabulary:
                entry = entries.get(name)
                _require(entry is not None,
                         f"{self.path}: relation {name!r} is in the "
                         f"vocabulary but has no section")
                _require(entry.get("arity") == vocabulary.arity(name),
                         f"{self.path}: relation {name!r} arity "
                         f"{entry.get('arity')!r} disagrees with the "
                         f"vocabulary ({vocabulary.arity(name)})")
                relations[name] = self._decode(name, entry)
            labels = header.get("labels")
            intern = None
            if labels is not None:
                _require(isinstance(labels, list)
                         and len(labels) == header["size"],
                         f"{self.path}: {len(labels) if isinstance(labels, list) else '?'} "
                         f"intern labels for a universe of {header['size']}")
                intern = InternTable(labels)
                _require(len(intern) == header["size"],
                         f"{self.path}: intern labels are not distinct")
            structure = Structure._unchecked(vocabulary, header["size"],
                                             relations, intern)
            structure.degree_stats = {
                name: dict(entry["stats"])
                for name, entry in entries.items()
                if isinstance(entry.get("stats"), dict)
            }
            self._structure = structure
        return self._structure

    @property
    def derived(self) -> dict[str, SnapshotRelation]:
        """Derived/memoized relations stored alongside the inputs."""
        if self._derived is None:
            self._derived = {
                name: self._decode(name, entry)
                for name, entry in self.header.get("derived", {}).items()
            }
        return self._derived

    def info(self) -> dict:
        """The ``snapshot info`` CLI payload: header facts plus file size."""
        header = self.header
        return {
            "path": self.path,
            "file_bytes": len(self._view),
            "size": header["size"],
            "interned": header.get("labels") is not None,
            "vocabulary": dict(header["vocabulary"]),
            "relations": {
                name: {key: entry[key] for key in
                       ("arity", "rows", "encoding", "length")}
                | ({"stats": entry["stats"]} if "stats" in entry else {})
                for name, entry in header.get("relations", {}).items()
            },
            "derived": {
                name: {key: entry[key] for key in
                       ("arity", "rows", "encoding", "length")}
                for name, entry in header.get("derived", {}).items()
            },
        }

    def close(self) -> None:
        """Release the mapping (relation views already decoded keep
        working; undecoded ones must not be touched afterwards)."""
        self._view.close()
        self._file.close()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_snapshot(path: str | os.PathLike) -> Snapshot:
    """Open and validate a snapshot file (header only; relations decode
    lazily)."""
    return Snapshot(path)


def load_structure(path: str | os.PathLike) -> Structure:
    """The one-call loading convenience: the snapshot's structure, with
    every relation decoded as a lazy packed view."""
    return load_snapshot(path).structure


# ----------------------------------------------------------- streaming build


def build_snapshot(edges: Iterable[Sequence[Hashable]],
                   path: str | os.PathLike, relation: str = "E",
                   size: int | None = None,
                   elements: Iterable[Hashable] = ()) -> dict:
    """Stream ``edges`` into a snapshot file in one bounded pass.

    Rows are packed into machine-word arrays as they arrive (peak memory
    O(edges) *words*); with ``size`` given the components are taken as
    universe ranks, otherwise every distinct component is interned in
    first-occurrence order (seeded by ``elements``) and the intern table
    is persisted.  Returns the written header."""
    structure = Structure.from_edge_stream(edges, relation=relation,
                                           size=size, elements=elements)
    return save_snapshot(structure, path)
