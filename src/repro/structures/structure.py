"""Finite logical structures with universe ``{0, ..., n-1}`` (Section 3).

This is the descriptive-complexity encoding of database inputs the paper
uses: every input is a finite structure over an ordered universe, and SRL
programs receive it as sets of (tuples of) atoms.  :meth:`Structure.to_database`
performs that conversion; :func:`from_database` goes the other way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from repro.core import Atom, Database, make_set, make_tuple
from repro.core.errors import InvalidDatabaseError, SRLNameError
from repro.core.values import SRLSet, SRLTuple, Value

from .changeset import Change, Changeset
from .intern import InternTable
from .vocabulary import Vocabulary

__all__ = ["Structure", "from_database", "load_structure_file"]


@dataclass
class Structure:
    """A finite structure: a universe size and relations over it.

    Relations are stored as frozensets of integer tuples; unary relations
    still use 1-tuples internally, but :meth:`relation` accepts bare
    integers for membership tests.

    ``intern`` optionally records how the canonical dense-int universe was
    produced from labeled elements (see :class:`~repro.structures.intern.
    InternTable` and :meth:`from_labeled`); ``None`` means the universe
    *is* its own labeling (elements are the ranks ``0..n-1``).  The table
    rides along through :meth:`with_relation` / :meth:`restrict` and is
    surfaced by :meth:`stats`.
    """

    vocabulary: Vocabulary
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    intern: InternTable | None = None

    def __post_init__(self) -> None:
        if self.intern is not None and len(self.intern) != self.size:
            raise ValueError(
                f"intern table maps {len(self.intern)} elements but the "
                f"universe has size {self.size}"
            )
        for name in self.vocabulary:
            self.relations.setdefault(name, frozenset())
        for name, tuples in self.relations.items():
            arity = self.vocabulary.arity(name)
            normalised = set()
            for item in tuples:
                row = tuple(item) if isinstance(item, (tuple, list)) else (item,)
                if len(row) != arity:
                    raise ValueError(
                        f"relation {name} expects arity {arity}, got tuple {row}"
                    )
                if not all(0 <= v < self.size for v in row):
                    raise ValueError(f"relation {name} tuple {row} outside universe")
                normalised.add(tuple(int(v) for v in row))
            self.relations[name] = frozenset(normalised)

    # ------------------------------------------------------------ accessors

    @property
    def universe(self) -> range:
        return range(self.size)

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        try:
            return self.relations[name]
        except KeyError:
            available = ", ".join(sorted(self.relations)) or "none"
            raise SRLNameError(
                f"unknown relation {name!r} (available: {available})"
            ) from None

    def holds(self, name: str, *values: int) -> bool:
        return tuple(values) in self.relations[name]

    def stats(self) -> dict:
        """Summary statistics for ``--stats`` and snapshot manifests: the
        universe size, the intern-table entry count (equal to the size —
        the table is a bijection onto the universe — or the size again for
        the identity labeling), and the per-relation row counts."""
        return {
            "size": self.size,
            "intern_entries": self.size if self.intern is None else len(self.intern),
            "interned": self.intern is not None,
            "relations": {name: len(rows)
                          for name, rows in sorted(self.relations.items())},
        }

    def decode_row(self, row: Sequence[int]) -> tuple:
        """A tuple of universe ranks back as the caller's labels (identity
        when the structure was built directly over ``0..n-1``)."""
        if self.intern is None:
            return tuple(row)
        return self.intern.decode_row(row)

    @classmethod
    def from_labeled(cls, relations: Mapping[str, Iterable[Sequence[Hashable]]],
                     elements: Iterable[Hashable] = (),
                     vocabulary: Vocabulary | None = None) -> "Structure":
        """Build a structure from relations over arbitrary hashable labels.

        Every distinct label — first those listed in ``elements`` (callers
        fix the ordering, and isolated elements, this way), then any others
        in relation-row order — is interned to the next dense rank, and the
        resulting :class:`InternTable` is persisted on the structure.  The
        vocabulary is inferred from the rows unless given explicitly.
        """
        table = InternTable(elements)
        ranked: dict[str, set[tuple[int, ...]]] = {}
        arities: dict[str, int] = {}
        for name, rows in relations.items():
            interned = {table.intern_row(tuple(row) if isinstance(row, (tuple, list))
                                         else (row,))
                        for row in rows}
            ranked[name] = interned
            arities[name] = max((len(row) for row in interned), default=1)
        if vocabulary is None:
            vocabulary = Vocabulary.of(**arities)
        return cls(vocabulary, len(table),
                   {name: frozenset(rows) for name, rows in ranked.items()},
                   intern=table)

    @classmethod
    def from_edge_stream(cls, edges: Iterable[Sequence[Hashable]],
                         relation: str = "E", size: int | None = None,
                         elements: Iterable[Hashable] = ()) -> "Structure":
        """Build a graph structure from an edge stream in one bounded pass.

        Edges are packed into machine-word arrays as they arrive — the
        relation is held as a CSR view
        (:class:`~repro.structures.snapshot.PackedCSRRelation`), never as
        a set of Python tuples, so peak memory is O(edges) *words*.  With
        ``size`` given, components must be ranks in ``0..size-1``; without
        it every distinct component is interned in first-occurrence order
        (``elements`` pre-seeds the ordering, exactly like
        :meth:`from_labeled`) and the intern table is persisted.
        """
        from array import array

        from .snapshot import PackedCSRRelation
        from repro.core.columnar import csr_of_pairs

        sources, targets = array("i"), array("i")
        if size is None:
            table = InternTable(elements)
            for row in edges:
                source, target = row
                sources.append(table.intern(source))
                targets.append(table.intern(target))
            n = len(table)
        else:
            table = None
            n = int(size)
            for row in edges:
                source, target = row
                if not (0 <= source < n and 0 <= target < n):
                    raise ValueError(
                        f"relation {relation} edge ({source!r}, {target!r}) "
                        f"outside universe (size {n})")
                sources.append(source)
                targets.append(target)
        offsets, packed = csr_of_pairs(sources, targets, n)
        del sources, targets
        return cls._unchecked(
            Vocabulary.of(**{relation: 2}), n,
            {relation: PackedCSRRelation(offsets, packed)}, table)

    # ----------------------------------------------------------- conversion

    def to_database(self, include_domain: bool = True,
                    domain_name: str = "D") -> Database:
        """Encode the structure as an SRL database.

        Every relation ``R`` becomes a set named ``R``: unary relations are
        sets of atoms, higher-arity ones sets of tuples of atoms.  When
        ``include_domain`` is set the ordered universe itself is bound to
        ``domain_name`` (the paper's ``D`` / ``NODES``), which SRL programs
        iterate over to simulate quantification and arithmetic.
        """
        database = Database()
        if include_domain:
            database.bind(domain_name, make_set(*(Atom(i) for i in self.universe)))
        for name in self.vocabulary:
            arity = self.vocabulary.arity(name)
            rows = self.relations[name]
            if arity == 1:
                database.bind(name, make_set(*(Atom(row[0]) for row in rows)))
            else:
                database.bind(
                    name,
                    make_set(*(make_tuple(*(Atom(v) for v in row)) for row in rows)),
                )
        return database

    # ------------------------------------------------------------ mutation

    def insert(self, name: str, row: Sequence[Hashable]) -> bool:
        """Insert one fact in place; True iff it was not already present.

        Integer components are universe ranks and must be in range; on an
        interned structure, non-int components are labels — unknown labels
        are interned, growing the universe (the new element gets the next
        rank and ``size`` grows with it).  See :meth:`apply` for the
        batched form and the net-change contract.
        """
        return bool(self.apply(Changeset.inserting(name, row)))

    def delete(self, name: str, row: Sequence[Hashable]) -> bool:
        """Delete one fact in place; True iff it was present.

        Deletion never shrinks the universe: an element interned by an
        earlier insert stays in the universe even when its last fact goes.
        """
        return bool(self.apply(Changeset.deleting(name, row)))

    def apply(self, changeset: Changeset) -> Changeset:
        """Apply a batch of single-fact updates in order, in place.

        Returns the **net** changeset: the facts whose membership actually
        changed between the pre- and post-state (an insert later deleted in
        the same batch nets out; re-inserting a present fact is a no-op).
        The net changeset is what the incremental maintenance layer pushes
        through compiled plans, so ``apply`` is the single choke point
        every mutation path goes through.

        Rows are validated like ``__post_init__``: known relation symbol,
        exact arity, components inside the universe.  On an interned
        structure, non-int components are labels; a label unknown at an
        *insert* is interned first (``size`` grows).  Raises on the first
        invalid operation — earlier operations in the batch stay applied,
        so callers treating a batch as atomic should validate first or
        re-snapshot.
        """
        if not isinstance(changeset, Changeset):
            changeset = Changeset(tuple(changeset))
        working: dict[str, set[tuple[int, ...]]] = {}
        initial: dict[tuple[str, tuple[int, ...]], bool] = {}
        for change in changeset:
            name = change.relation
            if name not in self.relations:
                available = ", ".join(sorted(self.relations)) or "none"
                raise SRLNameError(
                    f"unknown relation {name!r} (available: {available})"
                )
            row = self._resolve_row(change)
            rows = working.get(name)
            if rows is None:
                rows = working[name] = set(self.relations[name])
            key = (name, row)
            if key not in initial:
                initial[key] = row in rows
            if change.op == "insert":
                rows.add(row)
            else:
                rows.discard(row)
        net = []
        for (name, row), was_present in initial.items():
            is_present = row in working[name]
            if is_present and not was_present:
                net.append(Change("insert", name, row))
            elif was_present and not is_present:
                net.append(Change("delete", name, row))
        for name, rows in working.items():
            self.relations[name] = frozenset(rows)
        return Changeset(tuple(net))

    def _resolve_row(self, change: Change) -> tuple[int, ...]:
        """Validate one operation's row and resolve labels to ranks,
        interning (and growing the universe) for new labels on inserts."""
        name, row = change.relation, change.row
        arity = self.vocabulary.arity(name)
        if len(row) != arity:
            raise ValueError(
                f"relation {name} expects arity {arity}, got tuple {row!r}"
            )
        resolved = []
        for component in row:
            if isinstance(component, int) and not isinstance(component, bool):
                if not 0 <= component < self.size:
                    raise ValueError(
                        f"relation {name} tuple {row!r} outside universe "
                        f"(size {self.size})"
                    )
                resolved.append(component)
                continue
            if self.intern is None:
                raise ValueError(
                    f"relation {name} tuple {row!r}: labeled components "
                    f"need an interned structure (build via from_labeled)"
                )
            if component in self.intern:
                resolved.append(self.intern.rank_of(component))
            elif change.op == "insert":
                resolved.append(self.intern.intern(component))
                self.size = len(self.intern)
            else:
                raise ValueError(
                    f"relation {name}: cannot delete fact {row!r} with "
                    f"unknown label {component!r}"
                )
        return tuple(resolved)

    @classmethod
    def _unchecked(cls, vocabulary: Vocabulary, size: int,
                   relations: dict[str, frozenset[tuple[int, ...]]],
                   intern: InternTable | None) -> "Structure":
        """Internal: a structure view skipping ``__post_init__`` validation
        — the maintenance layer's pre-update snapshot (old relation
        frozensets are shared, never copied, so this is O(#relations))."""
        clone = object.__new__(cls)
        clone.vocabulary = vocabulary
        clone.size = size
        clone.relations = relations
        clone.intern = intern
        return clone

    # ------------------------------------------------------------- algebra

    def with_relation(self, name: str, tuples: Iterable[Sequence[int]],
                      arity: int | None = None) -> "Structure":
        """A copy of this structure with relation ``name`` replaced/added."""
        rows = frozenset(tuple(row) for row in tuples)
        if name in self.vocabulary:
            vocabulary = self.vocabulary
        else:
            if arity is None:
                arity = len(next(iter(rows), ()))
                if arity == 0:
                    raise ValueError("cannot infer arity of an empty new relation")
            vocabulary = self.vocabulary.extended(**{name: arity})
        relations = dict(self.relations)
        relations[name] = rows
        return Structure(vocabulary, self.size, relations, intern=self.intern)

    def restrict(self, names: Iterable[str]) -> "Structure":
        """The reduct of this structure to the given relation symbols."""
        names = list(names)
        vocabulary = Vocabulary.of(**{n: self.vocabulary.arity(n) for n in names})
        return Structure(vocabulary, self.size,
                         {n: self.relations[n] for n in names},
                         intern=self.intern)

    def is_isomorphic_by(self, other: "Structure", mapping: Sequence[int]) -> bool:
        """Check that ``mapping`` (a permutation of the universe) is an
        isomorphism from this structure onto ``other``."""
        if self.size != other.size or sorted(mapping) != list(range(self.size)):
            return False
        if set(self.vocabulary.names()) != set(other.vocabulary.names()):
            return False
        for name in self.vocabulary:
            image = frozenset(tuple(mapping[v] for v in row) for row in self.relations[name])
            if image != other.relations[name]:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Structure)
            and self.size == other.size
            and set(self.vocabulary.names()) == set(other.vocabulary.names())
            and all(self.relations[n] == other.relations[n] for n in self.vocabulary)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{name}:{len(rows)}" for name, rows in sorted(self.relations.items()))
        return f"Structure(n={self.size}, {sizes})"


def from_database(database: Database | Mapping[str, object],
                  domain_name: str = "D") -> Structure:
    """Reconstruct a :class:`Structure` from an SRL database produced by
    :meth:`Structure.to_database` (or shaped like one)."""
    if not isinstance(database, Database):
        database = Database(database)

    def ranks_of(name: str, value: Value) -> set[tuple[int, ...]]:
        rows: set[tuple[int, ...]] = set()
        if not isinstance(value, SRLSet):
            raise InvalidDatabaseError(
                f"{name}: a relation must be a set of facts, got "
                f"{type(value).__name__}"
            )
        for index, element in enumerate(value.elements):
            if isinstance(element, Atom):
                rows.add((element.rank,))
            elif isinstance(element, SRLTuple):
                for position, component in enumerate(element):
                    if not isinstance(component, Atom):
                        raise InvalidDatabaseError(
                            f"{name}[{index}][{position}]: a fact component "
                            f"must be an atom, got {component!r}"
                        )
                rows.add(tuple(v.rank for v in element))
            else:
                raise InvalidDatabaseError(
                    f"{name}[{index}]: a fact must be an atom or a tuple of "
                    f"atoms, got {element!r}"
                )
        return rows

    names = [name for name in database.names() if name != domain_name]
    arities: dict[str, int] = {}
    relations: dict[str, frozenset[tuple[int, ...]]] = {}
    max_rank = -1
    if domain_name in database:
        domain_value = database.lookup(domain_name)
        if not isinstance(domain_value, SRLSet):
            raise InvalidDatabaseError(
                f"{domain_name}: the domain must be a set of atoms, got "
                f"{type(domain_value).__name__}"
            )
        for element in domain_value.elements:
            if isinstance(element, Atom):
                max_rank = max(max_rank, element.rank)

    for name in names:
        rows = ranks_of(name, database.lookup(name))
        arities[name] = max((len(row) for row in rows), default=1)
        relations[name] = frozenset(rows)
        for row in rows:
            max_rank = max(max_rank, max(row, default=-1))

    try:
        return Structure(Vocabulary.of(**arities), max_rank + 1, relations)
    except ValueError as error:
        # Mixed arities within one relation (the vocabulary records the
        # maximum; shorter facts then fail the arity check).
        raise InvalidDatabaseError(str(error)) from error


def load_structure_file(path) -> Structure:
    """A structure from either on-disk encoding: binary snapshots are
    recognized by their leading ``RSNP`` magic, anything else parses as
    the JSON database shape.  Shared by the CLI and the query-service
    workers, so both front ends accept exactly the same files."""
    import json
    from pathlib import Path

    from .snapshot import MAGIC, load_structure

    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
    if magic == MAGIC:
        return load_structure(path)
    from repro.core.engine import database_from_json

    return from_database(database_from_json(json.loads(path.read_text())))
