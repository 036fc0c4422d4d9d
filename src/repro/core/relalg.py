"""Semi-naive relational algebra: indexed relations and delta-driven fixed points.

Every fixed-point-shaped computation in the repo — the logic layer's
TC/DTC/LFP model checking, the AGAP baseline, the query-layer closures, the
Figure 1 containment lattice — bottoms out in one of two evaluation
strategies over a growing relation:

*Naive evaluation* re-applies the derivation rules to the **entire**
relation accumulated so far on every iteration, so a fact derived in round
one is re-derived in every later round.  For a closure over ``d`` rounds
this multiplies the total join work by ``d``.  The naive kernels are kept
(``naive_fixpoint`` / ``naive_closure``) because they are the trivially
correct reading of the paper's inflationary operators: the ``reference``
backend runs them as the differential oracle, and the P2 benchmark uses
them as the baseline.

*Semi-naive evaluation* applies the rules only to the **delta** — the facts
derived in the previous round — because any new fact must have at least one
freshly derived premise.  The invariant that makes this sound for an
inflationary rule set is::

    total_{i+1} = total_i ∪ delta_step(delta_i, total_i)
    delta_{i+1} = total_{i+1} \\ total_i

i.e. every derivation with all premises in ``total_{i-1}`` was already
performed in an earlier round, so restricting round ``i`` to derivations
touching ``delta_i`` loses nothing.  Iteration stops when a round derives
no new fact.

:class:`IndexedRelation` supplies the data structure both strategies lean
on: a set of same-arity tuples with lazily built, incrementally maintained
per-column hash indexes (so joins probe a dict instead of scanning the
relation) and a built-in delta set (the frontier accumulated since the last
:meth:`~IndexedRelation.take_delta`).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

__all__ = [
    "IndexedRelation",
    "naive_fixpoint",
    "seminaive_fixpoint",
    "naive_closure",
    "seminaive_closure",
]

_Node = TypeVar("_Node", bound=Hashable)

#: Shared empty result for index misses (never mutated).
_NO_ROWS: frozenset = frozenset()


class IndexedRelation:
    """A relation — a set of same-arity tuples — with per-column hash
    indexes and a delta (frontier) set for semi-naive iteration.

    * ``rows`` is the total relation.  Membership, length and iteration all
      read it directly.
    * :meth:`index` builds (on first use) and thereafter incrementally
      maintains ``{value -> set of rows with that value in the column}``;
      :meth:`index_on` is the composite-key variant over several columns.
      Both persist on the relation, so a relation reused across joins (or
      across fixed-point rounds) pays for each index once.
    * :meth:`add` reports whether the row was new, and every new row joins
      the delta set until :meth:`take_delta` drains it — the loop shape of
      semi-naive evaluation.
    * :meth:`join` / :meth:`project` / :meth:`union` / :meth:`select` /
      :meth:`semijoin` / :meth:`antijoin` are the bulk operators; ``join``
      probes the right side's column index instead of scanning it.
    """

    __slots__ = ("arity", "_rows", "_delta", "_indexes")

    def __init__(self, rows: Iterable[Sequence] = (), arity: int | None = None):
        self.arity = arity
        self._rows: set[tuple] = set()
        self._delta: set[tuple] = set()
        # Keyed by a column number (single-column index) or a tuple of
        # column numbers (composite-key index); both kinds are maintained
        # incrementally by :meth:`add` once built.
        self._indexes: dict[int | tuple[int, ...], dict[Hashable, set[tuple]]] = {}
        self.update(rows)

    @classmethod
    def adopt(cls, rows: set[tuple], arity: int | None = None
              ) -> "IndexedRelation":
        """Wrap an already-deduplicated ``set`` of same-arity tuples
        *without copying or per-row bookkeeping* — the bulk-kernel fast
        path (set-native joins and differences build a plain set, then
        adopt it).  The relation takes ownership of ``rows``; the delta
        set starts empty, so adopted relations are results, not semi-naive
        frontiers."""
        relation = cls.__new__(cls)
        relation.arity = arity
        relation._rows = rows
        relation._delta = set()
        relation._indexes = {}
        return relation

    # ------------------------------------------------------------- reading

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexedRelation):
            return self._rows == other._rows
        if isinstance(other, (set, frozenset)):
            return self._rows == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IndexedRelation(arity={self.arity}, rows={len(self._rows)}, "
                f"delta={len(self._delta)}, indexed={sorted(self._indexes)})")

    @property
    def rows(self) -> set[tuple]:
        """The total relation (treat as read-only; mutate via :meth:`add`)."""
        return self._rows

    # ------------------------------------------------------------- writing

    def add(self, row: Sequence) -> bool:
        """Insert a row; returns True iff it was not already present.  New
        rows enter the delta set and every built column index."""
        row = tuple(row)
        if self.arity is None:
            self.arity = len(row)
        elif len(row) != self.arity:
            raise ValueError(
                f"arity mismatch: relation holds {self.arity}-tuples, got {row!r}"
            )
        if row in self._rows:
            return False
        self._rows.add(row)
        self._delta.add(row)
        for column, index in self._indexes.items():
            if type(column) is tuple:
                key: Hashable = tuple(row[c] for c in column)
            else:
                key = row[column]
            index.setdefault(key, set()).add(row)
        return True

    def update(self, rows: Iterable[Sequence]) -> int:
        """Bulk :meth:`add`; returns how many rows were new."""
        return sum(self.add(row) for row in rows)

    def discard(self, row: Sequence) -> bool:
        """Remove a row; returns True iff it was present.

        The inverse of :meth:`add`, with the same index contract: every
        built column index drops the row, so a relation maintained under
        deletions keeps probing correctly without a rebuild.  A removed
        row also leaves the delta set — the frontier only ever names rows
        *currently* in the relation, which is what the incremental
        maintenance layer's over-delete/re-derive passes rely on.
        """
        row = tuple(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        self._delta.discard(row)
        for column, index in self._indexes.items():
            if type(column) is tuple:
                key: Hashable = tuple(row[c] for c in column)
            else:
                key = row[column]
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]
        return True

    # -------------------------------------------------------------- deltas

    @property
    def has_delta(self) -> bool:
        return bool(self._delta)

    def take_delta(self) -> frozenset[tuple]:
        """The rows added since the last call, clearing the frontier."""
        delta = frozenset(self._delta)
        self._delta.clear()
        return delta

    # ------------------------------------------------------------- indexes

    def index(self, column: int) -> dict[Hashable, set[tuple]]:
        """The hash index on ``column`` (built lazily, maintained by
        :meth:`add` once built)."""
        index = self._indexes.get(column)
        if index is None:
            if self.arity is not None and not 0 <= column < self.arity:
                raise IndexError(
                    f"column {column} out of range for arity {self.arity}"
                )
            index = {}
            for row in self._rows:
                index.setdefault(row[column], set()).add(row)
            self._indexes[column] = index
        return index

    def index_on(self, columns: Sequence[int]) -> dict[Hashable, set[tuple]]:
        """The composite-key hash index on ``columns`` — ``{(row[c0], c1,
        ...) -> set of rows}`` — built lazily and maintained by :meth:`add`
        once built, so a relation joined repeatedly on the same key tuple
        (or reused across fixed-point rounds) indexes itself exactly once."""
        key = tuple(columns)
        index = self._indexes.get(key)
        if index is None:
            if self.arity is not None:
                for column in key:
                    if not 0 <= column < self.arity:
                        raise IndexError(
                            f"column {column} out of range for arity {self.arity}"
                        )
            index = {}
            for row in self._rows:
                index.setdefault(tuple(row[c] for c in key), set()).add(row)
            self._indexes[key] = index
        return index

    def matching(self, column: int, value: Hashable) -> frozenset[tuple]:
        """The rows whose ``column`` holds ``value`` (empty on a miss).

        Always a :class:`frozenset` — hits are snapshotted so a caller can
        never mutate the live index through the return value (misses used
        to share an immutable empty set while hits leaked the internal
        bucket; both are immutable now).
        """
        rows = self.index(column).get(value)
        if rows is None:
            return _NO_ROWS
        return frozenset(rows)

    # ------------------------------------------------------ bulk operators

    def join(self, other: "IndexedRelation", left_column: int, right_column: int,
             combine: Callable[[tuple, tuple], tuple] | None = None,
             ) -> "IndexedRelation":
        """Hash join: pairs of rows with ``left[left_column] ==
        right[right_column]``, combined by ``combine`` (default: left row
        followed by the right row minus its join column)."""
        if combine is None:
            def combine(left: tuple, right: tuple) -> tuple:
                return left + right[:right_column] + right[right_column + 1:]
        result = IndexedRelation()
        right_index = other.index(right_column)
        for left in self._rows:
            for right in right_index.get(left[left_column], _NO_ROWS):
                result.add(combine(left, right))
        return result

    def project(self, columns: Sequence[int]) -> "IndexedRelation":
        """The projection onto the given columns (duplicates collapse)."""
        columns = tuple(columns)
        result = IndexedRelation(arity=len(columns))
        for row in self._rows:
            result.add(tuple(row[c] for c in columns))
        return result

    def union(self, other: Iterable[Sequence]) -> "IndexedRelation":
        """A fresh relation holding both operands' rows.

        This operand's built indexes *transfer*: their buckets are cloned
        into the result and :meth:`add`'s incremental maintenance extends
        them with the right operand's new rows, instead of re-hashing the
        whole left side on the result's first probe.  Like every bulk
        operator, the result's delta is its full row set — it enters a
        semi-naive loop as an untaken frontier.
        """
        result = IndexedRelation.adopt(set(self._rows), arity=self.arity)
        result._delta = set(result._rows)
        result._indexes = {
            column: {key: set(bucket) for key, bucket in index.items()}
            for column, index in self._indexes.items()
        }
        result.update(other)
        return result

    def difference(self, other: "IndexedRelation | Iterable[Sequence]",
                   ) -> "IndexedRelation":
        """The rows of this relation absent from ``other`` (the antijoin on
        all columns / relational set difference).

        This operand's built indexes survive: when few rows are removed
        each index is cloned and the removed rows' entries deleted;
        otherwise it is rebuilt from the (smaller) kept set — either way
        the result starts indexed.  Like every bulk operator, the result
        is a *fresh* relation whose delta is its full row set — it enters
        a semi-naive loop as an untaken frontier.
        """
        if isinstance(other, IndexedRelation):
            excluded = other._rows
        else:
            excluded = {tuple(row) for row in other}
        kept = self._rows - excluded
        result = IndexedRelation.adopt(kept, arity=self.arity)
        result._delta = set(kept)
        if self._indexes:
            removed = self._rows & excluded

            def key_of(row, column):
                if type(column) is tuple:
                    return tuple(row[c] for c in column)
                return row[column]

            for column, index in self._indexes.items():
                if len(removed) <= len(kept):
                    clone = {key: set(bucket) for key, bucket in index.items()}
                    for row in removed:
                        key = key_of(row, column)
                        bucket = clone.get(key)
                        if bucket is not None:
                            bucket.discard(row)
                            if not bucket:
                                del clone[key]
                else:
                    clone = {}
                    for row in kept:
                        clone.setdefault(key_of(row, column), set()).add(row)
                result._indexes[column] = clone
        return result

    def product(self, other: "IndexedRelation") -> "IndexedRelation":
        """The cross product: every row of ``self`` concatenated with every
        row of ``other`` (the active-domain product the logic planner uses
        to widen a relation with unconstrained columns)."""
        arity = (self.arity + other.arity
                 if self.arity is not None and other.arity is not None else None)
        result = IndexedRelation(arity=arity)
        for left in self._rows:
            for right in other._rows:
                result.add(left + right)
        return result

    def semijoin(self, other: "IndexedRelation",
                 key_columns: Sequence[int]) -> "IndexedRelation":
        """The rows of this relation whose ``key_columns`` projection is a
        row of ``other`` (``other`` is probed as a whole-row key set: its
        full column tuple is the join key, so no index build is needed).
        With an empty/identity key covering every column this degenerates
        to set intersection, taken natively."""
        keys = other._rows
        key = tuple(key_columns)
        if self.arity is not None and key == tuple(range(self.arity)):
            return IndexedRelation.adopt(self._rows & keys, arity=self.arity)
        return IndexedRelation.adopt(
            {row for row in self._rows
             if tuple(row[c] for c in key) in keys},
            arity=self.arity)

    def antijoin(self, other: "IndexedRelation",
                 key_columns: Sequence[int]) -> "IndexedRelation":
        """The rows of this relation whose ``key_columns`` projection is
        *not* a row of ``other`` — negation as an antijoin, probing the
        excluded relation instead of materializing its active-domain
        complement."""
        keys = other._rows
        key = tuple(key_columns)
        if self.arity is not None and key == tuple(range(self.arity)):
            return IndexedRelation.adopt(self._rows - keys, arity=self.arity)
        return IndexedRelation.adopt(
            {row for row in self._rows
             if tuple(row[c] for c in key) not in keys},
            arity=self.arity)

    def rename(self, permutation: Sequence[int]) -> "IndexedRelation":
        """The relation with its columns permuted: output column ``i`` reads
        input column ``permutation[i]``.

        Unlike :meth:`project`, the permutation must mention every column
        exactly once, so no rows can collapse — this is the pure
        rename/column-reorder operator of the plan IR.
        """
        permutation = tuple(permutation)
        if self.arity is not None and sorted(permutation) != list(range(self.arity)):
            raise ValueError(
                f"rename expects a permutation of range({self.arity}), "
                f"got {permutation}"
            )
        result = IndexedRelation(arity=len(permutation))
        for row in self._rows:
            result.add(tuple(row[c] for c in permutation))
        return result

    def select(self, predicate: Callable[[tuple], bool]) -> "IndexedRelation":
        """The rows satisfying ``predicate``."""
        result = IndexedRelation(arity=self.arity)
        for row in self._rows:
            if predicate(row):
                result.add(row)
        return result


# -------------------------------------------------------------- fixed points


def naive_fixpoint(step: Callable[[frozenset], frozenset],
                   initial: frozenset = frozenset(),
                   *, governor=None) -> frozenset:
    """Iterate ``step`` from ``initial`` until it stabilizes — the naive
    strategy: each round recomputes the full image of the accumulated
    relation and compares whole sets.

    The operator is assumed inflationary/monotone (as the LFP stage
    operators of the logic layer are), so the iteration terminates on any
    finite domain.  ``governor`` (a :class:`~repro.core.governor.Governor`)
    is checked once per round — the natural checkpoint for deadlines,
    cancellation and the round budget.
    """
    current = frozenset(initial)
    while True:
        if governor is not None:
            governor.note_round()
        nxt = frozenset(step(current))
        if nxt == current:
            return current
        current = nxt


def seminaive_fixpoint(initial: Iterable,
                       delta_step: Callable[[frozenset, set], Iterable],
                       *, governor=None, stats=None) -> frozenset:
    """The least fixed point by delta propagation.

    ``delta_step(delta, total)`` must return every fact derivable with at
    least one premise in ``delta`` (returning already-known facts is
    harmless — they are filtered here).  ``total`` is the live accumulated
    set and must not be mutated by the callback.  The first round passes
    ``delta = initial`` (so an empty ``initial`` still gets one round to
    seed the iteration with premise-free derivations).  ``governor`` is
    checked once per round; ``stats`` (a
    :class:`~repro.logic.plan.PlanStats`) records the peak resident row
    count — total plus frontier — per round.
    """
    total = set(initial)
    delta = frozenset(total)
    while True:
        if governor is not None:
            governor.note_round()
        if stats is not None:
            stats.note_resident(rows=len(total) + len(delta))
        derived = delta_step(delta, total)
        delta = frozenset(row for row in derived if row not in total)
        if not delta:
            return frozenset(total)
        total.update(delta)


# ----------------------------------------------------------------- closures


def _successor_edges(successors: Mapping[_Node, Iterable[_Node]],
                     deterministic: bool) -> dict[_Node, tuple[_Node, ...]]:
    """Materialize a successor mapping (target iterables may be one-shot
    iterators), applying the DTC reading when ``deterministic``: only
    out-degree-one vertices keep their edge."""
    edges = {source: tuple(targets) for source, targets in successors.items()}
    if deterministic:
        edges = {source: (targets if len(targets) == 1 else ())
                 for source, targets in edges.items()}
    return edges


def naive_closure(successors: Mapping[_Node, Iterable[_Node]],
                  deterministic: bool = False,
                  governor=None) -> set[tuple[_Node, _Node]]:
    """The reflexive transitive closure by naive fixed-point evaluation.

    Starts from ``Id ∪ E`` and re-derives the full composition ``T ∘ E``
    over the whole accumulated relation every round — the baseline the
    ``reference`` backend and the P2 benchmark preserve.  Reflexive pairs
    cover the mapping's keys (the closure's domain).
    """
    edges = _successor_edges(successors, deterministic)
    initial = {(source, source) for source in edges}
    initial.update(
        (source, target) for source, targets in edges.items() for target in targets
    )

    def step(current: frozenset) -> frozenset:
        nxt = set(current)
        for source, middle in current:
            for target in edges.get(middle, ()):
                nxt.add((source, target))
        return frozenset(nxt)

    return set(naive_fixpoint(step, frozenset(initial), governor=governor))


def seminaive_closure(successors: Mapping[_Node, Iterable[_Node]],
                      deterministic: bool = False,
                      governor=None) -> set[tuple[_Node, _Node]]:
    """The reflexive transitive closure by semi-naive delta propagation.

    Identical output to :func:`naive_closure`; each round composes only the
    pairs derived in the previous round with the successor index, so every
    closure pair is derived O(out-degree) times total instead of once per
    round.  The frontier is kept in plain native sets (the loop is the
    hottest kernel in the repo; per-pair index bookkeeping would double
    its constant factor).
    """
    edges = _successor_edges(successors, deterministic)
    closure: set[tuple[_Node, _Node]] = set()
    for source, targets in edges.items():
        closure.add((source, source))
        for target in targets:
            closure.add((source, target))
    frontier: list[tuple[_Node, _Node]] = list(closure)
    while frontier:
        if governor is not None:
            governor.note_round()
        derived: list[tuple[_Node, _Node]] = []
        for source, middle in frontier:
            for target in edges.get(middle, ()):
                pair = (source, target)
                if pair not in closure:
                    closure.add(pair)
                    derived.append(pair)
        frontier = derived
    return closure
