"""The relational-plan IR: set-at-a-time evaluation for the logic layer.

The classic FO = relational-algebra correspondence (the descriptive-
complexity bridge the paper's Figure 1 rests on) says every first-order
formula — and, with fixed-point nodes, every FO(+TC/DTC/LFP) formula —
denotes a relational-algebra expression over the input structure.  This
module is the *plan* side of that correspondence: a small tree IR of
relational operators, each node knowing its output **column layout** (a
tuple of variable names) and how to :meth:`~Plan.execute` itself into an
:class:`~repro.core.relalg.IndexedRelation` over the structure's ordered
universe.

The nodes:

=========================  ==================================================
:class:`RelationScan`        an input relation of the structure
:class:`AuxScan`             an auxiliary (fixed-point stage) relation
:class:`DeltaScan`           the frontier of a fixed-point stage relation
:class:`DomainProduct`       the full active-domain product ``universe^k``
:class:`ConstrainedDomain`   the domain product constrained during
                             enumeration (never materializing ``n^k``)
:class:`Empty`               the empty relation (``false``)
:class:`Select`              rows satisfying constant/column comparisons
:class:`Project`             column subset (with reorder; duplicates collapse)
:class:`Rename`              pure column relabeling, no row change
:class:`Join`                natural join on the shared column names
:class:`JoinProject`         natural join emitting only the named columns
:class:`SemiJoin`            left rows with a match in the right relation
:class:`AntiJoin`            left rows with no match in the right relation
:class:`Product`             cross product against disjoint columns
:class:`Union`               set union of layout-aligned operands
:class:`Difference`          set difference on all columns
:class:`CountSelect`         grouped counting (the ``exists>=t`` quantifier)
:class:`Fixpoint`            LFP, optionally with a delta-rewritten body
:class:`Closure`             TC/DTC via the engine's semi-naive closure kernel
:class:`Shared`              a common subplan memoized per execution
:class:`Cumulative`          a monotone subplan maintained incrementally
                             across fixed-point rounds
=========================  ==================================================

Negation and universal quantification compile (in
:mod:`repro.logic.compile`) to :class:`Difference` against a
:class:`DomainProduct` — the active-domain complement rule — and the two
fixed-point nodes reuse the PR 3 delta-propagating kernels through
:func:`repro.core.engine.least_fixpoint` / ``transitive_closure``, so the
whole logic layer bottoms out in the same relational machinery as the
query baselines.  The second half of the node table
(:class:`ConstrainedDomain`, :class:`SemiJoin`, :class:`AntiJoin`,
:class:`DeltaScan`, :class:`Shared`, ``Fixpoint.delta_body``) is never
emitted by the compiler directly: those nodes are introduced by the
rewrite passes of :mod:`repro.logic.optimize`.

Every node renders itself through :meth:`Plan.explain` — an indented tree
of one-line labels — which the compiler's ``explain()`` helper pairs with
the formula pretty-printer.  Execution threads an
:class:`ExecutionContext` carrying the structure, the auxiliary relations
in scope, the delta (frontier) relations of delta-rewritten fixed points,
an optional per-execution memo for :class:`Shared` nodes, and optional
:class:`PlanStats` counters (rows materialized, index probes, fixpoint
rounds) that the CLI surfaces via ``--stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as cartesian
from typing import Iterable, Mapping

from repro.core.engine import least_fixpoint, transitive_closure
from repro.core.governor import Governor
from repro.core.relalg import IndexedRelation
from repro.structures.structure import Structure
from repro.testing.chaos import chaos_point

__all__ = [
    "ExecutionContext",
    "PlanStats",
    "Col",
    "Const",
    "Comparison",
    "Plan",
    "RelationScan",
    "AuxScan",
    "DeltaScan",
    "DomainProduct",
    "ConstrainedDomain",
    "Empty",
    "Select",
    "Project",
    "Rename",
    "Join",
    "JoinProject",
    "SemiJoin",
    "AntiJoin",
    "Product",
    "Union",
    "Difference",
    "CountSelect",
    "Fixpoint",
    "Closure",
    "Shared",
    "Cumulative",
]


# ------------------------------------------------------------------ counters


@dataclass
class PlanStats:
    """Execution counters, accumulated across every plan executed under one
    context (one checker / one ``define_relation`` call).

    * ``rows_materialized`` — total rows written into result relations, one
      count per plan node that builds a relation (:class:`Rename` and memo
      hits on :class:`Shared` nodes materialize nothing and count nothing).
    * ``index_probes`` — hash-index lookups performed by the join kernels.
    * ``fixpoint_rounds`` — iterations taken by :class:`Fixpoint` nodes.
    * ``fixpoint_round_rows`` — rows materialized per fixpoint round (the
      O(Δ) evidence: on a delta-rewritten body each entry is bounded by the
      frontier, not the accumulated relation).
    * ``shared_hits`` — :class:`Shared` executions answered from the memo.
    * ``codegen_cache_hits`` — columnar plans whose per-node kernels came
      from the compiled-plan cache instead of being resolved again (see
      :mod:`repro.logic.codegen`).
    * ``peak_rows_resident`` — the largest number of rows simultaneously
      live in one kernel's working set (frontier + accumulated result for
      closures; the O(frontier) memory claim made observable).
    * ``bytes_resident`` — peak structural byte estimate of packed columnar
      payloads (bitset words, CSR offset/target arrays) held at once.
      Both peaks are max-merged, never summed, across plans.
    """

    rows_materialized: int = 0
    index_probes: int = 0
    fixpoint_rounds: int = 0
    shared_hits: int = 0
    codegen_cache_hits: int = 0
    peak_rows_resident: int = 0
    bytes_resident: int = 0
    fixpoint_round_rows: list[int] = field(default_factory=list)

    def note_resident(self, rows: int | None = None,
                      byte_count: int | None = None) -> None:
        """Max-merge a kernel's current working-set size into the peaks."""
        if rows is not None and rows > self.peak_rows_resident:
            self.peak_rows_resident = rows
        if byte_count is not None and byte_count > self.bytes_resident:
            self.bytes_resident = byte_count

    def as_dict(self) -> dict[str, int]:
        return {
            "rows_materialized": self.rows_materialized,
            "index_probes": self.index_probes,
            "fixpoint_rounds": self.fixpoint_rounds,
            "shared_hits": self.shared_hits,
            "codegen_cache_hits": self.codegen_cache_hits,
            "peak_rows_resident": self.peak_rows_resident,
            "bytes_resident": self.bytes_resident,
            "max_fixpoint_round_rows": max(self.fixpoint_round_rows, default=0),
        }


# ----------------------------------------------------------------- context


@dataclass(frozen=True)
class ExecutionContext:
    """Everything a plan needs at run time: the structure (universe and
    input relations), the auxiliary relations in scope (fixed-point stages
    and caller-supplied interpretations), and — for optimized plans — the
    per-stage delta relations, the per-execution :class:`Shared` memo, and
    the :class:`PlanStats` counters."""

    structure: Structure
    auxiliary: Mapping[str, frozenset] = field(default_factory=dict)
    delta: Mapping[str, frozenset] = field(default_factory=dict)
    stats: PlanStats | None = None
    memo: dict | None = None
    round_memo: dict | None = None
    accumulators: dict | None = None
    governor: Governor | None = None

    def with_auxiliary(self, name: str, rows: frozenset,
                       delta: frozenset | None = None,
                       fresh_round: bool = False,
                       accumulators: dict | None = None) -> "ExecutionContext":
        """A child context with one auxiliary relation rebound (the per-stage
        view a :class:`Fixpoint` body executes under) and, optionally, that
        relation's frontier for :class:`DeltaScan` nodes.  The persistent
        memo is carried over unchanged — non-volatile :class:`Shared` only
        ever wraps auxiliary-free subplans, whose results cannot depend on
        the rebinding — while ``fresh_round`` starts an empty *round* memo,
        the per-round scope volatile (auxiliary-dependent) shared subplans
        are cached in.  ``accumulators`` installs the store a
        delta-rewritten fixed point keeps its :class:`Cumulative` subplans
        in (the same dict across all of that fixed point's rounds)."""
        overlay = dict(self.auxiliary)
        overlay[name] = rows
        deltas = dict(self.delta)
        if delta is not None:
            deltas[name] = delta
        round_memo = {} if fresh_round else self.round_memo
        store = accumulators if accumulators is not None else self.accumulators
        return ExecutionContext(self.structure, overlay, deltas, self.stats,
                                self.memo, round_memo, store, self.governor)


# ------------------------------------------------------------- comparisons


@dataclass(frozen=True)
class Col:
    """A reference to a column of the node's input, by position."""

    index: int


@dataclass(frozen=True)
class Const:
    """One of the two constant symbols: ``"zero"`` or ``"max"`` (n-1)."""

    which: str


_OPERATORS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "leq": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
}

_OPERATOR_SYMBOLS = {"eq": "=", "ne": "!=", "leq": "<=", "gt": ">"}


@dataclass(frozen=True)
class Comparison:
    """A selection predicate ``left op right`` over columns and constants.

    Comparisons are data, not closures, so plans stay hashable, printable
    and structure-independent (``max`` resolves against the executing
    structure's size).
    """

    op: str  # "eq" | "ne" | "leq" | "gt"
    left: Col | Const
    right: Col | Const

    def evaluate(self, row: tuple, size: int) -> bool:
        return _OPERATORS[self.op](self._value(self.left, row, size),
                                   self._value(self.right, row, size))

    @staticmethod
    def _value(ref: Col | Const, row: tuple, size: int) -> int:
        if isinstance(ref, Col):
            return row[ref.index]
        return 0 if ref.which == "zero" else size - 1

    def columns_used(self) -> tuple[int, ...]:
        """The column positions this comparison reads (constants excluded)."""
        return tuple(ref.index for ref in (self.left, self.right)
                     if isinstance(ref, Col))

    def remap(self, mapping: Mapping[int, int]) -> "Comparison":
        """The same predicate with every column reference repositioned
        through ``mapping`` (how the optimizer pushes a selection below an
        operator that reorders columns)."""

        def move(ref: Col | Const) -> Col | Const:
            if isinstance(ref, Col):
                return Col(mapping[ref.index])
            return ref

        return Comparison(self.op, move(self.left), move(self.right))

    def describe(self, columns: tuple[str, ...]) -> str:
        def name(ref: Col | Const) -> str:
            if isinstance(ref, Col):
                return columns[ref.index]
            return "0" if ref.which == "zero" else "max"

        return f"{name(self.left)} {_OPERATOR_SYMBOLS[self.op]} {name(self.right)}"


# ------------------------------------------------------------------- nodes


class Plan:
    """Base class of plan nodes.

    Every node exposes ``columns`` (its output layout: one variable name
    per column), ``children()`` (sub-plans, for traversal), a one-line
    :meth:`label` that :meth:`explain` assembles into an indented tree, and
    :meth:`execute`, which delegates to the node's ``_run`` and accounts
    the materialized rows on the context's :class:`PlanStats` (nodes that
    materialize nothing set ``_materializes = False``).
    """

    columns: tuple[str, ...]

    #: Whether ``_run`` builds a fresh relation (and so should count its
    #: rows as materialized).  ``Rename`` and ``Shared`` override this.
    _materializes = True

    #: The structural hash, set on an instance by its first ``hash`` (see
    #: :func:`_node`).
    _hash = None

    def __getstate__(self) -> dict:
        # String hashes differ between processes: a copy rehashes.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def children(self) -> tuple["Plan", ...]:
        return ()

    def execute(self, context: ExecutionContext) -> IndexedRelation:
        result = self._run(context)
        stats = context.stats
        if stats is not None and self._materializes:
            stats.rows_materialized += len(result)
        governor = context.governor
        if governor is not None:
            if self._materializes:
                governor.note_rows(len(result))
            governor.tick()
        return result

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def explain(self, annotate=None) -> str:
        """The plan as an indented tree, one node per line.  ``annotate``
        optionally maps a node to a suffix string (the optimizer passes the
        estimated cardinalities through this hook)."""
        lines: list[str] = []

        def walk(node: "Plan", depth: int) -> None:
            suffix = annotate(node) if annotate is not None else ""
            lines.append("  " * depth + node.label() + suffix)
            for child in node.children():
                walk(child, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    def _layout(self) -> str:
        return f"({', '.join(self.columns)})"


def _node(cls: type) -> type:
    """A frozen-dataclass plan node whose structural hash is computed once
    per instance.  Memos keyed by plan nodes (the walker's ``Shared`` and
    ``Cumulative`` stores, the optimizer's) then hash a subtree in O(1)
    instead of walking it on every lookup; equality stays structural."""
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self.__dict__["_hash"] = structural(self)
        return value

    cls.__hash__ = __hash__
    return cls


@_node
class RelationScan(Plan):
    """Scan an input relation of the structure.

    ``order`` (attached by the optimizer's scan fusion) is a column
    permutation applied *during* emission: output column ``i`` reads raw
    column ``order[i]``, so a ``Project``/``Rename`` reordering above a
    scan costs nothing instead of a full extra copy.
    """

    name: str
    columns: tuple[str, ...]
    order: tuple[int, ...] | None = None

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        rows = context.structure.relation(self.name)
        if self.order is not None:
            return _permuted_scan(rows, self.order)
        return _scan(rows, len(self.columns))

    def label(self) -> str:
        permuted = f" perm{list(self.order)}" if self.order is not None else ""
        return f"Scan {self.name}{permuted} -> {self._layout()}"


@_node
class AuxScan(Plan):
    """Scan an auxiliary relation (a fixed-point stage, or a caller-supplied
    interpretation); unknown names read as empty, like the tuple evaluator.

    Caller-supplied auxiliary rows are filtered to the structure's
    universe: the tuple evaluator only ever *tests* in-universe tuples, so
    out-of-range rows are unobservable there and must stay unobservable
    set-at-a-time (they would otherwise leak through joins, counts and the
    closure's successor map)."""

    name: str
    columns: tuple[str, ...]
    order: tuple[int, ...] | None = None

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        rows = context.auxiliary.get(self.name, frozenset())
        arity = len(self.columns)
        size = context.structure.size
        if self.order is not None:
            order = self.order
            return IndexedRelation.adopt(
                {tuple(row[i] for i in order) for row in rows
                 if len(row) == arity
                 and all(0 <= value < size for value in row)},
                arity=arity,
            )
        return IndexedRelation(
            (row for row in rows
             if len(row) == arity and all(0 <= value < size for value in row)),
            arity=arity,
        )

    def label(self) -> str:
        permuted = f" perm{list(self.order)}" if self.order is not None else ""
        return f"ScanAux {self.name}{permuted} -> {self._layout()}"


@_node
class DeltaScan(Plan):
    """Scan the *frontier* of a fixed-point stage relation — the rows added
    in the previous round — inside a delta-rewritten :class:`Fixpoint`
    body.  Frontier rows are produced by plan execution over the universe,
    so no re-filtering is needed (unlike :class:`AuxScan`)."""

    name: str
    columns: tuple[str, ...]
    order: tuple[int, ...] | None = None

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        rows = context.delta.get(self.name, frozenset())
        arity = len(self.columns)
        if self.order is not None:
            return _permuted_scan(rows, self.order)
        return IndexedRelation.adopt(
            {row for row in rows if len(row) == arity}, arity=arity)

    def label(self) -> str:
        permuted = f" perm{list(self.order)}" if self.order is not None else ""
        return f"ScanDelta {self.name}{permuted} -> {self._layout()}"


def _scan(rows: Iterable[tuple], arity: int) -> IndexedRelation:
    # An atom whose term count disagrees with the stored arity holds of no
    # tuple (the tuple evaluator's membership test is silently false), so
    # mismatched rows are filtered rather than raised on.
    return IndexedRelation((row for row in rows if len(row) == arity),
                           arity=arity)


def _permuted_scan(rows: Iterable[tuple], order: tuple[int, ...]
                   ) -> IndexedRelation:
    """A scan emitting rows pre-permuted (same arity-mismatch filtering as
    :func:`_scan`; a permutation cannot collapse rows, so adopting the set
    comprehension is exact)."""
    arity = len(order)
    return IndexedRelation.adopt(
        {tuple(row[i] for i in order) for row in rows if len(row) == arity},
        arity=arity)


@_node
class DomainProduct(Plan):
    """The full active-domain product ``universe^k`` — the complement space
    for negation/universal quantification and the padding for columns a
    sub-formula leaves unconstrained.  Zero columns give the unit relation
    ``{()}`` (the relational encoding of *true*)."""

    columns: tuple[str, ...]

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        universe = context.structure.universe
        if context.governor is not None:
            context.governor.check_rows_ahead(
                len(universe) ** len(self.columns))
        return IndexedRelation(cartesian(universe, repeat=len(self.columns)),
                               arity=len(self.columns))

    def label(self) -> str:
        return f"Domain^{len(self.columns)} -> {self._layout()}"


@_node
class ConstrainedDomain(Plan):
    """``Select`` over a :class:`DomainProduct`, fused: the comparisons are
    applied *during* enumeration, column by column, so an equality atom
    (``x = y`` over ``n^2``) or a constant binding costs its output size
    instead of the full product.

    Enumeration fixes columns left to right; when a comparison's last
    column comes up, its other operand is already known, so ``eq`` pins the
    candidate list to one value and ``leq``/``gt`` shrink it to a range.
    """

    columns: tuple[str, ...]
    comparisons: tuple[Comparison, ...]

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        size = context.structure.size
        k = len(self.columns)
        # Comparisons bucketed by the last column they mention; column-free
        # ones (constant vs constant) gate the whole enumeration.
        by_last: list[list[Comparison]] = [[] for _ in range(k)]
        for comparison in self.comparisons:
            used = comparison.columns_used()
            if used:
                by_last[max(used)].append(comparison)
            elif not comparison.evaluate((), size):
                return IndexedRelation(arity=k)

        rows: set[tuple] = set()
        row: list[int] = [0] * k

        def value_of(ref: Col | Const) -> int:
            if isinstance(ref, Col):
                return row[ref.index]
            return 0 if ref.which == "zero" else size - 1

        def extend(position: int) -> None:
            if position == k:
                rows.add(tuple(row))
                return
            low, high = 0, size - 1
            for comparison in by_last[position]:
                left, right = comparison.left, comparison.right
                here_left = isinstance(left, Col) and left.index == position
                other = right if here_left else left
                if isinstance(other, Col) and other.index == position:
                    continue  # self-comparison (x op x): checked below
                bound = value_of(other)
                if comparison.op == "eq":
                    low, high = max(low, bound), min(high, bound)
                elif comparison.op == "leq":
                    if here_left:
                        high = min(high, bound)
                    else:
                        low = max(low, bound)
                elif comparison.op == "gt":
                    if here_left:
                        low = max(low, bound + 1)
                    else:
                        high = min(high, bound - 1)
            for candidate in range(low, high + 1):
                row[position] = candidate
                if all(c.evaluate(row, size) for c in by_last[position]):
                    extend(position + 1)

        extend(0)
        return IndexedRelation.adopt(rows, arity=k)

    def label(self) -> str:
        conditions = " and ".join(c.describe(self.columns)
                                  for c in self.comparisons)
        return f"Domain^{len(self.columns)} [{conditions}] -> {self._layout()}"


@_node
class Empty(Plan):
    """The empty relation (the relational encoding of *false*)."""

    columns: tuple[str, ...]

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        return IndexedRelation(arity=len(self.columns))

    def label(self) -> str:
        return f"Empty -> {self._layout()}"


@_node
class Select(Plan):
    """The rows of the child satisfying every comparison."""

    child: Plan
    comparisons: tuple[Comparison, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        size = context.structure.size
        comparisons = self.comparisons
        return self.child.execute(context).select(
            lambda row: all(c.evaluate(row, size) for c in comparisons)
        )

    def label(self) -> str:
        conditions = " and ".join(c.describe(self.child.columns)
                                  for c in self.comparisons)
        return f"Select [{conditions}] -> {self._layout()}"


@_node
class Project(Plan):
    """The projection onto the named columns (which also reorders;
    duplicate result rows collapse, giving ``exists`` its semantics)."""

    child: Plan
    columns: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        source = self.child.columns
        indices = tuple(source.index(name) for name in self.columns)
        relation = self.child.execute(context)
        if len(indices) == len(source):
            # A pure column permutation (the layout-canonicalisation case):
            # no rows can collapse, so take the validated rename fast path.
            return relation.rename(indices)
        return relation.project(indices)

    def label(self) -> str:
        return f"Project -> {self._layout()}"


@_node
class Rename(Plan):
    """Pure column relabeling: same rows, new names (how an atom's
    positional columns take on the atom's variable names)."""

    child: Plan
    columns: tuple[str, ...]

    _materializes = False

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        return self.child.execute(context)

    def label(self) -> str:
        return f"Rename -> {self._layout()}"


@_node
class Join(Plan):
    """The natural join on the shared column names (a cross product when
    none are shared) — conjunction, set-at-a-time.

    The probe side is the right operand's *persistent* column index
    (:meth:`~repro.core.relalg.IndexedRelation.index` /
    :meth:`~repro.core.relalg.IndexedRelation.index_on` for composite
    keys), so a relation reused across joins or fixed-point rounds —
    a :class:`Shared` subplan — is indexed once, not once per execution.
    """

    left: Plan
    right: Plan

    @property
    def columns(self) -> tuple[str, ...]:
        left = self.left.columns
        return left + tuple(c for c in self.right.columns if c not in left)

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        left_relation = self.left.execute(context)
        right_relation = self.right.execute(context)
        probe = _probe_scaffolding(self.left.columns, self.right.columns,
                                   right_relation)
        if probe is None:
            return left_relation.product(right_relation)
        index, key_of, keep = probe
        if context.stats is not None:
            context.stats.index_probes += len(left_relation)
        result = IndexedRelation(arity=len(self.columns))
        empty: frozenset = frozenset()
        governor = context.governor
        if governor is None:
            for row in left_relation.rows:
                for match in index.get(key_of(row), empty):
                    result.add(row + tuple(match[i] for i in keep))
            return result
        # Governed probe loop: an amortized deadline check every chunk of
        # probes, so a pathological join observes cancellation mid-node.
        countdown = _PROBE_CHUNK
        for row in left_relation.rows:
            countdown -= 1
            if countdown <= 0:
                countdown = _PROBE_CHUNK
                governor.check_time()
            for match in index.get(key_of(row), empty):
                result.add(row + tuple(match[i] for i in keep))
        return result

    def label(self) -> str:
        shared = [c for c in self.right.columns if c in self.left.columns]
        on = ", ".join(shared) if shared else "nothing: cross"
        return f"Join on [{on}] -> {self._layout()}"


@_node
class JoinProject(Plan):
    """A natural join that emits only the named output columns — the
    optimizer's fusion of ``Project(Join(left, right))``.

    The combined rows are never materialized: each probe hit builds the
    projected row directly and duplicates collapse as they are emitted, so
    a join whose intermediate result is ``|L|·deg`` rows but whose
    projection is ``n^2``-bounded (the ``exists z`` composition pattern)
    skips a full materialize-then-project pass.
    """

    left: Plan
    right: Plan
    columns: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        left_columns, right_columns = self.left.columns, self.right.columns
        combined = left_columns + tuple(c for c in right_columns
                                        if c not in left_columns)
        out = tuple(combined.index(c) for c in self.columns)
        left_relation = self.left.execute(context)
        right_relation = self.right.execute(context)
        rows: set[tuple] = set()
        probe = _probe_scaffolding(left_columns, right_columns, right_relation)
        if probe is None:
            for row in left_relation.rows:
                for match in right_relation.rows:
                    full = row + match
                    rows.add(tuple(full[i] for i in out))
            return IndexedRelation.adopt(rows, arity=len(self.columns))
        index, key_of, keep = probe
        if context.stats is not None:
            context.stats.index_probes += len(left_relation)
        add = rows.add
        governor = context.governor
        if governor is None:
            for row in left_relation.rows:
                match_rows = index.get(key_of(row))
                if match_rows:
                    for match in match_rows:
                        full = row + tuple(match[i] for i in keep)
                        add(tuple(full[i] for i in out))
            return IndexedRelation.adopt(rows, arity=len(self.columns))
        countdown = _PROBE_CHUNK
        for row in left_relation.rows:
            countdown -= 1
            if countdown <= 0:
                countdown = _PROBE_CHUNK
                governor.check_time()
            match_rows = index.get(key_of(row))
            if match_rows:
                for match in match_rows:
                    full = row + tuple(match[i] for i in keep)
                    add(tuple(full[i] for i in out))
        return IndexedRelation.adopt(rows, arity=len(self.columns))

    def label(self) -> str:
        shared = [c for c in self.right.columns if c in self.left.columns]
        on = ", ".join(shared) if shared else "nothing: cross"
        return f"JoinProject on [{on}] -> {self._layout()}"


#: Rows probed between deadline checks inside a governed join loop.
_PROBE_CHUNK = 4096


def _probe_scaffolding(left_columns: tuple[str, ...],
                       right_columns: tuple[str, ...],
                       right_relation: IndexedRelation):
    """The natural-join probe machinery shared by :class:`Join` and
    :class:`JoinProject`: ``None`` when no columns are shared (a cross
    product), else ``(index, key_of, keep)`` — the right side's
    *persistent* single- or composite-key index, the key extractor for
    left rows, and the right-column positions to append."""
    shared = tuple(c for c in right_columns if c in left_columns)
    if not shared:
        return None
    # Corruption is detectable by construction: the smuggled empty row
    # breaks the index build (IndexError) before any result row exists,
    # so the fault surfaces as a clean internal error, never a wrong join.
    right_relation = chaos_point(
        "relalg.join.probe", right_relation,
        corrupt=lambda relation: IndexedRelation.adopt(
            set(relation.rows) | {()}, arity=relation.arity))
    left_key = tuple(left_columns.index(c) for c in shared)
    right_key = tuple(right_columns.index(c) for c in shared)
    keep = tuple(i for i, c in enumerate(right_columns)
                 if c not in left_columns)
    if len(right_key) == 1:
        index = right_relation.index(right_key[0])
        left_pos = left_key[0]

        def key_of(row: tuple):
            return row[left_pos]
    else:
        index = right_relation.index_on(right_key)

        def key_of(row: tuple):
            return tuple(row[i] for i in left_key)

    return index, key_of, keep


def _key_indices(left: Plan, right: Plan) -> tuple[int, ...]:
    """The positions in ``left`` of ``right``'s columns, in right order —
    the probe key of the semi/antijoin kernels (which require the right
    columns to be a subset of the left's)."""
    return tuple(left.columns.index(c) for c in right.columns)


@_node
class SemiJoin(Plan):
    """The rows of ``left`` whose projection onto ``right.columns`` is a
    row of ``right`` — a natural join that adds no columns, executed as a
    membership probe (no combined rows, no index build).  Requires
    ``right.columns ⊆ left.columns``; when they are equal this is plain
    set intersection."""

    left: Plan
    right: Plan

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        if context.stats is not None:
            context.stats.index_probes += len(left)
        return left.semijoin(right, _key_indices(self.left, self.right))

    def label(self) -> str:
        on = ", ".join(self.right.columns)
        return f"SemiJoin on [{on}] -> {self._layout()}"


@_node
class AntiJoin(Plan):
    """The rows of ``left`` whose projection onto ``right.columns`` is
    *not* a row of ``right`` — how the optimizer executes a negation whose
    active-domain complement (``Difference(DomainProduct, φ)``) is
    immediately joined against an aligned relation: probe ``φ`` directly
    and never materialize the complement.  Requires ``right.columns ⊆
    left.columns``."""

    left: Plan
    right: Plan

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        if context.stats is not None:
            context.stats.index_probes += len(left)
        return left.antijoin(right, _key_indices(self.left, self.right))

    def label(self) -> str:
        on = ", ".join(self.right.columns)
        return f"AntiJoin on [{on}] -> {self._layout()}"


@_node
class Product(Plan):
    """The cross product of two plans with disjoint columns (how a plan is
    widened with unconstrained domain columns)."""

    left: Plan
    right: Plan

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns + self.right.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        return self.left.execute(context).product(self.right.execute(context))

    def label(self) -> str:
        return f"Product -> {self._layout()}"


@_node
class Union(Plan):
    """Set union of layout-aligned operands — disjunction."""

    operands: tuple[Plan, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.operands[0].columns

    def children(self) -> tuple[Plan, ...]:
        return self.operands

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        result = IndexedRelation(arity=len(self.columns))
        for operand in self.operands:
            result.update(operand.execute(context).rows)
        return result

    def label(self) -> str:
        return f"Union of {len(self.operands)} -> {self._layout()}"


@_node
class Difference(Plan):
    """Left rows absent from right (layouts aligned by the compiler) — the
    active-domain complement when the left side is a :class:`DomainProduct`."""

    left: Plan
    right: Plan

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        return self.left.execute(context).difference(self.right.execute(context))

    def label(self) -> str:
        return f"Difference -> {self._layout()}"


@_node
class CountSelect(Plan):
    """The counting quantifier ``(exists >= threshold variable) child``:
    group the child's rows by every column but ``variable`` and keep the
    groups with at least ``threshold`` witnesses.

    ``threshold`` is an integer or ``"half"`` (``ceil(n / 2)``, resolved
    against the executing structure).  A threshold of zero or less is
    vacuously true: the result is the full domain product over the
    remaining columns, witnesses or not.
    """

    child: Plan
    variable: str
    threshold: int | str

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(c for c in self.child.columns if c != self.variable)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        size = context.structure.size
        threshold = self.threshold
        if threshold == "half":
            threshold = (size + 1) // 2
        threshold = int(threshold)
        if threshold <= 0:
            return DomainProduct(self.columns)._run(context)
        group_indices = tuple(i for i, c in enumerate(self.child.columns)
                              if c != self.variable)
        counts: dict[tuple, int] = {}
        for row in self.child.execute(context).rows:
            group = tuple(row[i] for i in group_indices)
            counts[group] = counts.get(group, 0) + 1
        return IndexedRelation(
            (group for group, count in counts.items() if count >= threshold),
            arity=len(self.columns),
        )

    def label(self) -> str:
        return (f"Count group by {self._layout()} "
                f"having >= {self.threshold} {self.variable}")


def _positional(count: int) -> tuple[str, ...]:
    """Fresh positional column names (``$0``, ``$1``, ...) for nodes whose
    output columns are not yet tied to formula variables — the ``$`` prefix
    cannot collide with user variable names coming out of the parser-facing
    helpers."""
    return tuple(f"${i}" for i in range(count))


@_node
class Fixpoint(Plan):
    """The least fixed point of the body plan.

    Each round executes ``body`` (whose columns are exactly ``variables``,
    in order) under a context binding the auxiliary ``relation`` to the
    rows accumulated so far; only the new rows survive a round, and the
    iteration stops on an empty delta.  Rows once derived stay — the
    inflationary reading the tuple evaluator's stage iteration implements —
    so all backends agree even on non-monotone bodies.

    ``delta_body`` (attached by the optimizer's semi-naive rewrite) is the
    body differentiated with respect to ``relation``: a plan that, executed
    with the frontier bound for :class:`DeltaScan` nodes, derives every row
    the full body could newly derive.  When present, round one runs the
    full body against the empty relation and every later round runs only
    ``delta_body`` — O(Δ) work per round for linear bodies.  A
    ``delta_body`` that *is* the body (the optimizer's fallback for
    non-differentiable bodies: the auxiliary under a ``Difference`` right
    side, a ``CountSelect``, or a nested fixed point) degenerates to
    exactly the naive per-round cost.  Without ``delta_body`` — a raw,
    unoptimized plan, the optimizer's oracle — the node re-executes its
    full body every round through the engine's fixed-point kernel.
    """

    relation: str
    variables: tuple[str, ...]
    body: Plan
    delta_body: Plan | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        return _positional(len(self.variables))

    def children(self) -> tuple[Plan, ...]:
        if self.delta_body is not None:
            return (self.body, self.delta_body)
        return (self.body,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        if self.delta_body is not None:
            return self._run_delta(context)
        body = self.body
        relation = self.relation
        arity = len(self.variables)

        def delta_step(_delta: frozenset, total: set) -> frozenset:
            if context.stats is not None:
                context.stats.fixpoint_rounds += 1
            stage = context.with_auxiliary(relation, frozenset(total))
            return chaos_point("plan.fixpoint.round", body.execute(stage).rows,
                               corrupt=lambda rows: rows | {(-1,) * (arity + 1)})

        rows = least_fixpoint(initial=frozenset(), delta_step=delta_step,
                              governor=context.governor)
        return IndexedRelation(rows, arity=arity)

    def _run_delta(self, context: ExecutionContext) -> IndexedRelation:
        """The delta-rewritten loop: total/delta bookkeeping lives here (not
        in the engine kernel) so each round can bind both the accumulated
        relation and the frontier, and record per-round work."""
        relation, stats = self.relation, context.stats
        governor, arity = context.governor, len(self.variables)
        store: dict = {}  # this fixed point's Cumulative accumulators

        def corrupt(rows):
            return set(rows) | {(-1,) * (arity + 1)}

        def round_rows(before: int) -> None:
            if stats is not None:
                stats.fixpoint_rounds += 1
                stats.fixpoint_round_rows.append(stats.rows_materialized - before)

        def resident(total_rows: int, frontier_rows: int) -> None:
            # Working set per round: the accumulated relation plus the live
            # frontier (the O(frontier) headroom over the final result).
            if stats is not None:
                stats.note_resident(rows=total_rows + frontier_rows)

        if governor is not None:
            governor.note_round()
        before = 0 if stats is None else stats.rows_materialized
        stage = context.with_auxiliary(relation, frozenset(), fresh_round=True,
                                       accumulators=store)
        total = set(chaos_point("plan.fixpoint.round",
                                self.body.execute(stage).rows, corrupt=corrupt))
        round_rows(before)
        delta = frozenset(total)
        resident(len(total), len(delta))
        while delta:
            if governor is not None:
                governor.note_round()
            before = 0 if stats is None else stats.rows_materialized
            stage = context.with_auxiliary(relation, frozenset(total), delta,
                                           fresh_round=True,
                                           accumulators=store)
            derived = chaos_point("plan.fixpoint.round",
                                  self.delta_body.execute(stage).rows,
                                  corrupt=corrupt)
            round_rows(before)
            delta = frozenset(row for row in derived if row not in total)
            total.update(delta)
            resident(len(total), len(delta))
        return IndexedRelation(total, arity=arity)

    def label(self) -> str:
        strategy = " [delta]" if self.delta_body is not None else ""
        return (f"Fixpoint {self.relation}({', '.join(self.variables)})"
                f"{strategy} -> {self._layout()}")


@_node
class Closure(Plan):
    """The reflexive transitive closure of the k-tuple edge relation the
    body plan computes (its columns: k source then k target columns),
    through the engine's closure kernel.

    ``deterministic`` applies the DTC reading — an edge counts only when
    its source has a unique successor.  The closure's domain is the full
    ``universe^k`` (every k-tuple is reflexively related to itself), like
    the tuple evaluator's edge sweep.
    """

    body: Plan
    k: int
    deterministic: bool

    @property
    def columns(self) -> tuple[str, ...]:
        return _positional(2 * self.k)

    def children(self) -> tuple[Plan, ...]:
        return (self.body,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        k = self.k
        governor = context.governor
        if governor is not None:
            # The successor map alone enumerates universe^k keys; refuse it
            # up front when the row budget cannot cover the closure.
            governor.check_rows_ahead(len(context.structure.universe) ** k)
        edges = self.body.execute(context)
        successors: dict[tuple, list[tuple]] = {
            source: [] for source in cartesian(context.structure.universe,
                                               repeat=k)
        }
        for row in edges.rows:
            successors[row[:k]].append(row[k:])
        closure = transitive_closure(successors,
                                     deterministic=self.deterministic,
                                     governor=governor)
        return IndexedRelation.adopt(
            {source + target for source, target in closure}, arity=2 * k)

    def label(self) -> str:
        operator = "DTC" if self.deterministic else "TC"
        return f"Closure[{operator}, k={self.k}] -> {self._layout()}"


@_node
class Shared(Plan):
    """A common subplan, executed at most once per memo scope.

    The optimizer wraps auxiliary-free subtrees that occur several times
    (structural hashing: plans are frozen dataclasses, so equal subtrees
    are equal keys) or sit inside a fixed-point body (round-invariant
    work).  The first execution stores the result relation in the
    context's memo; later executions — including from other ``Shared``
    wrappers around an equal subtree, and from subsequent fixed-point
    rounds, whose stage contexts carry the same memo — return it directly.

    ``volatile`` marks a shared subtree that *does* read auxiliary (or
    frontier) relations: its result is only valid while the stage bindings
    hold, so it caches in the context's *round* memo, which a
    delta-rewritten fixed point replaces every round — deduplicating, say,
    the two occurrences of the stage relation's reversal within one body
    evaluation, without ever leaking a value across rounds.

    Sharing is sound because consumers never mutate their operand
    relations (building an index on one is a benign cache fill).  Without
    the corresponding memo on the context the wrapper is transparent.
    """

    child: Plan
    volatile: bool = False

    _materializes = False

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        memo = context.round_memo if self.volatile else context.memo
        if memo is None:
            return self.child.execute(context)
        result = memo.get(self.child)
        if result is None:
            result = self.child.execute(context)
            memo[self.child] = result
        elif context.stats is not None:
            context.stats.shared_hits += 1
        return result

    def label(self) -> str:
        kind = "Shared[round]" if self.volatile else "Shared"
        return f"{kind} -> {self._layout()}"


@_node
class Cumulative(Plan):
    """A subplan *monotone* in the enclosing fixed point's relation,
    maintained incrementally across rounds.

    The first delta round executes ``full`` and stores the relation in the
    fixed point's accumulator store; every later round executes only
    ``delta`` (the optimizer's derivative of ``full``) and unions the new
    rows in.  For a monotone subplan this is exact —
    ``full(Tᵢ) = full(Tᵢ₋₁) ∪ d(full)(Δᵢ, Tᵢ)``, since the derivative
    contains everything newly derivable and nothing outside the new value
    — so the stage relation's reversal, say, is rebuilt from its frontier
    in O(Δ) instead of re-joined from scratch each round.  Outside a
    delta-rewritten fixed point (no store on the context) the node
    executes ``full`` transparently.
    """

    full: Plan
    delta: Plan

    _materializes = False

    @property
    def columns(self) -> tuple[str, ...]:
        return self.full.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.full, self.delta)

    def _run(self, context: ExecutionContext) -> IndexedRelation:
        store = context.accumulators
        if store is None:
            return self.full.execute(context)
        accumulated = store.get(self)
        if accumulated is None:
            accumulated = self.full.execute(context)
            store[self] = accumulated
        else:
            accumulated.update(self.delta.execute(context).rows)
        return accumulated

    def label(self) -> str:
        return f"Cumulative -> {self._layout()}"
