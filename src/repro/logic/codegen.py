"""The columnar plan executor: one plan walker over bitset/CSR kernels.

Optimized relational plans (:mod:`repro.logic.plan`) run here on raw
columnar payloads (:mod:`repro.core.columnar`) through one interpreter,
:class:`_Walker`, whose dispatch is a dict keyed on node type.  Fixed
points (delta-rewritten and as compiled), ``Shared`` memos (global and
per round), ``Cumulative`` accumulators, the fixed-point scope that
``AuxScan`` and ``DeltaScan`` read, the governor choke points and the
:class:`~repro.logic.plan.PlanStats` accounting are each written once.

Representations are a pure function of a node's column count over the
dense universe ``0..n-1`` (the interning convention of
:mod:`repro.structures.intern`):

==========  =============================================================
0 columns   ``0``/``1`` — the unit relation as an int ("false"/"true")
1 column    one int used as a bit vector (bit ``i`` = element ``i``)
2 columns   the one width-dependent representation (below)
3+ columns  a plain set of tuples — the **fallback** representation; at
            dense width each node that degrades to it is recorded on the
            compiled plan
==========  =============================================================

Only arity 2 depends on the universe width, through a :class:`_Columns`
subclass.  Up to :data:`~repro.core.columnar.DENSE_WIDTH_THRESHOLD` it is
:class:`_Dense`: bitmask rows, ``rows[x]`` = bitset over ``y``.  Past it
it is ``_Wide`` (:mod:`repro.logic.chunked`): CSR pairs and sparse
``{source: set}`` dicts whose memory is O(edges).  The shape-resolved
kernel factories (:func:`_join_fn`, :func:`_semi_fn`, :func:`_project_fn`
and the representation's ``select_fn``) compose the representation's
primitives once per node and execution, so fixpoint rounds never
re-resolve them.  :func:`compiled_columnar` caches the representation
census per ``(plan, n)`` — the representation signature — and
counts its hits on ``PlanStats.codegen_cache_hits``.

Work that does not change while a plan runs is done once per execution.
The walker memoizes each ``RelationScan`` payload (the structure cannot
change during a walk; a memo hit is still noted, so every counter keeps
its value).  At dense width a flip is O(1): a payload's converse is a
:class:`_Converse` tag whose rows are built only when a kernel reads
them, and flipping it back gives the source.  The execution's
:class:`_Dense` memoizes, per payload, its successor lists (so each
later ``compose`` with it as the left operand is one OR per edge).
Those memos rely on dense payloads never being mutated: ``own2`` is the
identity and ``merge2`` builds a new list.  The wide width's ``merge2``
updates owned dicts in place, so it keeps no such memo.  The memos
belong to one execution: every execution builds its own representation
and binds its kernels to it, so threads running one compiled plan at
once share nothing mutable.

Nodes with no columnar kernel (``Closure`` over k-tuples with k ≥ 2, and
any node type the walker does not know) run as *islands* at both widths:
the fixed-point scope is decoded to row sets, the node runs through its
own :meth:`~repro.logic.plan.Plan.execute` (which does its own stats and
governor accounting), and the result is re-encoded.  The walker refuses
no plan; the governor's row and byte budgets are its memory guard at
every width.

Governor choke points mirror the interpreted plan executor's: every
materializing kernel notes its rows (and, for arity 2, its structural
bytes, until every byte peak holds the dense ceiling) and ticks, every
fixpoint round and closure BFS wave notes a round, and ``DomainProduct``,
``ConstrainedDomain``, ``Product`` and ``Closure`` check the row budget
*ahead* of building anything.  The one intentional
difference: ``index_probes`` stays zero — the columnar joins are masks and
merges, there is no hash index to probe.
"""

from __future__ import annotations

import threading
from functools import reduce
from itertools import product as _cartesian
from operator import or_
from typing import Callable

from repro.core.columnar import (
    DENSE_WIDTH_THRESHOLD,
    adjacency_of_binary,
    adjacency_of_csr,
    and_rows,
    andnot_rows,
    bits_of_unary,
    closure_adjacency,
    compose_successors,
    count_per_source,
    iter_bits,
    mask_rows_source,
    mask_rows_target,
    or_rows,
    proj_source,
    proj_target,
    reach_from,
    rows_of_adjacency,
    rows_of_bits,
    successor_lists,
    transpose,
)
from repro.core.governor import DegradationEvent

from .plan import (
    AntiJoin,
    AuxScan,
    Closure,
    Col,
    Comparison,
    Const,
    ConstrainedDomain,
    CountSelect,
    Cumulative,
    DeltaScan,
    Difference,
    DomainProduct,
    Empty,
    ExecutionContext,
    Fixpoint,
    Join,
    JoinProject,
    Plan,
    PlanStats,
    Product,
    Project,
    RelationScan,
    Rename,
    Select,
    SemiJoin,
    Shared,
    Union,
)

__all__ = [
    "CompiledColumnarPlan",
    "compile_columnar",
    "compiled_columnar",
    "clear_codegen_cache",
    "execute_columnar",
    "last_report",
    "representation_of",
]


_KIND = {"0": "unit", "b": "bitset", "r": "csr", "t": "tuples"}


def _tag(arity: int) -> str:
    if arity == 0:
        return "0"
    if arity == 1:
        return "b"
    if arity == 2:
        return "r"
    return "t"


def representation_of(arity: int) -> str:
    """The representation the columnar backend picks for a relation of the
    given arity (``bitset`` / ``csr`` / ``tuples``; the CLI's ``--stats``
    per-relation report)."""
    return _KIND[_tag(arity)]


def _identity(raw):
    return raw


# ---------------------------------------------------------- representations


class _Columns:
    """The raw payloads of one universe width, indexed by arity.

    Arity 0, 1 and ≥ 3 look the same at every width and are handled here.
    Subclasses supply arity 2: the ``*2`` methods plus the primitives the
    kernel factories compose (``transpose``, ``compose``, ``and2``,
    ``mask_source``/``mask_target``, ``proj_source``/``proj_target``,
    ``cross``, ``count_per_source``, ``closure``, ``reach``,
    ``select_fn``).
    """

    #: The most bytes :meth:`nbytes2` can report for one payload, when the
    #: representation has such a bound (``None``: sizes grow with edges).
    bytes_ceiling: int | None = None

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n) - 1

    def decode(self, raw, arity: int) -> set | frozenset:
        if arity == 0:
            return {()} if raw else set()
        if arity == 1:
            return rows_of_bits(raw)
        if arity == 2:
            return self.rows2(raw)
        return set(raw)

    def encode(self, rows, arity: int):
        """Rows in the representation their arity picks (rows of another
        arity are dropped, mirroring the plan scans)."""
        if arity == 0:
            return 1 if any(len(row) == 0 for row in rows) else 0
        if arity == 1:
            return bits_of_unary(rows)
        if arity == 2:
            return self.of_pairs(rows)
        return {row for row in rows if len(row) == arity}

    def empty(self, arity: int):
        if arity == 2:
            return self.empty2()
        return set() if arity > 2 else 0

    def count(self, raw, arity: int) -> int:
        if arity == 0:
            return 1 if raw else 0
        if arity == 1:
            return raw.bit_count()
        if arity == 2:
            return self.count2(raw)
        return len(raw)

    def nonempty(self, raw, arity: int) -> bool:
        return self.nonempty2(raw) if arity == 2 else bool(raw)

    def permute(self, raw, arity: int, order):
        """A scan's column permutation (for arity 2, the converse)."""
        if order is None or order == tuple(range(arity)):
            return raw
        if arity == 2:
            return self.transpose(raw)
        return {tuple(row[i] for i in order) for row in raw}

    def union(self, raws: list, arity: int):
        if arity == 2:
            return self.union2(raws)
        if arity > 2:
            return set().union(*raws)
        out = 0
        for raw in raws:
            out |= raw
        return out

    def minus(self, left, right, arity: int):
        if arity == 2:
            return self.minus2(left, right)
        if arity > 2:
            return left - right
        return left & ~right

    def own(self, raw, arity: int):
        """A private copy that :meth:`merge` may update in place (fixpoint
        totals and ``Cumulative`` accumulators; everything else is never
        mutated, so payloads may be shared freely)."""
        if arity == 2:
            return self.own2(raw)
        return set(raw) if arity > 2 else raw

    def merge(self, total, fresh, arity: int):
        """``total ∪ fresh`` for an owned ``total``."""
        if arity == 2:
            return self.merge2(total, fresh)
        if arity > 2:
            total |= fresh
            return total
        return total | fresh


#: Payload bytes, counting ``n`` rows of ``n`` bits each, that one
#: execution's :class:`_Dense` memo holds before it starts over (about
#: 32k payloads at n = 128, 8 at the dense width threshold).
_DERIVED_BYTES = 1 << 26


def _or_rows(*operands: list[int]) -> list[int]:
    return or_rows(operands)


class _Converse:
    """A dense arity-2 payload held as the converse of ``source``: row
    ``y`` has bit ``x`` iff ``source[x]`` has bit ``y``.  ``rows`` is
    built by one transpose the first time a kernel reads the rows in this
    orientation, and kept."""

    __slots__ = ("source", "rows")

    def __init__(self, source: list[int]):
        self.source = source
        self.rows = None


class _Dense(_Columns):
    """Arity 2 up to the dense width: bitmask rows, ``rows[x]`` the bitset
    of ``y`` with ``(x, y)`` in the relation — relational algebra as ``n``
    big-int operations.

    A payload is a row list or a :class:`_Converse` of one.  Flipping is
    O(1): a row list becomes its converse, a converse its source.  Kernels
    that commute with converse run on the source and tag the result —
    and/or/minus of converses (the square ``Domain²`` is its own converse,
    so ``Domain² − Xᵀ = (Domain² − X)ᵀ``), masks and projections with
    their sides swapped, counts and byte sizes.  Every other kernel reads
    :meth:`materialize`, which transposes a converse once.

    One instance serves one execution.  ``successors`` memoizes the
    successor lists of each left operand of :meth:`compose`, keyed by the
    ``id`` of its rows: ``(rows, successor lists)``.  Holding the rows
    keeps their ``id`` from being recycled while the memo lives.  This is
    sound only because no dense payload is ever mutated: ``own2`` is the
    identity, every kernel builds a new list, and a converse's rows are
    set once.  The memo starts over once it holds :data:`_DERIVED_BYTES`
    of payloads at the dense worst case, so a long fixed point over a
    wide universe cannot keep every round alive.
    """

    own2 = staticmethod(_identity)  # merge2 never mutates

    def __init__(self, n: int):
        super().__init__(n)
        # n row words, and at most n bits in each row.
        self.bytes_ceiling = 8 * n + (n * n >> 3)
        self.square = [self.full] * n
        self.successors: dict[int, tuple] = {}
        self.capacity = max(4, _DERIVED_BYTES // (n * ((n + 7) >> 3) or 1))

    def materialize(self, raw) -> list[int]:
        """``raw``'s rows in its own orientation."""
        if raw.__class__ is not _Converse:
            return raw
        if raw.rows is None:
            raw.rows = transpose(raw.source, self.n)
        return raw.rows

    def _pointwise(self, kernel: Callable, *raws):
        """``kernel``, a row-by-row and/or/minus, over ``raws``.  Those
        commute with converse, so when every operand is a converse or the
        square and one at least is a converse, it runs on their sources
        and the result is tagged; otherwise on their rows."""
        square = self.square
        if any(raw.__class__ is _Converse for raw in raws) and all(
                raw.__class__ is _Converse or raw is square for raw in raws):
            return _Converse(kernel(*[raw if raw is square else raw.source
                                      for raw in raws]))
        return kernel(*map(self.materialize, raws))

    def of_pairs(self, rows) -> list[int]:
        return adjacency_of_binary(rows, self.n)

    def scan2(self, relation) -> list[int]:
        if hasattr(relation, "csr_arrays"):
            return adjacency_of_csr(*relation.csr_arrays())
        return adjacency_of_binary(relation, self.n)

    def empty2(self) -> list[int]:
        return [0] * self.n

    def full2(self) -> list[int]:
        return self.square

    def rows2(self, raw) -> frozenset:
        return rows_of_adjacency(self.materialize(raw))

    @staticmethod
    def count2(raw) -> int:
        if raw.__class__ is _Converse:
            raw = raw.source
        return sum(map(int.bit_count, raw))

    @staticmethod
    def nonempty2(raw) -> bool:
        return any(raw.source if raw.__class__ is _Converse else raw)

    @staticmethod
    def nbytes2(raw) -> int:
        """One word per row plus the bits each row holds.  A converse's
        row ``y`` is as long as the last source row holding bit ``y``, so
        its lengths come from one pass down the source rows."""
        if raw.__class__ is not _Converse:
            return 8 * len(raw) + (sum(map(int.bit_length, raw)) >> 3)
        source = raw.source
        unseen, bits = reduce(or_, source, 0), 0
        for x in range(len(source) - 1, -1, -1):
            if not unseen:
                break
            new = source[x] & unseen
            if new:
                bits += (x + 1) * new.bit_count()
                unseen ^= new
        return 8 * len(source) + (bits >> 3)

    @staticmethod
    def transpose(raw):
        if raw.__class__ is _Converse:
            return raw.source
        return _Converse(raw)

    def union2(self, raws: list):
        return self._pointwise(_or_rows, *raws)

    def minus2(self, left, right):
        return self._pointwise(andnot_rows, left, right)

    def and2(self, left, right):
        return self._pointwise(and_rows, left, right)

    def merge2(self, total, fresh):
        return self._pointwise(_or_rows, total, fresh)

    def mask_source(self, raw, bits: int):
        if raw.__class__ is _Converse:
            return _Converse(mask_rows_target(raw.source, bits))
        return mask_rows_source(raw, bits)

    def mask_target(self, raw, bits: int):
        if raw.__class__ is _Converse:
            return _Converse(mask_rows_source(raw.source, bits))
        return mask_rows_target(raw, bits)

    @staticmethod
    def proj_source(raw) -> int:
        if raw.__class__ is _Converse:
            return proj_target(raw.source)
        return proj_source(raw)

    @staticmethod
    def proj_target(raw) -> int:
        if raw.__class__ is _Converse:
            return proj_source(raw.source)
        return proj_target(raw)

    def count_per_source(self, raw, threshold: int) -> int:
        return count_per_source(self.materialize(raw), threshold)

    def compose(self, left, right) -> list[int]:
        left = self.materialize(left)
        entry = self.successors.get(id(left))
        if entry is None:
            if len(self.successors) >= self.capacity:
                self.successors.clear()
            entry = self.successors[id(left)] = (left, successor_lists(left))
        return compose_successors(entry[1], self.materialize(right))

    def cross(self, sources: int, targets: int) -> list[int]:
        return [targets if (sources >> i) & 1 else 0 for i in range(self.n)]

    def closure(self, raw, deterministic, governor, stats) -> list[int]:
        return closure_adjacency(self.materialize(raw), self.n,
                                 deterministic=deterministic,
                                 governor=governor)

    def reach(self, raw, start, deterministic, reverse, governor, mask):
        if deterministic:
            raw = [row if row.bit_count() == 1 else 0
                   for row in self.materialize(raw)]
        if reverse:
            raw = self.transpose(raw)
        reached = reach_from(self.materialize(raw), start, governor=governor)
        return reached.bit_count(), iter_bits(reached & mask)

    def select_fn(self, comparisons: tuple) -> Callable:
        fn, materialize = _select_r_fn(comparisons, self.n), self.materialize
        return lambda raw: fn(materialize(raw))


# --------------------------------------------------- shape-resolved kernels


def _const(ref: Const, n: int) -> int:
    return 0 if ref.which == "zero" else n - 1


def _value_mask(comparison: Comparison, n: int) -> int:
    """The values ``v`` satisfying ``comparison`` when every column it
    reads holds ``v``, as a bit vector (interval arithmetic: no per-value
    loop, so it stays cheap at any width)."""
    full = (1 << n) - 1
    left, right = comparison.left, comparison.right
    if n == 0:
        return 0
    if isinstance(left, Col) and isinstance(right, Col):
        return full if comparison.op in ("eq", "leq") else 0
    if not isinstance(left, Col) and not isinstance(right, Col):
        return full if comparison.evaluate((), n) else 0
    column_left = isinstance(left, Col)
    value = _const(right if column_left else left, n)
    op = comparison.op
    if op == "eq":
        return 1 << value
    if op == "ne":
        return full ^ (1 << value)
    below, upto = (1 << value) - 1, (2 << value) - 1
    if op == "leq":  # v <= c, or c <= v
        return upto if column_left else full & ~below
    return full & ~upto if column_left else below  # v > c, or c > v


def _pair_mask_fn(op: str, flipped: bool, full: int) -> Callable[[int], int]:
    """For a two-column comparison over ``(x, y)`` rows: the mask of ``y``
    satisfying it, as a function of ``x`` (``flipped`` means the comparison
    reads ``(y, x)``)."""
    if op == "eq":
        return lambda x: 1 << x
    if op == "ne":
        return lambda x: full ^ (1 << x)
    if op == "leq":
        if flipped:  # y <= x
            return lambda x: (2 << x) - 1
        return lambda x: full & ~((1 << x) - 1)  # x <= y
    if flipped:  # y > x
        return lambda x: full & ~((2 << x) - 1)
    return lambda x: (1 << x) - 1  # x > y


def _select_r_fn(comparisons: tuple, n: int) -> Callable:
    """The bitmask-row selection kernel: comparisons classified once into
    a source mask, a target mask, and per-source masks for the two-column
    predicates."""
    full = (1 << n) - 1
    source_mask = full
    target_mask = full
    pair_fns = []
    for comparison in comparisons:
        used = set(comparison.columns_used())
        if used <= {0}:
            source_mask &= _value_mask(comparison, n)
        elif used == {1}:
            target_mask &= _value_mask(comparison, n)
        else:
            flipped = isinstance(comparison.left, Col) \
                and comparison.left.index == 1
            pair_fns.append(_pair_mask_fn(comparison.op, flipped, full))

    if not pair_fns:
        def fn(rows):
            return [(bits & target_mask) if (source_mask >> x) & 1 else 0
                    for x, bits in enumerate(rows)]
        return fn

    def fn(rows):
        out = []
        append = out.append
        for x, bits in enumerate(rows):
            if not (source_mask >> x) & 1:
                append(0)
                continue
            bits &= target_mask
            for pair in pair_fns:
                if not bits:
                    break
                bits &= pair(x)
            append(bits)
        return out

    return fn


def _select_fn(node: Select, cols: _Columns) -> Callable:
    comparisons, n = node.comparisons, cols.n
    arity = len(node.columns)
    if arity == 0:
        holds = all(c.evaluate((), n) for c in comparisons)
        return _identity if holds else (lambda raw: 0)
    if arity == 1:
        mask = cols.full
        for comparison in comparisons:
            mask &= _value_mask(comparison, n)
        return lambda raw: raw & mask
    if arity == 2:
        return cols.select_fn(comparisons)
    return lambda raw: {row for row in raw
                        if all(c.evaluate(row, n) for c in comparisons)}


def _project_fn(src_cols: tuple, out_cols: tuple, cols: _Columns
                ) -> Callable | None:
    """A kernel mapping a payload laid out as ``src_cols`` to one laid out
    as ``out_cols`` — or ``None`` when the shape has no columnar path (the
    caller then goes through the row-set kernel)."""
    positions = tuple(src_cols.index(c) for c in out_cols)
    arity = len(src_cols)
    if positions == tuple(range(arity)):
        return _identity
    if arity == 1 and positions == ():
        return lambda raw: 1 if raw else 0
    if arity == 2:
        if positions == (1, 0):
            return cols.transpose
        if positions == (0,):
            return cols.proj_source
        if positions == (1,):
            return cols.proj_target
        if positions == ():
            nonempty = cols.nonempty2
            return lambda raw: 1 if nonempty(raw) else 0
    return None


def _generic_project_fn(src_cols: tuple, out_cols: tuple, cols: _Columns
                        ) -> Callable:
    positions = tuple(src_cols.index(c) for c in out_cols)
    src_arity, arity = len(src_cols), len(out_cols)

    def fn(raw):
        rows = {tuple(row[i] for i in positions)
                for row in cols.decode(raw, src_arity)}
        return cols.encode(rows, arity)

    return fn


def _join_fn(lc: tuple, rc: tuple, oc: tuple, cols: _Columns
             ) -> Callable | None:
    """The columnar natural-join kernel for left layout ``lc``, right
    layout ``rc``, output layout ``oc`` — or ``None`` (row-set fallback).

    All the plan IR's conjunction shapes funnel through here: ``Join``
    (``oc`` = left then right-only columns), ``JoinProject`` (any subset),
    ``Product`` (no shared columns), each resolved once to a composition of
    the representation's primitives.
    """
    la, ra = len(lc), len(rc)
    if la > 2 or ra > 2 or len(oc) > 2:
        return None

    # A side with no columns is the unit relation: gate the other side.
    if la == 0 or ra == 0:
        pk = _project_fn(rc if la == 0 else lc, oc, cols)
        if pk is None:
            return None
        arity = len(oc)
        if la == 0:
            return lambda l, r: pk(r) if l else cols.empty(arity)
        return lambda l, r: pk(l) if r else cols.empty(arity)

    if la == 1 and ra == 1:
        a, b = lc[0], rc[0]
        if a == b:
            if oc == (a,):
                return lambda l, r: l & r
            if oc == ():
                return lambda l, r: 1 if l & r else 0
            return None
        # Cross product of two unary relations.
        cross = cols.cross
        if oc == (a, b):
            return cross
        if oc == (b, a):
            return lambda l, r: cross(r, l)
        if oc == (a,):
            return lambda l, r: l if r else 0
        if oc == (b,):
            return lambda l, r: r if l else 0
        if oc == ():
            return lambda l, r: 1 if (l and r) else 0
        return None

    if {la, ra} == {1, 2}:
        # Orient: A is the binary side, the point the unary one.
        flip = la == 2
        acols = lc if flip else rc
        point = rc[0] if flip else lc[0]
        if point not in acols:
            return None  # a genuine 3-column cross: fallback
        masker = cols.mask_source if point == acols[0] else cols.mask_target
        pk = _project_fn(acols, oc, cols)
        if pk is None:
            return None
        if flip:
            return lambda l, r: pk(masker(l, r))
        return lambda l, r: pk(masker(r, l))

    # Two binary sides.
    flipped = cols.transpose
    shared = tuple(c for c in rc if c in lc)
    if len(shared) == 2:
        pk = _project_fn(lc, oc, cols)
        if pk is None:
            return None
        and2 = cols.and2
        if rc == lc:
            return lambda l, r: pk(and2(l, r))
        return lambda l, r: pk(and2(l, flipped(r)))
    if len(shared) == 1:
        s = shared[0]
        u = lc[0] if lc[1] == s else lc[1]
        t = rc[0] if rc[1] == s else rc[1]
        lm = _identity if lc == (u, s) else flipped
        rm = _identity if rc == (s, t) else flipped
        compose_, ps, pt = cols.compose, cols.proj_source, cols.proj_target
        ms, mt = cols.mask_source, cols.mask_target
        if oc == (u, t):
            return lambda l, r: compose_(lm(l), rm(r))
        if oc == (t, u):
            return lambda l, r: flipped(compose_(lm(l), rm(r)))
        if oc == (u, s):
            return lambda l, r: mt(lm(l), ps(rm(r)))
        if oc == (s, u):
            return lambda l, r: flipped(mt(lm(l), ps(rm(r))))
        if oc == (s, t):
            return lambda l, r: ms(rm(r), pt(lm(l)))
        if oc == (t, s):
            return lambda l, r: flipped(ms(rm(r), pt(lm(l))))
        if oc == (u,):
            return lambda l, r: ps(mt(lm(l), ps(rm(r))))
        if oc == (t,):
            return lambda l, r: pt(ms(rm(r), pt(lm(l))))
        if oc == (s,):
            return lambda l, r: pt(lm(l)) & ps(rm(r))
        if oc == ():
            return lambda l, r: 1 if pt(lm(l)) & ps(rm(r)) else 0
    return None


def _generic_join_fn(lc: tuple, rc: tuple, oc: tuple, cols: _Columns
                     ) -> Callable:
    """The representation of last resort: hash join over row sets."""
    shared = tuple(c for c in rc if c in lc)
    lk = tuple(lc.index(c) for c in shared)
    rk = tuple(rc.index(c) for c in shared)
    keep = tuple(i for i, c in enumerate(rc) if c not in lc)
    combined = tuple(lc) + tuple(rc[i] for i in keep)
    out_pos = tuple(combined.index(c) for c in oc)

    def fn(lraw, rraw):
        index: dict = {}
        for row in cols.decode(rraw, len(rc)):
            index.setdefault(tuple(row[i] for i in rk), []).append(row)
        out: set = set()
        add = out.add
        for row in cols.decode(lraw, len(lc)):
            for match in index.get(tuple(row[i] for i in lk), ()):
                full_row = row + tuple(match[i] for i in keep)
                add(tuple(full_row[i] for i in out_pos))
        return cols.encode(out, len(oc))

    return fn


def _semi_fn(lc: tuple, rc: tuple, cols: _Columns, anti: bool
             ) -> Callable | None:
    """Semijoin/antijoin (``rc`` ⊆ ``lc``) as masks."""
    la, ra = len(lc), len(rc)
    if ra == 0:
        if anti:
            return lambda l, r: cols.empty(la) if r else l
        return lambda l, r: l if r else cols.empty(la)
    if la == 1 and ra == 1:
        if anti:
            return lambda l, r: l & ~r
        return lambda l, r: l & r
    if la == 2 and ra == 2:
        op = cols.minus2 if anti else cols.and2
        if rc == lc:
            return op
        flipped = cols.transpose
        return lambda l, r: op(l, flipped(r))
    if la == 2 and ra == 1:
        masker = cols.mask_source if rc[0] == lc[0] else cols.mask_target
        if anti:
            full = cols.full
            return lambda l, r: masker(l, full & ~r)
        return masker
    return None


def _generic_semi_fn(lc: tuple, rc: tuple, cols: _Columns, anti: bool
                     ) -> Callable:
    key = tuple(lc.index(c) for c in rc)

    def fn(lraw, rraw):
        keys = cols.decode(rraw, len(rc))
        rows = {row for row in cols.decode(lraw, len(lc))
                if (tuple(row[i] for i in key) in keys) != anti}
        return cols.encode(rows, len(lc))

    return fn


def _threshold(node: CountSelect, n: int) -> int:
    return (n + 1) // 2 if node.threshold == "half" else int(node.threshold)


def _count_fn(node: CountSelect, cols: _Columns) -> Callable:
    threshold = _threshold(node, cols.n)
    child_cols = node.child.columns
    if len(child_cols) == 2:
        per_source = cols.count_per_source
        if child_cols.index(node.variable) == 1:
            return lambda raw: per_source(raw, threshold)
        flipped = cols.transpose
        return lambda raw: per_source(flipped(raw), threshold)
    if len(child_cols) == 1:
        return lambda raw: 1 if raw.bit_count() >= threshold else 0
    group = tuple(i for i, c in enumerate(child_cols) if c != node.variable)

    def fn(raw):
        counts: dict = {}
        for row in cols.decode(raw, len(child_cols)):
            key = tuple(row[i] for i in group)
            counts[key] = counts.get(key, 0) + 1
        return cols.encode([key for key, count in counts.items()
                            if count >= threshold], len(group))

    return fn


def _pair_fn(node, cols: _Columns) -> Callable:
    left, right = node.children()
    if isinstance(node, (SemiJoin, AntiJoin)):
        anti = isinstance(node, AntiJoin)
        return _semi_fn(left.columns, right.columns, cols, anti) \
            or _generic_semi_fn(left.columns, right.columns, cols, anti)
    return _join_fn(left.columns, right.columns, node.columns, cols) \
        or _generic_join_fn(left.columns, right.columns, node.columns, cols)


#: Per node type: the factory resolving a node's kernel against one
#: representation (called once per node and cached on the compiled plan).
_RESOLVERS = {
    Select: _select_fn,
    Project: lambda node, cols: (
        _project_fn(node.child.columns, node.columns, cols)
        or _generic_project_fn(node.child.columns, node.columns, cols)),
    Join: _pair_fn,
    JoinProject: _pair_fn,
    Product: _pair_fn,
    SemiJoin: _pair_fn,
    AntiJoin: _pair_fn,
    CountSelect: _count_fn,
}


# ------------------------------------------------------------------ walker


class _Walker:
    """One execution of one plan over one structure.

    ``kernels`` holds each node's kernel, resolved against this
    execution's ``cols`` on first use; ``scans`` holds each
    ``RelationScan`` payload by ``(name, arity, order)`` (the structure
    cannot change during a walk); ``scope`` maps each enclosing fixed
    point's relation to ``(total, frontier, arity)``; ``memo``/
    ``round_memo`` back non-volatile and volatile ``Shared`` nodes;
    ``accumulators`` is the innermost delta-rewritten fixed point's
    ``Cumulative`` store.
    """

    def __init__(self, cols: _Columns, structure, auxiliary,
                 stats: PlanStats | None, governor):
        self.cols = cols
        self.n = cols.n
        self.kernels: dict[int, Callable] = {}
        self.scans: dict[tuple, object] = {}
        self.structure = structure
        self.aux = auxiliary or {}
        self.stats = stats
        self.governor = governor
        self.track = stats is not None or governor is not None
        self.ceiling = cols.bytes_ceiling
        self.saturated = self.at_ceiling()
        self.scope: dict[str, tuple] = {}
        self.memo: dict = {}
        self.round_memo: dict = {}
        self.accumulators: dict | None = None

    def eval(self, node: Plan):
        return _EVAL.get(type(node), _eval_island)(self, node)

    def kernel(self, node: Plan) -> Callable:
        fn = self.kernels.get(id(node))
        if fn is None:
            fn = self.kernels[id(node)] = _RESOLVERS[type(node)](node,
                                                                 self.cols)
        return fn

    def note(self, raw, arity: int, resident: bool = False):
        """Account a materialized payload: rows, structural bytes (arity 2)
        and, for closure-like kernels, the rows resident at once."""
        if self.track:
            count = self.cols.count(raw, arity)
            nbytes = self.cols.nbytes2(raw) \
                if arity == 2 and not self.saturated else 0
            stats = self.stats
            if stats is not None:
                stats.rows_materialized += count
                stats.note_resident(rows=count if resident else None,
                                    byte_count=nbytes)
            governor = self.governor
            if governor is not None:
                governor.note_rows(count)
                if nbytes:
                    governor.note_bytes(nbytes)
                governor.tick()
            if nbytes == self.ceiling:
                self.saturated = self.at_ceiling()
        return raw

    def at_ceiling(self) -> bool:
        """Whether every byte peak present already holds the ceiling.  Both
        keep only a maximum, and a byte budget at or above the ceiling can
        never trip on an arity-2 payload, so from then on sizing one
        changes nothing observable and :meth:`note` skips it."""
        ceiling = self.ceiling
        if ceiling is None:
            return False
        stats, governor = self.stats, self.governor
        if stats is not None and stats.bytes_resident < ceiling:
            return False
        if governor is not None:
            limit = governor.budget.max_bytes_resident
            return governor.bytes_resident >= ceiling \
                and (limit is None or limit >= ceiling)
        return True

    def check_ahead(self, count: int) -> None:
        if self.governor is not None:
            self.governor.check_rows_ahead(count)


# ------------------------------------------------------------------ scans


def _eval_relation_scan(w: _Walker, node: RelationScan):
    arity = len(node.columns)
    key = (node.name, arity, node.order)
    raw = w.scans.get(key)
    if raw is None:
        relation = w.structure.relation(node.name)
        # Snapshot relations expose their packed payloads directly — the
        # zero-copy path that makes a cold mmap load usable as-is.
        if arity == 2:
            raw = w.cols.scan2(relation)
        elif arity == 1 and hasattr(relation, "bitset"):
            raw = relation.bitset()
        else:
            raw = w.cols.encode(relation, arity)
        raw = w.scans[key] = w.cols.permute(raw, arity, node.order)
    return w.note(raw, arity)


def _eval_aux_scan(w: _Walker, node: AuxScan):
    arity = len(node.columns)
    bound = w.scope.get(node.name)
    if bound is not None:
        if bound[2] != arity:
            return w.cols.empty(arity)
        raw = bound[0]
    else:
        n = w.n
        raw = w.cols.encode([row for row in w.aux.get(node.name, ())
                             if len(row) == arity
                             and all(0 <= value < n for value in row)], arity)
    return w.note(w.cols.permute(raw, arity, node.order), arity)


def _eval_delta_scan(w: _Walker, node: DeltaScan):
    arity = len(node.columns)
    bound = w.scope.get(node.name)
    if bound is None or bound[1] is None or bound[2] != arity:
        return w.cols.empty(arity)
    return w.note(w.cols.permute(bound[1], arity, node.order), arity)


def _eval_domain(w: _Walker, node: DomainProduct):
    k, n = len(node.columns), w.n
    w.check_ahead(n ** k)
    if k == 0:
        raw = 1
    elif k == 1:
        raw = w.cols.full
    else:
        raw = w.cols.full2() if k == 2 \
            else set(_cartesian(range(n), repeat=k))
    return w.note(raw, k)


def _eval_constrained_domain(w: _Walker, node: ConstrainedDomain):
    # An upper bound first: a column is cheap when some eq pins it to a
    # constant or an earlier column; unpinned columns each cost n.
    n = w.n
    bound = 1
    for position in range(len(node.columns)):
        pinned = False
        for comparison in node.comparisons:
            if comparison.op != "eq":
                continue
            used = comparison.columns_used()
            if position in used and (len(used) == 1 or min(used) < position):
                pinned = True
                break
        if not pinned:
            bound *= n
    w.check_ahead(bound)
    rows = node._run(ExecutionContext(w.structure)).rows
    return w.note(w.cols.encode(rows, len(node.columns)), len(node.columns))


# ------------------------------------------------------------ operators


def _pinned_endpoint(comparisons: tuple, n: int) -> tuple[int, bool] | None:
    """``(value, reverse)`` when an equality pins the source (``reverse``
    false) or else the target of a pair to a constant."""
    pinned = [None, None]
    for comparison in comparisons:
        if comparison.op != "eq":
            continue
        for here, there in ((comparison.left, comparison.right),
                            (comparison.right, comparison.left)):
            if isinstance(here, Col) and isinstance(there, Const):
                pinned[here.index] = _const(there, n)
    if pinned[0] is not None:
        return pinned[0], False
    if pinned[1] is not None:
        return pinned[1], True
    return None


def _eval_select(w: _Walker, node: Select):
    target = node.child
    if isinstance(target, Shared):
        target = target.child
    if isinstance(target, Closure) and target.k == 1 and w.n:
        pinned = _pinned_endpoint(node.comparisons, w.n)
        if pinned is not None:
            return _eval_reach(w, node, target, *pinned)
    return _eval_unary(w, node)


def _eval_reach(w: _Walker, node: Select, closure: Closure, start: int,
                reverse: bool):
    """``Select`` over a k=1 ``Closure`` with a pinned endpoint: one BFS
    over the edges instead of the full closure — O(edges) time and
    O(reach) memory, the rewrite that makes single-source reachability
    (the GAP sentence) flat in n.

    The comparisons are classified once: those on the pinned column (or
    on none) are checked against the pinned value, those on the free
    column become one mask of the reached vertices to keep, and only
    two-column predicates are evaluated per row."""
    n = w.n
    pinned, free = (1, 0) if reverse else (0, 1)
    mask, pairs = w.cols.full, []
    for comparison in node.comparisons:
        used = set(comparison.columns_used())
        if used <= {pinned}:
            if not (_value_mask(comparison, n) >> start) & 1:
                mask = 0
        elif used == {free}:
            mask &= _value_mask(comparison, n)
        else:
            pairs.append(comparison)
    edges = w.eval(closure.body)
    reached, kept = w.cols.reach(edges, start, closure.deterministic,
                                 reverse, w.governor, mask)
    if w.stats is not None:
        w.stats.note_resident(rows=reached)
    rows = [(other, start) if reverse else (start, other) for other in kept]
    if pairs:
        rows = [row for row in rows if all(c.evaluate(row, n) for c in pairs)]
    return w.note(w.cols.encode(rows, 2), 2)


def _eval_unary(w: _Walker, node):
    """A one-child node through its resolved kernel."""
    return w.note(w.kernel(node)(w.eval(node.child)), len(node.columns))


def _eval_pair(w: _Walker, node):
    left, right = node.children()
    lraw, rraw = w.eval(left), w.eval(right)
    if w.governor is not None \
            and not set(left.columns) & set(right.columns):
        # A cross product: refuse an oversized one before building it.
        w.check_ahead(w.cols.count(lraw, len(left.columns))
                      * w.cols.count(rraw, len(right.columns)))
    return w.note(w.kernel(node)(lraw, rraw), len(node.columns))


def _eval_union(w: _Walker, node: Union):
    arity = len(node.columns)
    raws = [w.eval(operand) for operand in node.operands]
    return w.note(w.cols.union(raws, arity), arity)


def _eval_difference(w: _Walker, node: Difference):
    arity = len(node.columns)
    left, right = w.eval(node.left), w.eval(node.right)
    return w.note(w.cols.minus(left, right, arity), arity)


def _eval_count(w: _Walker, node: CountSelect):
    if _threshold(node, w.n) <= 0:
        # Vacuously true: the full domain over the remaining columns.
        return _eval_domain(w, DomainProduct(node.columns))
    return _eval_unary(w, node)


# ----------------------------------------------------------- fixed points


def _eval_closure(w: _Walker, node: Closure):
    if node.k != 1:
        return _eval_island(w, node)
    w.check_ahead(w.n)
    raw = w.cols.closure(w.eval(node.body), node.deterministic, w.governor,
                         w.stats)
    return w.note(raw, 2, resident=True)


def _eval_shared(w: _Walker, node: Shared):
    memo = w.round_memo if node.volatile else w.memo
    result = memo.get(node.child)
    if result is None:
        result = memo[node.child] = w.eval(node.child)
    elif w.stats is not None:
        w.stats.shared_hits += 1
    return result


def _eval_cumulative(w: _Walker, node: Cumulative):
    store = w.accumulators
    if store is None:
        return w.eval(node.full)
    arity = len(node.columns)
    accumulated = store.get(node)
    if accumulated is None:
        accumulated = w.cols.own(w.eval(node.full), arity)
    else:
        accumulated = w.cols.merge(accumulated, w.eval(node.delta), arity)
    store[node] = accumulated
    return accumulated


def _round(w: _Walker, body: Plan, relation: str, total, frontier,
           arity: int):
    """One fixed-point round: ``body`` under a fresh round memo, with the
    stage relation bound to ``total`` (and its ``frontier``)."""
    governor, stats = w.governor, w.stats
    if governor is not None:
        governor.note_round()
    before = 0 if stats is None else stats.rows_materialized
    w.round_memo = {}
    w.scope[relation] = (total, frontier, arity)
    derived = w.eval(body)
    if stats is not None:
        stats.fixpoint_rounds += 1
        stats.fixpoint_round_rows.append(stats.rows_materialized - before)
    return derived


def _eval_fixpoint(w: _Walker, node: Fixpoint):
    """Semi-naive when the optimizer attached a ``delta_body`` (round one
    runs the full body against the empty relation, later rounds only the
    delta body against the frontier); otherwise naive.  Both iterate
    inflationarily, like the engine's fixed-point kernel: rows once
    derived stay even for non-monotone bodies."""
    cols, relation = w.cols, node.relation
    arity = len(node.variables)
    delta_mode = node.delta_body is not None
    saved = (w.scope.get(relation), w.round_memo, w.accumulators)
    w.accumulators = {} if delta_mode else None
    try:
        if not delta_mode:
            total = cols.own(cols.empty(arity), arity)
            while True:
                fresh = cols.minus(_round(w, node.body, relation, total,
                                          None, arity), total, arity)
                if not cols.nonempty(fresh, arity):
                    break
                total = cols.merge(total, fresh, arity)
            return w.note(total, arity)
        total = cols.own(_round(w, node.body, relation, cols.empty(arity),
                                None, arity), arity)
        frontier = total
        while True:
            if w.stats is not None:
                w.stats.note_resident(rows=cols.count(total, arity)
                                      + cols.count(frontier, arity))
            if not cols.nonempty(frontier, arity):
                return w.note(total, arity)
            derived = _round(w, node.delta_body, relation, total, frontier,
                             arity)
            frontier = cols.minus(derived, total, arity)
            total = cols.merge(total, frontier, arity)
    finally:
        if saved[0] is None:
            w.scope.pop(relation, None)
        else:
            w.scope[relation] = saved[0]
        w.round_memo, w.accumulators = saved[1], saved[2]


def _eval_island(w: _Walker, node: Plan):
    """Execute ``node`` through the interpreted plan executor, bridging the
    fixed-point scope both ways.  The island does its own stats and
    governor accounting, so no note here."""
    cols = w.cols
    aux, delta = dict(w.aux), {}
    for name, (total, frontier, arity) in w.scope.items():
        aux[name] = frozenset(cols.decode(total, arity))
        if frontier is not None:
            delta[name] = frozenset(cols.decode(frontier, arity))
    context = ExecutionContext(w.structure, aux, delta, w.stats, {}, {}, None,
                               w.governor)
    return cols.encode(node.execute(context).rows, len(node.columns))


#: The walker's dispatch: one handler per plan node type (anything else is
#: an island).
_EVAL = {
    RelationScan: _eval_relation_scan,
    AuxScan: _eval_aux_scan,
    DeltaScan: _eval_delta_scan,
    Empty: lambda w, node: w.cols.empty(len(node.columns)),
    DomainProduct: _eval_domain,
    ConstrainedDomain: _eval_constrained_domain,
    Rename: lambda w, node: w.eval(node.child),
    Shared: _eval_shared,
    Cumulative: _eval_cumulative,
    Select: _eval_select,
    Project: _eval_unary,
    Join: _eval_pair,
    JoinProject: _eval_pair,
    Product: _eval_pair,
    SemiJoin: _eval_pair,
    AntiJoin: _eval_pair,
    Union: _eval_union,
    Difference: _eval_difference,
    CountSelect: _eval_count,
    Fixpoint: _eval_fixpoint,
    Closure: _eval_closure,
}


def _run(cols: _Columns, plan: Plan, structure, auxiliary,
         stats: PlanStats | None, governor) -> frozenset:
    """Walk ``plan`` over ``structure`` and decode the result to rows.
    ``cols`` and the kernels bound to it belong to this one execution, so
    executions of one plan on several threads share no memo."""
    walker = _Walker(cols, structure, auxiliary, stats, governor)
    return frozenset(cols.decode(walker.eval(plan), len(plan.columns)))


# ------------------------------------------------------------ compiled plan


def _census(plan: Plan) -> tuple[dict, tuple]:
    """The representation each node picks (``Rename``/``Shared``/
    ``Cumulative`` pick none), and the labels of tuple-fallback nodes;
    islands are counted, their subtrees are not."""
    representations = {"unit": 0, "bitset": 0, "csr": 0, "tuples": 0}
    fallbacks: list[str] = []

    def visit(node: Plan) -> None:
        if not isinstance(node, (Rename, Shared, Cumulative)):
            tag = _tag(len(node.columns))
            representations[_KIND[tag]] += 1
            if tag == "t":
                fallbacks.append(node.label())
        island = type(node) not in _EVAL \
            or (isinstance(node, Closure) and node.k != 1)
        if not island:
            for child in node.children():
                visit(child)

    visit(plan)
    return representations, tuple(fallbacks)


class CompiledColumnarPlan:
    """One plan specialized to a dense universe: the census of
    representations chosen and tuple fallbacks.  Each execution binds the
    kernels afresh to its own :class:`_Dense` and its memos."""

    __slots__ = ("plan", "n", "out_tag", "representations", "fallbacks")

    def __init__(self, plan: Plan, n: int):
        self.plan = plan
        self.n = n
        self.out_tag = _tag(len(plan.columns))
        self.representations, self.fallbacks = _census(plan)

    def execute(self, structure, auxiliary=None, stats=None, governor=None
                ) -> frozenset:
        """Walk the plan over ``structure`` and decode the result to rows."""
        if structure.size != self.n:
            raise ValueError(
                f"plan compiled for universe {self.n}, got {structure.size}")
        return _run(_Dense(self.n), self.plan, structure, auxiliary, stats,
                    governor)

    def report(self) -> dict:
        """The per-plan representation summary ``--stats`` prints."""
        return {
            "universe": self.n,
            "representations": dict(self.representations),
            "tuple_fallbacks": list(self.fallbacks),
        }


def compile_columnar(plan: Plan, n: int) -> CompiledColumnarPlan:
    """Specialize ``plan`` to a dense universe of ``n`` elements
    (uncached; :func:`compiled_columnar` is the cached entry)."""
    return CompiledColumnarPlan(plan, n)


# ------------------------------------------------------------------- cache


_CODEGEN_CACHE: dict[tuple, CompiledColumnarPlan] = {}
_CODEGEN_CACHE_LIMIT = 512
# The cache is shared process-wide (the query service evaluates from
# several threads at once); the lock covers the get/evict/store sequence
# so a concurrent eviction can never interleave with a store.
_CODEGEN_LOCK = threading.Lock()

#: The most recently compiled-or-fetched plan's report, for the CLI.
_LAST_REPORT: dict | None = None


def clear_codegen_cache() -> None:
    """Drop every compiled plan (chaos/benchmark fixtures call this)."""
    with _CODEGEN_LOCK:
        _CODEGEN_CACHE.clear()


def compiled_columnar(plan: Plan, n: int, stats: PlanStats | None = None
                      ) -> CompiledColumnarPlan:
    """The cached compiled form of ``(plan, n)`` — the representation
    signature.  Hits are counted on ``stats``."""
    global _LAST_REPORT
    key = (plan, n)
    with _CODEGEN_LOCK:
        compiled = _CODEGEN_CACHE.get(key)
    if compiled is not None:
        if stats is not None:
            stats.codegen_cache_hits += 1
    else:
        compiled = compile_columnar(plan, n)
        with _CODEGEN_LOCK:
            if len(_CODEGEN_CACHE) >= _CODEGEN_CACHE_LIMIT:
                _CODEGEN_CACHE.clear()
            _CODEGEN_CACHE[key] = compiled
    _LAST_REPORT = compiled.report()
    return compiled


def last_report() -> dict | None:
    """The representation report of the most recent compile/lookup (what
    the CLI's ``--stats`` shows for ``--backend columnar``)."""
    return _LAST_REPORT


def execute_columnar(plan: Plan, structure, auxiliary=None,
                     stats: PlanStats | None = None, governor=None,
                     degradations: list | None = None) -> frozenset:
    """Run ``plan`` columnar; the one-call entry the model checker uses.

    Up to :data:`~repro.core.columnar.DENSE_WIDTH_THRESHOLD` the plan runs
    on the cached dense specialization; past it it runs through
    :func:`~repro.logic.chunked.execute_chunked` (CSR payloads, O(edges)
    memory).  At dense width every node that fell back
    to the tuple representation is surfaced as a
    ``DegradationEvent("representation", "tuple", ...)`` when the caller
    passes a ``degradations`` list.
    """
    global _LAST_REPORT
    if structure.size > DENSE_WIDTH_THRESHOLD:
        from .chunked import execute_chunked

        result = execute_chunked(plan, structure, auxiliary=auxiliary,
                                 stats=stats, governor=governor)
        _LAST_REPORT = {
            "universe": structure.size,
            "backend": "chunked",
            "representations": {"*": "chunked-csr"},
            "tuple_fallbacks": [],
        }
        return result
    compiled = compiled_columnar(plan, structure.size, stats)
    if degradations is not None:
        for label in compiled.fallbacks:
            degradations.append(
                DegradationEvent("representation", "tuple", label))
    return compiled.execute(structure, auxiliary=auxiliary, stats=stats,
                            governor=governor)
