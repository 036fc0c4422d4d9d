"""Columnar evaluation past the dense width: the wide arity-2 representation.

Dense bitmask rows (:mod:`repro.core.columnar`) cost O(universe) bytes
*per source*; past :data:`~repro.core.columnar.DENSE_WIDTH_THRESHOLD`
they cannot even be allocated for sparse million-edge structures.  This
module supplies the arity-2 representation the plan walker of
:mod:`repro.logic.codegen` uses there instead (arity 0, 1 and ≥ 3 are the
same at every width):

* a frozen CSR pair (``array('q')`` offsets + ``array('i')`` sorted
  targets) — what scans, converses and the condensation closure produce,
  and what snapshots hand over zero-copy;
* a working sparse ``{source: set-of-targets}`` dict — what unions,
  differences, joins and fixpoint accumulation build.

Every primitive accepts either form.  The single-source ``Select``-over-
``Closure`` rewrite (a pinned endpoint turns the full closure into one
BFS) and ``Closure`` itself (the SCC condensation kernel) keep memory
O(edges + output).  ``Domain²`` is one shared immutable row per source
(:meth:`_Wide.full2`), so it holds O(n) words; ``Closure`` over k-tuples
with k ≥ 2 and unknown node types run as islands, exactly as at dense
width.  The walker refuses no plan at either width.

Accounting is the walker's, the same at both widths: every materialized
node notes its rows (``Governor.note_rows`` + ``PlanStats``) and its
structural bytes (``Governor.note_bytes`` / ``PlanStats.note_resident``,
so a ``max_bytes_resident`` budget bites), and closures check
``check_rows_ahead`` before expanding.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat

from repro.core.columnar import (
    _functional_csr,
    closure_csr,
    csr_bytes,
    csr_of_pairs,
    csr_of_sparse,
    iter_bits,
    reach_from_csr,
    sparse_of_csr,
    transpose_csr,
)

from .codegen import _Columns, _run
from .plan import Plan, PlanStats

__all__ = ["execute_chunked"]


def _bits_of(members, n: int) -> int:
    """A bit vector from element ids, built through a byte buffer so each
    id costs O(1) rather than one shift of an O(n)-bit int."""
    buffer = bytearray((n + 8) >> 3)
    for member in members:
        buffer[member >> 3] |= 1 << (member & 7)
    return int.from_bytes(buffer, "little")


def _within(members, mask: int):
    """The sorted ``members`` whose bit is set in ``mask``, one slice found
    by bisection.  ``mask`` is an interval: a comparison of one column
    with ``zero`` or ``max`` selects one, and so does an intersection of
    such comparisons."""
    if not mask:
        return ()
    low, high = (mask & -mask).bit_length() - 1, mask.bit_length()
    return members[bisect_left(members, low):bisect_left(members, high)]


class _Wide(_Columns):
    """Arity 2 past the dense width: CSR pairs and sparse dicts."""

    # ------------------------------------------------------------ forms

    def _items(self, raw):
        """``(source, targets)`` for every source with a target."""
        if isinstance(raw, dict):
            return raw.items()
        offsets, targets = raw
        return ((source, targets[offsets[source]:offsets[source + 1]])
                for source in range(self.n)
                if offsets[source + 1] > offsets[source])

    @staticmethod
    def _sparse(raw) -> dict:
        return raw if isinstance(raw, dict) else sparse_of_csr(*raw)

    def _csr(self, raw) -> tuple:
        return csr_of_sparse(raw, self.n) if isinstance(raw, dict) else raw

    def rows2(self, raw) -> frozenset:
        return frozenset(chain.from_iterable(
            zip(repeat(source), row) for source, row in self._items(raw)))

    @staticmethod
    def of_pairs(rows) -> dict:
        sparse: dict[int, set[int]] = {}
        for row in rows:
            if len(row) == 2:
                sparse.setdefault(row[0], set()).add(row[1])
        return sparse

    def scan2(self, relation) -> tuple:
        if hasattr(relation, "csr_arrays"):
            return relation.csr_arrays()
        sources, targets = [], []
        for row in relation:
            if len(row) == 2:
                sources.append(row[0])
                targets.append(row[1])
        return csr_of_pairs(sources, targets, self.n)

    @staticmethod
    def empty2() -> dict:
        return {}

    def full2(self) -> dict:
        """``Domain²``: every source shares one frozen row, so an in-place
        merge into it fails loudly instead of corrupting the others."""
        return dict.fromkeys(range(self.n), frozenset(range(self.n)))

    @staticmethod
    def count2(raw) -> int:
        if isinstance(raw, dict):
            return sum(map(len, raw.values()))
        return len(raw[1])

    def nbytes2(self, raw) -> int:
        """Structural bytes (words held, not Python object overhead —
        deterministic, hence testable).  A row object shared by several
        sources (:meth:`full2`'s) is held, and charged, once."""
        if isinstance(raw, dict):
            rows = {id(row): len(row) for row in raw.values()}
            return 8 * (len(raw) + sum(rows.values()))
        return csr_bytes(*raw)

    def nonempty2(self, raw) -> bool:
        return self.count2(raw) > 0

    def own2(self, raw) -> dict:
        return {source: set(row) for source, row in self._items(raw)}

    def merge2(self, total: dict, fresh) -> dict:
        for source, row in self._items(fresh):
            have = total.get(source)
            if have is None:
                total[source] = set(row)
            else:
                have.update(row)
        return total

    # ------------------------------------------------------- primitives

    def transpose(self, raw) -> tuple:
        return transpose_csr(*self._csr(raw), self.n)

    def union2(self, raws: list) -> dict:
        merged: dict[int, set[int]] = {}
        for raw in raws:
            self.merge2(merged, raw)
        return merged

    def minus2(self, left, right) -> dict:
        other = self._sparse(right)
        out = {}
        for source, row in self._items(left):
            keep = set(row)
            drop = other.get(source)
            if drop:
                keep -= drop
            if keep:
                out[source] = keep
        return out

    def and2(self, left, right) -> dict:
        other = self._sparse(right)
        out = {}
        for source, row in self._items(left):
            match = other.get(source)
            if match:
                keep = match.intersection(row)
                if keep:
                    out[source] = keep
        return out

    def mask_source(self, raw, bits: int) -> dict:
        members = set(iter_bits(bits))
        return {source: set(row) for source, row in self._items(raw)
                if source in members}

    def mask_target(self, raw, bits: int) -> dict:
        members = set(iter_bits(bits))
        out = {}
        for source, row in self._items(raw):
            keep = members.intersection(row)
            if keep:
                out[source] = keep
        return out

    def compose(self, left, right) -> dict:
        right = self._sparse(right)
        out = {}
        for source, mids in self._items(left):
            row: set[int] = set()
            for mid in mids:
                step = right.get(mid)
                if step:
                    row |= step
            if row:
                out[source] = row
        return out

    def proj_source(self, raw) -> int:
        return _bits_of((source for source, _ in self._items(raw)), self.n)

    def proj_target(self, raw) -> int:
        if isinstance(raw, dict):
            return _bits_of((t for row in raw.values() for t in row), self.n)
        return _bits_of(raw[1], self.n)

    def cross(self, sources: int, targets: int) -> dict:
        row = set(iter_bits(targets))
        if not row:
            return {}
        return {source: set(row) for source in iter_bits(sources)}

    def count_per_source(self, raw, threshold: int) -> int:
        return _bits_of((source for source, row in self._items(raw)
                         if len(row) >= threshold), self.n)

    def closure(self, raw, deterministic, governor, stats) -> tuple:
        return closure_csr(*self._csr(raw), self.n,
                           deterministic=deterministic, governor=governor,
                           stats=stats)

    def reach(self, raw, start, deterministic, reverse, governor, mask):
        n = self.n
        offsets, targets = self._csr(raw)
        if deterministic:
            offsets, targets = _functional_csr(offsets, targets, n)
        if reverse:
            offsets, targets = transpose_csr(offsets, targets, n)
        reached = reach_from_csr(offsets, targets, n, start, governor=governor)
        return len(reached), _within(reached, mask)

    def select_fn(self, comparisons: tuple):
        n = self.n

        def fn(raw) -> dict:
            out = {}
            for source, row in self._items(raw):
                keep = {target for target in row
                        if all(c.evaluate((source, target), n)
                               for c in comparisons)}
                if keep:
                    out[source] = keep
            return out

        return fn


def execute_chunked(plan: Plan, structure, auxiliary=None,
                    stats: PlanStats | None = None, governor=None
                    ) -> frozenset:
    """Walk ``plan`` on the wide representation and decode to rows.

    The entry :func:`~repro.logic.codegen.execute_columnar` routes here
    when ``structure.size`` is past the dense width threshold.
    """
    return _run(_Wide(structure.size), plan, structure, auxiliary, stats,
                governor)
