"""Incremental view maintenance: patching memoized defined relations.

This is the Dyn-FO execution layer (Patnaik-Immerman, the source paper's
successor): given a memoized defined relation, the plan that computed it,
and a *net* changeset to the structure's base relations, produce the
relation's post-update rows in O(change)-ish work instead of
O(recompute).  The strategy per plan comes from
:func:`repro.logic.optimize.maintenance_strategy`:

``delta``
    Non-recursive, monotone in every changed relation.  Inserts evaluate
    the plan's base-relation derivative
    (:func:`~repro.logic.optimize.differentiate_relation`) on the *new*
    structure with the inserted rows bound as the context delta, and
    union the result in.  Deletes evaluate the derivative on the *old*
    structure with the deleted rows bound — an over-approximation of
    every row that may have lost a derivation — and re-check each
    candidate's support against the new structure through the tuple
    oracle (counting-based maintenance in its degenerate but honest
    form: the only counts kept are 0 / >0, recomputed on demand).

``closure``
    The plan peels to a TC :class:`~repro.logic.plan.Closure`.  Edge
    inserts apply the Dyn-FO rule — the new closure pairs after adding
    ``(u, v)`` are ``{(x, y) : (x, u) in T and (v, y) in T}`` (one pass
    of bitmask-row ORs for ``k = 1``, via
    :func:`repro.core.columnar.patch_closure_insert`).  Edge deletes run
    DRed: over-delete every pair some removed edge could have carried
    (:func:`~repro.core.columnar.overdeleted_rows`), then re-derive each
    affected source with one BFS over the post-delete edges
    (:func:`~repro.core.columnar.reach_from`).  ``k > 1`` runs the same
    algorithm set-at-a-time.

``fixpoint``
    The plan peels to a monotone, delta-rewritten
    :class:`~repro.logic.plan.Fixpoint`.  DRed over the body's
    derivatives: over-delete from the deleted base rows, propagate
    through the fixpoint's own ``delta_body``, subtract, re-derive one
    full body round against the survivors, then run seeded semi-naive
    rounds (the PR 5 ``_run_delta`` loop, started from the maintained
    total instead of empty) until the new fixed point is reached.

``unchanged`` / ``recompute``
    The trivial and the fallback verdicts: the former returns the memo
    rows verbatim, the latter raises :class:`MaintenanceFallback` — the
    caller drops the memo entry and records a
    ``DegradationEvent("ivm", "recompute")``, so the relation is rebuilt
    from scratch on next use.  *Never* a stale memo: every chaos-injected
    corruption on this path is caught by the validations below and
    surfaces as a clean fallback or error.

Soundness notes (the invariants the property suites pin):

* Insert derivatives are evaluated entirely on the **new** structure, so
  for plans monotone in the changed relations they over-approximate the
  true delta while staying inside the new value — union is exact.
* Delete candidates are evaluated on the **old** structure (the rows
  existed there), and membership is decided against the **new** one.
* DRed's over-delete is closed upward (every pair/row whose *every*
  derivation used a deleted fact is a candidate), so survivors need no
  re-check and re-derivation only inspects candidates.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.columnar import (
    DENSE_WIDTH_THRESHOLD,
    adjacency_of_binary,
    iter_bits,
    overdeleted_rows,
    patch_closure_insert,
    reach_from,
)
from repro.structures.structure import Structure
from repro.testing.chaos import chaos_point

from .formula import Formula, RelAtom, walk_formula
from .optimize import (
    MaintenancePlan,
    base_delta_name,
    differentiate_relation,
    maintenance_strategy,
)
from .plan import (
    Closure,
    ExecutionContext,
    Fixpoint,
    Plan,
    RelationScan,
    Rename,
    Shared,
)

__all__ = [
    "MaintenanceFallback",
    "maintain",
    "relation_names",
]


class MaintenanceFallback(Exception):
    """Raised when a memoized relation cannot be patched incrementally:
    the caller must drop the memo entry and recompute on next use."""


def relation_names(formula: Formula) -> frozenset[str]:
    """Every *base* relation symbol ``formula`` reads (auxiliary symbols —
    LFP-bound or caller-supplied — are not updatable and do not count)."""
    return frozenset(node.name for node in walk_formula(formula)
                     if isinstance(node, RelAtom))


# ------------------------------------------------------------- the dispatcher


def maintain(plan: Plan,
             verdict: MaintenancePlan,
             columns: tuple[str, ...],
             rows: frozenset,
             old_structure: Structure,
             new_structure: Structure,
             inserted: Mapping[str, frozenset],
             deleted: Mapping[str, frozenset],
             *,
             formula: Formula | None = None,
             auxiliary: Mapping[str, frozenset] | None = None,
             support_check=None,
             stats=None,
             governor=None,
             state: dict | None = None) -> frozenset:
    """Patch the memoized rows of one defined relation for one net update.

    ``verdict`` is :func:`~repro.logic.optimize.maintenance_strategy` of
    ``plan`` against the changed relations; ``inserted`` / ``deleted``
    are the net changeset's per-relation row sets (disjoint).
    ``support_check(row) -> bool`` decides a delete candidate's
    membership in the post-update relation (the ``delta`` strategy's
    counting re-check); the caller supplies it bound to the formula and
    the new structure.  ``state`` is an optional per-memo-entry scratch
    dict the caller keeps across updates: the closure strategy caches its
    edge/reach bitsets there so steady-state patches touch O(change)
    machine words instead of re-tupling the whole relation (coherence is
    by identity — the cached bitsets are trusted only while
    ``state["rows"] is rows``).  Raises :class:`MaintenanceFallback`
    whenever the strategy is ``recompute`` or a precondition fails
    mid-patch.
    """
    if verdict.strategy == "unchanged":
        return rows
    if verdict.strategy == "recompute":
        raise MaintenanceFallback(verdict.reason or "recompute")

    def context(structure: Structure,
                extra_aux: Mapping[str, frozenset] | None = None,
                delta: Mapping[str, frozenset] | None = None,
                accumulators: dict | None = None) -> ExecutionContext:
        scope = dict(auxiliary or {})
        if extra_aux:
            scope.update(extra_aux)
        return ExecutionContext(structure, scope, delta or {}, stats, memo={},
                                accumulators=accumulators,
                                governor=governor)

    if verdict.strategy == "delta":
        return _maintain_delta(plan, rows, old_structure, new_structure,
                               inserted, deleted, context, support_check,
                               governor)

    core, permutation = verdict.core, verdict.permutation
    if isinstance(core, Closure):
        return _maintain_closure(core, permutation, rows, old_structure,
                                 new_structure, inserted, deleted, context,
                                 governor, state)
    if isinstance(core, Fixpoint):
        core_rows = _unpermute(rows, permutation, len(core.columns))
        patched = _maintain_fixpoint(core, core_rows, old_structure,
                                     new_structure, inserted, deleted,
                                     context, governor)
        return _permute(patched, permutation)
    # pragma: no cover - maintenance_strategy only emits the two cores
    raise MaintenanceFallback(f"unknown core {type(core).__name__}")


# ---------------------------------------------------------- row permutations


def _permute(core_rows: Iterable[tuple], permutation: tuple[int, ...]
             ) -> frozenset:
    """Core rows -> memo rows under ``memo_row[i] = core_row[perm[i]]``."""
    return frozenset(tuple(row[p] for p in permutation) for row in core_rows)


def _unpermute(rows: Iterable[tuple], permutation: tuple[int, ...],
               width: int) -> set[tuple]:
    """Memo rows -> core rows (the permutation is a bijection)."""
    inverse = [0] * width
    for i, p in enumerate(permutation):
        inverse[p] = i
    return {tuple(row[i] for i in inverse) for row in rows}


# --------------------------------------------------------- non-recursive delta


def _maintain_delta(plan: Plan, rows: frozenset,
                    old_structure: Structure, new_structure: Structure,
                    inserted: Mapping[str, frozenset],
                    deleted: Mapping[str, frozenset],
                    context, support_check, governor) -> frozenset:
    result = set(rows)
    # Deletes first: candidates that may have lost every derivation,
    # each re-checked for support against the new structure.
    candidates: set[tuple] = set()
    for name, removed in deleted.items():
        derivative = differentiate_relation(plan, name)
        if derivative is None:
            continue
        if derivative is plan:
            raise MaintenanceFallback(f"no derivative in {name}")
        delta = {base_delta_name(name): frozenset(removed)}
        touched = derivative.execute(context(old_structure, delta=delta)).rows
        candidates.update(set(touched) & rows)
    candidates = chaos_point(
        "ivm.dred.overdelete", candidates,
        corrupt=lambda rows_: set(rows_) | {("$overdeleted",) * 2})
    if any(row not in rows for row in candidates):
        raise MaintenanceFallback("over-delete produced rows outside the memo")
    if candidates:
        if support_check is None:
            raise MaintenanceFallback("delete without a support oracle")
        if governor is not None:
            governor.note_rows(len(candidates))
        kept = {row for row in candidates if support_check(row)}
        kept = chaos_point("ivm.dred.rederive", kept,
                           corrupt=lambda rows_: set(rows_) | {("$rescued",)})
        if any(row not in candidates for row in kept):
            raise MaintenanceFallback(
                "re-derivation produced rows outside the candidates")
        result -= candidates - kept
    # Inserts: the derivative on the new structure, unioned in.
    for name, added in inserted.items():
        derivative = differentiate_relation(plan, name)
        if derivative is None:
            continue
        if derivative is plan:
            raise MaintenanceFallback(f"no derivative in {name}")
        delta = {base_delta_name(name): frozenset(added)}
        gained = derivative.execute(context(new_structure, delta=delta)).rows
        if governor is not None:
            governor.note_rows(len(gained))
        result.update(gained)
    return frozenset(result)


# ------------------------------------------------------------- TC closures


def _body_scan(body: Plan) -> tuple[str, tuple[int, int]] | None:
    """``(relation, order)`` when the closure body is a bare binary scan
    of one base relation (possibly under row-preserving ``Shared`` /
    ``Rename`` wrappers) — the shape whose edge deltas are exactly the
    changeset's rows, needing no plan execution at all."""
    node = body
    while isinstance(node, (Rename, Shared)):
        node = node.children()[0]
    if isinstance(node, RelationScan) and len(node.columns) == 2:
        order = node.order if node.order is not None else (0, 1)
        return node.name, (order[0], order[1])
    return None


def _patch_reach(reach: list[int], removed, added, mid: list[int],
                 n: int, governor) -> None:
    """DRed over-delete / re-derive then Dyn-FO edge inserts, patching the
    ``reach`` bitset rows in place.  ``mid`` is the post-delete,
    pre-insert adjacency the re-derivation BFS walks."""
    universe_mask = (1 << n) - 1
    if removed:
        over = chaos_point(
            "ivm.dred.overdelete", overdeleted_rows(reach, sorted(removed)),
            corrupt=lambda masks: [m | universe_mask for m in masks])
        if len(over) != n or \
                any(over[x] & ~(reach[x] & ~(1 << x)) for x in range(n)):
            raise MaintenanceFallback("over-delete escaped the old closure")
        for x in range(n):
            if not over[x]:
                continue
            if governor is not None:
                governor.note_rows(over[x].bit_count())
            rederived = chaos_point(
                "ivm.dred.rederive", reach_from(mid, x),
                corrupt=lambda bits: bits | universe_mask)
            if rederived & ~reach[x] or not rederived & (1 << x):
                raise MaintenanceFallback(
                    "re-derivation escaped the old closure")
            reach[x] = rederived
    for u, v in added:
        changed = patch_closure_insert(reach, u, v)
        if governor is not None and changed:
            governor.note_rows(changed.bit_count())


def _maintain_closure(core: Closure, permutation: tuple[int, ...],
                      rows: frozenset, old_structure: Structure,
                      new_structure: Structure,
                      inserted: Mapping[str, frozenset],
                      deleted: Mapping[str, frozenset],
                      context, governor, state: dict | None) -> frozenset:
    if core.k != 1:
        raise MaintenanceFallback("k-tuple closure (k > 1)")
    n = new_structure.size
    if n > DENSE_WIDTH_THRESHOLD:
        # The dense patch keeps an n-row giant-int reach matrix resident —
        # O(n^2) bits.  Past the columnar width threshold that dwarfs the
        # O(frontier) chunked recompute, so degrade instead of thrashing.
        raise MaintenanceFallback(
            f"universe {n} above dense maintenance threshold "
            f"{DENSE_WIDTH_THRESHOLD}")
    scan = _body_scan(core.body)
    if scan is not None and state is not None:
        return _maintain_closure_scan(scan, rows, permutation, n,
                                      old_structure, inserted, deleted,
                                      governor, state)
    # Generic body: evaluate it on both structures for the edge delta,
    # then patch through the full tuple <-> bitset round trip.
    core_rows = _unpermute(rows, permutation, 2)
    old_edges = frozenset(core.body.execute(context(old_structure)).rows)
    new_edges = frozenset(core.body.execute(context(new_structure)).rows)
    if old_edges == new_edges:
        return rows
    reach = [0] * n
    for x, y in core_rows:
        reach[x] |= 1 << y
    # Deletion walks the *post-delete, pre-insert* edges; insertion comes
    # after, edge by edge, via the Dyn-FO patch.
    _patch_reach(reach, old_edges - new_edges, new_edges - old_edges,
                 adjacency_of_binary(old_edges & new_edges, n), n, governor)
    return _permute(((x, y) for x in range(n) for y in iter_bits(reach[x])),
                    permutation)


def _maintain_closure_scan(scan: tuple[str, tuple[int, int]],
                           rows: frozenset, permutation: tuple[int, ...],
                           n: int, old_structure: Structure,
                           inserted: Mapping[str, frozenset],
                           deleted: Mapping[str, frozenset],
                           governor, state: dict) -> frozenset:
    """The bare-scan steady state: edge deltas read straight off the
    changeset, edge/reach bitsets carried across updates in ``state``,
    and the memo patched by the XOR diff of the touched reach rows —
    O(change) words, never O(|closure|) tuples."""
    name, (o0, o1) = scan
    removed = [(row[o0], row[o1]) for row in deleted.get(name, ())]
    added = [(row[o0], row[o1]) for row in inserted.get(name, ())]
    if state.get("rows") is rows and state.get("key") == (name, o0, o1, n):
        reach, edges = state["reach"], state["edges"]
    else:
        inverse = [0, 0]
        for i, p in enumerate(permutation):
            inverse[p] = i
        reach = [0] * n
        for row in rows:
            reach[row[inverse[0]]] |= 1 << row[inverse[1]]
        edges = [0] * n
        for row in old_structure.relations[name]:
            edges[row[o0]] |= 1 << row[o1]
    before = list(reach)
    for u, v in removed:
        edges[u] &= ~(1 << v)
    # ``edges`` now holds the post-delete, pre-insert adjacency: exactly
    # the graph the re-derivation BFS must walk.
    _patch_reach(reach, removed, added, edges, n, governor)
    for u, v in added:
        edges[u] |= 1 << v
    lost, gained = set(), set()
    memo_pair = (lambda x, y: (x, y)) if permutation == (0, 1) \
        else (lambda x, y: (y, x))
    for x in range(n):
        flipped = before[x] ^ reach[x]
        if not flipped:
            continue
        for y in iter_bits(flipped & before[x]):
            lost.add(memo_pair(x, y))
        for y in iter_bits(flipped & reach[x]):
            gained.add(memo_pair(x, y))
    patched = (rows - lost) | gained if (lost or gained) else rows
    state.update(rows=patched, key=(name, o0, o1, n),
                 reach=reach, edges=edges)
    return patched


# ---------------------------------------------------------------- fixed points


def _maintain_fixpoint(core: Fixpoint, core_rows: set[tuple],
                       old_structure: Structure, new_structure: Structure,
                       inserted: Mapping[str, frozenset],
                       deleted: Mapping[str, frozenset],
                       context, governor) -> set[tuple]:
    if core.delta_body is None:
        raise MaintenanceFallback("fixpoint lacks a delta-rewritten body")
    relation, body, delta_body = core.relation, core.body, core.delta_body
    total = set(core_rows)

    def run(plan: Plan, structure: Structure, aux_total: set,
            delta_rows: Mapping[str, frozenset] | None = None,
            frontier: frozenset | None = None,
            store: dict | None = None) -> frozenset:
        # ``store`` scopes Cumulative accumulators: each loop below keeps
        # its own (accumulated values depend on the structure and the
        # auxiliary binding, so a store must never cross either boundary).
        deltas = dict(delta_rows or {})
        if frontier is not None:
            deltas[relation] = frontier
        ctx = context(structure, {relation: frozenset(aux_total)},
                      delta=deltas, accumulators=store if store is not None
                      else {})
        rows = frozenset(plan.execute(ctx).rows)
        if governor is not None:
            governor.note_rows(len(rows))
        return rows

    # ------------------------------------------------ DRed delete phase
    if deleted:
        over: set[tuple] = set()
        for name, removed in deleted.items():
            derivative = differentiate_relation(body, name)
            if derivative is None:
                continue
            if derivative is body:
                raise MaintenanceFallback(f"no body derivative in {name}")
            seeds = run(derivative, old_structure, total,
                        {base_delta_name(name): frozenset(removed)})
            over.update(seeds & core_rows)
        frontier = frozenset(over)
        over_store: dict = {}
        while frontier:
            if governor is not None:
                governor.note_round()
            derived = run(delta_body, old_structure, total, frontier=frontier,
                          store=over_store)
            frontier = frozenset((derived & core_rows) - over)
            over.update(frontier)
        over = chaos_point(
            "ivm.dred.overdelete", over,
            corrupt=lambda rows_: set(rows_) | {("$overdeleted",)})
        if any(row not in core_rows for row in over):
            raise MaintenanceFallback("over-delete escaped the old fixpoint")
        total -= over
        if over:
            # Re-derive: one full body round against the survivors, on the
            # new structure; only over-deleted rows can come back.
            rescued = run(body, new_structure, total) & over
            rescued = chaos_point(
                "ivm.dred.rederive", rescued,
                corrupt=lambda rows_: set(rows_) | {("$rescued",)})
            if any(row not in over for row in rescued):
                raise MaintenanceFallback(
                    "re-derivation escaped the over-deleted rows")
        else:
            rescued = frozenset()
    else:
        rescued = frozenset()

    # ------------------------------------------------ insert seeds
    seeds: set[tuple] = set(rescued)
    for name, added in inserted.items():
        derivative = differentiate_relation(body, name)
        if derivative is None:
            continue
        if derivative is body:
            raise MaintenanceFallback(f"no body derivative in {name}")
        seeds.update(run(derivative, new_structure, total,
                         {base_delta_name(name): frozenset(added)}))

    # ------------------------------------------------ seeded semi-naive rounds
    delta = frozenset(seeds - total)
    total.update(delta)
    round_store: dict = {}
    while delta:
        if governor is not None:
            governor.note_round()
        derived = run(delta_body, new_structure, total, frontier=delta,
                      store=round_store)
        delta = frozenset(row for row in derived if row not in total)
        total.update(delta)
    return total
