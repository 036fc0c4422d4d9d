"""Definition 3.4 / Lemma 3.6: alternating graph accessibility (AGAP).

``APATH(x, y)`` is the smallest relation with

1. ``APATH(x, x)``;
2. if ``x`` is existential and some edge ``(x, z)`` has ``APATH(z, y)``,
   then ``APATH(x, y)``;
3. if ``x`` is universal, has at least one outgoing edge, and *every* edge
   ``(x, z)`` has ``APATH(z, y)``, then ``APATH(x, y)``.

``AGAP`` asks whether ``APATH(v0, vmax)`` holds.  AGAP is complete for P
under first-order reductions (Fact 3.5), and Lemma 3.6 expresses it in SRL
by iterating the monotone operator ``F`` with nested set-reduces — that SRL
program is the witness for P ⊆ ℒ(SRL) (Theorem 3.10).

This module provides the direct Python baseline, the SRL program, and the
database encoding of an alternating-graph structure.
"""

from __future__ import annotations

from repro.core import Atom, Database, IndexedRelation, Program, make_set, make_tuple, with_standard_library
from repro.core import builders as b
from repro.core.engine import least_fixpoint
from repro.core.stdlib import forall_expr, forsome_expr, product_expr
from repro.structures.structure import Structure

__all__ = [
    "apath_baseline", "agap_baseline", "agap_database", "apath_program",
    "agap_program",
]


# ---------------------------------------------------------------- baseline


def apath_baseline(structure: Structure,
                   seminaive: bool = True) -> frozenset[tuple[int, int]]:
    """The APATH relation (the reference implementation the SRL program is
    checked against), computed through the engine's fixed-point kernel.

    The derivation is phrased as a delta step over the edge relation's
    per-column indexes: a freshly derived ``APATH(z, y)`` can only enable
    ``APATH(x, y)`` for the *predecessors* ``x`` of ``z``, so each round
    probes the target-column index of ``E`` with the previous round's delta
    instead of re-sweeping every ``(x, y)`` pair.  ``seminaive=False`` runs
    the same step naively (the whole relation is the delta every round).
    """
    edges = IndexedRelation(structure.relation("E"), arity=2)
    universal = {row[0] for row in structure.relation("A")}
    predecessors = edges.index(1)  # target -> edge rows into it
    successors = edges.index(0)    # source -> edge rows out of it

    def holds(x: int, y: int, apath) -> bool:
        if x in universal:
            return all((edge[1], y) in apath for edge in successors[x])
        return True  # the triggering edge is the existential witness

    def delta_step(delta: frozenset, apath: set) -> set[tuple[int, int]]:
        derived: set[tuple[int, int]] = set()
        for z, y in delta:
            for edge in predecessors.get(z, ()):
                x = edge[0]
                if (x, y) not in apath and holds(x, y, apath):
                    derived.add((x, y))
        return derived

    initial = frozenset((v, v) for v in structure.universe)
    return least_fixpoint(initial=initial, delta_step=delta_step,
                          seminaive=seminaive)


def agap_baseline(structure: Structure, source: int | None = None,
                  target: int | None = None) -> bool:
    """AGAP: APATH from vertex 0 to vertex n-1 (or the given endpoints)."""
    source = 0 if source is None else source
    target = structure.size - 1 if target is None else target
    return (source, target) in apath_baseline(structure)


# -------------------------------------------------------------- SRL program


def agap_database(structure: Structure, source: int | None = None,
                  target: int | None = None) -> Database:
    """Encode an alternating graph for the SRL program: ``NODES``, ``EDGES``,
    ``ANDS`` (the universal vertices) plus the two endpoints."""
    source = 0 if source is None else source
    target = structure.size - 1 if target is None else target
    nodes = make_set(*(Atom(v) for v in structure.universe))
    edges = make_set(*(make_tuple(Atom(u), Atom(v)) for u, v in structure.relation("E")))
    ands = make_set(*(Atom(row[0]) for row in structure.relation("A")))
    return Database({
        "NODES": nodes,
        "EDGES": edges,
        "ANDS": ands,
        "SOURCE": Atom(source),
        "TARGET": Atom(target),
    })


def _f_cond_definition():
    """``f-cond(p, R)``: the paper's monotone operator ``F`` applied to the
    pair ``p = [x, y]`` and the current stage relation ``R``::

        F(x, y, R) = (x = y)
                   \\/ [ forsome z. E(x,z) /\\ R(z,y)
                        /\\ ( ~ANDS(x) \\/ forall z. E(x,z) -> R(z,y) ) ]
    """
    context = b.tup(b.var("p"), b.var("R"))

    def x_of(ctx):
        return b.sel(1, b.sel(1, ctx))

    def y_of(ctx):
        return b.sel(2, b.sel(1, ctx))

    def stage_of(ctx):
        return b.sel(2, ctx)

    exists_part = forsome_expr(
        b.var("NODES"),
        lambda z, ctx: b.and_(
            b.call("member", b.tup(x_of(ctx), z), b.var("EDGES")),
            b.call("member", b.tup(z, y_of(ctx)), stage_of(ctx)),
        ),
        extra=context,
    )
    forall_part = forall_expr(
        b.var("NODES"),
        lambda z, ctx: b.or_(
            b.not_(b.call("member", b.tup(x_of(ctx), z), b.var("EDGES"))),
            b.call("member", b.tup(z, y_of(ctx)), stage_of(ctx)),
        ),
        extra=context,
    )
    body = b.or_(
        b.eq(b.sel(1, b.var("p")), b.sel(2, b.var("p"))),
        b.and_(
            exists_part,
            b.or_(
                b.not_(b.call("member", b.sel(1, b.var("p")), b.var("ANDS"))),
                forall_part,
            ),
        ),
    )
    return b.define("f-cond", ["p", "R"], body)


def _one_step_definition():
    """``one-step(R)``: add to ``R`` every pair the operator derives from it
    (one stage of the least-fixed-point iteration)."""
    pairs = product_expr(b.var("NODES"), b.var("NODES"))
    body = b.set_reduce(
        pairs,
        b.lam("p", "Rv", b.tup(b.var("p"), b.call("f-cond", b.var("p"), b.var("Rv")))),
        b.lam(
            "a", "r",
            b.if_(b.sel(2, b.var("a")), b.insert(b.sel(1, b.var("a")), b.var("r")), b.var("r")),
        ),
        b.var("R"),
        b.var("R"),
    )
    return b.define("one-step", ["R"], body)


def _apath_iterate_definition(quadratic: bool):
    """``apath-iterate()``: iterate ``one-step`` |NODES| times (or |NODES|^2
    times with ``quadratic=True``, the worst-case stage count of the fixed
    point, as in Lemma 3.6)."""
    inner = b.set_reduce(
        b.var("NODES"),
        b.lam("d2", "e2", b.var("d2")),
        b.lam("a2", "X", b.call("one-step", b.var("X"))),
        b.var("Z"),
        b.emptyset(),
    )
    if quadratic:
        body = b.set_reduce(
            b.var("NODES"),
            b.lam("d", "e", b.var("d")),
            b.lam("a", "Z", inner),
            b.emptyset(),
            b.emptyset(),
        )
    else:
        body = b.set_reduce(
            b.var("NODES"),
            b.lam("d", "e", b.var("d")),
            b.lam("a", "Z", b.call("one-step", b.var("Z"))),
            b.emptyset(),
            b.emptyset(),
        )
    return b.define("apath-iterate", [], body)


def apath_program(quadratic: bool = False) -> Program:
    """A program whose ``apath-iterate`` definition computes the APATH
    relation as a set of pairs.

    ``quadratic=True`` runs the full |NODES|^2 stages of Lemma 3.6;
    the default runs |NODES| stages, which already reaches the fixed point
    on every workload the benchmarks use (each stage is itself a full pass
    over all pairs) and keeps the polynomial degree low enough to sweep
    larger graphs.
    """
    program = Program()
    program.define(_f_cond_definition())
    program.define(_one_step_definition())
    program.define(_apath_iterate_definition(quadratic))
    return with_standard_library(program)


def agap_program(quadratic: bool = False) -> Program:
    """The AGAP decision program: is ``[SOURCE, TARGET]`` in APATH?"""
    program = apath_program(quadratic)
    program.main = b.call(
        "member", b.tup(b.var("SOURCE"), b.var("TARGET")), b.call("apath-iterate")
    )
    return program
