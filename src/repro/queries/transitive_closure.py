"""Section 4: transitive closure and deterministic transitive closure in SRL.

Corollary 4.2 characterises NL as SRFO + TC and Corollary 4.4 characterises
L as SRFO + DTC; the TC and DTC operators themselves are computed in SRL by
iterating a composition step |D| times, which is what the programs below do
(the ``bothsides``/``add`` construction of Section 4, phrased with the
Fact 2.4 relational operators).

Provided here:

* Python baselines (:func:`reachable_baseline`,
  :func:`deterministic_reachable_baseline`, :func:`transitive_closure_baseline`);
* SRL programs (:func:`tc_program`, :func:`dtc_program`,
  :func:`reachability_program`, :func:`deterministic_reachability_program`);
* the database encoding (:func:`graph_database`).
"""

from __future__ import annotations

from repro.core import Atom, Database, Program, make_set, make_tuple, with_standard_library
from repro.core import builders as b
from repro.core.engine import transitive_closure
from repro.core.stdlib import forall_expr, join_expr, select_expr
from repro.structures.structure import Structure

__all__ = [
    "reachable_baseline",
    "deterministic_reachable_baseline",
    "transitive_closure_baseline",
    "graph_database",
    "tc_program",
    "dtc_program",
    "reachability_program",
    "deterministic_reachability_program",
]


# ---------------------------------------------------------------- baselines


def transitive_closure_baseline(structure: Structure,
                                deterministic: bool = False,
                                seminaive: bool = True) -> frozenset[tuple[int, int]]:
    """The reflexive transitive closure of the edge relation (restricted to
    out-degree-one vertices when ``deterministic``), via the engine's
    shared closure kernel (``seminaive=False`` for the naive oracle)."""
    successors: dict[int, list[int]] = {v: [] for v in structure.universe}
    for u, v in structure.relation("E"):
        successors[u].append(v)
    return frozenset(transitive_closure(successors, deterministic=deterministic,
                                        seminaive=seminaive))


def reachable_baseline(structure: Structure, source: int | None = None,
                       target: int | None = None) -> bool:
    source = 0 if source is None else source
    target = structure.size - 1 if target is None else target
    return (source, target) in transitive_closure_baseline(structure)


def deterministic_reachable_baseline(structure: Structure, source: int | None = None,
                                     target: int | None = None) -> bool:
    source = 0 if source is None else source
    target = structure.size - 1 if target is None else target
    return (source, target) in transitive_closure_baseline(structure, deterministic=True)


# ------------------------------------------------------------ SRL programs


def graph_database(structure: Structure, source: int | None = None,
                   target: int | None = None) -> Database:
    """``NODES``, ``EDGES`` plus the two reachability endpoints."""
    source = 0 if source is None else source
    target = structure.size - 1 if target is None else target
    return Database({
        "NODES": make_set(*(Atom(v) for v in structure.universe)),
        "EDGES": make_set(*(make_tuple(Atom(u), Atom(v)) for u, v in structure.relation("E"))),
        "SOURCE": Atom(source),
        "TARGET": Atom(target),
    })


def _compose_definition():
    """``compose(R, S) = { [x, z] | [x, y] in R, [y, z] in S }``."""
    body = join_expr(
        b.var("R"), b.var("S"),
        condition=lambda t1, t2: b.eq(b.sel(2, t1), b.sel(1, t2)),
        output=lambda t1, t2: b.tup(b.sel(1, t1), b.sel(2, t2)),
    )
    return b.define("compose", ["R", "S"], body)


def _identity_pairs_definition():
    """``identity-pairs() = { [x, x] | x in NODES }``."""
    body = b.set_reduce(
        b.var("NODES"),
        b.lam("x", "e", b.tup(b.var("x"), b.var("x"))),
        b.lam("a", "r", b.insert(b.var("a"), b.var("r"))),
        b.emptyset(),
        b.emptyset(),
    )
    return b.define("identity-pairs", [], body)


def _tc_step_definition():
    """``tc-step(R) = R ∪ compose(R, EDGES)`` — Section 4's ``add`` step."""
    return b.define(
        "tc-step", ["R"],
        b.call("union", b.var("R"), b.call("compose", b.var("R"), b.var("EDGES"))),
    )


def _tc_definition():
    """``tc()``: the reflexive transitive closure of ``EDGES``, by iterating
    the step |NODES| times from the identity relation."""
    body = b.set_reduce(
        b.var("NODES"),
        b.lam("d", "e", b.var("d")),
        b.lam("a", "R", b.call("tc-step", b.var("R"))),
        b.call("union", b.call("identity-pairs"), b.var("EDGES")),
        b.emptyset(),
    )
    return b.define("tc", [], body)


def _det_edges_definition():
    """``det-edges()``: the edges ``[x, y]`` such that ``y`` is the *unique*
    successor of ``x`` (the ``phi_d`` of the DTC definition)."""
    body = select_expr(
        b.var("EDGES"),
        lambda p, _extra: forall_expr(
            b.var("EDGES"),
            lambda q, pp: b.or_(
                b.not_(b.eq(b.sel(1, q), b.sel(1, pp))),
                b.eq(b.sel(2, q), b.sel(2, pp)),
            ),
            extra=p,
        ),
    )
    return b.define("det-edges", [], body)


def _dtc_step_definition():
    return b.define(
        "dtc-step", ["R"],
        b.call("union", b.var("R"), b.call("compose", b.var("R"), b.call("det-edges"))),
    )


def _dtc_definition():
    body = b.set_reduce(
        b.var("NODES"),
        b.lam("d", "e", b.var("d")),
        b.lam("a", "R", b.call("dtc-step", b.var("R"))),
        b.call("union", b.call("identity-pairs"), b.call("det-edges")),
        b.emptyset(),
    )
    return b.define("dtc", [], body)


def tc_program() -> Program:
    """A program whose ``tc`` definition computes the reflexive transitive
    closure of ``EDGES``."""
    program = Program()
    for definition in (_compose_definition(), _identity_pairs_definition(),
                       _tc_step_definition(), _tc_definition()):
        program.define(definition)
    return with_standard_library(program)


def dtc_program() -> Program:
    """Like :func:`tc_program` but for the deterministic closure."""
    program = Program()
    for definition in (_compose_definition(), _identity_pairs_definition(),
                       _det_edges_definition(), _dtc_step_definition(), _dtc_definition()):
        program.define(definition)
    return with_standard_library(program)


def reachability_program() -> Program:
    """GAP: is ``[SOURCE, TARGET]`` in the transitive closure?"""
    program = tc_program()
    program.main = b.call("member", b.tup(b.var("SOURCE"), b.var("TARGET")), b.call("tc"))
    return program


def deterministic_reachability_program() -> Program:
    """Deterministic GAP: reachability along out-degree-one vertices only."""
    program = dtc_program()
    program.main = b.call("member", b.tup(b.var("SOURCE"), b.var("TARGET")), b.call("dtc"))
    return program
