"""Section 6: reading a program's complexity off its syntax.

The paper shows that a scan of an SRL program's syntax bounds its
complexity:

* **depth** ``d`` (Lemma 3.9): base functions have depth 0; a set-reduce has
  depth ``1 + max(depth of source, app, acc, base, extra)``;
* **width** ``a``: the maximum arity of tuples used in a non-input set;
* Proposition 6.1: an SRL expression of width ``a`` and depth ``d`` runs in
  ``DTIME(n^{ad} * T_ins)``;
* set-height > 1 (or lists, or invented values) escapes P entirely —
  set-height ``h`` corresponds to ``DTIME(2_h # n)`` (Corollary 6.4) and
  ``new`` / lists give all of PrimRec (Theorem 5.2);
* if every accumulator returns a flat bounded-width tuple the program is in
  **L** (Theorem 4.13, BASRL).

:func:`analyze` packages all of that into a :class:`ProgramAnalysis` report,
which is what the Section 6 benchmark prints and what the examples use to
audit query complexity before running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .ast import Call, Expr, ListReduce, Program, SetReduce, TupleExpr, children, walk
from .errors import SRLError
from .restrictions import ProgramFacts, program_facts
from .typecheck import TypeReport
from .types import NatType, SetType, Type, set_height

__all__ = ["ProgramAnalysis", "expression_depth", "expression_width", "analysis_for", "analyze"]


def expression_depth(expr: Expr, program: Program | None = None,
                     _stack: frozenset[str] = frozenset()) -> int:
    """The Lemma 3.9 depth of ``expr``.

    Calls of named definitions contribute the depth of the definition body
    (definitions are abbreviations, so inlining them is the faithful
    reading).
    """
    if isinstance(expr, (SetReduce, ListReduce)):
        parts = (expr.source, expr.app.body, expr.acc.body, expr.base, expr.extra)
        return 1 + max(expression_depth(part, program, _stack) for part in parts)
    if isinstance(expr, Call) and program is not None and expr.name in program.definitions:
        if expr.name in _stack:
            return 0
        body_depth = expression_depth(
            program.definitions[expr.name].body, program, _stack | {expr.name}
        )
        args_depth = max(
            (expression_depth(arg, program, _stack) for arg in expr.args), default=0
        )
        return max(body_depth, args_depth)
    return max((expression_depth(child, program, _stack) for child in children(expr)),
               default=0)


def expression_width(expr: Expr, program: Program | None = None) -> int:
    """The syntactic width ``a``: the maximum arity of any tuple constructed
    by the expression (or by a definition it calls).  Defaults to 1 when the
    program builds no tuples."""
    widths = [1]
    seen: set[str] = set()

    def visit(e: Expr) -> None:
        for node in walk(e):
            if isinstance(node, TupleExpr):
                widths.append(len(node.items))
            if isinstance(node, Call) and program is not None:
                definition = program.definitions.get(node.name)
                if definition is not None and node.name not in seen:
                    seen.add(node.name)
                    visit(definition.body)

    visit(expr)
    return max(widths)


@dataclass
class ProgramAnalysis:
    """Everything Section 6 lets us read off a program's face."""

    depth: int
    width: int
    set_height: int
    uses_new: bool
    uses_lists: bool
    uses_naturals: bool
    has_set_of_naturals: bool
    accumulators_flat: bool
    time_exponent: int
    classification: str
    type_report: Optional[TypeReport] = None
    notes: list[str] = field(default_factory=list)

    @property
    def time_bound(self) -> str:
        """The Proposition 6.1 bound as a human-readable string."""
        return f"DTIME(n^{self.time_exponent} * T_ins)"

    def summary(self) -> str:
        lines = [
            f"depth d            = {self.depth}",
            f"width a            = {self.width}",
            f"set-height         = {self.set_height}",
            f"accumulators flat  = {self.accumulators_flat}",
            f"uses new / lists   = {self.uses_new} / {self.uses_lists}",
            f"Prop 6.1 bound     = {self.time_bound}",
            f"classification     = {self.classification}",
        ]
        if self.notes:
            lines.append("notes: " + "; ".join(self.notes))
        return "\n".join(lines)


def analysis_for(facts: ProgramFacts) -> ProgramAnalysis:
    """The Section 6 report for already collected :class:`ProgramFacts`.

    The classification reads the same facts as the restriction rules: the
    set-height and sets of naturals are SRL's, and an accumulator counts as
    flat exactly when BASRL's accumulator rule holds.  So "L = BASRL" and
    "P = SRL" agree with :func:`~repro.core.restrictions.strictest_for`.
    """
    expr, report = facts.expr, facts.report
    if expr is None:
        raise SRLError("analyze: program has no main expression")
    if report is not None:
        height = max((set_height(t) for t in
                      (*facts.observed, *(facts.input_types or {}).values())), default=0)
    else:
        height = 1 if facts.uses_reduce else 0
    naturals = any(isinstance(t, SetType) and isinstance(t.element, NatType)
                   for t in facts.observed)
    flat = facts.uses_reduce and not facts.accumulator_violations()

    notes: list[str] = []
    escapes = [reason for used, reason in (
        (facts.uses_new, "invented values (new)"),
        (facts.uses_lists, "lists (list-reduce / cons)"),
        (naturals, "sets of naturals"),
    ) if used]
    if escapes:
        notes.append("escapes P because of: " + ", ".join(escapes))
        classification = "PrimRec (Theorem 5.2)"
    elif height >= 2:
        notes.append(f"set-height {height} admits {height - 1}-fold "
                     "exponential blow-up (Example 3.12 / Corollary 6.4)")
        classification = f"DTIME(2_{height}#n) (Corollary 6.4)"
    elif not facts.uses_reduce:
        notes.append("no set-reduce: a quantifier-free / first-order combination")
        classification = "FO (no iteration)"
    elif flat:
        notes.append("every accumulator returns a flat bounded-width tuple")
        classification = "L = BASRL (Theorem 4.13)"
    else:
        classification = "P = SRL (Theorem 3.10)"

    # The paper's width counts tuples in *non-input* sets, so the syntactic
    # width (tuples the program constructs) is the right measure; input
    # relation arities do not enter the bound.
    depth = expression_depth(expr, facts.program)
    width = expression_width(expr, facts.program)
    return ProgramAnalysis(
        depth=depth,
        width=width,
        set_height=height,
        uses_new=facts.uses_new,
        uses_lists=facts.uses_lists,
        uses_naturals=facts.uses_naturals,
        has_set_of_naturals=naturals,
        accumulators_flat=flat,
        time_exponent=width * depth,
        classification=classification,
        type_report=report,
        notes=notes,
    )


def analyze(program: Program,
            input_types: Mapping[str, Type] | None = None,
            main: Expr | None = None) -> ProgramAnalysis:
    """Analyse a program's syntax (and, when input types are available, its
    inferred types) and classify its complexity.

    ``input_types`` maps database names to their SRL types; without it the
    analysis is purely syntactic (type-derived measures fall back to
    syntactic estimates).
    """
    return analysis_for(program_facts(program, input_types, main))
