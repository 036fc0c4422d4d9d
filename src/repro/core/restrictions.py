"""The family of syntactic restrictions studied by the paper.

Each restriction is a predicate over one set of :class:`ProgramFacts` — a
single walk of the program plus at most one type check:

========================  ====================================================
Restriction                Paper characterisation
========================  ====================================================
``UNRESTRICTED_SRL``       SRL + new / unbounded sets — PrimRec (Theorem 5.2)
``SRL``                    set-height <= 1, fixed tuple width — **P**
                           (Theorem 3.10)
``BASRL``                  SRL where every set-reduce accumulator returns a
                           flat bounded-width tuple — **L** (Theorem 4.13)
``SRFO_TC``                forsome, forall, not, or, and, <=, TC — **NL**
                           (Corollary 4.2)
``SRFO_DTC``               forsome, forall, not, or, and, <=, DTC — **L**
                           (Corollary 4.4)
``SRL_NEW``                SRL plus the ``new`` operator — PrimRec
``LRL``                    list-reduce instead of set-reduce, list-height <= 1
                           — PrimRec (Corollary 5.5)
========================  ====================================================

A checker reports a list of human-readable violations (empty = the program
is in the restriction); ``assert_member`` raises
:class:`~repro.core.errors.RestrictionViolation` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .ast import (
    Call,
    ConsList,
    EmptyList,
    Expr,
    Insert,
    ListReduce,
    NatConst,
    New,
    Program,
    SetReduce,
    walk,
)
from .errors import RestrictionViolation, SRLError
from .typecheck import TypeChecker, TypeReport
from .types import NatType, SetType, Type, list_height, set_height

__all__ = [
    "ProgramFacts",
    "program_facts",
    "Restriction",
    "UNRESTRICTED_SRL",
    "SRL",
    "BASRL",
    "SRFO_TC",
    "SRFO_DTC",
    "SRL_NEW",
    "LRL",
    "ALL_RESTRICTIONS",
    "check",
    "assert_member",
    "strictest_for",
    "strictest_restriction",
]


@dataclass(frozen=True)
class ProgramFacts:
    """What every classifier reads off a program: one walk over main and
    every definition, plus at most one type check of main.

    Three typing cases decide the type-derived rules:

    * **typed** (``report`` set): set-heights, sets of naturals and
      list-heights come from the observed types, and BASRL asks every
      accumulator type for set-height 0.
    * **untyped** (``input_types is None``): no type check runs; SRL and LRL
      apply only their syntactic rules, and BASRL's accumulator rule is
      syntactic — no ``insert`` inside a set-reduce accumulator body.
    * **failed type check** (input types given, but checking raised or
      there is no main): SRL and LRL fall back to their syntactic rules,
      while BASRL reports that it could not inspect the accumulators, so
      such a program is at best SRL.
    """

    program: Program
    expr: Optional[Expr]
    input_types: Optional[Mapping[str, Type]]
    report: Optional[TypeReport]
    uses_new: bool
    uses_lists: bool
    uses_naturals: bool
    uses_reduce: bool
    set_reduces: tuple[SetReduce, ...]
    main_calls: frozenset[str]  # calls in main of names the program does not define
    main_extensions: frozenset[str]  # New / list node kinds in main, for SRFO
    observed: frozenset[Type]  # distinct types the type check assigned

    def accumulator_violations(self) -> list[str]:
        """BASRL's accumulator rule (empty when every accumulator is flat)."""
        if self.report is not None:
            return [f"an accumulator returns {t} (set-height {set_height(t)}); "
                    "BASRL accumulators must return flat bounded-width tuples"
                    for t in self.report.accumulator_types if set_height(t) != 0]
        if self.input_types is not None:
            return ["could not type-check the program to inspect accumulators"]
        if any(isinstance(sub, Insert)
               for node in self.set_reduces for sub in walk(node.acc.body)):
            return ["an accumulator function inserts into a set; BASRL "
                    "accumulators must return flat bounded-width tuples"]
        return []


_LIST_NODES = (ListReduce, ConsList, EmptyList)


def program_facts(program: Program, input_types: Mapping[str, Type] | None = None,
                  main: Expr | None = None,
                  report: TypeReport | None = None) -> ProgramFacts:
    """Collect the facts for ``main`` (default ``program.main``) and every
    definition.  A caller that already type-checked main against
    ``input_types`` passes its ``report`` and no second check runs."""
    expr = main if main is not None else program.main
    main_nodes = list(walk(expr)) if expr is not None else []
    nodes = list(main_nodes)
    for definition in program.definitions.values():
        nodes.extend(walk(definition.body))
    kinds = {type(node) for node in nodes}
    if report is None and input_types is not None and expr is not None:
        try:
            report = TypeChecker(program).check_expression(expr, input_types)
        except SRLError:
            pass
    return ProgramFacts(
        program=program,
        expr=expr,
        input_types=input_types,
        report=report,
        uses_new=New in kinds,
        uses_lists=any(kind in kinds for kind in _LIST_NODES),
        uses_naturals=NatConst in kinds,
        uses_reduce=SetReduce in kinds or ListReduce in kinds,
        set_reduces=tuple(node for node in nodes if isinstance(node, SetReduce)),
        main_calls=frozenset(node.name for node in main_nodes if isinstance(node, Call)
                             and node.name not in program.definitions),
        main_extensions=frozenset(type(node).__name__ for node in main_nodes
                                  if isinstance(node, (New, *_LIST_NODES))),
        observed=frozenset(report.observed_types) if report is not None else frozenset(),
    )


@dataclass(frozen=True)
class Restriction:
    """A named syntactic restriction with its complexity characterisation."""

    name: str
    complexity_class: str
    paper_reference: str
    rule: Callable[[ProgramFacts], list[str]]

    def check(self, program: Program,
              input_types: Mapping[str, Type] | None = None,
              main: Expr | None = None) -> list[str]:
        """Return the list of violations (empty when the program belongs)."""
        return self.rule(program_facts(program, input_types, main))

    def is_member(self, program: Program,
                  input_types: Mapping[str, Type] | None = None,
                  main: Expr | None = None) -> bool:
        return not self.check(program, input_types, main)

    def assert_member(self, program: Program,
                      input_types: Mapping[str, Type] | None = None,
                      main: Expr | None = None) -> None:
        violations = self.check(program, input_types, main)
        if violations:
            raise RestrictionViolation(self.name, violations)


# ------------------------------------------------------------------ rules


def _srl_rule(facts: ProgramFacts) -> list[str]:
    violations: list[str] = []
    if facts.uses_new:
        violations.append("uses new (invented values), which is outside SRL")
    if facts.uses_lists:
        violations.append("uses lists, which are outside SRL (that is LRL)")
    for t in facts.observed:
        if set_height(t) > 1:
            violations.append(f"type {t} has set-height {set_height(t)} > 1 (Definition 2.2)")
        if isinstance(t, SetType) and isinstance(t.element, NatType):
            violations.append(
                f"type {t} is a set of naturals, which lets SRL escape P (Section 5)"
            )
    for name, t in (facts.input_types or {}).items():
        if set_height(t) > 1:
            violations.append(f"input {name} has type {t} of set-height {set_height(t)} > 1")
    return sorted(set(violations))


def _basrl_rule(facts: ProgramFacts) -> list[str]:
    return sorted(set(_srl_rule(facts) + facts.accumulator_violations()))


_SRFO_ALLOWED_CALLS = frozenset({"forall", "forsome", "not", "and", "or", "member",
                                 "union", "is-empty", "singleton"})


def _srfo_rule(operator_name: str):
    allowed = _SRFO_ALLOWED_CALLS | {operator_name.lower()}

    def rule(facts: ProgramFacts) -> list[str]:
        violations = _srl_rule(facts)
        violations += [f"call of '{name}' is outside the SRFO+{operator_name} fragment"
                       for name in facts.main_calls - allowed]
        violations += [f"node {kind} is outside the SRFO+{operator_name} fragment"
                       for kind in facts.main_extensions]
        return sorted(set(violations))

    return rule


def _srl_new_rule(facts: ProgramFacts) -> list[str]:
    if facts.uses_lists:
        return ["uses lists; SRL+new is the set-based extension (use LRL)"]
    return []


def _lrl_rule(facts: ProgramFacts) -> list[str]:
    violations = [f"type {t} has list-height {list_height(t)} > 1"
                  for t in facts.observed if list_height(t) > 1]
    if facts.uses_new:
        violations.append("uses new; LRL is the list-based extension without invention")
    return sorted(set(violations))


UNRESTRICTED_SRL = Restriction("unrestricted SRL", "PrimRec", "Theorem 5.2", lambda facts: [])
SRL = Restriction("SRL", "P", "Theorem 3.10", _srl_rule)
BASRL = Restriction("BASRL", "L", "Theorem 4.13", _basrl_rule)
SRFO_TC = Restriction("SRFO+TC", "NL", "Corollary 4.2", _srfo_rule("TC"))
SRFO_DTC = Restriction("SRFO+DTC", "L", "Corollary 4.4", _srfo_rule("DTC"))
SRL_NEW = Restriction("SRL+new", "PrimRec", "Theorem 5.2", _srl_new_rule)
LRL = Restriction("LRL", "PrimRec", "Corollary 5.5", _lrl_rule)

ALL_RESTRICTIONS = (SRFO_DTC, SRFO_TC, BASRL, SRL, SRL_NEW, LRL, UNRESTRICTED_SRL)


def check(restriction: Restriction, program: Program,
          input_types: Mapping[str, Type] | None = None,
          main: Expr | None = None) -> list[str]:
    """Functional form of :meth:`Restriction.check`."""
    return restriction.check(program, input_types, main)


def assert_member(restriction: Restriction, program: Program,
                  input_types: Mapping[str, Type] | None = None,
                  main: Expr | None = None) -> None:
    """Functional form of :meth:`Restriction.assert_member`."""
    restriction.assert_member(program, input_types, main)


def strictest_for(facts: ProgramFacts) -> Restriction:
    """The lowest-complexity restriction whose rule ``facts`` satisfy.

    Checked from the most restrictive class upwards: BASRL (L), SRL (P),
    SRL+new / LRL (PrimRec), unrestricted.  The SRFO fragments are skipped
    here because membership depends on which abbreviations the caller deems
    primitive; check them explicitly when needed.
    """
    for restriction in (BASRL, SRL, SRL_NEW, LRL):
        if not restriction.rule(facts):
            return restriction
    return UNRESTRICTED_SRL


def strictest_restriction(program: Program,
                          input_types: Mapping[str, Type] | None = None,
                          main: Expr | None = None) -> Restriction:
    """The lowest-complexity restriction the program satisfies (see
    :func:`strictest_for`)."""
    return strictest_for(program_facts(program, input_types, main))
