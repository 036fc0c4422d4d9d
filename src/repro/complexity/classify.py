"""Mapping SRL programs to complexity classes (the Section 6 audit).

This is a thin bridge between :mod:`repro.core.analysis` /
:mod:`repro.core.restrictions` and the class descriptors of
:mod:`repro.complexity.classes`: given a program (and, optionally, its input
types), produce the machine class the syntax guarantees, together with the
evidence (the restriction that matched and the Proposition 6.1 bound).  Both
verdicts read one :class:`~repro.core.restrictions.ProgramFacts`, so the
program is type-checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core import Program
from repro.core.analysis import ProgramAnalysis, analysis_for
from repro.core.restrictions import BASRL, SRL, Restriction, program_facts, strictest_for
from repro.core.types import Type

from .classes import ComplexityClass, LOGSPACE, PRIMREC, PTIME
from .hierarchy import HierarchyLevel, hierarchy_level

__all__ = ["Classification", "classify_program"]


@dataclass
class Classification:
    """The verdict of the syntactic audit."""

    machine_class: Optional[ComplexityClass]
    restriction: Restriction
    analysis: ProgramAnalysis
    hierarchy: Optional[HierarchyLevel] = None

    def summary(self) -> str:
        lines = [self.analysis.summary()]
        lines.append(f"strictest restriction = {self.restriction.name} "
                     f"({self.restriction.paper_reference})")
        if self.machine_class is not None:
            lines.append(f"machine class        = {self.machine_class.name}")
        if self.hierarchy is not None:
            lines.append(f"hierarchy level      = {self.hierarchy.time_class}")
        return "\n".join(lines)


def classify_program(program: Program,
                     input_types: Mapping[str, Type] | None = None) -> Classification:
    """Audit a program: which restriction it satisfies, which machine class
    that guarantees, and where it sits in the set-height hierarchy."""
    facts = program_facts(program, input_types)
    analysis = analysis_for(facts)
    restriction = strictest_for(facts)

    machine_class: Optional[ComplexityClass]
    hierarchy: Optional[HierarchyLevel] = None
    if restriction is BASRL:
        machine_class = LOGSPACE
    elif restriction is SRL:
        machine_class = PTIME
        hierarchy = hierarchy_level(max(analysis.set_height, 1))
    elif analysis.uses_new or analysis.uses_lists or analysis.has_set_of_naturals:
        # Invented values, lists or sets of naturals: all of PrimRec
        # (Theorem 5.2 / Corollary 5.5).
        machine_class = PRIMREC
    else:
        # No SRL-escaping operator, but a set-height above 1: the program
        # sits in the Corollary 6.4 hierarchy rather than a named machine
        # class.
        machine_class = None
    if analysis.set_height >= 2:
        hierarchy = hierarchy_level(analysis.set_height)
    return Classification(
        machine_class=machine_class,
        restriction=restriction,
        analysis=analysis,
        hierarchy=hierarchy,
    )
