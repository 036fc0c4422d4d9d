"""The complexity-class landscape of the paper.

Two structures are provided:

* the *machine* classes the SRL family is measured against (L, NL, P,
  PSPACE, PrimRec, ...), each knowing which language restriction captures it
  (Theorem 3.10, Theorem 4.13, Corollaries 4.2/4.4, Theorem 5.2);
* the *query* classes of Figure 1 — the polynomial-time query classes whose
  proper containments Section 7 discusses — as a small containment lattice
  with a witness attached to every edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.logic.eval import define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

__all__ = [
    "ComplexityClass",
    "LOGSPACE",
    "NLOGSPACE",
    "PTIME",
    "PSPACE",
    "PRIMREC",
    "MACHINE_CLASSES",
    "QueryClass",
    "Containment",
    "Figure1Lattice",
    "figure1_lattice",
]


@dataclass(frozen=True)
class ComplexityClass:
    """A machine-based complexity class and the SRL restriction capturing it."""

    name: str
    description: str
    captured_by: str
    paper_reference: str


LOGSPACE = ComplexityClass(
    name="L",
    description="deterministic logarithmic space",
    captured_by="BASRL (flat bounded-width accumulators); also SRFO+DTC",
    paper_reference="Theorem 4.13, Corollary 4.4",
)

NLOGSPACE = ComplexityClass(
    name="NL",
    description="nondeterministic logarithmic space",
    captured_by="SRFO+TC",
    paper_reference="Corollary 4.2",
)

PTIME = ComplexityClass(
    name="P",
    description="deterministic polynomial time",
    captured_by="SRL (set-height <= 1, bounded tuple width)",
    paper_reference="Theorem 3.10",
)

PSPACE = ComplexityClass(
    name="PSPACE",
    description="polynomial space",
    captured_by="(FO + while), not an SRL restriction studied here",
    paper_reference="Section 7, footnote 4",
)

PRIMREC = ComplexityClass(
    name="PrimRec",
    description="the primitive recursive functions",
    captured_by="unrestricted SRL + new (equivalently LRL, or SRL + cons)",
    paper_reference="Theorem 5.2, Corollary 5.5",
)

MACHINE_CLASSES: tuple[ComplexityClass, ...] = (
    LOGSPACE, NLOGSPACE, PTIME, PSPACE, PRIMREC,
)


@dataclass(frozen=True)
class QueryClass:
    """A node of Figure 1."""

    key: str
    name: str
    description: str


@dataclass(frozen=True)
class Containment:
    """An edge of Figure 1: ``lower`` is properly contained in ``upper``."""

    lower: str
    upper: str
    proper: bool
    witness: str
    evidence: str


@dataclass
class Figure1Lattice:
    """Figure 1: the polynomial-time query classes and their containments."""

    classes: dict[str, QueryClass] = field(default_factory=dict)
    containments: list[Containment] = field(default_factory=list)
    # (class count, containment count) -> closure; the lattice is append-only
    # through the two add_* methods, so the counts identify the state.
    _closure_cache: tuple[tuple[int, int], set[tuple[str, str]]] | None = \
        field(default=None, repr=False, compare=False)

    def add_class(self, query_class: QueryClass) -> None:
        self.classes[query_class.key] = query_class

    def add_containment(self, containment: Containment) -> None:
        if containment.lower not in self.classes or containment.upper not in self.classes:
            raise KeyError("both endpoints of a containment must be registered classes")
        self.containments.append(containment)

    def chain(self) -> list[QueryClass]:
        """The classes ordered from smallest to largest along the chain."""
        order = ["fo_lfp_unordered", "fo_lfp_count_unordered", "order_independent_p", "p"]
        return [self.classes[key] for key in order if key in self.classes]

    def containment_closure(self) -> set[tuple[str, str]]:
        """The reflexive-transitive containment relation over the recorded
        edges, computed (once per lattice state) through the logic layer's
        default backend: the lattice is encoded as a finite structure (one
        universe element per class, ``E`` the recorded edges) and the
        Fact 4.1 TC formula is compiled and executed set-at-a-time."""
        state = (len(self.classes), len(self.containments))
        if self._closure_cache is not None and self._closure_cache[0] == state:
            return self._closure_cache[1]
        keys = list(self.classes)
        index = {key: position for position, key in enumerate(keys)}
        structure = Structure(
            Vocabulary.of(E=2), len(keys),
            {"E": frozenset((index[c.lower], index[c.upper])
                            for c in self.containments)},
        )
        query = CANONICAL_QUERIES["tc"]
        pairs = define_relation(query.formula(), structure, query.variables)
        closure = {(keys[lower], keys[upper]) for lower, upper in pairs}
        self._closure_cache = (state, closure)
        return closure

    def is_contained(self, lower: str, upper: str) -> bool:
        """Reflexive-transitive containment along the recorded edges."""
        if lower == upper:
            return True
        return (lower, upper) in self.containment_closure()

    def edges(self) -> Iterator[Containment]:
        return iter(self.containments)


def figure1_lattice() -> Figure1Lattice:
    """The lattice of Figure 1 with the paper's witnesses attached."""
    lattice = Figure1Lattice()
    lattice.add_class(QueryClass(
        key="fo_lfp_unordered",
        name="(FO(wo<=) + LFP)",
        description="fixed-point logic without an order on the universe",
    ))
    lattice.add_class(QueryClass(
        key="fo_lfp_count_unordered",
        name="(FO(wo<=) + LFP + count)",
        description="fixed-point logic with counting quantifiers, no order",
    ))
    lattice.add_class(QueryClass(
        key="order_independent_p",
        name="order-independent P",
        description="polynomial-time queries whose answer never depends on the order",
    ))
    lattice.add_class(QueryClass(
        key="p",
        name="(FO + LFP) = P",
        description="fixed-point logic with an order — all polynomial-time queries",
    ))
    lattice.add_containment(Containment(
        lower="fo_lfp_unordered",
        upper="fo_lfp_count_unordered",
        proper=True,
        witness="EVEN",
        evidence="EVEN (parity of |universe|) needs counting: Fact 7.5; it is "
                 "expressible with a counting quantifier / proper hom (Prop. 7.6).",
    ))
    lattice.add_containment(Containment(
        lower="fo_lfp_count_unordered",
        upper="order_independent_p",
        proper=True,
        witness="CFI-style pairs",
        evidence="Cai-Furer-Immerman structures agree on bounded-variable counting "
                 "logic yet are separated by an order-independent P property "
                 "(Theorem 7.7).",
    ))
    lattice.add_containment(Containment(
        lower="order_independent_p",
        upper="p",
        proper=True,
        witness="Purple(First(S))",
        evidence="Any order-dependent query (the first element satisfies a "
                 "predicate) is in P with an order but is not order-independent.",
    ))
    return lattice
