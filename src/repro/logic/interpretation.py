"""First-order interpretations (Definition 3.1).

A k-ary first-order interpretation maps structures of one vocabulary to
structures of another: the target universe is the set of k-tuples over the
source universe, and each target relation of arity ``b`` is defined by a
source formula with ``b*k`` free variables.  The paper uses interpretations
as its reduction notion (``S <=_fo T``) and the closure of ℒ(SRL) under
them (Proposition 3.3) is one half of Theorem 3.10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

from .eval import ModelChecker
from .formula import Formula

__all__ = ["Interpretation", "identity_interpretation"]


@dataclass
class Interpretation:
    """A k-ary first-order interpretation.

    ``relation_formulas`` maps each target relation name to a pair
    ``(variables, formula)`` where ``variables`` is a flat tuple of
    ``arity * k`` variable names: the first ``k`` name the components of the
    first target-tuple coordinate, and so on.
    """

    k: int
    target_vocabulary: Vocabulary
    relation_formulas: Mapping[str, tuple[tuple[str, ...], Formula]]

    def __post_init__(self) -> None:
        for name in self.target_vocabulary:
            if name not in self.relation_formulas:
                raise ValueError(f"no defining formula for target relation {name}")
            variables, _ = self.relation_formulas[name]
            expected = self.target_vocabulary.arity(name) * self.k
            if len(variables) != expected:
                raise ValueError(
                    f"relation {name}: expected {expected} free variables "
                    f"(arity x k), got {len(variables)}"
                )
            if len(set(variables)) != len(variables):
                raise ValueError(
                    f"relation {name}: the {expected} free variables must "
                    f"be distinct, got {tuple(variables)}"
                )

    def target_size(self, source: Structure) -> int:
        return source.size ** self.k

    def tuple_index(self, row: Sequence[int], source_size: int) -> int:
        """The index of a source k-tuple in the target universe (n-ary
        positional encoding, most-significant coordinate first)."""
        index = 0
        for value in row:
            index = index * source_size + value
        return index

    def apply(self, source: Structure) -> Structure:
        """The image structure ``m_phi(source)``: each target relation is
        the source relation its formula defines over its ``b*k`` variables
        (one set-at-a-time :meth:`ModelChecker.defined_relation` call),
        with each run of ``k`` columns encoded as one target element."""
        checker = ModelChecker(source)
        n = source.size
        relations: dict[str, frozenset[tuple[int, ...]]] = {}
        for name in self.target_vocabulary:
            arity = self.target_vocabulary.arity(name)
            variables, formula = self.relation_formulas[name]
            _, rows = checker.defined_relation(formula, tuple(variables))
            relations[name] = frozenset(
                tuple(self.tuple_index(flat[i * self.k: (i + 1) * self.k], n)
                      for i in range(arity))
                for flat in rows)
        return Structure(self.target_vocabulary, self.target_size(source), relations)


def identity_interpretation(vocabulary: Vocabulary) -> Interpretation:
    """The 1-ary interpretation that copies every relation unchanged."""
    from .formula import rel

    formulas = {}
    for name in vocabulary:
        arity = vocabulary.arity(name)
        variables = tuple(f"x{i}" for i in range(arity))
        formulas[name] = (variables, rel(name, *variables))
    return Interpretation(1, vocabulary, formulas)
