"""Corollary 6.4: the set-height hierarchy SRL_h = DTIME(2_h # n).

``2_h # n`` is a stack of ``h`` twos topped by ``n``::

    2_0 # n = n^{O(1)},   2_{h+1} # n = 2 ^ (2_h # n)

so SRL with set-height 1 is P, set-height 2 reaches exponential time
(Example 3.12's powerset), set-height 3 doubly exponential, and so on.
This module provides the tower function, the class descriptions, and the
expected output-size law the Corollary 6.4 benchmark checks (an iterated
powerset at height h has size 2_{h-1} # n for a base set of size n).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.eval import define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

__all__ = [
    "tower",
    "HierarchyLevel",
    "hierarchy_level",
    "hierarchy_containments",
    "level_contained_in",
    "iterated_powerset_size",
]


def tower(height: int, n: int) -> int:
    """``2_height # n``: a stack of ``height`` twos with ``n`` on top.

    ``tower(0, n) = n`` (up to the polynomial the paper absorbs into
    ``n^{O(1)}``); ``tower(h+1, n) = 2 ** tower(h, n)``.
    """
    if height < 0:
        raise ValueError("height must be non-negative")
    value = n
    for _ in range(height):
        value = 2 ** value
    return value


@dataclass(frozen=True)
class HierarchyLevel:
    """One level of the Corollary 6.4 hierarchy."""

    set_height: int
    time_class: str
    example: str


def hierarchy_level(set_height: int) -> HierarchyLevel:
    """The class captured by SRL with the given maximum set-height."""
    if set_height < 1:
        raise ValueError("the hierarchy starts at set-height 1")
    if set_height == 1:
        return HierarchyLevel(1, "DTIME(n^{O(1)}) = P", "AGAP (Lemma 3.6)")
    return HierarchyLevel(
        set_height,
        f"DTIME(2_{set_height - 1}#n)" + (" = EXPTIME" if set_height == 2 else ""),
        "iterated powerset" if set_height > 2 else "powerset (Example 3.12)",
    )


def hierarchy_containments(max_height: int) -> frozenset[tuple[int, int]]:
    """The containment relation ``{(h, h') | SRL_h ⊆ SRL_{h'}}`` up to
    ``max_height``.

    Corollary 6.4 gives the proper chain ``SRL_1 ⊊ SRL_2 ⊊ ...`` (each
    level adds one two to the tower), so the containments are the
    reflexive-transitive closure of the successor edges ``h -> h + 1`` —
    computed, like the Figure 1 lattice, through the logic layer's default
    backend: the chain becomes a path-graph structure (level ``h`` is
    universe element ``h - 1``) and the Fact 4.1 TC formula runs
    set-at-a-time over it.
    """
    if max_height < 1:
        raise ValueError("the hierarchy starts at set-height 1")
    structure = Structure(
        Vocabulary.of(E=2), max_height,
        {"E": frozenset((h - 1, h) for h in range(1, max_height))},
    )
    query = CANONICAL_QUERIES["tc"]
    pairs = define_relation(query.formula(), structure, query.variables)
    return frozenset((lower + 1, upper + 1) for lower, upper in pairs)


def level_contained_in(lower: int, upper: int) -> bool:
    """Whether ``SRL_lower ⊆ SRL_upper`` in the Corollary 6.4 hierarchy.

    Because the hierarchy is a total chain, membership in the closure
    reduces to ``lower <= upper`` — no need to materialize
    :func:`hierarchy_containments` (which exists for callers that want the
    relation itself).
    """
    if min(lower, upper) < 1:
        raise ValueError("the hierarchy starts at set-height 1")
    return lower <= upper


def iterated_powerset_size(iterations: int, base_size: int) -> int:
    """The cardinality of ``powerset^iterations({0..base_size-1})`` — the
    output-size law the set-height benchmark verifies (``iterations`` nested
    powersets need set-height ``iterations + 1``)."""
    size = base_size
    for _ in range(iterations):
        size = 2 ** size
    return size
