"""Pure reference implementations of the value operations, kept as test
oracles.

The value layer (cached canonical keys, linear-merge union, sorted-input
detection, memoized sizes — see DESIGN.md, "Caching architecture") must
agree *exactly* with straightforward recomputations from the definitions.
Every key and size here is recomputed from scratch on every call, with no
memoization anywhere:

* :func:`value_key_reference` / :func:`value_sort_reference` — the
  recursive canonical key and the sort it induces, also under a permuted
  ``atom_order`` (Section 7);
* :func:`set_elements_reference` — the canonical element tuple of a set
  built from arbitrary items: one item per distinct key, ascending;
* :func:`choose_reference` / :func:`rest_reference` — brute-force scans
  for the key minimum;
* :func:`value_size_reference` — the recursive atomic-constituent count.

Property tests in ``tests/core/test_perf_caches.py`` compare the value
layer against these on randomly generated nested values.  Nothing in the
production code path imports this module (``tests/core/
test_reference_isolation.py`` checks it).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SRLRuntimeError
from .values import Atom, SRLList, SRLSet, SRLTuple, Value

__all__ = [
    "value_key_reference",
    "value_sort_reference",
    "set_elements_reference",
    "choose_reference",
    "rest_reference",
    "value_size_reference",
]


def value_key_reference(value: "Value", atom_order: Sequence[int] | None = None):
    """The seed's :func:`~repro.core.values.value_key`: a full recursive
    recomputation with no caching.  Used as the differential oracle for the
    cached keys."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, Atom):
        rank = value.rank if atom_order is None else atom_order[value.rank]
        return (2, rank)
    if isinstance(value, SRLTuple):
        return (3, len(value), tuple(value_key_reference(v, atom_order) for v in value))
    if isinstance(value, SRLSet):
        ordered = (
            value.elements
            if atom_order is None
            else tuple(sorted(value.elements,
                              key=lambda v: value_key_reference(v, atom_order)))
        )
        return (4, len(ordered), tuple(value_key_reference(v, atom_order) for v in ordered))
    if isinstance(value, SRLList):
        return (5, len(value.items),
                tuple(value_key_reference(v, atom_order) for v in value.items))
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def value_sort_reference(values: Iterable["Value"],
                         atom_order: Sequence[int] | None = None) -> list["Value"]:
    """Sort by the recomputed reference key."""
    return sorted(values, key=lambda v: value_key_reference(v, atom_order))


def choose_reference(value: SRLSet, atom_order: Sequence[int] | None = None) -> "Value":
    """Brute-force ``choose``: scan every element for the key minimum."""
    if value.is_empty():
        raise SRLRuntimeError("choose applied to the empty set")
    return min(value.elements, key=lambda v: value_key_reference(v, atom_order))


def set_elements_reference(items: Iterable["Value"]) -> tuple:
    """The canonical elements of a set of ``items``: the first item of
    each distinct reference key, in ascending key order.  Keys separate
    kinds, so ``true`` and ``1`` are two elements."""
    by_key: dict = {}
    for item in items:
        by_key.setdefault(value_key_reference(item), item)
    return tuple(by_key[key] for key in sorted(by_key))


def choose_reference(value: SRLSet, atom_order: Sequence[int] | None = None) -> "Value":
    """Brute-force ``choose``: scan every element for the key minimum."""
    if value.is_empty():
        raise SRLRuntimeError("choose applied to the empty set")
    return min(value.elements, key=lambda v: value_key_reference(v, atom_order))


def rest_reference(value: SRLSet, atom_order: Sequence[int] | None = None) -> SRLSet:
    """Brute-force ``rest``: rebuild the set without the key minimum."""
    elements = value.elements
    if not elements:
        raise SRLRuntimeError("rest applied to the empty set")
    index = min(range(len(elements)),
                key=lambda i: value_key_reference(elements[i], atom_order))
    return SRLSet(elements[:index] + elements[index + 1:])


def value_size_reference(value: "Value") -> int:
    """The seed's :func:`~repro.core.values.value_size`: a full recursive
    count of atomic constituents with no caching."""
    if isinstance(value, (bool, Atom)):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length())
    if isinstance(value, SRLTuple):
        return sum(value_size_reference(v) for v in value)
    if isinstance(value, SRLSet):
        return 1 + sum(value_size_reference(v) for v in value.elements)
    if isinstance(value, SRLList):
        return 1 + sum(value_size_reference(v) for v in value.items)
    raise SRLRuntimeError(f"not an SRL value: {value!r}")
