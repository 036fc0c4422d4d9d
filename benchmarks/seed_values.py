"""The seed's value algorithms, kept only so the P0 benchmark can time them.

:mod:`repro.core.values` has one implementation of every set and list
operation: cached canonical keys, sorted-input detection, binary-searched
``insert`` and membership, linear-merge ``union``, memoized sizes.  The
P0 datapoint ``powerset_example_3_12`` in ``bench_perf_overhaul.py``
measures that layer against the original, uncached one, so the original
method bodies live here.  :func:`seed_values` installs them for the
duration of a ``with`` block and restores the production ones in
``finally``.  Inside the block the runtime pays the seed's costs:

* canonical keys and sizes recomputed recursively on every call, with no
  memoization (``_key`` / ``_size`` on every container, and the module's
  ``_value_key`` / ``value_size``);
* sort-on-construct, deduplicating through Python equality;
* linear membership scans, and equality / hashing over element tuples;
* ``insert`` binary-searching over recomputed keys, ``union`` going
  through the constructor;
* ``rest`` rebuilding the set through the constructor, as the seed
  evaluator did.

The patch is process-global: nothing else may evaluate SRL values while
the block is open.  The seed's Python equality conflates ``true`` with
``1``, so it is only correct on workloads without mixed bool/nat
elements; the powerset workload holds atoms and sets of atoms.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core import values
from repro.core.errors import SRLRuntimeError
from repro.core.values import Atom, SRLList, SRLSet, SRLTuple


def _value_key(value, atom_order):
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, Atom):
        rank = value.rank if atom_order is None else atom_order[value.rank]
        return (2, rank)
    if isinstance(value, SRLTuple):
        return (3, len(value), tuple(_value_key(v, atom_order) for v in value))
    if isinstance(value, SRLSet):
        ordered = (
            value.elements
            if atom_order is None
            else tuple(sorted(value.elements, key=lambda v: _value_key(v, atom_order)))
        )
        return (4, len(ordered), tuple(_value_key(v, atom_order) for v in ordered))
    if isinstance(value, SRLList):
        return (5, len(value.items), tuple(_value_key(v, atom_order) for v in value.items))
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def _value_size(value):
    if isinstance(value, (bool, Atom)):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length())
    if isinstance(value, SRLTuple):
        return sum(_value_size(v) for v in value)
    if isinstance(value, SRLSet):
        return 1 + sum(_value_size(v) for v in value.elements)
    if isinstance(value, SRLList):
        return 1 + sum(_value_size(v) for v in value.items)
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def _key(self, atom_order):
    return _value_key(self, atom_order)


def _size(self):
    return _value_size(self)


def _set_init(self, elements=()):
    self._key_cache = None
    self._hash = None
    self._size_cache = None
    canonical = []
    seen = set()
    for element in elements:
        if element not in seen:
            seen.add(element)
            canonical.append(element)
    canonical.sort(key=lambda v: _value_key(v, None))
    self._elements = tuple(canonical)
    self._keys = None


def _set_contains(self, item):
    return item in self._elements


def _set_eq(self, other):
    if self is other:
        return True
    if not isinstance(other, SRLSet):
        return False
    return self._elements == other._elements


def _set_hash(self):
    return hash(("set", self._elements))


def _set_rest(self):
    if not self._elements:
        raise SRLRuntimeError("rest applied to the empty set")
    return SRLSet(self._elements[1:])


def _set_insert(self, element):
    if element in self._elements:
        return self
    key = _value_key(element, None)
    elements = self._elements
    lo, hi = 0, len(elements)
    while lo < hi:
        mid = (lo + hi) // 2
        if _value_key(elements[mid], None) < key:
            lo = mid + 1
        else:
            hi = mid
    return SRLSet._from_sorted(elements[:lo] + (element,) + elements[lo:])


def _set_union(self, other):
    return SRLSet(self._elements + other._elements)


def _list_eq(self, other):
    if self is other:
        return True
    if not isinstance(other, SRLList):
        return False
    return self._items == other._items


def _list_hash(self):
    return hash(("list", self._items))


def _list_cons(self, item):
    return SRLList((item,) + self._items)


#: Every attribute the seed block replaces: ``(owner, name, seed body)``.
#: The container ``_key`` / ``_size`` methods are replaced as well as the
#: module functions because other modules bind ``value_size`` and
#: ``_value_key`` by name (the evaluator sizes the accumulator once per
#: reduce iteration); they reach the seed recursion through the methods.
SEED_PATCHES = (
    (values, "_value_key", _value_key),
    (values, "value_size", _value_size),
    (SRLTuple, "_key", _key),
    (SRLTuple, "_size", _size),
    (SRLSet, "_key", _key),
    (SRLSet, "_size", _size),
    (SRLSet, "__init__", _set_init),
    (SRLSet, "__contains__", _set_contains),
    (SRLSet, "__eq__", _set_eq),
    (SRLSet, "__hash__", _set_hash),
    (SRLSet, "rest", _set_rest),
    (SRLSet, "insert", _set_insert),
    (SRLSet, "union", _set_union),
    (SRLList, "_key", _key),
    (SRLList, "_size", _size),
    (SRLList, "__eq__", _list_eq),
    (SRLList, "__hash__", _list_hash),
    (SRLList, "cons", _list_cons),
)


def production_bodies() -> list:
    """The objects currently installed at every :data:`SEED_PATCHES` point."""
    return [vars(owner)[name] for owner, name, _ in SEED_PATCHES]


@contextmanager
def seed_values():
    """Run the enclosed block on the seed's uncached value algorithms."""
    originals = production_bodies()
    try:
        for owner, name, seed in SEED_PATCHES:
            setattr(owner, name, seed)
        yield
    finally:
        for (owner, name, _), original in zip(SEED_PATCHES, originals):
            setattr(owner, name, original)
