"""Runtime values for the SRL interpreter.

The paper's semantics rely on every type carrying a total order: ``choose``
returns the *minimal* element of a non-empty set and ``rest`` removes it,
so a set-reduce traversal always scans a set in ascending order of that
implementation order.  We therefore give every value a canonical *sort key*
(:func:`value_key`) and keep sets in a canonical sorted, duplicate-free
representation (:class:`SRLSet`).

Value kinds
-----------

================  =========================================================
Python value       SRL value
================  =========================================================
``bool``           boolean
:class:`Atom`      base-domain element (ordered by rank, then by name)
``int``            natural number (Section 5 extensions)
:class:`SRLTuple`  fixed-arity tuple
:class:`SRLSet`    finite set (canonically ordered, immutable)
:class:`SRLList`   finite list (LRL only; order is significant)
================  =========================================================

All values are immutable and hashable, so sets of sets, sets of tuples of
sets, and so on, work uniformly.

Canonical-key caching
---------------------

Because values are immutable, every container (:class:`SRLTuple`,
:class:`SRLSet`, :class:`SRLList`) memoizes its canonical key per
``atom_order`` the first time it is computed, its structural hash, and its
:func:`value_size`.  :class:`SRLSet` additionally keeps the keys of its
elements aligned with the element tuple, so ``insert`` binary-searches over
cached keys, ``union`` is a linear merge of two sorted runs, and
construction detects already-sorted input without re-sorting.  The cached
key of a nested value is therefore computed once per ``atom_order`` over
the whole lifetime of the value instead of once per comparison — this is
what keeps set-of-sets workloads (powerset, TM simulation) from going
super-quadratic.  See DESIGN.md ("Caching architecture").

These are the only implementations of the value operations.  The pure,
uncached oracles the property tests compare them against live in
:mod:`repro.core.reference`; the seed's original algorithms, which the P0
benchmark times against these, live in ``benchmarks/seed_values.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Iterator, Sequence, Union

from .errors import SRLRuntimeError

__all__ = [
    "Value",
    "Atom",
    "SRLTuple",
    "SRLSet",
    "SRLList",
    "value_key",
    "value_equal",
    "value_sort",
    "max_atom_rank",
    "make_set",
    "make_tuple",
    "make_list",
    "EMPTY_SET",
    "is_value",
    "value_size",
    "value_to_python",
    "python_to_value",
]


#: How many *permuted* (non-natural) atom orders a value keeps keys for.
#: The natural-order key is kept forever; permuted keys mostly serve one
#: order-independence trial each (random permutations essentially never
#: repeat across trials), so the cache is bounded to stop long probing
#: sessions from accumulating one dead key tuple per trial per value.
_MAX_PERMUTED_KEYS = 4


def _store_key(cache: dict, atom_order, key):
    """Insert a computed key, evicting stale permuted entries if full."""
    if atom_order is not None and sum(1 for k in cache if k is not None) >= _MAX_PERMUTED_KEYS:
        for stale in [k for k in cache if k is not None]:
            del cache[stale]
    cache[atom_order] = key
    return key


@total_ordering
@dataclass(frozen=True)
class Atom:
    """An element of the finite base domain.

    ``rank`` is the element's position in the implementation order (the
    order ``choose`` scans); ``name`` is an optional human-readable label.
    Two atoms are equal iff their ranks are equal.
    """

    rank: int
    name: str = ""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and self.rank == other.rank

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.rank < other.rank

    def __hash__(self) -> int:
        return hash(("atom", self.rank))

    def __str__(self) -> str:
        return self.name if self.name else f"d{self.rank}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        suffix = f", {self.name!r}" if self.name else ""
        return f"Atom({self.rank}{suffix})"


class SRLTuple(tuple):
    """A fixed-arity SRL tuple.  Components are accessed 1-based via
    :meth:`select`, matching the paper's ``sel_i`` / ``.i`` notation."""

    # tuple subclasses cannot carry non-empty __slots__, so the memoized
    # key/hash/size live in the instance __dict__, created lazily.

    def select(self, index: int) -> "Value":
        """Return component ``index`` (1-based), as in the paper's ``t.i``."""
        if not 1 <= index <= len(self):
            raise SRLRuntimeError(
                f"tuple selector .{index} out of range for width-{len(self)} tuple"
            )
        return self[index - 1]

    def _key(self, atom_order: tuple[int, ...] | None):
        cache = self.__dict__.get("_key_cache")
        if cache is None:
            cache = {}
            self.__dict__["_key_cache"] = cache
        key = cache.get(atom_order)
        if key is None:
            key = _store_key(
                cache, atom_order,
                (3, len(self), tuple(_value_key(v, atom_order) for v in self)),
            )
        return key

    def _size(self) -> int:
        size = self.__dict__.get("_size_cache")
        if size is None:
            size = sum(value_size(v) for v in self)
            self.__dict__["_size_cache"] = size
        return size

    def __str__(self) -> str:
        return "[" + ", ".join(format_value(v) for v in self) + "]"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SRLTuple({tuple(self)!r})"


class SRLSet:
    """A finite set in canonical order.

    The elements are stored as a sorted, duplicate-free tuple according to
    :func:`value_key`, alongside the tuple of their cached keys.  ``choose``
    returns the first element and ``rest`` the set of the remaining ones —
    the operational semantics of ``set-reduce`` in the paper.
    """

    __slots__ = ("_elements", "_keys", "_key_cache", "_hash", "_size_cache")

    def __init__(self, elements: Iterable["Value"] = ()):
        self._key_cache = None
        self._hash = None
        self._size_cache = None
        elems = list(elements)
        keys = [_value_key(e, None) for e in elems]
        ascending = True
        for i in range(len(keys) - 1):
            if not keys[i] < keys[i + 1]:
                ascending = False
                break
        if ascending:
            self._elements = tuple(elems)
            self._keys = tuple(keys)
            return
        order = sorted(range(len(keys)), key=keys.__getitem__)
        dedup_elems: list[Value] = []
        dedup_keys: list = []
        for i in order:
            key = keys[i]
            if dedup_keys and dedup_keys[-1] == key:
                continue
            dedup_keys.append(key)
            dedup_elems.append(elems[i])
        self._elements = tuple(dedup_elems)
        self._keys = tuple(dedup_keys)

    @classmethod
    def _from_sorted(cls, elements: tuple["Value", ...],
                     keys: tuple | None = None) -> "SRLSet":
        """Internal: wrap an already-canonical element tuple (with its
        aligned key tuple, when known) without re-sorting."""
        result = cls.__new__(cls)
        result._elements = elements
        result._keys = keys
        result._key_cache = None
        result._hash = None
        result._size_cache = None
        return result

    @property
    def elements(self) -> tuple["Value", ...]:
        """The elements in ascending implementation order."""
        return self._elements

    def _element_keys(self) -> tuple:
        """The cached natural-order keys, aligned with :attr:`elements`."""
        keys = self._keys
        if keys is None:
            keys = self._keys = tuple(_value_key(v, None) for v in self._elements)
        return keys

    def _key(self, atom_order: tuple[int, ...] | None):
        cache = self._key_cache
        if cache is None:
            cache = self._key_cache = {}
        key = cache.get(atom_order)
        if key is None:
            if atom_order is None:
                element_keys = self._element_keys()
            else:
                element_keys = tuple(
                    sorted(_value_key(v, atom_order) for v in self._elements)
                )
            key = _store_key(cache, atom_order,
                             (4, len(self._elements), tuple(element_keys)))
        return key

    def _size(self) -> int:
        size = self._size_cache
        if size is None:
            size = self._size_cache = 1 + sum(value_size(v) for v in self._elements)
        return size

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator["Value"]:
        return iter(self._elements)

    def __contains__(self, item: object) -> bool:
        try:
            key = _value_key(item, None)
        except SRLRuntimeError:
            # Not an SRL value (e.g. a plain Python tuple probing for an
            # SRLTuple element): fall back to an equality scan rather than
            # silently answering False.
            return item in self._elements
        keys = self._element_keys()
        index = bisect_left(keys, key)
        return index < len(keys) and keys[index] == key

    def __eq__(self, other: object) -> bool:
        # Equality follows the canonical key, not Python's ``==`` on the
        # element tuples: Python conflates bool with int (True == 1), which
        # would let a "canonical, duplicate-free" set hold two ==-equal
        # elements.  Keys are injective on values, so key equality is
        # structural equality with the kind tags respected.
        if self is other:
            return True
        if not isinstance(other, SRLSet):
            return False
        return self._key(None) == other._key(None)

    def __hash__(self) -> int:
        result = self._hash
        if result is None:
            # Hash the canonical key so eq-equal implies hash-equal under
            # the key-based equality above.
            result = self._hash = hash(("set", self._key(None)))
        return result

    def __str__(self) -> str:
        return "{" + ", ".join(format_value(v) for v in self._elements) + "}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SRLSet({list(self._elements)!r})"

    def is_empty(self) -> bool:
        return not self._elements

    def choose(self) -> "Value":
        """The minimal element in the implementation order."""
        if not self._elements:
            raise SRLRuntimeError("choose applied to the empty set")
        return self._elements[0]

    def rest(self) -> "SRLSet":
        """The set without its minimal element."""
        if not self._elements:
            raise SRLRuntimeError("rest applied to the empty set")
        keys = self._keys
        result = SRLSet._from_sorted(
            self._elements[1:], None if keys is None else keys[1:]
        )
        if self._size_cache is not None:
            result._size_cache = self._size_cache - value_size(self._elements[0])
        return result

    def insert(self, element: "Value") -> "SRLSet":
        """Return ``self`` with ``element`` added (no-op if already present)."""
        key = _value_key(element, None)
        keys = self._element_keys()
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return self
        result = SRLSet._from_sorted(
            self._elements[:index] + (element,) + self._elements[index:],
            keys[:index] + (key,) + keys[index:],
        )
        # Propagate the size cache incrementally: the evaluator asks for
        # value_size(accumulator) once per reduce iteration, and accumulators
        # grow one insert at a time — re-summing would be O(n) per iteration.
        if self._size_cache is not None:
            result._size_cache = self._size_cache + value_size(element)
        return result

    def union(self, other: "SRLSet") -> "SRLSet":
        if not self._elements:
            return other
        if not other._elements:
            return self
        left, left_keys = self._elements, self._element_keys()
        right, right_keys = other._elements, other._element_keys()
        merged_elems: list[Value] = []
        merged_keys: list = []
        i = j = 0
        len_left, len_right = len(left), len(right)
        while i < len_left and j < len_right:
            lk, rk = left_keys[i], right_keys[j]
            if lk < rk:
                merged_elems.append(left[i])
                merged_keys.append(lk)
                i += 1
            elif rk < lk:
                merged_elems.append(right[j])
                merged_keys.append(rk)
                j += 1
            else:
                merged_elems.append(left[i])
                merged_keys.append(lk)
                i += 1
                j += 1
        if i < len_left:
            merged_elems.extend(left[i:])
            merged_keys.extend(left_keys[i:])
        elif j < len_right:
            merged_elems.extend(right[j:])
            merged_keys.extend(right_keys[j:])
        return SRLSet._from_sorted(tuple(merged_elems), tuple(merged_keys))

    def ordered_under(self, permutation: Sequence[int]) -> list["Value"]:
        """The elements sorted under an alternative implementation order.

        ``permutation[rank]`` gives the new rank of the atom with that base
        rank; used by the order-independence tester (Section 7).
        """
        atom_order = tuple(permutation)
        return sorted(self._elements, key=lambda v: _value_key(v, atom_order))


class SRLList:
    """A finite list (LRL).  Unlike :class:`SRLSet`, order and multiplicity
    are significant, which is exactly why LRL escapes polynomial time."""

    __slots__ = ("_items", "_key_cache", "_hash", "_size_cache")

    def __init__(self, items: Iterable["Value"] = ()):
        self._items = tuple(items)
        self._key_cache = None
        self._hash = None
        self._size_cache = None

    @property
    def items(self) -> tuple["Value", ...]:
        return self._items

    def _key(self, atom_order: tuple[int, ...] | None):
        cache = self._key_cache
        if cache is None:
            cache = self._key_cache = {}
        key = cache.get(atom_order)
        if key is None:
            key = _store_key(
                cache, atom_order,
                (5, len(self._items),
                 tuple(_value_key(v, atom_order) for v in self._items)),
            )
        return key

    def _size(self) -> int:
        size = self._size_cache
        if size is None:
            size = self._size_cache = 1 + sum(value_size(v) for v in self._items)
        return size

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator["Value"]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        # Key-based for the same reason as SRLSet.__eq__: Python's ``==``
        # conflates bool with int inside the item tuples.
        if self is other:
            return True
        if not isinstance(other, SRLList):
            return False
        return self._key(None) == other._key(None)

    def __hash__(self) -> int:
        result = self._hash
        if result is None:
            result = self._hash = hash(("list", self._key(None)))
        return result

    def __str__(self) -> str:
        return "<" + ", ".join(format_value(v) for v in self._items) + ">"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SRLList({list(self._items)!r})"

    def is_empty(self) -> bool:
        return not self._items

    def head(self) -> "Value":
        if not self._items:
            raise SRLRuntimeError("head applied to the empty list")
        return self._items[0]

    def tail(self) -> "SRLList":
        if not self._items:
            raise SRLRuntimeError("tail applied to the empty list")
        return SRLList(self._items[1:])

    def cons(self, item: "Value") -> "SRLList":
        result = SRLList((item,) + self._items)
        if self._size_cache is not None:
            result._size_cache = self._size_cache + value_size(item)
        return result


Value = Union[bool, int, Atom, SRLTuple, SRLSet, SRLList]

# Tags give a total order *across* kinds so heterogeneous comparisons are
# stable (bool < nat < atom < tuple < set < list).
_KIND_TAGS = {
    bool: 0,
    int: 1,
    Atom: 2,
    SRLTuple: 3,
    SRLSet: 4,
    SRLList: 5,
}


def value_key(value: "Value", atom_order: tuple[int, ...] | None = None):
    """A sort key implementing the global implementation order on values.

    ``atom_order`` optionally remaps atom ranks (``atom_order[rank]`` is the
    atom's position in the alternative order); this is how the Section 7
    order-independence tester varies the order ``choose`` uses without
    changing the values themselves.

    Container keys are memoized on the value per ``atom_order``; the
    uncached recursion is preserved as
    :func:`repro.core.reference.value_key_reference`.
    """
    if atom_order is not None and not isinstance(atom_order, tuple):
        atom_order = tuple(atom_order)
    return _value_key(value, atom_order)


def _value_key(value: "Value", atom_order: tuple[int, ...] | None):
    """Internal worker: ``atom_order`` is already ``None`` or a tuple."""
    kind = type(value)
    if kind is SRLTuple or kind is SRLSet or kind is SRLList:
        return value._key(atom_order)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, Atom):
        rank = value.rank if atom_order is None else atom_order[value.rank]
        return (2, rank)
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def max_atom_rank(value: "Value") -> int:
    """The largest atom rank (or natural) occurring anywhere in ``value``,
    ``-1`` when none occurs.

    This is the semantics of ``new``'s freshness scan (Section 5's
    unbounded successor): the fresh atom's rank is one more than this.
    Shared by the tree-walking evaluator and the compiled backend so the
    two can never drift.
    """
    max_rank = -1
    stack: list[Value] = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, Atom):
            if item.rank > max_rank:
                max_rank = item.rank
        elif isinstance(item, SRLTuple):
            stack.extend(item)
        elif isinstance(item, SRLSet):
            stack.extend(item.elements)
        elif isinstance(item, SRLList):
            stack.extend(item.items)
        elif isinstance(item, bool):
            continue
        elif isinstance(item, int):
            if item > max_rank:
                max_rank = item
    return max_rank


def value_equal(left: "Value", right: "Value") -> bool:
    """SRL ``=``: kind-aware structural equality.

    Follows the canonical key, exactly like ``<=`` and SRLSet's dedup: the
    kinds are distinct, so ``true = 1`` is false (Python's ``==`` conflates
    bool with int).  Same-type scalars and sets short-circuit through their
    key-consistent native equality; tuples/lists go through the cached keys
    so nested values compare kind-aware too.  Shared by the tree-walking
    evaluator, the IR constant folder, and the compiled backend.
    """
    left_type, right_type = type(left), type(right)
    if left_type is right_type and left_type not in (SRLTuple, SRLList):
        return left == right
    return value_key(left) == value_key(right)


def value_sort(values: Iterable["Value"]) -> list["Value"]:
    """Sort values by the global implementation order."""
    return sorted(values, key=value_key)


#: The canonical empty set (rule 7's ``emptyset``).
EMPTY_SET = SRLSet()


def is_value(obj: object) -> bool:
    """True when ``obj`` is a well-formed SRL runtime value."""
    if isinstance(obj, (bool, int, Atom)):
        return True
    if isinstance(obj, SRLTuple):
        return all(is_value(v) for v in obj)
    if isinstance(obj, SRLSet):
        return all(is_value(v) for v in obj.elements)
    if isinstance(obj, SRLList):
        return all(is_value(v) for v in obj.items)
    return False


def value_size(value: "Value") -> int:
    """The number of atomic constituents of a value.

    This is the measure the Section 4 / Section 6 benchmarks use for "how
    big did the accumulator get": a bounded-width tuple of atoms has O(1)
    size whereas a set of k-tuples over an n-element domain can reach n^k.
    The result is memoized on container values (the evaluator calls this
    once per reduce iteration on the whole accumulator).
    """
    if isinstance(value, (bool, Atom)):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length())
    if type(value) in (SRLTuple, SRLSet, SRLList):
        return value._size()
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def make_set(*elements: "Value") -> SRLSet:
    """Build an :class:`SRLSet` from the given elements."""
    return SRLSet(elements)


def make_tuple(*components: "Value") -> SRLTuple:
    """Build an :class:`SRLTuple` from the given components."""
    return SRLTuple(components)


def make_list(*items: "Value") -> SRLList:
    """Build an :class:`SRLList` from the given items."""
    return SRLList(items)


def format_value(value: "Value") -> str:
    """Human-readable rendering of a value (used by ``__str__`` methods)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return str(value)


def value_to_python(value: "Value"):
    """Convert an SRL value into plain Python data (frozensets, tuples, ...).

    Useful for asserting against baseline algorithms in tests and benches.
    """
    if isinstance(value, (bool, int)):
        return value
    if isinstance(value, Atom):
        return value.rank
    if isinstance(value, SRLTuple):
        return tuple(value_to_python(v) for v in value)
    if isinstance(value, SRLSet):
        return frozenset(value_to_python(v) for v in value.elements)
    if isinstance(value, SRLList):
        return [value_to_python(v) for v in value.items]
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def python_to_value(obj) -> "Value":
    """Convert plain Python data into an SRL value.

    Integers become atoms (ranks) — *not* naturals — because inputs in the
    paper are database elements; use Python ``bool`` for booleans, tuples
    for SRL tuples, and (frozen)sets / lists for SRL sets / lists.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return Atom(obj)
    if isinstance(obj, Atom):
        return obj
    if isinstance(obj, (SRLTuple, SRLSet, SRLList)):
        return obj
    if isinstance(obj, tuple):
        return SRLTuple(python_to_value(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return SRLSet(python_to_value(v) for v in obj)
    if isinstance(obj, list):
        return SRLList(python_to_value(v) for v in obj)
    raise SRLRuntimeError(f"cannot convert {obj!r} to an SRL value")
