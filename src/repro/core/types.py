"""The SRL type system.

The paper assumes a small universe of types:

* ``boolean``
* a base *atom* type with a finite, totally ordered domain (the database
  domain ``D = {0, ..., n-1}``),
* the natural numbers (only in the extensions of Section 5),
* fixed-arity tuples (records without attribute names),
* finite sets ``set(T)``,
* finite lists ``list(T)`` (only in LRL, the list-reduce variant).

Types are immutable value objects.  The module also provides the syntactic
measures the paper's results hinge on:

* :func:`set_height` — Definition 2.2,
* :func:`tuple_width` and :func:`tuple_nesting` — Proposition 3.8,

and a small unification engine (:func:`unify`) used by the type checker to
handle the polymorphic ``emptyset`` (rule 7: ``set(alpha)`` where ``alpha``
matches any type).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import SRLTypeError

__all__ = [
    "Type",
    "BoolType",
    "AtomType",
    "NatType",
    "TupleType",
    "SetType",
    "ListType",
    "TypeVar",
    "BOOL",
    "ATOM",
    "NAT",
    "set_of",
    "list_of",
    "tuple_of",
    "set_height",
    "list_height",
    "tuple_width",
    "tuple_nesting",
    "max_tuple_width",
    "is_ground",
    "free_type_vars",
    "Substitution",
    "unify",
    "apply_substitution",
    "fresh_type_var",
]


class Type:
    """Base class for SRL types.  Instances are immutable and hashable."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return str(self)


@dataclass(frozen=True)
class BoolType(Type):
    """The type of ``true`` and ``false``."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class AtomType(Type):
    """The finite, totally ordered base domain (database elements).

    The paper mostly works with a single base type with a finite domain; the
    ordering on atoms is the implementation order used by ``choose``.
    """

    def __str__(self) -> str:
        return "atom"


@dataclass(frozen=True)
class NatType(Type):
    """Natural numbers — only available in the Section 5 extensions
    (SRL + new / unbounded successor)."""

    def __str__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class TupleType(Type):
    """A fixed-arity tuple type ``[T1, ..., Tn]`` (rule 4)."""

    fields: tuple[Type, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.fields)
        return f"[{inner}]"

    @property
    def width(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class SetType(Type):
    """``set(T)`` — a finite set whose elements have type ``T`` (rules 7-9)."""

    element: Type

    def __str__(self) -> str:
        return f"set({self.element})"


@dataclass(frozen=True)
class ListType(Type):
    """``list(T)`` — only available in LRL, the list-reduce variant."""

    element: Type

    def __str__(self) -> str:
        return f"list({self.element})"


_COUNTER = {"n": 0}


def fresh_type_var(hint: str = "a") -> "TypeVar":
    """Return a globally fresh type variable (used for ``emptyset``)."""
    _COUNTER["n"] += 1
    return TypeVar(f"{hint}{_COUNTER['n']}")


@dataclass(frozen=True)
class TypeVar(Type):
    """A unification variable standing for an as-yet-unknown type."""

    name: str

    def __str__(self) -> str:
        return f"'{self.name}"


BOOL = BoolType()
ATOM = AtomType()
NAT = NatType()


def set_of(element: Type) -> SetType:
    """Convenience constructor for ``set(element)``."""
    return SetType(element)


def list_of(element: Type) -> ListType:
    """Convenience constructor for ``list(element)``."""
    return ListType(element)


def tuple_of(*fields: Type) -> TupleType:
    """Convenience constructor for ``[f1, ..., fn]``."""
    return TupleType(tuple(fields))


def _walk(t: Type) -> Iterator[Type]:
    """Yield ``t`` and every type nested inside it."""
    yield t
    if isinstance(t, TupleType):
        for f in t.fields:
            yield from _walk(f)
    elif isinstance(t, (SetType, ListType)):
        yield from _walk(t.element)


def set_height(t: Type) -> int:
    """Definition 2.2: ``set-height(base) = 0``,
    ``set-height(set of a) = 1 + set-height(a)``.

    For tuples the height is the maximum over the components, so a set of
    tuples whose components are themselves sets has height 2.
    """
    if isinstance(t, SetType):
        return 1 + set_height(t.element)
    if isinstance(t, ListType):
        return set_height(t.element)
    if isinstance(t, TupleType):
        return max((set_height(f) for f in t.fields), default=0)
    return 0


def list_height(t: Type) -> int:
    """The list analogue of :func:`set_height` (used for LRL)."""
    if isinstance(t, ListType):
        return 1 + list_height(t.element)
    if isinstance(t, SetType):
        return list_height(t.element)
    if isinstance(t, TupleType):
        return max((list_height(f) for f in t.fields), default=0)
    return 0


def tuple_width(t: Type) -> int:
    """The arity of ``t`` when it is a tuple type, otherwise 1.

    Proposition 3.8 bounds the size of any constructible set by ``O(n^w)``
    where ``w`` is the tuple width of the element type.
    """
    if isinstance(t, TupleType):
        return t.width
    return 1


def tuple_nesting(t: Type) -> int:
    """The depth of tuple nesting in ``t`` (Proposition 3.8's ``l``)."""
    if isinstance(t, TupleType):
        return 1 + max((tuple_nesting(f) for f in t.fields), default=0)
    if isinstance(t, (SetType, ListType)):
        return tuple_nesting(t.element)
    return 0


def max_tuple_width(t: Type) -> int:
    """The maximum tuple arity occurring anywhere inside ``t``.

    This is the ``a`` ("width") of Section 6, used in the DTIME(n^{ad})
    bound of Proposition 6.1.
    """
    widths = [sub.width for sub in _walk(t) if isinstance(sub, TupleType)]
    return max(widths, default=1)


def is_ground(t: Type) -> bool:
    """True when ``t`` contains no unification variables."""
    return not any(isinstance(sub, TypeVar) for sub in _walk(t))


def free_type_vars(t: Type) -> set[str]:
    """The names of the unification variables occurring in ``t``."""
    return {sub.name for sub in _walk(t) if isinstance(sub, TypeVar)}


Substitution = dict[str, Type]


def apply_substitution(t: Type, subst: Substitution) -> Type:
    """Apply ``subst`` (a map from type-variable names to types) to ``t``.

    Returns ``t`` itself when nothing in it is bound.
    """
    if not subst:
        return t
    if isinstance(t, TypeVar):
        replacement = subst.get(t.name)
        if replacement is None:
            return t
        # Chase chains created by union-find style composition.
        return apply_substitution(replacement, subst)
    if isinstance(t, TupleType):
        fields = tuple([apply_substitution(f, subst) for f in t.fields])
        return t if fields == t.fields else TupleType(fields)
    if isinstance(t, (SetType, ListType)):
        element = apply_substitution(t.element, subst)
        return t if element is t.element else type(t)(element)
    return t


def _occurs(name: str, t: Type, subst: Substitution) -> bool:
    t = apply_substitution(t, subst)
    if isinstance(t, TypeVar):
        return t.name == name
    if isinstance(t, TupleType):
        return any(_occurs(name, f, subst) for f in t.fields)
    if isinstance(t, (SetType, ListType)):
        return _occurs(name, t.element, subst)
    return False


def unify(t1: Type, t2: Type, subst: Substitution | None = None) -> Substitution:
    """Unify two types, returning ``subst`` extended (``subst`` itself is
    left as it was).

    Raises :class:`SRLTypeError` when the types cannot be made equal.  This
    is only needed because ``emptyset`` is polymorphic; everything else in
    the language is monomorphic.
    """
    subst = dict(subst) if subst is not None else {}
    _unify_into(t1, t2, subst)
    return subst


def _unify_into(t1: Type, t2: Type, subst: Substitution) -> None:
    """:func:`unify`, extending ``subst`` in place.

    On a :class:`SRLTypeError` ``subst`` may hold part of the extension, so
    only a caller that abandons ``subst`` on failure (the type checker) may
    use this instead of :func:`unify`.
    """
    t1 = apply_substitution(t1, subst)
    t2 = apply_substitution(t2, subst)

    if t1 is t2 or t1 == t2:
        return
    if isinstance(t1, TypeVar):
        if _occurs(t1.name, t2, subst):
            raise SRLTypeError(f"occurs check failed: {t1} in {t2}")
        subst[t1.name] = t2
    elif isinstance(t2, TypeVar):
        _unify_into(t2, t1, subst)
    elif isinstance(t1, SetType) and isinstance(t2, SetType):
        _unify_into(t1.element, t2.element, subst)
    elif isinstance(t1, ListType) and isinstance(t2, ListType):
        _unify_into(t1.element, t2.element, subst)
    elif isinstance(t1, TupleType) and isinstance(t2, TupleType):
        if t1.width != t2.width:
            raise SRLTypeError(
                f"cannot unify tuple types of different widths: {t1} vs {t2}"
            )
        for f1, f2 in zip(t1.fields, t2.fields):
            _unify_into(f1, f2, subst)
    else:
        raise SRLTypeError(f"cannot unify {t1} with {t2}")
