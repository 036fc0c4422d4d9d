"""The abstract syntax of the set-reduce language family.

The node classes below follow the ten formation rules of Section 2 of the
paper, plus the extensions the paper studies in later sections:

==========================  ==============================================
Paper rule / section         AST node
==========================  ==============================================
rule 1  (true / false)       :class:`BoolConst`
rule 2  (if-then-else)       :class:`If`
rule 3  (constants)          :class:`AtomConst`, :class:`NatConst`
rule 4  (tuple construction) :class:`TupleExpr`
rule 5  (sel_i)              :class:`Select`
rule 6  (equality)           :class:`Equal`
rule 7  (emptyset)           :class:`EmptySet`
rule 8  (insert)             :class:`Insert`
rule 9  (set-reduce)         :class:`SetReduce` with :class:`Lambda` bodies
rule 10 (parentheses)        implicit
inductive language           :class:`Var` (free variables / database names)
composition                  :class:`Call` of a named :class:`FunctionDef`
ambient order (<=)           :class:`LessEq`
Section 5 (invented values)  :class:`New`
Section 5 / LRL (lists)      :class:`EmptyList`, :class:`ConsList`,
                             :class:`ListReduce`
semantics primitives         :class:`Choose`, :class:`Rest` (exposed for
                             the Section 5/6 constructions; SRL programs
                             normally reach them only through set-reduce)
==========================  ==============================================

A whole program is a :class:`Program`: a sequence of named function
definitions (the class of set-reduce functions is "closed under
composition", Definition 2.1) plus a designated main expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import SRLNameError
from .types import Type
from .values import Atom

__all__ = [
    "Expr",
    "BoolConst",
    "AtomConst",
    "NatConst",
    "Var",
    "If",
    "TupleExpr",
    "Select",
    "Equal",
    "LessEq",
    "EmptySet",
    "Insert",
    "SetReduce",
    "Lambda",
    "Call",
    "New",
    "Choose",
    "Rest",
    "EmptyList",
    "ConsList",
    "ListReduce",
    "FunctionDef",
    "Program",
    "children",
    "walk",
    "free_variables",
    "called_functions",
    "count_nodes",
]


class Expr:
    """Base class of all SRL expressions."""

    def __repr__(self) -> str:  # pragma: no cover - delegated to pretty printer
        from .pretty import pretty

        return pretty(self)


@dataclass(frozen=True, repr=False)
class BoolConst(Expr):
    """``true`` or ``false`` (rule 1)."""

    value: bool


@dataclass(frozen=True, repr=False)
class AtomConst(Expr):
    """A constant of the base (atom) type (rule 3)."""

    value: Atom


@dataclass(frozen=True, repr=False)
class NatConst(Expr):
    """A natural-number literal (Section 5 extension)."""

    value: int


@dataclass(frozen=True, repr=False)
class Var(Expr):
    """A variable: either bound by an enclosing :class:`Lambda` or free, in
    which case it names a database relation / set supplied as input."""

    name: str


@dataclass(frozen=True, repr=False)
class If(Expr):
    """``if cond then then_branch else else_branch`` (rule 2)."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass(frozen=True, repr=False)
class TupleExpr(Expr):
    """``[e1, ..., en]`` (rule 4)."""

    items: tuple[Expr, ...]


@dataclass(frozen=True, repr=False)
class Select(Expr):
    """``sel_i(e)`` / the paper's ``e.i`` — 1-based component selection
    (rule 5)."""

    index: int
    target: Expr


@dataclass(frozen=True, repr=False)
class Equal(Expr):
    """``e1 = e2`` (rule 6)."""

    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class LessEq(Expr):
    """``e1 <= e2`` — the ambient implementation order on the base domain.

    The paper notes the ordering relation is "made available to us" because
    any computation must use an ordering; SRFO+TC / SRFO+DTC list ``<=``
    among their primitives explicitly.
    """

    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class EmptySet(Expr):
    """``emptyset`` of type ``set(alpha)`` (rule 7)."""


@dataclass(frozen=True, repr=False)
class Insert(Expr):
    """``insert(element, target)`` (rule 8)."""

    element: Expr
    target: Expr


@dataclass(frozen=True, repr=False)
class Lambda(Expr):
    """``lambda(x, y) body`` — only ``x`` and ``y`` may occur free in
    ``body`` (rule 9); all other context must be threaded through the
    ``extra`` parameter of set-reduce."""

    params: tuple[str, str]
    body: Expr


@dataclass(frozen=True, repr=False)
class SetReduce(Expr):
    """``set-reduce(source, app, acc, base, extra)`` (rule 9).

    Semantics (paper, Section 2)::

        set-reduce(s, app, acc, base, extra) =
            if s = emptyset then base
            else acc(app(choose(s), extra),
                     set-reduce(rest(s), app, acc, base, extra))
    """

    source: Expr
    app: Lambda
    acc: Lambda
    base: Expr
    extra: Expr


@dataclass(frozen=True, repr=False)
class Call(Expr):
    """Invocation of a named :class:`FunctionDef` (closure under
    composition, Definition 2.1)."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True, repr=False)
class New(Expr):
    """``new(S)`` — return an element not in ``S`` (Section 5).

    Equivalent to an unbounded successor; adding it to SRL lifts the
    expressive power from P to the primitive recursive functions
    (Theorem 5.2)."""

    source: Expr


@dataclass(frozen=True, repr=False)
class Choose(Expr):
    """``choose(S)`` — the minimal element of ``S`` in the implementation
    order.  Part of the semantics of set-reduce; exposed as a primitive for
    the Section 5/6 constructions."""

    source: Expr


@dataclass(frozen=True, repr=False)
class Rest(Expr):
    """``rest(S)`` — ``S`` minus its minimal element."""

    source: Expr


@dataclass(frozen=True, repr=False)
class EmptyList(Expr):
    """The empty list (LRL)."""


@dataclass(frozen=True, repr=False)
class ConsList(Expr):
    """``cons(item, target)`` — list prepend (LRL / SRL + cons,
    Corollary 5.5)."""

    item: Expr
    target: Expr


@dataclass(frozen=True, repr=False)
class ListReduce(Expr):
    """``list-reduce(source, app, acc, base, extra)`` — identical to
    set-reduce except that it traverses a list, whose length (unlike a
    set's cardinality) is not bounded by the domain size."""

    source: Expr
    app: Lambda
    acc: Lambda
    base: Expr
    extra: Expr


@dataclass(frozen=True)
class FunctionDef:
    """A named, possibly recursive-free function definition.

    ``param_types`` and ``return_type`` are optional annotations; when
    present the type checker verifies them, when absent it infers them.
    """

    name: str
    params: tuple[str, ...]
    body: Expr
    param_types: tuple[Optional[Type], ...] = ()
    return_type: Optional[Type] = None

    def __post_init__(self) -> None:
        if self.param_types and len(self.param_types) != len(self.params):
            raise SRLNameError(
                f"function {self.name}: {len(self.params)} parameters but "
                f"{len(self.param_types)} parameter types"
            )


@dataclass
class Program:
    """A collection of function definitions plus a main expression.

    The free variables of ``main`` (and of any definition body beyond its
    parameters) name the input database sets/relations.
    """

    definitions: dict[str, FunctionDef] = field(default_factory=dict)
    main: Optional[Expr] = None

    def define(self, definition: FunctionDef) -> "Program":
        """Add (or replace) a definition; returns ``self`` for chaining."""
        self.definitions[definition.name] = definition
        return self

    def get(self, name: str) -> FunctionDef:
        try:
            return self.definitions[name]
        except KeyError:
            raise SRLNameError(f"unknown function: {name}") from None


def children(expr: Expr) -> tuple[Expr, ...]:
    """The immediate sub-expressions of ``expr``."""
    if isinstance(expr, If):
        return (expr.cond, expr.then_branch, expr.else_branch)
    if isinstance(expr, TupleExpr):
        return expr.items
    if isinstance(expr, Select):
        return (expr.target,)
    if isinstance(expr, (Equal, LessEq)):
        return (expr.left, expr.right)
    if isinstance(expr, Insert):
        return (expr.element, expr.target)
    if isinstance(expr, ConsList):
        return (expr.item, expr.target)
    if isinstance(expr, Lambda):
        return (expr.body,)
    if isinstance(expr, (SetReduce, ListReduce)):
        return (expr.source, expr.app, expr.acc, expr.base, expr.extra)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, (New, Choose, Rest)):
        return (expr.source,)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_variables(expr: Expr, bound: frozenset[str] = frozenset()) -> set[str]:
    """The free variables of ``expr`` (database names, typically)."""
    if isinstance(expr, Var):
        return set() if expr.name in bound else {expr.name}
    if isinstance(expr, Lambda):
        return free_variables(expr.body, bound | set(expr.params))
    result: set[str] = set()
    for child in children(expr):
        result |= free_variables(child, bound)
    return result


def called_functions(expr: Expr) -> set[str]:
    """The names of all functions invoked (directly) inside ``expr``."""
    return {node.name for node in walk(expr) if isinstance(node, Call)}


def count_nodes(expr: Expr) -> int:
    """The number of AST nodes in ``expr`` (a crude program-size measure)."""
    return sum(1 for _ in walk(expr))
