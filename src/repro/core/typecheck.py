"""Type checking / inference for SRL expressions and programs.

The language is monomorphic except for ``emptyset`` (whose type is
``set(alpha)``), so a small unification engine (:mod:`repro.core.types`)
suffices.  Named definitions are *not* generalised: each call site re-checks
the definition's body against the argument types, which matches the paper's
view of definitions as abbreviations closed under composition and avoids the
need for let-polymorphism.

The checker records every type it assigns (``observed_types``); the
Section 6 syntactic analysis (:mod:`repro.core.analysis`) and the
restriction checkers (:mod:`repro.core.restrictions`) read those to compute
set-heights and accumulator shapes — the quantities from which the paper
reads a program's complexity "off its face".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .ast import (
    AtomConst,
    BoolConst,
    Call,
    Choose,
    ConsList,
    EmptyList,
    EmptySet,
    Equal,
    Expr,
    If,
    Insert,
    Lambda,
    LessEq,
    ListReduce,
    NatConst,
    New,
    Program,
    Rest,
    Select,
    SetReduce,
    TupleExpr,
    Var,
)
from .environment import Database
from .errors import SRLNameError, SRLTypeError
from .types import (
    ATOM,
    BOOL,
    NAT,
    AtomType,
    ListType,
    NatType,
    SetType,
    Substitution,
    TupleType,
    Type,
    TypeVar,
    _unify_into,
    apply_substitution,
    fresh_type_var,
)
from .values import Atom, SRLList, SRLSet, SRLTuple, Value

__all__ = ["TypeChecker", "TypeReport", "type_of_value", "database_types", "check_program"]


def type_of_value(value: Value) -> Type:
    """The SRL type of a runtime value (fresh variables for empty sets/lists)."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, Atom):
        return ATOM
    if isinstance(value, int):
        return NAT
    if isinstance(value, SRLTuple):
        return TupleType(tuple(type_of_value(v) for v in value))
    if isinstance(value, SRLSet):
        if value.is_empty():
            return SetType(fresh_type_var())
        subst: Substitution = {}
        element_type: Type = type_of_value(value.elements[0])
        for element in value.elements[1:]:
            _unify_into(element_type, type_of_value(element), subst)
        return SetType(apply_substitution(element_type, subst))
    if isinstance(value, SRLList):
        if value.is_empty():
            return ListType(fresh_type_var())
        subst = {}
        element_type = type_of_value(value.items[0])
        for item in value.items[1:]:
            _unify_into(element_type, type_of_value(item), subst)
        return ListType(apply_substitution(element_type, subst))
    raise SRLTypeError(f"not an SRL value: {value!r}")


def database_types(database: Database | Mapping[str, object]) -> dict[str, Type]:
    """Infer the type of every database binding."""
    if isinstance(database, Database):
        items = database.items()
    else:
        items = Database(database).items()
    return {name: type_of_value(value) for name, value in items}


@dataclass
class TypeReport:
    """The result of checking a program or expression."""

    result_type: Type
    observed_types: list[Type] = field(default_factory=list)
    accumulator_types: list[Type] = field(default_factory=list)
    definition_types: dict[str, Type] = field(default_factory=dict)

    def max_set_height(self) -> int:
        from .types import set_height

        return max((set_height(t) for t in self.observed_types), default=0)

    def max_tuple_width(self) -> int:
        from .types import max_tuple_width

        return max((max_tuple_width(t) for t in self.observed_types), default=1)


class TypeChecker:
    """Checks expressions and programs against an input-type environment."""

    def __init__(self, program: Program | None = None):
        self.program = program if program is not None else Program()
        self.observed_types: list[Type] = []
        self.accumulator_types: list[Type] = []
        self.definition_types: dict[str, Type] = {}
        self._call_stack: list[str] = []
        self._subst: Substitution = {}

    # ------------------------------------------------------------------ API

    def check_expression(self, expr: Expr,
                         input_types: Mapping[str, Type] | None = None) -> TypeReport:
        """Infer the type of ``expr``; free variables take their types from
        ``input_types`` (the database schema)."""
        self.observed_types = []
        self.accumulator_types = []
        self._subst = {}
        env = dict(input_types or {})
        result = self._infer(expr, env)
        result = apply_substitution(result, self._subst)
        observed = [apply_substitution(t, self._subst) for t in self.observed_types]
        accumulators = [apply_substitution(t, self._subst) for t in self.accumulator_types]
        return TypeReport(
            result_type=result,
            observed_types=observed,
            accumulator_types=accumulators,
            definition_types=dict(self.definition_types),
        )

    def check_program(self, input_types: Mapping[str, Type] | None = None) -> TypeReport:
        """Check the program's main expression (which must exist)."""
        if self.program.main is None:
            raise SRLTypeError("program has no main expression to check")
        return self.check_expression(self.program.main, input_types)

    # ------------------------------------------------------------ inference

    def _note(self, t: Type) -> Type:
        self.observed_types.append(t)
        return t

    def _infer(self, expr: Expr, env: dict[str, Type]) -> Type:
        if isinstance(expr, BoolConst):
            return self._note(BOOL)
        if isinstance(expr, AtomConst):
            return self._note(ATOM)
        if isinstance(expr, NatConst):
            return self._note(NAT)
        if isinstance(expr, Var):
            if expr.name not in env:
                raise SRLNameError(f"unbound variable in type checking: {expr.name}")
            return self._note(env[expr.name])
        if isinstance(expr, If):
            cond_type = self._infer(expr.cond, env)
            _unify_into(cond_type, BOOL, self._subst)
            then_type = self._infer(expr.then_branch, env)
            else_type = self._infer(expr.else_branch, env)
            _unify_into(then_type, else_type, self._subst)
            return self._note(apply_substitution(then_type, self._subst))
        if isinstance(expr, TupleExpr):
            return self._note(TupleType(tuple(self._infer(item, env) for item in expr.items)))
        if isinstance(expr, Select):
            target_type = apply_substitution(self._infer(expr.target, env), self._subst)
            if isinstance(target_type, TypeVar):
                raise SRLTypeError(
                    f"cannot determine the tuple type being selected from: {expr!r:.60}"
                )
            if not isinstance(target_type, TupleType):
                raise SRLTypeError(f"sel_{expr.index} applied to non-tuple type {target_type}")
            if not 1 <= expr.index <= target_type.width:
                raise SRLTypeError(
                    f"sel_{expr.index} out of range for width-{target_type.width} tuple"
                )
            return self._note(target_type.fields[expr.index - 1])
        if isinstance(expr, (Equal, LessEq)):
            left = self._infer(expr.left, env)
            right = self._infer(expr.right, env)
            _unify_into(left, right, self._subst)
            if isinstance(expr, LessEq):
                resolved = apply_substitution(left, self._subst)
                if isinstance(resolved, TypeVar):
                    _unify_into(resolved, ATOM, self._subst)
                elif not isinstance(resolved, (AtomType, NatType)):
                    raise SRLTypeError(f"<= compares atoms or naturals, not {resolved}")
            return self._note(BOOL)
        if isinstance(expr, EmptySet):
            return self._note(SetType(fresh_type_var()))
        if isinstance(expr, Insert):
            element_type = self._infer(expr.element, env)
            target_type = self._infer(expr.target, env)
            _unify_into(target_type, SetType(element_type), self._subst)
            return self._note(apply_substitution(target_type, self._subst))
        if isinstance(expr, SetReduce):
            return self._infer_reduce(expr, env, SetType)
        if isinstance(expr, ListReduce):
            return self._infer_reduce(expr, env, ListType)
        if isinstance(expr, Call):
            return self._infer_call(expr, env)
        if isinstance(expr, New):
            source = self._infer(expr.source, env)
            _unify_into(source, SetType(ATOM), self._subst)
            return self._note(ATOM)
        if isinstance(expr, Choose):
            element = fresh_type_var()
            source = self._infer(expr.source, env)
            _unify_into(source, SetType(element), self._subst)
            return self._note(apply_substitution(element, self._subst))
        if isinstance(expr, Rest):
            element = fresh_type_var()
            source = self._infer(expr.source, env)
            _unify_into(source, SetType(element), self._subst)
            return self._note(apply_substitution(source, self._subst))
        if isinstance(expr, EmptyList):
            return self._note(ListType(fresh_type_var()))
        if isinstance(expr, ConsList):
            item_type = self._infer(expr.item, env)
            target_type = self._infer(expr.target, env)
            _unify_into(target_type, ListType(item_type), self._subst)
            return self._note(apply_substitution(target_type, self._subst))
        if isinstance(expr, Lambda):
            raise SRLTypeError("a lambda can only appear as the app/acc of a reduce")
        raise SRLTypeError(f"cannot type-check node {type(expr).__name__}")

    def _infer_reduce(self, expr: SetReduce | ListReduce, env: dict[str, Type],
                      container) -> Type:
        element_type = fresh_type_var("elem")
        source_type = self._infer(expr.source, env)
        _unify_into(source_type, container(element_type), self._subst)

        base_type = self._infer(expr.base, env)
        extra_type = self._infer(expr.extra, env)

        # app : (element, extra) -> T''
        app_env = dict(env)
        app_env[expr.app.params[0]] = apply_substitution(element_type, self._subst)
        app_env[expr.app.params[1]] = apply_substitution(extra_type, self._subst)
        applied_type = self._infer(expr.app.body, app_env)

        # acc : (T'', T') -> T'
        acc_env = dict(env)
        acc_env[expr.acc.params[0]] = apply_substitution(applied_type, self._subst)
        acc_env[expr.acc.params[1]] = apply_substitution(base_type, self._subst)
        acc_type = self._infer(expr.acc.body, acc_env)
        _unify_into(acc_type, base_type, self._subst)

        resolved = apply_substitution(base_type, self._subst)
        self.accumulator_types.append(resolved)
        return self._note(resolved)

    def _infer_call(self, expr: Call, env: dict[str, Type]) -> Type:
        definition = self.program.definitions.get(expr.name)
        if definition is None:
            raise SRLNameError(f"call of unknown function: {expr.name}")
        if expr.name in self._call_stack:
            raise SRLTypeError(
                f"recursive call of {expr.name}: SRL definitions cannot be recursive"
            )
        if len(expr.args) != len(definition.params):
            raise SRLTypeError(
                f"{expr.name} expects {len(definition.params)} arguments, "
                f"got {len(expr.args)}"
            )
        argument_types = [self._infer(arg, env) for arg in expr.args]

        body_env = dict(env)
        for param, param_type, annotation in zip(
            definition.params, argument_types,
            definition.param_types or (None,) * len(definition.params),
        ):
            if annotation is not None:
                _unify_into(param_type, annotation, self._subst)
            body_env[param] = apply_substitution(param_type, self._subst)

        self._call_stack.append(expr.name)
        try:
            result = self._infer(definition.body, body_env)
        finally:
            self._call_stack.pop()

        if definition.return_type is not None:
            _unify_into(result, definition.return_type, self._subst)
        resolved = apply_substitution(result, self._subst)
        self.definition_types[expr.name] = resolved
        return self._note(resolved)


def check_program(program: Program,
                  input_types: Mapping[str, Type] | None = None,
                  database: Database | Mapping[str, object] | None = None) -> TypeReport:
    """Convenience wrapper: type-check ``program.main``.

    ``input_types`` may be given directly, or derived from a sample
    ``database`` (whichever is handier for the caller).
    """
    if input_types is None and database is not None:
        input_types = database_types(database)
    return TypeChecker(program).check_program(input_types)
