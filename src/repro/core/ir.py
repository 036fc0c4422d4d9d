"""Lowering SRL abstract syntax into a flat, register-style IR.

The tree-walking :class:`~repro.core.evaluator.Evaluator` re-discovers the
same facts on every visit: which scope a variable lives in, which definition
a ``Call`` names, whether a sub-expression is a constant.  Lowering resolves
all of that once:

* **Pre-resolved variable slots.**  Every function body gets one flat frame
  of numbered registers.  Function parameters and lambda parameters are
  assigned slots at lowering time, so a ``Var`` is either a register read or
  a database lookup — never a chained scope walk.  (Per rule 9 a lambda body
  sees only its own two parameters plus the database, which is exactly what
  the slot-resolution scopes reproduce.)

* **Pre-bound calls.**  A ``Call`` is resolved against the program's
  definition table at lowering time.  Well-formed calls carry the callee's
  name for the compiler to bind directly to the callee's compiled closure;
  calls that the interpreter would reject at runtime (unknown name, arity
  mismatch) lower to a :data:`Op.RAISE` that reproduces the interpreter's
  error *when executed*, so dead branches stay dead.  Statically recursive
  definitions compile with a re-entry guard (the language is closed under
  composition only).

* **Constant folding.**  Pure scalar/tuple operations over compile-time
  constants (``tuple``, ``sel``, ``=``, ``if`` with a constant condition,
  and the literals) are evaluated during lowering.  Operations that the
  evaluator *instruments* (``insert``, reduces, calls, ``new``) are never
  folded, so the compiled backend preserves the interpreter's ``inserts`` /
  iteration / call / ``new`` counters exactly.  ``<=`` is not folded either:
  its value can depend on the session's ``atom_order``.

The IR is "flat with structured control": each block is a linear instruction
list, and the only nesting is the two-armed :data:`Op.IF` and the loop
bodies of :data:`Op.REDUCE` — the same shape WebAssembly uses, and the shape
:mod:`repro.core.compiler` needs to emit straight-line Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

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
    called_functions,
)
from .values import EMPTY_SET, SRLTuple, value_equal

__all__ = [
    "Op",
    "Instr",
    "Block",
    "IRFunction",
    "IRProgram",
    "lower_program",
    "lower_expression",
    "free_registers",
]


class Op(IntEnum):
    """IR opcodes.  Operands are register numbers unless noted."""

    CONST = 0        # args: (value,)                   dest = literal value
    LOAD_DB = 1      # args: (name,)                    dest = database lookup
    TUPLE = 3        # args: (src_slots,)
    SELECT = 4       # args: (src, index)
    EQUAL = 5        # args: (left, right)
    LESSEQ = 6       # args: (left, right)              atom_order sensitive
    INSERT = 7       # args: (element, target)          instrumented
    CHOOSE = 8       # args: (src,)
    REST = 9         # args: (src,)
    NEW = 10         # args: (src,)                     instrumented
    CONS = 11        # args: (item, target)
    EMPTY_LIST = 12  # args: ()                         allow_lists-gated
    CALL = 13        # args: (callee_name, arg_slots)   pre-bound by compiler
    REDUCE = 14      # args: (is_set, src, base, extra, app_block, acc_block,
                     #        app_slots, acc_slots)
    IF = 15          # args: (cond, then_block, else_block)
    RAISE = 16       # args: (exc_kind, message)        exc_kind: "runtime"|"name"
    CHECK_SOURCE = 17  # args: (src, is_set)            reduce source type check
    CHECK_LISTS = 18   # args: ()                       allow_lists gate
    CHECK_NEW = 19     # args: ()                       allow_new gate


@dataclass(frozen=True)
class Instr:
    op: Op
    dest: int
    args: tuple = ()


@dataclass(frozen=True)
class Block:
    """A linear run of instructions leaving its value in register ``result``."""

    instrs: tuple[Instr, ...]
    result: int


@dataclass(frozen=True)
class IRFunction:
    """One lowered function body (or the program's main expression)."""

    name: str
    params: tuple[str, ...]
    n_slots: int
    block: Block
    #: True when the definition sits on a static call-graph cycle; the
    #: compiler then emits the interpreter's recursion guard at entry.
    guarded: bool = False


@dataclass
class IRProgram:
    """A whole lowered program: one IR function per definition plus main."""

    functions: dict[str, IRFunction] = field(default_factory=dict)
    main: Optional[IRFunction] = None


# ------------------------------------------------------------------ operands
#
# During lowering an expression evaluates to either a compile-time constant
# (folded) or a register.  Constants are materialized into registers only at
# the point an instruction actually consumes one.

_CONST = "const"
_SLOT = "slot"


def _is_const(operand) -> bool:
    return operand[0] is _CONST


def _cycle_members(program: Program) -> frozenset[str]:
    """Definition names that sit on a cycle of the static call graph
    (including self-loops).  Only these need a runtime re-entry guard."""
    graph = {
        name: sorted(called_functions(definition.body) & program.definitions.keys())
        for name, definition in program.definitions.items()
    }
    members: set[str] = set()
    # One DFS per root: the root is a cycle member iff it is reachable from
    # itself.  Quadratic in the worst case, but definition tables are tiny
    # and this runs once per compilation.
    for root in graph:
        stack = [(root, iter(graph[root]))]
        visited = {root}
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if successor == root:
                    members.add(root)
                    continue
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, iter(graph[successor])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return frozenset(members)


class _Lowerer:
    """Lowers one function body into a frame of registers."""

    def __init__(self, program: Program, name: str, params: tuple[str, ...]):
        self.program = program
        self.name = name
        self.params = params
        self.n_slots = len(params)
        self._instrs_stack: list[list[Instr]] = [[]]

    # ------------------------------------------------------------- plumbing

    def _new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def _emit(self, op: Op, dest: int, args: tuple = ()) -> int:
        self._instrs_stack[-1].append(Instr(op, dest, args))
        return dest

    def _slot_of(self, operand) -> int:
        """Materialize a constant operand into a register if necessary."""
        if operand[0] is _SLOT:
            return operand[1]
        return self._emit(Op.CONST, self._new_slot(), (operand[1],))

    def _lower_block(self, expr: Expr, scope: dict[str, int]) -> Block:
        self._instrs_stack.append([])
        result = self._slot_of(self._lower(expr, scope))
        return Block(tuple(self._instrs_stack.pop()), result)

    def lower(self, body: Expr) -> IRFunction:
        scope = {name: slot for slot, name in enumerate(self.params)}
        block = self._lower_block(body, scope)
        return IRFunction(self.name, self.params, self.n_slots, block)

    # ------------------------------------------------------------- lowering

    def _lower(self, expr: Expr, scope: dict[str, int]):
        kind = type(expr)
        if kind is BoolConst or kind is NatConst:
            return (_CONST, expr.value)
        if kind is AtomConst:
            return (_CONST, expr.value)
        if kind is EmptySet:
            return (_CONST, EMPTY_SET)
        if kind is Var:
            slot = scope.get(expr.name)
            if slot is not None:
                return (_SLOT, slot)
            return (_SLOT, self._emit(Op.LOAD_DB, self._new_slot(), (expr.name,)))
        if kind is If:
            return self._lower_if(expr, scope)
        if kind is TupleExpr:
            items = [self._lower(item, scope) for item in expr.items]
            if all(_is_const(item) for item in items):
                return (_CONST, SRLTuple(item[1] for item in items))
            slots = tuple(self._slot_of(item) for item in items)
            return (_SLOT, self._emit(Op.TUPLE, self._new_slot(), (slots,)))
        if kind is Select:
            target = self._lower(expr.target, scope)
            if _is_const(target):
                value = target[1]
                if isinstance(value, SRLTuple) and 1 <= expr.index <= len(value):
                    return (_CONST, value.select(expr.index))
            return (_SLOT, self._emit(Op.SELECT, self._new_slot(),
                                      (self._slot_of(target), expr.index)))
        if kind is Equal:
            left = self._lower(expr.left, scope)
            right = self._lower(expr.right, scope)
            if _is_const(left) and _is_const(right):
                return (_CONST, value_equal(left[1], right[1]))
            return (_SLOT, self._emit(Op.EQUAL, self._new_slot(),
                                      (self._slot_of(left), self._slot_of(right))))
        if kind is LessEq:
            # Never folded: the answer can depend on the session atom_order.
            left = self._slot_of(self._lower(expr.left, scope))
            right = self._slot_of(self._lower(expr.right, scope))
            return (_SLOT, self._emit(Op.LESSEQ, self._new_slot(), (left, right)))
        if kind is Insert:
            element = self._slot_of(self._lower(expr.element, scope))
            target = self._slot_of(self._lower(expr.target, scope))
            return (_SLOT, self._emit(Op.INSERT, self._new_slot(), (element, target)))
        if kind is Choose:
            source = self._slot_of(self._lower(expr.source, scope))
            return (_SLOT, self._emit(Op.CHOOSE, self._new_slot(), (source,)))
        if kind is Rest:
            source = self._slot_of(self._lower(expr.source, scope))
            return (_SLOT, self._emit(Op.REST, self._new_slot(), (source,)))
        if kind is New:
            self._emit(Op.CHECK_NEW, -1)
            source = self._slot_of(self._lower(expr.source, scope))
            return (_SLOT, self._emit(Op.NEW, self._new_slot(), (source,)))
        if kind is EmptyList:
            return (_SLOT, self._emit(Op.EMPTY_LIST, self._new_slot()))
        if kind is ConsList:
            self._emit(Op.CHECK_LISTS, -1)
            item = self._slot_of(self._lower(expr.item, scope))
            target = self._slot_of(self._lower(expr.target, scope))
            return (_SLOT, self._emit(Op.CONS, self._new_slot(), (item, target)))
        if kind is SetReduce:
            return self._lower_reduce(expr, scope, is_set=True)
        if kind is ListReduce:
            self._emit(Op.CHECK_LISTS, -1)
            return self._lower_reduce(expr, scope, is_set=False)
        if kind is Call:
            return self._lower_call(expr, scope)
        if kind is Lambda:
            return (_SLOT, self._emit(
                Op.RAISE, self._new_slot(),
                ("runtime", "a lambda can only appear as the app/acc argument of a reduce"),
            ))
        return (_SLOT, self._emit(
            Op.RAISE, self._new_slot(),
            ("runtime", f"cannot evaluate expression of type {type(expr).__name__}"),
        ))

    def _lower_if(self, expr: If, scope: dict[str, int]):
        cond = self._lower(expr.cond, scope)
        if _is_const(cond) and isinstance(cond[1], bool):
            # The untaken branch is the same branch the interpreter would
            # skip, so dropping it changes neither values nor the
            # instrumented counters.
            return self._lower(expr.then_branch if cond[1] else expr.else_branch, scope)
        dest = self._new_slot()
        then_block = self._lower_block(expr.then_branch, scope)
        else_block = self._lower_block(expr.else_branch, scope)
        return (_SLOT, self._emit(Op.IF, dest,
                                  (self._slot_of(cond), then_block, else_block)))

    def _lower_reduce(self, expr: SetReduce | ListReduce, scope: dict[str, int],
                      is_set: bool):
        source = self._slot_of(self._lower(expr.source, scope))
        # The interpreter type-checks the source before touching base/extra;
        # an explicit check keeps that error order.
        self._emit(Op.CHECK_SOURCE, -1, (source, is_set))
        base = self._slot_of(self._lower(expr.base, scope))
        extra = self._slot_of(self._lower(expr.extra, scope))
        app_slots = (self._new_slot(), self._new_slot())
        acc_slots = (self._new_slot(), self._new_slot())
        # Rule 9: a lambda body sees only its own parameters (plus the
        # database); a duplicated name resolves to the second slot, exactly
        # as the interpreter's dict construction does.
        app_scope = dict(zip(expr.app.params, app_slots))
        acc_scope = dict(zip(expr.acc.params, acc_slots))
        app_block = self._lower_block(expr.app.body, app_scope)
        acc_block = self._lower_block(expr.acc.body, acc_scope)
        return (_SLOT, self._emit(
            Op.REDUCE, self._new_slot(),
            (is_set, source, base, extra, app_block, acc_block, app_slots, acc_slots),
        ))

    def _lower_call(self, expr: Call, scope: dict[str, int]):
        definition = self.program.definitions.get(expr.name)
        if definition is None:
            # The interpreter rejects unknown callees before evaluating the
            # arguments; reproduce the error (and its timing) lazily.
            return (_SLOT, self._emit(
                Op.RAISE, self._new_slot(),
                ("name", f"call of unknown function: {expr.name}"),
            ))
        arg_slots = tuple(self._slot_of(self._lower(arg, scope)) for arg in expr.args)
        if len(arg_slots) != len(definition.params):
            # Arity is checked after argument evaluation, matching the
            # interpreter's _apply_definition.
            return (_SLOT, self._emit(
                Op.RAISE, self._new_slot(),
                ("runtime",
                 f"{definition.name} expects {len(definition.params)} arguments, "
                 f"got {len(arg_slots)}"),
            ))
        return (_SLOT, self._emit(Op.CALL, self._new_slot(), (expr.name, arg_slots)))


def lower_program(program: Program, main: Expr | None = None) -> IRProgram:
    """Lower every definition of ``program`` (and ``main``, defaulting to the
    program's own main expression) into an :class:`IRProgram`."""
    guarded = _cycle_members(program)
    result = IRProgram()
    for name, definition in program.definitions.items():
        lowered = _Lowerer(program, name, tuple(definition.params)).lower(definition.body)
        if name in guarded:
            lowered = IRFunction(lowered.name, lowered.params, lowered.n_slots,
                                 lowered.block, guarded=True)
        result.functions[name] = lowered
    main_expr = main if main is not None else program.main
    if main_expr is not None:
        result.main = _Lowerer(program, "__main__", ()).lower(main_expr)
    return result


def lower_expression(expr: Expr, program: Program | None = None) -> IRProgram:
    """Lower a standalone expression (with optional auxiliary definitions)."""
    return lower_program(program if program is not None else Program(), main=expr)


def count_instructions(block: Block) -> int:
    """Total instruction count of a block, nested control included (a crude
    compiled-size measure, used by tests and the analysis tooling)."""
    total = 0
    for instr in block.instrs:
        total += 1
        if instr.op is Op.IF:
            total += count_instructions(instr.args[1]) + count_instructions(instr.args[2])
        elif instr.op is Op.REDUCE:
            total += count_instructions(instr.args[4]) + count_instructions(instr.args[5])
    return total


#: Opcodes whose operands are all registers.
_REGISTER_ARGS = frozenset({Op.EQUAL, Op.LESSEQ, Op.INSERT, Op.CONS})
#: Opcodes whose first operand is their only register.
_FIRST_ARG = frozenset({Op.SELECT, Op.CHOOSE, Op.REST, Op.NEW, Op.CHECK_SOURCE})


def free_registers(block: Block) -> set[int]:
    """The registers ``block`` reads but does not define: its inputs when
    it is emitted as a function of its own.

    Lowering gives every value a fresh register, so a register defined
    anywhere inside the block is defined there before it is read.  By rule
    9 a lambda body's free registers are among its two parameters.
    """
    read: set[int] = set()
    defined: set[int] = set()
    pending = [block]
    while pending:
        block = pending.pop()
        read.add(block.result)
        for instr in block.instrs:
            op, args = instr.op, instr.args
            defined.add(instr.dest)
            if op in _REGISTER_ARGS:
                read.update(args)
            elif op in _FIRST_ARG:
                read.add(args[0])
            elif op is Op.TUPLE:
                read.update(args[0])
            elif op is Op.CALL:
                read.update(args[1])
            elif op is Op.IF:
                read.add(args[0])
                pending += args[1:3]
            elif op is Op.REDUCE:
                read.update(args[1:4])
                defined.update(args[6] + args[7])
                pending += args[4:6]
    return read - defined
