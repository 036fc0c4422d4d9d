"""Compiling the register IR of :mod:`repro.core.ir` into Python closures.

Each :class:`~repro.core.ir.IRFunction` is turned into one Python function
(generated source, ``exec``-ed once per program): registers become local
variables, pre-bound calls become direct closure invocations through the
shared compile namespace, and the reduce loops become plain ``for`` loops.
Nothing in the hot path walks a tree, chains an environment, or dispatches
on node types — that work was all done once, at lowering time.

Any nesting compiles.  CPython rejects a function with more than 20
statically nested blocks (each reduce loop is one) or about 100 levels of
indentation (each ``if`` arm is one).  Where a loop would reach the block
limit, or a block the indentation threshold, :class:`_CodeGen` emits that
block — a lambda body or an ``if`` arm — as a generated function of the
registers it reads, and calls it in place.  For a lambda body those are its
two parameters: by rule 9 a lambda body reads nothing else but the
database.  The outlined code runs the same operations in the same order and
adds no tick, so values and counters are unchanged.

Instrumentation and limits
--------------------------

The compiled backend threads the interpreter's
:class:`~repro.core.evaluator.Runtime` through every call, so every
instrumented operation (``insert``, ``choose``, ``rest``, ``new``,
``cons``, the list/new gates, the accumulator gauges, the recursion guard)
runs the same body on both executors, and the *semantically determined*
counters match the interpreter exactly: ``inserts``,
``set_reduce_iterations``, ``list_reduce_iterations``, ``function_calls``,
``new_values``, ``max_set_size``, ``max_accumulator_size`` and
``max_list_length`` are all maintained at the same program points.  Only
``steps`` is coarser: the interpreter ticks once per AST node visited,
while compiled code has no per-node events and ticks once per reduce
iteration and per function call (see DESIGN.md, "What instrumentation
each backend guarantees").  ``max_steps`` budgets therefore
bound the same asymptotic quantity, at a different constant factor.

Resource limits (``max_steps``, ``max_inserts``, ``max_set_size``,
``allow_new``, ``allow_lists``) are enforced at the same operations as the
interpreter, raising the same exception types.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .ast import Expr, Program
from .environment import Database
from .errors import SRLNameError, SRLRuntimeError
from .evaluator import EvaluationLimits, EvaluationStats, Runtime
from .ir import Block, Instr, Op, free_registers, lower_program
from .values import SRLList, SRLSet, SRLTuple, Value, _value_key, value_equal

__all__ = ["CompiledProgram", "compile_program", "compile_expression"]


# ------------------------------------------------------------ error helpers


def _make_lookup(database: Database | Mapping[str, object] | None):
    """The database accessor threaded through compiled closures.

    Reads the bindings dict directly (one call level less than
    ``Database.lookup``) and raises the *interpreter's* unbound-name error:
    by the time compiled code executes a LOAD_DB, slot resolution has
    already ruled out every parameter scope, which is exactly the state in
    which ``Environment.lookup`` reports "unbound variable".
    """
    if not isinstance(database, Database):
        database = Database(database or {})
    bindings = database._bindings

    def lookup(name: str) -> Value:
        try:
            return bindings[name]
        except KeyError:
            raise SRLNameError(f"unbound variable: {name}") from None

    return lookup


def _raise_runtime(message: str):
    raise SRLRuntimeError(message)


def _raise_name(message: str):
    raise SRLNameError(message)


def _bad_condition(value):
    raise SRLRuntimeError(f"if condition evaluated to a non-boolean: {value!r}")


def _bad_source(value, is_set: bool):
    if is_set:
        raise SRLRuntimeError(f"set-reduce over a non-set: {value!r}")
    raise SRLRuntimeError(f"list-reduce over a non-list: {value!r}")


def _select(value, index: int):
    if not isinstance(value, SRLTuple):
        raise SRLRuntimeError(f"sel_{index} applied to a non-tuple: {value!r}")
    if not 1 <= index <= len(value):
        raise SRLRuntimeError(
            f"tuple selector .{index} out of range for width-{len(value)} tuple"
        )
    return value[index - 1]


# ------------------------------------------------------------------- codegen


#: CPython's per-function limits: at most 20 statically nested blocks
#: (``for``, ``try``) and under 100 indentation levels.
_MAX_BLOCKS = 20
_MAX_INDENT = 90


class _CodeGen:
    """Emits the Python source of one generated function.

    ``context`` is shared by every function of one program: the callee name
    -> generated global name map, the constant pool, the guarded callee
    names and the list of emitted function sources.
    """

    def __init__(self, emitted_name: str, params: Sequence[int], block: Block,
                 context: tuple, guard: str | None = None):
        self.emitted_name = emitted_name
        self.params = params
        self.block = block
        self.guard = guard
        self.context = context
        self.fn_globals, self.consts, self.guarded_names, self.sources = context
        self.lines: list[str] = []
        self.indent = 1
        self._blocks = 0
        self._reduce_id = 0
        self._outlined: list[tuple[str, list[int], Block]] = []

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _const_name(self, value) -> str:
        self.consts.append(value)
        return f"_K{len(self.consts) - 1}"

    def generate(self) -> None:
        """Append this function's source, then the functions it outlined
        (one Python frame per outlining level, however deep the nesting)."""
        params = "".join(f", r{slot}" for slot in self.params)
        self.lines.append(f"def {self.emitted_name}(rt, _lookup{params}):")
        self._line("_st = rt.stats")
        if self.guard is not None:
            # The interpreter checks the call stack *before* counting the
            # call, so a guard-rejected re-entry must not tick — guarded
            # functions therefore self-tick after the guard passes, and
            # their call sites skip the usual call_tick.
            self._line(f"rt.enter({self.guard!r})")
            self._line("try:")
            self.indent += 1
            self._blocks += 1
            self._line("rt.call_tick()")
        self._emit_block(self.block)
        self._line(f"return r{self.block.result}")
        if self.guard is not None:
            self.indent -= 1
            self._line("finally:")
            self._line(f"    rt.exit({self.guard!r})")
        self.sources.append("\n".join(self.lines))
        for name, params, block in self._outlined:
            _CodeGen(name, params, block, self.context).generate()

    def _value_of(self, block: Block) -> str:
        """Emit ``block`` and return the expression holding its value.

        Inline while CPython's limits allow, otherwise as a call of a new
        generated function of the registers the block reads.
        """
        if self._blocks < _MAX_BLOCKS and self.indent <= _MAX_INDENT:
            self._emit_block(block)
            return f"r{block.result}"
        name = f"{self.emitted_name}_{len(self._outlined)}"
        params = sorted(free_registers(block))
        self._outlined.append((name, params, block))
        return f"{name}(rt, _lookup{''.join(f', r{slot}' for slot in params)})"

    def _emit_block(self, block: Block) -> None:
        for instr in block.instrs:
            self._emit_instr(instr)

    def _emit_instr(self, instr: Instr) -> None:
        op, dest, args = instr.op, instr.dest, instr.args
        if op is Op.CONST:
            self._line(f"r{dest} = {self._const_name(args[0])}")
        elif op is Op.LOAD_DB:
            self._line(f"r{dest} = _lookup({args[0]!r})")
        elif op is Op.TUPLE:
            inner = ", ".join(f"r{slot}" for slot in args[0])
            trailing = "," if len(args[0]) == 1 else ""
            self._line(f"r{dest} = _Tuple(({inner}{trailing}))")
        elif op is Op.SELECT:
            self._line(f"r{dest} = _select(r{args[0]}, {args[1]})")
        elif op is Op.EQUAL:
            self._line(f"r{dest} = _veq(r{args[0]}, r{args[1]})")
        elif op is Op.LESSEQ:
            self._line(
                f"r{dest} = _vk(r{args[0]}, rt.atom_order) <= _vk(r{args[1]}, rt.atom_order)"
            )
        elif op is Op.INSERT:
            self._line(f"r{dest} = rt.insert(r{args[0]}, r{args[1]})")
        elif op is Op.CHOOSE:
            self._line(f"r{dest} = rt.choose(r{args[0]})")
        elif op is Op.REST:
            self._line(f"r{dest} = rt.rest(r{args[0]})")
        elif op is Op.NEW:
            self._line(f"r{dest} = rt.new(r{args[0]})")
        elif op is Op.CONS:
            self._line(f"r{dest} = rt.cons(r{args[0]}, r{args[1]})")
        elif op is Op.EMPTY_LIST:
            self._line(f"r{dest} = rt.emptylist()")
        elif op is Op.CHECK_LISTS:
            self._line("rt.check_lists()")
        elif op is Op.CHECK_NEW:
            self._line("rt.check_new()")
        elif op is Op.CHECK_SOURCE:
            src, is_set = args
            expected = "_Set" if is_set else "_List"
            self._line(f"if not isinstance(r{src}, {expected}): _bad_source(r{src}, {is_set})")
        elif op is Op.CALL:
            callee, arg_slots = args
            call_args = "".join(f", r{slot}" for slot in arg_slots)
            if callee not in self.guarded_names:
                self._line("rt.call_tick()")
            self._line(f"r{dest} = {self.fn_globals[callee]}(rt, _lookup{call_args})")
        elif op is Op.RAISE:
            exc_kind, message = args
            helper = "_raise_name" if exc_kind == "name" else "_raise_runtime"
            self._line(f"r{dest} = {helper}({message!r})")
        elif op is Op.IF:
            cond, then_block, else_block = args
            self._line(f"if r{cond} is True:")
            self.indent += 1
            self._line(f"r{dest} = {self._value_of(then_block)}")
            self.indent -= 1
            self._line(f"elif r{cond} is False:")
            self.indent += 1
            self._line(f"r{dest} = {self._value_of(else_block)}")
            self.indent -= 1
            self._line("else:")
            self._line(f"    _bad_condition(r{cond})")
        elif op is Op.REDUCE:
            self._emit_reduce(dest, args)
        else:  # pragma: no cover - exhaustive over Op
            raise SRLRuntimeError(f"cannot compile IR opcode {op!r}")

    def _emit_reduce(self, dest: int, args: tuple) -> None:
        is_set, src, base, extra, app_block, acc_block, app_slots, acc_slots = args
        rid = self._reduce_id
        self._reduce_id += 1
        counter = "set_reduce_iterations" if is_set else "list_reduce_iterations"
        items = f"rt.ordered(r{src})" if is_set else f"r{src}.items"
        self._line(f"_acc{rid} = r{base}")
        self._line(f"_ext{rid} = r{extra}")
        self._line(f"for _e{rid} in {items}:")
        self.indent += 1
        self._blocks += 1
        # The counter is bumped at the top of the body (before any work can
        # raise), which is exactly the interpreter's abort semantics: the
        # iteration being processed counts even when a resource limit stops
        # it mid-body.  Incrementing the stats field directly keeps the loop
        # a single static block (see _MAX_BLOCKS).
        self._line(f"_st.{counter} += 1")
        self._line("rt.tick()")
        self._line(f"r{app_slots[0]} = _e{rid}")
        self._line(f"r{app_slots[1]} = _ext{rid}")
        self._line(f"r{acc_slots[0]} = {self._value_of(app_block)}")
        self._line(f"r{acc_slots[1]} = _acc{rid}")
        self._line(f"_acc{rid} = {self._value_of(acc_block)}")
        self._line(f"rt.note_acc(_acc{rid})")
        self.indent -= 1
        self._blocks -= 1
        self._line(f"r{dest} = _acc{rid}")


class CompiledProgram:
    """A program lowered to IR and compiled to Python closures.

    Compilation happens once; every :meth:`run` / :meth:`call` then executes
    the closures against a fresh :class:`~repro.core.evaluator.Runtime`
    and returns ``(value, stats)``.  Thread a
    :class:`~repro.core.engine.Session` for the high-level API.
    """

    def __init__(self, program: Program, main: Expr | None = None):
        self.program = program
        self.ir = lower_program(program, main=main)
        self._namespace: dict[str, object] = {
            "_Tuple": SRLTuple,
            "_Set": SRLSet,
            "_List": SRLList,
            "_vk": _value_key,
            "_veq": value_equal,
            "_select": _select,
            "_raise_runtime": _raise_runtime,
            "_raise_name": _raise_name,
            "_bad_condition": _bad_condition,
            "_bad_source": _bad_source,
        }
        fn_globals = {name: f"_f{index}"
                      for index, name in enumerate(self.ir.functions)}
        guarded = frozenset(name for name, fn in self.ir.functions.items()
                            if fn.guarded)
        consts: list = []
        sources: list[str] = []
        context = (fn_globals, consts, guarded, sources)
        for name, fn in self.ir.functions.items():
            _CodeGen(fn_globals[name], range(len(fn.params)), fn.block, context,
                     guard=name if fn.guarded else None).generate()
        if self.ir.main is not None:
            _CodeGen("_main", (), self.ir.main.block, context).generate()
        for index, value in enumerate(consts):
            self._namespace[f"_K{index}"] = value
        self.source = "\n\n".join(sources)
        exec(compile(self.source, f"<srl-compiled:{id(program):x}>", "exec"),
             self._namespace)
        self._functions = {name: self._namespace[fn_globals[name]]
                           for name in self.ir.functions}
        self._main = self._namespace.get("_main")

    # ------------------------------------------------------------------ API

    def run(self, database: Database | Mapping[str, object] | None = None,
            limits: EvaluationLimits | None = None,
            atom_order: Sequence[int] | None = None,
            stats: EvaluationStats | None = None,
            governor=None) -> tuple[Value, EvaluationStats]:
        """Run the compiled main expression; returns ``(value, stats)``.

        A caller-supplied ``stats`` object is filled in place, so its
        counters remain readable when the run aborts on a limit.
        """
        if self._main is None:
            raise SRLRuntimeError("program has no main expression to evaluate")
        rt = _runtime(limits, atom_order, stats, governor)
        value = self._main(rt, _make_lookup(database))
        return value, rt.stats

    def call(self, name: str, *args: Value,
             database: Database | Mapping[str, object] | None = None,
             limits: EvaluationLimits | None = None,
             atom_order: Sequence[int] | None = None,
             stats: EvaluationStats | None = None,
             governor=None) -> tuple[Value, EvaluationStats]:
        """Invoke a named definition with already-evaluated values."""
        definition = self.program.get(name)
        if len(args) != len(definition.params):
            raise SRLRuntimeError(
                f"{definition.name} expects {len(definition.params)} arguments, "
                f"got {len(args)}"
            )
        rt = _runtime(limits, atom_order, stats, governor)
        if not self.ir.functions[name].guarded:
            # Guarded functions self-tick after their re-entry guard passes
            # (interpreter ordering); everything else is counted here.
            rt.call_tick()
        value = self._functions[name](rt, _make_lookup(database), *args)
        return value, rt.stats


def _runtime(limits, atom_order, stats, governor) -> Runtime:
    return Runtime(limits if limits is not None else EvaluationLimits(),
                   tuple(atom_order) if atom_order is not None else None,
                   stats, governor)


def compile_program(program: Program, main: Expr | None = None) -> CompiledProgram:
    """Lower and compile ``program`` (optionally overriding its main)."""
    return CompiledProgram(program, main=main)


def compile_expression(expr: Expr, program: Program | None = None) -> CompiledProgram:
    """Compile a standalone expression (with optional auxiliary definitions)."""
    return CompiledProgram(program if program is not None else Program(), main=expr)
