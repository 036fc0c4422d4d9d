"""The operational semantics of the set-reduce language family.

The evaluator implements the reduction rules of Section 2 of the paper.
The only interesting rule is the one for ``set-reduce``::

    set-reduce(s, app, acc, base, extra) =
        if s = emptyset then base
        else acc(app(choose(s), extra),
                 set-reduce(rest(s), app, acc, base, extra))

Operationally we implement it as an *iterative fold that threads the
accumulator through the elements in ascending implementation order*
(smallest element first): ``result = base; for e in ascending(s): result =
acc(app(e, extra), result)``.  Read literally, the paper's recursive
equation threads the accumulator in the mirrored (descending) direction,
but every example program in the paper — ``increment`` (Prop. 4.5), the
iterated permutation product (Lemma 4.10), the Turing-machine simulation
(Prop. 6.2) — assumes the accumulator reaches the smallest element first,
so we follow the examples; the choice is immaterial to the theorems (an
implementation order is arbitrary anyway) and is recorded in DESIGN.md.
The fold is iterative to avoid Python's recursion limit on large inputs.

The evaluator is instrumented: it counts elementary steps, ``insert``
applications, ``set-reduce`` iterations, invented values, and the peak
sizes of sets and accumulators it builds.  These counters are exactly the
quantities Sections 4 and 6 of the paper reason about (T_ins, the n^{ad}
step bound of Proposition 6.1, the O(log n)-bit accumulators of BASRL),
and they are what the benchmark harness reports.  Every instrumented
operation lives once, on :class:`Runtime`, which both this interpreter and
the compiled closures of :mod:`repro.core.compiler` call, so the two
executors count the same events by construction.

Resource limits (steps / inserts / set sizes) can be configured through
:class:`EvaluationLimits`; exceeding one raises
:class:`~repro.core.errors.ResourceLimitExceeded`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

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
    FunctionDef,
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
from .environment import Database, Environment
from .errors import ResourceLimitExceeded, SRLNameError, SRLRuntimeError
from .values import (
    EMPTY_SET,
    Atom,
    SRLList,
    SRLSet,
    SRLTuple,
    Value,
    max_atom_rank,
    value_equal,
    value_key,
    value_size,
)

__all__ = ["EvaluationLimits", "EvaluationStats", "Evaluator", "Runtime"]


@dataclass
class EvaluationLimits:
    """Budgets for a single evaluation.

    ``None`` means unlimited.  Tests use tight limits to assert that
    restricted programs stay cheap; benchmarks use generous ones.
    """

    max_steps: Optional[int] = 50_000_000
    max_inserts: Optional[int] = None
    max_set_size: Optional[int] = None
    allow_new: bool = True
    allow_lists: bool = True


@dataclass
class EvaluationStats:
    """Counters collected during one evaluation."""

    steps: int = 0
    inserts: int = 0
    set_reduce_iterations: int = 0
    list_reduce_iterations: int = 0
    function_calls: int = 0
    new_values: int = 0
    max_set_size: int = 0
    max_accumulator_size: int = 0
    max_list_length: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "steps": self.steps,
            "inserts": self.inserts,
            "set_reduce_iterations": self.set_reduce_iterations,
            "list_reduce_iterations": self.list_reduce_iterations,
            "function_calls": self.function_calls,
            "new_values": self.new_values,
            "max_set_size": self.max_set_size,
            "max_accumulator_size": self.max_accumulator_size,
            "max_list_length": self.max_list_length,
        }


class Runtime:
    """Per-run state and the instrumented operations of both SRL executors.

    Holds the stats, the limits, the scan order, the ``new`` counter, the
    recursion guard and the optional governor.  The interpreter's handlers
    and the compiled closures call the same methods, so ``inserts``, reduce
    iterations, ``new_values`` and the peak-size gauges are maintained by
    one body each; only *when* :meth:`tick` is called differs (per AST node
    in the interpreter, per reduce iteration and call in compiled code).
    """

    __slots__ = ("stats", "limits", "atom_order", "new_counter", "active",
                 "allow_lists", "governor", "step_cap")

    def __init__(self, limits: EvaluationLimits, atom_order: tuple[int, ...] | None,
                 stats: EvaluationStats | None = None, governor=None):
        # A caller-supplied stats object stays observable even when the run
        # aborts on a resource limit (Session relies on this).
        self.stats = stats if stats is not None else EvaluationStats()
        self.limits = limits
        self.atom_order = atom_order
        self.new_counter = 0
        self.active: set[str] = set()
        self.allow_lists = limits.allow_lists
        self.governor = governor
        #: A tick whose step count passes this calls :meth:`check_steps`:
        #: every tick under a governor, otherwise only the one that exceeds
        #: ``max_steps``.  Compiled code compares against it inline.
        max_steps = limits.max_steps
        self.step_cap = (-1 if governor is not None
                         else math.inf if max_steps is None else max_steps)

    # --------------------------------------------------------------- ticks

    def tick(self) -> None:
        stats = self.stats
        stats.steps += 1
        if stats.steps > self.step_cap:
            self.check_steps()

    def check_steps(self) -> None:
        """The step limit and the governor, for a tick past :attr:`step_cap`."""
        limit = self.limits.max_steps
        steps = self.stats.steps
        if limit is not None and steps > limit:
            raise ResourceLimitExceeded("steps", limit, steps)
        governor = self.governor
        if governor is not None:
            governor.tick()

    def call_tick(self) -> None:
        self.stats.function_calls += 1
        self.tick()

    def enter(self, name: str) -> None:
        """The recursion guard: SRL definitions may not re-enter."""
        if name in self.active:
            raise SRLRuntimeError(
                f"recursive call of {name}: SRL functions are closed "
                "under composition only, recursion is not part of the language"
            )
        self.active.add(name)

    def exit(self, name: str) -> None:
        self.active.discard(name)

    # ---------------------------------------------------------- operations

    def insert(self, element: Value, target: Value) -> SRLSet:
        if not isinstance(target, SRLSet):
            raise SRLRuntimeError(f"insert into a non-set: {target!r}")
        stats = self.stats
        stats.inserts += 1
        limit = self.limits.max_inserts
        if limit is not None and stats.inserts > limit:
            raise ResourceLimitExceeded("inserts", limit, stats.inserts)
        result = target.insert(element)
        size = len(result)
        if size > stats.max_set_size:
            stats.max_set_size = size
        size_limit = self.limits.max_set_size
        if size_limit is not None and size > size_limit:
            raise ResourceLimitExceeded("set size", size_limit, size)
        return result

    def choose(self, source: Value) -> Value:
        if not isinstance(source, SRLSet):
            raise SRLRuntimeError(f"choose applied to a non-set: {source!r}")
        if self.atom_order is None:
            return source.choose()  # O(1): the canonical minimum is element 0
        elements = source.ordered_under(self.atom_order)
        if not elements:
            raise SRLRuntimeError("choose applied to the empty set")
        return elements[0]

    def rest(self, source: Value) -> Value:
        if not isinstance(source, SRLSet):
            raise SRLRuntimeError(f"rest applied to a non-set: {source!r}")
        if self.atom_order is None:
            return source.rest()  # O(n) slice, no re-sort
        elements = source.ordered_under(self.atom_order)
        if not elements:
            raise SRLRuntimeError("rest applied to the empty set")
        return SRLSet(elements[1:])

    def new(self, source: Value) -> Value:
        """An atom guaranteed not to be in ``source``; the caller has passed
        :meth:`check_new` before evaluating ``source``.

        Equivalent to the unbounded successor of Section 5: the fresh atom's
        rank is one more than the largest rank occurring anywhere in the set.
        """
        if not isinstance(source, SRLSet):
            raise SRLRuntimeError(f"new applied to a non-set: {source!r}")
        self.stats.new_values += 1
        self.new_counter = max(self.new_counter, max_atom_rank(source) + 1)
        fresh = Atom(self.new_counter)
        self.new_counter += 1
        return fresh

    def cons(self, item: Value, target: Value) -> SRLList:
        if not isinstance(target, SRLList):
            raise SRLRuntimeError(f"cons onto a non-list: {target!r}")
        result = target.cons(item)
        length = len(result)
        if length > self.stats.max_list_length:
            self.stats.max_list_length = length
        return result

    def emptylist(self) -> SRLList:
        self.check_lists()
        return SRLList()

    def check_lists(self) -> None:
        if not self.allow_lists:
            raise SRLRuntimeError("list values are disabled by the evaluation limits")

    def check_new(self) -> None:
        if not self.limits.allow_new:
            raise SRLRuntimeError(
                "new (invented values) is disabled: the program is being run "
                "under plain-SRL semantics"
            )

    def ordered(self, source: SRLSet) -> Sequence[Value]:
        """The elements of ``source`` in the (possibly permuted) scan order."""
        if self.atom_order is None:
            return source.elements
        return source.ordered_under(self.atom_order)

    def note_acc(self, value: Value) -> None:
        """The accumulator gauges, after every reduce iteration."""
        stats = self.stats
        size = value_size(value)
        if size > stats.max_accumulator_size:
            stats.max_accumulator_size = size
        if isinstance(value, SRLSet):
            set_size = len(value)
            if set_size > stats.max_set_size:
                stats.max_set_size = set_size
            limit = self.limits.max_set_size
            if limit is not None and set_size > limit:
                raise ResourceLimitExceeded("set size", limit, set_size)
        elif isinstance(value, SRLList):
            if len(value) > stats.max_list_length:
                stats.max_list_length = len(value)


class Evaluator:
    """Evaluates SRL expressions and programs.

    Parameters
    ----------
    program:
        The program whose definitions ``Call`` nodes refer to.  May be
        ``None`` for standalone expressions.
    limits:
        Resource budgets; defaults to :class:`EvaluationLimits`.
    atom_order:
        An optional permutation of atom ranks.  When given, ``choose``
        scans sets in the permuted order instead of the natural one — this
        is how the Section 7 order-independence tester varies the
        implementation order without touching the program or the data.
        ``atom_order[rank]`` is the position of the atom with that rank.
    governor:
        An optional :class:`~repro.core.governor.Governor` ticked with
        every step.
    stats:
        An optional stats object to fill in place (it stays readable when
        a run aborts on a limit); ``self.stats`` otherwise starts fresh.

    The counters accumulate over every :meth:`run` / :meth:`call` of one
    evaluator, and so does the ``new`` counter.
    """

    def __init__(
        self,
        program: Program | None = None,
        limits: EvaluationLimits | None = None,
        atom_order: Sequence[int] | None = None,
        governor=None,
        stats: EvaluationStats | None = None,
    ):
        self.program = program if program is not None else Program()
        self.limits = limits if limits is not None else EvaluationLimits()
        self.atom_order = tuple(atom_order) if atom_order is not None else None
        self.runtime = Runtime(self.limits, self.atom_order, stats, governor)
        self.stats = self.runtime.stats
        self._tick = self.runtime.tick

    # ------------------------------------------------------------------ API

    def run(self, database: Database | Mapping[str, object] | None = None,
            main: Expr | None = None) -> Value:
        """Evaluate ``main`` (or the program's main expression) against the
        database and return the resulting value."""
        if not isinstance(database, Database):
            database = Database(database or {})
        expr = main if main is not None else self.program.main
        if expr is None:
            raise SRLRuntimeError("program has no main expression to evaluate")
        env = Environment(database)
        return self.evaluate(expr, env)

    def call(self, name: str, *args: Value,
             database: Database | Mapping[str, object] | None = None) -> Value:
        """Invoke a named definition directly with already-evaluated values."""
        if not isinstance(database, Database):
            database = Database(database or {})
        definition = self.program.get(name)
        env = Environment(database)
        return self._apply_definition(definition, list(args), env)

    # ------------------------------------------------------------ internals

    def evaluate(self, expr: Expr, env: Environment) -> Value:
        """Evaluate ``expr`` in ``env``.

        Dispatch is by a per-node-type table (``type(expr)`` → handler)
        instead of the seed's ~20-branch isinstance chain, so every node
        pays one dict lookup rather than a position-dependent scan.
        """
        self._tick()
        handler = _DISPATCH.get(type(expr))
        if handler is None:
            # Subclasses of AST nodes still dispatch (at a one-off cost);
            # anything else is a genuine error.
            for node_type, node_handler in _DISPATCH.items():
                if isinstance(expr, node_type):
                    handler = node_handler
                    break
            else:
                if isinstance(expr, Lambda):
                    raise SRLRuntimeError(
                        "a lambda can only appear as the app/acc argument of a reduce"
                    )
                raise SRLRuntimeError(
                    f"cannot evaluate expression of type {type(expr).__name__}"
                )
        return handler(self, expr, env)

    # ------------------------------------------------------------- handlers

    def _eval_const(self, expr, env: Environment) -> Value:
        return expr.value

    def _eval_var(self, expr: Var, env: Environment) -> Value:
        return env.lookup(expr.name)

    def _eval_if(self, expr: If, env: Environment) -> Value:
        condition = self.evaluate(expr.cond, env)
        if not isinstance(condition, bool):
            raise SRLRuntimeError(
                f"if condition evaluated to a non-boolean: {condition!r}"
            )
        branch = expr.then_branch if condition else expr.else_branch
        return self.evaluate(branch, env)

    def _eval_tuple(self, expr: TupleExpr, env: Environment) -> Value:
        return SRLTuple(self.evaluate(item, env) for item in expr.items)

    def _eval_select(self, expr: Select, env: Environment) -> Value:
        target = self.evaluate(expr.target, env)
        if not isinstance(target, SRLTuple):
            raise SRLRuntimeError(
                f"sel_{expr.index} applied to a non-tuple: {target!r}"
            )
        return target.select(expr.index)

    def _eval_equal(self, expr: Equal, env: Environment) -> Value:
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        return value_equal(left, right)

    def _eval_lesseq(self, expr: LessEq, env: Environment) -> Value:
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        return value_key(left, self.atom_order) <= value_key(right, self.atom_order)

    def _eval_emptyset(self, expr: EmptySet, env: Environment) -> Value:
        return EMPTY_SET

    def _eval_insert(self, expr: Insert, env: Environment) -> Value:
        element = self.evaluate(expr.element, env)
        return self.runtime.insert(element, self.evaluate(expr.target, env))

    def _eval_choose(self, expr: Choose, env: Environment) -> Value:
        return self.runtime.choose(self.evaluate(expr.source, env))

    def _eval_rest(self, expr: Rest, env: Environment) -> Value:
        return self.runtime.rest(self.evaluate(expr.source, env))

    def _eval_emptylist(self, expr: EmptyList, env: Environment) -> Value:
        return self.runtime.emptylist()

    def _eval_cons(self, expr: ConsList, env: Environment) -> Value:
        self.runtime.check_lists()
        item = self.evaluate(expr.item, env)
        return self.runtime.cons(item, self.evaluate(expr.target, env))

    # ------------------------------------------------------------- reducers

    def _reduce_loop(self, expr: SetReduce | ListReduce, items: Sequence[Value],
                     base: Value, extra: Value, env: Environment,
                     is_set_reduce: bool) -> Value:
        """The shared fold of set-reduce and list-reduce.

        Per rule 9 only the lambda's own parameters may occur free in its
        body (everything else must be threaded through ``extra``), but the
        paper's own example programs freely reference the input relations
        (e.g. ``EDGES`` in Lemma 3.6), so database names and function
        definitions remain visible.  Enclosing lambda parameters do *not*.
        The two lambda scopes are therefore allocated once and their
        parameter slots rebound per iteration: no evaluation step can
        observe or retain the recycled Environment.
        """
        app, acc = expr.app, expr.acc
        runtime = self.runtime
        stats = runtime.stats
        database = env.database
        app_scope = Environment(database, {})
        acc_scope = Environment(database, {})
        app_bindings, acc_bindings = app_scope.bindings, acc_scope.bindings
        app_first, app_second = app.params
        acc_first, acc_second = acc.params
        accumulator = base
        iterations = 0
        try:
            for item in items:
                iterations += 1
                self._tick()
                app_bindings[app_first] = item
                app_bindings[app_second] = extra
                applied = self.evaluate(app.body, app_scope)
                acc_bindings[acc_first] = applied
                acc_bindings[acc_second] = accumulator
                accumulator = self.evaluate(acc.body, acc_scope)
                runtime.note_acc(accumulator)
        finally:
            # Flushed here so the counters stay exact even when a resource
            # limit aborts the fold mid-iteration.
            if is_set_reduce:
                stats.set_reduce_iterations += iterations
            else:
                stats.list_reduce_iterations += iterations
        return accumulator

    def _evaluate_set_reduce(self, expr: SetReduce, env: Environment) -> Value:
        source = self.evaluate(expr.source, env)
        if not isinstance(source, SRLSet):
            raise SRLRuntimeError(f"set-reduce over a non-set: {source!r}")
        base = self.evaluate(expr.base, env)
        extra = self.evaluate(expr.extra, env)
        # Thread the accumulator through the elements smallest-first (see the
        # module docstring for why this is the ascending direction).
        return self._reduce_loop(expr, self.runtime.ordered(source), base,
                                 extra, env, True)

    def _evaluate_list_reduce(self, expr: ListReduce, env: Environment) -> Value:
        self.runtime.check_lists()
        source = self.evaluate(expr.source, env)
        if not isinstance(source, SRLList):
            raise SRLRuntimeError(f"list-reduce over a non-list: {source!r}")
        base = self.evaluate(expr.base, env)
        extra = self.evaluate(expr.extra, env)
        # Lists thread head-first, mirroring the set case.
        return self._reduce_loop(expr, source.items, base, extra, env, False)

    # ----------------------------------------------------------- calls, new

    def _apply_definition(self, definition: FunctionDef, args: list[Value],
                          env: Environment) -> Value:
        if len(args) != len(definition.params):
            raise SRLRuntimeError(
                f"{definition.name} expects {len(definition.params)} arguments, "
                f"got {len(args)}"
            )
        runtime = self.runtime
        runtime.enter(definition.name)
        try:
            # The call's step was ticked when its node was visited.
            runtime.stats.function_calls += 1
            scope = Environment(env.database, dict(zip(definition.params, args)))
            return self.evaluate(definition.body, scope)
        finally:
            runtime.exit(definition.name)

    def _evaluate_call(self, expr: Call, env: Environment) -> Value:
        definition = self.program.definitions.get(expr.name)
        if definition is None:
            raise SRLNameError(f"call of unknown function: {expr.name}")
        args = [self.evaluate(arg, env) for arg in expr.args]
        return self._apply_definition(definition, args, env)

    def _evaluate_new(self, expr: New, env: Environment) -> Value:
        self.runtime.check_new()
        return self.runtime.new(self.evaluate(expr.source, env))


#: The evaluator's per-node-type dispatch table.  Built once at import time;
#: ``evaluate`` resolves ``type(expr)`` through it in a single dict lookup.
_DISPATCH = {
    BoolConst: Evaluator._eval_const,
    AtomConst: Evaluator._eval_const,
    NatConst: Evaluator._eval_const,
    Var: Evaluator._eval_var,
    If: Evaluator._eval_if,
    TupleExpr: Evaluator._eval_tuple,
    Select: Evaluator._eval_select,
    Equal: Evaluator._eval_equal,
    LessEq: Evaluator._eval_lesseq,
    EmptySet: Evaluator._eval_emptyset,
    Insert: Evaluator._eval_insert,
    SetReduce: Evaluator._evaluate_set_reduce,
    Call: Evaluator._evaluate_call,
    New: Evaluator._evaluate_new,
    Choose: Evaluator._eval_choose,
    Rest: Evaluator._eval_rest,
    EmptyList: Evaluator._eval_emptylist,
    ConsList: Evaluator._eval_cons,
    ListReduce: Evaluator._evaluate_list_reduce,
}

# The module-level run_program / run_expression facades live in
# repro.core.engine (with backend selection); repro.core re-exports them.
