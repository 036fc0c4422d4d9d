"""The unified execution engine: one front door for running SRL programs.

Every consumer of the runtime — the logic model checker, the paper's query
programs, the Turing-machine compiler, the benchmarks and the examples —
executes through this module instead of wiring up evaluators by hand.  A
:class:`Session` owns a program, resource limits and an implementation
order, and runs it on one of three interchangeable backends:

``compiled``
    The default of every entry point, and the one production executor.
    The program is lowered once to the register IR (:mod:`repro.core.ir`)
    and compiled to Python closures (:mod:`repro.core.compiler`); any
    reduce nesting compiles.  ``steps`` counts reduce iterations and calls
    rather than AST node visits.

``interp``
    The instrumented tree-walking :class:`~repro.core.evaluator.Evaluator`
    — the reference operational semantics, with per-node step counting
    (the unit of Proposition 6.1's ``n^{ad}`` bound).  Measurements stated
    in node visits pin it explicitly.

``reference``
    The oracle bundle: the same interpreter, but with naive fixed points
    (:attr:`Session.seminaive`), tuple-at-a-time logic
    (:attr:`Session.logic_backend`) and no plan optimizer
    (:attr:`Session.logic_optimize`).  Exists as a differential baseline.

All three agree on values and on the semantically determined counters
(``inserts``, reduce iterations, ``function_calls``, ``new_values``, peak
sizes): both executors call the same instrumented operations of
:class:`~repro.core.evaluator.Runtime`, and the differential suite in
``tests/integration`` pins the agreement down.

The module also hosts the *relational kernels* (least fixed points,
transitive closures, quantifier loops) that the logic layer's brute-force
model checking shares with future batched/sharded execution paths — they
live here so every fixed-point-shaped computation in the repo flows through
one engine.  The fixed-point kernels come in two strategies (see
:mod:`repro.core.relalg` and DESIGN.md, "Semi-naive evaluation"):
*semi-naive* delta propagation, the production path, and *naive* full
re-derivation, kept as the differential oracle.  :meth:`Session.least_fixpoint`
and :meth:`Session.transitive_closure` pick the strategy from the session's
backend — ``compiled`` and ``interp`` run semi-naive, ``reference`` runs
naive — so consumers that hold a session inherit the right kernel for
differential work automatically.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .ast import Expr, Program
from .compiler import CompiledProgram
from .environment import Database
from .errors import InvalidDatabaseError
from .evaluator import EvaluationLimits, EvaluationStats, Evaluator
from .governor import Budget
from .relalg import (
    IndexedRelation,
    naive_closure,
    naive_fixpoint,
    seminaive_closure,
    seminaive_fixpoint,
)
from .values import (
    Atom,
    SRLList,
    SRLSet,
    SRLTuple,
    Value,
)

__all__ = [
    "BACKENDS",
    "Session",
    "run_program",
    "run_expression",
    "IndexedRelation",
    "least_fixpoint",
    "transitive_closure",
    "exists_binding",
    "forall_binding",
    "count_bindings",
    "database_from_json",
]

#: The engine's interchangeable execution backends.
BACKENDS = ("compiled", "interp", "reference")


class Session:
    """A configured execution context for one program.

    Parameters
    ----------
    program:
        The program to execute (``None`` for standalone expressions passed
        to :meth:`run` via ``main=``).
    limits:
        Resource budgets shared by every run of the session.
    atom_order:
        Optional permutation of atom ranks (the Section 7 implementation
        order); can also be overridden per run.
    backend:
        One of :data:`BACKENDS`; defaults to ``"compiled"``.
    logic_backend:
        Optional explicit logic-layer strategy (one of
        :data:`repro.logic.eval.LOGIC_BACKENDS`); by default it is derived
        from ``backend`` (see :attr:`logic_backend`).
    budget:
        Optional :class:`~repro.core.governor.Budget` (deadline, row /
        round / memo caps, cancel token).  Each run and each logic-layer
        call starts a fresh governor from it, so the caps are per-query,
        not cumulative across the session.

    The session compiles lazily on first use and re-compiles automatically
    if the program's definitions are changed between runs.  ``stats`` always
    reflects the most recent execution, including one aborted by a resource
    limit (the counters then show how far it got).
    """

    def __init__(
        self,
        program: Program | None = None,
        limits: EvaluationLimits | None = None,
        atom_order: Sequence[int] | None = None,
        backend: str = "compiled",
        budget: Budget | None = None,
        logic_backend: str | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}: expected one of {BACKENDS}"
            )
        if logic_backend is not None:
            from repro.logic.eval import LOGIC_BACKENDS
            if logic_backend not in LOGIC_BACKENDS:
                raise ValueError(
                    f"unknown logic backend {logic_backend!r}: expected one "
                    f"of {LOGIC_BACKENDS}"
                )
        self.program = program if program is not None else Program()
        self.limits = limits if limits is not None else EvaluationLimits()
        self.atom_order = tuple(atom_order) if atom_order is not None else None
        self.backend = backend
        self.budget = budget
        # Explicit logic-layer strategy; ``None`` derives it from the
        # engine backend (see :attr:`logic_backend`).
        self._logic_backend_override = logic_backend
        #: The session's degradation audit log: every time the logic layer
        #: dropped a rung (optimized plan -> raw plan -> tuple oracle, or
        #: skipped a memo store), a
        #: :class:`~repro.core.governor.DegradationEvent` lands here.
        self.degradations: list = []
        self.stats = EvaluationStats()
        self._compiled: CompiledProgram | None = None
        self._compiled_key: tuple | None = None
        # One-slot cache for evaluate_formula: (structure, checker).  Reusing
        # the checker keeps its per-(formula, auxiliary) relation memo warm
        # across calls, so querying many assignments against one structure
        # executes each compiled plan once, not once per call.
        self._logic_checker: tuple | None = None

    # ------------------------------------------------------------------ API

    def run(self, database: Database | Mapping[str, object] | None = None,
            main: Expr | None = None,
            atom_order: Sequence[int] | None = None) -> Value:
        """Run ``main`` (or the program's main expression) against the
        database; returns the value and records stats on the session."""
        value, self.stats = self._execute("run", database, main, atom_order)
        return value

    def call(self, name: str, *args: Value,
             database: Database | Mapping[str, object] | None = None,
             atom_order: Sequence[int] | None = None) -> Value:
        """Invoke a named definition with already-evaluated values."""
        value, self.stats = self._execute("call", database, None, atom_order,
                                          name=name, args=args)
        return value

    def run_with_stats(
        self, database: Database | Mapping[str, object] | None = None,
        main: Expr | None = None,
        atom_order: Sequence[int] | None = None,
    ) -> tuple[Value, EvaluationStats]:
        """Like :meth:`run`, returning ``(value, stats)``."""
        value = self.run(database, main=main, atom_order=atom_order)
        return value, self.stats

    # ------------------------------------------------- relational kernels

    @property
    def seminaive(self) -> bool:
        """Whether this session's fixed-point kernels propagate deltas.

        ``compiled`` and ``interp`` run the semi-naive kernels; the
        ``reference`` backend keeps the naive full-re-derivation strategy
        as the differential oracle (DESIGN.md, "Semi-naive evaluation").
        """
        return self.backend != "reference"

    def _governor(self, stats=None):
        """A fresh per-run governor from the session budget (or ``None``)."""
        if self.budget is None:
            return None
        return self.budget.start(stats)

    def least_fixpoint(self, step=None, initial: frozenset = frozenset(), *,
                       delta_step=None) -> frozenset:
        """:func:`least_fixpoint` with the strategy picked by the backend."""
        return least_fixpoint(step, initial, delta_step=delta_step,
                              seminaive=self.seminaive,
                              governor=self._governor())

    def transitive_closure(self, successors: Mapping, deterministic: bool = False
                           ) -> set[tuple]:
        """:func:`transitive_closure` with the strategy picked by the backend."""
        return transitive_closure(successors, deterministic=deterministic,
                                  seminaive=self.seminaive,
                                  governor=self._governor())

    # --------------------------------------------------------- logic facade

    @property
    def logic_backend(self) -> str:
        """The logic layer's evaluation strategy for this session.

        The production backends (``compiled``, ``interp``) evaluate
        formulas set-at-a-time through the relational-plan pipeline
        (:mod:`repro.logic.plan`); the ``reference`` backend keeps the
        tuple-at-a-time enumeration as the differential oracle — the same
        production/oracle split as :attr:`seminaive`.  The constructor's
        ``logic_backend`` argument overrides the derivation (e.g.
        ``"columnar"`` for the bitset/CSR plan walker of
        :mod:`repro.logic.codegen`).
        """
        if self._logic_backend_override is not None:
            return self._logic_backend_override
        return "tuple" if self.backend == "reference" else "plan"

    @property
    def logic_optimize(self) -> bool:
        """Whether this session's plan-backend formulas run through the
        plan optimizer (:mod:`repro.logic.optimize`).  The production
        backends optimize; ``reference`` evaluates tuple-at-a-time anyway,
        and stays the differential oracle."""
        return self.backend != "reference"

    def define_relation(self, formula, structure, variables,
                        memoize: bool = True) -> frozenset:
        """:func:`repro.logic.eval.define_relation` with the logic backend
        and fixed-point strategy picked by this session's backend."""
        from repro.logic.eval import define_relation
        return define_relation(formula, structure, tuple(variables),
                               memoize=memoize, seminaive=self.seminaive,
                               backend=self.logic_backend,
                               optimize=self.logic_optimize,
                               budget=self.budget,
                               degradations=self.degradations)

    def evaluate_formula(self, formula, structure, assignment=None) -> bool:
        """:func:`repro.logic.eval.evaluate` with the logic backend and
        fixed-point strategy picked by this session's backend.

        The checker (and therefore its memoized defined relations / fixed
        points) is reused across calls against the same structure, so a
        loop over assignments pays for each formula's plan execution or
        closure once.  Mutate the structure through :meth:`update` (never
        by hand) and the memo is maintained incrementally instead of going
        stale."""
        checker = self._checker_for(structure)
        mark = len(checker.degradations)
        try:
            return checker.evaluate(formula, assignment)
        finally:
            self.degradations.extend(checker.degradations[mark:])

    def update(self, structure, changeset) -> "Changeset":
        """Apply ``changeset`` to ``structure`` and incrementally maintain
        whatever this session has memoized against it (Dyn-FO; see
        :meth:`repro.logic.eval.ModelChecker.apply_update`).  Returns the
        net changeset.  When the session holds no checker for this
        structure the facts are simply applied — there is nothing to
        maintain yet."""
        cached = self._logic_checker
        if cached is not None and cached[0] is structure \
                and cached[1] == (self.logic_backend, self.budget):
            checker = cached[2]
            mark = len(checker.degradations)
            try:
                return checker.apply_update(changeset)
            finally:
                self.degradations.extend(checker.degradations[mark:])
        return structure.apply(changeset)

    def _checker_for(self, structure) -> "ModelChecker":
        """The session's per-structure checker, created on first use and
        reused while the structure identity and backend settings hold.

        Thread note: the slot is a single tuple read/written atomically
        (CPython attribute assignment), and the checker itself serializes
        its public entry points, so concurrent sessions threads are safe;
        a lost race here merely builds a redundant checker."""
        from repro.logic.eval import ModelChecker
        cached = self._logic_checker
        if cached is not None and cached[0] is structure \
                and cached[1] == (self.logic_backend, self.budget):
            return cached[2]
        checker = ModelChecker(structure, seminaive=self.seminaive,
                               backend=self.logic_backend,
                               optimize=self.logic_optimize,
                               budget=self.budget)
        self._logic_checker = (structure,
                               (self.logic_backend, self.budget), checker)
        return checker

    # ------------------------------------------------------------ internals

    def _order(self, atom_order: Sequence[int] | None) -> tuple[int, ...] | None:
        if atom_order is not None:
            return tuple(atom_order)
        return self.atom_order

    def _compiled_for(self, main: Expr | None) -> CompiledProgram:
        # The key holds the actual expression/definition objects (keeping
        # them alive) and compares by identity, so a freed-and-reallocated
        # expression can never collide with a stale cache entry.
        definitions = self.program.definitions
        key = (
            main if main is not None else self.program.main,
            tuple(definitions),
            tuple(definitions.values()),
        )
        cached = self._compiled_key
        if (
            cached is None
            or key[0] is not cached[0]
            or key[1] != cached[1]
            or len(key[2]) != len(cached[2])
            or any(new is not old for new, old in zip(key[2], cached[2]))
        ):
            self._compiled = CompiledProgram(self.program, main=main)
            self._compiled_key = key
        return self._compiled

    def _execute(self, mode, database, main, atom_order, name=None, args=()):
        order = self._order(atom_order)
        compiled = self._compiled_for(main) if self.backend == "compiled" else None
        # Install the stats object up front so an aborted run still leaves
        # its partial counters readable on the session.
        self.stats = stats = EvaluationStats()
        governor = self._governor(stats)
        if governor is not None:
            # One unamortized check up front: an already-expired deadline or
            # pre-cancelled token stops the run before any work, however
            # short the program.
            governor.check_time()
        if compiled is not None:
            if mode == "run":
                return compiled.run(database, limits=self.limits,
                                    atom_order=order, stats=stats,
                                    governor=governor)
            return compiled.call(name, *args, database=database,
                                 limits=self.limits, atom_order=order,
                                 stats=stats, governor=governor)
        evaluator = Evaluator(self.program, self.limits, order, governor, stats)
        if mode == "run":
            return evaluator.run(database, main=main), stats
        return evaluator.call(name, *args, database=database), stats


def run_program(program: Program,
                database: Database | Mapping[str, object] | None = None,
                limits: EvaluationLimits | None = None,
                atom_order: Sequence[int] | None = None,
                backend: str = "compiled") -> Value:
    """Evaluate a program's main expression through the engine facade.

    ``backend`` defaults to the compiled executor, like :class:`Session`;
    pass ``backend="interp"`` where a measurement is defined in AST-node
    visits.
    """
    return Session(program, limits, atom_order, backend=backend).run(database)


def run_expression(expr: Expr,
                   database: Database | Mapping[str, object] | None = None,
                   program: Program | None = None,
                   limits: EvaluationLimits | None = None,
                   atom_order: Sequence[int] | None = None,
                   backend: str = "compiled") -> Value:
    """Evaluate a standalone expression (optionally with auxiliary
    definitions available through ``program``) through the engine facade."""
    return Session(program, limits, atom_order, backend=backend).run(
        database, main=expr
    )


# ------------------------------------------------------------------ kernels
#
# Relational primitives shared by the logic layer's model checking.  They
# are deliberately tiny and allocation-light: the model checker calls
# exists/forall once per quantifier node per assignment.

_T = TypeVar("_T")
_Node = TypeVar("_Node")

#: Sentinel distinguishing "variable was unbound" from "bound to 0".
_UNBOUND = object()


def least_fixpoint(step: Callable[[frozenset], frozenset] | None = None,
                   initial: frozenset = frozenset(), *,
                   delta_step: Callable[[frozenset, set], Iterable] | None = None,
                   seminaive: bool = True, governor=None) -> frozenset:
    """The least fixed point of an inflationary operator.

    Two calling conventions, matching the two evaluation strategies of
    :mod:`repro.core.relalg`:

    * ``least_fixpoint(step, initial)`` — a black-box full-relation
      operator, iterated naively until it stabilizes (the only option when
      the caller cannot say which derivations touch new facts).
    * ``least_fixpoint(initial=..., delta_step=...)`` — semi-naive:
      ``delta_step(delta, total)`` returns the facts derivable with at
      least one premise in ``delta``, and only deltas are propagated.
      Pass ``seminaive=False`` to run the same ``delta_step`` naively
      (every round re-derives from the entire relation) — the differential
      oracle the ``reference`` backend uses.

    The operator is assumed inflationary/monotone (as the LFP stage
    operators of the logic layer are), so the iteration terminates on any
    finite domain.
    """
    if delta_step is not None:
        if step is not None:
            raise TypeError("pass either step or delta_step, not both")
        if seminaive:
            return seminaive_fixpoint(initial, delta_step, governor=governor)
        # Naive evaluation of a delta-phrased operator: every round hands
        # the *whole* accumulated relation back as the "delta".
        return naive_fixpoint(
            lambda current: current | frozenset(delta_step(current, set(current))),
            frozenset(initial),
            governor=governor,
        )
    if step is None:
        raise TypeError("least_fixpoint needs a step or a delta_step")
    return naive_fixpoint(step, initial, governor=governor)


def transitive_closure(successors: Mapping[_Node, Iterable[_Node]],
                       deterministic: bool = False, *,
                       seminaive: bool = True,
                       governor=None) -> set[tuple[_Node, _Node]]:
    """The reflexive transitive closure of a successor relation.

    ``deterministic`` keeps only out-degree-1 edges first (the DTC reading:
    ``phi_d(x, x') = phi(x, x')`` and ``x'`` is the unique successor of
    ``x``).  The closure is computed by semi-naive delta propagation over
    the successor index; ``seminaive=False`` selects the naive
    re-derive-everything iteration (the ``reference`` oracle and the P2
    benchmark baseline).
    """
    if seminaive:
        return seminaive_closure(successors, deterministic=deterministic,
                                 governor=governor)
    return naive_closure(successors, deterministic=deterministic,
                         governor=governor)


def _restore(assignment: dict, variable, saved) -> None:
    if saved is _UNBOUND:
        assignment.pop(variable, None)
    else:
        assignment[variable] = saved


def exists_binding(universe: Iterable[_T], assignment: dict, variable,
                   evaluate: Callable[[object, dict], bool], body) -> bool:
    """``∃ variable ∈ universe``: rebind in place, test, restore.

    ``evaluate(body, assignment)`` decides each binding; passing the
    evaluator and formula separately (rather than a thunk) keeps the hot
    quantifier loop free of per-visit closure allocation, and the
    mutate-and-restore protocol avoids copying the assignment per binding.
    """
    saved = assignment.get(variable, _UNBOUND)
    try:
        for value in universe:
            assignment[variable] = value
            if evaluate(body, assignment):
                return True
        return False
    finally:
        _restore(assignment, variable, saved)


def forall_binding(universe: Iterable[_T], assignment: dict, variable,
                   evaluate: Callable[[object, dict], bool], body) -> bool:
    """``∀ variable ∈ universe`` under the mutate-and-restore protocol."""
    saved = assignment.get(variable, _UNBOUND)
    try:
        for value in universe:
            assignment[variable] = value
            if not evaluate(body, assignment):
                return False
        return True
    finally:
        _restore(assignment, variable, saved)


def count_bindings(universe: Iterable[_T], assignment: dict, variable,
                   evaluate: Callable[[object, dict], bool], body) -> int:
    """The number of bindings of ``variable`` satisfying the body."""
    saved = assignment.get(variable, _UNBOUND)
    witnesses = 0
    try:
        for value in universe:
            assignment[variable] = value
            if evaluate(body, assignment):
                witnesses += 1
    finally:
        _restore(assignment, variable, saved)
    return witnesses


# ---------------------------------------------------------------- databases


def database_from_json(data: Mapping[str, object]) -> Database:
    """Build a :class:`Database` from JSON-shaped data (the CLI input
    format).

    Per value: ``true``/``false`` are booleans; a bare integer is an atom
    rank; an *untagged* array is a **set** whose untagged array elements are
    **tuples** (the common shape of relations: ``"EDGES": [[0, 1], [1, 2]]``).
    Deeper or ambiguous nesting uses tagged objects::

        {"atom": 3}  {"nat": 7}  {"set": [...]}  {"tuple": [...]}  {"list": [...]}
    """
    if not isinstance(data, Mapping):
        raise InvalidDatabaseError(
            "database JSON must be an object of name -> value, got "
            f"{type(data).__name__}"
        )
    database = Database()
    for name, value in data.items():
        path = str(name)
        try:
            database.bind(name, _json_value(value, depth=0, path=path))
        except InvalidDatabaseError:
            raise
        except (TypeError, ValueError) as error:
            # Malformed tagged values (e.g. {"atom": "three"}, {"set": 5})
            # surface as the library's own error so the CLI reports them
            # cleanly instead of crashing with a raw traceback.
            raise InvalidDatabaseError(
                f"{path!r}: cannot read an SRL value: {error}"
            ) from error
    return database


def _json_value(obj, depth: int, path: str = "") -> Value:
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return Atom(obj)
    if isinstance(obj, list):
        items = (_json_value(item, depth + 1, f"{path}[{index}]")
                 for index, item in enumerate(obj))
        if depth == 0:
            return SRLSet(items)
        return SRLTuple(items)
    if isinstance(obj, Mapping):
        if len(obj) == 1 or (len(obj) == 2 and "atom" in obj and "name" in obj):
            if "atom" in obj:
                return Atom(int(obj["atom"]), str(obj.get("name", "")))
            if "nat" in obj:
                return int(obj["nat"])
            if "set" in obj:
                return SRLSet(_json_value(item, 1, f"{path}.set[{index}]")
                              for index, item in enumerate(obj["set"]))
            if "tuple" in obj:
                return SRLTuple(_json_value(item, 1, f"{path}.tuple[{index}]")
                                for index, item in enumerate(obj["tuple"]))
            if "list" in obj:
                return SRLList(_json_value(item, 1, f"{path}.list[{index}]")
                               for index, item in enumerate(obj["list"]))
    raise InvalidDatabaseError(
        f"{path!r}: cannot read an SRL value from JSON fragment {obj!r}"
    )
