"""Proposition 6.2: compiling a Turing machine into an SRL expression.

The paper shows that a DTIME(n) Turing machine can be simulated by an SRL
expression of width 2 and depth 3: the input is the set of pairs
``{[position, symbol]}``, the work tape is another set of pairs, and a
``set-reduce`` over the position domain iterates the machine's step
function once per element.  Corollary 6.3 extends the idea to DTIME(n^k)
with width k+1 and depth k+3 by nesting the iteration.

:func:`compile_machine` performs exactly that construction for any
single-tape :class:`~repro.machines.tm.TuringMachine`:

* the configuration is the width-3 tuple ``[TAPE, HEAD, STATE]`` where
  ``TAPE`` is a set of width-2 ``[position, symbol]`` pairs — the only sets
  the program builds have width-2 tuples, matching the paper's "width 2";
* one *pass* (``run-pass``) is a ``set-reduce`` over the position domain
  ``D`` that applies the machine's transition once per element, so a pass
  executes ``|D|`` machine steps; ``passes`` passes execute ``passes * |D|``
  steps (Corollary 6.3's ``n^k`` comes from nesting, which here is simply
  composing passes);
* the step function reads the scanned cell, looks the action up in the
  ``DELTA`` relation, writes, and moves the head using the
  increment/decrement scans of Proposition 4.5 — every helper has depth 1,
  a pass has depth 2 and the whole program depth 3, as the paper states.

The compiled program is an honest SRL program: it only uses the constructs
of Section 2 plus the standard library of Fact 2.4; all machine-specific
information (transition table, accepting states, blank symbol, move codes)
enters through the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core import (
    Atom,
    Database,
    EvaluationLimits,
    Program,
    Session,
    make_set,
    make_tuple,
    with_standard_library,
)
from repro.core import builders as b
from repro.core.analysis import ProgramAnalysis, analyze
from repro.core.typecheck import database_types

from .tm import BLANK, LEFT, RIGHT, STAY, TuringMachine

__all__ = ["CompiledMachine", "compile_machine"]


def _succ_pos_definition():
    """``succ-pos(p)``: the successor of ``p`` in the position domain ``D``
    (clamped at the maximum) — the Proposition 4.5 increment scan."""
    accumulator = b.lam(
        "a", "r",
        b.if_(
            b.and_(b.sel(1, b.var("r")), b.not_(b.sel(2, b.var("r")))),
            b.tup(b.true(), b.true(), b.sel(1, b.var("a"))),
            b.if_(
                b.eq(b.sel(1, b.var("a")), b.sel(2, b.var("a"))),
                b.tup(b.true(), b.sel(2, b.var("r")), b.sel(3, b.var("r"))),
                b.var("r"),
            ),
        ),
    )
    scan = b.set_reduce(
        b.var("D"),
        b.lam("d", "pp", b.tup(b.var("d"), b.var("pp"))),
        accumulator,
        b.tup(b.false(), b.false(), b.var("p")),
        b.var("p"),
    )
    return b.define("succ-pos", ["p"], b.sel(3, scan))


def _pred_pos_definition():
    """``pred-pos(p)``: the predecessor of ``p`` in ``D`` (clamped at the
    minimum) — the matching decrement scan."""
    accumulator = b.lam(
        "a", "r",
        b.if_(
            b.sel(1, b.var("r")),
            b.var("r"),
            b.if_(
                b.eq(b.sel(1, b.var("a")), b.sel(2, b.var("a"))),
                b.tup(
                    b.true(),
                    b.sel(2, b.var("r")),
                    b.sel(3, b.var("r")),
                    b.if_(b.sel(2, b.var("r")), b.sel(3, b.var("r")), b.sel(2, b.var("a"))),
                ),
                b.tup(b.false(), b.true(), b.sel(1, b.var("a")), b.sel(4, b.var("r"))),
            ),
        ),
    )
    scan = b.set_reduce(
        b.var("D"),
        b.lam("d", "pp", b.tup(b.var("d"), b.var("pp"))),
        accumulator,
        b.tup(b.false(), b.false(), b.var("p"), b.var("p")),
        b.var("p"),
    )
    return b.define("pred-pos", ["p"], b.sel(4, scan))


def _read_at_definition():
    """``read-at(T, p)``: the symbol at position ``p`` of tape ``T`` (blank
    when the cell is absent)."""
    accumulator = b.lam(
        "a", "r",
        b.if_(
            b.eq(b.sel(1, b.sel(1, b.var("a"))), b.sel(2, b.var("a"))),
            b.sel(2, b.sel(1, b.var("a"))),
            b.var("r"),
        ),
    )
    scan = b.set_reduce(
        b.var("T"),
        b.lam("c", "pp", b.tup(b.var("c"), b.var("pp"))),
        accumulator,
        b.var("BLANKSYM"),
        b.var("p"),
    )
    return b.define("read-at", ["T", "p"], scan)


def _write_at_definition():
    """``write-at(T, p, s)``: tape ``T`` with position ``p`` overwritten by
    symbol ``s``."""
    accumulator = b.lam(
        "a", "r",
        b.if_(
            b.eq(b.sel(1, b.sel(1, b.var("a"))), b.sel(1, b.sel(2, b.var("a")))),
            b.var("r"),
            b.insert(b.sel(1, b.var("a")), b.var("r")),
        ),
    )
    scan = b.set_reduce(
        b.var("T"),
        b.lam("c", "ps", b.tup(b.var("c"), b.var("ps"))),
        accumulator,
        b.insert(b.tup(b.var("p"), b.var("s")), b.emptyset()),
        b.tup(b.var("p"), b.var("s")),
    )
    return b.define("write-at", ["T", "p", "s"], scan)


def _lookup_delta_definition():
    """``lookup-delta(st, sym)``: the ``[new-state, write, move]`` triple for
    the current state and scanned symbol; defaults to "stay put, change
    nothing" so a missing transition is a halting fixpoint."""
    accumulator = b.lam(
        "a", "r",
        b.if_(
            b.and_(
                b.eq(b.sel(1, b.sel(1, b.var("a"))), b.sel(1, b.sel(2, b.var("a")))),
                b.eq(b.sel(2, b.sel(1, b.var("a"))), b.sel(2, b.sel(2, b.var("a")))),
            ),
            b.tup(
                b.sel(3, b.sel(1, b.var("a"))),
                b.sel(4, b.sel(1, b.var("a"))),
                b.sel(5, b.sel(1, b.var("a"))),
            ),
            b.var("r"),
        ),
    )
    scan = b.set_reduce(
        b.var("DELTA"),
        b.lam("t", "q", b.tup(b.var("t"), b.var("q"))),
        accumulator,
        b.tup(b.var("st"), b.var("sym"), b.var("MSTAY")),
        b.tup(b.var("st"), b.var("sym")),
    )
    return b.define("lookup-delta", ["st", "sym"], scan)


def _move_head_definition():
    return b.define(
        "move-head", ["p", "mv"],
        b.if_(
            b.eq(b.var("mv"), b.var("MLEFT")),
            b.call("pred-pos", b.var("p")),
            b.if_(
                b.eq(b.var("mv"), b.var("MRIGHT")),
                b.call("succ-pos", b.var("p")),
                b.var("p"),
            ),
        ),
    )


def _apply_action_definition():
    return b.define(
        "apply-action", ["C", "act"],
        b.tup(
            b.call("write-at", b.sel(1, b.var("C")), b.sel(2, b.var("C")), b.sel(2, b.var("act"))),
            b.call("move-head", b.sel(2, b.var("C")), b.sel(3, b.var("act"))),
            b.sel(1, b.var("act")),
        ),
    )


def _step_definition():
    return b.define(
        "step", ["C"],
        b.call(
            "apply-action",
            b.var("C"),
            b.call(
                "lookup-delta",
                b.sel(3, b.var("C")),
                b.call("read-at", b.sel(1, b.var("C")), b.sel(2, b.var("C"))),
            ),
        ),
    )


def _run_pass_definition():
    """One pass: ``|D|`` applications of the step function."""
    return b.define(
        "run-pass", ["C"],
        b.set_reduce(
            b.var("D"),
            b.lam("d", "e", b.var("d")),
            b.lam("a", "c", b.call("step", b.var("c"))),
            b.var("C"),
            b.emptyset(),
        ),
    )


@dataclass
class CompiledMachine:
    """The result of :func:`compile_machine`: an SRL program plus the
    encodings needed to build its input database."""

    machine: TuringMachine
    passes: int
    program: Program
    symbol_codes: Mapping[str, int]
    state_codes: Mapping[str, int]
    move_codes: Mapping[int, int] = field(
        default_factory=lambda: {LEFT: 0, STAY: 1, RIGHT: 2}
    )

    def tape_length_for(self, input_string: str) -> int:
        """One trailing blank cell is always provided so a rightward scan has
        somewhere to halt."""
        return max(len(input_string), 1) + 1

    def database_for(self, input_string: str,
                     tape_length: int | None = None) -> Database:
        """The database encoding the machine's transition table and the given
        input, ready to run the compiled program against."""
        if tape_length is None:
            tape_length = self.tape_length_for(input_string)
        positions = [Atom(i) for i in range(tape_length)]
        padded = (input_string + BLANK * tape_length)[:tape_length]
        tape = make_set(*(
            make_tuple(Atom(i), Atom(self.symbol_codes[symbol]))
            for i, symbol in enumerate(padded)
        ))
        delta_rows = []
        for (state, symbol), (new_state, write, move) in self.machine.transitions.items():
            delta_rows.append(make_tuple(
                Atom(self.state_codes[state]),
                Atom(self.symbol_codes[symbol]),
                Atom(self.state_codes[new_state]),
                Atom(self.symbol_codes[write]),
                Atom(self.move_codes[move]),
            ))
        database = Database({
            "D": make_set(*positions),
            "TAPE0": tape,
            "DELTA": make_set(*delta_rows),
            "START": Atom(self.state_codes[self.machine.start_state]),
            "ACCEPTING": make_set(*(
                Atom(self.state_codes[state]) for state in self.machine.accept_states
            )),
            "BLANKSYM": Atom(self.symbol_codes[BLANK]),
            "POS0": Atom(0),
            "MLEFT": Atom(self.move_codes[LEFT]),
            "MSTAY": Atom(self.move_codes[STAY]),
            "MRIGHT": Atom(self.move_codes[RIGHT]),
        })
        return database

    def run(self, input_string: str, tape_length: int | None = None,
            limits: EvaluationLimits | None = None,
            backend: str = "compiled") -> bool:
        """Evaluate the compiled SRL program on ``input_string`` and return
        the acceptance verdict."""
        session = Session(self.program, limits, backend=backend)
        result = session.run(self.database_for(input_string, tape_length))
        assert isinstance(result, bool)
        return result

    def run_with_stats(self, input_string: str,
                       limits: EvaluationLimits | None = None,
                       backend: str = "compiled"):
        """Like :meth:`run` but also return the engine statistics (used by
        the Proposition 6.2 benchmark to confirm the O(n^2) cost).

        Step counts in AST-node visits (Proposition 6.1's ``n^{ad}``
        measure) need ``backend="interp"``.
        """
        session = Session(self.program, limits, backend=backend)
        accepted = session.run(self.database_for(input_string))
        return accepted, session.stats

    def analysis(self, input_string: str = "0") -> ProgramAnalysis:
        """The Section 6 syntactic analysis of the compiled program."""
        database = self.database_for(input_string)
        return analyze(self.program, input_types=database_types(database))


def compile_machine(machine: TuringMachine, passes: int = 1) -> CompiledMachine:
    """Compile a single-tape machine into an SRL program.

    ``passes`` controls how many times the per-pass ``set-reduce`` is
    composed: one pass executes ``tape_length`` machine steps, so linear-time
    machines need one pass and DTIME(n^k) machines need ``n^{k-1}`` passes in
    principle (the Corollary 6.3 construction nests the iteration instead;
    composing passes keeps the program size independent of the input while
    exposing the same behaviour for the machines shipped in
    :mod:`repro.machines.programs`).
    """
    if passes < 1:
        raise ValueError("passes must be at least 1")

    symbol_codes = {symbol: index for index, symbol in enumerate(machine.tape_alphabet)}
    if BLANK not in symbol_codes:
        symbol_codes[BLANK] = len(symbol_codes)
    state_codes = {state: index for index, state in enumerate(machine.states)}

    program = Program()
    for definition in (
        _succ_pos_definition(),
        _pred_pos_definition(),
        _read_at_definition(),
        _write_at_definition(),
        _lookup_delta_definition(),
        _move_head_definition(),
        _apply_action_definition(),
        _step_definition(),
        _run_pass_definition(),
    ):
        program.define(definition)
    with_standard_library(program)

    configuration = b.tup(b.var("TAPE0"), b.var("POS0"), b.var("START"))
    for _ in range(passes):
        configuration = b.call("run-pass", configuration)
    program.main = b.call("member", b.sel(3, configuration), b.var("ACCEPTING"))

    return CompiledMachine(
        machine=machine,
        passes=passes,
        program=program,
        symbol_codes=symbol_codes,
        state_codes=state_codes,
    )
