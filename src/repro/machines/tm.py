"""Deterministic Turing machines (the Section 4/6 machine models).

Two machine models are provided:

* :class:`TuringMachine` — a single-tape DTM with step accounting, used for
  the DTIME(n^k) simulations of Proposition 6.2 / Corollary 6.3;
* :class:`LogspaceMachine` — a two-tape machine with a read-only input tape
  and a separately-accounted work tape, the model behind L = BASRL
  (Theorem 4.13, Lemma 4.12).

Machines are plain data (states and transition tables), so the Prop. 6.2
compiler can translate them into SRL programs symbol by symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["BLANK", "LEFT", "RIGHT", "STAY", "RunResult", "TuringMachine",
           "LogspaceRunResult", "LogspaceMachine"]

BLANK = "_"
LEFT, STAY, RIGHT = -1, 0, 1


@dataclass
class RunResult:
    """The outcome of running a single-tape machine."""

    accepted: bool
    halted: bool
    steps: int
    tape: str
    head: int
    state: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


@dataclass(frozen=True)
class TuringMachine:
    """A deterministic single-tape Turing machine.

    ``transitions`` maps ``(state, symbol)`` to ``(new_state, write, move)``
    with ``move`` one of :data:`LEFT`, :data:`STAY`, :data:`RIGHT`.  Missing
    transitions halt the machine in place.  ``accept_states`` decide
    acceptance at halting time (or when the step budget runs out, which is
    the reading Proposition 6.2 uses: the machine runs for a fixed number of
    steps on a tape of fixed length).
    """

    name: str
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    transitions: Mapping[tuple[str, str], tuple[str, str, int]]
    start_state: str
    accept_states: frozenset[str]

    def __post_init__(self) -> None:
        if self.start_state not in self.states:
            raise ValueError(f"start state {self.start_state} not among the states")
        for state in self.accept_states:
            if state not in self.states:
                raise ValueError(f"accept state {state} not among the states")
        for (state, symbol), (new_state, write, move) in self.transitions.items():
            if state not in self.states or new_state not in self.states:
                raise ValueError(f"transition {(state, symbol)} uses an unknown state")
            if symbol not in self.tape_alphabet or write not in self.tape_alphabet:
                raise ValueError(f"transition {(state, symbol)} uses an unknown symbol")
            if move not in (LEFT, STAY, RIGHT):
                raise ValueError(f"transition {(state, symbol)} has an invalid move {move}")

    def run(self, input_string: str, max_steps: int | None = None,
            tape_length: int | None = None) -> RunResult:
        """Run the machine on ``input_string``.

        ``tape_length`` pads (or bounds) the working portion of the tape —
        Proposition 6.2 simulates a machine whose tape has exactly ``n``
        cells; the head is clamped to that window.  ``max_steps`` defaults
        to ``len(tape) ** 2`` which is ample for the linear-time machines in
        :mod:`repro.machines.programs`.
        """
        for symbol in input_string:
            if symbol not in self.input_alphabet:
                raise ValueError(f"input symbol {symbol!r} not in the input alphabet")
        # One trailing blank by default, so a rightward scan has a cell with
        # no transition to halt on (Prop. 6.2 fixes the window explicitly).
        length = tape_length if tape_length is not None else len(input_string) + 1
        tape = list((input_string + BLANK * length)[:length])
        if max_steps is None:
            max_steps = max(length * length, 16)

        state = self.start_state
        head = 0
        steps = 0
        halted = False
        while steps < max_steps:
            symbol = tape[head]
            action = self.transitions.get((state, symbol))
            if action is None:
                halted = True
                break
            state, write, move = action
            tape[head] = write
            head = min(max(head + move, 0), length - 1)
            steps += 1
        return RunResult(
            accepted=state in self.accept_states,
            halted=halted,
            steps=steps,
            tape="".join(tape),
            head=head,
            state=state,
        )

    def accepts(self, input_string: str, **kwargs) -> bool:
        return self.run(input_string, **kwargs).accepted


@dataclass
class LogspaceRunResult:
    """The outcome of running a two-tape (logspace) machine."""

    accepted: bool
    halted: bool
    steps: int
    work_cells_used: int
    state: str


@dataclass(frozen=True)
class LogspaceMachine:
    """A deterministic machine with a read-only input tape and a work tape.

    ``transitions`` maps ``(state, input_symbol, work_symbol)`` to
    ``(new_state, work_write, input_move, work_move)``.  ``work_bound`` (a
    function of the input length) lets callers assert the logarithmic space
    bound; exceeding it raises ``RuntimeError`` so tests can certify that a
    machine really is logspace on the inputs exercised.
    """

    name: str
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    work_alphabet: tuple[str, ...]
    transitions: Mapping[tuple[str, str, str], tuple[str, str, int, int]]
    start_state: str
    accept_states: frozenset[str]

    def run(self, input_string: str, max_steps: int | None = None,
            work_bound: int | None = None) -> LogspaceRunResult:
        n = max(len(input_string), 1)
        # End markers make "off the input" explicit without extra states.
        tape = "<" + input_string + ">"
        work: dict[int, str] = {}
        state = self.start_state
        input_head, work_head = 0, 0
        max_work_head = 0
        steps = 0
        if max_steps is None:
            max_steps = 64 * n * n
        halted = False
        while steps < max_steps:
            input_symbol = tape[input_head] if 0 <= input_head < len(tape) else ">"
            work_symbol = work.get(work_head, BLANK)
            action = self.transitions.get((state, input_symbol, work_symbol))
            if action is None:
                halted = True
                break
            state, work_write, input_move, work_move = action
            work[work_head] = work_write
            input_head = min(max(input_head + input_move, 0), len(tape) - 1)
            work_head = max(work_head + work_move, 0)
            max_work_head = max(max_work_head, work_head)
            if work_bound is not None and max_work_head + 1 > work_bound:
                raise RuntimeError(
                    f"{self.name}: work tape exceeded the bound of {work_bound} cells"
                )
            steps += 1
        return LogspaceRunResult(
            accepted=state in self.accept_states,
            halted=halted,
            steps=steps,
            work_cells_used=max_work_head + 1 if work else 0,
            state=state,
        )

    def accepts(self, input_string: str, **kwargs) -> bool:
        return self.run(input_string, **kwargs).accepted
