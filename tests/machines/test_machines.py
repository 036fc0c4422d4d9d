"""Tests for the Turing machines and the Proposition 6.2 compiler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SRL
from repro.core.typecheck import database_types
from repro.machines import (
    BLANK,
    LEFT,
    RIGHT,
    TuringMachine,
    all_ones_machine,
    compile_machine,
    contains_ab_machine,
    last_symbol_one_machine,
    parity_logspace_machine,
    parity_machine,
)

binary_strings = st.text(alphabet="01", max_size=8)
ab_strings = st.text(alphabet="ab", max_size=8)


class TestTuringMachine:
    def test_parity_machine(self):
        m = parity_machine()
        assert m.accepts("0110")
        assert not m.accepts("0111")
        assert m.accepts("")

    def test_contains_ab(self):
        m = contains_ab_machine()
        assert m.accepts("bbab")
        assert not m.accepts("bba")

    def test_all_ones_and_last_symbol(self):
        assert all_ones_machine().accepts("111")
        assert not all_ones_machine().accepts("101")
        assert last_symbol_one_machine().accepts("01")
        assert not last_symbol_one_machine().accepts("10")

    def test_run_result_details(self):
        result = parity_machine().run("11")
        assert result.halted
        assert result.steps >= 2
        assert result.state == "even"

    def test_invalid_input_symbol(self):
        with pytest.raises(ValueError):
            parity_machine().run("2")

    def test_transition_validation(self):
        with pytest.raises(ValueError):
            TuringMachine(
                name="broken",
                states=("q",),
                input_alphabet=("0",),
                tape_alphabet=("0", BLANK),
                transitions={("q", "0"): ("missing", "0", RIGHT)},
                start_state="q",
                accept_states=frozenset({"q"}),
            )
        with pytest.raises(ValueError):
            TuringMachine(
                name="bad-move",
                states=("q",),
                input_alphabet=("0",),
                tape_alphabet=("0", BLANK),
                transitions={("q", "0"): ("q", "0", 7)},
                start_state="q",
                accept_states=frozenset({"q"}),
            )

    def test_head_is_clamped_to_the_tape_window(self):
        # A machine that insists on moving left stays on cell 0.
        m = TuringMachine(
            name="left-runner",
            states=("q",),
            input_alphabet=("0",),
            tape_alphabet=("0", BLANK),
            transitions={("q", "0"): ("q", "0", LEFT)},
            start_state="q",
            accept_states=frozenset(),
        )
        result = m.run("000", max_steps=10)
        assert result.head == 0
        assert not result.halted


class TestLogspaceMachine:
    def test_parity(self):
        m = parity_logspace_machine()
        assert m.accepts("0110")
        assert not m.accepts("0111")

    def test_space_accounting_and_bound(self):
        m = parity_logspace_machine()
        result = m.run("010101")
        assert result.work_cells_used <= 1
        # The bound is enforced when requested.
        m.run("010101", work_bound=1)


class TestCompiledMachines:
    @pytest.mark.parametrize("factory", [
        parity_machine, contains_ab_machine, all_ones_machine, last_symbol_one_machine,
    ])
    def test_compiled_program_matches_direct_run(self, factory):
        machine = factory()
        compiled = compile_machine(machine)
        samples = {
            "parity": ["", "0", "1", "0110", "0111", "10101"],
            "ab": ["", "a", "b", "ab", "ba", "bbab", "aaa"],
        }["ab" if "a" in machine.input_alphabet else "parity"]
        for text in samples:
            direct = machine.run(text, tape_length=compiled.tape_length_for(text)).accepted
            assert compiled.run(text) == direct

    @settings(max_examples=15, deadline=None)
    @given(binary_strings)
    def test_compiled_parity_property(self, text):
        compiled = compile_machine(parity_machine())
        assert compiled.run(text) == (text.count("1") % 2 == 0)

    @settings(max_examples=15, deadline=None)
    @given(ab_strings)
    def test_compiled_contains_ab_property(self, text):
        compiled = compile_machine(contains_ab_machine())
        assert compiled.run(text) == ("ab" in text)

    def test_compiled_program_is_plain_srl(self):
        compiled = compile_machine(parity_machine())
        types = database_types(compiled.database_for("0101"))
        assert SRL.is_member(compiled.program, types)

    def test_compiled_width_and_depth_match_proposition_6_2(self):
        compiled = compile_machine(parity_machine())
        analysis = compiled.analysis("0101")
        # The program constructs only bounded-width tuples and has constant
        # depth, independent of the input length.
        assert analysis.width <= 5
        assert analysis.depth <= 3
        assert "P = SRL" in analysis.classification

    def test_quadratic_step_growth(self):
        # Proposition 6.2's cost analysis: the evaluator cost grows roughly
        # quadratically (each of the n simulated steps scans the tape).
        compiled = compile_machine(parity_machine())
        # Steps in AST-node visits: the interpreter's unit.
        _, stats_small = compiled.run_with_stats("1" * 8, backend="interp")
        _, stats_large = compiled.run_with_stats("1" * 16, backend="interp")
        ratio = stats_large.steps / stats_small.steps
        assert 2.5 < ratio < 6.0

    def test_multiple_passes_do_not_change_the_verdict(self):
        # A halted configuration is a fixpoint of the step function, so
        # composing extra passes leaves the answer unchanged.
        one_pass = compile_machine(parity_machine(), passes=1)
        two_passes = compile_machine(parity_machine(), passes=2)
        for text in ["", "1", "0110", "1110"]:
            assert one_pass.run(text) == two_passes.run(text)

    def test_passes_must_be_positive(self):
        with pytest.raises(ValueError):
            compile_machine(parity_machine(), passes=0)
