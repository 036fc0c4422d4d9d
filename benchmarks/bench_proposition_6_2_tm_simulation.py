"""Experiment E7 — Proposition 6.2 / Corollary 6.3: DTIME(n) ⊆ SRL.

Linear-time Turing machines are compiled into SRL programs (width-2 tape
pairs, constant depth) and swept over growing inputs.  Shape to reproduce:
(a) the compiled program agrees with the direct machine run on every input,
(b) its syntactic audit stays inside SRL (hence P) with constant depth, and
(c) the evaluator cost grows roughly quadratically — the O(n² · T_ins) cost
the paper derives for the simulation.
"""

from __future__ import annotations

import math

import pytest

from repro.core.restrictions import SRL
from repro.core.typecheck import database_types
from repro.machines import compile_machine, contains_ab_machine, parity_machine

SIZES = (6, 12, 24)


def test_compiled_machines_agree_with_direct_runs(table):
    rows = []
    for factory, samples in (
        (parity_machine, ["", "1", "0110", "10101", "111000111"]),
        (contains_ab_machine, ["", "a", "ba", "bbab", "aaaa", "bbbba"]),
    ):
        machine = factory()
        compiled = compile_machine(machine)
        for text in samples:
            direct = machine.run(text, tape_length=compiled.tape_length_for(text)).accepted
            srl = compiled.run(text)
            assert direct == srl
            rows.append([machine.name, repr(text), srl, direct])
    table("E7: compiled SRL simulation vs direct TM run",
          ["machine", "input", "SRL", "TM"], rows)


def test_compiled_program_stays_in_srl_with_constant_depth(table):
    compiled = compile_machine(parity_machine())
    rows = []
    for text in ("01", "0101", "01010101"):
        analysis = compiled.analysis(text)
        assert "P = SRL" in analysis.classification
        assert analysis.depth <= 3
        rows.append([len(text), analysis.depth, analysis.width, analysis.classification])
    assert SRL.is_member(compiled.program, database_types(compiled.database_for("0101")))
    table("E7: syntactic audit of the compiled program (constant in n)",
          ["input length", "depth", "width", "class"], rows)


def test_quadratic_cost_of_the_simulation(table):
    compiled = compile_machine(parity_machine())
    rows = []
    steps = {}
    for size in SIZES:
        # Steps in AST-node visits: the interpreter's unit.
        _, stats = compiled.run_with_stats("1" * size, backend="interp")
        steps[size] = stats.steps
        rows.append([size, stats.steps])
    exponents = [
        math.log(steps[b] / steps[a]) / math.log(b / a) for a, b in zip(SIZES, SIZES[1:])
    ]
    rows.append(["growth exponent", f"{max(exponents):.2f}"])
    table("E7: evaluator cost of the simulation (≈ n², the paper's O(n²·T_ins))",
          ["input length n", "evaluator steps"], rows)
    assert 1.3 < max(exponents) < 3.0


@pytest.mark.parametrize("size", SIZES)
def test_benchmark_compiled_parity(benchmark, size):
    compiled = compile_machine(parity_machine())
    text = "10" * (size // 2)
    result = benchmark.pedantic(lambda: compiled.run(text), rounds=1, iterations=1)
    assert result == (text.count("1") % 2 == 0)
    benchmark.extra_info["input_length"] = size


def test_benchmark_direct_machine(benchmark):
    machine = parity_machine()
    text = "10" * 12
    benchmark(machine.accepts, text)
