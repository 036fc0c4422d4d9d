"""Tests for the Section 6 complexity-from-syntax analysis."""

from __future__ import annotations

import pytest

from repro.complexity import classify_program
from repro.core import ATOM, Program, analyze, parse_expression, parse_program, set_of, tuple_of
from repro.core.analysis import expression_depth, expression_width
from repro.core.errors import SRLError
from repro.core.restrictions import BASRL, SRL, strictest_restriction


COPY = "(set-reduce S (lambda (x e) x) (lambda (a r) (insert a r)) emptyset emptyset)"

NESTED = """(set-reduce S (lambda (x e) x)
              (lambda (a r)
                (set-reduce r (lambda (y e) y) (lambda (c d) (insert c d)) emptyset emptyset))
              emptyset emptyset)"""


class TestDepth:
    def test_base_functions_have_depth_zero(self):
        assert expression_depth(parse_expression("(insert (atom 1) emptyset)")) == 0
        assert expression_depth(parse_expression("(if true false true)")) == 0

    def test_single_reduce_has_depth_one(self):
        assert expression_depth(parse_expression(COPY)) == 1

    def test_nested_reduce_has_depth_two(self):
        assert expression_depth(parse_expression(NESTED)) == 2

    def test_calls_contribute_their_definition_depth(self):
        program = parse_program(f"(define (copy S) {COPY}) (copy (copy T))")
        assert expression_depth(program.main, program) == 1

    def test_depth_through_nested_calls(self):
        program = parse_program(f"""
        (define (copy S) {COPY})
        (define (twice S) (copy {COPY}))
        (twice T)
        """)
        assert expression_depth(program.main, program) == 1


class TestWidth:
    def test_default_width_is_one(self):
        assert expression_width(parse_expression(COPY)) == 1

    def test_width_is_max_tuple_arity(self):
        expr = parse_expression("(insert (tuple (atom 1) (atom 2) (atom 3)) emptyset)")
        assert expression_width(expr) == 3

    def test_width_looks_through_calls(self):
        program = parse_program("""
        (define (pair x) (tuple x x))
        (pair (atom 1))
        """)
        assert expression_width(program.main, program) == 2


class TestClassification:
    def test_program_without_main_raises(self):
        with pytest.raises(SRLError):
            analyze(Program())

    def test_plain_first_order_expression(self):
        program = Program(main=parse_expression("(= (atom 1) (atom 2))"))
        analysis = analyze(program)
        assert analysis.classification.startswith("FO")
        assert analysis.depth == 0

    def test_srl_program_is_p(self):
        program = Program(main=parse_expression(COPY))
        analysis = analyze(program, input_types={"S": set_of(tuple_of(ATOM, ATOM))})
        assert "P = SRL" in analysis.classification
        assert analysis.set_height == 1
        assert analysis.time_exponent == analysis.width * analysis.depth

    def test_flat_accumulator_is_logspace(self):
        # Keep only a single tuple in the accumulator: BASRL shape.
        text = """(set-reduce S (lambda (x e) x)
                              (lambda (a r) (if (<= a (sel 1 r)) (tuple a) r))
                              (tuple (atom 0)) emptyset)"""
        program = Program(main=parse_expression(text))
        analysis = analyze(program, input_types={"S": set_of(ATOM)})
        assert "L = BASRL" in analysis.classification
        assert analysis.accumulators_flat

    def test_set_height_two_is_exponential(self):
        # The input itself is a set of sets.
        program = Program(main=parse_expression(COPY))
        analysis = analyze(program, input_types={"S": set_of(set_of(ATOM))})
        assert "DTIME(2_2#n)" in analysis.classification
        assert analysis.set_height == 2

    def test_new_is_primrec(self):
        program = Program(main=parse_expression("(insert (new S) S)"))
        analysis = analyze(program, input_types={"S": set_of(ATOM)})
        assert "PrimRec" in analysis.classification
        assert analysis.uses_new

    def test_lists_are_primrec(self):
        program = Program(main=parse_expression("(cons (atom 1) emptylist)"))
        analysis = analyze(program)
        assert "PrimRec" in analysis.classification
        assert analysis.uses_lists

    def test_time_bound_string(self):
        program = Program(main=parse_expression(NESTED))
        analysis = analyze(program, input_types={"S": set_of(ATOM)})
        assert analysis.time_bound == f"DTIME(n^{analysis.time_exponent} * T_ins)"
        assert analysis.depth == 2

    def test_summary_mentions_classification(self):
        program = Program(main=parse_expression(COPY))
        analysis = analyze(program, input_types={"S": set_of(ATOM)})
        assert analysis.classification in analysis.summary()

    def test_analysis_without_types_is_syntactic(self):
        program = Program(main=parse_expression(COPY))
        analysis = analyze(program)
        # Without input types the analysis still runs; it assumes height 1
        # for a program that uses set-reduce.
        assert analysis.set_height == 1
        assert analysis.type_report is None

    def test_untyped_set_building_accumulator_is_not_logspace(self):
        # Without input types the accumulator rule is BASRL's syntactic one:
        # an insert inside an accumulator body builds a set, so COPY is P,
        # exactly as strictest_restriction says.
        program = Program(main=parse_expression(COPY))
        analysis = analyze(program)
        assert not analysis.accumulators_flat
        assert analysis.classification == "P = SRL (Theorem 3.10)"
        assert strictest_restriction(program) is SRL
        summary = classify_program(program).summary()
        assert "P = SRL" in summary and "L = BASRL" not in summary

    def test_untyped_flat_accumulator_stays_logspace(self):
        program = Program(main=parse_expression(
            "(set-reduce S (lambda (x e) x) (lambda (a r) (tuple a)) (tuple (atom 0)) emptyset)"))
        analysis = analyze(program)
        assert analysis.accumulators_flat
        assert analysis.classification == "L = BASRL (Theorem 4.13)"
        assert strictest_restriction(program) is BASRL

    def test_failed_type_check_is_not_logspace(self):
        # Input types are given but the program does not type-check: BASRL
        # cannot inspect the accumulators, so neither can analyze.
        program = Program(main=parse_expression(
            "(set-reduce (insert (atom 1) (atom 2)) (lambda (x e) x) "
            "(lambda (a r) (tuple a)) (tuple (atom 0)) emptyset)"))
        analysis = analyze(program, input_types={"S": set_of(ATOM)})
        assert analysis.type_report is None
        assert not analysis.accumulators_flat
        assert analysis.classification == "P = SRL (Theorem 3.10)"
