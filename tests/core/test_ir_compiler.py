"""Unit tests for the compilation pipeline: lowering, folding, codegen,
instrumentation parity and the Session facade."""

from __future__ import annotations

import pytest

from repro.core import (
    Atom,
    EvaluationLimits,
    Session,
    compile_program,
    make_set,
    parse_expression,
    parse_program,
    run_expression,
    run_program,
    standard_library,
)
from repro.core import builders as b
from repro.core.ast import Program
from repro.core.errors import ResourceLimitExceeded, SRLNameError, SRLRuntimeError
from repro.core.ir import Op, count_instructions, lower_expression, lower_program


def _main_ir(expr_text: str, program: Program | None = None):
    return lower_expression(parse_expression(expr_text), program).main


def _assert_compiled_matches_interp(program, database):
    session = Session(program)
    interp = Session(program, backend="interp")
    assert session.run(database) == interp.run(database)
    compiled_stats = session.stats.as_dict()
    interp_stats = interp.stats.as_dict()
    assert compiled_stats.pop("steps") <= interp_stats.pop("steps")
    # Every other counter is one of the backends' invariant counters.
    assert compiled_stats == interp_stats
    assert session.degradations == []


class TestLowering:
    def test_constants_fold_to_a_single_instruction(self):
        block = _main_ir("(= (sel 1 (tuple (atom 1) (atom 2))) (atom 1))").block
        assert [i.op for i in block.instrs] == [Op.CONST]
        assert block.instrs[0].args == (True,)

    def test_constant_condition_selects_one_branch(self):
        block = _main_ir("(if true (atom 1) (insert (atom 0) emptyset))").block
        assert [i.op for i in block.instrs] == [Op.CONST]
        assert block.instrs[0].args == (Atom(1),)

    def test_insert_is_never_folded(self):
        # Folding insert would change the instrumented `inserts` counter.
        block = _main_ir("(insert (atom 1) emptyset)").block
        assert Op.INSERT in [i.op for i in block.instrs]

    def test_lesseq_is_never_folded(self):
        # `<=` over atoms depends on the session's atom_order.
        block = _main_ir("(<= (atom 1) (atom 2))").block
        assert Op.LESSEQ in [i.op for i in block.instrs]

    def test_variables_resolve_to_slots_or_database_loads(self):
        program = parse_program("(define (f x) x) (f S)")
        ir = lower_program(program)
        # `x` in f's body is a parameter slot: no LOAD_DB.
        assert all(i.op is not Op.LOAD_DB for i in ir.functions["f"].block.instrs)
        # `S` in main is a database load.
        assert any(i.op is Op.LOAD_DB and i.args == ("S",)
                   for i in ir.main.block.instrs)

    def test_lambda_scope_sees_only_its_own_parameters(self):
        # The outer function's parameter is *not* visible inside the lambda;
        # the interpreter resolves it against the database instead.
        program = parse_program(
            "(define (f x) (set-reduce S (lambda (y e) x) (lambda (a r) r)"
            " emptyset emptyset)) (f (atom 0))"
        )
        ir = lower_program(program)
        reduce_instr = next(i for i in ir.functions["f"].block.instrs
                            if i.op is Op.REDUCE)
        app_block = reduce_instr.args[4]
        assert any(i.op is Op.LOAD_DB and i.args == ("x",)
                   for i in app_block.instrs)

    def test_unknown_call_lowers_to_a_lazy_raise(self):
        block = _main_ir("(no-such-function (atom 1))").block
        raises = [i for i in block.instrs if i.op is Op.RAISE]
        assert raises and raises[0].args[0] == "name"

    def test_recursive_definitions_are_guarded(self):
        program = parse_program("(define (f x) (f x)) (f (atom 0))")
        ir = lower_program(program)
        assert ir.functions["f"].guarded
        mutual = parse_program(
            "(define (f x) (g x)) (define (g x) (f x)) (f (atom 0))"
        )
        ir = lower_program(mutual)
        assert ir.functions["f"].guarded and ir.functions["g"].guarded

    def test_non_recursive_definitions_are_not_guarded(self):
        ir = lower_program(standard_library())
        assert not any(fn.guarded for fn in ir.functions.values())

    def test_count_instructions_covers_nested_blocks(self):
        block = _main_ir(
            "(set-reduce S (lambda (x e) (if (= x e) x e))"
            " (lambda (a r) (insert a r)) emptyset (atom 0))"
        ).block
        assert count_instructions(block) > 5


class TestCompiledSemantics:
    def test_dead_branch_errors_stay_dead(self):
        # The interpreter only rejects an unknown callee when the call is
        # reached; compiled code must match.
        expr = parse_expression("(if E (no-such-fn) (atom 1))")
        for flag, expected in ((False, Atom(1)),):
            value = run_expression(expr, {"E": flag}, backend="compiled")
            assert value == expected
        with pytest.raises(SRLNameError):
            run_expression(expr, {"E": True}, backend="compiled")

    def test_arity_mismatch_matches_the_interpreter(self):
        program = parse_program("(define (f x) x) (f (atom 1) (atom 2))")
        with pytest.raises(SRLRuntimeError, match="expects 1 arguments, got 2"):
            run_program(program, backend="compiled")

    def test_recursion_is_rejected_at_runtime(self):
        program = parse_program("(define (f x) (f x)) (f (atom 0))")
        with pytest.raises(SRLRuntimeError, match="recursive call of f"):
            run_program(program, backend="compiled")

    def test_recursive_call_in_a_dead_branch_is_allowed(self):
        program = parse_program(
            "(define (f x) (if (= x (atom 0)) (atom 7) (f x))) (f (atom 0))"
        )
        assert run_program(program, backend="compiled") == Atom(7)

    def test_limits_are_enforced(self):
        grow = parse_expression(
            "(set-reduce S (lambda (x e) x) (lambda (a r) (insert a r))"
            " emptyset emptyset)"
        )
        database = {"S": make_set(*(Atom(i) for i in range(6)))}
        with pytest.raises(ResourceLimitExceeded):
            run_expression(grow, database, backend="compiled",
                           limits=EvaluationLimits(max_inserts=3))
        with pytest.raises(ResourceLimitExceeded):
            run_expression(grow, database, backend="compiled",
                           limits=EvaluationLimits(max_set_size=4))
        with pytest.raises(ResourceLimitExceeded):
            run_expression(grow, database, backend="compiled",
                           limits=EvaluationLimits(max_steps=2))

    def test_allow_new_and_allow_lists_gates(self):
        with pytest.raises(SRLRuntimeError, match="invented values"):
            run_expression(parse_expression("(new emptyset)"),
                           backend="compiled",
                           limits=EvaluationLimits(allow_new=False))
        with pytest.raises(SRLRuntimeError, match="disabled"):
            run_expression(parse_expression("emptylist"),
                           backend="compiled",
                           limits=EvaluationLimits(allow_lists=False))

    def test_atom_order_controls_choose_and_rest(self):
        s = make_set(Atom(0), Atom(1), Atom(2))
        expr = parse_expression("(choose S)")
        assert run_expression(expr, {"S": s}, backend="compiled") == Atom(0)
        assert run_expression(expr, {"S": s}, backend="compiled",
                              atom_order=(2, 1, 0)) == Atom(2)

    def test_compiled_program_reports_source(self):
        compiled = compile_program(parse_program("(insert (atom 1) emptyset)"))
        assert "rt.insert" in compiled.source

    @pytest.mark.parametrize("depth", [25, 100])
    @pytest.mark.parametrize("through", ["app", "acc"])
    def test_any_reduce_nesting_compiles_and_matches_the_interpreter(
            self, depth, through):
        # CPython caps a function at 20 statically nested blocks; deeper
        # lambda bodies are emitted as generated functions of their own
        # parameters.  Every level reads its parameters, so a parameter
        # passed wrongly across an outlined body changes the value.
        body = "(insert x e)" if through == "app" else "(insert a r)"
        for level in range(depth):
            outer = level == depth - 1
            if through == "app":
                body = (f"(set-reduce S (lambda (x e) {body})"
                        " (lambda (a r) (insert a r)) emptyset"
                        f" {'emptyset' if outer else 'e'})")
            else:
                body = (f"(set-reduce S (lambda (x e) x) (lambda (a r) {body})"
                        f" {'emptyset' if outer else 'r'}"
                        f" {'emptyset' if outer else 'a'})")
        program = parse_program(body)
        database = {"S": make_set(Atom(0))}
        compile_program(program)
        _assert_compiled_matches_interp(program, database)

    def test_deep_if_nesting_compiles_and_matches_the_interpreter(self):
        # Past ~100 indentation levels an `if` arm is emitted as a function
        # of the registers it reads; every arm here reads the reduce's `x`.
        body = "(insert x e)"
        for level in range(150):
            body = f"(if (= x (atom {level})) (insert (atom {level}) e) {body})"
        program = parse_program(
            f"(set-reduce S (lambda (x e) {body}) (lambda (a r) (insert a r))"
            " emptyset emptyset)")
        # One function for main plus the outlined arms.
        assert compile_program(program).source.count("def ") > 1
        database = {"S": make_set(*(Atom(i) for i in range(0, 200, 7)))}
        _assert_compiled_matches_interp(program, database)


class TestSession:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(backend="jit")

    def test_recompiles_when_the_program_changes(self):
        program = Program()
        program.main = b.atom(1)
        session = Session(program)
        assert session.run() == Atom(1)
        program.define(b.define("seven", [], b.atom(7)))
        program.main = b.call("seven")
        assert session.run() == Atom(7)

    def test_stats_reflect_the_most_recent_run(self):
        session = Session(standard_library())
        s, t = make_set(Atom(1), Atom(2)), make_set(Atom(3))
        session.call("union", s, t)
        first = session.stats.inserts
        session.call("union", make_set(), make_set())
        assert session.stats.inserts == 0 and first == 2

    def test_run_with_stats(self):
        session = Session(parse_program("(insert (atom 1) emptyset)"))
        value, stats = session.run_with_stats()
        assert value == make_set(Atom(1)) and stats.inserts == 1

    def test_missing_main_raises_like_the_interpreter(self):
        for backend in ("compiled", "interp"):
            with pytest.raises(SRLRuntimeError, match="no main expression"):
                Session(Program(), backend=backend).run()


class TestDatabaseFromJson:
    def test_shapes(self):
        from repro.core.engine import database_from_json

        database = database_from_json({
            "S": [0, 1],
            "EDGES": [[0, 1], [1, 2]],
            "flag": True,
            "p": {"atom": 3, "name": "pivot"},
            "n": {"nat": 9},
            "deep": {"set": [{"set": [0]}]},
            "L": {"list": [0, 0, 1]},
        })
        assert database.lookup("S") == make_set(Atom(0), Atom(1))
        assert len(database.lookup("EDGES")) == 2
        assert database.lookup("flag") is True
        assert database.lookup("p") == Atom(3)
        assert database.lookup("n") == 9
        assert database.lookup("deep") == make_set(make_set(Atom(0)))
        assert len(database.lookup("L")) == 3

    def test_rejects_garbage(self):
        from repro.core.engine import database_from_json

        with pytest.raises(SRLRuntimeError):
            database_from_json({"x": {"unknown": 1}})
        with pytest.raises(SRLRuntimeError):
            database_from_json([1, 2])


class TestCLI:
    def test_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "even.srl"
        source.write_text(
            "(set-reduce S (lambda (x e) x) (lambda (a r) (if r false true))"
            " true emptyset)"
        )
        db = tmp_path / "db.json"
        db.write_text('{"S": [0, 1, 2, 3]}')
        assert main([str(source), "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "result:      true" in out
        assert "restriction: BASRL" in out
        assert "set_reduce_iterations=4" in out

    def test_quiet_and_backends(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "p.srl"
        source.write_text("(insert (atom 2) emptyset)")
        for backend in ("compiled", "interp", "reference"):
            assert main([str(source), "--backend", backend, "--quiet"]) == 0
            assert capsys.readouterr().out.strip() == "{d2}"

    def test_errors_are_reported(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "bad.srl"
        source.write_text("(insert (atom 1)")
        assert main([str(source)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main([str(tmp_path / "missing.srl")]) == 2
