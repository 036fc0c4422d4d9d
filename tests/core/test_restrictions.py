"""Tests for the language-restriction checkers (SRL, BASRL, SRFO, LRL...)."""

from __future__ import annotations

import json

import classifier_corpus
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.__main__ import main as cli_main
from repro.complexity import classify_program
from repro.core import (
    ATOM,
    NAT,
    Program,
    RestrictionViolation,
    TypeChecker,
    analyze,
    check_program,
    parse_expression,
    set_of,
    standard_library,
)
from repro.core.ast import free_variables
from repro.core.errors import SRLError
from repro.core.restrictions import (
    ALL_RESTRICTIONS,
    BASRL,
    LRL,
    SRFO_DTC,
    SRFO_TC,
    SRL,
    SRL_NEW,
    UNRESTRICTED_SRL,
    strictest_restriction,
)


COPY = "(set-reduce S (lambda (x e) x) (lambda (a r) (insert a r)) emptyset emptyset)"
MIN_TRACKER = """(set-reduce S (lambda (x e) x)
                   (lambda (a r) (if (<= a (sel 1 r)) (tuple a) r))
                   (tuple (atom 0)) emptyset)"""


def program_of(text: str) -> Program:
    return Program(main=parse_expression(text))


class TestSRL:
    def test_copy_program_is_in_srl(self):
        assert SRL.is_member(program_of(COPY), {"S": set_of(ATOM)})

    def test_set_of_sets_input_is_rejected(self):
        violations = SRL.check(program_of(COPY), {"S": set_of(set_of(ATOM))})
        assert violations
        assert any("set-height" in v for v in violations)

    def test_new_is_rejected(self):
        violations = SRL.check(program_of("(insert (new S) S)"), {"S": set_of(ATOM)})
        assert any("new" in v for v in violations)

    def test_lists_are_rejected(self):
        violations = SRL.check(program_of("(cons (atom 1) emptylist)"))
        assert any("lists" in v for v in violations)

    def test_set_of_naturals_is_rejected(self):
        violations = SRL.check(program_of("(insert (nat 1) N)"), {"N": set_of(NAT)})
        assert any("naturals" in v for v in violations)

    def test_assert_member_raises_with_details(self):
        with pytest.raises(RestrictionViolation) as excinfo:
            SRL.assert_member(program_of("(insert (new S) S)"), {"S": set_of(ATOM)})
        assert excinfo.value.restriction == "SRL"
        assert excinfo.value.violations

    def test_metadata(self):
        assert SRL.complexity_class == "P"
        assert "3.10" in SRL.paper_reference


class TestBASRL:
    def test_flat_accumulator_is_accepted(self):
        assert BASRL.is_member(program_of(MIN_TRACKER), {"S": set_of(ATOM)})

    def test_set_building_accumulator_is_rejected(self):
        violations = BASRL.check(program_of(COPY), {"S": set_of(ATOM)})
        assert any("accumulator" in v for v in violations)

    def test_syntactic_fallback_without_types(self):
        # Without input types BASRL falls back to a syntactic check: an
        # insert inside an accumulator body is flagged.
        violations = BASRL.check(program_of(COPY))
        assert violations

    def test_basrl_is_contained_in_srl(self):
        program = program_of(MIN_TRACKER)
        assert BASRL.is_member(program, {"S": set_of(ATOM)})
        assert SRL.is_member(program, {"S": set_of(ATOM)})


class TestExtensions:
    def test_srl_new_accepts_new(self):
        assert SRL_NEW.is_member(program_of("(insert (new S) S)"), {"S": set_of(ATOM)})

    def test_srl_new_rejects_lists(self):
        assert not SRL_NEW.is_member(program_of("(cons (atom 1) emptylist)"))

    def test_lrl_accepts_lists(self):
        text = "(list-reduce L (lambda (x e) x) (lambda (a r) (cons a r)) emptylist emptylist)"
        assert LRL.is_member(program_of(text))

    def test_lrl_rejects_new(self):
        assert not LRL.is_member(program_of("(new S)"))

    def test_unrestricted_accepts_everything(self):
        assert UNRESTRICTED_SRL.is_member(program_of("(insert (new S) S)"))
        assert UNRESTRICTED_SRL.is_member(program_of("(cons (atom 1) emptylist)"))


class TestSRFOFragments:
    def test_quantifier_only_program_is_in_both_fragments(self):
        program = standard_library()
        program.main = parse_expression("(forall D P)") if False else parse_expression(
            "(and (member (atom 1) S) (not (member (atom 2) S)))"
        )
        assert SRFO_TC.is_member(program, {"S": set_of(ATOM)})
        assert SRFO_DTC.is_member(program, {"S": set_of(ATOM)})

    def test_foreign_calls_are_flagged(self):
        program = Program(main=parse_expression("(mystery S)"))
        assert not SRFO_TC.is_member(program, {"S": set_of(ATOM)})
        assert not SRFO_DTC.is_member(program, {"S": set_of(ATOM)})

    def test_new_is_outside_the_fragments(self):
        program = Program(main=parse_expression("(new S)"))
        assert not SRFO_TC.is_member(program, {"S": set_of(ATOM)})


class TestStrictestRestriction:
    def test_flat_program_lands_in_basrl(self):
        assert strictest_restriction(program_of(MIN_TRACKER), {"S": set_of(ATOM)}) is BASRL

    def test_copy_program_lands_in_srl(self):
        assert strictest_restriction(program_of(COPY), {"S": set_of(ATOM)}) is SRL

    def test_new_program_lands_in_srl_new(self):
        assert strictest_restriction(
            program_of("(insert (new S) S)"), {"S": set_of(ATOM)}
        ) is SRL_NEW

    def test_list_program_lands_in_lrl(self):
        text = "(cons (atom 1) emptylist)"
        assert strictest_restriction(program_of(text)) is LRL

    def test_every_restriction_reports_a_class(self):
        for restriction in ALL_RESTRICTIONS:
            assert restriction.complexity_class
            assert restriction.paper_reference


class TestFailedTypeCheck:
    """Input types are given but the program does not type-check."""

    PROGRAM = "(insert (atom 1) (atom 2))"

    def test_srl_and_lrl_fall_back_to_syntax(self):
        program = program_of(self.PROGRAM)
        assert SRL.check(program, {"S": set_of(ATOM)}) == []
        assert LRL.check(program, {"S": set_of(ATOM)}) == []

    def test_basrl_cannot_inspect_accumulators(self):
        assert BASRL.check(program_of(self.PROGRAM), {"S": set_of(ATOM)}) == [
            "could not type-check the program to inspect accumulators"
        ]

    def test_strictest_is_srl(self):
        assert strictest_restriction(program_of(self.PROGRAM), {"S": set_of(ATOM)}) is SRL
        # Untyped, the same program is BASRL: the rule is about the failed check.
        assert strictest_restriction(program_of(self.PROGRAM)) is BASRL

    def test_input_set_height_is_still_checked(self):
        violations = SRL.check(program_of(self.PROGRAM), {"S": set_of(set_of(ATOM))})
        assert violations == ["input S has type set(set(atom)) of set-height 2 > 1"]


# ------------------------------------------------------------ golden table

#: Entries whose analysis is meant to differ from the committed table,
#: which was recorded before ``analyze`` and the restriction rules shared
#: one set of program facts.  Then ``analyze`` called every accumulator of
#: a program without a type report flat, and a typed program whose main
#: reaches no accumulator not flat; now an accumulator is flat exactly when
#: BASRL's accumulator rule holds.
_FLAT_WITHOUT_ACCUMULATORS = {"relational_first_senior typed"}


def _expected(name: str, entry: dict) -> dict:
    analysis = entry["analysis"]
    if "error" in analysis:
        return entry
    accumulator_messages = ("could not type-check", "an accumulator function inserts")
    flat = analysis["accumulators_flat"]
    if analysis["type_report"] is None:
        flat = flat and not any(v.startswith(accumulator_messages)
                                for v in entry["violations"]["BASRL"])
    elif name in _FLAT_WITHOUT_ACCUMULATORS:
        assert not analysis["type_report"]["accumulator_types"]
        flat = True
    analysis = dict(analysis, accumulators_flat=flat)
    if analysis["classification"].startswith(("L = BASRL", "P = SRL")):
        analysis["classification"] = ("L = BASRL (Theorem 4.13)" if flat
                                      else "P = SRL (Theorem 3.10)")
        analysis["notes"] = (["every accumulator returns a flat bounded-width tuple"]
                             if flat else [])
    return dict(entry, analysis=analysis)


def test_classifier_golden_table():
    """Every restriction's violations, the strictest restriction and the
    whole analysis for every shipped program, typed and untyped."""
    golden = json.loads(classifier_corpus.GOLDEN.read_text())
    table = json.loads(json.dumps(classifier_corpus.classifier_table()))
    assert sorted(table) == sorted(golden)
    for name, entry in golden.items():
        assert table[name] == _expected(name, entry), name


def test_golden_table_agrees_with_itself():
    """In the current table the analysis and the strictest restriction say
    the same thing about L and P."""
    for name, entry in classifier_corpus.classifier_table().items():
        classification = entry["analysis"].get("classification", "")
        if classification.startswith("L = BASRL"):
            assert entry["strictest"] == "BASRL", name
        if classification.startswith("P = SRL"):
            assert entry["strictest"] == "SRL", name


# ----------------------------------------------------- generated programs


def _typed_programs():
    """Small SRL program texts over the inputs ``S: {atom}``,
    ``N: {nat}`` and ``SS: {{atom}}``."""
    def grow(children):
        atoms, sets, bools, tuples, nat_sets, set_sets, lists = children
        return {
            "atom": st.one_of(atoms, sets.map(lambda s: f"(new {s})"),
                              tuples.map(lambda t: f"(sel 1 {t})")),
            "set": st.one_of(
                sets,
                st.tuples(atoms, sets).map(lambda p: "(insert %s %s)" % p),
                st.tuples(sets, sets).map(
                    lambda p: "(set-reduce %s (lambda (x e) x) "
                              "(lambda (a r) (insert a r)) %s emptyset)" % p),
                st.tuples(bools, sets, sets).map(lambda p: "(if %s %s %s)" % p),
            ),
            "bool": st.one_of(
                bools,
                st.tuples(atoms, atoms).map(lambda p: "(= %s %s)" % p),
                st.tuples(sets, atoms).map(
                    lambda p: "(set-reduce %s (lambda (x e) (= x e)) "
                              "(lambda (a r) (if a true r)) false %s)" % p),
            ),
            "tuple": st.one_of(
                tuples,
                st.tuples(sets, atoms).map(
                    lambda p: "(set-reduce %s (lambda (x e) x) (lambda (a r) "
                              "(if (<= a (sel 1 r)) (tuple a) r)) (tuple %s) emptyset)" % p),
            ),
            "natset": st.one_of(nat_sets, nat_sets.map(lambda s: f"(insert (nat 1) {s})")),
            "setset": st.one_of(
                set_sets,
                st.tuples(sets, set_sets).map(lambda p: "(insert %s %s)" % p),
                set_sets.map(lambda s: "(set-reduce %s (lambda (x e) x) "
                                       "(lambda (a r) (insert a r)) emptyset emptyset)" % s),
            ),
            "list": st.one_of(
                lists,
                st.tuples(atoms, lists).map(lambda p: "(cons %s %s)" % p),
                lists.map(lambda s: "(list-reduce %s (lambda (x e) x) "
                                    "(lambda (a r) (cons a r)) emptylist emptylist)" % s),
            ),
        }

    leaves = {
        "atom": st.sampled_from(["(atom 0)", "(atom 1)"]),
        "set": st.sampled_from(["S", "emptyset"]),
        "bool": st.sampled_from(["true", "false"]),
        "tuple": st.just("(tuple (atom 0))"),
        "natset": st.just("N"),
        "setset": st.just("SS"),
        "list": st.just("emptylist"),
    }
    kinds = list(leaves)
    level = leaves
    for _ in range(3):
        level = grow([level[kind] for kind in kinds])
    return st.one_of(*(level[kind] for kind in kinds))


def _input_types(program: Program, nested_extra: bool) -> dict:
    """``S`` always; ``N`` and ``SS`` when used (``SS`` also when asked)."""
    used = free_variables(program.main)
    types = {"S": set_of(ATOM)}
    if "N" in used:
        types["N"] = set_of(NAT)
    if "SS" in used or nested_extra:
        types["SS"] = set_of(set_of(ATOM))
    return types


@settings(max_examples=300, deadline=None)
@given(_typed_programs(), st.booleans())
def test_generated_programs_classify_consistently(text, nested_extra):
    program = program_of(text)
    types = _input_types(program, nested_extra)
    try:
        check_program(program, input_types=types)
    except SRLError:
        assume(False)
    for input_types in (types, None):
        strictest = strictest_restriction(program, input_types)
        if BASRL.is_member(program, input_types):
            assert SRL.is_member(program, input_types)
        classification = analyze(program, input_types=input_types).classification
        if classification.startswith("L = BASRL"):
            assert strictest is BASRL
        if classification.startswith("P = SRL"):
            assert strictest is SRL
        if classification.startswith("PrimRec"):
            assert strictest in (SRL_NEW, LRL, UNRESTRICTED_SRL)


# ------------------------------------------------------ type-check counts


@pytest.fixture
def type_checks(monkeypatch):
    calls = []
    original = TypeChecker.check_expression

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TypeChecker, "check_expression", counting)
    return calls


_CLASSIFIERS = {
    "strictest_restriction": lambda p, t: strictest_restriction(p, t),
    "analyze": lambda p, t: analyze(p, input_types=t),
    "classify_program": lambda p, t: classify_program(p, t),
    **{f"{r.name}.check": (lambda r: lambda p, t: r.check(p, t))(r) for r in ALL_RESTRICTIONS},
}


@pytest.mark.parametrize("name", sorted(_CLASSIFIERS))
@pytest.mark.parametrize("typed", [True, False])
def test_one_type_check_per_classification(name, typed, type_checks):
    types = {"S": set_of(ATOM)} if typed else None
    _CLASSIFIERS[name](program_of(COPY), types)
    assert len(type_checks) == (1 if typed else 0)


def test_cli_run_type_checks_once(tmp_path, type_checks, capsys):
    source = tmp_path / "copy.srl"
    source.write_text(COPY)
    db = tmp_path / "db.json"
    db.write_text(json.dumps({"S": [1, 2, 3]}))
    assert cli_main([str(source), "--db", str(db)]) == 0
    assert "restriction: SRL" in capsys.readouterr().out
    assert len(type_checks) == 1
