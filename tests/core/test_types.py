"""Tests for the SRL type system (Definition 2.2, Proposition 3.8 measures)."""

from __future__ import annotations

import pytest

from repro.core.errors import SRLTypeError
from repro.core.types import (
    ATOM,
    BOOL,
    NAT,
    SetType,
    TypeVar,
    apply_substitution,
    fresh_type_var,
    free_type_vars,
    is_ground,
    list_of,
    list_height,
    max_tuple_width,
    set_height,
    set_of,
    tuple_nesting,
    tuple_of,
    tuple_width,
    unify,
)


class TestSetHeight:
    def test_base_types_have_height_zero(self):
        assert set_height(BOOL) == 0
        assert set_height(ATOM) == 0
        assert set_height(NAT) == 0

    def test_definition_2_2(self):
        assert set_height(set_of(ATOM)) == 1
        assert set_height(set_of(set_of(ATOM))) == 2

    def test_tuple_takes_max_of_components(self):
        t = tuple_of(ATOM, set_of(ATOM))
        assert set_height(t) == 1
        assert set_height(set_of(t)) == 2

    def test_list_does_not_add_set_height(self):
        assert set_height(list_of(set_of(ATOM))) == 1

    def test_list_height(self):
        assert list_height(list_of(ATOM)) == 1
        assert list_height(list_of(list_of(ATOM))) == 2
        assert list_height(set_of(ATOM)) == 0


class TestWidths:
    def test_tuple_width(self):
        assert tuple_width(tuple_of(ATOM, ATOM, ATOM)) == 3
        assert tuple_width(ATOM) == 1

    def test_tuple_nesting(self):
        assert tuple_nesting(ATOM) == 0
        assert tuple_nesting(tuple_of(ATOM, ATOM)) == 1
        assert tuple_nesting(tuple_of(tuple_of(ATOM, ATOM), ATOM)) == 2

    def test_max_tuple_width_recurses(self):
        t = set_of(tuple_of(ATOM, tuple_of(ATOM, ATOM, ATOM, ATOM)))
        assert max_tuple_width(t) == 4


class TestUnification:
    def test_identical_types_unify_with_empty_substitution(self):
        assert unify(set_of(ATOM), set_of(ATOM)) == {}

    def test_variable_binds(self):
        alpha = fresh_type_var()
        subst = unify(SetType(alpha), set_of(ATOM))
        assert apply_substitution(alpha, subst) == ATOM

    def test_mismatched_types_raise(self):
        with pytest.raises(SRLTypeError):
            unify(BOOL, ATOM)

    def test_mismatched_tuple_widths_raise(self):
        with pytest.raises(SRLTypeError):
            unify(tuple_of(ATOM, ATOM), tuple_of(ATOM))

    def test_occurs_check(self):
        alpha = fresh_type_var()
        with pytest.raises(SRLTypeError):
            unify(alpha, set_of(alpha))

    def test_substitution_chains_are_followed(self):
        a, b = fresh_type_var(), fresh_type_var()
        subst = unify(a, b)
        subst = unify(b, ATOM, subst)
        assert apply_substitution(a, subst) == ATOM

    def test_nested_unification(self):
        alpha = fresh_type_var()
        left = set_of(tuple_of(alpha, BOOL))
        right = set_of(tuple_of(ATOM, BOOL))
        subst = unify(left, right)
        assert apply_substitution(left, subst) == right

    def test_unify_leaves_its_argument_alone(self):
        alpha, beta = fresh_type_var(), fresh_type_var()
        given = unify(alpha, ATOM)
        extended = unify(beta, BOOL, given)
        assert given == {alpha.name: ATOM}
        assert extended == {alpha.name: ATOM, beta.name: BOOL}
        # A failure part-way through a tuple keeps the earlier fields' bindings
        # out of the caller's substitution too.
        with pytest.raises(SRLTypeError):
            unify(tuple_of(beta, ATOM), tuple_of(BOOL, BOOL), given)
        assert given == {alpha.name: ATOM}

    def test_apply_returns_the_type_itself_when_nothing_is_bound(self):
        alpha, beta = fresh_type_var(), fresh_type_var()
        subst = unify(alpha, ATOM)
        for t in (set_of(tuple_of(beta, BOOL)), list_of(beta), tuple_of(ATOM, BOOL)):
            assert apply_substitution(t, subst) is t
            assert apply_substitution(t, {}) is t
        bound = set_of(tuple_of(alpha, beta))
        assert apply_substitution(bound, subst) == set_of(tuple_of(ATOM, beta))


class TestGroundness:
    def test_is_ground(self):
        assert is_ground(set_of(tuple_of(ATOM, BOOL)))
        assert not is_ground(set_of(fresh_type_var()))

    def test_free_type_vars(self):
        alpha = fresh_type_var()
        assert free_type_vars(set_of(tuple_of(alpha, ATOM))) == {alpha.name}

    def test_type_rendering(self):
        assert str(set_of(tuple_of(ATOM, BOOL))) == "set([atom, bool])"
        assert str(TypeVar("a1")) == "'a1"
