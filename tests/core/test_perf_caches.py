"""Differential property tests for the perf-overhaul caches.

Every optimized path in the values layer (cached canonical keys, the
sorted-input constructor, the binary-searched ``insert``, the linear-merge
``union``, the ``choose``/``rest`` fast path, the memoized ``value_size``)
must agree *exactly* with the pure, uncached oracles kept in
:mod:`repro.core.reference` — including under permuted ``atom_order``
(Section 7 order-independence) and on the bool/nat overlap, where Python's
``True == 1`` must not leak into SRL equality.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core import Atom, Database, Evaluator, make_set, make_tuple
from repro.core.ast import Choose, Rest, Var
from repro.core.reference import (
    choose_reference,
    rest_reference,
    set_elements_reference,
    value_key_reference,
    value_size_reference,
    value_sort_reference,
)
from repro.core.values import (
    SRLList,
    SRLSet,
    SRLTuple,
    value_key,
    value_size,
    value_sort,
)

DOMAIN = 8

atoms = st.integers(min_value=0, max_value=DOMAIN - 1).map(Atom)
# Naturals include 0 and 1, so bool and nat values overlap under Python's
# ``==`` (True == 1); the value layer keeps the kinds distinct (DESIGN.md,
# "Values layer") and the key-based oracles check that it does.
scalars = st.one_of(st.booleans(), st.integers(min_value=0, max_value=9), atoms)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(lambda xs: SRLTuple(tuple(xs))),
        st.lists(children, max_size=4).map(SRLSet),
        st.lists(children, max_size=4).map(SRLList),
    ),
    max_leaves=20,
)
permutations = st.permutations(list(range(DOMAIN))).map(tuple)
# Dense in the bool/nat overlap, so a ``True == 1`` leak shows in a few examples.
overlapping = st.one_of(st.booleans(), st.integers(min_value=0, max_value=2))


def _keys(elements):
    """Reference keys of a sequence of values: comparing these, rather than
    the values with ``==``, cannot mistake ``True`` for ``1``."""
    return [value_key_reference(v) for v in elements]


class TestCachedKeys:
    @given(values)
    def test_cached_key_matches_reference(self, value):
        assert value_key(value) == value_key_reference(value)

    @given(values, permutations)
    def test_cached_key_matches_reference_under_permutation(self, value, order):
        assert value_key(value, order) == value_key_reference(value, order)

    @given(values, permutations)
    def test_key_is_stable_across_repeated_and_interleaved_calls(self, value, order):
        natural_first = value_key(value)
        permuted = value_key(value, order)
        # Asking again (now served from the cache) must return equal keys.
        assert value_key(value) == natural_first
        assert value_key(value, order) == permuted

    @given(st.lists(values, max_size=8))
    def test_sorting_matches_reference(self, items):
        assert value_sort(items) == value_sort_reference(items)

    @given(st.lists(values, max_size=8), permutations)
    def test_sorting_matches_reference_under_permutation(self, items, order):
        optimized = sorted(items, key=lambda v: value_key(v, order))
        assert optimized == value_sort_reference(items, order)


class TestSetConstruction:
    @given(st.lists(values, max_size=8))
    def test_construction_matches_reference(self, items):
        assert _keys(SRLSet(items).elements) == _keys(set_elements_reference(items))

    @given(st.lists(values, max_size=8))
    def test_sorted_input_detection_is_invisible(self, items):
        # Feeding a set's own (already canonical) elements back in must
        # reproduce it exactly, via the no-sort path.
        canonical = SRLSet(items)
        assert SRLSet(canonical.elements).elements == canonical.elements

    @given(st.lists(values, max_size=8), values)
    def test_insert_matches_reference(self, items, extra):
        fast = SRLSet(items).insert(extra)
        assert _keys(fast.elements) == _keys(set_elements_reference([*items, extra]))

    @given(st.lists(values, max_size=6), st.lists(values, max_size=6))
    def test_union_linear_merge_matches_reference(self, left, right):
        fast = SRLSet(left).union(SRLSet(right))
        assert _keys(fast.elements) == _keys(set_elements_reference([*left, *right]))

    @given(st.lists(values, max_size=8), values)
    def test_membership_matches_reference(self, items, probe):
        assert (probe in SRLSet(items)) == \
            (value_key_reference(probe) in _keys(items))

    @given(st.lists(overlapping, max_size=5), overlapping)
    def test_bool_nat_overlap_matches_reference(self, items, extra):
        s = SRLSet(items)
        assert _keys(s.elements) == _keys(set_elements_reference(items))
        assert _keys(s.insert(extra).elements) == \
            _keys(set_elements_reference([*items, extra]))
        assert (extra in s) == (value_key_reference(extra) in _keys(items))


class TestChooseRestFastPath:
    @given(st.lists(values, min_size=1, max_size=8))
    def test_choose_rest_match_brute_force(self, items):
        s = SRLSet(items)
        assert value_key_reference(s.choose()) == value_key_reference(choose_reference(s))
        assert s.rest() == rest_reference(s)

    @given(st.lists(atoms, min_size=1, max_size=8), permutations)
    def test_evaluator_choose_rest_match_reference_under_permutation(self, items, order):
        s = SRLSet(items)
        database = Database({"S": s})
        natural = Evaluator()
        assert natural.run(database, main=Choose(Var("S"))) == choose_reference(s)
        assert natural.run(database, main=Rest(Var("S"))) == rest_reference(s)
        permuted = Evaluator(atom_order=order)
        assert permuted.run(database, main=Choose(Var("S"))) == choose_reference(s, order)
        assert permuted.run(database, main=Rest(Var("S"))) == rest_reference(s, order)

    @given(st.lists(st.lists(atoms, max_size=3).map(SRLSet), min_size=1, max_size=6),
           permutations)
    def test_fast_path_on_sets_of_sets_under_permutation(self, inner_sets, order):
        s = SRLSet(inner_sets)
        database = Database({"S": s})
        permuted = Evaluator(atom_order=order)
        assert permuted.run(database, main=Choose(Var("S"))) == choose_reference(s, order)
        assert permuted.run(database, main=Rest(Var("S"))) == rest_reference(s, order)


class TestValueSizeCache:
    @given(values)
    def test_cached_size_matches_reference(self, value):
        assert value_size(value) == value_size_reference(value)
        assert value_size(value) == value_size_reference(value)  # from the cache

    @given(st.lists(values, max_size=6))
    def test_size_propagates_through_insert_chains(self, items):
        s = SRLSet()
        value_size(s)  # warm the cache so propagation kicks in
        for item in items:
            s = s.insert(item)
            assert value_size(s) == value_size_reference(s)

    @given(st.lists(values, min_size=1, max_size=6))
    def test_size_propagates_through_rest(self, items):
        s = SRLSet(items)
        value_size(s)
        while not s.is_empty():
            assert value_size(s) == value_size_reference(s)
            s = s.rest()

    @given(st.lists(values, max_size=5))
    def test_size_propagates_through_cons(self, items):
        xs = SRLList()
        value_size(xs)
        for item in items:
            xs = xs.cons(item)
            assert value_size(xs) == value_size_reference(xs)


class TestKindConsistency:
    """The key-based paths keep bool and nat distinct kinds (DESIGN.md,
    "Values layer"); equality, hashing, membership and dedup must all agree
    on that, so a canonical set can never hold two equal elements."""

    def test_membership_and_equality_agree_on_bool_vs_nat(self):
        assert True not in SRLSet([1])
        assert 0 not in SRLSet([False])
        assert len(SRLSet([1]).insert(True)) == 2
        assert SRLSet([True]) != SRLSet([1])
        assert hash(SRLSet([True])) != hash(SRLSet([1]))

    def test_sets_of_sets_hold_no_equal_elements(self):
        outer = SRLSet([SRLSet([True]), SRLSet([1])])
        assert len(outer) == 2
        first, second = outer.elements
        assert first != second  # consistent: distinct members compare unequal

    def test_python_set_over_srl_sets_respects_kinds(self):
        assert len({SRLSet([True]), SRLSet([1]), SRLSet([True])}) == 2

    def test_homogeneous_equality_unchanged(self):
        assert SRLSet([Atom(1), Atom(2)]) == SRLSet([Atom(2), Atom(1)])
        assert make_set(make_set(Atom(1))) == make_set(make_set(Atom(1)))

    def test_language_equal_agrees_with_insert_dedup(self):
        # The language-level ``=`` must agree with insert's dedup: if a set
        # keeps x and y as two elements, ``x = y`` must be false.
        from repro.core.ast import BoolConst, Equal, Insert, EmptySet, NatConst
        evaluator = Evaluator()
        two = evaluator.run({}, main=Insert(BoolConst(True),
                                            Insert(NatConst(1), EmptySet())))
        assert len(two) == 2
        assert evaluator.run({}, main=Equal(BoolConst(True), NatConst(1))) is False
        assert evaluator.run({}, main=Equal(NatConst(1), NatConst(1))) is True
        assert evaluator.run({}, main=Equal(BoolConst(True), BoolConst(True))) is True

    def test_lists_respect_kinds(self):
        assert SRLList([True]) != SRLList([1])
        assert SRLList([Atom(1), Atom(2)]) == SRLList([Atom(1), Atom(2)])

    def test_foreign_probe_membership_falls_back_to_equality(self):
        # A plain Python tuple is not an SRL value, but the seed's equality
        # scan matched it against SRLTuple elements; that must still work.
        s = SRLSet([make_tuple(Atom(0), Atom(1))])
        assert (Atom(0), Atom(1)) in s
        assert "not-a-value" not in s


class TestPermutedKeyCacheBound:
    def test_many_random_orders_do_not_accumulate_keys(self):
        import itertools
        s = make_set(make_tuple(Atom(0), Atom(1)), Atom(2))
        for order in itertools.islice(itertools.permutations(range(DOMAIN)), 64):
            value_key(s, order)
        cache = s._key_cache
        assert sum(1 for k in cache if k is not None) <= 4
        # The natural-order key is never evicted.
        value_key(s)
        assert None in cache
