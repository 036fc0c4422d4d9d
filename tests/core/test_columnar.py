"""Columnar kernels (P7): bitset/CSR representations vs. set-level oracles.

Every kernel in :mod:`repro.core.columnar` is checked against the obvious
tuple-set computation on seeded random relations, and
:func:`closure_adjacency` against the engine's
:func:`~repro.core.engine.transitive_closure` kernel.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    adjacency_of_binary,
    and_rows,
    andnot_rows,
    bits_of_unary,
    closure_adjacency,
    compose,
    compose_successors,
    count_per_source,
    csr_of_adjacency,
    adjacency_of_csr,
    iter_bits,
    mask_rows_source,
    mask_rows_target,
    or_rows,
    proj_source,
    proj_target,
    rows_of_adjacency,
    rows_of_bits,
    successor_lists,
    transpose,
)
from repro.core.engine import transitive_closure
from repro.core.errors import ResourceLimitExceeded
from repro.core.governor import Budget, Governor


def random_binary(n, density, seed):
    rng = random.Random(seed)
    return {(x, y) for x in range(n) for y in range(n)
            if rng.random() < density}


def random_unary(n, density, seed):
    rng = random.Random(seed)
    return {(x,) for x in range(n) if rng.random() < density}


@pytest.mark.parametrize("seed", range(5))
class TestKernelsAgainstSets:
    N = 17

    def test_bitset_roundtrip(self, seed):
        rows = random_unary(self.N, 0.4, seed)
        assert rows_of_bits(bits_of_unary(rows)) == rows

    def test_compose_through_successor_lists(self, seed):
        left = random_binary(self.N, 0.2, seed)
        right = random_binary(self.N, 0.3, seed + 50)
        successors = successor_lists(adjacency_of_binary(left, self.N))
        assert successors == [tuple(sorted(y for x, y in left if x == row))
                              for row in range(self.N)]
        got = compose_successors(successors,
                                 adjacency_of_binary(right, self.N))
        assert rows_of_adjacency(got) == {(x, z) for x, y in left
                                          for w, z in right if y == w}

    def test_adjacency_roundtrip_and_csr(self, seed):
        rows = random_binary(self.N, 0.2, seed)
        adj = adjacency_of_binary(rows, self.N)
        assert rows_of_adjacency(adj) == rows
        assert adjacency_of_csr(*csr_of_adjacency(adj)) == adj

    def test_iter_bits_ascending(self, seed):
        rows = random_unary(self.N, 0.5, seed)
        got = list(iter_bits(bits_of_unary(rows)))
        assert got == sorted(x for (x,) in rows)

    def test_transpose(self, seed):
        rows = random_binary(self.N, 0.25, seed)
        adj = adjacency_of_binary(rows, self.N)
        assert rows_of_adjacency(transpose(adj, self.N)) == \
            {(y, x) for x, y in rows}

    def test_compose(self, seed):
        left = random_binary(self.N, 0.2, seed)
        right = random_binary(self.N, 0.2, seed + 100)
        got = rows_of_adjacency(compose(
            adjacency_of_binary(left, self.N),
            adjacency_of_binary(right, self.N)))
        want = {(x, z) for x, y in left for y2, z in right if y == y2}
        assert got == want

    def test_masks_and_projections(self, seed):
        rows = random_binary(self.N, 0.3, seed)
        keep = random_unary(self.N, 0.5, seed + 1)
        adj = adjacency_of_binary(rows, self.N)
        bits = bits_of_unary(keep)
        assert rows_of_adjacency(mask_rows_source(adj, bits)) == \
            {(x, y) for x, y in rows if (x,) in keep}
        assert rows_of_adjacency(mask_rows_target(adj, bits)) == \
            {(x, y) for x, y in rows if (y,) in keep}
        # Antijoin is the same mask with the complement bitset.
        assert rows_of_adjacency(mask_rows_source(adj, ~bits & ((1 << self.N) - 1))) == \
            {(x, y) for x, y in rows if (x,) not in keep}
        assert rows_of_adjacency(mask_rows_target(adj, ~bits & ((1 << self.N) - 1))) == \
            {(x, y) for x, y in rows if (y,) not in keep}
        assert rows_of_bits(proj_source(adj)) == {(x,) for x, _ in rows}
        assert rows_of_bits(proj_target(adj)) == {(y,) for _, y in rows}

    def test_rowwise_algebra(self, seed):
        a = adjacency_of_binary(random_binary(self.N, 0.3, seed), self.N)
        b = adjacency_of_binary(random_binary(self.N, 0.3, seed + 50), self.N)
        assert rows_of_adjacency(and_rows(a, b)) == \
            rows_of_adjacency(a) & rows_of_adjacency(b)
        assert rows_of_adjacency(andnot_rows(a, b)) == \
            rows_of_adjacency(a) - rows_of_adjacency(b)
        assert rows_of_adjacency(or_rows((a, b))) == \
            rows_of_adjacency(a) | rows_of_adjacency(b)

    def test_count_per_source(self, seed):
        rows = random_binary(self.N, 0.3, seed)
        adj = adjacency_of_binary(rows, self.N)
        for threshold in (1, 3, 8):
            want = {(x,) for x in range(self.N)
                    if sum(1 for r in rows if r[0] == x) >= threshold}
            assert rows_of_bits(count_per_source(adj, threshold)) == want


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("deterministic", [False, True])
def test_closure_matches_engine_kernel(seed, deterministic):
    """The closure over row bitsets == the engine's set-level
    transitive-closure kernel (both reflexive over the universe)."""
    n = 13
    rows = random_binary(n, 0.15, seed)
    successors = {}
    for x, y in rows:
        successors.setdefault((x,), set()).add((y,))
    want = {(a[0], b[0]) for a, b in
            transitive_closure(successors, deterministic=deterministic)}
    want |= {(i, i) for i in range(n)}
    adj = adjacency_of_binary(rows, n)
    got = rows_of_adjacency(
        closure_adjacency(adj, n, deterministic=deterministic))
    assert got == want


@st.composite
def graphs(draw):
    """A universe size and an edge set over it: self-loops, cycles and
    the empty and one-element universes included."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return 0, set()
    vertex = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.sets(st.tuples(vertex, vertex), max_size=3 * n))


@settings(max_examples=200, deadline=None)
@given(graphs(), st.booleans())
def test_condensation_closure_matches_the_wave_loop(graph, deterministic):
    """The ungoverned closure (one sweep over the SCC condensation) ==
    the governed one (frontier-BFS waves; a generous governor forces that
    path without ever tripping)."""
    n, rows = graph
    adj = adjacency_of_binary(rows, n)
    waves = closure_adjacency(adj, n, deterministic=deterministic,
                              governor=Governor(Budget()))
    assert closure_adjacency(adj, n, deterministic=deterministic) == waves


def test_closure_respects_round_budget():
    n = 40
    adj = adjacency_of_binary({(i, i + 1) for i in range(n - 1)}, n)
    governor = Governor(Budget(max_fixpoint_rounds=3))
    with pytest.raises(ResourceLimitExceeded):
        closure_adjacency(adj, n, governor=governor)
