"""Differential suite: the three engine backends agree.

Random programs are generated with :mod:`repro.core.builders` (typed enough
to mostly run, loose enough to also exercise the runtime error paths) and
executed through ``Session`` on the ``compiled``, ``interp`` and
``reference`` backends.  The contract pinned here:

* **Values** (or the raised SRL error, type and message) are identical
  across all three backends.

* **Semantically determined counters** — ``inserts``, reduce iterations,
  ``function_calls``, ``new_values`` and the peak-size gauges — are
  identical across all three backends.

* **Steps** are identical between ``interp`` and ``reference`` (same
  tree-walker), and the compiled backend's coarser step count (reduce
  iterations + calls) never exceeds the interpreter's per-node count.

This is the acceptance gate for the compiled engine: any lowering or
codegen bug that changes observable behaviour shows up as a three-way
disagreement here.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    Atom,
    Database,
    Session,
    make_set,
    make_tuple,
    parse_program,
    with_standard_library,
)
from repro.core import builders as b
from repro.core.ast import Program
from repro.core.errors import SRLError

#: Stats that must agree exactly across every backend.
INVARIANT_COUNTERS = (
    "inserts",
    "set_reduce_iterations",
    "list_reduce_iterations",
    "function_calls",
    "new_values",
    "max_set_size",
    "max_accumulator_size",
    "max_list_length",
)


def _database() -> Database:
    return Database({
        "S": make_set(*(Atom(i) for i in range(5))),
        "T": make_set(*(Atom(i) for i in range(2, 7))),
        "R": make_set(*(make_tuple(Atom(i), Atom((i + 1) % 5)) for i in range(5))),
        "p": Atom(3),
    })


class _ProgramGenerator:
    """A seeded generator of small, mostly-well-typed SRL programs."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fresh = 0

    def _name(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def expr(self, kind: str, depth: int):
        rng = self.rng
        if kind == "bool":
            choices = ["const", "eq", "leq", "member", "subset", "is-empty", "if",
                       "forsome"]
        elif kind == "atom":
            choices = ["const", "choose", "if", "sel"]
            if depth > 1:
                choices.append("new")
        elif kind == "pair":
            choices = ["tup", "choose-R", "if"]
        else:  # set
            choices = ["db", "emptyset", "insert", "rest", "setop", "map", "if"]
        if depth <= 0:
            choices = choices[:2] if kind != "set" else ["db", "emptyset"]
        return getattr(self, f"_gen_{kind}")(rng.choice(choices), depth)

    # ------------------------------------------------------------- booleans

    def _gen_bool(self, shape: str, depth: int):
        rng = self.rng
        if shape == "const":
            return b.true() if rng.random() < 0.5 else b.false()
        if shape == "eq":
            kind = rng.choice(["atom", "atom", "set", "bool"])
            return b.eq(self.expr(kind, depth - 1), self.expr(kind, depth - 1))
        if shape == "leq":
            return b.leq(self.expr("atom", depth - 1), self.expr("atom", depth - 1))
        if shape == "member":
            return b.call("member", self.expr("atom", depth - 1),
                          self.expr("set", depth - 1))
        if shape == "subset":
            return b.call("subset", self.expr("set", depth - 1),
                          self.expr("set", depth - 1))
        if shape == "is-empty":
            return b.call("is-empty", self.expr("set", depth - 1))
        if shape == "if":
            return b.if_(self.expr("bool", depth - 1), self.expr("bool", depth - 1),
                         self.expr("bool", depth - 1))
        # forsome: an or-accumulated set-reduce over a set
        x, e = self._name(), self._name()
        a, r = self._name(), self._name()
        return b.set_reduce(
            self.expr("set", depth - 1),
            b.lam(x, e, b.eq(b.var(x), b.var(e))),
            b.lam(a, r, b.call("or", b.var(a), b.var(r))),
            b.false(),
            self.expr("atom", depth - 1),
        )

    # ---------------------------------------------------------------- atoms

    def _gen_atom(self, shape: str, depth: int):
        rng = self.rng
        if shape == "const":
            return b.atom(rng.randrange(7))
        if shape == "choose":
            return b.choose(self.expr("set", depth - 1))
        if shape == "new":
            return b.new(self.expr("set", depth - 1))
        if shape == "sel":
            return b.sel(rng.choice((1, 2)), self.expr("pair", depth - 1))
        return b.if_(self.expr("bool", depth - 1), self.expr("atom", depth - 1),
                     self.expr("atom", depth - 1))

    # ---------------------------------------------------------------- pairs

    def _gen_pair(self, shape: str, depth: int):
        if shape == "tup":
            return b.tup(self.expr("atom", depth - 1), self.expr("atom", depth - 1))
        if shape == "choose-R":
            return b.choose(b.var("R"))
        return b.if_(self.expr("bool", depth - 1), self.expr("pair", depth - 1),
                     self.expr("pair", depth - 1))

    # ----------------------------------------------------------------- sets

    def _gen_set(self, shape: str, depth: int):
        rng = self.rng
        if shape == "db":
            return b.var(rng.choice(("S", "T")))
        if shape == "emptyset":
            return b.emptyset()
        if shape == "insert":
            return b.insert(self.expr("atom", depth - 1), self.expr("set", depth - 1))
        if shape == "rest":
            return b.rest(self.expr("set", depth - 1))
        if shape == "setop":
            op = rng.choice(("union", "intersection", "difference"))
            return b.call(op, self.expr("set", depth - 1), self.expr("set", depth - 1))
        if shape == "map":
            x, e = self._name(), self._name()
            a, r = self._name(), self._name()
            body = b.var(x) if rng.random() < 0.5 else \
                b.if_(b.leq(b.var(x), b.var(e)), b.var(x), b.var(e))
            return b.set_reduce(
                self.expr("set", depth - 1),
                b.lam(x, e, body),
                b.lam(a, r, b.insert(b.var(a), b.var(r))),
                b.emptyset(),
                self.expr("atom", depth - 1),
            )
        return b.if_(self.expr("bool", depth - 1), self.expr("set", depth - 1),
                     self.expr("set", depth - 1))

    # -------------------------------------------------------------- program

    def program(self) -> Program:
        rng = self.rng
        program = Program()
        # A couple of generated auxiliary definitions, called via the same
        # pre-bound path the stdlib uses.
        program.define(b.define(
            "aux-flag", ["x"],
            b.call("member", b.var("x"), self.expr("set", 2)),
        ))
        program.define(b.define(
            "aux-grow", ["s"],
            b.insert(self.expr("atom", 1), b.var("s")),
        ))
        kind = rng.choice(["bool", "atom", "set", "pair"])
        main = self.expr(kind, rng.randrange(3, 6))
        if rng.random() < 0.5:
            main = b.if_(b.call("aux-flag", self.expr("atom", 1)),
                         main, self.expr(kind, 2))
        if kind == "set" and rng.random() < 0.5:
            main = b.call("aux-grow", main)
        program.main = main
        return with_standard_library(program)


def _observe(program: Program, backend: str, atom_order=None):
    session = Session(program, backend=backend, atom_order=atom_order)
    try:
        value = session.run(_database())
    except SRLError as error:
        return ("error", type(error).__name__, str(error)), None
    return ("ok", value), session.stats.as_dict()


@pytest.mark.parametrize("seed", range(60))
def test_backends_agree_on_random_programs(seed):
    program = _ProgramGenerator(seed).program()
    compiled, compiled_stats = _observe(program, "compiled")
    interp, interp_stats = _observe(program, "interp")
    reference, reference_stats = _observe(program, "reference")

    assert compiled == interp, f"compiled vs interp diverge on seed {seed}"
    assert interp == reference, f"interp vs reference diverge on seed {seed}"

    if compiled[0] == "ok":
        for counter in INVARIANT_COUNTERS:
            assert compiled_stats[counter] == interp_stats[counter] \
                == reference_stats[counter], (seed, counter)
        # interp and reference are the same tree-walker; compiled steps are
        # the coarser "iterations + calls" measure.
        assert interp_stats["steps"] == reference_stats["steps"]
        assert compiled_stats["steps"] <= interp_stats["steps"]


@pytest.mark.parametrize("source, expected", [
    ("(insert true (insert (nat 1) emptyset))", "{true, 1}"),
    ("(= (insert true emptyset) (insert (nat 1) emptyset))", "False"),
    ("(insert (insert true emptyset) (insert (insert (nat 1) emptyset) emptyset))",
     "{{true}, {1}}"),
])
def test_backends_keep_bool_and_nat_distinct(source, expected):
    """``true`` and ``(nat 1)`` are distinct elements on every backend,
    although Python's ``True == 1``."""
    program = parse_program(source)
    compiled, _ = _observe(program, "compiled")
    interp, _ = _observe(program, "interp")
    reference, _ = _observe(program, "reference")
    assert compiled == interp == reference
    assert compiled[0] == "ok" and str(compiled[1]) == expected


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_backends_agree_under_permuted_orders(seed):
    """A random implementation order must not make the backends diverge."""
    program = _ProgramGenerator(seed).program()
    order = list(range(16))
    random.Random(seed * 31 + 1).shuffle(order)
    compiled, _ = _observe(program, "compiled", atom_order=order)
    interp, _ = _observe(program, "interp", atom_order=order)
    assert compiled == interp, f"permuted-order divergence on seed {seed}"


def test_stdlib_calls_agree_across_backends():
    """The Fact 2.4 library, invoked via Session.call on every backend."""
    from repro.core import standard_library

    s = make_set(Atom(1), Atom(2), Atom(3))
    t = make_set(Atom(3), Atom(4))
    results = {}
    for backend in ("compiled", "interp", "reference"):
        session = Session(standard_library(), backend=backend)
        results[backend] = (
            session.call("union", s, t),
            session.call("intersection", s, t),
            session.call("difference", s, t),
            session.call("member", Atom(2), s),
            session.call("subset", t, s),
        )
    assert results["compiled"] == results["interp"] == results["reference"]
