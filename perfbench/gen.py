"""Seeded inputs, reference answers and operation streams.

Everything here is the benchmark's own code and uses only the standard
library, so a change to the system under test cannot move the inputs or
the answers they are checked against.  The same seed always gives the
same graphs, databases and operation sequence; the measured process
rebuilds the operation stream from the seed rather than receiving it.

Reference answers are computed with plain-Python bitset fixpoints, never
with the executors being measured.  The query semantics they encode
(reflexive TC and DTC, APATH as the least fixed point of the paper's
monotone operator, ``half`` meaning ``ceil(n / 2)``) are cross-checked
against the engine's tuple oracle by ``test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

#: Per-workload sizes.  ``TINY`` shrinks every knob for the self-tests.
#: ``update-mix`` checks one op in ``check_every``; the stride is odd so
#: that, with inserts and deletes alternating, it checks reads after both.
#: The SRL databases make reach, dreach, agap and company-join cost about
#: the same (powerset and perm-product are cheaper), so that the median op
#: falls inside one cost cluster rather than in a gap between two, where
#: it would jump from run to run; small ops give p99 enough samples.
SIZES = {
    "serve-hot": {"small_n": 40, "large_n": 128},
    "query-cold": {"dense_n": 128, "dense_files": 256, "sparse_n": 10_000,
                   "sparse_files": 8, "sparse_share": 0.10},
    "update-mix": {"n": 128, "check_every": 7},
    "srl-programs": {"databases": 24, "reach_n": 6, "dreach_n": 9,
                     "agap_n": 4, "powerset_n": 7, "perms": 30,
                     "perm_degree": 6, "employees": 44, "departments": 4},
}
TINY = {
    "serve-hot": {"small_n": 12, "large_n": 20},
    "query-cold": {"dense_n": 16, "dense_files": 4, "sparse_n": 9_000,
                   "sparse_files": 1, "sparse_share": 0.10},
    "update-mix": {"n": 16, "check_every": 3},
    "srl-programs": {"databases": 2, "reach_n": 5, "dreach_n": 5,
                     "agap_n": 4, "powerset_n": 4, "perms": 6,
                     "perm_degree": 3, "employees": 6, "departments": 2},
}

#: The canonical queries a dense structure is asked, and the ones a sparse
#: (chunked-path) structure is asked.  ``agap`` at n=10k does not finish
#: in reasonable time, so the sparse mix leaves it out.
DENSE_QUERIES = ("tc", "dtc", "apath", "agap", "gap", "reach", "dreach",
                 "half-out", "non-reach", "count-reach")
SPARSE_QUERIES = ("reach", "dreach", "half-out")

#: ``serve-hot`` cycles these (structure, query) pairs.
SERVE_PAIRS = (("small", "tc"), ("small", "apath"), ("small", "non-reach"),
               ("small", "half-out"), ("large", "reach"), ("large", "agap"),
               ("large", "count-reach"), ("large", "dtc"))

#: ``update-mix`` keeps these memoized and reads one of them after each
#: update.
UPDATE_QUERIES = ("tc", "apath", "reach", "non-reach", "count-reach", "dtc")

SRL_PROGRAMS = ("reach", "dreach", "agap", "powerset", "perm-product",
                "company-join")

#: Degree patterns of the SRL programs' graphs.  The SRL closures cost
#: about |R| * |E| per stage, so a fixed pattern keeps the cost per
#: database steady; ``dreach`` needs unique successors to have work.
SRL_GRAPH_DEGREES = {"reach": (2,), "dreach": (1, 2), "agap": (1, 2, 2)}

#: Out-degree distribution of the generated graphs: sinks, vertices with a
#: unique successor (so DTC has work) and a few branching ones.
DENSE_DEGREES = (0, 1, 1, 2, 2, 3, 4, 6, 8)
SPARSE_DEGREES = (0, 1, 1, 2, 2, 3)
UNIVERSAL_SHARE = 0.4


# ------------------------------------------------------------------ graphs


class Graph:
    """An alternating graph: ``E`` as successor lists over ``0..n-1`` and
    the universal vertices ``A``."""

    def __init__(self, n: int, edges, universal=()):
        self.n = n
        self.edges = set(edges)
        self.universal = set(universal)

    def successors(self) -> list[list[int]]:
        succ = [[] for _ in range(self.n)]
        for u, v in self.edges:
            succ[u].append(v)
        return succ


def alternating_graph(n: int, rng: random.Random,
                      degrees=DENSE_DEGREES) -> Graph:
    """A random alternating graph with a fixed degree sequence: vertex
    ``u`` gets out-degree ``degrees[slot(u) % len(degrees)]`` for a random
    slot permutation, with distinct random targets, and a fixed share of
    vertices is universal.  Fixing the degree multiset keeps the work per
    graph close from seed to seed."""
    slots = list(range(n))
    rng.shuffle(slots)
    edges = set()
    for u in range(n):
        degree = min(n, degrees[slots[u] % len(degrees)])
        edges.update((u, v) for v in rng.sample(range(n), degree))
    universal = set(rng.sample(range(n), round(n * UNIVERSAL_SHARE)))
    return Graph(n, edges, universal)


def sparse_graph(n: int, rng: random.Random) -> Graph:
    """A sparse graph for the chunked path, plus one hub whose out-degree
    reaches half the universe so ``half-out`` has an answer.  Vertex 0
    points at the hub, so ``reach`` from 0 always explores the bulk of the
    graph rather than sometimes stopping at once."""
    graph = alternating_graph(n, rng, SPARSE_DEGREES)
    graph.universal = set()
    hub = rng.randrange(1, n)
    for v in rng.sample(range(n), (n + 1) // 2):
        graph.edges.add((hub, v))
    graph.edges.add((0, hub))
    return graph


# -------------------------------------------------------------- references


def closure(n: int, succ) -> list[int]:
    """Reflexive-transitive closure as one reach bitset per vertex."""
    reach = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n - 1, -1, -1):
            r = reach[u]
            for v in succ[u]:
                r |= reach[v]
            if r != reach[u]:
                reach[u] = r
                changed = True
    return reach


def deterministic_closure(n: int, succ) -> list[int]:
    """Reflexive closure along edges out of vertices with exactly one
    (distinct) successor."""
    unique = [s[0] if len(s) == 1 else None for s in succ]
    reach = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            v = unique[u]
            if v is not None:
                r = reach[u] | reach[v]
                if r != reach[u]:
                    reach[u] = r
                    changed = True
    return reach


def apath(graph: Graph, succ) -> list[int]:
    """APATH as bitsets: the least fixed point of
    ``R[x] = {x} | OR/AND over successors of R[z]`` (AND for universal
    vertices with successors, OR for existential ones)."""
    n = graph.n
    reach = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n - 1, -1, -1):
            targets = succ[x]
            if not targets:
                continue
            if x in graph.universal:
                r = -1
                for z in targets:
                    r &= reach[z]
            else:
                r = 0
                for z in targets:
                    r |= reach[z]
            r |= reach[x]
            if r != reach[x]:
                reach[x] = r
                changed = True
    return reach


def _pairs(reach: list[int], n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if reach[u] >> v & 1]


def query_answers(graph: Graph, names) -> dict:
    """Reference answers for canonical queries on ``graph``: a sorted row
    list for queries with free variables, a bool for sentences."""
    n = graph.n
    succ = [sorted(set(s)) for s in graph.successors()]
    half = (n + 1) // 2
    memo: dict = {}

    def tc():
        if "tc" not in memo:
            memo["tc"] = closure(n, succ)
        return memo["tc"]

    def dtc():
        if "dtc" not in memo:
            memo["dtc"] = deterministic_closure(n, succ)
        return memo["dtc"]

    def ap():
        if "apath" not in memo:
            memo["apath"] = apath(graph, succ)
        return memo["apath"]

    def reaches(u: int, v: int) -> bool:
        seen = {u}
        frontier = [u]
        while frontier:
            frontier = [w for x in frontier for w in succ[x]
                        if w not in seen and not seen.add(w)]
        return v in seen

    def dreaches(u: int, v: int) -> bool:
        seen = set()
        while u not in seen:
            if u == v:
                return True
            seen.add(u)
            if len(succ[u]) != 1:
                return False
            u = succ[u][0]
        return False

    answers = {}
    for name in names:
        if name == "tc":
            answers[name] = _pairs(tc(), n)
        elif name == "non-reach":
            full = (1 << n) - 1
            answers[name] = _pairs([full & ~r for r in tc()], n)
        elif name == "count-reach":
            answers[name] = [(u,) for u in range(n)
                             if bin(tc()[u]).count("1") >= half]
        elif name in ("reach", "gap"):
            answers[name] = reaches(0, n - 1)
        elif name == "dtc":
            answers[name] = _pairs(dtc(), n)
        elif name == "dreach":
            answers[name] = dreaches(0, n - 1)
        elif name == "apath":
            answers[name] = _pairs(ap(), n)
        elif name == "agap":
            answers[name] = bool(ap()[0] >> (n - 1) & 1)
        elif name == "half-out":
            answers[name] = [(u,) for u in range(n) if len(succ[u]) >= half]
        else:
            raise ValueError(f"no reference for query {name!r}")
    return answers


# ------------------------------------------------------ canonical answers


def canonical(value):
    """A deterministic nested form of an answer: sets become sorted lists
    (by ``repr``), tuples and lists become tuples."""
    if isinstance(value, (set, frozenset)):
        return ("set", sorted((canonical(item) for item in value), key=repr))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(item) for item in value)
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()[:20]


# -------------------------------------------------------- operation streams


def query_cold_plan(seed: int, sizes: dict) -> list[tuple[str, int, str]]:
    """The (kind, file index, query) ops ``query-cold`` cycles through.

    Every tenth op (by ``sparse_share``) runs on a sparse structure; the
    dense ops take the canonical queries in turn, so each block of ops
    has the same query mix, and the files in a seeded order such that
    every dense (file, query) pair appears once before any repeats.  The
    generated graphs share their degree multiset, so their statistics
    repeat; the measured process clears the optimizer's plan cache
    before each op so that every op optimizes all the same."""
    rng = random.Random(seed * 7919 + 1)
    dense_files = list(range(sizes["dense_files"]))
    sparse_files = list(range(sizes["sparse_files"]))
    rng.shuffle(dense_files)
    rng.shuffle(sparse_files)
    period = round(1 / sizes["sparse_share"])
    dense_ops = len(DENSE_QUERIES) * len(dense_files)
    plan = []
    dense = sparse = 0
    while dense < dense_ops:
        if len(plan) % period == period - 1:
            query = SPARSE_QUERIES[sparse % len(SPARSE_QUERIES)]
            file = sparse_files[sparse // len(SPARSE_QUERIES)
                                % len(sparse_files)]
            plan.append(("sparse", file, query))
            sparse += 1
        else:
            turn, round_ = dense % len(DENSE_QUERIES), \
                dense // len(DENSE_QUERIES)
            file = dense_files[(round_ + 7 * turn) % len(dense_files)]
            plan.append(("dense", file, DENSE_QUERIES[turn]))
            dense += 1
    return plan


def update_stream(graph: Graph, seed: int):
    """Yield ``(op, (u, v), read_query)`` forever: a seeded single-edge
    insert of a missing edge or delete of a present one, then the
    memoized query to read.  Inserts and deletes alternate, so the edge
    count stays put, and every 12 ops read each query once after an
    insert and once after a delete.  ``graph.edges`` follows along."""
    rng = random.Random(seed * 104729 + 3)
    n = graph.n
    present = sorted(graph.edges)
    positions = {edge: i for i, edge in enumerate(present)}
    index = 0
    while True:
        if index % 2:
            i = rng.randrange(len(present))
            edge = present[i]
            last = present.pop()
            if i < len(present):
                present[i] = last
                positions[last] = i
            del positions[edge]
            graph.edges.discard(edge)
            op = "delete"
        else:
            while True:
                edge = (rng.randrange(n), rng.randrange(n))
                if edge not in positions:
                    break
            positions[edge] = len(present)
            present.append(edge)
            graph.edges.add(edge)
            op = "insert"
        turn = len(UPDATE_QUERIES)
        yield op, edge, UPDATE_QUERIES[(index + index // turn) % turn]
        index += 1


# ------------------------------------------------------------ SRL inputs


def srl_databases(seed: int, sizes: dict) -> dict:
    """Per program, a list of plain-Python database descriptions and
    their reference answers (``program -> [(bindings, answer)]``)."""
    rng = random.Random(seed * 65537 + 5)
    out = {name: [] for name in SRL_PROGRAMS}
    for _ in range(sizes["databases"]):
        for name, degrees in SRL_GRAPH_DEGREES.items():
            n = sizes[f"{name}_n"]
            graph = alternating_graph(n, rng, degrees)
            bindings = {"NODES": ("atoms", list(range(n))),
                        "EDGES": ("pairs", sorted(graph.edges)),
                        "SOURCE": ("atom", 0), "TARGET": ("atom", n - 1)}
            if name == "agap":
                bindings["ANDS"] = ("atoms", sorted(graph.universal))
            answer = query_answers(graph, [name])[name]
            out[name].append((bindings, answer))
        size = sizes["powerset_n"]
        base = sorted(rng.sample(range(3 * size), size))
        subsets = {frozenset(item for bit, item in enumerate(base)
                             if mask >> bit & 1) for mask in range(1 << size)}
        out["powerset"].append(({"S": ("atoms", base)}, subsets))
        count, degree = sizes["perms"], sizes["perm_degree"]
        perms = [rng.sample(range(degree), degree) for _ in range(count)]
        start, target = rng.randrange(degree), rng.randrange(degree)
        value = start
        for perm in perms:
            value = perm[value]
        out["perm-product"].append(({
            "D": ("atoms", list(range(max(count + 1, degree)))),
            "ZERO": ("atom", 0),
            "PERMS": ("perms", [[i, s, t] for i, perm in enumerate(perms)
                                for s, t in enumerate(perm)]),
            "START": ("atom", start), "TARGET": ("atom", target)},
            value == target))
        departments = sizes["departments"]
        employees = [(100 + e, rng.randrange(departments), rng.randrange(3))
                     for e in range(sizes["employees"])]
        pairs = {(a, b) for a, da, _ in employees for b, db, _ in employees
                 if da == db and a != b}
        out["company-join"].append((
            {"EMP": ("triples", [list(row) for row in employees])}, pairs))
    return out


def srl_schedule(seed: int, sizes: dict):
    """Yield ``(program, database index)`` forever: the programs in a
    fixed order, each cycling through its databases in a seeded order."""
    rng = random.Random(seed * 31337 + 7)
    order = list(range(sizes["databases"]))
    rng.shuffle(order)
    turn = 0
    while True:
        for name in SRL_PROGRAMS:
            yield name, order[turn % len(order)]
        turn += 1


#: The yardstick's fixed graph: 56 vertices, three successors each.
_YARD_N = 56
_YARD_SUCC = [[(u * 7 + k) % _YARD_N for k in (1, 5, 11)]
              for u in range(_YARD_N)]


def yardstick_ms() -> float:
    """Milliseconds for a fixed piece of pure-Python work of the kinds the
    measured code does: a big-int bitset closure, an int set, dict
    updates.  The in-process timings are reported at the reference speed
    at which this takes exactly 1 ms (0.6-1.0 ms on a 2-core cloud VM).
    It makes no garbage-collected objects beyond a few, so it neither
    triggers nor pays for collections of the heap around it."""
    start = time.perf_counter()
    reach = closure(_YARD_N, _YARD_SUCC)
    pairs = frozenset(u * _YARD_N + v for u in range(_YARD_N)
                      for v in range(_YARD_N) if reach[u] >> v & 1)
    degree: dict[int, int] = {}
    for pair in pairs:
        degree[pair // _YARD_N] = degree.get(pair // _YARD_N, 0) + 1
    return (time.perf_counter() - start) * 1e3


def calibration_ms(seconds: float = 0.25) -> float:
    """The host's speed now: the mean yardstick over ``seconds``.  The
    host's speed flips between fast and slow spells of a few tens of
    milliseconds, so a mean over many spells stands for a start of the
    program better than the median of a short burst."""
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        times.append(yardstick_ms())
    return statistics.fmean(times)


def relation_key(rows) -> str:
    """An order-free fingerprint of a set of integer tuples.  Tuple and
    frozenset hashes of ints do not depend on ``PYTHONHASHSEED``, so two
    processes agree on it."""
    rows = rows if isinstance(rows, frozenset) else frozenset(rows)
    return f"{len(rows)}:{hash(rows)}"
