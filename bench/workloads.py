"""The ``verify`` and ``closure`` workloads.

A workload is a fixed list of items made from the seed.  ``run`` does one
item untraced through latpoly's public API, ``traced`` does the same work
from outside, one span per layer call, and both return a plain summary
that ``failures`` checks against facts fixed here, independently of any
timing code.  Summaries of the untraced and the traced run of one item
must be equal.
"""

import random
from dataclasses import dataclass

from latpoly import (
    DEFAULT_BUDGET,
    FunctionTable,
    boolean,
    build_from_covers,
    chain,
    check_condition,
    check_delta_preservation,
    check_homogeneity,
    check_horizontal,
    check_median_decomposition,
    check_range_convexity,
    check_range_idempotency,
    check_self_composition,
    closure_polynomials,
    count_monotone_tables,
    enumerate_polynomials_distributive,
    evaluate_all_conditions,
    find_nondistributive_witness,
    is_order_preserving,
    iter_monotone_tables,
    m3,
    product,
    random_monotone_table,
    verify_equivalence,
)

from spans import NullTracer


@dataclass(frozen=True)
class Item:
    """One unit of a workload whose time is measured on its own."""

    name: str
    ops: int  # operations it stands for: tables, instances or requests
    spec: tuple


def _m4():
    atoms = ["a", "b", "c", "d"]
    return build_from_covers(
        "M4",
        ["0", *atoms, "1"],
        [("0", a) for a in atoms] + [(a, "1") for a in atoms],
    )


LATTICES = {
    "chain2": lambda: chain(2),
    "chain3": lambda: chain(3),
    "chain4": lambda: chain(4),
    "B2": lambda: boolean(2),
    "B3": lambda: boolean(3),
    "M4": _m4,
    "M3xchain2": lambda: product(m3(), chain(2)),
}


def count_verdicts(tracer, report):
    """Record how many condition verdicts passed, i.e. scanned the whole grid."""
    held = [e.holds for e in report.entries.values() if e.holds is not None]
    tracer.count("conditions.verdicts", len(held))
    tracer.count("conditions.passes", sum(held))


# -- verify -------------------------------------------------------------------

# lattice, arity, mode, tables checked, polynomial functions (the closure size)
ACCEPTANCE_FIXTURES = (
    ("chain2", 1, "exhaustive", 3, 3),
    ("chain2", 2, "exhaustive", 6, 6),
    ("chain3", 1, "exhaustive", 10, 6),
    ("chain3", 2, "exhaustive", 175, 20),
    ("B2", 1, "exhaustive", 36, 9),
    ("B2", 2, "exhaustive", 28_224, 36),
)
LARGER_FIXTURES = (
    ("chain4", 2, "exhaustive", 24_696, 50),
    ("chain3", 3, "sampled", 1_000, 168),
)

# The per-table cost factor with which verify_equivalence picked its mode
# when this benchmark was written; the traced pass uses it only to bound
# its count of monotone tables the same way in sampled mode.
_VERIFY_COST_FACTOR = 12


def _timed_checkers():
    """Public checkers as the composite conditions call them, by span name."""
    return (
        ("order", is_order_preserving),
        ("median", check_median_decomposition),
        ("selfcomp", check_self_composition),
        ("homogeneity", lambda f: (check_homogeneity(f, "meet"), check_homogeneity(f, "join"))),
        ("horizontal", lambda f: (check_horizontal(f, "meet"), check_horizontal(f, "join"))),
        ("delta", lambda f: check_delta_preservation(f, "both")),
        ("convexity", check_range_convexity),
        ("idempotency", check_range_idempotency),
    )


class Verify:
    """verify_equivalence on the acceptance fixtures and two larger ones.

    The six acceptance fixtures form one item, as the acceptance script
    runs them; alone, the smaller ones take 1-30 ms, too little for a
    steady time next to the 1-5 s of the others.
    """

    name = "verify"

    def __init__(self, seed):
        self.seed = seed
        fixtures = [("acceptance", ACCEPTANCE_FIXTURES)]
        fixtures += [(f"{fx[0]}/n={fx[1]}", (fx,)) for fx in LARGER_FIXTURES]
        items = [Item(name, sum(fx[3] for fx in spec), spec) for name, spec in fixtures]
        random.Random(seed).shuffle(items)
        self.items = items
        self._tables = []

    def run(self, item):
        return tuple(self._verify(fx) for fx in item.spec)

    def _verify(self, fixture):
        lat, n = fixture[:2]
        report = verify_equivalence(LATTICES[lat](), n, seed=self.seed)
        return (report.mode, report.checked, report.polynomial_count, len(report.inconsistencies))

    def traced(self, item, tracer, reference):
        return tuple(self._traced(fx, tracer, ref) for fx, ref in zip(item.spec, reference))

    def _traced(self, fixture, tracer, reference):
        """verify_equivalence's steps, called from outside; the mode is the
        one the untraced call chose, so both passes check the same tables."""
        lat_name, n = fixture[:2]
        mode, checked = reference[:2]
        lattice = tracer.call("lattice", "build", LATTICES[lat_name])
        size = lattice.m**n
        closure = tracer.call("oracle", "closure", closure_polynomials, lattice, n)
        tracer.count("oracle.closure_polys", len(closure))
        tracer.count("oracle.closure_points", len(closure) * size)
        if mode == "exhaustive":
            total = tracer.call("oracle", "count", count_monotone_tables, lattice, n)
            values = tracer.call("oracle", "enumerate", lambda: list(iter_monotone_tables(lattice, n)))
        else:
            bound = max(1, DEFAULT_BUDGET // (size * _VERIFY_COST_FACTOR))
            total = tracer.call(
                "oracle", "count", count_monotone_tables, lattice, n, stop_after=bound
            )
            rng = random.Random(self.seed)
            values = tracer.call(
                "oracle",
                "sample",
                lambda: [random_monotone_table(lattice, n, rng) for _ in range(checked)],
            )
        tracer.count("oracle.monotone_tables", total + len(values))
        tables = [FunctionTable(lattice, n, v) for v in values]
        polynomial = inconsistent = 0
        for f in tables:
            report = tracer.call(
                "conditions",
                "evaluate",
                evaluate_all_conditions,
                f,
                known_polynomial=f.values in closure,
            )
            count_verdicts(tracer, report)
            polynomial += report.polynomial
            inconsistent += not report.consistent
        tracer.count("conditions.tables", len(tables))
        tracer.count("conditions.points", len(tables) * size)
        self._tables.append(tables)
        return (mode, len(tables), polynomial, inconsistent)

    def traced_extra(self, tracer):
        """Time each public checker alone on the tables of the traced pass."""
        for tables in self._tables:
            for span, check in _timed_checkers():
                tracer.call("conditions", span, lambda: [check(f) for f in tables])

    def failures(self, item, summary):
        return sum(_fixture_failures(fx, got) for fx, got in zip(item.spec, summary))


def _fixture_failures(fixture, summary):
    _, _, mode, checked, polys = fixture
    got_mode, got_checked, got_polys, inconsistent = summary
    if got_mode != mode or got_checked != checked:
        return checked
    # a sample repeats tables, so only an exhaustive scan meets each
    # polynomial function exactly once
    if mode == "exhaustive" and got_polys != polys:
        return checked
    if mode == "sampled" and not 0 < got_polys <= got_checked:
        return checked
    return inconsistent


# -- closure ------------------------------------------------------------------

# the default budget of 10^7 point evaluations refuses the M4 n=1 closure
CLOSURE_BUDGET = 10**9
WITNESS_CONDITIONS = ("iii", "iv", "v", "vi")

# lattice, arity, number of polynomial functions
CLOSURE_INSTANCES = (
    ("M4", 1, 1_430),
    ("M3xchain2", 1, 534),
    ("B3", 2, 216),
)


class Closure:
    """Clone closure on fresh lattices, then the searches that reuse it."""

    name = "closure"

    def __init__(self, seed):
        items = [Item(f"{lat}/n={n}", 1, (lat, n, size)) for lat, n, size in CLOSURE_INSTANCES]
        random.Random(seed).shuffle(items)
        self.items = items

    def run(self, item):
        return self.traced(item, NullTracer(), None)

    def traced(self, item, tracer, reference):
        lat_name, n, _ = item.spec
        lattice = tracer.call("lattice", "build", LATTICES[lat_name])
        closure = tracer.call(
            "oracle", "closure", closure_polynomials, lattice, n, budget=CLOSURE_BUDGET
        )
        tracer.count("oracle.closure_polys", len(closure))
        tracer.count("oracle.closure_points", len(closure) * lattice.m**n)
        if lattice.distributive:
            by_normal_forms = tracer.call(
                "oracle",
                "enum_distributive",
                enumerate_polynomials_distributive,
                lattice,
                n,
                budget=CLOSURE_BUDGET,
            )
            return (len(closure), by_normal_forms == closure)
        found = []
        for cond in WITNESS_CONDITIONS:
            w = tracer.call(
                "oracle",
                "witness",
                find_nondistributive_witness,
                lattice,
                n,
                cond,
                budget=CLOSURE_BUDGET,
            )
            found.append(
                None if w is None else (cond, w.direction, w.table.values, w.table in closure)
            )
        return (len(closure), tuple(found))

    def failures(self, item, summary):
        lat_name, n, size = item.spec
        got_size, extra = summary
        if got_size != size:
            return 1
        lattice = LATTICES[lat_name]()
        if lattice.distributive:
            return 0 if extra is True else 1
        for cond, w in zip(WITNESS_CONDITIONS, extra):
            if w is None or w[0] != cond:
                return 1
            _, direction, values, in_closure = w
            holds, _ = check_condition(FunctionTable(lattice, n, values), cond)
            if direction == "polynomial-violates" and (holds or not in_closure):
                return 1
            if direction == "nonpolynomial-satisfies" and (not holds or in_closure):
                return 1
        return 0
