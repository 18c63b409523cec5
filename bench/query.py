"""The ``query`` workload: a closed loop of CLI requests with one client.

Each request is what one ``latpoly`` command line asks for, given as text
the way the CLI reads it from files.  ``handle`` answers it with the
library calls the CLI makes, in its order, and returns the lines the CLI
prints and its exit code; the benchmark's tests compare the two on a
sample of requests.
"""

import random
from dataclasses import dataclass

from latpoly import (
    CONDITION_IDS,
    DEFAULT_BUDGET,
    FunctionTable,
    boolean,
    chain,
    closure_polynomials,
    dnf_to_lines,
    dnf_to_term,
    downset_lattice,
    enumerate_dnf,
    equivalent,
    evaluate,
    evaluate_all_conditions,
    extract_alpha,
    format_term,
    lattice_from_text,
    lattice_to_text,
    m3,
    materialize,
    n5,
    parse_term,
    product,
    random_monotone_table,
    random_term,
    reconstruct,
    report_lines,
    table_from_text,
    table_to_text,
)
from latpoly.errors import LimitExceededError, NotPolynomialError

from spans import NullTracer
from workloads import Item, count_verdicts

COMMANDS = ("check-term", "check-table", "normalize", "equiv", "dnf-count")
# normalize and dnf-count need a distributive lattice
NON_DISTRIBUTIVE_COMMANDS = ("check-term", "check-table", "equiv")
DNF_LIMIT = 1_000
# blocks of the stream; each block asks every applicable (lattice, arity,
# command) once, so a run that stops inside a block keeps the mix
BLOCKS = 12


def lattice_pool():
    """(lattice, arities) pairs; small lattices at n<=2 or 3, 64-element ones at n=1."""
    return (
        (chain(3), (1, 2, 3)),
        (chain(4), (1, 2)),
        (boolean(2), (1, 2)),
        (boolean(3), (1, 2)),
        (downset_lattice("abcd", [("a", "c"), ("b", "c"), ("b", "d")], name="downsetsN"), (1, 2)),
        (product(chain(3), chain(3)), (1, 2)),
        (n5(), (1,)),
        (m3(), (1,)),
        (boolean(6), (1,)),
        (product(chain(8), chain(8)), (1,)),
        (chain(48), (1,)),
    )


@dataclass(frozen=True)
class Request:
    command: str
    lattice_text: str
    arity: int
    terms: tuple = ()
    table_text: str | None = None
    limit: int | None = None


def _make_request(rng, lattice, text, n, command):
    term = format_term(random_term(rng, lattice, n))
    if command == "check-table":
        table = FunctionTable(lattice, n, random_monotone_table(lattice, n, rng))
        return Request(command, text, n, table_text=table_to_text(table))
    if command == "equiv":
        other = format_term(random_term(rng, lattice, n))
        # absorption, x = x | (x & y), holds in every lattice
        second = f"({term}) | (({term}) & ({other}))" if rng.random() < 0.5 else other
        return Request(command, text, n, terms=(term, second))
    if command == "dnf-count":
        return Request(command, text, n, terms=(term,), limit=DNF_LIMIT)
    return Request(command, text, n, terms=(term,))


class Query:
    """About 1,000 CLI requests over a pool of lattices, in seeded order."""

    name = "query"

    def __init__(self, seed):
        rng = random.Random(seed)
        cells = []
        self.lattices = {}
        for lattice, arities in lattice_pool():
            text = lattice_to_text(lattice)
            self.lattices[text] = lattice
            commands = COMMANDS if lattice.distributive else NON_DISTRIBUTIVE_COMMANDS
            cells += [(lattice, text, n, c) for n in arities for c in commands]
        items = []
        for _ in range(BLOCKS):
            rng.shuffle(cells)
            for lattice, text, n, command in cells:
                req = _make_request(rng, lattice, text, n, command)
                items.append(Item(f"{len(items)}:{command}:{lattice.name}/n={n}", 1, req))
        self.items = items

    def run(self, item):
        return handle(item.spec)

    def traced(self, item, tracer, reference):
        return handle(item.spec, tracer)

    def failures(self, item, summary):
        """1 if the printed answer contradicts an independent recomputation."""
        req = item.spec
        lines, code = summary
        lattice = self.lattices[req.lattice_text]
        n = req.arity
        if req.command in ("check-term", "check-table"):
            verdicts = {line.split(": ", 1)[1].split()[0] for line in lines}
            ok = code == (1 if "FAIL" in verdicts else 0)
            if req.command == "check-term":
                ok = ok and lines[0] == "polynomial: PASS"
            if lattice.distributive:
                ok = ok and len(verdicts) == 1
        elif req.command == "normalize":
            term = parse_term(req.terms[0], lattice, n)
            normal_form = parse_term(lines[-1].removeprefix("term: "), lattice, n)
            ok = code == 0 and materialize(lattice, normal_form, n) == materialize(lattice, term, n)
            ok = ok and equivalent(lattice, term, normal_form, n)[0]
        elif req.command == "equiv":
            f1, f2 = (materialize(lattice, parse_term(t, lattice, n), n) for t in req.terms)
            same = f1 == f2
            ok = lines[0] == f"equivalent: {'true' if same else 'false'}" and code == (not same)
        else:
            count = lines[0].removeprefix("count: ").removeprefix(">=")
            ok = code == 0 and count.isdigit() and int(count) >= 1
        return 0 if ok else 1


# -- the CLI's library-call sequences ----------------------------------------


def handle(req, tracer=NullTracer()):
    """Answer one request as the CLI would: (printed lines, exit code)."""
    return tracer.call("cli", req.command, _HANDLERS[req.command], req, tracer)


def _lattice(req, tracer):
    return tracer.call("lattice", "build", lattice_from_text, req.lattice_text)


def _term_function(req, lattice, tracer):
    n = req.arity
    term = tracer.call("terms", "parse_term", parse_term, req.terms[0], lattice, n)
    f = tracer.call("terms", "materialize", materialize, lattice, term, n, budget=DEFAULT_BUDGET)
    tracer.count("terms.points", len(f.values))
    return term, f


def _check(req, tracer):
    lattice = _lattice(req, tracer)
    if req.table_text is None:
        _, f = _term_function(req, lattice, tracer)
    else:
        f = tracer.call("terms", "parse_table", table_from_text, req.table_text, lattice)
    # evaluate_all_conditions' own polynomiality test, called from outside
    # so that its layer shows in the trace
    if lattice.distributive:
        polynomial, _ = tracer.call("dnf", "reconstruct", reconstruct, f, budget=DEFAULT_BUDGET)
    else:
        closure = tracer.call(
            "oracle", "closure", closure_polynomials, lattice, f.arity, budget=DEFAULT_BUDGET
        )
        tracer.count("oracle.closure_polys", len(closure))
        tracer.count("oracle.closure_points", len(closure) * len(f.values))
        polynomial = f.values in closure
    report = tracer.call(
        "conditions",
        "evaluate",
        evaluate_all_conditions,
        f,
        budget=DEFAULT_BUDGET,
        known_polynomial=polynomial,
        scope="interval",
    )
    tracer.count("conditions.tables")
    tracer.count("conditions.points", len(f.values))
    count_verdicts(tracer, report)
    lines = report_lines(report, conditions=list(CONDITION_IDS))
    return lines, 1 if any(": FAIL" in line for line in lines) else 0


def _normalize(req, tracer):
    lattice = _lattice(req, tracer)
    _, f = _term_function(req, lattice, tracer)
    alpha = tracer.call("dnf", "extract_alpha", extract_alpha, f)
    return dnf_to_lines(alpha) + [f"term: {format_term(dnf_to_term(alpha))}"], 0


def _equiv(req, tracer):
    lattice = _lattice(req, tracer)
    n = req.arity
    t1, t2 = (tracer.call("terms", "parse_term", parse_term, t, lattice, n) for t in req.terms)
    equal, witness = tracer.call(
        "dnf", "equivalent", equivalent, lattice, t1, t2, n, budget=DEFAULT_BUDGET
    )
    lines = [f"equivalent: {'true' if equal else 'false'}"]
    if equal:
        return lines, 0
    lhs = lattice.elements[evaluate(lattice, t1, witness)].name
    rhs = lattice.elements[evaluate(lattice, t2, witness)].name
    lines.append(f"witness: x={lattice.format_point(witness)} lhs={lhs} rhs={rhs}")
    return lines, 1


def _dnf_count(req, tracer):
    lattice = _lattice(req, tracer)
    _, f = _term_function(req, lattice, tracer)
    try:
        count = tracer.call(
            "dnf",
            "enumerate",
            enumerate_dnf,
            f,
            mode="count",
            limit=req.limit,
            budget=DEFAULT_BUDGET,
        )
    except NotPolynomialError:
        return ["count: 0 (not a polynomial function)"], 1
    except LimitExceededError as exc:
        tracer.count("dnf.normal_forms", exc.lower_bound)
        return [f"count: >={exc.lower_bound}"], 0
    tracer.count("dnf.normal_forms", count)
    return [f"count: {count}"], 0


_HANDLERS = {
    "check-term": _check,
    "check-table": _check,
    "normalize": _normalize,
    "equiv": _equiv,
    "dnf-count": _dnf_count,
}
