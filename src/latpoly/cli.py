"""Command-line surface over the library's text formats.

Exit codes: 0 all requested properties hold (or terms are equivalent);
1 a property fails or terms differ (witnesses printed); 2 usage or format
error, or any other error of this package; 3 evaluation budget exceeded;
4 internal error (an unexpected exception, reported on one line as
``error: internal error: <Type>: <message>``).
"""

from __future__ import annotations

import argparse
import sys

from .budget import DEFAULT_BUDGET
from .conditions import (
    CONDITION_IDS,
    evaluate_all_conditions,
    format_witness,
    report_lines,
)
from .dnf import dnf_to_lines, dnf_to_term, enumerate_dnf, equivalent, extract_alpha
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    InvalidParamsError,
    LatPolyError,
    LimitExceededError,
    NotDistributiveError,
    NotPolynomialError,
)
from .lattice import load_lattice
from .oracle import find_nondistributive_witness, verify_equivalence
from .terms import (
    evaluate,
    format_term,
    load_table,
    materialize,
    parse_term,
    table_to_text,
)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latpoly",
        description="Check, normalize, and compare lattice polynomial functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=False, term=False, terms2=False):
        p.add_argument("--lattice", required=True, help="lattice file")
        p.add_argument("--arity", required=True, type=_positive_int)
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
        if terms2:
            p.add_argument(
                "--term", action="append", default=[], help="term (give exactly twice)"
            )
        elif table and term:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--term")
            g.add_argument("--table", help="function table file")
        elif term:
            p.add_argument("--term", required=True)

    p = sub.add_parser("check", help="evaluate the equivalence conditions")
    common(p, table=True, term=True)
    p.add_argument(
        "--conditions",
        default=",".join(CONDITION_IDS),
        help="comma-separated subset of ii,iii,iv,v,vi",
    )
    p.add_argument("--scope", choices=("interval", "all"), default="interval")

    p = sub.add_parser("normalize", help="emit the canonical normal form of a term")
    common(p, term=True)

    p = sub.add_parser("equiv", help="decide whether two terms denote one function")
    common(p, terms2=True)

    p = sub.add_parser("dnf-count", help="count the normal forms of a function")
    common(p, table=True, term=True)
    p.add_argument("--limit", type=_positive_int, default=None)

    p = sub.add_parser("verify", help="cross-check all conditions exhaustively")
    common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("witness", help="hunt equivalence failures off distributivity")
    common(p)
    p.add_argument("--condition", choices=("iii", "iv", "v", "vi"), default="iv")

    return parser


def _parse_conditions(text):
    conds = [c.strip() for c in text.split(",") if c.strip()]
    for c in conds:
        if c not in CONDITION_IDS:
            raise InvalidParamsError(
                f"unknown condition {c!r}; expected a subset of {','.join(CONDITION_IDS)}"
            )
    if not conds:
        raise InvalidParamsError("--conditions must name at least one condition")
    return conds


def _load_function(ns, lat):
    if ns.table is not None:
        f = load_table(ns.table, lat)
        if f.arity != ns.arity:
            raise ArityMismatchError(
                f"{ns.table}: table arity {f.arity} differs from --arity {ns.arity}"
            )
        return f
    term = parse_term(ns.term, lat, ns.arity)
    return materialize(lat, term, ns.arity, budget=ns.budget)


def _cmd_check(ns):
    conditions = _parse_conditions(ns.conditions)
    lat = load_lattice(ns.lattice)
    f = _load_function(ns, lat)
    report = evaluate_all_conditions(f, budget=ns.budget, scope=ns.scope)
    lines = report_lines(report, conditions=conditions)
    for line in lines:
        print(line)
    return 1 if any(": FAIL" in line for line in lines) else 0


def _cmd_normalize(ns):
    lat = load_lattice(ns.lattice)
    if not lat.distributive:
        raise NotDistributiveError(
            f"lattice {lat.name!r} is not distributive; the emitted normal "
            f"form would not be equivalent to the term"
        )
    term = parse_term(ns.term, lat, ns.arity)
    f = materialize(lat, term, ns.arity, budget=ns.budget)
    alpha = extract_alpha(f)
    for line in dnf_to_lines(alpha):
        print(line)
    print(f"term: {format_term(dnf_to_term(alpha))}")
    return 0


def _cmd_equiv(ns):
    if len(ns.term) != 2:
        raise InvalidParamsError("equiv needs exactly two --term arguments")
    lat = load_lattice(ns.lattice)
    t1 = parse_term(ns.term[0], lat, ns.arity)
    t2 = parse_term(ns.term[1], lat, ns.arity)
    equal, witness = equivalent(lat, t1, t2, ns.arity, budget=ns.budget)
    print(f"equivalent: {'true' if equal else 'false'}")
    if equal:
        return 0
    lhs = lat.elements[evaluate(lat, t1, witness)].name
    rhs = lat.elements[evaluate(lat, t2, witness)].name
    print(f"witness: x={lat.format_point(witness)} lhs={lhs} rhs={rhs}")
    return 1


def _cmd_dnf_count(ns):
    lat = load_lattice(ns.lattice)
    f = _load_function(ns, lat)
    try:
        count = enumerate_dnf(f, mode="count", limit=ns.limit, budget=ns.budget)
    except NotPolynomialError:
        print("count: 0 (not a polynomial function)")
        return 1
    except LimitExceededError as exc:
        print(f"count: >={exc.lower_bound}")
        return 0
    print(f"count: {count}")
    return 0


def _cmd_verify(ns):
    lat = load_lattice(ns.lattice)
    report = verify_equivalence(lat, ns.arity, budget=ns.budget, seed=ns.seed)
    print(report.format_text())
    return 0 if not report.inconsistencies else 1


def _cmd_witness(ns):
    lat = load_lattice(ns.lattice)
    found = find_nondistributive_witness(lat, ns.arity, ns.condition, budget=ns.budget)
    if found is None:
        print(f"no witness found for condition {ns.condition}")
        return 1
    print(f"witness condition={found.condition} direction={found.direction}")
    print(table_to_text(found.table), end="")
    if found.detail is not None:
        print(f"detail: FAIL at {format_witness(lat, found.detail)}")
    else:
        print("detail: satisfies the condition despite not being polynomial")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "normalize": _cmd_normalize,
    "equiv": _cmd_equiv,
    "dnf-count": _cmd_dnf_count,
    "verify": _cmd_verify,
    "witness": _cmd_witness,
}


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[ns.command](ns)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatPolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
