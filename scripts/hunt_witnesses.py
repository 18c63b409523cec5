#!/usr/bin/env python3
"""Search the two minimal non-distributive lattices for equivalence failures.

On the pentagon and the diamond, each composite condition is probed in two
directions: a polynomial function that violates it, or an order-preserving
non-polynomial function that satisfies it.  Both lattices are probed at
arity 1, and the pentagon also at arity 2.

find_nondistributive_witness gives the first failure it meets, and the
census then counts both directions per lattice, arity and condition: the
closure members that violate the condition, and the non-polynomial tables
that satisfy it.  The latter are read from verify's pruned walk, which
drops only tables on which all five conditions fail, so it keeps every
table that satisfies one.
"""

from latpoly import (
    FunctionTable,
    check_condition,
    closure_polynomials,
    find_nondistributive_witness,
    format_witness,
    m3,
    n5,
)
from latpoly.oracle import _unsettled_tables
from latpoly.terms import table_to_text

# the binary clone closure of N5 (3,729 polynomials) is charged 347,542,800
# point evaluations, past the library's default budget of 10**7; 10**10 also
# lets a witness search past its first phase count N5's 31,022,611 binary
# monotone tables at 25 * 12 evaluations each
LIFTED_BUDGET = 10**10

PROBES = ((n5, 1), (m3, 1), (n5, 2))
CONDITIONS = ("iii", "iv", "v", "vi")


def census(lat, n):
    """Per condition c: the closure members that violate c, out of all of
    them, and the non-polynomial tables of the walk that satisfy c, out of
    all of them."""
    closure = closure_polynomials(lat, n, budget=LIFTED_BUDGET)
    others = [FunctionTable(lat, n, v) for v in _unsettled_tables(lat, n) if v not in closure]
    for cond in CONDITIONS:
        violate = sum(not check_condition(f, cond)[0] for f in closure)
        satisfy = sum(check_condition(f, cond)[0] for f in others)
        print(
            f"census {lat.name} n={n} {cond}: polynomial-violates {violate} of {len(closure)}, "
            f"nonpolynomial-satisfies {satisfy} of {len(others)} unsettled"
        )


def main():
    for make, n in PROBES:
        lat = make()
        print(f"== {lat.name} n={n} (distributive={lat.distributive})")
        for cond in CONDITIONS:
            found = find_nondistributive_witness(lat, n, cond, budget=LIFTED_BUDGET)
            if found is None:
                print(f"{cond}: no witness among functions of arity {n}")
                continue
            print(f"{cond}: {found.direction}")
            print("    " + " ".join(table_to_text(found.table).splitlines()[1:]))
            if found.detail is not None:
                print(f"    FAIL at {format_witness(lat, found.detail)}")
        census(lat, n)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
