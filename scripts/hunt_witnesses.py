#!/usr/bin/env python3
"""Search the two minimal non-distributive lattices for equivalence failures.

On the pentagon and the diamond, each composite condition is probed in two
directions: a polynomial function that violates it, or an order-preserving
non-polynomial function that satisfies it.  Both lattices are probed at
arity 1, and the pentagon also at arity 2.
"""

from latpoly import find_nondistributive_witness, format_witness, m3, n5
from latpoly.terms import table_to_text

# the binary clone closure of N5 (3,729 polynomials) is charged 347,542,800
# point evaluations, past the library's default budget of 10**7
LIFTED_BUDGET = 10**9

PROBES = ((n5, 1, None), (m3, 1, None), (n5, 2, LIFTED_BUDGET))


def main():
    for make, n, budget in PROBES:
        lat = make()
        print(f"== {lat.name} n={n} (distributive={lat.distributive})")
        for cond in ("iii", "iv", "v", "vi"):
            found = find_nondistributive_witness(lat, n, cond, budget=budget)
            if found is None:
                print(f"{cond}: no witness among functions of arity {n}")
                continue
            print(f"{cond}: {found.direction}")
            print("    " + " ".join(table_to_text(found.table).splitlines()[1:]))
            if found.detail is not None:
                print(f"    FAIL at {format_witness(lat, found.detail)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
