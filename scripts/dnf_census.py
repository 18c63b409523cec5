#!/usr/bin/env python3
"""Tabulate how many normal forms each polynomial function admits.

The canonical coefficient map is the pointwise-greatest representation, but
it is rarely unique; this prints the multiplicity distribution over every
polynomial function on a few small fixtures.
"""

import argparse
from collections import Counter

from latpoly import boolean, chain, closure_polynomials, enumerate_dnf

# the ternary clone closure of B2 (400 polynomials) is charged 10,010,880
# point evaluations, just past the library's default budget of 10**7
CENSUS_BUDGET = 10**8


def census(lat, n):
    counts = Counter()
    for f in closure_polynomials(lat, n, budget=CENSUS_BUDGET):
        counts[enumerate_dnf(f, mode="count")] += 1
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-arity", type=int, default=2)
    args = parser.parse_args()

    for lat in (chain(2), chain(3), boolean(2)):
        for n in range(1, args.max_arity + 1):
            counts = census(lat, n)
            total = sum(counts.values())
            spread = " ".join(
                f"{mult}x{how_many}" for mult, how_many in sorted(counts.items())
            )
            print(f"{lat.name} n={n}: {total} polynomials, |DNF| spread: {spread}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
