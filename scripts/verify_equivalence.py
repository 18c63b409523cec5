#!/usr/bin/env python3
"""Exhaustively cross-check the polynomiality conditions on desk-size fixtures.

For every order-preserving table on each fixture, all five functional
characterizations and clone-closure membership are evaluated and compared;
any disagreement on a distributive lattice would be an implementation bug.

verify_equivalence counts the tables by memoised completions, to pick
its mode, and then walks them depth-first, running each equation instance
once, on the prefix that fixes its last read.  Every closure member and
every table whose prefixes leave some condition undecided get the full
report of all checkers; the walk does not extend a prefix on which all
five conditions fail, so the tables below it are never built.  Past the
budget, a seeded sample is checked instead: the first draw, every closure
member and every draw that the rows leave unsettled get the full report,
and the other draws, which the rows settle, are consistent.
The loop that reports every table in full stays in tests/test_oracle.py
as naive_verify_equivalence, the reference the walk is compared against.
"""

import argparse
import time

from latpoly import boolean, chain, verify_equivalence


def default_fixtures():
    return [
        (chain(2), 1),
        (chain(2), 2),
        (chain(3), 1),
        (chain(3), 2),
        (boolean(2), 1),
        (boolean(2), 2),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failures = 0
    started = time.monotonic()
    for lat, n in default_fixtures():
        t0 = time.monotonic()
        report = verify_equivalence(lat, n, budget=args.budget, seed=args.seed)
        dt = time.monotonic() - t0
        print(report.format_text())
        print(f"  ({dt:.2f}s)")
        failures += len(report.inconsistencies)
    print(f"total: {time.monotonic() - started:.2f}s, {failures} inconsistencies")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
