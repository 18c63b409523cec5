"""Ground truth by clone closure, exhaustive equivalence verification, and
counterexample search on non-distributive lattices.

``closure_polynomials`` generates every function obtainable from the
projections and the constants by pointwise meets and joins; that fixed
point is the set of polynomial functions on *any* bounded lattice, so it
serves as the oracle against which the cheaper 0/1-reconstruction test and
all condition checkers are cross-validated.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from heapq import heapify, heappop
from itertools import filterfalse, islice, repeat
from operator import and_

from .budget import ensure_budget, resolve_budget
from .conditions import _LIVE, check_condition, evaluate_all_conditions, grid_map
from .dnf import check_subset_arity, summand_term
from .errors import (
    InvalidParamsError,
    NotDistributiveError,
    NotNonDistributiveError,
)
from .points import check_arity
from .terms import FunctionTable, _tabulate


class FunctionSet:
    """Deduplicated set of same-arity tables over one lattice.

    The set holds value tuples and builds a FunctionTable for each only
    when it is iterated.  Iteration is canonical (ascending table
    encoding); membership accepts a FunctionTable or a raw value tuple.
    """

    def __init__(self, lattice, arity, tables=()):
        self.lattice = lattice
        self.arity = check_arity(arity)
        self._values = set()
        for t in tables:
            self.add(t)

    @classmethod
    def _of_values(cls, lattice, arity, values):
        """The set of `values`, tuples already known to be valid tables."""
        out = cls(lattice, arity)
        out._values = set(values)
        return out

    def add(self, table):
        if not isinstance(table, FunctionTable):
            table = FunctionTable(self.lattice, self.arity, table)
        if table.arity != self.arity:
            raise InvalidParamsError(
                f"table arity {table.arity} differs from the set arity {self.arity}"
            )
        self._values.add(table.values)

    def __contains__(self, item):
        values = item.values if isinstance(item, FunctionTable) else tuple(item)
        return values in self._values

    def __iter__(self):
        for values in sorted(self._values):
            yield FunctionTable(self.lattice, self.arity, values)

    def __len__(self):
        return len(self._values)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionSet)
            and self.lattice is other.lattice
            and self.arity == other.arity
            and self._values == other._values
        )

    def value_tuples(self):
        return frozenset(self._values)

    def __repr__(self):
        return f"FunctionSet(n={self.arity}, size={len(self)})"


# -- monotone table enumeration ----------------------------------------------


def _floor(join_t, below, values):
    """The join of the values at the positions `below`."""
    lo = 0
    for j in below:
        lo = join_t[lo][values[j]]
    return lo


def _monotone_assignments(lattice, lower, rows=None):
    """Every assignment of lattice elements to the positions 0..len(lower)-1
    that is monotone along `lower`, in lexicographic order, as tuples.

    lower[p] lists the positions below p, all of them earlier than p.  At
    each position the admissible values are the up-set of the join of the
    values already fixed below it, which is exactly monotonicity.

    With `rows`, the "prefix rows" of a grid, the walk carries the failed
    sub-checks of each prefix and does not extend a prefix on which
    conditions ii..vi all fail: it gives only the tables the rows leave
    unsettled.
    """
    join_t = lattice._join_t
    ups = lattice.upsets
    size = len(lower)
    values = [0] * size
    iters = [None] * size
    iters[0] = iter(ups[0])
    # fails[p], highs[p]: the failed sub-checks of the prefix before
    # position p, and the join of its values
    fails = [0] * size
    highs = [0] * size
    pos = 0
    while pos >= 0:
        nxt = next(iters[pos], None)
        if nxt is None:
            pos -= 1
            continue
        values[pos] = nxt
        if rows is not None:
            high = join_t[highs[pos]][nxt]
            failed = fails[pos] | rows(pos, values, _LIVE[fails[pos]], high)
            if not _LIVE[failed]:
                continue  # settled: ii..vi fail on every completion
        if pos + 1 == size:
            yield tuple(values)
        else:
            pos += 1
            if rows is not None:
                fails[pos] = failed
                highs[pos] = high
            iters[pos] = iter(ups[_floor(join_t, lower[pos], values)])


def iter_monotone_tables(lattice, n):
    """All order-preserving tables L^n -> L, in canonical order: values are
    assigned along the grid's linear extension."""
    return _monotone_assignments(lattice, grid_map(lattice, check_arity(n), "lower covers"))


def _unsettled_tables(lattice, n):
    """The monotone tables that the prefix rows leave unsettled, in canonical order."""
    lower = grid_map(lattice, n, "lower covers")
    yield from _monotone_assignments(lattice, lower, grid_map(lattice, n, "prefix rows"))


def count_monotone_tables(lattice, n, stop_after=None):
    """Number of order-preserving tables, or stop_after + 1 once it is past
    `stop_after`.

    A depth-first count over the grid positions that memoises the number
    of monotone completions of each prefix.  That number depends only on
    the position p the prefix stops before and on the floors of the later
    positions, the join of the values fixed at their lower covers.  A
    cover (i, k, j) jumps at most W = max(j - i) positions, so only the
    floors of p .. p+W-1 can be above bottom: they are the key.  Fixing v
    at p drops the key's first floor, appends bottom, and joins v into the
    floors of p's upper covers, at offsets j - p - 1.  A running total
    adds 1 for each table and the stored count for each key met again, so
    it counts the tables in the enumeration's order, and the count stops
    as soon as it passes `stop_after`.  No recursion: an explicit stack
    holds one key per position, like _monotone_assignments.
    """
    covers = grid_map(lattice, check_arity(n), "covers")
    join_t = lattice._join_t
    ups = lattice.upsets
    size = lattice.m**n
    offsets = [[] for _ in range(size)]
    for i, _, j in covers:
        offsets[i].append(j - i - 1)
    bottoms = (0,) * max((j - i for i, _, j in covers), default=1)
    limit = float("inf") if stop_after is None else stop_after
    memo = [{} for _ in range(size)] + [{bottoms: 1}]
    keys = [bottoms] * size
    iters = [iter(ups[0])] + [None] * (size - 1)
    starts = [0] * size  # the running total when each key was entered
    total = 0
    pos = 0
    while pos >= 0:
        key = keys[pos]
        shifted = [*key[1:], 0]
        fed = offsets[pos]
        below = memo[pos + 1]
        for v in iters[pos]:
            join_v = join_t[v]
            child = shifted.copy()
            for o in fed:
                child[o] = join_v[child[o]]
            child = tuple(child)
            got = below.get(child)
            if got is None:
                break
            total += got
            if total > limit:
                return stop_after + 1
        else:  # every completion of this key is counted
            memo[pos][key] = total - starts[pos]
            pos -= 1
            continue
        pos += 1
        keys[pos] = child
        starts[pos] = total
        iters[pos] = iter(ups[child[0]])
    return total


def random_monotone_table(lattice, n, rng):
    """One order-preserving table drawn with a seeded generator.

    The draw is sequential, not uniform: each value is chosen uniformly
    from the up-set of the join of the values at its lower covers, so
    top at the all-bottom point, with probability 1/|L|, fixes the whole
    table, and draws repeat tables.  On chain3 n=3, 1,000 draws at seeds
    0, 1, 7, 11 and 1324 hold only 280-315 distinct tables, and 317-357
    of the draws are the constant-top table.
    """
    lower = grid_map(lattice, check_arity(n), "lower covers")
    join_t = lattice._join_t
    ups = lattice.upsets
    values = [0] * len(lower)
    for i, below in enumerate(lower):
        values[i] = rng.choice(ups[_floor(join_t, below, values)])
    return tuple(values)


# -- polynomial function generation -------------------------------------------


def closure_polynomials(lattice, n, budget=None):
    """All polynomial functions L^n -> L, by closing the projections and
    constants under pointwise meet and join.  Valid on any lattice."""
    return FunctionSet._of_values(lattice, n, _closure_values(lattice, n, budget))


def _closure_values(lattice, n, budget):
    """The value tuples of closure_polynomials, computed once per arity.

    Each known table t is kept with two keys of bit planes.  up(t) has a
    plane for each join-irreducible j (one lower cover), set at the points
    x where j <= t[x], and down(t) one for each meet-irreducible a, set
    where t[x] <= a.  Each determines t, as every element is the join of
    the join-irreducibles below it and the meet of the meet-irreducibles
    above it, and in any lattice up(t ^ s) = up(t) & up(s) and
    down(t v s) = down(t) & down(s).  With k planes, point x holds the bits
    x*k .. x*k+k-1, and a new key is read back through a dict from k-bit
    chunk to element; a one-element lattice, with no irreducibles, keeps
    the plane of its bottom.

    No pair of known tables is combined.  For a set F of tables holding
    the constants, a point x and a join-irreducible j, let mu(x, j) be the
    meet of the t in F with j <= t[x].  A mu(x, j) with j <= t[x] is below
    t, and mu(x, j)[x] >= j, so every t in F is the join of those mu(x, j)
    (the bottom constant of none).  The same holds for s ^ t, as each
    mu(x, j) with j <= s[x] ^ t[x] is below both s and t.  So if F holds
    every mu(x, j) and is closed under joins with each of them, F is
    closed under joins and under meets.  The loop joins each new table
    with the current mu.  When no table is pending it recomputes the mu,
    in one pass over each point's values, adds those not yet known, and
    joins each new one with every known table.  It stops when a pass finds
    no new mu: F then holds all its own mu and was joined with each.

    The table that gets position p is charged |L|^n * p * (p + 1) when it
    is created, what meeting and joining it with each table before it
    would cost.  So a closure of N tables is charged |L|^n * N * (N - 1),
    and a refused one stops as soon as it grows past the budget.

    The lattice's cache keeps only this frozenset of tuples, nothing that
    refers back to the lattice, so a dropped lattice is freed at once.
    """
    key = ("closure", check_arity(n))
    cached = lattice._cache.get(key)
    if cached is not None:
        return cached
    m = lattice.m
    size = m ** n
    ensure_budget(size * (n + m), budget, "clone generator construction")

    above, covers_down, covers_up = lattice._up, lattice.covers_down, lattice.covers_up
    joins = [j for j in range(m) if len(covers_down[j]) == 1] or [0]
    meets = [a for a in range(m) if len(covers_up[a]) == 1] or [0]
    up_cols = ["".join("01"[above[j] >> v & 1] for j in joins) for v in range(m)]
    down_cols = ["".join("01"[above[v] >> a & 1] for a in meets) for v in range(m)]

    def pack(t, cols):
        return int("".join(map(cols.__getitem__, reversed(t))), 2)

    def unpacker(cols):
        k = len(cols[0])
        width = f"0{size * k}b"
        element = {tuple(c): v for v, c in enumerate(cols)}.__getitem__
        return lambda key: tuple(map(element, zip(*[iter(format(key, width))] * k)))[::-1]

    from_up, from_down = unpacker(up_cols), unpacker(down_cols)
    known, ups, downs = [], [], []
    at_up, seen_down = {}, set()  # up key -> position, and the down keys

    def place(t, up, down):
        p = len(known)
        ensure_budget(size * p * (p + 1), budget, "clone closure")
        known.append(t)
        ups.append(up)
        downs.append(down)
        at_up[up] = p
        seen_down.add(down)

    def add_joins(keys):
        for d in filterfalse(seen_down.__contains__, keys):
            t = from_down(d)
            place(t, pack(t, up_cols), d)

    for t in dict.fromkeys(
        [*zip(*lattice.point_space(n).iter_points())]
        + [(c,) * size for c in range(m)]
    ):
        place(t, pack(t, up_cols), pack(t, down_cols))

    # the AND over an up-set gathers from the upper covers, higher ids first
    steps = [(v, c) for v in reversed(range(m)) for c in covers_up[v]]
    no_up = (1 << size * len(joins)) - 1

    def mus():
        """The positions of every mu(x, j), in one pass over each point's
        values; a mu not yet known is placed at once."""
        found = {}
        for col in zip(*known):
            lo = [no_up] * m
            for v, u in zip(col, ups):
                lo[v] &= u
            for v, c in steps:
                lo[v] &= lo[c]
            for u in map(lo.__getitem__, joins):
                if u not in at_up:
                    t = from_up(u)
                    place(t, u, pack(t, down_cols))
                found[at_up[u]] = None
        return found

    # every table before position `done` has been joined with each of
    # `gens`, the down keys of the current mu
    gens = {}
    done = len(known)
    while True:
        fresh = dict.fromkeys(map(downs.__getitem__, mus()))
        new = [g for g in fresh if g not in gens]
        if not new:
            break
        gens = fresh
        for g in new:
            add_joins(map(and_, repeat(g), islice(downs, done)))
        while done < len(known):
            add_joins(map(and_, repeat(downs[done]), gens))
            done += 1
    result = lattice._cache[key] = frozenset(known)
    return result


def enumerate_polynomials_distributive(lattice, n, budget=None):
    """All polynomial functions via normal forms: the function of every
    inclusion-monotone coefficient map.

    On a distributive lattice the monotone coefficient maps are exactly
    the canonical maps alpha_f of the polynomial functions, so this must
    coincide with the clone closure; non-monotone maps would only repeat
    tables and are skipped.

    No normal form is tabulated whole.  Each summand alpha(I) meet x_i
    (i in I) that the walk meets is tabulated once, as the term
    summand_term writes, through the one tabulator, and each map joins
    its summands' tables pointwise.  Each map is charged |L|^n * 2^n, as
    tabulating its whole normal form would be, before any of its summands
    is tabulated.
    """
    if not lattice.distributive:
        raise NotDistributiveError(
            "normal-form enumeration of polynomial functions needs a "
            "distributive lattice"
        )
    check_subset_arity(n)  # before the budget
    sp = lattice.point_space(n)
    width = 1 << n
    bottom, join_t = lattice.bottom_id, lattice._join_t
    # coefficient masks in numeric order extend inclusion: each mask comes
    # after the masks one bit below it
    lower = [[mask ^ (1 << k) for k in range(n) if mask >> k & 1] for mask in range(width)]
    summands = {}  # (mask, coeff) -> values
    found = set()
    ops = 0
    for coeffs in _monotone_assignments(lattice, lower):
        ops += sp.size * width
        ensure_budget(ops, budget, "normal-form image enumeration")
        acc = None
        for mask, coeff in enumerate(coeffs):
            if coeff == bottom:
                continue
            table = summands.get((mask, coeff))
            if table is None:
                term = summand_term(lattice, mask, coeff)
                table = summands[mask, coeff] = list(_tabulate(lattice, term, sp.iter_points()))
            acc = table if acc is None else [join_t[a][b] for a, b in zip(acc, table)]
        found.add((bottom,) * sp.size if acc is None else tuple(acc))
    return FunctionSet._of_values(lattice, n, found)


# -- exhaustive verification ----------------------------------------------


@dataclass
class VerificationReport:
    lattice_name: str
    arity: int
    mode: str  # "exhaustive" or "sampled"
    seed: int | None
    checked: int
    polynomial_count: int
    inconsistencies: list

    def format_text(self):
        mode = self.mode
        if mode == "sampled":
            mode = f"sampled seed={self.seed}"
        lines = [
            f"verify {self.lattice_name} n={self.arity} mode={mode}",
            f"checked={self.checked} polynomial={self.polynomial_count} "
            f"inconsistent={len(self.inconsistencies)}",
        ]
        for values, report in self.inconsistencies:
            verdicts = " ".join(
                f"{cond}={report.entries[cond].holds}" for cond in report.entries
            )
            lines.append(
                f"inconsistent: f=[{' '.join(str(v) for v in values)}] "
                f"{verdicts} polynomial={report.polynomial}"
            )
        return "\n".join(lines)


def _reported_tables(lattice, n, closure):
    """The closure members and the tables the prefix rows leave unsettled,
    in lexicographic order, the walk's.

    The all-bottom table, a constant, comes first, and the rows are built
    only after it: its full report charges the budget for them.  A closure
    member that the rows settle, or one that is not monotone, is still
    given: either means the oracle is broken.
    """
    bottom = (0,) * lattice.m**n
    yield bottom
    yield from sorted(closure.union(_unsettled_tables(lattice, n)) - {bottom})


def _sampled_tables(lattice, n, closure, draws):
    """The draws, less each later one that is no closure member and on which
    the prefix rows, run as in the walk, fail ii..vi: it is consistent.  The
    rows are built after the first draw's full report charges for them."""
    first = next(draws)
    yield first
    rows, join_t, kept = grid_map(lattice, n, "prefix rows"), lattice._join_t, {first: True}
    for values in draws:
        if values not in kept:
            failed = high = 0
            for p, v in enumerate(values):
                if _LIVE[failed]:
                    high = join_t[high][v]
                    failed |= rows(p, values, _LIVE[failed], high)
            kept[values] = values in closure or _LIVE[failed] != 0
        if kept[values]:
            yield values


_COST_FACTOR = 12  # a rough price of one table's full report, in |L|^n evaluations


def _count_within_budget(lattice, n, budget, what=None):
    """(total, max_tables): the budget allows max_tables >= 1 full reports
    at |L|^n * _COST_FACTOR each, and the monotone tables are counted up to
    max_tables + 1.  With `what`, the counted tables are charged for `what`."""
    per_table = lattice.m**n * _COST_FACTOR
    max_tables = max(1, resolve_budget(budget) // per_table)
    total = count_monotone_tables(lattice, n, stop_after=max_tables)
    if what is not None:
        ensure_budget(total * per_table, budget, what)
    return total, max_tables


def verify_equivalence(lattice, n, budget=None, seed=0):
    """Check that conditions ii..vi and closure membership agree on every
    order-preserving table (a seeded sample of at most 1,000 tables when
    that is over budget).

    Any disagreement on a distributive lattice indicates an implementation
    bug (the equivalence is a theorem), so callers should treat a non-empty
    inconsistency list as a failure.

    count_monotone_tables gives `checked` and, by the rule the witness
    search refuses by, the mode.  An exhaustive run gives the full
    evaluate_all_conditions report to every closure member and to every
    table that the rows over its prefixes leave unsettled, in the walk's
    order; the others fail all five conditions and are never built.  A
    sampled run gives the full report to its first draw, and then, by the
    same rule, to each distinct draw that is a closure member or that the
    rows leave unsettled; the other draws are consistent and get none.  A
    report depends only on the values, their closure membership and the
    budget, so a repeated draw is counted, and listed if inconsistent, with
    its first report.  `seed` must be an integer, so that a sampled run can
    be repeated.
    """
    if not hasattr(type(seed), "__index__"):
        raise InvalidParamsError(f"seed must be an integer, got {seed!r}")
    seed = operator.index(seed)
    closure = _closure_values(lattice, n, budget)
    total, max_tables = _count_within_budget(lattice, n, budget)
    if total <= max_tables:
        mode = "exhaustive"
        checked = total
        tables = _reported_tables(lattice, n, closure)
        used_seed = None
    else:
        mode = "sampled"
        rng = random.Random(seed)
        used_seed = seed
        checked = min(1000, max_tables)
        draws = (random_monotone_table(lattice, n, rng) for _ in range(checked))
        tables = _sampled_tables(lattice, n, closure, draws)

    polynomial_count = 0
    inconsistencies = []
    verdicts = {}  # values -> the report if inconsistent, None if consistent
    for values in tables:
        polynomial = values in closure
        polynomial_count += polynomial
        if values not in verdicts:
            f = FunctionTable(lattice, n, values)
            report = evaluate_all_conditions(f, budget=budget, known_polynomial=polynomial)
            verdicts[values] = None if report.consistent else report
        if verdicts[values] is not None:
            inconsistencies.append((values, verdicts[values]))
    return VerificationReport(
        lattice_name=lattice.name,
        arity=n,
        mode=mode,
        seed=used_seed,
        checked=checked,
        polynomial_count=polynomial_count,
        inconsistencies=inconsistencies,
    )


# -- counterexample search on non-distributive lattices -----------------------


@dataclass(frozen=True)
class NondistributiveWitness:
    """Either a polynomial function violating a condition, or an
    order-preserving non-polynomial function satisfying it."""

    condition: str
    direction: str  # "polynomial-violates" or "nonpolynomial-satisfies"
    table: FunctionTable
    detail: object | None = None


def find_nondistributive_witness(lattice, n, condition, budget=None):
    """Search for a failure of the polynomiality equivalence on a
    non-distributive lattice; returns None when the search finds nothing.

    It returns the first closure member that violates `condition`; if none
    does, it is refused where verify_equivalence would sample, or returns
    the first non-member satisfying `condition` in verify's pruned walk,
    which keeps every such table."""
    if condition not in ("iii", "iv", "v", "vi"):
        raise InvalidParamsError(
            f"condition must be one of iii, iv, v, vi; got {condition!r}"
        )
    if lattice.distributive:
        raise NotNonDistributiveError(
            f"lattice {lattice.name!r} is distributive, so no witness can exist"
        )
    closure = _closure_values(lattice, n, budget)
    # the members in ascending order, popped one at a time: the first often
    # violates the condition, and a heap does not sort the rest
    heap = list(closure)
    heapify(heap)
    while heap:
        values = heappop(heap)
        f = FunctionTable(lattice, n, values)
        ok, witness = check_condition(f, condition, budget=budget)
        if not ok:
            return NondistributiveWitness(condition, "polynomial-violates", f, witness)

    _count_within_budget(lattice, n, budget, "witness search")
    for values in filterfalse(closure.__contains__, _unsettled_tables(lattice, n)):
        f = FunctionTable(lattice, n, values)
        if check_condition(f, condition, budget=budget)[0]:
            return NondistributiveWitness(condition, "nonpolynomial-satisfies", f, None)
    return None
