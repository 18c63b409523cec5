"""Ground truth by clone closure, exhaustive equivalence verification, and
counterexample search on non-distributive lattices.

``closure_polynomials`` generates every function obtainable from the
projections and the constants by pointwise meets and joins; that fixed
point is the set of polynomial functions on *any* bounded lattice, so it
serves as the oracle against which the cheaper 0/1-reconstruction test and
all condition checkers are cross-validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import filterfalse, islice, repeat
from operator import and_

from .budget import ensure_budget, resolve_budget
from .conditions import _LIVE, check_condition, evaluate_all_conditions, grid_map
from .dnf import DNFMap, dnf_to_term, subset_masks
from .errors import (
    InvalidParamsError,
    NotDistributiveError,
    NotNonDistributiveError,
)
from .terms import FunctionTable, materialize


class FunctionSet:
    """Deduplicated set of same-arity tables over one lattice.

    The set holds value tuples and builds a FunctionTable for each only
    when it is iterated.  Iteration is canonical (ascending table
    encoding); membership accepts a FunctionTable or a raw value tuple.
    """

    def __init__(self, lattice, arity, tables=()):
        self.lattice = lattice
        self.arity = arity
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


def _upsets(lattice):
    """ups[v]: the ids above v, ascending; built once, in the lattice's cache."""
    if ("upsets",) not in lattice._cache:
        lattice._cache[("upsets",)] = tuple(tuple(lattice.upset_ids(v)) for v in range(lattice.m))
    return lattice._cache[("upsets",)]


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
    ups = _upsets(lattice)
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
    yield from _monotone_assignments(lattice, grid_map(lattice, n, "lower covers"))


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
    covers = grid_map(lattice, n, "covers")
    join_t = lattice._join_t
    ups = _upsets(lattice)
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
    join_t = lattice._join_t
    ups = _upsets(lattice)
    lower = grid_map(lattice, n, "lower covers")
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
    key = ("closure", n)
    cached = lattice._cache.get(key)
    if cached is not None:
        return cached
    m = lattice.m
    size = m ** n
    ensure_budget(size * (n + m), budget, "clone generator construction")

    leq, covers_down, covers_up = lattice._leq, lattice.covers_down, lattice.covers_up
    joins = [j for j in range(m) if len(covers_down[j]) == 1] or [0]
    meets = [a for a in range(m) if len(covers_up[a]) == 1] or [0]
    up_cols = ["".join("01"[leq[j][v]] for j in joins) for v in range(m)]
    down_cols = ["".join("01"[leq[v][a]] for a in meets) for v in range(m)]

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
    """All polynomial functions via normal forms: materialize the normal
    form of every inclusion-monotone coefficient map.

    On a distributive lattice the monotone coefficient maps are exactly
    the canonical maps alpha_f of the polynomial functions, so this must
    coincide with the clone closure; non-monotone maps would only repeat
    tables and are skipped.
    """
    if not lattice.distributive:
        raise NotDistributiveError(
            "normal-form enumeration of polynomial functions needs a "
            "distributive lattice"
        )
    subset_masks(n)  # the arity rule comes before the budget
    sp = lattice.point_space(n)
    ops = 0
    out = FunctionSet(lattice, n)
    # coefficient masks in numeric order extend inclusion: each mask comes
    # after the masks one bit below it
    lower = [[mask ^ (1 << k) for k in range(n) if mask >> k & 1] for mask in range(1 << n)]
    for coeffs in _monotone_assignments(lattice, lower):
        alpha = DNFMap(lattice, n, coeffs)
        ops += sp.size * len(coeffs)
        ensure_budget(ops, budget, "normal-form image enumeration")
        out.add(materialize(lattice, dnf_to_term(alpha), n, budget))
    return out


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
    sampled run reports each distinct draw once: a report depends only on
    the values, their closure membership and the budget, so a repeated
    draw is counted, and listed if inconsistent, with its first report.
    """
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
        tables = (random_monotone_table(lattice, n, rng) for _ in range(checked))

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
    for values in sorted(closure):
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
