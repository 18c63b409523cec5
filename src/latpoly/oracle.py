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

from .budget import ensure_budget, resolve_budget
from .conditions import _LIVE, check_condition, evaluate_all_conditions, grid_map
from .dnf import DNFMap, dnf_evaluate, subset_masks
from .errors import (
    InvalidParamsError,
    NotDistributiveError,
    NotNonDistributiveError,
)
from .terms import FunctionTable


class FunctionSet:
    """Deduplicated set of same-arity tables over one lattice.

    Iteration is canonical (ascending table encoding); membership accepts a
    FunctionTable or a raw value tuple.
    """

    def __init__(self, lattice, arity, tables=()):
        self.lattice = lattice
        self.arity = arity
        self._by_values = {}
        for t in tables:
            self.add(t)

    def add(self, table):
        if not isinstance(table, FunctionTable):
            table = FunctionTable(self.lattice, self.arity, table)
        if table.arity != self.arity:
            raise InvalidParamsError(
                f"table arity {table.arity} differs from the set arity {self.arity}"
            )
        self._by_values.setdefault(table.values, table)

    def __contains__(self, item):
        values = item.values if isinstance(item, FunctionTable) else tuple(item)
        return values in self._by_values

    def __iter__(self):
        for values in sorted(self._by_values):
            yield self._by_values[values]

    def __len__(self):
        return len(self._by_values)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionSet)
            and self.lattice is other.lattice
            and self.arity == other.arity
            and self._by_values.keys() == other._by_values.keys()
        )

    def value_tuples(self):
        return frozenset(self._by_values)

    def __repr__(self):
        return f"FunctionSet(n={self.arity}, size={len(self)})"


# -- monotone table enumeration ----------------------------------------------


def _floor(join_t, below, values):
    """The join of the values at the positions `below`."""
    lo = 0
    for j in below:
        lo = join_t[lo][values[j]]
    return lo


def _monotone_assignments(lattice, lower):
    """Every assignment of lattice elements to the positions 0..len(lower)-1
    that is monotone along `lower`, in lexicographic order, as tuples.

    lower[p] lists the positions below p, all of them earlier than p.  At
    each position the admissible values are the up-set of the join of the
    values already fixed below it, which is exactly monotonicity.
    """
    join_t = lattice._join_t
    ups = [tuple(lattice.upset_ids(v)) for v in range(lattice.m)]
    size = len(lower)
    values = [0] * size
    iters = [None] * size
    iters[0] = iter(ups[0])
    pos = 0
    while pos >= 0:
        nxt = next(iters[pos], None)
        if nxt is None:
            pos -= 1
            continue
        values[pos] = nxt
        if pos + 1 == size:
            yield tuple(values)
        else:
            pos += 1
            iters[pos] = iter(ups[_floor(join_t, lower[pos], values)])


def iter_monotone_tables(lattice, n):
    """All order-preserving tables L^n -> L, in canonical order: values are
    assigned along the grid's linear extension."""
    yield from _monotone_assignments(lattice, grid_map(lattice, n, "lower covers"))


def _settled_walk(lattice, n):
    """Every monotone table as iter_monotone_tables gives it, each with a
    flag: True when rows over its prefixes already fail conditions ii..vi.

    The all-bottom table comes first, unflagged, and the rows are built
    only after it: its full report charges the budget for them.  Each
    later position runs the rows whose last read it fixes, unless the
    prefix before it has settled all five verdicts.
    """
    join_t = lattice._join_t
    ups = [tuple(lattice.upset_ids(v)) for v in range(lattice.m)]
    lower = grid_map(lattice, n, "lower covers")
    size = len(lower)
    values = [0] * size
    yield tuple(values), False
    failures = grid_map(lattice, n, "prefix rows")
    # fails[p], highs[p]: the failed sub-checks of the prefix before
    # position p, and the join of its values
    fails = [0] * size
    highs = [0] * size
    # resume after the all-bottom table: every position has tried bottom
    iters = [iter(ups[0][1:]) for _ in range(size)]
    pos = size - 1
    while pos >= 0:
        nxt = next(iters[pos], None)
        if nxt is None:
            pos -= 1
            continue
        values[pos] = nxt
        failed = fails[pos]
        high = join_t[highs[pos]][nxt]
        live = _LIVE[failed]
        if live:
            failed |= failures(pos, values, live, high)
        if pos + 1 == size:
            yield tuple(values), not _LIVE[failed]
        else:
            pos += 1
            fails[pos] = failed
            highs[pos] = high
            iters[pos] = iter(ups[_floor(join_t, lower[pos], values)])


def count_monotone_tables(lattice, n, stop_after=None):
    """Number of order-preserving tables; stops early past `stop_after`."""
    count = 0
    for _ in iter_monotone_tables(lattice, n):
        count += 1
        if stop_after is not None and count > stop_after:
            return count
    return count


def random_monotone_table(lattice, n, rng):
    """One order-preserving table drawn with a seeded generator."""
    join_t = lattice._join_t
    ups = [tuple(lattice.upset_ids(v)) for v in range(lattice.m)]
    lower = grid_map(lattice, n, "lower covers")
    values = [0] * len(lower)
    for i, below in enumerate(lower):
        values[i] = rng.choice(ups[_floor(join_t, below, values)])
    return tuple(values)


# -- polynomial function generation -------------------------------------------


def closure_polynomials(lattice, n, budget=None):
    """All polynomial functions L^n -> L, by closing the projections and
    constants under pointwise meet and join.  Valid on any lattice."""
    return FunctionSet(lattice, n, _closure_values(lattice, n, budget))


def _closure_values(lattice, n, budget):
    """The value tuples of closure_polynomials, computed once per arity.

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
    strides = lattice.point_space(n).strides

    # bit planes: up(t) has a plane for each join-irreducible j (one lower
    # cover), set at the points x where j <= t[x], and down(t) one for each
    # meet-irreducible a, set where t[x] <= a.  Each determines t, as every
    # element is the join of the join-irreducibles below it and the meet of
    # the meet-irreducibles above it, and in any lattice
    # up(t ^ s) = up(t) & up(s) and down(t v s) = down(t) & down(s).  With k
    # planes, point x holds the bits x*k .. x*k+k-1; a one-element lattice,
    # with no irreducibles, keeps the plane of its bottom
    leq, covers_down, covers_up = lattice._leq, lattice.covers_down, lattice.covers_up
    joins = [j for j in range(m) if len(covers_down[j]) == 1] or [0]
    meets = [a for a in range(m) if len(covers_up[a]) == 1] or [0]
    up_cols = ["".join("01"[leq[j][v]] for j in joins) for v in range(m)]
    down_cols = ["".join("01"[leq[v][a]] for a in meets) for v in range(m)]

    def pack(t, cols):
        return int("".join(map(cols.__getitem__, reversed(t))), 2)

    # the known tables are also the worklist: the table at position p is
    # met and joined with each table before it, so every pair is combined
    # once (t ^ t = t v t = t), and new tables go to the end of the lists
    known = list(dict.fromkeys(
        [tuple(i // s % m for i in range(size)) for s in strides]
        + [(c,) * size for c in range(m)]
    ))
    ups = [pack(t, up_cols) for t in known]
    downs = [pack(t, down_cols) for t in known]
    seen_up, seen_down = set(ups), set(downs)

    def add(u):
        known.append(u)
        ups.append(pack(u, up_cols))
        downs.append(pack(u, down_cols))
        seen_up.add(ups[-1])
        seen_down.add(downs[-1])

    meet_t, join_t = lattice._meet_t, lattice._join_t
    ops = 0
    for p, t in enumerate(known):
        ops += 2 * size * p
        ensure_budget(ops, budget, "clone closure")
        up_t, down_t = ups[p], downs[p]
        for s, up_s, down_s in zip(known[:p], ups[:p], downs[:p]):
            if up_t & up_s not in seen_up:
                add(tuple([meet_t[a][b] for a, b in zip(t, s)]))
            if down_t & down_s not in seen_down:
                add(tuple([join_t[a][b] for a, b in zip(t, s)]))
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
        out.add(tuple(dnf_evaluate(alpha, x) for x in sp.iter_points()))
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


# rough per-table cost of running every condition checker, in units of
# |L|^n point evaluations; used only to pick exhaustive vs sampled mode
_COST_FACTOR = 12


def verify_equivalence(lattice, n, budget=None, seed=0, max_sample=1000):
    """Check that conditions ii..vi and closure membership agree on every
    order-preserving table (a seeded sample when that is over budget).

    Any disagreement on a distributive lattice indicates an implementation
    bug (the equivalence is a theorem), so callers should treat a non-empty
    inconsistency list as a failure.

    An exhaustive run walks the tables depth-first and gives the full
    evaluate_all_conditions report to the first table, to every table the
    rows over its prefixes leave unsettled, and to every closure member;
    the others fail all five conditions and are only counted.  A sampled
    run reports every table in full.
    """
    allowed = resolve_budget(budget)
    closure = _closure_values(lattice, n, budget)
    sp = lattice.point_space(n)
    max_tables = max(1, allowed // (sp.size * _COST_FACTOR))
    total = count_monotone_tables(lattice, n, stop_after=max_tables)
    if total <= max_tables:
        mode = "exhaustive"
        source = _settled_walk(lattice, n)
        used_seed = None
    else:
        mode = "sampled"
        rng = random.Random(seed)
        used_seed = seed
        source = (
            (random_monotone_table(lattice, n, rng), False)
            for _ in range(min(max_sample, max_tables))
        )

    checked = 0
    polynomial_count = 0
    inconsistencies = []
    for values, settled in source:
        checked += 1
        polynomial = values in closure
        polynomial_count += polynomial
        if settled and not polynomial:
            continue  # consistent: ii..vi all fail
        f = FunctionTable(lattice, n, values)
        report = evaluate_all_conditions(f, budget=budget, known_polynomial=polynomial)
        if not report.consistent:
            inconsistencies.append((values, report))
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
    non-distributive lattice; returns None when the scan finds nothing."""
    if condition not in ("iii", "iv", "v", "vi"):
        raise InvalidParamsError(
            f"condition must be one of iii, iv, v, vi; got {condition!r}"
        )
    if lattice.distributive:
        raise NotNonDistributiveError(
            f"lattice {lattice.name!r} is distributive, so no witness can exist"
        )
    closure = _closure_values(lattice, n, budget)
    sp = lattice.point_space(n)

    for values in sorted(closure):
        f = FunctionTable(lattice, n, values)
        ok, witness = check_condition(f, condition, budget=budget)
        if not ok:
            return NondistributiveWitness(condition, "polynomial-violates", f, witness)

    ops = 0
    for values in iter_monotone_tables(lattice, n):
        ops += sp.size * _COST_FACTOR
        ensure_budget(ops, budget, "witness search")
        if values in closure:
            continue
        f = FunctionTable(lattice, n, values)
        ok, _ = check_condition(f, condition, budget=budget)
        if ok:
            return NondistributiveWitness(condition, "nonpolynomial-satisfies", f, None)
    return None
