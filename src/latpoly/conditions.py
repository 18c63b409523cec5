"""Checkers for the functional equations characterizing polynomial functions.

An order-preserving f: L^n -> L on a bounded distributive lattice is a
polynomial function exactly when any one of these holds:

  ii   median decomposition     f(x) = med(f(x_k^0), x_k, f(x_k^1))
  iii  diagonal preservation (meet+join) and convex ranges and
       composition absorption  f(..., f(x), ...) = f(x)
  iv   meet-homogeneity f(x ^ c) = f(x) ^ c and its join dual,
       for c between f(bottom) and f(top)
  v    diagonal join-preservation, meet-homogeneity, and the horizontal
       split f(x) = f(x ^ c) v f([x]_c)
  vi   diagonal preservation (both), both horizontal splits, and range
       idempotency f(c, ..., c) = c on the bound interval

Each checker scans the point grid in canonical order and reports the first
failure as a witness.  Witness tags in reports: "(1)" median
decomposition, "(2)" composition absorption, "(3)"/"(3d)" meet/join
homogeneity, "(4)"/"(4d)" horizontal splits, "(5)" range idempotency,
plus "delta-meet"/"delta-join" and "range-convex"/"section-convex".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from .budget import ensure_budget
from .errors import HypothesisViolatedError, InvalidParamsError
from .dnf import extract_alpha, reconstruct, subset_masks

CONDITION_IDS = ("ii", "iii", "iv", "v", "vi")


@dataclass(frozen=True)
class Witness:
    """First failure of a scan: point, coordinate, threshold, equation tag."""

    x: tuple | None = None
    k: int | None = None
    c: int | None = None
    eq: str | None = None


@dataclass(frozen=True)
class ConditionEntry:
    """Verdict for one condition; holds=None marks 'hypothesis not met'."""

    holds: bool | None
    witness: Witness | None = None


@dataclass
class ConditionReport:
    table: object
    order_preserving: bool
    order_witness: Witness | None
    entries: dict
    polynomial: bool
    consistent: bool


@dataclass(frozen=True)
class Classification:
    polynomial: bool
    term_function: bool
    sugeno: bool


# -- grid index maps ----------------------------------------------------------
#
# Each identity compares f at a transformed point with a transform of f(x).
# The transformed points depend only on (lattice, arity), so their grid
# indices are built once and cached on the lattice, after the budget check.


def grid_map(lat, n, kind):
    """The index structure `kind` of _GRID_KINDS for arity n, built on
    first use and kept in the lattice's cache."""
    key = ("grid", kind, n)
    got = lat._cache.get(key)
    if got is None:
        got = lat._cache[key] = _GRID_KINDS[kind](lat, n)
    return got


def _unary_maps(lat, n, digit_maps):
    """maps[c][i]: grid index of (u(x_1), ..., u(x_n)) for the point x at
    index i, where u(d) = digit_maps[c][d]."""
    return [lat.point_space(n).indices([g] * n) for g in digit_maps]


def _line_rows(lat, n):
    """Rows (i, k, x_k, i0, s), in grid order and then coordinate order:
    the line through the point x at index i along coordinate k holds the
    indices i0 + v*s for v in L (x with x_k := v)."""
    sp = lat.point_space(n)
    return tuple(
        (i, k, x[k], i - x[k] * s, s)
        for i, x in enumerate(sp.iter_points())
        for k, s in enumerate(sp.strides)
    )


def _diagonal_rows(lat, n):
    """Getters for the diagonals of f and of its constant substitutions
    (substituted coordinates in subset_masks order, never all n of them;
    values in lexicographic order): each returns one diagonal as a tuple."""
    m, sp = lat.m, lat.point_space(n)
    rows = []
    for kmask in subset_masks(n):
        if kmask == (1 << n) - 1 and n > 0:
            continue  # keep at least one free coordinate
        frozen = [kmask >> k & 1 for k in range(n)]
        # the point with 1 at the free coordinates and 0 at the others
        (step,) = sp.indices([(0,) if z else (1,) for z in frozen])
        for base in sp.indices([range(m) if z else (0,) for z in frozen]):
            rows.append(itemgetter(*(base + v * step for v in range(m))))
    return rows


def _lower_covers(lat, n):
    """lower[j]: the grid indices of the points that the point at index j
    covers in the product order, in the order of the covers rows."""
    lower = [[] for _ in range(lat.m**n)]
    for i, _, j in grid_map(lat, n, "covers"):
        lower[j].append(i)
    return tuple(map(tuple, lower))


_GRID_KINDS = {
    # meet and join are commutative, so row c of their tables is d -> d op c
    "meet": lambda lat, n: _unary_maps(lat, n, lat._meet_t),
    "join": lambda lat, n: _unary_maps(lat, n, lat._join_t),
    # [x]_c: coordinates below c drop to bottom; [x]^c: above c rise to top
    "below": lambda lat, n: _unary_maps(
        lat, n, [lat.truncation_row(c, "below") for c in range(lat.m)]
    ),
    "above": lambda lat, n: _unary_maps(
        lat, n, [lat.truncation_row(c, "above") for c in range(lat.m)]
    ),
    "lines": _line_rows,
    # (i, k, j): the point at index j is the point at index i with
    # coordinate k raised to an upper cover; in the order of the lines
    "covers": lambda lat, n: tuple(
        (i, k, i0 + c * s)
        for i, k, xk, i0, s in grid_map(lat, n, "lines")
        for c in lat.covers_up[xk]
    ),
    "lower covers": _lower_covers,
    "diagonals": _diagonal_rows,
    "prefix rows": lambda lat, n: _prefix_rows(lat, n),
}


# -- individual checkers ----------------------------------------------------


def is_order_preserving(f, budget=None):
    """Componentwise monotonicity, checked on cover-adjacent point pairs
    (sufficient by transitivity)."""
    lat = f.lattice
    n = f.arity
    vals = f.values
    ensure_budget(len(vals) * max(n, 1), budget, "monotonicity scan")
    leq = lat._leq
    for i, k, j in grid_map(lat, n, "covers"):
        if not leq[vals[i]][vals[j]]:
            return False, Witness(x=lat.point_space(n).decode(i), k=k + 1)
    return True, None


def check_median_decomposition(f, budget=None):
    """f(x) = med(f(x with x_k := bottom), x_k, f(x with x_k := top))
    for every point x and coordinate k."""
    lat = f.lattice
    n = f.arity
    vals = f.values
    ensure_budget(len(vals) * max(n, 1), budget, "median decomposition scan")
    meet_t, join_t, top = lat._meet_t, lat._join_t, lat.top_id
    for i, k, xk, i0, s in grid_map(lat, n, "lines"):
        f0 = vals[i0]
        f1 = vals[i0 + top * s]
        if meet_t[meet_t[join_t[f0][xk]][join_t[f0][f1]]][join_t[xk][f1]] != vals[i]:
            return False, Witness(x=lat.point_space(n).decode(i), k=k + 1)
    return True, None


def check_self_composition(f, budget=None):
    """f(x_1, ..., f(x), ..., x_n) = f(x) for every point and slot; for
    n = 1 this is the idempotency equation f(f(x)) = f(x)."""
    lat = f.lattice
    n = f.arity
    vals = f.values
    ensure_budget(len(vals) * max(n, 1), budget, "composition absorption scan")
    for i, k, xk, i0, s in grid_map(lat, n, "lines"):
        fx = vals[i]
        if vals[i0 + fx * s] != fx:
            return False, Witness(x=lat.point_space(n).decode(i), k=k + 1)
    return True, None


def _bound_interval(f, what):
    lat = f.lattice
    f0 = f.values[0]
    f1 = f.values[-1]
    if not lat._leq[f0][f1]:
        raise HypothesisViolatedError(
            f"{what} needs f(bottom,...) below f(top,...); "
            f"got {lat.elements[f0].name!r} and {lat.elements[f1].name!r}"
        )
    return lat.interval(f0, f1)


def check_homogeneity(f, direction="meet", scope="interval", budget=None):
    """Threshold homogeneity f(x ^ c) = f(x) ^ c (or the join dual).

    scope='interval' ranges c over [f(bottom), f(top)] (requires that
    interval to be well formed); scope='all' is the stronger variant with
    c ranging over the whole lattice.
    """
    if direction not in ("meet", "join"):
        raise InvalidParamsError(f"direction must be 'meet' or 'join', got {direction!r}")
    if scope not in ("interval", "all"):
        raise InvalidParamsError(f"scope must be 'interval' or 'all', got {scope!r}")
    lat = f.lattice
    vals = f.values
    ensure_budget(len(vals) * lat.m, budget, "homogeneity scan")
    cs = _bound_interval(f, "homogeneity") if scope == "interval" else range(lat.m)
    op = lat._meet_t if direction == "meet" else lat._join_t
    maps = grid_map(lat, f.arity, direction)
    for i, fi in enumerate(vals):
        row = op[fi]
        for c in cs:
            if vals[maps[c][i]] != row[c]:
                return False, Witness(x=lat.point_space(f.arity).decode(i), c=c)
    return True, None


def check_horizontal(f, direction="meet", budget=None):
    """Horizontal split f(x) = f(x ^ c) v f([x]_c) (meet direction) or the
    dual f(x) = f(x v c) ^ f([x]^c), for c in [f(bottom), f(top)]."""
    if direction not in ("meet", "join"):
        raise InvalidParamsError(f"direction must be 'meet' or 'join', got {direction!r}")
    lat = f.lattice
    n = f.arity
    vals = f.values
    ensure_budget(len(vals) * lat.m, budget, "horizontal split scan")
    cs = _bound_interval(f, "horizontal split")
    if direction == "meet":
        outer, inner, combine = grid_map(lat, n, "meet"), grid_map(lat, n, "below"), lat._join_t
    else:
        outer, inner, combine = grid_map(lat, n, "join"), grid_map(lat, n, "above"), lat._meet_t
    for i, fi in enumerate(vals):
        for c in cs:
            if combine[vals[outer[c][i]]][vals[inner[c][i]]] != fi:
                return False, Witness(x=lat.point_space(n).decode(i), c=c)
    return True, None


def check_range_idempotency(f, budget=None):
    """f(c, ..., c) = c for every c in [f(bottom), f(top)]."""
    lat = f.lattice
    sp = lat.point_space(f.arity)
    ensure_budget(lat.m, budget, "range idempotency scan")
    for c in _bound_interval(f, "range idempotency"):
        if f.values[sp.diag_index(c)] != c:
            return False, Witness(c=c)
    return True, None


def _convexity_gap(values, leq, m):
    """Smallest element strictly between members of `values` yet missing."""
    for y in range(m):
        if y in values:
            continue
        if any(leq[u][y] for u in values) and any(leq[y][v] for v in values):
            return y
    return None


def check_range_convexity(f, budget=None):
    """The global range and every one-coordinate section range are convex
    (contain everything between two of their members)."""
    lat = f.lattice
    n = f.arity
    m = lat.m
    vals = f.values
    ensure_budget(len(vals) * m * max(n, 1), budget, "range convexity scan")
    leq = lat._leq
    gap = _convexity_gap(set(vals), leq, m)
    if gap is not None:
        return False, Witness(c=gap, eq="range-convex")
    for i, k, xk, _, s in grid_map(lat, n, "lines"):
        if xk != 0:
            continue  # same section as the representative with x_k = bottom
        section = set(vals[i : i + m * s : s])
        if len(section) == m:
            continue
        gap = _convexity_gap(section, leq, m)
        if gap is not None:
            return False, Witness(
                x=lat.point_space(n).decode(i), k=k + 1, c=gap, eq="section-convex"
            )
    return True, None


def _delta_failures(f, budget=None):
    """The first failures of meet- and join-preservation over the diagonals
    of f and of every constant-substitution of f (repeated diagonals
    skipped), in scan order: diagonals in grid_map order, meet before join
    on each.  Returns a dict with "meet" and "join" mapped to the first
    failure of each and "both" to the earlier of the two; a key is absent
    when that preservation holds.
    """
    lat = f.lattice
    n = f.arity
    vals = f.values
    subset_masks(n)  # the arity rule comes before the budget
    ensure_budget(len(vals) * (1 << n), budget, "diagonal preservation scan")
    if lat.m == 1:
        return {}  # no pairs u < v, so no diagonal to build
    meet_t, join_t = lat._meet_t, lat._join_t
    fails = {}
    seen = set()
    for row in grid_map(lat, n, "diagonals"):
        d = row(vals)
        if d in seen:
            continue
        seen.add(d)
        if "meet" not in fails:
            bad = _unpreserved_pair(d, meet_t)
            if bad is not None:
                fails["meet"] = Witness(x=bad, eq="delta-meet")
        if "join" not in fails:
            bad = _unpreserved_pair(d, join_t)
            if bad is not None:
                fails["join"] = Witness(x=bad, eq="delta-join")
        if len(fails) == 2:
            break
    if fails:
        fails["both"] = next(iter(fails.values()))  # the first one found
    return fails


def _unpreserved_pair(d, op):
    """The first pair (u, v), u-major with u < v, where the diagonal d
    fails d(u op v) = d(u) op d(v), or None.  u = v holds by idempotency,
    and (v, u) fails exactly when (u, v) does."""
    for u, v in combinations(range(len(d)), 2):
        if d[op[u][v]] != op[d[u]][d[v]]:
            return u, v
    return None


def check_delta_preservation(f, which="both", budget=None):
    """Do the diagonals of f and of all its constant-substitutions preserve
    meet, join, or both?"""
    if which not in ("meet", "join", "both"):
        raise InvalidParamsError(f"which must be 'meet', 'join', or 'both', got {which!r}")
    w = _delta_failures(f, budget=budget).get(which)
    return (w is None), w


# -- composite conditions ----------------------------------------------------


def _delta_sub_check(which):
    """The delta verdict for key `which` of _delta_failures, whose dict is
    kept in the memo so that the diagonal scan runs at most once per table."""

    def check(f, budget, scope, memo):
        if "delta" not in memo:
            memo["delta"] = _delta_failures(f, budget=budget)
        w = memo["delta"].get(which)
        return (w is None), w

    return check


# The sub-checks of the composite conditions: name -> (tag, check), where
# check(f, budget, scope, memo) returns (holds, witness).  The tag is
# attached to untagged witnesses for the report (the median decomposition
# is the single equation of condition ii, so its witness stays untagged).
_SUB_CHECKS = {
    "med": (None, lambda f, budget, scope, memo: check_median_decomposition(f, budget)),
    "selfcomp": ("(2)", lambda f, budget, scope, memo: check_self_composition(f, budget)),
    "hom_meet": (
        "(3)",
        lambda f, budget, scope, memo: check_homogeneity(f, "meet", scope, budget),
    ),
    "hom_join": (
        "(3d)",
        lambda f, budget, scope, memo: check_homogeneity(f, "join", scope, budget),
    ),
    "hor_meet": ("(4)", lambda f, budget, scope, memo: check_horizontal(f, "meet", budget)),
    "hor_join": ("(4d)", lambda f, budget, scope, memo: check_horizontal(f, "join", budget)),
    "idem": ("(5)", lambda f, budget, scope, memo: check_range_idempotency(f, budget)),
    "convex": (None, lambda f, budget, scope, memo: check_range_convexity(f, budget)),
    "delta_both": (None, _delta_sub_check("both")),
    "delta_join": (None, _delta_sub_check("join")),
}

# sub-checks per condition, in the order the equivalence states them
_COMPOSITES = {
    "ii": ("med",),
    "iii": ("delta_both", "convex", "selfcomp"),
    "iv": ("hom_meet", "hom_join"),
    "v": ("delta_join", "hom_meet", "hor_meet"),
    "vi": ("delta_both", "hor_meet", "hor_join", "idem"),
}


def _condition_verdict(f, cond, budget, scope, memo):
    """The first failing sub-check of `cond`, each sub-check run at most
    once per table: `memo` maps sub-check names to their verdicts."""
    for name in _COMPOSITES[cond]:
        got = memo.get(name)
        if got is None:
            tag, check = _SUB_CHECKS[name]
            ok, w = check(f, budget, scope, memo)
            if w is not None and w.eq is None and tag is not None:
                w = Witness(w.x, w.k, w.c, tag)
            got = memo[name] = ok, w
        if not got[0]:
            return got
    return True, None


def check_condition(f, cond, budget=None, scope="interval"):
    """Evaluate a single equivalence condition (ii..vi) on a table."""
    if cond not in CONDITION_IDS:
        raise InvalidParamsError(f"unknown condition {cond!r}; expected one of {CONDITION_IDS}")
    return _condition_verdict(f, cond, budget, scope, {})


def _designated_polynomial_test(f, budget=None):
    """Polynomiality: 0/1 reconstruction on distributive lattices, clone
    closure membership otherwise."""
    lat = f.lattice
    if lat.distributive:
        ok, _ = reconstruct(f, budget=budget)
        return ok
    from .oracle import _closure_values  # deferred: oracle imports us

    return f.values in _closure_values(lat, f.arity, budget)


def evaluate_all_conditions(f, budget=None, known_polynomial=None, scope="interval"):
    """Full report: monotonicity, conditions ii..vi, and the polynomial verdict.

    Conditions iii..vi assume an order-preserving function (their bound
    interval may be ill-formed otherwise) and are marked as skipped when
    the hypothesis fails; ii is hypothesis-free.  `known_polynomial`
    short-circuits the polynomiality test when the caller already knows it.
    That test runs first, so its arity rule precedes every budget charge.
    """
    if known_polynomial is None:
        polynomial = _designated_polynomial_test(f, budget=budget)
    else:
        polynomial = bool(known_polynomial)
    op_ok, op_w = is_order_preserving(f, budget=budget)
    memo = {}
    entries = {}
    ok, w = _condition_verdict(f, "ii", budget, scope, memo)
    entries["ii"] = ConditionEntry(ok, w)
    for cond in ("iii", "iv", "v", "vi"):
        if op_ok:
            ok, w = _condition_verdict(f, cond, budget, scope, memo)
            entries[cond] = ConditionEntry(ok, w)
        else:
            entries[cond] = ConditionEntry(None, None)
    verdicts = {e.holds for e in entries.values() if e.holds is not None}
    verdicts.add(polynomial)
    return ConditionReport(
        table=f,
        order_preserving=op_ok,
        order_witness=op_w,
        entries=entries,
        polynomial=polynomial,
        consistent=len(verdicts) == 1,
    )


def classify(f, budget=None):
    """Polynomial / term-function / normalized-aggregation classification.

    A term function is a polynomial function under which {bottom}, {top},
    and {bottom, top} are closed; the normalized aggregation functions
    ("sugeno") are the polynomial functions fixing bottom and top.
    """
    lat = f.lattice
    poly = _designated_polynomial_test(f, budget=budget)
    bottom, top = lat.bottom_id, lat.top_id
    sugeno = poly and f.values[0] == bottom and f.values[-1] == top
    term_function = sugeno and all(v in (bottom, top) for v in extract_alpha(f).coeffs)
    return Classification(polynomial=poly, term_function=term_function, sugeno=sugeno)


# -- sub-check failures on a prefix of a monotone table ------------------------
#
# verify_equivalence fixes the values of a monotone table position by
# position, in grid order.  A row is one instance of a sub-check's equation;
# it runs once, at the position where the last value it reads is fixed, and
# when it fails there its sub-check fails for every completion of the
# prefix.  A threshold row runs only when c lies between f(bottom) and the
# join of the values fixed so far, which monotonicity puts below f(top).
# The other thresholds, the global range convexity and diagonal
# preservation have no rows: they are left to the full report.

_BIT = {name: 1 << k for k, name in enumerate(_SUB_CHECKS)}
_CONDITION_MASKS = [sum(_BIT[name] for name in subs) for subs in _COMPOSITES.values()]


def _live_bits(failed):
    live = 0
    for mask in _CONDITION_MASKS:
        if not failed & mask:
            live |= mask
    return live


# _LIVE[failed]: the sub-checks of the conditions that no failed sub-check
# has falsified yet; 0 once conditions ii..vi all fail
_LIVE = tuple(_live_bits(failed) for failed in range(1 << len(_BIT)))


def _prefix_rows(lat, n):
    """failures(p, vals, live, high): the bits of the sub-checks in `live`
    that fail on a row whose last read is position p, for a monotone prefix
    vals[0..p] whose values join to `high`.

    The rows hold O(|L|^(n+1) * n) ints, like the maps the checkers read,
    so verify builds them after a table's full report has charged the
    budget, and the witness search after charging |L|^n + 1 tables or more.
    """
    m, top = lat.m, lat.top_id
    meet_t, join_t, leq = lat._meet_t, lat._join_t, lat._leq
    size = m**n
    meets, joins = grid_map(lat, n, "meet"), grid_map(lat, n, "join")
    below, above = grid_map(lat, n, "below"), grid_map(lat, n, "above")
    # medians[a][u][w]: the median decomposition's value at x_k = a from
    # u = f(x_k := bottom) and w = f(x_k := top)
    medians = [
        [[meet_t[meet_t[join_t[u][a]][join_t[u][w]]][join_t[a][w]] for w in range(m)]
         for u in range(m)]
        for a in range(m)
    ]
    # the rows whose last read is position p, per sub-check:
    #   med       (i0, i, t): f(i) = t[f(i0)][f(p)] on the line from i0 to p
    #   selfcomp  (i, j, v): f(i) = v needs f(j) = v, j on the line through i
    #   hom_join  (c, i) with p = i v c: f(p) = f(i) v c
    #   hor_join  (c, i, a, b) with a = i v c and b = [i]^c, p the later
    #   idem      the c with p = (c, ..., c)
    #   convex    (i, s): the section i, i + s, ..., p
    med, selfcomp, hom_join, hor_join, idem, convex = (
        [[] for _ in range(size)] for _ in range(6)
    )
    for i, k, xk, i0, s in grid_map(lat, n, "lines"):
        end = i0 + top * s
        if 0 < xk < top:  # at x_k = bottom or top the equation holds for monotone f
            med[end].append((i0, i, medians[xk]))
        if xk == 0:
            convex[end].append((i, s))
        for v in range(m):
            j = i0 + v * s
            if j != i:
                selfcomp[max(i, j)].append((i, j, v))
    for c in range(m):
        idem[lat.point_space(n).diag_index(c)].append(c)
        for i in range(size):
            hom_join[joins[c][i]].append((c, i))
            hor_join[max(joins[c][i], above[c][i])].append((c, i, joins[c][i], above[c][i]))
    intervals = [
        [tuple(c for c in range(m) if leq[u][c] and leq[c][w]) for w in range(m)]
        for u in range(m)
    ]
    MED, SELF, CONVEX, IDEM = _BIT["med"], _BIT["selfcomp"], _BIT["convex"], _BIT["idem"]
    HOM_MEET, HOM_JOIN = _BIT["hom_meet"], _BIT["hom_join"]
    HOR_MEET, HOR_JOIN = _BIT["hor_meet"], _BIT["hor_join"]

    def failures(p, vals, live, high):
        failed = 0
        fp = vals[p]
        cs = intervals[vals[0]][high]
        if live & MED:
            for i0, i, t in med[p]:
                if t[vals[i0]][fp] != vals[i]:
                    failed |= MED
                    break
        if live & SELF:
            for i, j, v in selfcomp[p]:
                if vals[i] == v and vals[j] != v:
                    failed |= SELF
                    break
        if live & HOM_MEET:  # f(p ^ c) = f(p) ^ c
            row = meet_t[fp]
            for c in cs:
                if vals[meets[c][p]] != row[c]:
                    failed |= HOM_MEET
                    break
        if live & HOM_JOIN:
            for c, i in hom_join[p]:
                if c in cs and join_t[vals[i]][c] != fp:
                    failed |= HOM_JOIN
                    break
        if live & HOR_MEET:  # f(p) = f(p ^ c) v f([p]_c)
            for c in cs:
                if join_t[vals[meets[c][p]]][vals[below[c][p]]] != fp:
                    failed |= HOR_MEET
                    break
        if live & HOR_JOIN:
            for c, i, a, b in hor_join[p]:
                if c in cs and meet_t[vals[a]][vals[b]] != vals[i]:
                    failed |= HOR_JOIN
                    break
        if live & IDEM:
            for c in idem[p]:
                if c in cs and fp != c:
                    failed |= IDEM
                    break
        if live & CONVEX:
            for i, s in convex[p]:
                section = set(vals[i : p + 1 : s])
                if len(section) < m and _convexity_gap(section, leq, m) is not None:
                    failed |= CONVEX
                    break
        return failed

    return failures


# -- report rendering ---------------------------------------------------------


def format_witness(lattice, w):
    parts = []
    if w.x is not None:
        parts.append("x=(" + ",".join(lattice.elements[d].name for d in w.x) + ")")
    if w.k is not None:
        parts.append(f"k={w.k}")
    if w.c is not None:
        parts.append(f"c={lattice.elements[w.c].name}")
    if w.eq is not None:
        parts.append(f"eq={w.eq}")
    return " ".join(parts)


def format_entry(lattice, entry):
    if entry.holds is None:
        return "SKIP(hypothesis)"
    if entry.holds:
        return "PASS"
    if entry.witness is None:
        return "FAIL"
    return f"FAIL at {format_witness(lattice, entry.witness)}"


def report_lines(report, conditions=None):
    """Stable line-oriented rendering of a ConditionReport."""
    lat = report.table.lattice
    lines = []
    if not report.order_preserving:
        suffix = ""
        if report.order_witness is not None:
            suffix = f" at {format_witness(lat, report.order_witness)}"
        lines.append(f"order-preserving: FAIL{suffix}")
    lines.append(f"polynomial: {'PASS' if report.polynomial else 'FAIL'}")
    for cond in conditions or CONDITION_IDS:
        lines.append(f"{cond}: {format_entry(lat, report.entries[cond])}")
    return lines
