import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import (
    FunctionTable,
    boolean,
    build_from_covers,
    chain,
    Witness,
    check_condition,
    check_delta_preservation,
    check_homogeneity,
    check_horizontal,
    check_median_decomposition,
    check_range_convexity,
    check_range_idempotency,
    check_self_composition,
    classify,
    delta,
    evaluate_all_conditions,
    extract_alpha,
    is_order_preserving,
    m3,
    materialize,
    n5,
    parse_term,
    product,
    random_term,
    report_lines,
    substitute,
)
from latpoly.conditions import _BIT, _SUB_CHECKS, grid_map
from latpoly.errors import BudgetExceededError, HypothesisViolatedError
from latpoly.oracle import closure_polynomials, iter_monotone_tables


def step_table(chain3):
    """The standard negative control on the 3-chain: 0->0, m->0, 1->1."""
    return FunctionTable(chain3, 1, (0, 0, 2))


def all_unary_tables(lat):
    for values in itertools.product(range(lat.m), repeat=lat.m):
        yield FunctionTable(lat, 1, values)


def preserves(lat, f, op):
    combine = lat.meet if op == "meet" else lat.join
    return all(
        f.values[combine(x, y)] == combine(f.values[x], f.values[y])
        for x in range(lat.m)
        for y in range(lat.m)
    )


# -- monotonicity ---------------------------------------------------------


def test_terms_are_order_preserving(chain3):
    f = materialize(chain3, parse_term("med(x1, x2, 'm')", chain3, 2), 2)
    assert is_order_preserving(f) == (True, None)


def test_antitone_witness(chain2):
    f = FunctionTable(chain2, 1, (1, 0))
    ok, w = is_order_preserving(f)
    assert not ok and w == Witness(x=(0,), k=1)


def test_constant_is_order_preserving(b2):
    f = FunctionTable(b2, 2, (b2.element("a").id,) * 16)
    assert is_order_preserving(f)[0]


# -- median decomposition -------------------------------------------------


def test_median_decomposition_of_median(chain3):
    f = materialize(chain3, parse_term("med(x1, x2, x3)", chain3, 3), 3)
    assert check_median_decomposition(f) == (True, None)


def test_median_decomposition_step_witness(chain3):
    ok, w = check_median_decomposition(step_table(chain3))
    assert not ok and w == Witness(x=(chain3.element("m").id,), k=1)


def test_median_decomposition_constant(b2):
    f = FunctionTable(b2, 2, (b2.element("b").id,) * 16)
    assert check_median_decomposition(f)[0]


def test_median_decomposition_implies_monotone(chain3):
    # every unary table satisfying the decomposition is order-preserving
    for f in all_unary_tables(chain3):
        if check_median_decomposition(f)[0]:
            assert is_order_preserving(f)[0]


# -- composition absorption -------------------------------------------------


def test_self_composition_of_and(chain2):
    f = materialize(chain2, parse_term("x1 & x2", chain2, 2), 2)
    assert check_self_composition(f) == (True, None)


def test_self_composition_alone_is_insufficient(chain3):
    # the step table is idempotent under composition yet not polynomial
    f = step_table(chain3)
    assert check_self_composition(f) == (True, None)
    assert classify(f).polynomial is False


def test_self_composition_witness(chain3):
    m1 = chain3.element("m").id
    f = FunctionTable(chain3, 1, (m1, 2, 2))
    ok, w = check_self_composition(f)
    assert not ok and w == Witness(x=(0,), k=1)


# -- homogeneity -------------------------------------------------------------


def test_homogeneity_of_terms(chain3):
    rng = random.Random(2)
    for _ in range(15):
        f = materialize(chain3, random_term(rng, chain3, 2, 4), 2)
        for direction in ("meet", "join"):
            assert check_homogeneity(f, direction)[0]


def test_homogeneity_step_witness(chain3):
    ok, w = check_homogeneity(step_table(chain3), "meet")
    m1 = chain3.element("m").id
    assert not ok and w == Witness(x=(chain3.top_id,), c=m1)


def test_homogeneity_fails_for_pentagon_polynomial(pentagon):
    f = materialize(pentagon, parse_term("(x1 | 'a') & 'b'", pentagon, 1), 1)
    ok, w = check_homogeneity(f, "meet")
    assert not ok
    assert w.x == (pentagon.element("c").id,)
    assert w.c == pentagon.element("b").id


def test_homogeneity_hypothesis_violated(chain2):
    f = FunctionTable(chain2, 1, (1, 0))
    with pytest.raises(HypothesisViolatedError):
        check_homogeneity(f, "meet")
    # the all-elements scope has no interval hypothesis
    ok, _ = check_homogeneity(f, "meet", scope="all")
    assert not ok


def test_homogeneity_all_scope_is_stronger(chain3):
    # x v m satisfies the interval variant but fails at thresholds below f(0)
    f = materialize(chain3, parse_term("x1 | 'm'", chain3, 1), 1)
    assert check_homogeneity(f, "meet", scope="interval")[0]
    assert not check_homogeneity(f, "meet", scope="all")[0]


# -- horizontal splits ----------------------------------------------------


def brute_horizontal(lat, f, direction):
    sp = lat.point_space(f.arity)
    lo, hi = f.values[0], f.values[-1]
    for x in sp.iter_points():
        for c in lat.interval(lo, hi):
            if direction == "meet":
                low = tuple(lat.meet(d, c) for d in x)
                cut = lat.truncate(x, c, "below")
                if lat.join(f(low), f(cut)) != f(x):
                    return False
            else:
                high = tuple(lat.join(d, c) for d in x)
                cut = lat.truncate(x, c, "above")
                if lat.meet(f(high), f(cut)) != f(x):
                    return False
    return True


def test_horizontal_of_terms(chain3, b2):
    rng = random.Random(4)
    for lat in (chain3, b2):
        for _ in range(15):
            f = materialize(lat, random_term(rng, lat, 2, 4), 2)
            for direction in ("meet", "join"):
                assert check_horizontal(f, direction)[0]


def test_horizontal_step_table_passes(chain3):
    assert check_horizontal(step_table(chain3), "meet") == (True, None)


def test_horizontal_matches_brute_force(chain3):
    # checked against an independently written scan, for all monotone tables
    for values in iter_monotone_tables(chain3, 1):
        f = FunctionTable(chain3, 1, values)
        for direction in ("meet", "join"):
            assert check_horizontal(f, direction)[0] == brute_horizontal(
                chain3, f, direction
            )


# -- range idempotency and convexity -------------------------------------


def test_range_idempotency(chain3):
    rng = random.Random(6)
    for _ in range(10):
        f = materialize(chain3, random_term(rng, chain3, 2, 4), 2)
        assert check_range_idempotency(f)[0]
    ok, w = check_range_idempotency(step_table(chain3))
    assert not ok and w == Witness(c=chain3.element("m").id)


def test_range_convexity(chain3, b2):
    ok, w = check_range_convexity(step_table(chain3))
    assert not ok
    assert w.c == chain3.element("m").id and w.eq == "range-convex"
    constant = FunctionTable(b2, 1, (b2.element("a").id,) * 4)
    assert check_range_convexity(constant) == (True, None)


def test_section_convexity_witness(b2):
    # f(x, y) = x on the square except f(1, 1) = 1 breaks a section range
    a, b, top = b2.element("a").id, b2.element("b").id, b2.top_id
    values = []
    for x in range(4):
        for y in range(4):
            values.append(top if (x, y) == (a, top) else 0 if x == a else x)
    f = FunctionTable(b2, 2, values)
    ok, w = check_range_convexity(f)
    assert not ok


# -- diagonal preservation --------------------------------------------------


def brute_delta_preservation(lat, f, op):
    """Independent scan via the public substitute/delta operations."""
    n = f.arity
    seen = set()
    coords = list(range(1, n + 1))
    for r in range(n):
        for k_set in itertools.combinations(coords, r):
            for a in itertools.product(range(lat.m), repeat=n):
                g = substitute(f, k_set, a)
                if g.values in seen:
                    continue
                seen.add(g.values)
                if not preserves(lat, delta(g), op):
                    return False
    return True


def test_delta_preservation_examples(chain2, b2):
    f = materialize(chain2, parse_term("x1 & x2", chain2, 2), 2)
    assert check_delta_preservation(f, "both") == (True, None)
    identity = FunctionTable(b2, 1, tuple(range(4)))
    assert check_delta_preservation(identity, "both") == (True, None)


def test_delta_preservation_matches_brute_force(b2):
    rng = random.Random(8)
    tables = [tuple(rng.randrange(4) for _ in range(16)) for _ in range(20)]
    for values in tables:
        f = FunctionTable(b2, 2, values)
        for op in ("meet", "join"):
            assert (
                check_delta_preservation(f, op)[0]
                == brute_delta_preservation(b2, f, op)
            )


def test_delta_preservation_of_terms(b2):
    rng = random.Random(9)
    for _ in range(15):
        f = materialize(b2, random_term(rng, b2, 2, 4), 2)
        assert check_delta_preservation(f, "both")[0]


# -- derived laws -------------------------------------------------------------


def test_homogeneity_forces_idempotency_and_full_range(chain4, b2):
    # for monotone f: either homogeneity direction pins the range to the
    # bound interval and makes it idempotent there
    for lat in (chain4, b2):
        for values in iter_monotone_tables(lat, 1):
            f = FunctionTable(lat, 1, values)
            if check_homogeneity(f, "meet")[0] or check_homogeneity(f, "join")[0]:
                assert check_range_idempotency(f)[0]
                assert set(values) == set(lat.interval(values[0], values[-1]))


def test_both_homogeneities_force_delta_preservation(chain4, b2):
    for lat in (chain4, b2):
        for values in iter_monotone_tables(lat, 1):
            f = FunctionTable(lat, 1, values)
            if check_homogeneity(f, "meet")[0] and check_homogeneity(f, "join")[0]:
                d = delta(f)
                assert preserves(lat, d, "meet") and preserves(lat, d, "join")


def test_unary_idempotency_characterization(chain3):
    # polynomial <=> convex range, f(f(x)) = f(x), and both preservations
    poly = closure_polynomials(chain3, 1)
    for f in all_unary_tables(chain3):
        candidate = (
            check_range_convexity(f)[0]
            and check_self_composition(f)[0]
            and preserves(chain3, f, "meet")
            and preserves(chain3, f, "join")
        )
        assert candidate == (f.values in poly)


def test_unary_homogeneity_characterizations(chain3):
    poly = closure_polynomials(chain3, 1)
    for f in all_unary_tables(chain3):
        via_join = preserves(chain3, f, "join") and check_homogeneity(f, "meet")[0]
        via_both = (
            preserves(chain3, f, "meet")
            and preserves(chain3, f, "join")
            and check_range_idempotency(f)[0]
        )
        assert via_join == (f.values in poly)
        assert via_both == (f.values in poly)


# -- full reports -------------------------------------------------------------


def test_report_for_term(chain3):
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    report = evaluate_all_conditions(f)
    assert report.order_preserving and report.polynomial and report.consistent
    assert all(report.entries[c].holds for c in report.entries)


def test_report_for_step_table(chain3):
    report = evaluate_all_conditions(step_table(chain3))
    assert report.order_preserving
    assert not report.polynomial
    assert all(report.entries[c].holds is False for c in report.entries)
    assert report.consistent
    lines = report_lines(report)
    assert "ii: FAIL at x=(m) k=1" in lines
    assert "iv: FAIL at x=(1) c=m eq=(3)" in lines
    assert "v: FAIL at x=(1) c=m eq=(3)" in lines
    assert "vi: FAIL at c=m eq=(5)" in lines
    assert "iii: FAIL at c=m eq=range-convex" in lines


def test_report_skips_hypothesis_for_non_monotone(chain2):
    f = FunctionTable(chain2, 1, (1, 0))
    report = evaluate_all_conditions(f)
    assert not report.order_preserving
    assert report.entries["ii"].holds is False
    for cond in ("iii", "iv", "v", "vi"):
        assert report.entries[cond].holds is None
    assert not report.polynomial
    assert report.consistent  # the computed verdicts all agree: not polynomial
    lines = report_lines(report)
    assert lines[0].startswith("order-preserving: FAIL")
    assert "iii: SKIP(hypothesis)" in lines


def test_report_inconsistent_on_pentagon(pentagon):
    f = materialize(pentagon, parse_term("(x1 | 'a') & 'b'", pentagon, 1), 1)
    report = evaluate_all_conditions(f)
    assert report.polynomial  # closure membership
    assert report.entries["iv"].holds is False
    assert not report.consistent


def test_check_condition_single(chain3):
    ok, w = check_condition(step_table(chain3), "iv")
    assert not ok and w.eq == "(3)"


# -- classification -----------------------------------------------------------


def test_classify_median(chain3):
    f = materialize(chain3, parse_term("med(x1, x2, x3)", chain3, 3), 3)
    c = classify(f)
    assert c.polynomial and c.term_function and c.sugeno


def test_classify_join_with_constant(chain3):
    f = materialize(chain3, parse_term("x1 | 'm'", chain3, 1), 1)
    c = classify(f)
    assert c.polynomial and not c.sugeno and not c.term_function


def test_classify_median_with_constant(chain3):
    # med(x, m, y) fixes bottom and top, so it is a normalized aggregation,
    # but its 0/1 restriction takes the value m, so it is no term function
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    c = classify(f)
    assert c.polynomial and c.sugeno and not c.term_function


def test_classify_on_non_distributive_uses_closure(pentagon):
    f = materialize(pentagon, parse_term("x1 & 'b' | 'a'", pentagon, 1), 1)
    assert classify(f).polynomial
    g = FunctionTable(pentagon, 1, (0, 0, 0, 0, 4))
    # med(0, x, 1) = x differs from g, and g is not in the pentagon's closure
    assert not classify(g).polynomial


# -- differential check against the equations ----------------------------------
#
# An independent reference for the checkers: each identity written out on
# point tuples with lattice.meet/join/leq, scanned in the documented
# witness order (points in grid order, then coordinates or thresholds).
# It shares no index map with the checkers, so a faster checker is always
# compared with this plain reading of the equations.


def ref_points(lat, n):
    return list(itertools.product(range(lat.m), repeat=n))


def ref_set(x, k, value):
    return x[:k] + (value,) + x[k + 1 :]


def ref_order(f):
    lat = f.lattice
    for x in ref_points(lat, f.arity):
        for k in range(f.arity):
            above = [c for c in range(lat.m) if c != x[k] and lat.leq(x[k], c)]
            covers = [c for c in above if not any(z != c and lat.leq(z, c) for z in above)]
            if any(not lat.leq(f(x), f(ref_set(x, k, c))) for c in covers):
                return False, Witness(x=x, k=k + 1)
    return True, None


def ref_median(f):
    lat = f.lattice
    for x in ref_points(lat, f.arity):
        for k in range(f.arity):
            f0 = f(ref_set(x, k, lat.bottom_id))
            f1 = f(ref_set(x, k, lat.top_id))
            med = lat.meet(lat.meet(lat.join(f0, x[k]), lat.join(f0, f1)), lat.join(x[k], f1))
            if med != f(x):
                return False, Witness(x=x, k=k + 1)
    return True, None


def ref_selfcomp(f):
    for x in ref_points(f.lattice, f.arity):
        for k in range(f.arity):
            if f(ref_set(x, k, f(x))) != f(x):
                return False, Witness(x=x, k=k + 1)
    return True, None


def ref_interval(f):
    lat = f.lattice
    lo = f((lat.bottom_id,) * f.arity)
    hi = f((lat.top_id,) * f.arity)
    if not lat.leq(lo, hi):
        raise HypothesisViolatedError("f(bottom) is not below f(top)")
    return [c for c in range(lat.m) if lat.leq(lo, c) and lat.leq(c, hi)]


def ref_homogeneity(f, direction, scope):
    lat = f.lattice
    op = lat.meet if direction == "meet" else lat.join
    cs = ref_interval(f) if scope == "interval" else range(lat.m)
    for x in ref_points(lat, f.arity):
        for c in cs:
            if f(tuple(op(d, c) for d in x)) != op(f(x), c):
                return False, Witness(x=x, c=c)
    return True, None


def ref_horizontal(f, direction):
    lat = f.lattice
    cs = ref_interval(f)
    for x in ref_points(lat, f.arity):
        for c in cs:
            if direction == "meet":
                cut = tuple(lat.bottom_id if lat.leq(d, c) else d for d in x)
                split = lat.join(f(tuple(lat.meet(d, c) for d in x)), f(cut))
            else:
                cut = tuple(lat.top_id if lat.leq(c, d) else d for d in x)
                split = lat.meet(f(tuple(lat.join(d, c) for d in x)), f(cut))
            if split != f(x):
                return False, Witness(x=x, c=c)
    return True, None


def ref_idempotency(f):
    for c in ref_interval(f):
        if f((c,) * f.arity) != c:
            return False, Witness(c=c)
    return True, None


def ref_gap(lat, values):
    """Smallest element missing from `values` yet between two members."""
    for y in range(lat.m):
        if y in values:
            continue
        if any(lat.leq(u, y) for u in values) and any(lat.leq(y, v) for v in values):
            return y
    return None


def ref_convexity(f):
    lat = f.lattice
    gap = ref_gap(lat, {f(x) for x in ref_points(lat, f.arity)})
    if gap is not None:
        return False, Witness(c=gap, eq="range-convex")
    for x in ref_points(lat, f.arity):
        for k in range(f.arity):
            if x[k] != lat.bottom_id:
                continue  # each section is reported at its point with x_k = bottom
            gap = ref_gap(lat, {f(ref_set(x, k, v)) for v in range(lat.m)})
            if gap is not None:
                return False, Witness(x=x, k=k + 1, c=gap, eq="section-convex")
    return True, None


def ref_delta(f, which):
    """Diagonals of f and of its constant substitutions: substituted
    coordinate sets by size then bitmask (never all of them), substituted
    values in lexicographic order; the earlier failure wins, meet on ties."""
    lat, n, m = f.lattice, f.arity, f.lattice.m
    masks = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    first = {"meet": None, "join": None}
    pos = 0
    for mask in masks:
        if n > 0 and mask == (1 << n) - 1:
            continue
        frozen = [k for k in range(n) if mask >> k & 1]
        for key in itertools.product(range(m), repeat=len(frozen)):
            fixed = dict(zip(frozen, key))
            d = [f(tuple(fixed.get(k, v) for k in range(n))) for v in range(m)]
            for name, op in (("meet", lat.meet), ("join", lat.join)):
                bad = [(u, v) for u in range(m) for v in range(m) if d[op(u, v)] != op(d[u], d[v])]
                if first[name] is None and bad:
                    first[name] = (pos, Witness(x=bad[0], eq="delta-" + name))
            pos += 1
    fails = [first[name] for name in ("meet", "join") if which in (name, "both") and first[name]]
    if not fails:
        return True, None
    return False, min(fails, key=lambda fail: fail[0])[1]


def ref_condition(f, cond, scope):
    """The first failing sub-check of `cond` in the order the equivalence
    states them, its witness tagged with the equation it violates."""
    subs = {
        "ii": [(ref_median, (), None)],
        "iii": [
            (ref_delta, ("both",), None),
            (ref_convexity, (), None),
            (ref_selfcomp, (), "(2)"),
        ],
        "iv": [
            (ref_homogeneity, ("meet", scope), "(3)"),
            (ref_homogeneity, ("join", scope), "(3d)"),
        ],
        "v": [
            (ref_delta, ("join",), None),
            (ref_homogeneity, ("meet", scope), "(3)"),
            (ref_horizontal, ("meet",), "(4)"),
        ],
        "vi": [
            (ref_delta, ("both",), None),
            (ref_horizontal, ("meet",), "(4)"),
            (ref_horizontal, ("join",), "(4d)"),
            (ref_idempotency, (), "(5)"),
        ],
    }[cond]
    for reference, args, tag in subs:
        ok, w = reference(f, *args)
        if not ok:
            return False, dataclasses.replace(w, eq=tag) if tag else w
    return True, None


def outcome(check, *args):
    try:
        return check(*args)
    except HypothesisViolatedError:
        return HypothesisViolatedError


CHECKER_PAIRS = [
    (is_order_preserving, ref_order, ()),
    (check_median_decomposition, ref_median, ()),
    (check_self_composition, ref_selfcomp, ()),
    (check_range_idempotency, ref_idempotency, ()),
    (check_range_convexity, ref_convexity, ()),
    *[
        (check_homogeneity, ref_homogeneity, (direction, scope))
        for direction in ("meet", "join")
        for scope in ("interval", "all")
    ],
    (check_horizontal, ref_horizontal, ("meet",)),
    (check_horizontal, ref_horizontal, ("join",)),
    *[(check_delta_preservation, ref_delta, (which,)) for which in ("meet", "join", "both")],
]


def assert_matches_reference(f):
    for check, reference, args in CHECKER_PAIRS:
        got = outcome(check, f, *args)
        assert got == outcome(reference, f, *args), (check.__name__, args, f.values)
    for cond in ("ii", "iii", "iv", "v", "vi"):
        for scope in ("interval", "all"):
            got = outcome(check_condition, f, cond, None, scope)
            assert got == outcome(ref_condition, f, cond, scope), (cond, scope, f.values)


@pytest.mark.parametrize("lat, n", [(chain(3), 2), (boolean(2), 1), (n5(), 1)])
def test_checkers_match_reference_on_monotone_tables(lat, n):
    for values in iter_monotone_tables(lat, n):
        assert_matches_reference(FunctionTable(lat, n, values))


ARBITRARY_CASES = [(boolean(2), 2), (chain(3), 3), (n5(), 2), (boolean(2), 0), (n5(), 0)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkers_match_reference_on_arbitrary_tables(data):
    lat, n = data.draw(st.sampled_from(ARBITRARY_CASES))
    size = lat.m**n
    values = data.draw(st.lists(st.integers(0, lat.m - 1), min_size=size, max_size=size))
    assert_matches_reference(FunctionTable(lat, n, values))


@pytest.mark.parametrize(
    "check",
    [
        is_order_preserving,
        check_median_decomposition,
        check_self_composition,
        check_range_convexity,
        lambda f, budget: check_homogeneity(f, "join", scope="all", budget=budget),
        lambda f, budget: check_horizontal(f, "meet", budget=budget),
        lambda f, budget: check_delta_preservation(f, "both", budget=budget),
    ],
)
def test_index_maps_are_built_after_the_budget_check(check):
    lat = chain(3)
    f = FunctionTable(lat, 2, [0] * 9)
    with pytest.raises(BudgetExceededError):
        check(f, budget=8)  # below |L|^n = 9
    assert lat._cache == {}
    check(f, budget=None)
    assert lat._cache != {}


def test_one_element_lattice_builds_no_diagonals():
    # with one element no pair u < v is tested on a diagonal, so the delta
    # scan returns before building its 2^n diagonals
    lat = build_from_covers("one", ["z"], [])
    f = FunctionTable(lat, 20, [0])
    report = evaluate_all_conditions(f)
    assert report.polynomial and report.consistent
    assert extract_alpha(f).coeffs == (0,) * (1 << 20)
    assert ("grid", "diagonals", 20) not in lat._cache


@pytest.mark.parametrize(
    "make, n, stride",
    [
        (lambda: chain(3), 2, 1),
        (lambda: chain(2), 3, 1),
        (lambda: boolean(2), 2, 29),  # every 29th of 28,224 tables
        (n5, 1, 1),
        (m3, 1, 1),
        (lambda: product(chain(2), chain(3)), 1, 1),
    ],
    ids=["chain3-2", "chain2-3", "B2-2", "N5-1", "M3-1", "chain2xchain3-1"],
)
def test_prefix_rows_fail_only_sub_checks_that_fail(make, n, stride):
    # verify_equivalence takes a failing row as a failure of its sub-check
    # on every completion of the prefix, so on each monotone table every
    # row, at every position, may fail only sub-checks whose scan fails
    lat = make()
    evaluate_all_conditions(FunctionTable(lat, n, [0] * lat.m**n))  # charges the rows' budget
    failures = grid_map(lat, n, "prefix rows")
    every = sum(_BIT.values())
    for values in itertools.islice(iter_monotone_tables(lat, n), 0, None, stride):
        f = FunctionTable(lat, n, values)
        failing = sum(
            bit for name, bit in _BIT.items() if not _SUB_CHECKS[name][1](f, None, "interval", {})[0]
        )
        high = 0
        for p, v in enumerate(values):
            high = lat.join(high, v)
            assert failures(p, values, every, high) & ~failing == 0, (values, p)
