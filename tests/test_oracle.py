import gc
import itertools
import os
import random
import subprocess
import sys
import time
import weakref
from collections import deque
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latpoly import (
    DNFMap,
    FiniteLattice,
    FunctionTable,
    boolean,
    build_from_covers,
    chain,
    downset_lattice,
    m3,
    n5,
    product,
    check_condition,
    closure_polynomials,
    count_monotone_tables,
    dnf_evaluate,
    dnf_membership,
    enumerate_polynomials_distributive,
    equivalent,
    evaluate,
    evaluate_all_conditions,
    extract_alpha,
    find_nondistributive_witness,
    is_order_preserving,
    iter_monotone_tables,
    make_med,
    materialize,
    random_monotone_table,
    random_term,
    reconstruct,
    subset_masks,
    verify_equivalence,
)
from latpoly.budget import ensure_budget, resolve_budget
from latpoly.conditions import grid_map
from latpoly.errors import (
    BudgetExceededError,
    InvalidParamsError,
    NotDistributiveError,
    NotNonDistributiveError,
)
from latpoly.oracle import (
    _COST_FACTOR,
    FunctionSet,
    NondistributiveWitness,
    VerificationReport,
    _closure_values,
    _monotone_assignments,
)
from latpoly.terms import Const, Var

from conftest import naive_dnf_evaluate, naive_evaluate


def brute_monotone_tables(lat, n):
    """Filter every table for monotonicity; the slow reference."""
    sp = lat.point_space(n)
    points = list(sp.iter_points())
    out = []
    for values in itertools.product(range(lat.m), repeat=sp.size):
        ok = True
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                if all(lat.leq(a, b) for a, b in zip(x, y)):
                    if not lat.leq(values[i], values[j]):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(values)
    return out


def naive_closure(lat, n):
    """Pop each table and pair it with every known one, both ways round;
    the slow reference for closure_polynomials, from the definition."""
    points = list(itertools.product(range(lat.m), repeat=n))
    tables = {tuple(x[k] for x in points) for k in range(n)}
    tables |= {(c,) * len(points) for c in range(lat.m)}
    queue = deque(tables)
    while queue:
        t = queue.popleft()
        for s in list(tables):
            for op in (lat.meet, lat.join):
                u = tuple(op(a, b) for a, b in zip(t, s))
                if u not in tables:
                    tables.add(u)
                    queue.append(u)
    return frozenset(tables)


def naive_verify_equivalence(lattice, n, budget=None, seed=0, max_sample=1000):
    """Run every condition checker on every table; the slow reference for
    verify_equivalence, which skips the checkers where rows over a prefix
    already fail all five conditions.  It picks its mode by counting its
    own enumeration, not with the memoised count_monotone_tables."""
    allowed = resolve_budget(budget)
    closure = _closure_values(lattice, n, budget)
    sp = lattice.point_space(n)
    max_tables = max(1, allowed // (sp.size * _COST_FACTOR))
    total = sum(1 for _ in itertools.islice(iter_monotone_tables(lattice, n), max_tables + 1))
    if total <= max_tables:
        mode = "exhaustive"
        source = iter_monotone_tables(lattice, n)
        used_seed = None
    else:
        mode = "sampled"
        rng = random.Random(seed)
        used_seed = seed
        source = (
            random_monotone_table(lattice, n, rng)
            for _ in range(min(max_sample, max_tables))
        )

    checked = 0
    polynomial_count = 0
    inconsistencies = []
    for values in source:
        f = FunctionTable(lattice, n, values)
        report = evaluate_all_conditions(
            f, budget=budget, known_polynomial=values in closure
        )
        checked += 1
        if report.polynomial:
            polynomial_count += 1
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


def naive_witness(lattice, n, condition, budget=None):
    """Check the closure members, then every monotone table, each charged
    |L|^n * _COST_FACTOR as it is met; the slow reference for
    find_nondistributive_witness, which counts the tables up front and
    checks only those the prefix rows leave unsettled."""
    closure = _closure_values(lattice, n, budget)
    for values in sorted(closure):
        f = FunctionTable(lattice, n, values)
        ok, witness = check_condition(f, condition, budget=budget)
        if not ok:
            return NondistributiveWitness(condition, "polynomial-violates", f, witness)
    ops = 0
    for values in iter_monotone_tables(lattice, n):
        ops += lattice.m**n * _COST_FACTOR
        ensure_budget(ops, budget, "witness search")
        if values in closure:
            continue
        f = FunctionTable(lattice, n, values)
        if check_condition(f, condition, budget=budget)[0]:
            return NondistributiveWitness(condition, "nonpolynomial-satisfies", f, None)
    return None


def med_form_tables(lat):
    """Unary maps x -> med(a, x, b) for a <= b, materialized."""
    out = set()
    for a in range(lat.m):
        for b in lat.upset_ids(a):
            term = make_med(Const(lat.elements[a]), Var(1), Const(lat.elements[b]))
            out.add(materialize(lat, term, 1).values)
    return out


# -- monotone enumeration ---------------------------------------------------


@pytest.mark.parametrize("k,n,expected", [(2, 1, 3), (2, 2, 6), (3, 1, 10)])
def test_monotone_counts_small_chains(k, n, expected):
    lat = chain(k)
    tables = list(iter_monotone_tables(lat, n))
    assert len(tables) == expected
    assert len(set(tables)) == expected
    assert tables == sorted(tables)  # canonical order
    assert sorted(tables) == sorted(brute_monotone_tables(lat, n))


def test_monotone_enumeration_matches_brute_force_on_square(b2):
    assert sorted(iter_monotone_tables(b2, 1)) == sorted(
        brute_monotone_tables(b2, 1)
    )


def test_count_monotone_stops_early(chain3):
    assert count_monotone_tables(chain3, 1) == 10
    assert count_monotone_tables(chain3, 1, stop_after=4) == 5


@pytest.mark.parametrize(
    "name, n",
    [("chain2", n) for n in range(6)]
    + [("chain3", n) for n in (1, 2, 3)]
    + [("B2", 1), ("B2", 2), ("chain4", 2), ("N5", 1), ("M3", 1)]
    + [("one", n) for n in range(4)],
)
def test_count_equals_the_enumeration_at_every_stop(name, n):
    lat = CLOSURE_LATTICES[name]()
    total = sum(1 for _ in iter_monotone_tables(lat, n))
    assert count_monotone_tables(lat, n) == total
    for stop in (0, 1, total - 1, total, total + 1):
        assert count_monotone_tables(lat, n, stop_after=stop) == min(total, stop + 1)


def test_count_on_a_deep_grid_needs_no_recursion():
    # 1,600 positions, one stack level each
    assert count_monotone_tables(chain(40), 2, stop_after=520) == 521


@pytest.mark.parametrize("make", [n5, m3])
def test_count_stops_at_the_verify_bound(make):
    # the mode choice at budget 10**9 on 25 points: 10**9 // (25 * 12)
    # tables; enumerating them one by one takes about 7 s, this count 0.05 s
    lat = make()
    start = time.perf_counter()
    assert count_monotone_tables(lat, 2, stop_after=3_333_333) == 3_333_334
    assert time.perf_counter() - start < 5


def test_random_monotone_table_is_monotone_and_seeded(chain3):
    values = random_monotone_table(chain3, 2, random.Random(42))
    assert values == random_monotone_table(chain3, 2, random.Random(42))
    ok, _ = is_order_preserving(FunctionTable(chain3, 2, values))
    assert ok


# -- closure -------------------------------------------------------------------


def test_closure_two_chain(chain2):
    cl = closure_polynomials(chain2, 1)
    assert cl.value_tuples() == {(0, 0), (0, 1), (1, 1)}


def test_closure_three_chain_is_med_forms(chain3):
    cl = closure_polynomials(chain3, 1)
    assert len(cl) == 6
    assert cl.value_tuples() == med_form_tables(chain3)


def test_closure_two_chain_squared_is_free_monotone(chain2):
    # with constants, the binary polynomials over the 2-chain are exactly
    # the 6 monotone boolean functions of 2 variables
    assert len(closure_polynomials(chain2, 2)) == 6


def test_closure_members_are_order_preserving(pentagon, diamond, chain3):
    for lat in (pentagon, diamond, chain3):
        for f in closure_polynomials(lat, 1):
            assert is_order_preserving(f)[0]


def test_closure_is_closed(b2):
    cl = closure_polynomials(b2, 2)
    tables = list(cl.value_tuples())
    for s in tables[:12]:
        for t in tables[:12]:
            lo = tuple(b2.meet(a, b) for a, b in zip(s, t))
            hi = tuple(b2.join(a, b) for a, b in zip(s, t))
            assert lo in cl and hi in cl


def test_pentagon_closure_strictly_exceeds_med_forms(pentagon):
    # (x ^ b) v a evaluates to a at x=c while med(a, x, b) gives b there
    cl = closure_polynomials(pentagon, 1)
    med_forms = med_form_tables(pentagon)
    assert med_forms <= cl.value_tuples()
    assert len(cl) > len(med_forms)


CLOSURE_LATTICES = {
    "chain2": lambda: chain(2),
    "chain3": lambda: chain(3),
    "chain4": lambda: chain(4),
    "B2": lambda: boolean(2),
    "N5": n5,
    "M3": m3,
    "one": lambda: build_from_covers("one", ["z"], []),
    "M4": lambda: build_from_covers(
        "M4", ["0", "a", "b", "c", "d", "1"], [("0", a) for a in "abcd"] + [(a, "1") for a in "abcd"]
    ),
    "M3xchain2": lambda: product(m3(), chain(2)),
    # 7 elements whose unary closure (102 tables) takes three generator
    # passes that find a new mu, and a fourth that finds none
    "family7": lambda: family_lattice([0b0001, 0b0011, 0b0101, 0b1010]),
    "chain64": lambda: chain(64),
    "chain128": lambda: chain(128),
}

# N5 n=2 is charged 347,542,800 evaluations and M4 n=1 12,260,820, both
# past the default budget
LIFTED_BUDGET = 10**11


@pytest.fixture(scope="module")
def pentagon_binary():
    """N5 with its 3,729 binary polynomials computed and cached."""
    lat = n5()
    closure_polynomials(lat, 2, budget=LIFTED_BUDGET)
    return lat


@pytest.mark.parametrize(
    "name, n",
    [("chain2", n) for n in range(4)]
    + [("chain3", n) for n in range(3)]
    + [("B2", 1), ("B2", 2), ("N5", 1), ("M3", 1)]
    + [("one", n) for n in range(3)]
    + [("M3xchain2", 1), ("family7", 1)],
)
def test_closure_matches_naive_closure(name, n):
    lat = CLOSURE_LATTICES[name]()
    assert closure_polynomials(lat, n).value_tuples() == naive_closure(lat, n)


@pytest.mark.slow
def test_closure_matches_naive_closure_past_the_default_budget():
    lat = CLOSURE_LATTICES["M4"]()
    closure = closure_polynomials(lat, 1, budget=LIFTED_BUDGET)
    assert closure.value_tuples() == naive_closure(lat, 1)


# factor pairs with products of at most 12 elements; M3 x chain2 alone has
# 534 unary polynomials, too many for the naive reference in a drawn test
SMALL_FACTOR_PAIRS = [
    (a, b)
    for a, b in itertools.product([chain(2), chain(3), boolean(2), n5()], repeat=2)
    if a.m * b.m <= 12
]


@st.composite
def downset_lattices(draw):
    """The downset lattice of a poset on 1-4 points (distributive)."""
    p = draw(st.integers(1, 4))
    names = [f"p{i}" for i in range(p)]
    pairs = draw(st.sets(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))))
    return downset_lattice(names, [(names[a], names[b]) for a, b in pairs if a < b])


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_closure_matches_naive_closure_on_drawn_lattices(data):
    if data.draw(st.booleans()):
        lat = product(*data.draw(st.sampled_from(SMALL_FACTOR_PAIRS)))
    else:
        lat = data.draw(downset_lattices())
    assert closure_polynomials(lat, 1).value_tuples() == naive_closure(lat, 1)


def test_closure_of_one_element_lattice_at_huge_arity():
    # the projections are built from the strides, not from n-tuples of points
    lat = CLOSURE_LATTICES["one"]()
    assert closure_polynomials(lat, 99_999).value_tuples() == {(0,)}


@pytest.mark.parametrize("name, polys", [("chain3", 6), ("M3", 178)])
def test_closure_charges_each_pair_once(name, polys):
    # position p costs 2 * |L|^n * p evaluations: |L|^n * N * (N - 1) in all
    lat = CLOSURE_LATTICES[name]()
    charge = lat.m * polys * (polys - 1)
    with pytest.raises(
        BudgetExceededError,
        match=f"^clone closure needs {charge} point evaluations "
        f"but the budget allows {charge - 1}$",
    ):
        closure_polynomials(lat, 1, budget=charge - 1)
    assert len(closure_polynomials(lat, 1, budget=charge)) == polys


@pytest.mark.parametrize(
    "name, charge", [("M4", 10_007_832), ("chain64", 10_010_880), ("chain128", 10_071_040)]
)
def test_closure_refused_as_it_grows_past_the_default_budget(name, charge):
    # the table at position p is charged |L| * p * (p + 1) when it is
    # created, so the refusal names the first position past the budget
    with pytest.raises(
        BudgetExceededError,
        match=f"^clone closure needs {charge} point evaluations "
        "but the budget allows 10000000$",
    ):
        closure_polynomials(CLOSURE_LATTICES[name](), 1)


def test_closure_sizes_past_the_default_budget(pentagon_binary):
    assert len(closure_polynomials(CLOSURE_LATTICES["M4"](), 1, budget=LIFTED_BUDGET)) == 1_430
    assert len(closure_polynomials(pentagon_binary, 2)) == 3_729


@pytest.mark.parametrize(
    "search",
    [
        lambda lat: closure_polynomials(lat, 1),
        lambda lat: verify_equivalence(lat, 1),
        lambda lat: find_nondistributive_witness(lat, 1, "iv"),
        lambda lat: evaluate_all_conditions(FunctionTable(lat, 1, range(lat.m))),
    ],
    ids=["closure", "verify", "witness", "evaluate"],
)
def test_dropped_lattice_is_freed_by_reference_counting(search):
    # the cached closure holds value tuples, nothing that refers back to
    # the lattice, so no reference cycle waits for the cycle collector
    lat = n5()
    ref = weakref.ref(lat)
    gc.disable()
    try:
        search(lat)
        assert ("closure", 1) in lat._cache
        del lat
        assert ref() is None
    finally:
        gc.enable()


# -- normal-form enumeration vs closure ---------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_agreement_chain3(chain3, n):
    assert enumerate_polynomials_distributive(chain3, n) == closure_polynomials(
        chain3, n
    )


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_agreement_b2(b2, n):
    assert enumerate_polynomials_distributive(b2, n) == closure_polynomials(b2, n)


def test_enumeration_requires_distributive(pentagon):
    with pytest.raises(NotDistributiveError):
        enumerate_polynomials_distributive(pentagon, 1)


def test_reconstruction_agrees_with_closure(chain3, b2):
    from latpoly import reconstruct

    for lat, n in ((chain3, 1), (chain3, 2), (b2, 1)):
        closure = closure_polynomials(lat, n)
        for values in iter_monotone_tables(lat, n):
            f = FunctionTable(lat, n, values)
            assert reconstruct(f)[0] == (values in closure)


def test_function_set_iteration_is_sorted(chain3):
    cl = closure_polynomials(chain3, 1)
    values = [f.values for f in cl]
    assert values == sorted(values)


def test_closure_set_is_a_copy_of_the_cached_closure(chain3):
    cl = closure_polynomials(chain3, 1)
    cl.add((2, 0, 1))
    assert (2, 0, 1) in cl and len(cl) == 7
    assert len(closure_polynomials(chain3, 1)) == 6


def test_function_set_contains(chain2):
    s = FunctionSet(chain2, 1, [(0, 1)])
    assert (0, 1) in s
    assert FunctionTable(chain2, 1, (0, 1)) in s
    assert (1, 1) not in s


# -- exhaustive verification ----------------------------------------------


def test_verify_chain3_unary_counts(chain3):
    report = verify_equivalence(chain3, 1)
    assert report.mode == "exhaustive"
    assert report.checked == 10
    assert report.polynomial_count == 6
    assert report.inconsistencies == []
    text = report.format_text()
    assert "checked=10 polynomial=6 inconsistent=0" in text


def test_verify_chain2_binary(chain2):
    report = verify_equivalence(chain2, 2)
    assert report.checked == 6 and report.polynomial_count == 6
    assert report.inconsistencies == []


def test_verify_b2_unary(b2):
    report = verify_equivalence(b2, 1)
    assert report.inconsistencies == []
    assert report.polynomial_count == len(closure_polynomials(b2, 1))


def test_verify_sampled_mode_is_seeded(chain3):
    # the closure needs 504 evaluations, so build it at the default budget;
    # then force sampling with a tiny budget: identical seeds, identical reports
    closure_polynomials(chain3, 2)
    r1 = verify_equivalence(chain3, 2, budget=500, seed=9)
    r2 = verify_equivalence(chain3, 2, budget=500, seed=9)
    assert r1.mode == "sampled"
    assert r1.format_text() == r2.format_text()
    assert "sampled seed=9" in r1.format_text()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_verify_lists_each_repeated_inconsistent_draw(seed):
    # 50 draws on M3 n=1, most of them inconsistent, some tables drawn
    # more than once: each draw is listed, as the per-table loop lists it
    lat = m3()
    closure_polynomials(lat, 1)
    expected = naive_verify_equivalence(lat, 1, budget=3000, seed=seed)
    assert (expected.mode, expected.checked) == ("sampled", 50)
    listed = [values for values, _ in expected.inconsistencies]
    assert len(set(listed)) < len(listed)
    assert verify_equivalence(lat, 1, budget=3000, seed=seed) == expected


def counting_reports(monkeypatch):
    """Count the calls verify_equivalence makes to evaluate_all_conditions."""
    calls = []

    def counted(f, **kwargs):
        calls.append(f.values)
        return evaluate_all_conditions(f, **kwargs)

    monkeypatch.setattr("latpoly.oracle.evaluate_all_conditions", counted)
    return calls


def test_sampled_verify_reports_each_distinct_draw_once(monkeypatch, chain3):
    rng = random.Random(0)
    draws = [random_monotone_table(chain3, 3, rng) for _ in range(1000)]
    calls = counting_reports(monkeypatch)
    report = verify_equivalence(chain3, 3, seed=0)
    assert (report.mode, report.checked) == ("sampled", 1000)
    assert calls == list(dict.fromkeys(draws))
    assert len(calls) == 303


def test_exhaustive_verify_reports_each_reported_table_once(monkeypatch, b2):
    calls = counting_reports(monkeypatch)
    report = verify_equivalence(b2, 2)
    assert (report.mode, report.checked) == ("exhaustive", 28_224)
    assert len(calls) == len(set(calls)) == 163


VERIFY_LATTICES = {
    "chain2": lambda: chain(2),
    "chain3": lambda: chain(3),
    "chain4": lambda: chain(4),
    "B2": lambda: boolean(2),
    "N5": n5,
    "M3": m3,
    "chain2xchain3": lambda: product(chain(2), chain(3)),
}


@pytest.fixture(scope="session")
def naive_verification():
    """get(name, n): a lattice and its naive_verify_equivalence report,
    each built once per session."""
    built = {}

    def get(name, n):
        if (name, n) not in built:
            lat = VERIFY_LATTICES[name]()
            built[name, n] = lat, naive_verify_equivalence(lat, n)
        return built[name, n]

    return get


@pytest.mark.parametrize(
    "name, n, inconsistent",
    [(name, n, 0) for name in ("chain2", "chain3", "B2") for n in (1, 2)]
    + [("chain4", 2, 0), ("chain2", 3, 0), ("N5", 1, 14), ("M3", 1, 172)]
    + [("chain2xchain3", 1, 0)],
)
def test_verify_equals_the_per_table_loop(naive_verification, name, n, inconsistent):
    # dataclass equality compares every field, down to each inconsistent
    # table's full ConditionReport with its witnesses
    lat, expected = naive_verification(name, n)
    assert len(expected.inconsistencies) == inconsistent
    assert verify_equivalence(lat, n) == expected


def test_verify_refuses_as_the_per_table_loop():
    # one table, so exhaustive mode at budget 15; its diagonal scan needs 16
    lat = CLOSURE_LATTICES["one"]()
    message = "^diagonal preservation scan needs 16 point evaluations but the budget allows 15$"
    for verify in (naive_verify_equivalence, verify_equivalence):
        with pytest.raises(BudgetExceededError, match=message):
            verify(lat, 4, budget=15)
        # the refused first report comes before the prefix rows are built
        assert ("grid", "prefix rows", 4) not in lat._cache


@pytest.mark.parametrize("make", [n5, m3])
def test_verify_refused_by_the_closure_builds_no_grid_map(make):
    lat = make()
    message = "^clone closure needs 10001400 point evaluations but the budget allows 10000000$"
    with pytest.raises(BudgetExceededError, match=message):
        verify_equivalence(lat, 2)
    assert not [key for key in lat._cache if key[0] == "grid"]


def test_settled_subtrees_walk_no_leaf():
    # plant a fault in the closure: drop the projection x1 and add a
    # non-polynomial table whose first four values already fail ii..vi
    lat = boolean(2)
    top = lat.top_id
    dropped = tuple(x[0] for x in lat.point_space(2).iter_points())
    planted = (0, 0, 0, top) * 4
    closure = _closure_values(lat, 2, None)
    assert dropped in closure and planted not in closure
    evaluate_all_conditions(FunctionTable(lat, 2, [0] * 16))  # charges the rows' budget
    walk = _monotone_assignments(
        lat, grid_map(lat, 2, "lower covers"), grid_map(lat, 2, "prefix rows")
    )
    assert all(v[:4] != planted[:4] for v in walk)
    assert sum(v[:4] == planted[:4] for v in iter_monotone_tables(lat, 2)) > 1
    lat._cache[("closure", 2)] = (closure - {dropped}) | {planted}
    expected = naive_verify_equivalence(lat, 2)
    assert [values for values, _ in expected.inconsistencies] == [dropped, planted]
    assert verify_equivalence(lat, 2) == expected


def test_verify_reports_a_non_monotone_closure_member():
    # a broken oracle that holds a non-monotone table: the per-table loop
    # never meets it, since it walks only the monotone tables
    lat = boolean(2)
    top = lat.top_id
    planted = (top,) * 15 + (0,)
    closure = _closure_values(lat, 2, None)
    lat._cache[("closure", 2)] = closure | {planted}
    report = verify_equivalence(lat, 2)
    assert (report.checked, report.polynomial_count) == (28_224, 37)
    assert [values for values, _ in report.inconsistencies] == [planted]
    (_, entry), = report.inconsistencies
    assert entry.polynomial and not entry.order_preserving and not entry.entries["ii"].holds


def test_format_text_lists_each_inconsistent_table():
    # the planted fault of test_settled_subtrees_walk_no_leaf,
    # as the CLI prints it
    lat = boolean(2)
    top = lat.top_id
    dropped = tuple(x[0] for x in lat.point_space(2).iter_points())
    planted = (0, 0, 0, top) * 4
    closure = _closure_values(lat, 2, None)
    lat._cache[("closure", 2)] = (closure - {dropped}) | {planted}
    assert verify_equivalence(lat, 2).format_text().splitlines() == [
        "verify B2 n=2 mode=exhaustive",
        "checked=28224 polynomial=36 inconsistent=2",
        "inconsistent: f=[0 0 0 0 1 1 1 1 2 2 2 2 3 3 3 3] "
        "ii=True iii=True iv=True v=True vi=True polynomial=False",
        "inconsistent: f=[0 0 0 3 0 0 0 3 0 0 0 3 0 0 0 3] "
        "ii=False iii=False iv=False v=False vi=False polynomial=True",
    ]


def test_verify_chain3_ternary_exhaustive_at_a_lifted_budget(chain3):
    # the default budget samples these 211,250 tables; the per-table loop
    # gives the same report in about 25 s
    report = verify_equivalence(chain3, 3, budget=10**9)
    assert (report.mode, report.checked, report.polynomial_count) == ("exhaustive", 211_250, 168)
    assert report.inconsistencies == []


def test_the_walk_without_rows_gives_the_monotone_tables(b2, chain3):
    for lat, n in ((b2, 2), (chain3, 2)):
        lower = grid_map(lat, n, "lower covers")
        tables = list(iter_monotone_tables(lat, n))
        assert list(_monotone_assignments(lat, lower)) == tables
        # with rows: a subsequence, in the same order
        evaluate_all_conditions(FunctionTable(lat, n, [0] * lat.m**n))  # charges the rows' budget
        pruned = iter(tables)
        for values in _monotone_assignments(lat, lower, grid_map(lat, n, "prefix rows")):
            assert values in pruned


# -- witness search ---------------------------------------------------------


def test_pentagon_witness_for_homogeneity_condition(pentagon):
    found = find_nondistributive_witness(pentagon, 1, "iv")
    assert found is not None
    assert found.direction == "polynomial-violates"
    assert found.table.values in closure_polynomials(pentagon, 1)
    ok, _ = check_condition(found.table, "iv")
    assert not ok


def test_diamond_yields_some_witness(diamond):
    hits = {
        cond: find_nondistributive_witness(diamond, 1, cond)
        for cond in ("iii", "iv", "v", "vi")
    }
    assert any(w is not None for w in hits.values())
    for cond, w in hits.items():
        if w is None:
            continue
        ok, _ = check_condition(w.table, cond)
        is_poly = w.table.values in closure_polynomials(diamond, 1)
        if w.direction == "polynomial-violates":
            assert is_poly and not ok
        else:
            assert not is_poly and ok


@pytest.mark.parametrize("cond", ["iii", "iv", "v", "vi"])
def test_pentagon_binary_witnesses(pentagon_binary, cond):
    found = find_nondistributive_witness(pentagon_binary, 2, cond, budget=LIFTED_BUDGET)
    assert found.direction == "polynomial-violates"
    assert not check_condition(found.table, cond)[0]
    assert found.table.values in closure_polynomials(pentagon_binary, 2)


@pytest.mark.parametrize("cond", ["iii", "iv", "v", "vi"])
def test_witness_search_second_phase_on_a_planted_closure(cond):
    # no real fixture reaches the scan of the non-polynomial tables: a
    # closure member always violates the condition first.  An empty closure
    # makes the all-bottom table a non-member that satisfies it, and a
    # closure of every satisfying table leaves nothing to find.
    lat = n5()
    lat._cache[("closure", 1)] = frozenset()
    found = find_nondistributive_witness(lat, 1, cond)
    assert found.direction == "nonpolynomial-satisfies"
    assert found.table.values == (lat.bottom_id,) * lat.m
    assert found.detail is None
    lat._cache[("closure", 1)] = frozenset(
        values
        for values in iter_monotone_tables(lat, 1)
        if check_condition(FunctionTable(lat, 1, values), cond)[0]
    )
    assert find_nondistributive_witness(lat, 1, cond) is None


def satisfying_members(lat, n, cond):
    """The closure members that satisfy cond: planted as the closure, they
    leave the first phase of the witness search nothing to find."""
    return frozenset(
        values
        for values in _closure_values(lat, n, LIFTED_BUDGET)
        if check_condition(FunctionTable(lat, n, values), cond)[0]
    )


@pytest.mark.parametrize("cond", ["iii", "iv", "v", "vi"])
def test_witness_search_walks_the_unsettled_binary_tables(pentagon_binary, cond):
    # 31,022,611 monotone tables, which the count stops past
    # 10**9 // (25 * 12) = 3,333,333 before the rows are built; at 10**10
    # the walk leaves 1,176 of them, and none outside the closure satisfies cond
    lat = n5()
    lat._cache[("closure", 2)] = satisfying_members(pentagon_binary, 2, cond)
    with pytest.raises(
        BudgetExceededError,
        match="^witness search needs 1000000200 point evaluations "
        "but the budget allows 1000000000$",
    ):
        find_nondistributive_witness(lat, 2, cond, budget=10**9)
    assert ("grid", "prefix rows", 2) not in lat._cache
    assert find_nondistributive_witness(lat, 2, cond, budget=10**10) is None


def test_witness_search_rejects_distributive(chain4):
    with pytest.raises(NotNonDistributiveError):
        find_nondistributive_witness(chain4, 1, "iv")


@pytest.mark.parametrize(
    "search",
    [
        closure_polynomials,
        verify_equivalence,
        lambda lat, n: find_nondistributive_witness(lat, n, "iv"),
    ],
)
def test_refused_searches_build_no_point_space(search):
    # the budget is checked on |L|^n before the PointSpace (n strides) exists
    lat = n5()
    with pytest.raises(BudgetExceededError):
        search(lat, 3000)
    assert ("space", 3000) not in lat._cache


# -- scripts ------------------------------------------------------------------


def run_script(name):
    """The standard output of scripts/<name>, which must exit 0."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_hunt_witnesses_script_counts_both_directions():
    assert (
        "census N5 n=2 iv: polynomial-violates 3706 of 3729, "
        "nonpolynomial-satisfies 0 of 1059 unsettled"
    ) in run_script("hunt_witnesses.py")


def test_verify_equivalence_script_finds_no_inconsistency():
    assert "checked=28224 polynomial=36 inconsistent=0" in run_script("verify_equivalence.py")


# -- generated lattices ---------------------------------------------------------
#
# Every finite distributive lattice is the downset lattice of a poset
# (Birkhoff), and every finite lattice is an intersection-closed family of
# subsets of some set that contains the whole set.  Drawing both kinds
# cross-checks verify, the clone closure, the normal forms and the witness
# search away from the named fixtures.


def family_lattice(sets):
    """The subsets of a 4-point set given as bit masks in `sets`, closed
    under intersection together with the full set, ordered by inclusion."""
    family = {0b1111}
    for s in sets:
        family |= {s & t for t in family}
    members = sorted(family)
    return FiniteLattice(
        "family",
        [format(s, "04b") for s in members],
        [[a & b == a for b in members] for a in members],
    )


# downset lattices, or intersection-closed families of distinct subsets,
# which reach the non-distributive lattices
generated_lattices = st.one_of(
    downset_lattices(),
    st.lists(st.integers(1, 0b1110), min_size=2, max_size=3, unique=True).map(family_lattice),
)


def check_routes_agree(lat, max_distributive, max_other, max_binary):
    """verify equals the per-table loop at n=1, and at n=2 on at most
    `max_binary` elements.  On a distributive lattice no table is
    inconsistent and the clone closure equals the normal-form enumeration;
    otherwise the unary witness search for c finds nothing exactly when no
    table's verdict for c differs from its polynomial verdict, and it
    equals naive_witness, also on an empty closure and on the closure
    members that satisfy c."""
    assume(lat.m <= (max_distributive if lat.distributive else max_other))
    budget = 10**9  # exhaustive on every kept draw
    for n in (1, 2) if lat.m <= max_binary else (1,):
        expected = naive_verify_equivalence(lat, n, budget=budget)
        assert expected.mode == "exhaustive"
        assert count_monotone_tables(lat, n) == expected.checked
        assert verify_equivalence(lat, n, budget=budget) == expected
        if lat.distributive:
            assert expected.inconsistencies == []
            assert enumerate_polynomials_distributive(lat, n, budget=budget) == (
                closure_polynomials(lat, n, budget=budget)
            )
        elif n == 1:
            closure = _closure_values(lat, 1, budget)
            for c in ("iii", "iv", "v", "vi"):
                differs = any(r.entries[c].holds != r.polynomial for _, r in expected.inconsistencies)
                found = find_nondistributive_witness(lat, 1, c, budget=budget)
                assert (found is None) == (not differs)
                assert found == naive_witness(lat, 1, c, budget=budget)
                # planted closures send the search past its first phase
                for planted in (frozenset(), satisfying_members(lat, 1, c)):
                    lat._cache[("closure", 1)] = planted
                    found = find_nondistributive_witness(lat, 1, c, budget=budget)
                    assert found == naive_witness(lat, 1, c, budget=budget)
                lat._cache[("closure", 1)] = closure


# the pentagon and the diamond, the two non-distributive lattices of five
# elements, as families, so that every run meets both
@given(lat=generated_lattices)
@example(lat=family_lattice([0b0001, 0b0011, 0b0100]))
@example(lat=family_lattice([0b0001, 0b0010, 0b0100]))
@settings(max_examples=100, deadline=None)
def test_routes_agree_on_generated_lattices(lat):
    check_routes_agree(lat, max_distributive=6, max_other=5, max_binary=3)


@given(lat=generated_lattices, data=st.data())
@settings(max_examples=100, deadline=None)
def test_tabulation_equals_the_per_point_references(lat, data):
    """Every caller of the one tabulator against the per-point references,
    at arity 0 to 3, on distributive and other lattices."""
    n = data.draw(st.integers(0, 3 if lat.m <= 6 else 2 if lat.m <= 8 else 1), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    t1, t2 = (random_term(rng, lat, n, 4) for _ in range(2))
    points = list(lat.point_space(n).iter_points())
    f = materialize(lat, t1, n)
    assert f.values == tuple(naive_evaluate(lat, t1, x) for x in points)
    for x, v in zip(points, f.values):
        assert evaluate(lat, t1, x) == evaluate(lat, t1, [lat.elements[d] for d in x]) == v
    if lat.distributive:
        bottom, top = lat.bottom_id, lat.top_id
        compared = [tuple(top if s >> k & 1 else bottom for k in range(n)) for s in subset_masks(n)]
    else:
        compared = points
    differs = (x for x in compared if naive_evaluate(lat, t1, x) != naive_evaluate(lat, t2, x))
    witness = next(differs, None)
    assert equivalent(lat, t1, t2, n) == (witness is None, witness)
    # a coefficient map, and a table its normal form denotes but at one point
    alpha = DNFMap(lat, n, [rng.randrange(lat.m) for _ in range(1 << n)])
    denoted = [naive_dnf_evaluate(alpha, x) for x in points]
    assert [dnf_evaluate(alpha, x) for x in points] == denoted
    values = list(denoted)
    values[rng.randrange(len(values))] = rng.randrange(lat.m)
    g = FunctionTable(lat, n, values)
    assert dnf_membership(alpha, g) == (values == denoted)
    if lat.distributive:
        for h in (f, g):
            beta = extract_alpha(h)
            bad = next(
                (x for x, v in zip(points, h.values) if naive_dnf_evaluate(beta, x) != v), None
            )
            assert reconstruct(h) == (bad is None, bad)


@pytest.mark.slow
@given(lat=generated_lattices)
@settings(max_examples=300, deadline=None)
def test_routes_agree_on_generated_lattices_deep(lat):
    check_routes_agree(lat, max_distributive=7, max_other=7, max_binary=4)


# -- refusals ------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: FunctionSet(chain(2), 1).add(FunctionTable(chain(2), 2, (0, 0, 0, 1))),
            "table arity 2 differs from the set arity 1",
            id="set-arity",
        ),
        pytest.param(
            lambda: find_nondistributive_witness(n5(), 1, "ii"),
            "condition must be one of iii, iv, v, vi; got 'ii'",
            id="witness-condition",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(InvalidParamsError) as excinfo:
        call()
    assert str(excinfo.value) == message
