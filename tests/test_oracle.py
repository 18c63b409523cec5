import gc
import itertools
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import (
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
    enumerate_polynomials_distributive,
    evaluate_all_conditions,
    find_nondistributive_witness,
    is_order_preserving,
    iter_monotone_tables,
    make_med,
    materialize,
    random_monotone_table,
    verify_equivalence,
)
from latpoly.budget import resolve_budget
from latpoly.errors import BudgetExceededError, NotDistributiveError, NotNonDistributiveError
from latpoly.oracle import (
    _COST_FACTOR,
    FunctionSet,
    VerificationReport,
    _closure_values,
    _settled_walk,
)
from latpoly.terms import Const, Var


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
    already fail all five conditions."""
    allowed = resolve_budget(budget)
    closure = _closure_values(lattice, n, budget)
    sp = lattice.point_space(n)
    max_tables = max(1, allowed // (sp.size * _COST_FACTOR))
    total = count_monotone_tables(lattice, n, stop_after=max_tables)
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
    "B2": lambda: boolean(2),
    "N5": n5,
    "M3": m3,
    "one": lambda: build_from_covers("one", ["z"], []),
    "M4": lambda: build_from_covers(
        "M4", ["0", "a", "b", "c", "d", "1"], [("0", a) for a in "abcd"] + [(a, "1") for a in "abcd"]
    ),
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
    + [("one", n) for n in range(3)],
)
def test_closure_matches_naive_closure(name, n):
    lat = CLOSURE_LATTICES[name]()
    assert closure_polynomials(lat, n).value_tuples() == naive_closure(lat, n)


# factor pairs with products of at most 12 elements; M3 x chain2 alone has
# 534 unary polynomials, too many for the naive reference in a drawn test
SMALL_FACTOR_PAIRS = [
    (a, b)
    for a, b in itertools.product([chain(2), chain(3), boolean(2), n5()], repeat=2)
    if a.m * b.m <= 12
]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_closure_matches_naive_closure_on_drawn_lattices(data):
    if data.draw(st.booleans()):
        lat = product(*data.draw(st.sampled_from(SMALL_FACTOR_PAIRS)))
    else:
        p = data.draw(st.integers(1, 4))
        names = [f"p{i}" for i in range(p)]
        pairs = data.draw(st.sets(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))))
        lat = downset_lattice(names, [(names[a], names[b]) for a, b in pairs if a < b])
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


def test_settled_subtrees_still_test_membership_leaf_by_leaf():
    # plant a fault in the closure: drop the projection x1 and add a
    # non-polynomial table whose first four values already fail ii..vi
    lat = boolean(2)
    top = lat.top_id
    dropped = tuple(x[0] for x in lat.point_space(2).iter_points())
    planted = (0, 0, 0, top) * 4
    closure = _closure_values(lat, 2, None)
    assert dropped in closure and planted not in closure
    below_prefix = [s for v, s in _settled_walk(lat, 2) if v[:4] == planted[:4]]
    assert len(below_prefix) > 1 and all(below_prefix)
    lat._cache[("closure", 2)] = (closure - {dropped}) | {planted}
    expected = naive_verify_equivalence(lat, 2)
    assert [values for values, _ in expected.inconsistencies] == [dropped, planted]
    assert verify_equivalence(lat, 2) == expected


def test_format_text_lists_each_inconsistent_table():
    # the planted fault of test_settled_subtrees_still_test_membership_leaf_by_leaf,
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


def test_settled_walk_gives_the_monotone_tables(b2, chain3):
    for lat, n in ((b2, 2), (chain3, 2)):
        assert [v for v, _ in _settled_walk(lat, n)] == list(iter_monotone_tables(lat, n))


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
