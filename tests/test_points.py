import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import (
    Const,
    DNFMap,
    FunctionSet,
    FunctionTable,
    Var,
    build_from_covers,
    chain,
    check_condition,
    check_delta_preservation,
    classify,
    closure_polynomials,
    count_monotone_tables,
    enumerate_dnf,
    enumerate_polynomials_distributive,
    equivalent,
    evaluate_all_conditions,
    extract_alpha,
    find_nondistributive_witness,
    iter_monotone_tables,
    materialize,
    n5,
    parse_term,
    random_monotone_table,
    random_term,
    reconstruct,
    subset_masks,
    verify_equivalence,
)
from latpoly.conditions import grid_map
from latpoly.errors import InvalidParamsError
from latpoly.points import PointSpace


@st.composite
def digit_lists(draw):
    """A carrier size m, an arity n, and n lists of digits in 0..m-1, some
    empty, some with repeats, in any order."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 4))
    digits = draw(st.lists(st.lists(st.integers(0, m - 1), max_size=4), min_size=n, max_size=n))
    return m, n, digits


@given(digit_lists())
@settings(max_examples=300)
def test_indices_equal_the_encoded_product(drawn):
    m, n, digits = drawn
    sp = PointSpace(m, n)
    assert sp.indices(digits) == [sp.encode(x) for x in product(*digits)]


@given(st.integers(1, 5), st.integers(0, 4))
def test_indices_of_the_full_grid_count_up(m, n):
    sp = PointSpace(m, n)
    assert sp.indices([range(m)] * n) == list(range(sp.size))


CHAIN3, N5 = chain(3), n5()
ARITY_TAKERS = {
    "PointSpace": lambda n: PointSpace(3, n),
    "point_space": lambda n: chain(3).point_space(n),
    "FunctionTable": lambda n: FunctionTable(CHAIN3, n, []),
    "FunctionSet": lambda n: FunctionSet(CHAIN3, n),
    "DNFMap": lambda n: DNFMap(CHAIN3, n, ()),
    "subset_masks": subset_masks,
    "parse_term": lambda n: parse_term("'0'", CHAIN3, n),
    "random_term": lambda n: random_term(random.Random(0), CHAIN3, n),
    "materialize": lambda n: materialize(CHAIN3, Const(CHAIN3.elements[0]), n),
    "equivalent": lambda n: equivalent(CHAIN3, Var(1), Var(1), n),
    "equivalent-n5": lambda n: equivalent(N5, Var(1), Var(1), n),
    "iter_monotone_tables": lambda n: iter_monotone_tables(CHAIN3, n),
    "count_monotone_tables": lambda n: count_monotone_tables(CHAIN3, n),
    "random_monotone_table": lambda n: random_monotone_table(CHAIN3, n, random.Random(0)),
    "closure_polynomials": lambda n: closure_polynomials(CHAIN3, n),
    "enumerate_polynomials_distributive": lambda n: enumerate_polynomials_distributive(CHAIN3, n),
    "verify_equivalence": lambda n: verify_equivalence(CHAIN3, n),
    "find_nondistributive_witness": lambda n: find_nondistributive_witness(N5, n, "iv"),
}


@pytest.mark.parametrize("arity", [-1, 1.5, "2"])
@pytest.mark.parametrize("call", ARITY_TAKERS.values(), ids=ARITY_TAKERS.keys())
def test_every_arity_is_a_non_negative_integer(call, arity):
    message = f"^arity must be a non-negative integer, got {re.escape(repr(arity))}$"
    with pytest.raises(InvalidParamsError, match=message):
        call(arity)


ONE = build_from_covers("one", ["z"], [])


def _one_table(n):
    return FunctionTable(ONE, n, (0,))


# On a one-element lattice |L|^n is 1, so only the 2^n subsets grow with
# the arity, and budget=1 refuses any charge of 2^n; each call must raise
# the 20-position rule, which therefore comes before the budget.
SUBSET_TAKERS = {
    "DNFMap": lambda n: DNFMap(ONE, n, ()),
    "subset_masks": subset_masks,
    "extract_alpha": lambda n: extract_alpha(_one_table(n)),
    "reconstruct": lambda n: reconstruct(_one_table(n), budget=1),
    "classify": lambda n: classify(_one_table(n), budget=1),
    "enumerate_dnf": lambda n: enumerate_dnf(_one_table(n), budget=1),
    "equivalent": lambda n: equivalent(ONE, Var(1), Var(1), n, budget=1),
    "check_delta_preservation": lambda n: check_delta_preservation(_one_table(n), budget=1),
    "check_condition-iii": lambda n: check_condition(_one_table(n), "iii", budget=1),
    "evaluate_all_conditions": lambda n: evaluate_all_conditions(_one_table(n), budget=1),
    "enumerate_polynomials_distributive": (
        lambda n: enumerate_polynomials_distributive(ONE, n, budget=1)
    ),
}


@pytest.mark.parametrize("call", SUBSET_TAKERS.values(), ids=SUBSET_TAKERS.keys())
def test_the_subset_rule_comes_before_the_budget(call):
    with pytest.raises(InvalidParamsError, match=r"^subset enumeration supports 0\.\.20 positions, got 21$"):
        call(21)


def test_a_carrier_needs_an_element():
    with pytest.raises(InvalidParamsError, match="^carrier must have at least one element$"):
        PointSpace(0, 1)


@pytest.mark.parametrize(
    "cached",
    [
        pytest.param(lambda lat, n: lat.point_space(n), id="point_space"),
        pytest.param(lambda lat, n: grid_map(lat, n, "lines"), id="grid_map"),
    ],
)
@pytest.mark.parametrize("int_first", [False, True], ids=["fresh", "after-int"])
def test_a_cached_arity_refuses_a_float_in_either_order(cached, int_first):
    """2.0 == 2 as a dict key, so the caches must refuse a float before
    their lookup, whether or not the int arity was cached first."""
    lat = chain(3)
    if int_first:
        expected = cached(lat, 2)
    with pytest.raises(InvalidParamsError, match=r"^arity must be a non-negative integer, got 2\.0$"):
        cached(lat, 2.0)
    if not int_first:
        expected = cached(lat, 2)
    assert cached(lat, 2) is expected
