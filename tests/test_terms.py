import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import (
    Const,
    FunctionTable,
    Join,
    Meet,
    Var,
    chain,
    delta,
    evaluate,
    format_term,
    make_join,
    make_med,
    make_meet,
    materialize,
    parse_term,
    random_term,
    substitute,
    table_from_text,
    table_to_text,
)
from latpoly.conditions import is_order_preserving
from latpoly.errors import (
    ArityMismatchError,
    BadIndexError,
    BudgetExceededError,
    FormatError,
    TermSyntaxError,
    UnknownElementError,
    VarOutOfRangeError,
)

# -- parsing -------------------------------------------------------------------


def test_parse_meet_join_const(chain3):
    t = parse_term("x1 & (x2 | 'm')", chain3, 2)
    m1 = chain3.element("m")
    assert t == Meet((Var(1), Join((Var(2), Const(m1)))))


def test_parse_med(chain3):
    t = parse_term("med(x1, x2, x3)", chain3, 3)
    assert t == make_med(Var(1), Var(2), Var(3))


def test_parse_var_out_of_range(chain3):
    with pytest.raises(VarOutOfRangeError):
        parse_term("x3", chain3, 2)
    with pytest.raises(VarOutOfRangeError):
        parse_term("x0", chain3, 2)


def test_parse_unknown_element(chain3):
    with pytest.raises(UnknownElementError):
        parse_term("'q'", chain3, 1)


@pytest.mark.parametrize(
    "text",
    ["", "x1 &", "x1 x2", "med(x1, x2)", "(x1", "x1 | 'm", "foo", "x1 @ x2"],
)
def test_parse_syntax_errors(chain3, text):
    with pytest.raises(TermSyntaxError):
        parse_term(text, chain3, 2)


def test_syntax_error_carries_position(chain3):
    with pytest.raises(TermSyntaxError) as excinfo:
        parse_term("x1 & @", chain3, 2)
    assert excinfo.value.position == 5


# -- formatting ----------------------------------------------------------------


def test_format_meet_const(chain3):
    t = Meet((Var(1), Const(chain3.element("m"))))
    assert format_term(t) == "x1 & 'm'"


def test_format_precedence_drops_parens(b2):
    t = Join((Meet((Var(1), Var(2))), Const(b2.element("a"))))
    assert format_term(t) == "x1 & x2 | 'a'"


def test_format_join_under_meet_keeps_parens(chain3):
    t = Meet((Var(1), Join((Var(2), Const(chain3.element("m"))))))
    assert format_term(t) == "x1 & (x2 | 'm')"


# canonical random terms for the round-trip property
def _term_strategy(lat, arity):
    leaves = st.one_of(
        st.integers(1, arity).map(Var),
        st.sampled_from(lat.elements).map(Const),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(make_meet),
            st.lists(children, min_size=2, max_size=3).map(make_join),
            st.tuples(children, children, children).map(lambda ts: make_med(*ts)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(data=st.data())
@settings(max_examples=200)
def test_parse_format_round_trip(data, chain3):
    t = data.draw(_term_strategy(chain3, 3))
    assert parse_term(format_term(t), chain3, 3) == t


# -- evaluation ----------------------------------------------------------------


def test_evaluate_examples(chain3, b2):
    m1 = chain3.element("m").id
    t = parse_term("x1 & (x2 | 'm')", chain3, 2)
    assert evaluate(chain3, t, (chain3.top_id, 0)) == m1
    t = parse_term("med(x1, x2, x3)", chain3, 3)
    for v in range(3):
        assert evaluate(chain3, t, (0, v, chain3.top_id)) == v
    t = parse_term("x1 | 'a'", b2, 1)
    assert evaluate(b2, t, (b2.element("b").id,)) == b2.top_id


def test_evaluate_arity_mismatch(chain3):
    t = parse_term("x2", chain3, 2)
    with pytest.raises(ArityMismatchError):
        evaluate(chain3, t, (0,))


# -- materialization -----------------------------------------------------------


def test_materialize_or_table(chain2):
    t = parse_term("x1 | x2", chain2, 2)
    assert materialize(chain2, t, 2).values == (0, 1, 1, 1)


def test_materialize_constant(chain3):
    m1 = chain3.element("m")
    t = parse_term("'m'", chain3, 1)
    assert materialize(chain3, t, 1).values == (m1.id,) * 3


def test_materialize_budget(chain2):
    with pytest.raises(BudgetExceededError):
        materialize(chain2, Var(1), 40)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_evaluation_homomorphism(data, chain3):
    t1 = data.draw(_term_strategy(chain3, 2))
    t2 = data.draw(_term_strategy(chain3, 2))
    f1 = materialize(chain3, t1, 2)
    f2 = materialize(chain3, t2, 2)
    combined = materialize(chain3, make_meet([t1, t2]), 2)
    pointwise = tuple(chain3.meet(a, b) for a, b in zip(f1.values, f2.values))
    assert combined.values == pointwise
    combined = materialize(chain3, make_join([t1, t2]), 2)
    pointwise = tuple(chain3.join(a, b) for a, b in zip(f1.values, f2.values))
    assert combined.values == pointwise


def test_materialized_terms_are_order_preserving(chain4, b2):
    rng = random.Random(7)
    for lat in (chain4, b2):
        for _ in range(40):
            t = random_term(rng, lat, 2, max_depth=4)
            ok, _ = is_order_preserving(materialize(lat, t, 2))
            assert ok


# -- substitution and diagonal -------------------------------------------------


def test_substitute_examples(chain2):
    t = parse_term("x1 & x2", chain2, 2)
    f = materialize(chain2, t, 2)
    pinned_low = substitute(f, {2}, (0, 0))
    assert pinned_low.values == (0, 0)
    pinned_high = substitute(f, {1}, (1, 0))
    assert pinned_high.values == (0, 1)
    assert substitute(f, set(), (0, 0)).values == f.values


def test_substitute_bad_index(chain2):
    f = materialize(chain2, Var(1), 2)
    with pytest.raises(BadIndexError):
        substitute(f, {3}, (0, 0))
    with pytest.raises(ArityMismatchError):
        substitute(f, {1}, (0,))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_substitute_commutes_with_evaluation(data, chain3):
    n = 3
    t = data.draw(_term_strategy(chain3, n))
    f = materialize(chain3, t, n)
    k_set = data.draw(st.sets(st.integers(1, n), max_size=n - 1))
    ids = st.integers(0, chain3.m - 1)
    a = tuple(data.draw(ids) for _ in range(n))
    g = substitute(f, k_set, a)
    free = [k for k in range(n) if (k + 1) not in k_set]
    y = tuple(data.draw(ids) for _ in range(len(free)))
    full = list(a)
    for pos, k in enumerate(free):
        full[k] = y[pos]
    assert g(y) == f(tuple(full))


def test_delta_examples(chain2, chain3):
    f = materialize(chain2, parse_term("x1 & x2", chain2, 2), 2)
    assert delta(f).values == (0, 1)
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    assert delta(f).values == (0, 1, 2)
    f = materialize(chain3, parse_term("'m'", chain3, 2), 2)
    assert delta(f).values == (1, 1, 1)


# -- table text format ---------------------------------------------------------


def test_table_round_trip(chain3):
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    again = table_from_text(table_to_text(f), chain3)
    assert again.values == f.values and again.arity == 2


def test_table_accepts_any_order(chain2):
    text = "table 1\n1 -> 1\n0 -> 0\n"
    assert table_from_text(text, chain2).values == (0, 1)


def test_table_missing_point_named(chain2):
    with pytest.raises(FormatError) as excinfo:
        table_from_text("table 2\n0 0 -> 0\n1 1 -> 1\n0 1 -> 0\n", chain2)
    assert "(1,0)" in str(excinfo.value)


def test_table_duplicate_point(chain2):
    with pytest.raises(FormatError):
        table_from_text("table 1\n0 -> 0\n0 -> 1\n1 -> 1\n", chain2)


def test_table_unknown_element(chain2):
    with pytest.raises(UnknownElementError):
        table_from_text("table 1\n0 -> q\n1 -> 1\n", chain2)


def test_table_bad_header(chain2):
    with pytest.raises(FormatError):
        table_from_text("tab 1\n", chain2)


@pytest.mark.parametrize(
    "padding, message",
    [
        (0, "<table>:1: table arity exceeds the length of the text"),
        (60_000, "<table>: missing entry for point (0,0,0,"),
    ],
    ids=["header-only", "padded"],
)
def test_table_header_builds_nothing_square_in_its_arity(padding, message):
    # the point grid of arity n has n strides of up to n*log2|L| bits; a
    # header read before any entry must not build them (a fresh lattice,
    # whose cache holds no grid yet)
    text = "table 60000\n" + "#" * padding
    lat = chain(3)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as excinfo:
            table_from_text(text, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert str(excinfo.value).startswith(message) and "\n" not in str(excinfo.value)


def test_function_table_validates_length(chain2):
    with pytest.raises(ArityMismatchError):
        FunctionTable(chain2, 2, (0, 1))
