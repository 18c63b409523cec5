import functools
import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import terms
from latpoly import (
    Const,
    FunctionTable,
    Join,
    Med,
    Meet,
    Var,
    boolean,
    build_from_covers,
    chain,
    classify,
    closure_polynomials,
    count_monotone_tables,
    delta,
    dnf_membership,
    enumerate_dnf,
    enumerate_polynomials_distributive,
    equivalent,
    evaluate,
    evaluate_all_conditions,
    extract_alpha,
    find_nondistributive_witness,
    format_term,
    iter_monotone_tables,
    lattice_from_text,
    lattice_to_text,
    make_join,
    make_med,
    make_meet,
    materialize,
    n5,
    parse_term,
    random_monotone_table,
    random_term,
    reconstruct,
    substitute,
    table_from_text,
    table_to_text,
    verify_equivalence,
)
from latpoly.conditions import is_order_preserving
from latpoly.terms import MAX_TERM_DEPTH, term_key

from conftest import naive_substitute
from latpoly.errors import (
    ArityMismatchError,
    BadIndexError,
    BudgetExceededError,
    FormatError,
    InvalidParamsError,
    LatPolyError,
    TermSyntaxError,
    UnknownElementError,
    VarOutOfRangeError,
)

CHAIN3 = chain(3)
# element names holding quotes, which terms write twice
QUOTES = build_from_covers(
    "quotes", ["0", "a'", "''b", "1"], [("0", "a'"), ("0", "''b"), ("a'", "1"), ("''b", "1")]
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


def test_quotes_inside_element_names_are_written_twice():
    a, b = Const(QUOTES.element("a'")), Const(QUOTES.element("''b"))
    for term, text in [
        (make_join([Var(1), a]), "x1 | 'a'''"),
        (make_meet([a, b]), "'a''' & '''''b'"),
    ]:
        assert format_term(term) == text
        assert parse_term(text, QUOTES, 1) == term
    with pytest.raises(TermSyntaxError) as excinfo:
        parse_term("x1 | 'a''", QUOTES, 1)
    assert str(excinfo.value) == "unterminated element name at position 5 (expected closing ')"


def test_one_part_sums_and_products_are_not_rebuilt(monkeypatch):
    calls = []
    for name in ("make_meet", "make_join"):

        def counted(parts, name=name, build=getattr(terms, name)):
            calls.append(name)
            return build(parts)

        monkeypatch.setattr(terms, name, counted)
    assert parse_term("(" * 100 + "x1" + ")" * 100, CHAIN3, 3) == Var(1)
    assert parse_term("med(x1, x2, x3)", CHAIN3, 3) == make_med(Var(1), Var(2), Var(3))
    assert calls == []
    parse_term("x1 & x2", CHAIN3, 3)
    assert calls == ["make_meet"]


fresh_chain3 = functools.partial(chain, 3)
fresh_b2 = functools.partial(boolean, 2)
GARBAGE_TERM = "x1 & (x2 | '0') | med(x1, x2, x1)"


def _garbage_table(lat):
    return materialize(lat, parse_term(GARBAGE_TERM, lat, 2), 2)


@pytest.mark.parametrize(
    "make, call",
    [
        pytest.param(fresh_chain3, lambda lat: parse_term(GARBAGE_TERM, lat, 2), id=GARBAGE_TERM),
        pytest.param(fresh_chain3, lambda lat: parse_term("x1 & (x2 | ", lat, 2), id="x1 & (x2 | "),
        pytest.param(fresh_chain3, _garbage_table, id="materialize"),
        pytest.param(
            fresh_chain3, lambda lat: evaluate(lat, parse_term(GARBAGE_TERM, lat, 2), (1, 2)),
            id="evaluate",
        ),
        pytest.param(fresh_chain3, lambda lat: reconstruct(_garbage_table(lat)), id="reconstruct"),
        pytest.param(n5, lambda lat: reconstruct(_garbage_table(lat)), id="reconstruct-n5"),
        pytest.param(
            fresh_chain3, lambda lat: enumerate_dnf(_garbage_table(lat)), id="enumerate_dnf"
        ),
        pytest.param(
            fresh_chain3,
            lambda lat: dnf_membership(extract_alpha(_garbage_table(lat)), _garbage_table(lat)),
            id="dnf_membership",
        ),
        pytest.param(
            fresh_chain3, lambda lat: equivalent(lat, parse_term(GARBAGE_TERM, lat, 2), Var(1), 2),
            id="equivalent",
        ),
        pytest.param(
            fresh_chain3, lambda lat: evaluate_all_conditions(_garbage_table(lat)),
            id="evaluate_all",
        ),
        pytest.param(
            fresh_b2, lambda lat: evaluate_all_conditions(materialize(lat, Var(1), 1)),
            id="evaluate_all-n1",
        ),
        pytest.param(
            fresh_chain3, lambda lat: evaluate_all_conditions(_garbage_table(lat), budget=10),
            id="refused-check",
        ),
        pytest.param(fresh_chain3, lambda lat: classify(_garbage_table(lat)), id="classify"),
        pytest.param(
            fresh_chain3, lambda lat: enumerate_polynomials_distributive(lat, 1),
            id="enumerate-distributive",
        ),
        pytest.param(fresh_chain3, lambda lat: verify_equivalence(lat, 2), id="verify"),
        pytest.param(fresh_chain3, lambda lat: closure_polynomials(lat, 2), id="closure"),
        pytest.param(n5, lambda lat: find_nondistributive_witness(lat, 1, "iv"), id="witness"),
        pytest.param(fresh_chain3, lambda lat: count_monotone_tables(lat, 2), id="count"),
        pytest.param(fresh_chain3, lambda lat: list(iter_monotone_tables(lat, 2)), id="walk"),
        pytest.param(
            fresh_chain3, lambda lat: random_monotone_table(lat, 2, random.Random(1)), id="sample"
        ),
        pytest.param(
            fresh_chain3, lambda lat: lattice_from_text(lattice_to_text(lat)), id="lattice-text"
        ),
        pytest.param(
            fresh_chain3, lambda lat: table_from_text(table_to_text(_garbage_table(lat)), lat),
            id="table-text",
        ),
    ],
)
def test_a_parsed_lattice_is_freed_by_reference_counting(make, call):
    # parsing and evaluation recurse through module functions, and no call
    # leaves a reference cycle: the lattice goes with its last reference
    # and the cycle collector finds nothing; the first run fills the caches
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            lat = make()
            ref = weakref.ref(lat)
            try:
                call(lat)
            except LatPolyError:
                pass
            del lat
            assert ref() is None
            garbage = gc.collect()
        assert garbage == 0
    finally:
        gc.enable()


# The class-based parser that parse_term replaced, kept as the reference for
# its outcomes: every text gives the same tree, or the same error type, text,
# position and expected.  Its tokenizer ends a quoted name at the next quote,
# so texts holding '' (a quote doubled inside a name) read differently.  It
# builds every sum and product through its own canonical flatten and sort.


def _reference_canonical(cls, terms):
    flat = []
    for t in terms:
        if isinstance(t, cls):
            flat.extend(t.children)
        else:
            flat.append(t)
    flat.sort(key=term_key)
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def _reference_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise TermSyntaxError(
                    "unterminated element name", position=i, expected="closing '"
                )
            tokens.append(("const", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "med":
                tokens.append(("med", word, i))
            elif word[0] == "x" and word[1:].isascii() and word[1:].isdigit():
                if len(word) > 101:
                    raise TermSyntaxError("variable index longer than 100 digits", position=i)
                tokens.append(("var", int(word[1:]), i))
            else:
                raise TermSyntaxError(
                    f"unexpected symbol {word!r}",
                    position=i,
                    expected="x<k>, 'name', or med(...)",
                )
            i = j
            continue
        raise TermSyntaxError(
            f"unexpected character {ch!r}", position=i, expected="a term"
        )
    tokens.append(("end", None, n))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens, lattice, arity):
        self.tokens = tokens
        self.lattice = lattice
        self.arity = arity
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _take(self, kind, expected):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise TermSyntaxError(
                f"unexpected {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
                position=tok[2],
                expected=expected,
            )
        self.pos += 1
        return tok

    def parse(self):
        t = self._or()
        tok = self._peek()
        if tok[0] != "end":
            raise TermSyntaxError(
                f"unexpected {tok[1]!r}", position=tok[2], expected="end of input"
            )
        return t

    def _or(self):
        parts = [self._and()]
        while self._peek()[0] == "|":
            self.pos += 1
            parts.append(self._and())
        return _reference_canonical(Join, parts)

    def _and(self):
        parts = [self._atom()]
        while self._peek()[0] == "&":
            self.pos += 1
            parts.append(self._atom())
        return _reference_canonical(Meet, parts)

    def _atom(self):
        kind, value, pos = self._peek()
        if kind == "var":
            self.pos += 1
            if value < 1 or value > self.arity:
                raise VarOutOfRangeError(
                    f"x{value} is out of range for arity {self.arity}"
                )
            return Var(value)
        if kind == "const":
            self.pos += 1
            return Const(self.lattice.element(value))
        if kind == "med":
            self.pos += 1
            self._take("(", "'('")
            a = self._or()
            self._take(",", "','")
            b = self._or()
            self._take(",", "','")
            c = self._or()
            self._take(")", "')'")
            return Med((a, b, c))
        if kind == "(":
            self.pos += 1
            t = self._or()
            self._take(")", "')'")
            return t
        raise TermSyntaxError(
            f"unexpected {value!r}" if kind != "end" else "unexpected end of input",
            position=pos,
            expected="a variable, constant, med(...), or '('",
        )


def reference_parse_term(text, lattice, arity):
    tokens = _reference_tokenize(text)
    depth = 0
    for kind, _, pos in tokens:
        depth += (kind == "(") - (kind == ")")
        if depth > MAX_TERM_DEPTH:
            raise TermSyntaxError(
                f"term nests deeper than {MAX_TERM_DEPTH} parentheses", position=pos
            )
    return _ReferenceParser(tokens, lattice, arity).parse()


def _outcome(parse, text, lattice, arity):
    try:
        return parse(text, lattice, arity)
    except (TermSyntaxError, VarOutOfRangeError, UnknownElementError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None), getattr(exc, "expected", None)


# tokens and near-tokens of the grammar over chain(3) at arity 3
TEXT_PIECES = [
    "x1", "x2", "x3", "x4", "x0", "x01", "x" + "7" * 120, "x٣", "x²",
    "'", "'m'", "'0'", "'1'", "'q'", "'m", "med(", "med", "med ", "mediant",
    "(", ")", "(" * 60, ")" * 60, ",", "&", "|", " ", "\t", "@", "y", "_", "é", "٣",
]


@st.composite
def term_texts(draw):
    if draw(st.booleans()):
        pieces = draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=30))
        return draw(st.sampled_from(["", " "])).join(pieces)
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = format_term(random_term(rng, CHAIN3, 3, max_depth=draw(st.integers(0, 6))))
    for _ in range(draw(st.integers(0, 4))):
        cut = draw(st.integers(0, len(text)))
        end = draw(st.integers(cut, min(len(text), cut + 3)))
        text = text[:cut] + draw(st.sampled_from(TEXT_PIECES + [""])) + text[end:]
    return text


@given(text=term_texts().filter(lambda text: "''" not in text))
@settings(max_examples=600, deadline=None)
def test_parse_term_agrees_with_the_reference_parser(text):
    expected = _outcome(reference_parse_term, text, CHAIN3, 3)
    assert _outcome(parse_term, text, CHAIN3, 3) == expected


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
    lat = data.draw(st.sampled_from([chain3, QUOTES]))
    t = data.draw(_term_strategy(lat, 3))
    assert parse_term(format_term(t), lat, 3) == t


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
    assert again == f and hash(again) == hash(f) and {f: "med"}[again] == "med"
    assert repr(f) == "FunctionTable(n=2, [0, m, m, m, m, m, m, m, ...])"


def test_table_accepts_any_order(chain2):
    text = "table 1\n1 -> 1\n0 -> 0\n"
    f = table_from_text(text, chain2)
    assert f.values == (0, 1) and repr(f) == "FunctionTable(n=1, [0, 1])"


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


# -- points are checked where they enter ---------------------------------------

MEET_TERM = parse_term("x1 & x2", CHAIN3, 2)
JOIN_TERM = parse_term("x1 | x2", CHAIN3, 2)
MEET = materialize(CHAIN3, MEET_TERM, 2)
JOIN = materialize(CHAIN3, JOIN_TERM, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: MEET((0, 5)),
            InvalidParamsError,
            "point coordinate 2 is 5, not an element id 0..2",
            id="table-past-top",
        ),
        pytest.param(
            lambda: MEET((-1, 2)),
            InvalidParamsError,
            "point coordinate 1 is -1, not an element id 0..2",
            id="table-negative",
        ),
        pytest.param(
            lambda: JOIN((1,)),
            ArityMismatchError,
            "point has arity 1, expected 2",
            id="table-short-point",
        ),
        pytest.param(
            lambda: JOIN((1, 1, 1)),
            ArityMismatchError,
            "point has arity 3, expected 2",
            id="table-long-point",
        ),
        pytest.param(
            lambda: substitute(MEET, [1], (-1, 0)),
            InvalidParamsError,
            "point coordinate 1 is -1, not an element id 0..2",
            id="substitute-negative",
        ),
        pytest.param(
            lambda: substitute(MEET, [1], (0, 0, 0)),
            ArityMismatchError,
            "point has arity 3, expected 2",
            id="substitute-long-point",
        ),
        pytest.param(
            lambda: evaluate(CHAIN3, MEET_TERM, (-1, 1)),
            InvalidParamsError,
            "point coordinate 1 is -1, not an element id 0..2",
            id="evaluate-negative",
        ),
        pytest.param(
            lambda: evaluate(CHAIN3, Var(1), (5, 0)),
            InvalidParamsError,
            "point coordinate 1 is 5, not an element id 0..2",
            id="evaluate-var-past-top",
        ),
        pytest.param(
            lambda: evaluate(CHAIN3, JOIN_TERM, (5, 0)),
            InvalidParamsError,
            "point coordinate 1 is 5, not an element id 0..2",
            id="evaluate-join-past-top",
        ),
        pytest.param(
            lambda: evaluate(CHAIN3, MEET_TERM, (1,)),
            ArityMismatchError,
            "term uses x2 but the point has arity 1",
            id="evaluate-short-point",
        ),
    ],
)
def test_points_are_checked_where_they_enter(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_points_in_range_are_read_as_before():
    top = CHAIN3.elements[2]
    assert MEET((2, 1)) == 1 and MEET((top, top)) == 2
    assert evaluate(CHAIN3, Var(1), (top, 0)) == 2
    assert evaluate(CHAIN3, MEET_TERM, (1, 2, 0)) == 1  # coordinates past the term's are read
    assert substitute(MEET, [1], (top, 0)).values == (0, 1, 2)


SUBSTITUTE_LATTICES = [chain(2), chain(3), boolean(2), n5()]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_substitute_equals_the_per_point_reference(data):
    lat = data.draw(st.sampled_from(SUBSTITUTE_LATTICES))
    n = data.draw(st.integers(0, 3))
    values = data.draw(st.lists(st.integers(0, lat.m - 1), min_size=lat.m**n, max_size=lat.m**n))
    f = FunctionTable(lat, n, values)
    k_set = data.draw(st.sets(st.integers(1, n)) if n else st.just(set()))
    point = tuple(data.draw(st.lists(st.integers(0, lat.m - 1), min_size=n, max_size=n)))
    assert substitute(f, k_set, point) == naive_substitute(f, k_set, point)


# -- refusals ------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: Var(0), VarOutOfRangeError, "variable index 0 must be >= 1", id="var-0"),
        pytest.param(
            lambda: Meet((Var(1),)), ValueError, "Meet needs at least two subterms", id="meet-1"
        ),
        pytest.param(
            lambda: Meet((Var(1), Meet((Var(2), Var(3))))),
            ValueError,
            "nested Meet; build via make_meet",
            id="meet-nested",
        ),
        pytest.param(
            lambda: Join((Var(1),)), ValueError, "Join needs at least two subterms", id="join-1"
        ),
        pytest.param(
            lambda: Join((Var(1), Join((Var(2), Var(3))))),
            ValueError,
            "nested Join; build via make_join",
            id="join-nested",
        ),
        pytest.param(
            lambda: Med((Var(1), Var(2))), ValueError, "med takes exactly three subterms", id="med-2"
        ),
        pytest.param(
            lambda: FunctionTable(CHAIN3, 1, (0, 3, 1)),
            InvalidParamsError,
            "table entry is not a valid element id",
            id="table-entry",
        ),
        pytest.param(
            lambda: delta(FunctionTable(CHAIN3, 0, (1,))),
            ArityMismatchError,
            "diagonal needs arity >= 1",
            id="delta-arity-0",
        ),
        pytest.param(
            lambda: table_from_text("table 0\n", CHAIN3),
            FormatError,
            "<table>:1: table arity must be >= 1",
            id="text-arity-0",
        ),
        pytest.param(
            lambda: table_from_text("table 1\n0 -> 0\nm 0\n", CHAIN3),
            FormatError,
            "<table>:3: expected 1 point coordinates, '->', and a value",
            id="text-entry-line",
        ),
        pytest.param(
            lambda: table_from_text("# no header\n\n", CHAIN3),
            FormatError,
            "<table>: missing 'table <n>' header",
            id="text-no-header",
        ),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
