import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import (
    boolean,
    build_from_covers,
    chain,
    downset_lattice,
    lattice_from_text,
    lattice_to_text,
    m3,
    n5,
    product,
    standard_lattice,
)
from latpoly.errors import (
    CycleError,
    EmptyIntervalError,
    FormatError,
    InvalidParamsError,
    NoBoundsError,
    NotALatticeError,
    UnknownElementError,
)
from latpoly.lattice import FiniteLattice

# shared fixture pool for hypothesis draws (built once; lattices are immutable)
LATTICES = [chain(2), chain(3), chain(4), boolean(2), boolean(3), n5(), m3()]


def naive_distributive(lat):
    """The distributive law checked on every triple: the reference for the
    constructor's join-prime test."""
    m = lat.m
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if lat.meet(x, lat.join(y, z)) != lat.join(
                    lat.meet(x, y), lat.meet(x, z)
                ):
                    return False
    return True


# -- construction -------------------------------------------------------------


def test_two_chain_from_covers():
    lat = build_from_covers("two", ["0", "1"], [("0", "1")])
    assert lat.m == 2
    assert lat.distributive
    assert lat.bottom_id == 0 and lat.top_id == 1


def test_b2_from_covers():
    lat = build_from_covers(
        "B2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    a, b = lat.element("a"), lat.element("b")
    assert lat.meet(a, b) == lat.bottom_id
    assert lat.join(a, b) == lat.top_id
    assert lat.distributive


def test_pentagon_from_covers_not_distributive():
    lat = build_from_covers(
        "N5",
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )
    assert not lat.distributive
    assert lat.distributive == naive_distributive(lat)


def test_cycle_error():
    with pytest.raises(CycleError, match="^the covers create a cycle through '0' and 'a'$"):
        build_from_covers("bad", ["0", "a"], [("0", "a"), ("a", "0")])


def test_self_cover_is_a_cycle():
    with pytest.raises(CycleError, match="^cover '0' < '0' relates an element to itself$"):
        build_from_covers("bad", ["0", "a"], [("0", "0")])


@pytest.mark.parametrize(
    "leq, error, text",
    [
        ([[1, 1], [0, 0]], InvalidParamsError, "order relation is not reflexive"),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], CycleError, "elements 'a' and 'b' order each other"),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], InvalidParamsError, "order relation is not transitive"),
    ],
)
def test_order_matrix_refusals(leq, error, text):
    names = ["a", "b", "c"][: len(leq)]
    with pytest.raises(error, match=f"^{text}$"):
        FiniteLattice("bad", names, leq)


def test_no_bounds():
    cases = [
        # two disjoint 2-chains: no global bottom
        (["a", "b", "c", "d"], [("a", "b"), ("c", "d")], "minimum"),
        (["0", "a", "b"], [("0", "a"), ("0", "b")], "maximum"),
    ]
    for names, covers, missing in cases:
        with pytest.raises(NoBoundsError, match=f"^lattice 'bad' has no global {missing}$"):
            build_from_covers("bad", names, covers)


def test_not_a_lattice():
    cases = [
        # a, b have two minimal upper bounds c, d
        (
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
             ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
            "elements 'a' and 'b' have no least upper bound",
        ),
        # the dual: a, b have two maximal lower bounds c, d, and the pair
        # (c, d), earlier in the linear extension, has no least upper bound
        (
            [("0", "c"), ("0", "d"), ("c", "a"), ("d", "a"),
             ("c", "b"), ("d", "b"), ("a", "1"), ("b", "1")],
            "elements 'c' and 'd' have no least upper bound",
        ),
    ]
    for covers, text in cases:
        with pytest.raises(NotALatticeError, match=f"^{text}$") as info:
            build_from_covers("bad", ["0", "a", "b", "c", "d", "1"], covers)
        assert info.value.pair == (1, 2)


def test_duplicate_names_rejected():
    with pytest.raises(InvalidParamsError):
        build_from_covers("bad", ["a", "a"], [])


def test_size_cap():
    with pytest.raises(InvalidParamsError):
        chain(300)
    assert chain(300, max_size=512).m == 300


# -- differential construction against brute force ---------------------------


def brute_closure(names, covers):
    """Reflexive-transitive closure of a cover list, by Warshall's algorithm."""
    m = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    leq = [[i == j for j in range(m)] for i in range(m)]
    for low, high in covers:
        leq[index[low]][index[high]] = True
    for k in range(m):
        for i in range(m):
            if leq[i][k]:
                leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
    return leq


def least(candidates, below):
    """The members c of candidates with below(c, d) for every member d."""
    return [c for c in candidates if all(below(c, d) for d in candidates)]


def brute_refusal(names, covers):
    """The error type a cover relation must be refused with, or None when
    its closure is a bounded lattice."""
    m = len(names)
    leq = brute_closure(names, covers)
    if any(low == high for low, high in covers) or any(
        i != j and leq[i][j] and leq[j][i] for i in range(m) for j in range(m)
    ):
        return CycleError
    if not any(all(leq[b]) for b in range(m)) or not any(
        all(row[t] for row in leq) for t in range(m)
    ):
        return NoBoundsError
    for a in range(m):
        for b in range(m):
            uppers = [u for u in range(m) if leq[a][u] and leq[b][u]]
            lowers = [w for w in range(m) if leq[w][a] and leq[w][b]]
            if not least(uppers, lambda u, v: leq[u][v]) or not least(
                lowers, lambda w, v: leq[v][w]
            ):
                return NotALatticeError
    return None


def assert_matches_brute_force(lat):
    """Bounds, meet, join, covers and the distributive flag of a built
    lattice, each against a brute-force reading of its order `_leq`."""
    m, leq = lat.m, lat._leq
    assert all(leq[lat.bottom_id]) and all(row[lat.top_id] for row in leq)
    for a in range(m):
        for b in range(m):
            uppers = [u for u in range(m) if leq[a][u] and leq[b][u]]
            lowers = [w for w in range(m) if leq[w][a] and leq[w][b]]
            assert least(uppers, lambda u, v: leq[u][v]) == [lat.join(a, b)]
            assert least(lowers, lambda w, v: leq[v][w]) == [lat.meet(a, b)]
    for i in range(m):
        above = [j for j in range(m) if j != i and leq[i][j]]
        below = [j for j in range(m) if j != i and leq[j][i]]
        assert lat.covers_up[i] == tuple(
            j for j in above if not any(k != j and leq[k][j] for k in above)
        )
        assert lat.covers_down[i] == tuple(
            j for j in below if not any(k != j and leq[j][k] for k in below)
        )
    assert lat.distributive == naive_distributive(lat)


@st.composite
def cover_relations(draw):
    """Element names and a cover list, declared in a drawn order: arbitrary
    pairs (cycles and self-covers included), pairs oriented upward, or
    upward pairs under an added bottom and top."""
    shape = draw(st.sampled_from(["any", "upward", "bounded"]))
    m = draw(st.integers(1, 9))
    ids = st.integers(0, m - 1)
    pairs = draw(st.sets(st.tuples(ids, ids), min_size=m, max_size=2 * m))
    if shape != "any":
        pairs = [(min(p), max(p)) for p in pairs if p[0] != p[1]]
    names = [f"e{i}" for i in range(m)]
    covers = [(names[a], names[b]) for a, b in pairs]
    if shape == "bounded":
        covers += [("bot", x) for x in names] + [(x, "top") for x in names]
        names += ["bot", "top"]
    return draw(st.permutations(names)), covers


@given(relation=cover_relations())
@settings(max_examples=300, deadline=None)
def test_cover_relations_match_brute_force(relation):
    names, covers = relation
    refusal = brute_refusal(names, covers)
    if refusal is not None:
        with pytest.raises(refusal):
            build_from_covers("r", names, covers)
        return
    lat = build_from_covers("r", names, covers)
    closure = brute_closure(names, covers)
    for a, x in enumerate(names):
        for b, y in enumerate(names):
            assert lat.leq(lat.element(x), lat.element(y)) == closure[a][b]
    assert_matches_brute_force(lat)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_products_and_downsets_match_brute_force(data):
    if data.draw(st.booleans()):
        factors = st.sampled_from([chain(2), chain(3), boolean(2), n5(), m3()])
        lat = product(data.draw(factors), data.draw(factors))
    else:
        p = data.draw(st.integers(1, 4))
        names = [f"p{i}" for i in range(p)]
        pairs = data.draw(st.sets(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))))
        lat = downset_lattice(names, [(names[a], names[b]) for a, b in pairs if a < b])
        assert lat.distributive
    assert_matches_brute_force(lat)


# -- standard constructions -------------------------------------------------


def test_chain3_shape(chain3):
    assert [e.name for e in chain3.elements] == ["0", "m", "1"]
    assert chain3.distributive


def test_boolean2_is_a_square(b2):
    assert b2.m == 4
    assert b2.distributive
    atoms = [i for i in range(4) if b2.covers_down[i] == (b2.bottom_id,)]
    assert len(atoms) == 2
    assert b2.meet(atoms[0], atoms[1]) == b2.bottom_id
    assert b2.join(atoms[0], atoms[1]) == b2.top_id


def test_boolean2_matches_product_of_chains(chain2):
    prod = product(chain2, chain2)
    b = boolean(2)
    assert prod.m == b.m
    assert prod.distributive
    # same cover profile up to renaming
    assert sorted(len(c) for c in prod.covers_up) == sorted(
        len(c) for c in b.covers_up
    )


def test_m3_shape(diamond):
    assert diamond.m == 5
    atoms = [
        i for i in range(5) if diamond.covers_down[i] == (diamond.bottom_id,)
    ]
    assert len(atoms) == 3
    assert not diamond.distributive
    assert naive_distributive(diamond) is False


def test_downsets_are_distributive():
    # downsets of the V-shaped poset a < b, a < c
    lat = downset_lattice(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert lat.m == 5  # {}, {a}, {a,b}, {a,c}, {a,b,c}
    assert lat.distributive


def test_standard_lattice_dispatch(chain2):
    assert standard_lattice("chain", 3).m == 3
    assert standard_lattice("boolean", 2).m == 4
    assert standard_lattice("product", chain2, chain2).m == 4
    assert standard_lattice("downset", ["a", "b"], [("a", "b")]).m == 3
    assert standard_lattice("n5").distributive is False
    assert standard_lattice("m3").distributive is False
    with pytest.raises(InvalidParamsError):
        standard_lattice("mobius")
    with pytest.raises(InvalidParamsError):
        standard_lattice("chain")


def test_unknown_element(chain3):
    with pytest.raises(UnknownElementError):
        chain3.element("q")


# -- operations --------------------------------------------------------------


def test_order_ops_chain3(chain3):
    m1, one, zero = chain3.element("m"), chain3.element("1"), chain3.element("0")
    assert chain3.meet(m1, one) == m1.id
    assert chain3.join(m1, zero) == m1.id
    assert chain3.leq(zero, m1)


def test_order_ops_b2(b2):
    a, b = b2.element("a"), b2.element("b")
    leq, meet, join = b2.order_ops(a, b)
    assert (leq, meet, join) == (False, b2.bottom_id, b2.top_id)


def test_order_ops_n5(pentagon):
    a, b, c = (pentagon.element(x) for x in "abc")
    assert pentagon.join(a, c) == pentagon.top_id
    assert pentagon.meet(b, c) == pentagon.bottom_id


def test_med_examples(chain3, b2):
    m1 = chain3.element("m")
    assert chain3.med(0, chain3.top_id, m1) == m1.id
    a, b = b2.element("a"), b2.element("b")
    assert b2.med(a, b, b2.bottom_id) == b2.bottom_id
    assert b2.med(a, b, b2.top_id) == b2.top_id


def test_truncate_examples(chain3, b2):
    m1 = chain3.element("m").id
    x = (0, m1, chain3.top_id)
    assert chain3.truncate(x, m1, "below") == (0, 0, chain3.top_id)
    assert chain3.truncate(x, m1, "above") == (0, chain3.top_id, chain3.top_id)
    a, b = b2.element("a").id, b2.element("b").id
    assert b2.truncate((a, b), a, "below") == (0, b)
    with pytest.raises(InvalidParamsError):
        chain3.truncate(x, m1, "sideways")


def test_interval_examples(chain3, b2, pentagon):
    assert chain3.interval(0, chain3.top_id) == [0, 1, 2]
    a = b2.element("a").id
    assert b2.interval(0, a) == [0, a]
    pa, pb = pentagon.element("a").id, pentagon.element("b").id
    assert pentagon.interval(pa, pentagon.top_id) == [pa, pb, pentagon.top_id]
    with pytest.raises(EmptyIntervalError):
        b2.interval(a, 0)


# -- algebraic laws (property tests) ----------------------------------------


@given(data=st.data())
@settings(max_examples=150)
def test_lattice_axioms(data):
    lat = data.draw(st.sampled_from(LATTICES))
    ids = st.integers(0, lat.m - 1)
    a, b, c = data.draw(ids), data.draw(ids), data.draw(ids)
    assert lat.meet(a, b) == lat.meet(b, a)
    assert lat.join(a, b) == lat.join(b, a)
    assert lat.join(a, lat.meet(a, b)) == a
    assert lat.meet(a, lat.join(a, b)) == a
    assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
    assert lat.meet(a, a) == a and lat.join(a, a) == a
    # leq(a,b) <=> meet(a,b)=a <=> join(a,b)=b
    assert lat.leq(a, b) == (lat.meet(a, b) == a) == (lat.join(a, b) == b)


@given(data=st.data())
@settings(max_examples=100)
def test_bounds_and_linear_extension(data):
    lat = data.draw(st.sampled_from(LATTICES))
    a = data.draw(st.integers(0, lat.m - 1))
    b = data.draw(st.integers(0, lat.m - 1))
    assert lat.leq(lat.bottom_id, a) and lat.leq(a, lat.top_id)
    if lat.leq(a, b):
        assert a <= b  # ids are a linear extension


@given(data=st.data())
@settings(max_examples=100)
def test_med_symmetry_and_absorption(data):
    lat = data.draw(st.sampled_from(LATTICES))
    ids = st.integers(0, lat.m - 1)
    x, y, z = data.draw(ids), data.draw(ids), data.draw(ids)
    base = lat.med(x, y, z)
    assert base == lat.med(z, x, y) == lat.med(y, z, x)
    assert base == lat.med(y, x, z) == lat.med(x, z, y) == lat.med(z, y, x)
    assert lat.med(lat.bottom_id, x, lat.top_id) == x
    assert lat.med(x, x, y) == x


@given(data=st.data())
@settings(max_examples=100)
def test_truncate_idempotent(data):
    lat = data.draw(st.sampled_from(LATTICES))
    ids = st.integers(0, lat.m - 1)
    point = tuple(data.draw(ids) for _ in range(3))
    c = data.draw(ids)
    for direction in ("below", "above"):
        once = lat.truncate(point, c, direction)
        assert lat.truncate(once, c, direction) == once


@given(data=st.data())
@settings(max_examples=100)
def test_interval_convex(data):
    lat = data.draw(st.sampled_from(LATTICES))
    ids = st.integers(0, lat.m - 1)
    a = data.draw(ids)
    b = data.draw(st.sampled_from(lat.upset_ids(a)))
    inside = set(lat.interval(a, b))
    for x in inside:
        for z in inside:
            for y in range(lat.m):
                if lat.leq(x, y) and lat.leq(y, z):
                    assert y in inside


@pytest.mark.parametrize("make", [lambda: chain(4), lambda: boolean(3)])
def test_constructed_distributive_flag(make):
    lat = make()
    assert lat.distributive
    assert naive_distributive(lat)


# -- text format --------------------------------------------------------------


def test_text_round_trip(pentagon):
    text = lattice_to_text(pentagon)
    again = lattice_from_text(text)
    assert [e.name for e in again.elements] == [e.name for e in pentagon.elements]
    assert again._leq == pentagon._leq


def test_text_comments_and_blanks():
    lat = lattice_from_text(
        "# a three-chain\nlattice c3\n\nelements: 0 m 1\ncovers:\n0 < m\nm < 1\n"
    )
    assert lat.m == 3


@pytest.mark.parametrize(
    "text",
    [
        "elements: a b\ncovers:\n",
        "lattice x\nelements: a b\ncovers:\na b\n",
        "lattice x\nelements:\ncovers:\n",
        "lattice x\nelements: a b\n",
    ],
)
def test_text_format_errors(text):
    with pytest.raises(FormatError):
        lattice_from_text(text)


# -- refusals ------------------------------------------------------------------

CHAIN3_TEXT = "lattice c3\nelements: 0 m 1\ncovers:\n"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: FiniteLattice("empty", [], []),
            InvalidParamsError,
            "a lattice needs at least one element",
            id="no-elements",
        ),
        pytest.param(
            lambda: FiniteLattice("twins", ["a", "a"], [[True, True], [True, True]]),
            InvalidParamsError,
            "element names must be unique",
            id="duplicate-names",
        ),
        pytest.param(
            lambda: downset_lattice([], []),
            InvalidParamsError,
            "a poset needs at least one element",
            id="empty-poset",
        ),
        pytest.param(
            lambda: build_from_covers("u", ["0", "1"], [("0", "2")]),
            InvalidParamsError,
            "cover pair references undeclared name '2'",
            id="undeclared-high",
        ),
        pytest.param(
            lambda: build_from_covers("u", ["0", "1"], [("z", "1")]),
            InvalidParamsError,
            "cover pair references undeclared name 'z'",
            id="undeclared-low",
        ),
        pytest.param(
            lambda: chain(1), InvalidParamsError, "a chain needs at least 2 elements", id="chain-1"
        ),
        pytest.param(
            lambda: chain(257),
            InvalidParamsError,
            "257 elements exceed the cap of 256; pass max_size to raise it",
            id="chain-cap",
        ),
        pytest.param(
            lambda: boolean(0),
            InvalidParamsError,
            "a boolean lattice needs at least 1 atom",
            id="boolean-0",
        ),
        pytest.param(
            lambda: boolean(27), InvalidParamsError, "at most 26 atoms supported", id="boolean-27"
        ),
        pytest.param(
            lambda: boolean(4, max_size=15),
            InvalidParamsError,
            "16 elements exceed the cap of 15; pass max_size to raise it",
            id="boolean-cap",
        ),
        pytest.param(
            lambda: product(chain(16), chain(17)),
            InvalidParamsError,
            "272 elements exceed the cap of 256; pass max_size to raise it",
            id="product-cap",
        ),
        pytest.param(
            lambda: downset_lattice([f"p{i}" for i in range(21)], []),
            InvalidParamsError,
            "downset construction supports at most 20 poset elements",
            id="poset-21",
        ),
        pytest.param(
            lambda: downset_lattice("abc", [], max_size=7),
            InvalidParamsError,
            "poset has more downsets than the cap of 7",
            id="downset-cap",
        ),
        pytest.param(
            lambda: standard_lattice("n5", 1),
            InvalidParamsError,
            "N5 takes no parameters",
            id="n5-params",
        ),
        pytest.param(
            lambda: standard_lattice("m3", 1),
            InvalidParamsError,
            "M3 takes no parameters",
            id="m3-params",
        ),
        pytest.param(
            lambda: lattice_from_text("lattice c3\nelements: 0 m 1\ncover:\n"),
            FormatError,
            "<lattice>:3: expected 'covers:'",
            id="text-covers-header",
        ),
        pytest.param(
            lambda: lattice_from_text(CHAIN3_TEXT + "0 < m\nm < top\n"),
            FormatError,
            "<lattice>: cover pair references undeclared name 'top'",
            id="text-undeclared-name",
        ),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: chain(3000),
            "3000 elements exceed the cap of 256; pass max_size to raise it",
            id="chain-3000",
        ),
        pytest.param(
            lambda: boolean(12),
            "4096 elements exceed the cap of 256; pass max_size to raise it",
            id="boolean-12",
        ),
        pytest.param(
            lambda: boolean(16),
            "65536 elements exceed the cap of 256; pass max_size to raise it",
            id="boolean-16",
        ),
        pytest.param(
            lambda: downset_lattice([f"p{i}" for i in range(20)], []),
            "poset has more downsets than the cap of 256",
            id="antichain-20",
        ),
    ],
)
def test_constructors_refuse_before_they_allocate(call, message):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParamsError) as excinfo:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == message
    assert peak < 2**20
