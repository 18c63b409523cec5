import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import (
    DNFMap,
    boolean,
    chain,
    closure_polynomials,
    dnf_evaluate,
    dnf_membership,
    dnf_to_lines,
    dnf_to_term,
    downset_lattice,
    enumerate_dnf,
    equivalent,
    evaluate,
    extract_alpha,
    format_subset,
    materialize,
    n5,
    parse_term,
    product,
    random_term,
    reconstruct,
    subset_masks,
)
from latpoly.budget import ensure_budget
from latpoly.cli import main
from latpoly.dnf import _choices
from latpoly.errors import (
    ArityMismatchError,
    BudgetExceededError,
    InvalidParamsError,
    LimitExceededError,
    NotDistributiveError,
    NotPolynomialError,
)
from latpoly.terms import _BATCH, Const, FunctionTable, Var, make_meet

from conftest import naive_dnf_evaluate, naive_evaluate


def brute_force_table(lat, term, n):
    """Point-by-point evaluation, independent of materialize's tabulation."""
    sp = lat.point_space(n)
    return tuple(naive_evaluate(lat, term, x) for x in sp.iter_points())


# -- subset order ---------------------------------------------------------


def test_subset_masks_order():
    assert subset_masks(3) == (0, 1, 2, 4, 3, 5, 6, 7)
    for n in range(13):
        assert subset_masks(n) == tuple(
            sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
        )


def test_format_subset():
    assert format_subset(0) == "{}"
    assert format_subset(0b101) == "{1,3}"


# -- alpha extraction -----------------------------------------------------


def test_alpha_of_and(chain2):
    f = materialize(chain2, parse_term("x1 & x2", chain2, 2), 2)
    assert extract_alpha(f).coeffs == (0, 0, 0, 1)


def test_alpha_of_median(chain3):
    # expand med(x1, m, x2) at the four 0/1 points by hand: 0, m, m, 1
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    m1 = chain3.element("m").id
    assert extract_alpha(f).coeffs == (0, m1, m1, chain3.top_id)


def test_alpha_of_constant(b2):
    a = b2.element("a").id
    f = FunctionTable(b2, 2, (a,) * 16)
    assert extract_alpha(f).coeffs == (a,) * 4


def test_alpha_reads_f_at_the_zero_one_points(chain3, b2):
    # bit k of the mask sets coordinate k+1 of e_I to top
    rng = random.Random(5)
    for lat, n in ((chain3, 3), (b2, 2)):
        f = FunctionTable(lat, n, [rng.randrange(lat.m) for _ in range(lat.m**n)])
        expected = [
            f([lat.top_id if mask >> k & 1 else 0 for k in range(n)]) for mask in range(1 << n)
        ]
        assert list(extract_alpha(f).coeffs) == expected


# -- normal form evaluation -------------------------------------------------


def test_dnf_evaluate_median_point(chain3):
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    alpha = extract_alpha(f)
    m1 = chain3.element("m").id
    assert dnf_evaluate(alpha, (m1, 0)) == m1
    assert dnf_evaluate(alpha, (m1, 0)) == chain3.med(m1, m1, 0)


def test_dnf_evaluate_degenerate_maps(chain3):
    zero = DNFMap(chain3, 2, (0,) * 4)
    top_at_empty = DNFMap(chain3, 2, (chain3.top_id, 0, 0, 0))
    for x in chain3.point_space(2).iter_points():
        assert dnf_evaluate(zero, x) == 0
        assert dnf_evaluate(top_at_empty, x) == chain3.top_id


# -- membership --------------------------------------------------------------


def test_alpha_f_is_always_a_representation(chain4, b2):
    rng = random.Random(11)
    for lat in (chain4, b2):
        for _ in range(30):
            t = random_term(rng, lat, 2, max_depth=4)
            f = materialize(lat, t, 2)
            assert dnf_membership(extract_alpha(f), f)


def test_membership_rejects_wrong_map(chain2):
    f = materialize(chain2, parse_term("x1", chain2, 1), 1)
    alpha = DNFMap(chain2, 1, (1, 0))
    assert not dnf_membership(alpha, f)


def test_membership_empty_for_non_polynomial(chain3):
    f = FunctionTable(chain3, 1, (0, 0, 2))
    assert not dnf_membership(extract_alpha(f), f)
    for coeffs in [(0, 0), (0, 2), (1, 1), (2, 0)]:
        assert not dnf_membership(DNFMap(chain3, 1, coeffs), f)


def test_membership_two_paths_agree(b2):
    # compare the 0/1-point criterion against the definitional check
    rng = random.Random(5)
    sp = b2.point_space(2)
    for _ in range(25):
        t = random_term(rng, b2, 2, max_depth=3)
        f = materialize(b2, t, 2)
        coeffs = tuple(rng.randrange(b2.m) for _ in range(4))
        alpha = DNFMap(b2, 2, coeffs)
        definitional = all(
            dnf_evaluate(alpha, x) == f.values[i]
            for i, x in enumerate(sp.iter_points())
        )
        assert dnf_membership(alpha, f) == definitional


def test_membership_compares_pointwise_off_distributivity(pentagon):
    # (x ^ b) v a and med(a, x, b) share the 0/1 restriction (a, b), so
    # only the comparison at every point tells them apart
    alpha = DNFMap(pentagon, 1, (pentagon.element("a").id, pentagon.element("b").id))
    for term, member in (("x1 & 'b' | 'a'", True), ("med('a', x1, 'b')", False)):
        f = materialize(pentagon, parse_term(term, pentagon, 1), 1)
        assert dnf_membership(alpha, f) is member


def test_membership_extracts_alpha_once(b2, monkeypatch):
    import latpoly.dnf as dnf

    calls = []
    monkeypatch.setattr(dnf, "extract_alpha", lambda f: calls.append(f) or extract_alpha(f))
    f = materialize(b2, parse_term("x1 & 'a' | x2", b2, 2), 2)
    assert dnf_membership(extract_alpha(f), f)
    assert calls == [f]
    # the budget still covers the reconstruction first, with its own text
    with pytest.raises(BudgetExceededError, match="^normal-form reconstruction needs 20 "):
        dnf_membership(extract_alpha(f), f, budget=19)


# -- enumeration ------------------------------------------------------------


def test_enumerate_identity_is_unique(chain2):
    f = materialize(chain2, parse_term("x1", chain2, 1), 1)
    members = enumerate_dnf(f, mode="list")
    assert [a.coeffs for a in members] == [(0, 1)]
    assert enumerate_dnf(f, mode="count") == 1


def test_enumerate_join_with_atom_has_two(b2):
    # alpha({}) = a is forced; alpha({1}) solves t v a = 1, so t in {b, 1}
    f = materialize(b2, parse_term("x1 | 'a'", b2, 1), 1)
    a, b = b2.element("a").id, b2.element("b").id
    assert enumerate_dnf(f, mode="count") == 2
    members = enumerate_dnf(f, mode="list")
    assert [x.coeffs for x in members] == [(a, b), (a, b2.top_id)]


def test_enumerate_rejects_non_polynomial(chain3):
    f = FunctionTable(chain3, 1, (0, 0, 2))
    with pytest.raises(NotPolynomialError):
        enumerate_dnf(f, mode="count")


def test_enumerate_count_limit(b2):
    f = materialize(b2, parse_term("x1 | 'a'", b2, 1), 1)
    with pytest.raises(LimitExceededError) as excinfo:
        enumerate_dnf(f, mode="count", limit=1)
    assert excinfo.value.lower_bound == 2
    assert len(enumerate_dnf(f, mode="list", limit=1)) == 1


def test_every_member_denotes_f_and_sits_below_alpha_f(b2):
    rng = random.Random(3)
    sp = b2.point_space(2)
    for _ in range(20):
        t = random_term(rng, b2, 2, max_depth=3)
        f = materialize(b2, t, 2)
        alpha_f = extract_alpha(f)
        members = enumerate_dnf(f, mode="list")
        assert any(a.coeffs == alpha_f.coeffs for a in members)
        for alpha in members:
            assert all(
                dnf_evaluate(alpha, x) == f.values[i]
                for i, x in enumerate(sp.iter_points())
            )
            assert all(
                b2.leq(alpha.coeffs[mask], alpha_f.coeffs[mask])
                for mask in range(4)
            )


# -- the product form against the search it replaced ---------------------------


def naive_enumerate_dnf(f, mode="list", limit=None, budget=None):
    """All coefficient maps whose normal form denotes `f`, by search.

    Depth-first over subsets in increasing-cardinality order; at subset I
    the admissible coefficients are the solutions a of
    a v (join of the already-chosen coefficients of strict subsets) =
    alpha_f(I).  Every leaf denotes f and every representation is reached
    exactly once.  mode='count' returns the count (raising
    LimitExceededError past `limit`); mode='list' returns up to `limit`
    DNFMaps.
    """
    if mode not in ("count", "list"):
        raise InvalidParamsError(f"mode must be 'count' or 'list', got {mode!r}")
    is_poly, _ = reconstruct(f, budget=budget)
    if not is_poly:
        raise NotPolynomialError(
            "the function has no normal-form representation; "
            "it is not a polynomial function"
        )
    lat = f.lattice
    n = f.arity
    m = lat.m
    join_t = lat._join_t
    order = subset_masks(n)
    total = len(order)
    alpha_f = extract_alpha(f).coeffs
    ops = 0

    by_mask = [0] * total

    def candidates(pos):
        mask = order[pos]
        beta = 0
        if mask:
            s = (mask - 1) & mask
            while True:
                beta = join_t[beta][by_mask[s]]
                if s == 0:
                    break
                s = (s - 1) & mask
        target = alpha_f[mask]
        return [a for a in range(m) if join_t[a][beta] == target]

    count = 0
    members = []
    stack = [iter(candidates(0))]
    while stack:
        pos = len(stack) - 1
        ops += m
        ensure_budget(ops, budget, "normal-form enumeration")
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
            continue
        by_mask[order[pos]] = a
        if pos + 1 == total:
            if mode == "count":
                count += 1
                if limit is not None and count > limit:
                    raise LimitExceededError(
                        f"more than {limit} normal forms exist", lower_bound=count
                    )
            else:
                members.append(DNFMap(lat, n, tuple(by_mask)))
                if limit is not None and len(members) >= limit:
                    return members
        else:
            stack.append(iter(candidates(pos + 1)))
    return count if mode == "count" else members



def downsets_of_n():
    """The downset lattice of the four-element zigzag poset N."""
    return downset_lattice(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])


# 1,128 polynomial functions in all; the B2 n=3 closure needs 10,010,880
# evaluations, past the default budget
PRODUCT_FIXTURES = [
    pytest.param(make, n, id=f"{name} n={n}")
    for name, make, n in [
        ("chain3", lambda: chain(3), 1),
        ("chain3", lambda: chain(3), 2),
        ("chain3", lambda: chain(3), 3),
        ("chain4", lambda: chain(4), 2),
        ("B2", lambda: boolean(2), 1),
        ("B2", lambda: boolean(2), 2),
        ("B2", lambda: boolean(2), 3),
        ("B3", lambda: boolean(3), 1),
        ("chain3xB2", lambda: product(chain(3), boolean(2)), 1),
        ("downsetsN", downsets_of_n, 1),
        ("downsetsN", downsets_of_n, 2),
    ]
]


def least_representation(f):
    """alpha^-(I): the join of the join-irreducibles j for which I is a
    minimal subset with j <= alpha_f(I)."""
    lat = f.lattice
    leq, join_t = lat._leq, lat._join_t
    alpha_f = extract_alpha(f).coeffs
    irreducibles = [j for j in range(lat.m) if len(lat.covers_down[j]) == 1]
    least = []
    for mask, top in enumerate(alpha_f):
        lo = lat.bottom_id
        for j in irreducibles:
            if leq[j][top] and not any(
                leq[j][alpha_f[sub]] for sub in range(mask) if sub & mask == sub
            ):
                lo = join_t[lo][j]
        least.append(lo)
    return least


@pytest.mark.parametrize("make, n", PRODUCT_FIXTURES)
def test_product_form_equals_the_search(make, n):
    lat = make()
    for f in closure_polynomials(lat, n, budget=10**8):
        members = enumerate_dnf(f, mode="list")
        assert members == naive_enumerate_dnf(f, mode="list")
        assert enumerate_dnf(f, mode="count") == len(members)
        # each factor of the product is the interval [alpha^-(I), alpha_f(I)]
        leq = lat._leq
        intervals = [
            tuple(a for a in range(lat.m) if leq[lo][a] and leq[a][hi])
            for lo, hi in zip(least_representation(f), extract_alpha(f).coeffs)
        ]
        assert _choices(f, None) == intervals


def test_count_is_a_product_past_the_reach_of_the_search(chain3_file, capsys):
    # 3^26 representations: the search spends the default budget long
    # before counting them
    lat = chain(3)
    term = "x1|x2|x3|x4|x5"
    f = materialize(lat, parse_term(term, lat, 5), 5)
    assert enumerate_dnf(f, mode="count") == 3**26
    argv = ["dnf-count", "--lattice", str(chain3_file), "--arity", "5", "--term", term]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"count: {3**26}\n"


def test_list_mode_charges_the_maps_it_builds(chain3):
    # x1 | x2 | x3 has 3^4 normal forms of 8 coefficients each; the
    # reconstruction (27 + 8) and the choice sets (8 * 3) are charged first
    f = materialize(chain3, parse_term("x1 | x2 | x3", chain3, 3), 3)
    with pytest.raises(BudgetExceededError, match="^normal-form enumeration needs 648 "):
        enumerate_dnf(f, mode="list", budget=100)
    assert len(enumerate_dnf(f, mode="list", limit=10, budget=100)) == 10
    assert enumerate_dnf(f, mode="count", budget=100) == 81


def test_dnf_census_script_reaches_arity_three():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "dnf_census.py"), "--max-arity", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "B2 n=3: 400 polynomials" in done.stdout


# -- reconstruction -----------------------------------------------------------


def test_reconstruct_accepts_materialized_terms(chain4, b2):
    rng = random.Random(19)
    for lat in (chain4, b2):
        for _ in range(30):
            t = random_term(rng, lat, 3, max_depth=4)
            assert reconstruct(materialize(lat, t, 3)) == (True, None)


def test_reconstruct_rejects_step_table(chain3):
    f = FunctionTable(chain3, 1, (0, 0, 2))
    ok, witness = reconstruct(f)
    assert not ok
    assert witness == (chain3.element("m").id,)


def test_reconstruct_constant(b2):
    a = b2.element("a").id
    assert reconstruct(FunctionTable(b2, 1, (a,) * 4)) == (True, None)


def test_reconstruct_needs_distributivity(pentagon):
    f = FunctionTable(pentagon, 1, tuple(range(5)))
    with pytest.raises(NotDistributiveError):
        reconstruct(f)


def test_monotone_alpha_for_monotone_f(chain3):
    rng = random.Random(23)
    for _ in range(25):
        t = random_term(rng, chain3, 2, max_depth=4)
        alpha = extract_alpha(materialize(chain3, t, 2))
        for mask in range(4):
            for sub in range(4):
                if sub & mask == sub:
                    assert chain3.leq(alpha.coeffs[sub], alpha.coeffs[mask])


# -- term equivalence ---------------------------------------------------------


def test_equivalent_distributive_law(chain3):
    t1 = parse_term("x1 & (x2 | x3)", chain3, 3)
    t2 = parse_term("x1 & x2 | x1 & x3", chain3, 3)
    assert equivalent(chain3, t1, t2, 3) == (True, None)


def test_equivalent_median_expansion(b2):
    t1 = parse_term("med(x1, x2, x3)", b2, 3)
    t2 = parse_term("(x1 | x2) & (x1 | x3) & (x2 | x3)", b2, 3)
    assert equivalent(b2, t1, t2, 3) == (True, None)


def test_equivalent_witness(chain2):
    t1 = parse_term("x1", chain2, 2)
    t2 = parse_term("x2", chain2, 2)
    equal, witness = equivalent(chain2, t1, t2, 2)
    assert not equal and witness == (1, 0)
    # 0/1 points are compared in subset_masks order: {3} comes before {1,2}
    t1 = parse_term("x1 & x2 | x3", chain2, 3)
    assert equivalent(chain2, t1, parse_term("'0'", chain2, 3), 3) == (False, (0, 0, 1))


def test_equivalent_full_domain_on_non_distributive(pentagon):
    # (x ^ b) v a and med(a, x, b) differ only off the 0/1 points
    t1 = parse_term("x1 & 'b' | 'a'", pentagon, 1)
    t2 = parse_term("med('a', x1, 'b')", pentagon, 1)
    equal, witness = equivalent(pentagon, t1, t2, 1)
    assert not equal
    assert witness == (pentagon.element("c").id,)


def test_equivalent_absorption_on_non_distributive(pentagon):
    t1 = parse_term("x1 & (x1 | x2)", pentagon, 2)
    t2 = parse_term("x1", pentagon, 2)
    assert equivalent(pentagon, t1, t2, 2) == (True, None)


def test_equivalent_checks_the_budget_on_distributive_lattices(chain3):
    x1 = parse_term("x1", chain3, 1)
    with pytest.raises(InvalidParamsError):
        equivalent(chain3, x1, x1, 21, budget=10)  # the arity check comes first
    with pytest.raises(BudgetExceededError, match="needs 524288 point evaluations"):
        equivalent(chain3, x1, x1, 18, budget=10)
    assert equivalent(chain3, x1, x1, 2, budget=8) == (True, None)


def test_equivalent_full_domain_checks_the_budget_first():
    lat = n5()
    x1 = parse_term("x1", lat, 1)
    with pytest.raises(BudgetExceededError):
        equivalent(lat, x1, x1, 3000)
    assert ("space", 3000) not in lat._cache  # no PointSpace of 3000 strides


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_zero_one_restriction_determines_terms(data, chain3):
    # two random terms agree everywhere iff they agree on the 0/1 points
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    t1 = random_term(rng, chain3, 3, max_depth=4)
    t2 = random_term(rng, chain3, 3, max_depth=4)
    fast, _ = equivalent(chain3, t1, t2, 3)
    full = brute_force_table(chain3, t1, 3) == brute_force_table(chain3, t2, 3)
    assert fast == full


# -- the tabulator at its edges ---------------------------------------------------


def test_arity_zero(chain3, pentagon):
    for lat in (chain3, pentagon):
        c = lat.elements[1]
        f = materialize(lat, Const(c), 0)
        assert f.values == (c.id,)
        assert evaluate(lat, Const(c), ()) == c.id
        assert equivalent(lat, Const(c), Const(c), 0) == (True, None)
        assert equivalent(lat, Const(c), Const(lat.elements[0]), 0) == (False, ())
        alpha = DNFMap(lat, 0, [c.id])
        assert dnf_evaluate(alpha, ()) == naive_dnf_evaluate(alpha, ()) == c.id
        assert dnf_membership(alpha, f)
        assert not dnf_membership(DNFMap(lat, 0, [lat.top_id]), f)
    assert reconstruct(materialize(chain3, Const(chain3.elements[1]), 0)) == (True, None)


def test_differences_past_the_first_batch(chain2, pentagon):
    # meeting every variable differs from the constant 0 only at points
    # the first batch of the grid does not reach
    for lat, n in ((chain2, 10), (pentagon, 6)):
        sp = lat.point_space(n)
        meet_all = make_meet([Var(k) for k in range(1, n + 1)])
        zero = Const(lat.elements[0])
        f = materialize(lat, meet_all, n)
        assert f.values == brute_force_table(lat, meet_all, n)
        first = next(x for x, v in zip(sp.iter_points(), f.values) if v != 0)
        assert sp.encode(first) >= _BATCH
        assert equivalent(lat, meet_all, zero, n) == (False, first)
        values = list(f.values)
        if lat.distributive:
            assert reconstruct(f) == (True, None)
            values[600] = lat.top_id  # not monotone: 601 is above 600 and stays 0
            g = FunctionTable(lat, n, values)
            beta = extract_alpha(g)
            bad = next(
                x for x, v in zip(sp.iter_points(), values) if naive_dnf_evaluate(beta, x) != v
            )
            assert sp.encode(bad) == 601
            assert reconstruct(g) == (False, bad)
        else:
            # the normal form with the top coefficient at the full set only
            alpha = DNFMap(lat, n, [0] * ((1 << n) - 1) + [lat.top_id])
            assert dnf_membership(alpha, f)
            values[-2] = 0
            assert not dnf_membership(alpha, FunctionTable(lat, n, values))


# -- rendering -----------------------------------------------------------------


def test_dnf_lines(chain3):
    f = materialize(chain3, parse_term("med(x1, 'm', x2)", chain3, 2), 2)
    assert dnf_to_lines(extract_alpha(f)) == [
        "{} -> 0",
        "{1} -> m",
        "{2} -> m",
        "{1,2} -> 1",
    ]


def test_dnf_term_round_trips(chain3, b2):
    rng = random.Random(31)
    for lat in (chain3, b2):
        for _ in range(20):
            t = random_term(rng, lat, 2, max_depth=4)
            f = materialize(lat, t, 2)
            back = materialize(lat, dnf_to_term(extract_alpha(f)), 2)
            assert back.values == f.values


# -- refusals ------------------------------------------------------------------

CHAIN2 = chain(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: DNFMap(CHAIN2, 1, (0,)),
            ArityMismatchError,
            "coefficient map of arity 1 needs 2 entries, got 1",
            id="coefficient-count",
        ),
        pytest.param(
            lambda: dnf_evaluate(DNFMap(CHAIN2, 1, (0, 1)), (0, 0)),
            ArityMismatchError,
            "point has arity 2, coefficient map has 1",
            id="evaluate-arity",
        ),
        pytest.param(
            lambda: dnf_evaluate(DNFMap(CHAIN2, 1, (0, 1)), (2,)),
            InvalidParamsError,
            "point coordinate 1 is 2, not an element id 0..1",
            id="evaluate-id",
        ),
        pytest.param(
            lambda: dnf_membership(DNFMap(CHAIN2, 1, (0, 1)), FunctionTable(CHAIN2, 2, (0, 0, 0, 1))),
            ArityMismatchError,
            "coefficient map and table do not match",
            id="membership-arity",
        ),
        pytest.param(
            lambda: enumerate_dnf(FunctionTable(CHAIN2, 1, (0, 1)), mode="all"),
            InvalidParamsError,
            "mode must be 'count' or 'list', got 'all'",
            id="enumerate-mode",
        ),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
