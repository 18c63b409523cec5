"""Disjunctive normal forms over a finite distributive lattice.

A coefficient map alpha assigns a lattice element to every subset I of
variable positions; it denotes the function

    x  ->  join over I of ( alpha(I) meet x_i for i in I )

with the empty meet read as the top element, so the empty-set summand is
the bare coefficient alpha({}).  The canonical coefficient map of a
function f is alpha_f(I) = f(e_I), where e_I is the 0/1 characteristic
vector of I; on a distributive lattice a function equals the normal form
of its own alpha_f exactly when it is a polynomial function, which makes
that round trip the designated polynomiality test here.

A normal form is evaluated as its term ``dnf_to_term``, which drops only
what x meet 1 = x, x join 0 = x, associativity and commutativity allow, so
it denotes the normal form on every lattice.  Each summand's term is
written by ``summand_term``; the normal-form enumeration in the oracle
tabulates those summands alone and joins each coefficient map's summand
tables pointwise.

The representations of a polynomial f on a distributive lattice are the
maps alpha with alpha^- <= alpha <= alpha_f pointwise, where alpha^-(I)
joins the join-irreducibles j for which I is a minimal subset with
j <= alpha_f(I).  The coefficient at each subset is chosen independently
of the others, so the representations are the Cartesian product of these
per-subset intervals, and counting them is a product with no enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice, product, tee
from math import prod
from operator import index, ne

from .budget import ensure_budget
from .errors import (
    ArityMismatchError,
    InvalidParamsError,
    LimitExceededError,
    NotDistributiveError,
    NotPolynomialError,
)
from .points import check_arity
from .terms import Const, Var, _tabulate, evaluate, make_join, make_meet

MAX_DNF_VARS = 20


def check_subset_arity(n):
    """`n` as an int if it is an arity of at most MAX_DNF_VARS positions,
    else InvalidParamsError: the one arity rule for work over subsets of
    the positions, applied before any budget charge."""
    arity = check_arity(n)
    if arity > MAX_DNF_VARS:
        raise InvalidParamsError(
            f"subset enumeration supports 0..{MAX_DNF_VARS} positions, got {n}"
        )
    return arity


def subset_masks(n):
    """All bitmasks over n positions, increasing cardinality then numeric;
    sorted afresh on each call, so only callers that read the order pay."""
    masks = range(1 << check_subset_arity(n))
    return tuple(sorted(masks, key=int.bit_count))  # stable: numeric within a size


def format_subset(mask):
    """Render a position bitmask as '{}', '{1}', '{1,3}', ... (1-based)."""
    if not mask:
        return "{}"
    bits = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ",".join(bits) + "}"


@dataclass(frozen=True)
class DNFMap:
    """Coefficient map 2^[n] -> L, stored densely indexed by bitmask as
    element ids; ids or Elements are accepted."""

    lattice: object
    arity: int
    coeffs: tuple

    def __post_init__(self):
        check_subset_arity(self.arity)
        coeffs = tuple(self.coeffs)
        if len(coeffs) != 1 << self.arity:
            raise ArityMismatchError(
                f"coefficient map of arity {self.arity} needs "
                f"{1 << self.arity} entries, got {len(coeffs)}"
            )
        coeffs = tuple(map(index, coeffs))
        if not (0 <= min(coeffs) and max(coeffs) < self.lattice.m):  # 2^n >= 1 entries
            raise InvalidParamsError("coefficient is not a valid element id")
        object.__setattr__(self, "coeffs", coeffs)


def extract_alpha(f):
    """The canonical coefficient map I -> f(e_I); defined for any table."""
    n = check_subset_arity(f.arity)
    top = f.lattice.top_id
    vals = f.values
    # bit k of the mask is coordinate k+1 of the 0/1 point e_I, whose grid
    # index is top times the sum of the strides of the coordinates in I
    offsets = [0]
    for s in f.space.strides:
        offsets += [o + s for o in offsets]
    return DNFMap(f.lattice, n, [vals[top * o] for o in offsets])


def dnf_evaluate(alpha, point):
    """Evaluate the normal form denoted by `alpha` at a point."""
    if len(point) != alpha.arity:
        raise ArityMismatchError(
            f"point has arity {len(point)}, coefficient map has {alpha.arity}"
        )
    return evaluate(alpha.lattice, dnf_to_term(alpha), point)


def _first_difference(lattice, term, points, values):
    """Index of the first of `points` where `term` differs from `values`, or None."""
    return next(compress(count(), map(ne, _tabulate(lattice, term, points), values)), None)


def dnf_membership(alpha, f, budget=None):
    """Does the normal form of `alpha` denote exactly `f`?

    On a distributive lattice f must be polynomial, since a function that
    is not has no normal form at all; the 0/1 reconstruction decides that
    by tabulating all |L|^n points.  Then every coefficient of alpha must
    lie in the choice set of its subset, which is read from the 0/1
    points.  Otherwise it falls back to the definitional pointwise
    comparison.
    """
    if alpha.lattice is not f.lattice or alpha.arity != f.arity:
        raise ArityMismatchError("coefficient map and table do not match")
    lat = f.lattice
    if lat.distributive:
        choices = _choices(f, budget)
        return choices is not None and all(a in c for a, c in zip(alpha.coeffs, choices))
    sp = lat.point_space(f.arity)
    ensure_budget(sp.size, budget, "pointwise normal-form comparison")
    return _first_difference(lat, dnf_to_term(alpha), sp.iter_points(), f.values) is None


def enumerate_dnf(f, mode="list", limit=None, budget=None):
    """All coefficient maps whose normal form denotes `f`.

    The representations are the product of the choice sets of the
    subsets, so mode='count' multiplies their sizes without enumerating
    (raising LimitExceededError past `limit`), and mode='list' returns up
    to `limit` DNFMaps in lexicographic order: subsets in subset_masks
    order, and ascending ids at each subset.
    """
    if mode not in ("count", "list"):
        raise InvalidParamsError(f"mode must be 'count' or 'list', got {mode!r}")
    choices = _choices(f, budget)
    if choices is None:
        raise NotPolynomialError(
            "the function has no normal-form representation; "
            "it is not a polynomial function"
        )
    count = prod(map(len, choices))
    if limit is not None and count > limit:
        if mode == "count":
            raise LimitExceededError(
                f"more than {limit} normal forms exist", lower_bound=limit + 1
            )
        count = limit
    if mode == "count":
        return count
    n = f.arity
    ensure_budget(count << n, budget, "normal-form enumeration")
    order = subset_masks(n)
    # the position of each mask in subset_masks order
    where = sorted(range(len(order)), key=order.__getitem__)
    combos = islice(product(*(choices[mask] for mask in order)), count)
    return [DNFMap(f.lattice, n, [combo[p] for p in where]) for combo in combos]


def _choices(f, budget):
    """Per subset mask I, the ids a with a v beta(I) = alpha_f(I); None
    when f is not polynomial.

    alpha denotes f exactly when alpha(I) v (join of alpha over the strict
    subsets of I) = alpha_f(I) at every I.  By induction on |I| that join
    is beta(I), the join of alpha_f over the strict subsets, whatever was
    chosen below, so each choice is independent.  f is monotone, so beta(I)
    joins alpha_f(I - {k}) over k in I."""
    alpha_f, bad = _reconstruction(f, budget)
    if bad is not None:
        return None
    lat = f.lattice
    m = lat.m
    ensure_budget((1 << f.arity) * m, budget, "normal-form enumeration")
    join_t = lat._join_t
    coeffs = alpha_f.coeffs
    choices = []
    for mask, target in enumerate(coeffs):
        beta = lat.bottom_id
        b = mask
        while b:
            low = b & -b
            beta = join_t[beta][coeffs[mask ^ low]]
            b ^= low
        row = join_t[beta]
        choices.append(tuple(a for a in range(m) if row[a] == target))
    return choices


def reconstruct(f, budget=None):
    """Rebuild f from its 0/1 restriction and compare pointwise.

    Returns (True, None) when the normal form of alpha_f reproduces f
    everywhere, else (False, first_disagreeing_point).  Sound and complete
    as a polynomiality test only on distributive lattices, hence the guard.
    """
    _, bad = _reconstruction(f, budget)
    return bad is None, bad


def _reconstruction(f, budget):
    """alpha_f, and the first point where its normal form differs from f
    (None when there is none)."""
    lat = f.lattice
    if not lat.distributive:
        raise NotDistributiveError(
            "0/1 reconstruction is only a valid polynomiality test on "
            "distributive lattices; use the closure oracle instead"
        )
    check_subset_arity(f.arity)  # before the budget
    sp = lat.point_space(f.arity)
    ensure_budget(sp.size + (1 << f.arity), budget, "normal-form reconstruction")
    alpha = extract_alpha(f)
    bad = _first_difference(lat, dnf_to_term(alpha), sp.iter_points(), f.values)
    return alpha, None if bad is None else sp.decode(bad)


def equivalent(lattice, t1, t2, arity, budget=None):
    """Do two terms denote the same function?

    On a distributive lattice the 2^n characteristic vectors decide (terms
    denote polynomial functions, and those are determined by their 0/1
    restriction); otherwise all |L|^n points are compared.  Returns
    (equal, first_differing_point_or_None).
    """
    arity = check_arity(arity)
    if lattice.distributive:
        bottom, top = lattice.bottom_id, lattice.top_id
        ensure_budget(2 << check_subset_arity(arity), budget, "0/1 term comparison")
        masks = subset_masks(arity)

        def point_at(i):
            return tuple(top if masks[i] >> k & 1 else bottom for k in range(arity))

        points = map(point_at, range(len(masks)))
    else:
        ensure_budget(2 * lattice.m ** arity, budget, "full-domain term comparison")
        sp = lattice.point_space(arity)
        points, point_at = sp.iter_points(), sp.decode
    points, again = tee(points)
    bad = _first_difference(lattice, t1, points, _tabulate(lattice, t2, again))
    return (True, None) if bad is None else (False, point_at(bad))


def dnf_to_lines(alpha):
    """Text rendering: one '{i,...} -> element' line per subset, by cardinality."""
    lat = alpha.lattice
    return [
        f"{format_subset(mask)} -> {lat.elements[alpha.coeffs[mask]].name}"
        for mask in subset_masks(alpha.arity)
    ]


def dnf_to_term(alpha):
    """A term denoting the normal form of `alpha` (bottom summands dropped)."""
    lat = alpha.lattice
    bottom = lat.bottom_id
    # numeric mask order: make_join sorts the summands by term_key anyway
    summands = [
        summand_term(lat, mask, coeff)
        for mask, coeff in enumerate(alpha.coeffs)
        if coeff != bottom
    ]
    if not summands:
        return Const(lat.elements[bottom])
    return make_join(summands)


def summand_term(lattice, mask, coeff):
    """The term of the summand coeff meet x_i for i in `mask`, as the
    normal form writes it: a top coefficient is dropped unless the mask is
    empty.  `coeff` is not bottom; a bottom summand adds nothing."""
    parts = [Var(k + 1) for k in range(mask.bit_length()) if mask >> k & 1]
    if coeff != lattice.top_id or not mask:
        parts.append(Const(lattice.elements[coeff]))
    return make_meet(parts)
