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

The representations of a polynomial f on a distributive lattice are the
maps alpha with alpha^- <= alpha <= alpha_f pointwise, where alpha^-(I)
joins the join-irreducibles j for which I is a minimal subset with
j <= alpha_f(I).  The coefficient at each subset is chosen independently
of the others, so the representations are the Cartesian product of these
per-subset intervals, and counting them is a product with no enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from math import prod

from .budget import ensure_budget
from .errors import (
    ArityMismatchError,
    InvalidParamsError,
    LimitExceededError,
    NotDistributiveError,
    NotPolynomialError,
)
from .terms import Const, Var, evaluate, make_join, make_meet

MAX_DNF_VARS = 20


@lru_cache(maxsize=None)
def subset_masks(n):
    """All bitmasks over n positions, increasing cardinality then numeric.

    This is the one arity rule for work over subsets of the positions:
    each such function calls it before charging the budget."""
    if n < 0 or n > MAX_DNF_VARS:
        raise InvalidParamsError(
            f"subset enumeration supports 0..{MAX_DNF_VARS} positions, got {n}"
        )
    return tuple(sorted(range(1 << n), key=int.bit_count))  # stable: numeric within a size


def format_subset(mask):
    """Render a position bitmask as '{}', '{1}', '{1,3}', ... (1-based)."""
    if not mask:
        return "{}"
    bits = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ",".join(bits) + "}"


@dataclass(frozen=True)
class DNFMap:
    """Coefficient map 2^[n] -> L, stored densely indexed by bitmask."""

    lattice: object
    arity: int
    coeffs: tuple

    def __post_init__(self):
        subset_masks(self.arity)  # the arity rule: raises past the mask width
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 1 << self.arity:
            raise ArityMismatchError(
                f"coefficient map of arity {self.arity} needs "
                f"{1 << self.arity} entries, got {len(self.coeffs)}"
            )


def extract_alpha(f):
    """The canonical coefficient map I -> f(e_I); defined for any table."""
    n = f.arity
    subset_masks(n)  # the arity rule: raises past the mask width
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
    lat = alpha.lattice
    meet_t, join_t = lat._meet_t, lat._join_t
    bottom, top = lat.bottom_id, lat.top_id
    coeffs = alpha.coeffs
    acc = coeffs[0]
    for mask in range(1, len(coeffs)):
        v = coeffs[mask]
        if v == bottom:
            continue
        b = mask
        while b:
            k = (b & -b).bit_length() - 1
            v = meet_t[v][point[k]]
            if v == bottom:
                break
            b &= b - 1
        acc = join_t[acc][v]
        if acc == top:
            break
    return acc


def dnf_membership(alpha, f, budget=None):
    """Does the normal form of `alpha` denote exactly `f`?

    On a distributive lattice this is decided from the 0/1 points alone:
    every coefficient of alpha must lie in the choice set of its subset,
    and a function that is not polynomial has no normal form at all.
    Otherwise it falls back to the definitional pointwise comparison.
    """
    if alpha.lattice is not f.lattice or alpha.arity != f.arity:
        raise ArityMismatchError("coefficient map and table do not match")
    lat = f.lattice
    if lat.distributive:
        choices = _choices(f, budget)
        return choices is not None and all(a in c for a, c in zip(alpha.coeffs, choices))
    sp = lat.point_space(f.arity)
    ensure_budget(sp.size, budget, "pointwise normal-form comparison")
    vals = f.values
    for i, x in enumerate(sp.iter_points()):
        if dnf_evaluate(alpha, x) != vals[i]:
            return False
    return True


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
    subset_masks(f.arity)  # the arity rule comes before the budget
    sp = lat.point_space(f.arity)
    ensure_budget(sp.size + (1 << f.arity), budget, "normal-form reconstruction")
    alpha = extract_alpha(f)
    vals = f.values
    for i, x in enumerate(sp.iter_points()):
        if dnf_evaluate(alpha, x) != vals[i]:
            return alpha, tuple(x)
    return alpha, None


def equivalent(lattice, t1, t2, arity, budget=None):
    """Do two terms denote the same function?

    On a distributive lattice the 2^n characteristic vectors decide (terms
    denote polynomial functions, and those are determined by their 0/1
    restriction); otherwise all |L|^n points are compared.  Returns
    (equal, first_differing_point_or_None).
    """
    if lattice.distributive:
        bottom, top = lattice.bottom_id, lattice.top_id
        masks = subset_masks(arity)
        ensure_budget(2 * len(masks), budget, "0/1 term comparison")
        for mask in masks:
            point = tuple(
                top if mask >> k & 1 else bottom for k in range(arity)
            )
            if evaluate(lattice, t1, point) != evaluate(lattice, t2, point):
                return False, point
        return True, None
    ensure_budget(2 * lattice.m ** arity, budget, "full-domain term comparison")
    for x in lattice.point_space(arity).iter_points():
        if evaluate(lattice, t1, x) != evaluate(lattice, t2, x):
            return False, tuple(x)
    return True, None


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
    bottom, top = lat.bottom_id, lat.top_id
    summands = []
    for mask in subset_masks(alpha.arity):
        coeff = alpha.coeffs[mask]
        if coeff == bottom:
            continue
        parts = []
        if coeff != top or mask == 0:
            parts.append(Const(lat.elements[coeff]))
        parts.extend(
            Var(k + 1) for k in range(alpha.arity) if mask >> k & 1
        )
        summands.append(make_meet(parts) if len(parts) > 1 else parts[0])
    if not summands:
        return Const(lat.elements[bottom])
    return make_join(summands)
