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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """All bitmasks over n positions, increasing cardinality then numeric."""
    if n < 0 or n > MAX_DNF_VARS:
        raise InvalidParamsError(
            f"subset enumeration supports 0..{MAX_DNF_VARS} positions, got {n}"
        )
    return tuple(sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s)))


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
        if self.arity < 0 or self.arity > MAX_DNF_VARS:
            raise InvalidParamsError(f"arity {self.arity} outside 0..{MAX_DNF_VARS}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 1 << self.arity:
            raise ArityMismatchError(
                f"coefficient map of arity {self.arity} needs "
                f"{1 << self.arity} entries, got {len(self.coeffs)}"
            )


def extract_alpha(f):
    """The canonical coefficient map I -> f(e_I); defined for any table."""
    n = f.arity
    if n > MAX_DNF_VARS:
        raise InvalidParamsError(f"arity {n} exceeds the subset-mask width {MAX_DNF_VARS}")
    top = f.lattice.top_id
    encode = f.space.encode
    vals = f.values
    # bit k of the mask is coordinate k+1 of the 0/1 point e_I
    coeffs = [
        vals[encode([top if mask >> k & 1 else 0 for k in range(n)])]
        for mask in range(1 << n)
    ]
    return DNFMap(f.lattice, n, coeffs)


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

    On a distributive lattice with polynomial f this is decided from the
    0/1 points alone: the running joins V_{J subseteq I} alpha(J) must
    reproduce alpha_f.  Otherwise it falls back to the definitional
    pointwise comparison.
    """
    if alpha.lattice is not f.lattice or alpha.arity != f.arity:
        raise ArityMismatchError("coefficient map and table do not match")
    lat = f.lattice
    n = f.arity
    if lat.distributive:
        alpha_f, bad = _reconstruction(f, budget)
        if bad is None:
            join_t = lat._join_t
            acc = list(alpha.coeffs)
            for k in range(n):
                bit = 1 << k
                for mask in range(1 << n):
                    if mask & bit:
                        acc[mask] = join_t[acc[mask]][acc[mask ^ bit]]
            return tuple(acc) == alpha_f.coeffs
    sp = lat.point_space(n)
    ensure_budget(sp.size, budget, "pointwise normal-form comparison")
    vals = f.values
    for i, x in enumerate(sp.iter_points()):
        if dnf_evaluate(alpha, x) != vals[i]:
            return False
    return True


def enumerate_dnf(f, mode="list", limit=None, budget=None):
    """All coefficient maps whose normal form denotes `f`.

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
