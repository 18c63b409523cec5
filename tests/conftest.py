import operator
from itertools import product

import pytest

from latpoly import boolean, chain, m3, n5
from latpoly.budget import ensure_budget
from latpoly.dnf import DNFMap, check_subset_arity, dnf_to_term
from latpoly.errors import ArityMismatchError, NotDistributiveError
from latpoly.oracle import FunctionSet, _monotone_assignments
from latpoly.terms import Const, FunctionTable, Join, Meet, Var, materialize


def naive_evaluate(lattice, term, point):
    """A term's value at one point by recursion over the term, the
    reference for the batched tabulation in latpoly.terms."""
    meet_t, join_t = lattice._meet_t, lattice._join_t

    def ev(t):
        if isinstance(t, Var):
            if t.index > len(point):
                raise ArityMismatchError(
                    f"term uses x{t.index} but the point has arity {len(point)}"
                )
            return operator.index(point[t.index - 1])
        if isinstance(t, Const):
            return t.element.id
        if isinstance(t, (Meet, Join)):
            op = meet_t if isinstance(t, Meet) else join_t
            it = iter(t.children)
            acc = ev(next(it))
            for c in it:
                acc = op[acc][ev(c)]
            return acc
        a, b, c = map(ev, t.children)
        return meet_t[meet_t[join_t[a][b]][join_t[a][c]]][join_t[b][c]]

    return ev(term)


def naive_dnf_evaluate(alpha, point):
    """The normal form of `alpha` at one point, joined summand by summand
    straight from the coefficients; the reference for dnf_evaluate."""
    lat = alpha.lattice
    meet_t, join_t = lat._meet_t, lat._join_t
    bottom, top = lat.bottom_id, lat.top_id
    coeffs = alpha.coeffs
    acc = coeffs[0]
    for mask in range(1, len(coeffs)):
        if acc == top:
            break
        v = coeffs[mask]
        if v == bottom:
            continue
        b = mask
        while b:
            k = (b & -b).bit_length() - 1
            v = meet_t[v][operator.index(point[k])]
            if v == bottom:
                break
            b &= b - 1
        acc = join_t[acc][v]
    return acc


def naive_substitute(f, k_indices, point):
    """The substitution of `point`'s values at the 1-based coordinates in
    `k_indices`, one point of the free coordinates at a time by stride
    arithmetic; the reference for latpoly.terms.substitute."""
    n = f.arity
    lat = f.lattice
    frozen = sorted({operator.index(k) for k in k_indices})
    free = [k for k in range(n) if (k + 1) not in frozen]
    strides = lat.point_space(n).strides
    base = sum(operator.index(point[k - 1]) * strides[k - 1] for k in frozen)
    vals = []
    for y in product(range(lat.m), repeat=len(free)):
        idx = base
        for k0, d in zip(free, y):
            idx += d * strides[k0]
        vals.append(f.values[idx])
    return FunctionTable(lat, len(free), vals)


def naive_enumerate_polynomials_distributive(lattice, n, budget=None):
    """The polynomial functions as the normal forms of the monotone
    coefficient maps, each whole normal form materialized as its term and
    charged as enumerate_polynomials_distributive charges it; the
    reference for that function's summand tables and walk of joins."""
    if not lattice.distributive:
        raise NotDistributiveError(
            "normal-form enumeration of polynomial functions needs a "
            "distributive lattice"
        )
    check_subset_arity(n)
    sp = lattice.point_space(n)
    ops = 0
    out = FunctionSet(lattice, n)
    lower = [[mask ^ (1 << k) for k in range(n) if mask >> k & 1] for mask in range(1 << n)]
    for coeffs in _monotone_assignments(lattice, lower):
        alpha = DNFMap(lattice, n, coeffs)
        ops += sp.size * len(coeffs)
        ensure_budget(ops, budget, "normal-form image enumeration")
        out.add(materialize(lattice, dnf_to_term(alpha), n, budget))
    return out


@pytest.fixture(scope="session")
def chain2():
    return chain(2)


@pytest.fixture(scope="session")
def chain3():
    return chain(3)


@pytest.fixture(scope="session")
def chain4():
    return chain(4)


@pytest.fixture(scope="session")
def chain5():
    return chain(5)


@pytest.fixture(scope="session")
def b2():
    return boolean(2)


@pytest.fixture(scope="session")
def pentagon():
    return n5()


@pytest.fixture(scope="session")
def diamond():
    return m3()


CHAIN3_LAT = """\
lattice chain3
elements: 0 m 1
covers:
0 < m
m < 1
"""

N5_LAT = """\
lattice N5
elements: 0 a b c 1
covers:
0 < a
a < b
b < 1
0 < c
c < 1
"""


@pytest.fixture()
def chain3_file(tmp_path):
    path = tmp_path / "chain3.lat"
    path.write_text(CHAIN3_LAT)
    return path


@pytest.fixture()
def n5_file(tmp_path):
    path = tmp_path / "n5.lat"
    path.write_text(N5_LAT)
    return path
