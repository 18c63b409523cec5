import operator

import pytest

from latpoly import boolean, chain, m3, n5
from latpoly.errors import ArityMismatchError
from latpoly.terms import Const, Join, Meet, Var


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
