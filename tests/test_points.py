from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

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
