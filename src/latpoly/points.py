"""Dense mixed-radix indexing of the point grid L^n.

Coordinate 1 is the most significant digit, digits run over element ids in
their canonical order.  Because element ids form a linear extension of the
lattice order, the enumeration order (= itertools.product order) is itself
a linear extension of the componentwise order on L^n: whenever x <= y
componentwise, x is enumerated no later than y.  All witnesses elsewhere in
the package are "first in this order".

`PointSpace.indices` is the one rule that turns points into grid indices:
every sub-grid read elsewhere (a point, the image of a unary map, a
substitution) is a product of digit lists, one per coordinate.
"""

import itertools
import operator

from .errors import ArityMismatchError, InvalidParamsError


def point_ids(point, m):
    """`point`, ids or Elements, as a tuple of ids; InvalidParamsError
    unless every id lies in 0..m-1."""
    point = tuple(map(operator.index, point))
    for k, d in enumerate(point, 1):
        if not 0 <= d < m:
            raise InvalidParamsError(f"point coordinate {k} is {d}, not an element id 0..{m - 1}")
    return point


class PointSpace:
    """Index arithmetic for the n-fold power of an m-element carrier."""

    def __init__(self, m, n):
        if m < 1:
            raise ValueError("carrier must have at least one element")
        if n < 0:
            raise ValueError("arity must be non-negative")
        self.m = m
        self.n = n
        self.size = m ** n
        strides = []
        s = 1
        for _ in range(n):
            strides.append(s)
            s *= m
        self.strides = tuple(reversed(strides))

    def iter_points(self):
        return itertools.product(range(self.m), repeat=self.n)

    def indices(self, digits):
        """The grid indices of the points whose coordinate k+1 ranges over
        digits[k], for all n coordinates, in itertools.product order."""
        m = self.m
        idx = [0]
        for ds in digits:
            idx = [a * m + d for a in idx for d in ds]
        return idx

    def check(self, point):
        """`point_ids(point, m)` for a point of n coordinates, else ArityMismatchError."""
        if len(point) != self.n:
            raise ArityMismatchError(f"point has arity {len(point)}, expected {self.n}")
        return point_ids(point, self.m)

    def encode(self, point):
        return self.indices([(d,) for d in self.check(point)])[0]

    def decode(self, index):
        return tuple(index // s % self.m for s in self.strides)

    def diag_index(self, v):
        """Index of the constant point (v, ..., v)."""
        return self.indices([(v,)] * self.n)[0]
