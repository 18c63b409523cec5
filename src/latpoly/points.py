"""Dense mixed-radix indexing of the point grid L^n.

Coordinate 1 is the most significant digit, digits run over element ids in
their canonical order.  Because element ids form a linear extension of the
lattice order, the enumeration order (= itertools.product order) is itself
a linear extension of the componentwise order on L^n: whenever x <= y
componentwise, x is enumerated no later than y.  All witnesses elsewhere in
the package are "first in this order".
"""

import itertools
import operator


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
        # index step between (c,...,c) and (c+1,...,c+1)
        self.diag_stride = (self.size - 1) // (m - 1) if m > 1 else 0

    def iter_points(self):
        return itertools.product(range(self.m), repeat=self.n)

    def encode(self, point):
        idx = 0
        for d in point:
            idx = idx * self.m + operator.index(d)
        return idx

    def decode(self, index):
        digits = []
        for s in self.strides:
            digits.append(index // s)
            index %= s
        return tuple(digits)

    def diag_index(self, v):
        """Index of the constant point (v, ..., v)."""
        return v * self.diag_stride
