"""Finite bounded lattices with tabulated order, meet, and join.

Elements carry dense integer ids 0..m-1 arranged in a fixed linear
extension of the order (topological sort of the covers, ties broken by
declaration order).  The bottom therefore always has id 0 and the top id
m-1, and every exhaustive scan in the package is deterministic.  All
operations are table lookups; instances are immutable after construction
and safe to share between workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    CycleError,
    EmptyIntervalError,
    FormatError,
    InvalidParamsError,
    NoBoundsError,
    NotALatticeError,
    UnknownElementError,
)
from .points import PointSpace

DEFAULT_MAX_ELEMENTS = 256

_ATOM_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Element:
    """Named lattice element; usable directly as an index into the tables."""

    id: int
    name: str

    def __index__(self):
        return self.id

    def __str__(self):
        return self.name


class FiniteLattice:
    """Bounded lattice given extensionally, with meet/join precomputed.

    Public operations accept either raw ids or :class:`Element` values and
    return raw ids; use ``elements[i].name`` for display.
    """

    def __init__(self, name, element_names, leq, max_size=DEFAULT_MAX_ELEMENTS):
        """Build from a full reflexive-transitive order matrix.

        ``leq[i][j]`` refers to positions in ``element_names``; elements are
        re-indexed into a linear extension internally.  Most callers want
        :func:`build_from_covers` or one of the standard constructors.
        """
        m = len(element_names)
        if m == 0:
            raise InvalidParamsError("a lattice needs at least one element")
        if m > max_size:
            raise InvalidParamsError(
                f"{m} elements exceed the cap of {max_size}; "
                f"pass max_size to raise it"
            )
        if len(set(element_names)) != m:
            raise InvalidParamsError("element names must be unique")
        up, down = _order_rows(leq, m)
        for i in range(m):
            if not up[i] >> i & 1:
                raise InvalidParamsError("order relation is not reflexive")
        for i in range(m):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                raise CycleError(
                    f"elements {element_names[i]!r} and "
                    f"{element_names[next(_members(both))]!r} order each other"
                )
        for i in range(m):
            if any(up[j] & ~up[i] for j in _members(up[i])):
                raise InvalidParamsError("order relation is not transitive")

        order = _linear_extension(down)
        self.name = name
        self.m = m
        self.elements = tuple(
            Element(new_id, element_names[old]) for new_id, old in enumerate(order)
        )
        self._id_by_name = {e.name: e.id for e in self.elements}
        self._leq = [[leq[order[i]][order[j]] for j in range(m)] for i in range(m)]

        # in a linear extension only id 0 can be a global minimum and only
        # id m-1 a global maximum
        up, down = _order_rows(self._leq, m)
        full = (1 << m) - 1
        if up[0] != full or down[m - 1] != full:
            raise NoBoundsError(
                f"lattice {name!r} has no global "
                + ("minimum" if up[0] != full else "maximum")
            )
        self.bottom_id = 0
        self.top_id = m - 1

        self._meet_t, self._join_t = self._build_tables(up, down)
        self.covers_up = _build_covers(up, down)
        self.covers_down = _build_covers(down, up)
        self.distributive = _join_irreducibles_prime(up, self.covers_down, self._join_t)
        self._cache = {}

    # -- construction internals -------------------------------------------

    def _build_tables(self, up, down):
        m = self.m
        meet_t = [[0] * m for _ in range(m)]
        join_t = [[0] * m for _ in range(m)]
        for i in range(m):
            ui, di = up[i], down[i]
            for j in range(i, m):
                # ids are a linear extension, so a least upper bound, if it
                # exists, is the smallest id among the upper bounds
                uppers = ui & up[j]
                u0 = (uppers & -uppers).bit_length() - 1
                if uppers != up[u0]:
                    raise NotALatticeError(
                        f"elements {self.elements[i].name!r} and "
                        f"{self.elements[j].name!r} have no least upper bound",
                        pair=(i, j),
                    )
                # no glb check: two maximal common lower bounds r, s of i and j
                # have ids below i, and the earlier pair (r, s) has no least
                # upper bound, since any would be a larger common lower bound
                w0 = (di & down[j]).bit_length() - 1
                join_t[i][j] = join_t[j][i] = u0
                meet_t[i][j] = meet_t[j][i] = w0
        return meet_t, join_t

    # -- basic operations --------------------------------------------------

    def element(self, name):
        """Look up an Element by display name."""
        try:
            return self.elements[self._id_by_name[name]]
        except KeyError:
            raise UnknownElementError(
                f"{name!r} is not an element of lattice {self.name!r}"
            ) from None

    def leq(self, a, b):
        return self._leq[operator.index(a)][operator.index(b)]

    def meet(self, a, b):
        return self._meet_t[operator.index(a)][operator.index(b)]

    def join(self, a, b):
        return self._join_t[operator.index(a)][operator.index(b)]

    def order_ops(self, a, b):
        """The triple (a <= b, a meet b, a join b)."""
        i, j = operator.index(a), operator.index(b)
        return self._leq[i][j], self._meet_t[i][j], self._join_t[i][j]

    def med(self, x, y, z):
        """Ternary median (x v y) ^ (x v z) ^ (y v z); symmetric in all args."""
        i, j, k = operator.index(x), operator.index(y), operator.index(z)
        jt, mt = self._join_t, self._meet_t
        return mt[mt[jt[i][j]][jt[i][k]]][jt[j][k]]

    def interval(self, a, b):
        """All x with a <= x <= b, ascending by id. Raises if a is not below b."""
        i, j = operator.index(a), operator.index(b)
        if not self._leq[i][j]:
            raise EmptyIntervalError(
                f"{self.elements[i].name!r} is not below {self.elements[j].name!r}"
            )
        leq = self._leq
        return [x for x in range(self.m) if leq[i][x] and leq[x][j]]

    def truncate(self, point, c, direction):
        """Coordinate truncation of a point against a threshold element.

        ``below``: coordinates <= c collapse to bottom; ``above``:
        coordinates >= c collapse to top; all others are kept.
        """
        row = self.truncation_row(operator.index(c), direction)
        return tuple(row[operator.index(d)] for d in point)

    def truncation_row(self, c, direction):
        """The digit map d -> [d]_c (``below``) or d -> [d]^c (``above``)
        of coordinate truncation against the element id c, as a list."""
        leq = self._leq
        if direction == "below":
            return [self.bottom_id if leq[d][c] else d for d in range(self.m)]
        if direction == "above":
            return [self.top_id if leq[c][d] else d for d in range(self.m)]
        raise InvalidParamsError(f"direction must be 'below' or 'above', got {direction!r}")

    def upset_ids(self, v):
        """Ids of all elements above v, ascending."""
        lv = self._leq[operator.index(v)]
        return [w for w in range(self.m) if lv[w]]

    def point_space(self, n):
        """Shared PointSpace for arity n (cached)."""
        key = ("space", n)
        sp = self._cache.get(key)
        if sp is None:
            sp = self._cache[key] = PointSpace(self.m, n)
        return sp

    def format_point(self, point):
        return "(" + ",".join(self.elements[operator.index(d)].name for d in point) + ")"

    def __repr__(self):
        return (
            f"FiniteLattice({self.name!r}, m={self.m}, "
            f"distributive={self.distributive})"
        )


def _order_rows(leq, m):
    """Each position's up-set and down-set under ``leq``, as ints with bit j
    standing for position j."""
    up = [sum(1 << j for j in range(m) if leq[i][j]) for i in range(m)]
    down = [sum(1 << i for i in range(m) if leq[i][j]) for j in range(m)]
    return up, down


def _members(bits):
    """Positions of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _linear_extension(down):
    """Kahn's algorithm on the down-set rows; ties broken by position
    (declaration order)."""
    placed = 0
    order = []
    for _ in down:
        pick = next(
            i for i, d in enumerate(down)
            if not placed >> i & 1 and d & ~placed == 1 << i
        )
        order.append(pick)
        placed |= 1 << pick
    return order


def _build_covers(rows, dual):
    """For each i, the minimal members of rows[i] other than i, ascending:
    the upper covers when rows are up-sets and dual the down-sets, the lower
    covers the other way round."""
    covers = []
    for i, row in enumerate(rows):
        strict = row ^ (1 << i)
        covers.append(tuple(j for j in _members(strict) if strict & dual[j] == 1 << j))
    return covers


def _join_irreducibles_prime(up, covers_down, join_t):
    """Birkhoff's criterion for distributivity: a finite lattice is
    distributive iff every join-irreducible j (exactly one lower cover) is
    join-prime, that is, the join of all x with j not <= x is not >= j."""
    full = (1 << len(up)) - 1
    for j, lower in enumerate(covers_down):
        if len(lower) == 1:
            s = 0
            for x in _members(full ^ up[j]):
                s = join_t[s][x]
            if up[j] >> s & 1:
                return False
    return True


def _closure_from_covers(names, covers, what="lattice"):
    """Reflexive-transitive closure of a cover list; checks acyclicity."""
    m = len(names)
    if m == 0:
        raise InvalidParamsError(f"a {what} needs at least one element")
    if len(set(names)) != m:
        raise InvalidParamsError(f"duplicate element names in {what}")
    index = {nm: i for i, nm in enumerate(names)}
    adj = [[] for _ in range(m)]
    for low, high in covers:
        if low not in index or high not in index:
            missing = low if low not in index else high
            raise InvalidParamsError(f"cover pair references undeclared name {missing!r}")
        if low == high:
            raise CycleError(f"cover {low!r} < {high!r} relates an element to itself")
        adj[index[low]].append(index[high])
    leq = [[i == j for j in range(m)] for i in range(m)]
    for start in range(m):
        stack = list(adj[start])
        row = leq[start]
        while stack:
            v = stack.pop()
            if not row[v]:
                row[v] = True
                stack.extend(adj[v])
    for i in range(m):
        for j in range(i + 1, m):
            if leq[i][j] and leq[j][i]:
                raise CycleError(
                    f"the covers create a cycle through {names[i]!r} and {names[j]!r}"
                )
    return leq


def build_from_covers(name, names, covers, max_size=DEFAULT_MAX_ELEMENTS):
    """Build a lattice from element names plus a (low, high) cover list.

    The order is the reflexive-transitive closure of the covers; bottom and
    top are inferred.  Raises CycleError, NoBoundsError, or NotALatticeError
    when the closure is not a bounded lattice.
    """
    leq = _closure_from_covers(names, covers)
    return FiniteLattice(name, list(names), leq, max_size=max_size)


# -- standard constructions -------------------------------------------------


def chain(k, max_size=DEFAULT_MAX_ELEMENTS):
    """Total order on k elements. The 3-chain is named 0 < m < 1."""
    if k < 2:
        raise InvalidParamsError("a chain needs at least 2 elements")
    if k == 2:
        names = ["0", "1"]
    elif k == 3:
        names = ["0", "m", "1"]
    else:
        names = ["0"] + [f"c{i}" for i in range(1, k - 1)] + ["1"]
    leq = [[i <= j for j in range(k)] for i in range(k)]
    return FiniteLattice(f"chain{k}", names, leq, max_size=max_size)


def boolean(k, max_size=DEFAULT_MAX_ELEMENTS):
    """Boolean lattice of all subsets of k atoms (named a, b, c, ...)."""
    if k < 1:
        raise InvalidParamsError("a boolean lattice needs at least 1 atom")
    if k > len(_ATOM_LETTERS):
        raise InvalidParamsError(f"at most {len(_ATOM_LETTERS)} atoms supported")
    m = 1 << k
    full = m - 1

    def subset_name(mask):
        if mask == 0:
            return "0"
        if mask == full:
            return "1"
        return "".join(_ATOM_LETTERS[i] for i in range(k) if mask >> i & 1)

    names = [subset_name(s) for s in range(m)]
    leq = [[(i & j) == i for j in range(m)] for i in range(m)]
    return FiniteLattice(f"B{k}", names, leq, max_size=max_size)


def product(lat1, lat2, max_size=DEFAULT_MAX_ELEMENTS):
    """Direct product with the componentwise order."""
    names = []
    pairs = []
    for e1 in lat1.elements:
        for e2 in lat2.elements:
            names.append(f"({e1.name},{e2.name})")
            pairs.append((e1.id, e2.id))
    m = len(pairs)
    if m > max_size:
        raise InvalidParamsError(
            f"product has {m} elements, above the cap of {max_size}"
        )
    l1, l2 = lat1._leq, lat2._leq
    leq = [
        [l1[a1][b1] and l2[a2][b2] for (b1, b2) in pairs]
        for (a1, a2) in pairs
    ]
    return FiniteLattice(f"{lat1.name}x{lat2.name}", names, leq, max_size=max_size)


def downset_lattice(poset_names, poset_covers, name=None, max_size=DEFAULT_MAX_ELEMENTS):
    """Lattice of downward-closed subsets of a finite poset, ordered by inclusion.

    Always distributive; this is the generic way to produce distributive
    test fixtures of any shape.
    """
    p = len(poset_names)
    if p > 20:
        raise InvalidParamsError("downset construction supports at most 20 poset elements")
    leq = _closure_from_covers(poset_names, poset_covers, what="poset")
    below = _order_rows(leq, p)[1]

    downsets = []
    for mask in range(1 << p):
        if all(mask & below[j] == below[j] for j in range(p) if mask >> j & 1):
            downsets.append(mask)
    if len(downsets) > max_size:
        raise InvalidParamsError(
            f"poset has {len(downsets)} downsets, above the cap of {max_size}"
        )

    def ds_name(mask):
        if mask == 0:
            return "{}"
        return "{" + ",".join(poset_names[i] for i in range(p) if mask >> i & 1) + "}"

    names = [ds_name(s) for s in downsets]
    order = [[(a & b) == a for b in downsets] for a in downsets]
    return FiniteLattice(name or "downsets", names, order, max_size=max_size)


def n5(max_size=DEFAULT_MAX_ELEMENTS):
    """The pentagon: the smallest non-modular (hence non-distributive) lattice."""
    return build_from_covers(
        "N5",
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
        max_size=max_size,
    )


def m3(max_size=DEFAULT_MAX_ELEMENTS):
    """The diamond: three pairwise-incomparable atoms under a common top."""
    return build_from_covers(
        "M3",
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        max_size=max_size,
    )


def standard_lattice(kind, *params, max_size=DEFAULT_MAX_ELEMENTS):
    """Dispatch to the named standard construction.

    Kinds: chain(k), boolean(k), product(L1, L2), downset(names, covers),
    N5, M3.
    """
    kind = str(kind).lower()
    try:
        if kind == "chain":
            (k,) = params
            return chain(k, max_size=max_size)
        if kind == "boolean":
            (k,) = params
            return boolean(k, max_size=max_size)
        if kind == "product":
            l1, l2 = params
            return product(l1, l2, max_size=max_size)
        if kind == "downset":
            names, covers = params
            return downset_lattice(names, covers, max_size=max_size)
        if kind == "n5":
            if params:
                raise InvalidParamsError("N5 takes no parameters")
            return n5(max_size=max_size)
        if kind == "m3":
            if params:
                raise InvalidParamsError("M3 takes no parameters")
            return m3(max_size=max_size)
    except ValueError as exc:
        raise InvalidParamsError(f"bad parameters for {kind!r}: {exc}") from None
    raise InvalidParamsError(f"unknown lattice kind {kind!r}")


# -- text format --------------------------------------------------------------
#
#   lattice <name>
#   elements: <name> <name> ...
#   covers:
#   <low> < <high>
#
# Whitespace-separated; '#' starts a comment line; bottom/top are inferred.


def lattice_from_text(text, source="<lattice>", max_size=DEFAULT_MAX_ELEMENTS):
    """Parse the lattice text format and construct the lattice."""
    name = None
    names = None
    covers = []
    state = "header"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if state == "header":
            if tokens[0] != "lattice" or len(tokens) != 2:
                raise FormatError("expected 'lattice <name>'", source, lineno)
            name = tokens[1]
            state = "elements"
        elif state == "elements":
            if tokens[0] != "elements:" or len(tokens) < 2:
                raise FormatError("expected 'elements: <name> ...'", source, lineno)
            names = tokens[1:]
            state = "covers-header"
        elif state == "covers-header":
            if tokens != ["covers:"]:
                raise FormatError("expected 'covers:'", source, lineno)
            state = "covers"
        else:
            if len(tokens) != 3 or tokens[1] != "<":
                raise FormatError("expected '<low> < <high>'", source, lineno)
            covers.append((tokens[0], tokens[2]))
    if state != "covers":
        raise FormatError(f"incomplete lattice description (stopped at {state})", source)
    try:
        return build_from_covers(name, names, covers, max_size=max_size)
    except InvalidParamsError as exc:
        raise FormatError(str(exc), source) from exc


def lattice_to_text(lat):
    """Serialize in the lattice text format; round-trips element order."""
    lines = [
        f"lattice {lat.name}",
        "elements: " + " ".join(e.name for e in lat.elements),
        "covers:",
    ]
    for i, ups in enumerate(lat.covers_up):
        for j in ups:
            lines.append(f"{lat.elements[i].name} < {lat.elements[j].name}")
    return "\n".join(lines) + "\n"


def read_text_file(path):
    """The text of a lattice or table file; a FormatError naming the file
    when its bytes are not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path)) from exc


def load_lattice(path, max_size=DEFAULT_MAX_ELEMENTS):
    return lattice_from_text(read_text_file(path), source=str(path), max_size=max_size)
