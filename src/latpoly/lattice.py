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
from functools import cached_property
from heapq import heappop, heappush

from .errors import (
    CycleError,
    EmptyIntervalError,
    FormatError,
    InvalidParamsError,
    NoBoundsError,
    NotALatticeError,
    UnknownElementError,
)
from .points import PointSpace, check_arity

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
        _ensure_within_cap(m, max_size)
        if len(set(element_names)) != m:
            raise InvalidParamsError("element names must be unique")
        up = [sum(1 << j for j in range(m) if leq[i][j]) for i in range(m)]
        for i in range(m):
            if not up[i] >> i & 1:
                raise InvalidParamsError("order relation is not reflexive")
        for i in range(m):
            for j in _members(up[i] ^ 1 << i):
                if up[j] >> i & 1:
                    raise CycleError(
                        f"elements {element_names[i]!r} and "
                        f"{element_names[j]!r} order each other"
                    )
        for i in range(m):
            if any(up[j] & ~up[i] for j in _members(up[i])):
                raise InvalidParamsError("order relation is not transitive")
        # every order pair goes in; the path keeps the covers among them
        pairs = [(i, j) for i in range(m) for j in _members(up[i] ^ 1 << i)]
        self._build(name, element_names, pairs)

    @classmethod
    def _from_covers(cls, name, names, pairs):
        """The lattice ordered by the closure of ``pairs``, (low, high)
        positions in ``names``, which the caller has checked."""
        lat = cls.__new__(cls)
        lat._build(name, names, pairs)
        return lat

    # -- construction internals -------------------------------------------

    def _build(self, name, names, pairs):
        """The one construction path: Kahn's algorithm over the pairs gives
        the ids, the down rows are ORed forward along the pairs and the up
        rows backward, the pairs that are minimal in the rows are the
        covers, and meet and join are tabulated from the rows."""
        m = len(names)
        order = _linear_extension(names, pairs)
        new = [0] * m
        for k, p in enumerate(order):
            new[p] = k
        pairs = [(new[p], new[q]) for p, q in pairs]
        self.name = name
        self.m = m
        self.elements = tuple(Element(k, names[p]) for k, p in enumerate(order))
        self._id_by_name = {e.name: e.id for e in self.elements}
        self._down = down = _down_rows(range(m), pairs)
        self._up = up = _down_rows(range(m - 1, -1, -1), [(q, p) for p, q in pairs])

        # in a linear extension only id 0 can be a global minimum and only
        # id m-1 a global maximum
        full = (1 << m) - 1
        if up[0] != full or down[m - 1] != full:
            raise NoBoundsError(
                f"lattice {name!r} has no global "
                + ("minimum" if up[0] != full else "maximum")
            )
        self.bottom_id = 0
        self.top_id = m - 1

        self._meet_t, self._join_t = self._build_tables(up, down)
        covers_up, covers_down = [0] * m, [0] * m
        for p, q in pairs:
            if up[p] & down[q] == 1 << p | 1 << q:
                covers_up[p] |= 1 << q
                covers_down[q] |= 1 << p
        self.covers_up = [tuple(_members(row)) for row in covers_up]
        self.covers_down = [tuple(_members(row)) for row in covers_down]
        self.distributive = _join_irreducibles_prime(up, down, self.covers_down)
        self._cache = {}

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
        return bool(self._up[operator.index(a)] >> operator.index(b) & 1)

    def meet(self, a, b):
        return self._meet_t[operator.index(a)][operator.index(b)]

    def join(self, a, b):
        return self._join_t[operator.index(a)][operator.index(b)]

    def order_ops(self, a, b):
        """The triple (a <= b, a meet b, a join b)."""
        i, j = operator.index(a), operator.index(b)
        return bool(self._up[i] >> j & 1), self._meet_t[i][j], self._join_t[i][j]

    def med(self, x, y, z):
        """Ternary median (x v y) ^ (x v z) ^ (y v z); symmetric in all args."""
        i, j, k = operator.index(x), operator.index(y), operator.index(z)
        jt, mt = self._join_t, self._meet_t
        return mt[mt[jt[i][j]][jt[i][k]]][jt[j][k]]

    def interval(self, a, b):
        """All x with a <= x <= b, ascending by id. Raises if a is not below b."""
        i, j = operator.index(a), operator.index(b)
        if not self._up[i] >> j & 1:
            raise EmptyIntervalError(
                f"{self.elements[i].name!r} is not below {self.elements[j].name!r}"
            )
        # ids are a linear extension, so the interval lies in i..j
        row = self._up[i] & self._down[j]
        return [x for x in range(i, j + 1) if row >> x & 1]

    def truncate(self, point, c, direction):
        """Coordinate truncation of a point against a threshold element.

        ``below``: coordinates <= c collapse to bottom; ``above``:
        coordinates >= c collapse to top; all others are kept.
        """
        row = self._truncation_rows(direction)[operator.index(c)]
        return tuple(row[operator.index(d)] for d in point)

    def _truncation_rows(self, direction):
        """rows[c]: the digit map d -> [d]_c (``below``) or d -> [d]^c
        (``above``) of coordinate truncation against the element id c, as
        a list, for every c; built on first use and kept in the cache.
        The rows are shared with every caller and must not be written.

        Row c is a copy of the row of one lower cover p of c (upper cover,
        for ``above``) with bottom (top) written at the ids below (above)
        c but not below (above) p; the bottom's (top's) row is the identity.
        """
        if direction == "below":
            sets, covers, ids, end = self._down, self.covers_down, range(self.m), self.bottom_id
        elif direction == "above":
            sets, covers, ids, end = self._up, self.covers_up, range(self.m - 1, -1, -1), self.top_id
        else:
            raise InvalidParamsError(f"direction must be 'below' or 'above', got {direction!r}")
        key = ("truncation", direction)
        rows = self._cache.get(key)
        if rows is None:
            rows = [None] * self.m
            for c in ids:  # lower (upper) covers first
                if covers[c]:
                    p = covers[c][0]
                    row, new = rows[p][:], sets[c] & ~sets[p]
                else:
                    row, new = list(range(self.m)), 0
                for d in _members(new):
                    row[d] = end
                rows[c] = row
            self._cache[key] = rows
        return rows

    def upset_ids(self, v):
        """Ids of all elements above v, ascending."""
        return list(_members(self._up[operator.index(v)]))

    @cached_property
    def upsets(self):
        """upsets[v]: the ids above v, ascending, as a tuple; built on first use."""
        return tuple(tuple(_members(row)) for row in self._up)

    def point_space(self, n):
        """Shared PointSpace for arity n (cached).  Any n but an int is
        checked before the lookup, as 2.0 == 2 would find the n=2 space."""
        if type(n) is not int:
            n = check_arity(n)
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


def _ensure_within_cap(m, max_size):
    """Refuse m elements above the cap, before anything of size m is built."""
    if m > max_size:
        raise InvalidParamsError(
            f"{m} elements exceed the cap of {max_size}; pass max_size to raise it"
        )


def _members(bits):
    """Positions of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _cover_pairs(names, covers, what):
    """The (low, high) cover list as pairs of positions in ``names``, once
    the names are known to be distinct and each pair to join two declared
    names; in O(len(names) + len(covers))."""
    if not names:
        raise InvalidParamsError(f"a {what} needs at least one element")
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise InvalidParamsError(f"duplicate element names in {what}")
    pairs = []
    for low, high in covers:
        if low not in index or high not in index:
            missing = low if low not in index else high
            raise InvalidParamsError(f"cover pair references undeclared name {missing!r}")
        if low == high:
            raise CycleError(f"cover {low!r} < {high!r} relates an element to itself")
        pairs.append((index[low], index[high]))
    return pairs


def _linear_extension(names, pairs):
    """Kahn's algorithm over the (low, high) position pairs, taking the
    smallest ready position first.  A position never ready lies on a cycle
    or above one; the CycleError names the lowest two positions on a
    common cycle."""
    m = len(names)
    above = [[] for _ in range(m)]
    waiting = [0] * m
    for p, q in pairs:
        above[p].append(q)
        waiting[q] += 1
    ready = [p for p in range(m) if not waiting[p]]  # ascending, so a heap
    order = []
    while ready:
        p = heappop(ready)
        order.append(p)
        for q in above[p]:
            waiting[q] -= 1
            if not waiting[q]:
                heappush(ready, q)
    if len(order) == m:
        return order

    def reach(start):
        seen, stack = 0, list(above[start])
        while stack:
            v = stack.pop()
            if not seen >> v & 1:
                seen |= 1 << v
                stack += above[v]
        return seen

    i = next(i for i in range(m) if waiting[i] and reach(i) >> i & 1)
    j = next(j for j in _members(reach(i) ^ 1 << i) if reach(j) >> i & 1)
    raise CycleError(f"the covers create a cycle through {names[i]!r} and {names[j]!r}")


def _down_rows(order, pairs):
    """Each position's down-set as a bit row under the order generated by
    the (low, high) pairs: the positions are visited in ``order``, a linear
    extension, and each ORs in the rows of its lower ends.  Given the
    reversed extension and the flipped pairs, the up-sets."""
    lower = [[] for _ in order]
    for p, q in pairs:
        lower[q].append(p)
    rows = [0] * len(lower)
    for q in order:
        row = 1 << q
        for p in lower[q]:
            row |= rows[p]
        rows[q] = row
    return rows


def _join_irreducibles_prime(up, down, covers_down):
    """Birkhoff's criterion for distributivity: a finite lattice is
    distributive iff every join-irreducible j (exactly one lower cover) is
    join-prime, that is, the elements not above j have a join not above j.
    They form a down-set, so that join is in it exactly when the down-set
    is principal, generated by its highest id."""
    full = (1 << len(up)) - 1
    for j, lower in enumerate(covers_down):
        rest = full ^ up[j]
        if len(lower) == 1 and rest != down[rest.bit_length() - 1]:
            return False
    return True


def build_from_covers(name, names, covers, max_size=DEFAULT_MAX_ELEMENTS):
    """Build a lattice from element names plus a (low, high) cover list.

    The order is the reflexive-transitive closure of the covers; bottom and
    top are inferred.  Raises CycleError, NoBoundsError, or NotALatticeError
    when the closure is not a bounded lattice.
    """
    pairs = _cover_pairs(names, covers, "lattice")
    _ensure_within_cap(len(names), max_size)
    return FiniteLattice._from_covers(name, list(names), pairs)


# -- standard constructions -------------------------------------------------


def chain(k, max_size=DEFAULT_MAX_ELEMENTS):
    """Total order on k elements. The 3-chain is named 0 < m < 1."""
    if k < 2:
        raise InvalidParamsError("a chain needs at least 2 elements")
    _ensure_within_cap(k, max_size)
    if k == 2:
        names = ["0", "1"]
    elif k == 3:
        names = ["0", "m", "1"]
    else:
        names = ["0"] + [f"c{i}" for i in range(1, k - 1)] + ["1"]
    return FiniteLattice._from_covers(f"chain{k}", names, [(i, i + 1) for i in range(k - 1)])


def boolean(k, max_size=DEFAULT_MAX_ELEMENTS):
    """Boolean lattice of all subsets of k atoms (named a, b, c, ...)."""
    if k < 1:
        raise InvalidParamsError("a boolean lattice needs at least 1 atom")
    if k > len(_ATOM_LETTERS):
        raise InvalidParamsError(f"at most {len(_ATOM_LETTERS)} atoms supported")
    m = 1 << k
    _ensure_within_cap(m, max_size)
    full = m - 1

    def subset_name(mask):
        if mask == 0:
            return "0"
        if mask == full:
            return "1"
        return "".join(_ATOM_LETTERS[i] for i in range(k) if mask >> i & 1)

    names = [subset_name(s) for s in range(m)]
    pairs = [(s, s | 1 << i) for s in range(m) for i in range(k) if not s >> i & 1]
    return FiniteLattice._from_covers(f"B{k}", names, pairs)


def product(lat1, lat2, max_size=DEFAULT_MAX_ELEMENTS):
    """Direct product with the componentwise order."""
    _ensure_within_cap(lat1.m * lat2.m, max_size)
    m2 = lat2.m
    names = [f"({e1.name},{e2.name})" for e1 in lat1.elements for e2 in lat2.elements]
    # (x, y) sits at position x * m2 + y; a cover raises one side to a cover
    ids = [(x, y) for x in range(lat1.m) for y in range(m2)]
    pairs = [(x * m2 + y, c * m2 + y) for x, y in ids for c in lat1.covers_up[x]]
    pairs += [(x * m2 + y, x * m2 + c) for x, y in ids for c in lat2.covers_up[y]]
    return FiniteLattice._from_covers(f"{lat1.name}x{lat2.name}", names, pairs)


def downset_lattice(poset_names, poset_covers, name=None, max_size=DEFAULT_MAX_ELEMENTS):
    """Lattice of downward-closed subsets of a finite poset, ordered by inclusion.

    Always distributive; this is the generic way to produce distributive
    test fixtures of any shape.
    """
    p = len(poset_names)
    if p > 20:
        raise InvalidParamsError("downset construction supports at most 20 poset elements")
    pairs = _cover_pairs(poset_names, poset_covers, "poset")
    below = _down_rows(_linear_extension(poset_names, pairs), pairs)

    # a nonempty downset less a maximal element is a downset, so all are met
    downsets, seen = [0], {0}
    for mask in downsets:  # grows while it is read
        grown = {mask | 1 << j for j in range(p) if below[j] & ~mask == 1 << j} - seen
        seen |= grown
        downsets += grown
        if len(downsets) > max_size:
            raise InvalidParamsError(f"poset has more downsets than the cap of {max_size}")
    downsets.sort()

    def ds_name(mask):
        if mask == 0:
            return "{}"
        return "{" + ",".join(poset_names[i] for i in range(p) if mask >> i & 1) + "}"

    names = [ds_name(s) for s in downsets]
    # D is covered by D + {j} for each minimal j outside D
    at = {mask: i for i, mask in enumerate(downsets)}
    pairs = [
        (at[d], at[d | 1 << j]) for d in downsets for j in range(p) if below[j] & ~d == 1 << j
    ]
    return FiniteLattice._from_covers(name or "downsets", names, pairs)


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
    """Parse the lattice text format and construct the lattice.  The cap is
    checked on the elements line, before any cover is read."""
    name = None
    names = None
    covers = []
    state = "header"
    try:
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
                _ensure_within_cap(len(names), max_size)
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
