"""Lattice expressions: parsing, printing, evaluation, and tabulation.

Grammar (``&`` binds tighter than ``|``; ``med`` is a ternary primitive;
constants are quoted element names so one grammar serves every lattice)::

    term := or
    or   := and ("|" and)*
    and  := atom ("&" atom)*
    atom := VAR | CONST | "med(" term "," term "," term ")" | "(" term ")"
    VAR  := "x" [1-9][0-9]*
    CONST := "'" element-name "'"

Meet/Join nodes are n-ary and flattened; the parser and the factory
functions additionally sort children into a canonical order so that
formatting is deterministic and ``parse(format(t)) == t`` on canonical
trees.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product as iter_product

from .budget import ensure_budget
from .errors import (
    ArityMismatchError,
    BadIndexError,
    FormatError,
    InvalidParamsError,
    TermSyntaxError,
    UnknownElementError,
    VarOutOfRangeError,
)
from .lattice import Element, read_text_file


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """Projection onto the k-th coordinate, 1-based."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise VarOutOfRangeError(f"variable index {self.index} must be >= 1")


@dataclass(frozen=True)
class Const:
    """A fixed element of the ambient lattice."""

    element: Element


@dataclass(frozen=True)
class Meet:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Meet needs at least two subterms")
        if any(isinstance(c, Meet) for c in self.children):
            raise ValueError("nested Meet; build via make_meet")


@dataclass(frozen=True)
class Join:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Join needs at least two subterms")
        if any(isinstance(c, Join) for c in self.children):
            raise ValueError("nested Join; build via make_join")


@dataclass(frozen=True)
class Med:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) != 3:
            raise ValueError("med takes exactly three subterms")


def term_key(t):
    """Total structural order on terms, used for canonical child order."""
    if isinstance(t, Var):
        return (0, t.index)
    if isinstance(t, Const):
        return (1, t.element.id)
    if isinstance(t, Med):
        return (2, tuple(term_key(c) for c in t.children))
    if isinstance(t, Meet):
        return (3, tuple(term_key(c) for c in t.children))
    return (4, tuple(term_key(c) for c in t.children))


def _assoc_flatten(cls, terms):
    flat = []
    for t in terms:
        if isinstance(t, cls):
            flat.extend(t.children)
        else:
            flat.append(t)
    flat.sort(key=term_key)
    return flat


def make_meet(terms):
    """Canonical meet: flattens nested meets, sorts, collapses singletons."""
    flat = _assoc_flatten(Meet, terms)
    return flat[0] if len(flat) == 1 else Meet(tuple(flat))


def make_join(terms):
    """Canonical join: flattens nested joins, sorts, collapses singletons."""
    flat = _assoc_flatten(Join, terms)
    return flat[0] if len(flat) == 1 else Join(tuple(flat))


def make_med(a, b, c):
    return Med((a, b, c))


# -- parser ---------------------------------------------------------------


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise TermSyntaxError(
                    "unterminated element name", position=i, expected="closing '"
                )
            tokens.append(("const", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "med":
                tokens.append(("med", word, i))
            elif word[0] == "x" and word[1:].isdigit():
                tokens.append(("var", int(word[1:]), i))
            else:
                raise TermSyntaxError(
                    f"unexpected symbol {word!r}",
                    position=i,
                    expected="x<k>, 'name', or med(...)",
                )
            i = j
            continue
        raise TermSyntaxError(
            f"unexpected character {ch!r}", position=i, expected="a term"
        )
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, lattice, arity):
        self.tokens = tokens
        self.lattice = lattice
        self.arity = arity
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _take(self, kind, expected):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise TermSyntaxError(
                f"unexpected {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
                position=tok[2],
                expected=expected,
            )
        self.pos += 1
        return tok

    def parse(self):
        t = self._or()
        tok = self._peek()
        if tok[0] != "end":
            raise TermSyntaxError(
                f"unexpected {tok[1]!r}", position=tok[2], expected="end of input"
            )
        return t

    def _or(self):
        parts = [self._and()]
        while self._peek()[0] == "|":
            self.pos += 1
            parts.append(self._and())
        return make_join(parts)

    def _and(self):
        parts = [self._atom()]
        while self._peek()[0] == "&":
            self.pos += 1
            parts.append(self._atom())
        return make_meet(parts)

    def _atom(self):
        kind, value, pos = self._peek()
        if kind == "var":
            self.pos += 1
            if value < 1 or value > self.arity:
                raise VarOutOfRangeError(
                    f"x{value} is out of range for arity {self.arity}"
                )
            return Var(value)
        if kind == "const":
            self.pos += 1
            return Const(self.lattice.element(value))
        if kind == "med":
            self.pos += 1
            self._take("(", "'('")
            a = self._or()
            self._take(",", "','")
            b = self._or()
            self._take(",", "','")
            c = self._or()
            self._take(")", "')'")
            return make_med(a, b, c)
        if kind == "(":
            self.pos += 1
            t = self._or()
            self._take(")", "')'")
            return t
        raise TermSyntaxError(
            f"unexpected {value!r}" if kind != "end" else "unexpected end of input",
            position=pos,
            expected="a variable, constant, med(...), or '('",
        )


# parentheses a term may nest; parsing and evaluation recurse once per level
MAX_TERM_DEPTH = 100


def parse_term(text, lattice, arity):
    """Parse a term over `lattice` with variables x1..x<arity>."""
    tokens = _tokenize(text)
    depth = 0
    for kind, _, pos in tokens:
        depth += (kind == "(") - (kind == ")")
        if depth > MAX_TERM_DEPTH:
            raise TermSyntaxError(
                f"term nests deeper than {MAX_TERM_DEPTH} parentheses", position=pos
            )
    return _Parser(tokens, lattice, arity).parse()


def format_term(t):
    """Render a term; minimal parentheses under '&' over '|' precedence."""
    return _fmt(t, 0)


def _fmt(t, level):
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Const):
        return f"'{t.element.name}'"
    if isinstance(t, Med):
        a, b, c = t.children
        return f"med({_fmt(a, 0)}, {_fmt(b, 0)}, {_fmt(c, 0)})"
    if isinstance(t, Meet):
        body = " & ".join(_fmt(c, 2) for c in t.children)
        return f"({body})" if level > 1 else body
    body = " | ".join(_fmt(c, 1) for c in t.children)
    return f"({body})" if level > 0 else body


# -- evaluation ---------------------------------------------------------------


def _eval(t, meet_t, join_t, point):
    if isinstance(t, Var):
        k = t.index
        if k > len(point):
            raise ArityMismatchError(
                f"term uses x{k} but the point has arity {len(point)}"
            )
        return operator.index(point[k - 1])
    if isinstance(t, Const):
        return t.element.id
    if isinstance(t, Meet):
        it = iter(t.children)
        acc = _eval(next(it), meet_t, join_t, point)
        for c in it:
            acc = meet_t[acc][_eval(c, meet_t, join_t, point)]
        return acc
    if isinstance(t, Join):
        it = iter(t.children)
        acc = _eval(next(it), meet_t, join_t, point)
        for c in it:
            acc = join_t[acc][_eval(c, meet_t, join_t, point)]
        return acc
    a, b, c = t.children
    va = _eval(a, meet_t, join_t, point)
    vb = _eval(b, meet_t, join_t, point)
    vc = _eval(c, meet_t, join_t, point)
    return meet_t[meet_t[join_t[va][vb]][join_t[va][vc]]][join_t[vb][vc]]


def evaluate(lattice, term, point):
    """Evaluate a term at a point (ids or Elements); returns an element id."""
    return _eval(term, lattice._meet_t, lattice._join_t, point)


# -- explicit tables ---------------------------------------------------------


class FunctionTable:
    """Explicit map L^n -> L stored densely in point-grid order."""

    __slots__ = ("lattice", "arity", "values")

    def __init__(self, lattice, arity, values):
        values = tuple(operator.index(v) for v in values)
        if len(values) != lattice.m ** arity:
            raise ArityMismatchError(
                f"table of arity {arity} over {lattice.m} elements needs "
                f"{lattice.m ** arity} entries, got {len(values)}"
            )
        if values and not (0 <= min(values) and max(values) < lattice.m):
            raise InvalidParamsError("table entry is not a valid element id")
        self.lattice = lattice
        self.arity = arity
        self.values = values

    @property
    def space(self):
        return self.lattice.point_space(self.arity)

    def __call__(self, point):
        return self.values[self.space.encode(point)]

    def __eq__(self, other):
        return (
            isinstance(other, FunctionTable)
            and self.lattice is other.lattice
            and self.arity == other.arity
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.arity, self.values))

    def __repr__(self):
        names = [self.lattice.elements[v].name for v in self.values[:8]]
        tail = ", ..." if len(self.values) > 8 else ""
        return f"FunctionTable(n={self.arity}, [{', '.join(names)}{tail}])"


def materialize(lattice, term, arity, budget=None):
    """Evaluate a term at every point of L^n, in canonical point order."""
    ensure_budget(lattice.m ** arity, budget, "term tabulation")
    meet_t, join_t = lattice._meet_t, lattice._join_t
    points = lattice.point_space(arity).iter_points()
    return FunctionTable(lattice, arity, (_eval(term, meet_t, join_t, p) for p in points))


def substitute(f, k_indices, point):
    """Freeze the 1-based coordinates in `k_indices` at the values `point`
    takes there; the remaining coordinates keep their relative order."""
    n = f.arity
    lat = f.lattice
    frozen = sorted({operator.index(k) for k in k_indices})
    for k in frozen:
        if k < 1 or k > n:
            raise BadIndexError(f"coordinate {k} outside 1..{n}")
    if len(point) != n:
        raise ArityMismatchError(
            f"substitution point has arity {len(point)}, function has {n}"
        )
    frozen_set = set(frozen)
    free = [k for k in range(n) if (k + 1) not in frozen_set]
    sp = lat.point_space(n)
    base = sum(
        operator.index(point[k - 1]) * sp.strides[k - 1] for k in frozen
    )
    vals = []
    m = lat.m
    for y in iter_product(range(m), repeat=len(free)):
        idx = base
        for k0, d in zip(free, y):
            idx += d * sp.strides[k0]
        vals.append(f.values[idx])
    return FunctionTable(lat, len(free), vals)


def delta(f):
    """Diagonal restriction x -> f(x, ..., x) as a unary table."""
    if f.arity < 1:
        raise ArityMismatchError("diagonal needs arity >= 1")
    sp = f.space
    return FunctionTable(
        f.lattice, 1, (f.values[sp.diag_index(v)] for v in range(f.lattice.m))
    )


# -- table text format --------------------------------------------------------
#
#   table <n>
#   <x1> ... <xn> -> <value>
#
# One line per point, required complete, any order; '#' starts a comment.


def table_from_text(text, lattice, source="<table>"):
    arity = None
    entries = {}
    sp = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if arity is None:
            if tokens[0] != "table" or len(tokens) != 2 or not tokens[1].isdigit():
                raise FormatError("expected 'table <n>'", source, lineno)
            arity = int(tokens[1])
            if arity < 1:
                raise FormatError("table arity must be >= 1", source, lineno)
            sp = lattice.point_space(arity)
            continue
        if len(tokens) != arity + 2 or tokens[arity] != "->":
            raise FormatError(
                f"expected {arity} point coordinates, '->', and a value", source, lineno
            )
        try:
            coords = [lattice.element(nm).id for nm in tokens[:arity]]
            value = lattice.element(tokens[arity + 1]).id
        except UnknownElementError as exc:
            raise UnknownElementError(f"{source}:{lineno}: {exc}") from None
        idx = sp.encode(coords)
        if idx in entries:
            raise FormatError(
                f"duplicate entry for point {lattice.format_point(coords)}",
                source,
                lineno,
            )
        entries[idx] = value
    if arity is None:
        raise FormatError("missing 'table <n>' header", source)
    if len(entries) != sp.size:
        idx = 0
        while idx in entries:
            idx += 1
        raise FormatError(
            f"missing entry for point {lattice.format_point(sp.decode(idx))}", source
        )
    return FunctionTable(lattice, arity, (entries[i] for i in range(sp.size)))


def table_to_text(f):
    lat = f.lattice
    lines = [f"table {f.arity}"]
    for i, x in enumerate(f.space.iter_points()):
        coords = " ".join(lat.elements[d].name for d in x)
        lines.append(f"{coords} -> {lat.elements[f.values[i]].name}")
    return "\n".join(lines) + "\n"


def load_table(path, lattice):
    return table_from_text(read_text_file(path), lattice, source=str(path))


# -- random terms (for property tests and experiments) -------------------


def random_term(rng, lattice, arity, max_depth=5):
    """Seeded random term of bounded depth over the given lattice."""
    if max_depth <= 0 or rng.random() < 0.3:
        if arity >= 1 and rng.random() < 0.6:
            return Var(rng.randint(1, arity))
        return Const(rng.choice(lattice.elements))
    kind = rng.choice(("meet", "join", "med"))
    if kind == "med":
        return make_med(
            random_term(rng, lattice, arity, max_depth - 1),
            random_term(rng, lattice, arity, max_depth - 1),
            random_term(rng, lattice, arity, max_depth - 1),
        )
    width = rng.randint(2, 3)
    parts = [random_term(rng, lattice, arity, max_depth - 1) for _ in range(width)]
    return make_meet(parts) if kind == "meet" else make_join(parts)
