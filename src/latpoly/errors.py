"""Exception types shared across the package."""

import math


class LatPolyError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(LatPolyError):
    """A constructor or operation was called with unusable parameters."""


class CycleError(LatPolyError):
    """The declared cover relation is not acyclic."""


class NotALatticeError(LatPolyError):
    """Some pair of elements lacks a unique meet or join."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NoBoundsError(LatPolyError):
    """The order has no global minimum or maximum."""


class EmptyIntervalError(LatPolyError):
    """An interval [a, b] was requested although a is not below b."""


class FormatError(LatPolyError):
    """A text input (lattice or table file) violates its format."""

    def __init__(self, message, source=None, line=None):
        where = ""
        if source is not None:
            where = source if line is None else f"{source}:{line}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.source = source
        self.line = line


class TermSyntaxError(LatPolyError):
    """Term text failed to parse."""

    def __init__(self, message, position=None, expected=None):
        if position is not None:
            message = f"{message} at position {position}"
        if expected is not None:
            message = f"{message} (expected {expected})"
        super().__init__(message)
        self.position = position
        self.expected = expected


class UnknownElementError(LatPolyError):
    """A name does not denote an element of the lattice at hand."""


class VarOutOfRangeError(LatPolyError):
    """A variable index is zero or exceeds the declared arity."""


class ArityMismatchError(LatPolyError):
    """Arities of a function, term, or point disagree."""


class BadIndexError(LatPolyError):
    """A coordinate index is outside 1..n."""


class BudgetExceededError(LatPolyError):
    """An exhaustive scan would exceed the evaluation budget."""

    def __init__(self, required, allowed, what="operation"):
        super().__init__(
            f"{what} needs {_count_text(required)} point evaluations "
            f"but the budget allows {_count_text(allowed)}"
        )
        self.required = required
        self.allowed = allowed


def _count_text(count):
    """Exact digits below 10^18, else "about 10^k"; a count such as |L|^n
    can have more digits than int-to-str conversion allows."""
    return str(count) if count < 10**18 else f"about 10^{int(math.log10(count))}"


class NotPolynomialError(LatPolyError):
    """The function admits no representation by meets, joins, and constants."""


class LimitExceededError(LatPolyError):
    """An enumeration hit its result limit; carries the count so far."""

    def __init__(self, message, lower_bound):
        super().__init__(message)
        self.lower_bound = lower_bound


class NotDistributiveError(LatPolyError):
    """The operation is only sound on distributive lattices."""


class HypothesisViolatedError(LatPolyError):
    """A checker's hypothesis fails, e.g. f(bottom,...) not below f(top,...)."""


class NotNonDistributiveError(LatPolyError):
    """A counterexample search was started on a distributive lattice."""
