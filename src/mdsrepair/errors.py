"""Exception hierarchy shared by all modules.

Every error raised on purpose by this package derives from
:class:`RepairToolError`, so callers (and the CLI) can classify failures
without string matching.
"""

import itertools


class RepairToolError(Exception):
    """Base class for all package errors.

    ``exit_code`` is the CLI's exit status for the error: 3 (malformed
    input) unless a subclass sets 2 (parameter rejection) or 4 (budget
    exceeded).
    """

    exit_code = 3

    def __reduce__(self):  # so a worker process hands it over intact
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    """The error ``cls(...)`` made, whatever arguments its __init__ takes."""
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class InternalInconsistency(RepairToolError):
    """A property that is mathematically guaranteed failed to verify.

    This always indicates a bug in the implementation, never bad input.
    """


class BadParameters(RepairToolError):
    """A parameter the user chose is refused; the construction gates'
    errors below are its subclasses."""

    exit_code = 2


# ---------------------------------------------------------------------------
# field tower construction and element arithmetic


class NonPrime(BadParameters):
    def __init__(self, p):
        self.p = p
        super().__init__(f"p = {p} is not prime")


class ReduciblePolynomial(BadParameters):
    def __init__(self, which, coeffs):
        self.which = which
        self.coeffs = tuple(coeffs)
        super().__init__(f"{which} = {list(coeffs)} is reducible")


class DegreeMismatch(BadParameters):
    pass


class LevelMismatch(RepairToolError):
    """An element code is out of range for the field it was used in."""


class DivisionByZero(RepairToolError, ZeroDivisionError):
    pass


# ---------------------------------------------------------------------------
# matrices and subspaces


class BadShape(RepairToolError):
    pass


class AmbientMismatch(RepairToolError):
    pass


class BadRank(RepairToolError):
    pass


# ---------------------------------------------------------------------------
# code skeletons and realizations


class WrongAmbient(RepairToolError):
    pass


class WrongNodeDim(RepairToolError):
    pass


class TooFewNodes(RepairToolError):
    pass


class PointOutsideNode(RepairToolError):
    pass


class DuplicatePoint(RepairToolError):
    pass


class NotSpanning(RepairToolError):
    pass


class NotMds(RepairToolError):
    def __init__(self, witness=None):
        self.witness = witness
        msg = "code skeleton is not MDS"
        if witness is not None:
            msg += f" (nodes {sorted(witness)} do not span)"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# repair schemes and brute force


class NotARepairMatrix(RepairToolError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"matrix does not repair node {node}: M*H_i is singular")


class BudgetExceeded(RepairToolError):
    """More work asked for than a budget or cap allows; ``what`` names the unit."""

    exit_code = 4

    def __init__(self, count, what="candidates",
                 remedy="pass an explicit index range or raise the budget"):
        self.count, self.what, self.remedy = count, what, remedy
        super().__init__(f"enumeration of {count} {what} exceeds the budget; "
                         f"{remedy}")


# ---------------------------------------------------------------------------
# curve construction parameter gate


class EllTooSmall(BadParameters):
    pass


class Nondivisible(BadParameters):
    pass


class QuotientTooSmall(BadParameters):
    pass


class RExceedsQ(BadParameters):
    pass


class LengthOutOfRange(BadParameters):
    def __init__(self, n, minimum, maximum):
        self.n = n
        self.minimum = minimum
        self.maximum = maximum
        super().__init__(f"length n={n} outside the constructible range "
                         f"[{minimum}, {maximum}]")


class ZeroB(RepairToolError):
    pass


# ---------------------------------------------------------------------------
# simulation and persistence


class NotACodeword(RepairToolError):
    pass


class MalformedInput(RepairToolError):
    """A persisted file failed structural validation on load."""


def json_ints(value, name: str, depth: int = 0):
    """``value`` if it is a JSON integer, or ``depth`` levels of lists of them.

    A JSON integer is a Python int that is not a bool: ``json`` reads 1.5,
    true and "1" as float, bool and str, which int() or an int64 array
    would silently take as 1.  Anything else raises MalformedInput naming
    ``name``.
    """
    level = [value]
    for _ in range(depth):
        if not set(map(type, level)) <= {list}:
            raise MalformedInput(f"{name} must be {depth} levels of lists")
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int}:
        raise MalformedInput(f"{name} must hold JSON integers only")
    return value
