"""Exception hierarchy.

Three families matter to callers: input problems (bad notation, bad job
documents), resource caps, and internal invariant violations.  The CLI
maps them to process exit codes 2, 3 and 4 respectively.
"""


class HurwitzError(Exception):
    """Base class for all errors raised by this package."""


# -- input / parse problems (exit code 2) -----------------------------------

class InputError(HurwitzError):
    """Malformed or semantically invalid input."""


class CycleSyntaxError(InputError):
    """Cycle notation that does not match the grammar (e.g. unbalanced parens)."""


class RepeatedPoint(InputError):
    """A point occurs twice in one disjoint-cycle expression."""


class PointOutOfRange(InputError):
    """A point in cycle notation is < 1 or exceeds the degree."""


class DegreeMismatch(InputError):
    """Operands act on different numbers of points."""


class NotASubgroup(InputError):
    """The claimed subgroup is not contained in (or not a subgroup of) the group."""


class DomainSizeMismatch(InputError):
    """Two actions live on domains of different sizes."""


class IndexOutOfRange(InputError):
    """A move index outside {1, ..., n-1}."""


class SchemaError(InputError):
    """A job document that does not match the published schema."""


class IntransitiveGroup(InputError):
    """The generated group does not act transitively on the points."""


class TypeMultiplicityMismatch(InputError):
    """Branching-type multiplicities do not sum to the branch count."""


# -- resource caps (exit code 3) ---------------------------------------------

class CapExceeded(HurwitzError):
    """A configured resource cap was hit before the computation finished."""


class OrderCapExceeded(CapExceeded):
    """Group closure grew past the configured order cap."""


class WorkCapExceeded(CapExceeded):
    """Enumeration visited more search-tree nodes than the work cap allows."""


class OrbitCapExceeded(CapExceeded):
    """An orbit closure grew past the configured orbit cap."""


# -- internal invariant violations (exit code 4) ------------------------------

class InternalInvariantViolation(HurwitzError):
    """A property the theory guarantees failed to hold; indicates a bug
    or corrupted input rather than a user mistake."""


class FreeActionViolated(InternalInvariantViolation):
    """A conjugation orbit came out smaller than the acting group."""


class DisconnectedCover(InternalInvariantViolation):
    """Genus requested for an intransitive (disconnected) action."""


class ParityViolation(InternalInvariantViolation):
    """The Euler-characteristic count produced a non-integer or negative genus."""
