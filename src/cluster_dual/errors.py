"""Exception hierarchy shared by all modules.

Every failure mode that a caller can reasonably recover from gets its own
class; plumbing errors (bad arguments) raise the usual ValueError/TypeError.
"""


class ClusterDualError(Exception):
    """Base class for all library-specific errors."""


class DivisionByZero(ClusterDualError, ZeroDivisionError):
    """Exact division by a zero field element."""


class IndexOutOfRange(ClusterDualError, IndexError):
    """A coordinate index outside the declared dimension."""


class UnsupportedType(ClusterDualError):
    """Cartan type string that does not name a finite type of that rank."""


class UnsupportedForType(ClusterDualError):
    """Operation requested for a Cartan type it is not implemented for
    (the matrix layer is type A only, and a check runs only on the types
    that list desk instances for it)."""


class InapplicableMove(ClusterDualError):
    """A word move whose pattern precondition fails at the given site."""


class NoPath(ClusterDualError):
    """Move-graph search exhausted its component without reaching the target."""


class PreconditionFailed(ClusterDualError):
    """A structural precondition of a word/seed construction fails."""


class FrozenDirection(ClusterDualError):
    """Cluster mutation requested at a frozen seed index."""


class FrozenStructureViolation(ClusterDualError):
    """Tropical mutation requested at an unfrozen seed index."""


class InvariantViolation(ClusterDualError):
    """A structural invariant that the library's own constructions guarantee
    fails (malformed Cartan or seed data, an inconsistent map pipeline)."""


class SingularPoint(ClusterDualError, ArithmeticError):
    """Evaluation hit the exceptional locus (zero coordinate, 1+x = 0 with a
    nonzero exponent, vanishing Gauss minor, ...)."""


class NotInBigCell(SingularPoint):
    """Gauss decomposition fails: a leading principal minor vanishes."""

    def __init__(self, minor_index: int):
        self.minor_index = minor_index
        super().__init__(f"leading principal minor {minor_index} vanishes")


class InvalidParameter(ClusterDualError, ValueError):
    """Bad parameter to a group-element constructor."""
