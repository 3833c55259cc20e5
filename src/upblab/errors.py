"""Exception hierarchy for upblab.

Mathematical refutations (a set is not orthogonal, a matrix is not PSD, ...)
are ordinary return values, not exceptions.  Exceptions signal violated
preconditions, malformed input, or representations that cannot support an
exact computation.
"""


class UpbLabError(Exception):
    """Base class for all upblab errors."""


class NotHermitianError(UpbLabError):
    """Operation requires an exactly Hermitian matrix."""


class NotPsdError(UpbLabError):
    """Operation requires a positive semidefinite matrix."""


class NotInRangeError(UpbLabError):
    """A vector required to lie in the range of an operator does not."""


class BadMaskError(UpbLabError):
    """Party subset out of range or empty where it must not be."""


class ApproximateComparisonError(UpbLabError):
    """Exact coordinates were requested for a local that has none: an angle
    state other than 0, 1/4, 1/2 or 3/4 (``LocalState.vec2`` and every
    coordinate path through it: ``flatten``, ``complement_projector``,
    ``subtract_product``).  Comparisons of locals never raise it."""


class VerificationError(UpbLabError):
    """A candidate product set failed orthogonality verification."""

    def __init__(self, i, j, message):
        super().__init__(message)
        self.pair = (i, j)


class NotOrthogonalError(VerificationError):
    def __init__(self, i, j):
        super().__init__(i, j, f"members {i} and {j} are not orthogonal at any party")


class DuplicateMemberError(VerificationError):
    def __init__(self, i, j):
        super().__init__(i, j, f"members {i} and {j} coincide up to phase")


class NonQubitPartyError(UpbLabError):
    """The qubit-only extendibility decision got a non-qubit party."""


class SpansEverythingError(UpbLabError):
    """Complement of a full basis is the zero operator."""


class InvalidSpecError(UpbLabError):
    """A block-OPB specification violates one of its invariants."""


class NotAnOPBError(UpbLabError):
    """Input claimed to be an orthogonal product basis is not one; the
    message names the first block invariant it fails (``opb_to_blocks``)."""


class UnknownFixtureError(UpbLabError):
    """Requested fixture name is not in the registry."""


class ParseError(UpbLabError):
    """A serialized document is malformed."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class SchemaVersionMismatchError(ParseError):
    """Document schema version is not supported."""
