"""Exception types shared across the package."""


class GraphQECError(Exception):
    """Base class for all errors raised by this package."""


class CompositeModulus(GraphQECError):
    """An operation that needs a prime modulus was given a composite one."""


class InvalidSubset(GraphQECError):
    """An error subset contains indices outside the output-node range."""


class DimensionMismatch(GraphQECError):
    """Operator or state dimensions are not composable."""


class DimensionOverflow(GraphQECError):
    """A dense object would exceed the configured amplitude cap."""


class NotIsometry(GraphQECError):
    """A matrix expected to satisfy V*V = 1 does not."""


class NotUnitary(GraphQECError):
    """A matrix expected to satisfy U*U = UU* = 1 does not."""


class KLViolated(GraphQECError):
    """Knill-Laflamme verification failed, so no decoder exists."""


class ParamOutOfRange(GraphQECError, ValueError):
    """A scalar parameter lies outside its documented range."""


class TooManyErrors(ParamOutOfRange):
    """Requested error count f violates 2f < n."""


class PreconditionViolated(GraphQECError):
    """A bound's validity condition fails; carries the violated threshold."""

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


class DeltaTooLarge(GraphQECError):
    """Coding error delta is not below 1/(2e)."""


class UnsupportedDimension(GraphQECError):
    """Formula is only stated for a specific site dimension."""
